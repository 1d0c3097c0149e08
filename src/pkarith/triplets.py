"""Orbits of the successor-inverse map and the prime triplet scan.

The map t(a) = -(a+1)^-1 has order 3 on the units mod p^k wherever it
is defined, so orbits are fixed points (nontrivial cubic roots of 1) or
3-cycles. A 3-cycle (a, b, c) satisfies the chain a+1 = -b^-1,
b+1 = -c^-1, c+1 = -a^-1 and the product relation abc = 1. The scan
looks for 3-cycles lying entirely inside the core, which at k = 2 is
exactly the p-th power residues; the first prime admitting one is 59.

The scan stays on plain integers: per prime, only the two counts and
the first canonical triple leave the kernel (and cross the process
pool, in chunks). That ScanRow, (p, k, degenerate, proper, first,
elapsed), is what scan_prime_list returns, what the scan cache reader
returns per line (as a plain tuple) and what the CLI prints and caches.
Only the library's scan_primes turns rows into ScanRecords, through
scan_record; triplet_from_values is the one place where three integers
become a Triplet of Residues, used by find_core_triplets and scan_record.

ProcessPoolExecutor is imported on first use, through the module
__getattr__ (PEP 562): only a scan with jobs > 1 needs it, and importing
concurrent.futures and multiprocessing takes about a quarter of a fresh
`import pkarith.cli`. The name stays an attribute of this module, so a
value set on it (a test's stand-in, an instrumented pool) is the one a
scan uses.
"""

import os
import time
from dataclasses import dataclass
from typing import NamedTuple, Optional

from . import kernel
from .errors import MemoryBudgetExceeded, ModulusOverflow, NotAUnit, UndefinedAtMinusOne
from .primes import odd_primes_in
from .residues import PrimePowerModulus, Residue, exceeds_bound


@dataclass(frozen=True, slots=True)
class Triplet:
    """A canonical t-map 3-cycle: leading member is the cycle minimum."""

    a: Residue
    b: Residue
    c: Residue
    modulus: PrimePowerModulus

    @property
    def proper(self) -> bool:
        """False only for the degenerate a = b = c cubic-root case."""
        return not (self.a.value == self.b.value == self.c.value)

    def values(self) -> tuple[int, int, int]:
        return self.a.value, self.b.value, self.c.value

    def product(self) -> Residue:
        return self.a * self.b * self.c


@dataclass(frozen=True, slots=True)
class FixedPoint:
    """A fixed point of the t-map: a nontrivial cubic root of 1."""

    value: Residue
    modulus: PrimePowerModulus


@dataclass(frozen=True, slots=True)
class ScanRecord:
    """Per-prime scan outcome; counts are over canonical representatives."""

    p: int
    k: int
    degenerate_count: int
    proper_triplet_count: int
    first_proper: Optional[Triplet]
    elapsed: float


class ScanRow(NamedTuple):
    """Per-prime scan outcome as plain integers; first is the leading
    canonical triple (a tuple, or a list when read from the cache) or None."""

    p: int
    k: int
    degenerate_count: int
    proper_triplet_count: int
    first: Optional[tuple[int, int, int]]
    elapsed: float


def t_map(a: Residue) -> Residue:
    """The successor-inverse map -(a+1)^-1 mod p^k."""
    if not a.is_unit:
        raise NotAUnit(f"{a.value} is divisible by {a.modulus.p}")
    if (a.value + 1) % a.modulus.p == 0:
        raise UndefinedAtMinusOne(f"{a.value} + 1 is not a unit mod {a.modulus.p}")
    return -a.shift(1).inverse()


def orbit_of(a: Residue) -> Triplet | FixedPoint:
    """The t-map orbit of a: a FixedPoint, or the canonical 3-cycle.

    The map has order 3, so the orbit always closes after at most three
    steps; that closure is asserted rather than assumed.
    """
    b = t_map(a)
    if b.value == a.value:
        return FixedPoint(a, a.modulus)
    c = t_map(b)
    closure = t_map(c)
    if closure.value != a.value:
        raise AssertionError(f"orbit of {a.value} failed to close: t^3 != id")
    cycle = (a, b, c)
    lead = min(range(3), key=lambda i: cycle[i].value)
    a, b, c = cycle[lead:] + cycle[:lead]
    return Triplet(a, b, c, a.modulus)


def _available_memory(meminfo: str = "/proc/meminfo") -> Optional[int]:
    """Bytes of memory available to new allocations: MemAvailable where
    meminfo has it, else physical memory from sysconf, else None.

    MemAvailable counts the page cache the kernel can reclaim. sysconf's
    SC_AVPHYS_PAGES, MemFree on Linux, leaves that out, so it would refuse
    tables that fit.
    """
    try:
        with open(meminfo, "rb") as handle:
            for line in handle:
                if line.startswith(b"MemAvailable:"):
                    return int(line.split()[1]) * 1024  # in kB
    except (OSError, ValueError):
        pass
    try:
        total = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None
    return total if total > 0 else None


# bytes the kernel's class table may take, as free when the program
# started; None skips the check
TABLE_BUDGET = _available_memory()


def _check_table_budget(p: int, entry_bytes: int = 8, table: str = "scan table") -> None:
    """Raise MemoryBudgetExceeded if a table for p, one entry of
    entry_bytes per residue class, would exceed TABLE_BUDGET. The default
    is the kernel's class table."""
    need = entry_bytes * p
    if TABLE_BUDGET is not None and need > TABLE_BUDGET:
        raise MemoryBudgetExceeded(
            f"the {table} for p = {p} needs {need} bytes, "
            f"over the {TABLE_BUDGET}-byte budget (available memory)"
        )


def triplet_from_values(modulus: PrimePowerModulus, values) -> Triplet:
    """The Triplet whose members are the three plain integers in values."""
    a, b, c = (Residue(v, modulus) for v in values)
    return Triplet(a, b, c, modulus)


def find_core_triplets(modulus: PrimePowerModulus) -> tuple[list[Triplet], list[FixedPoint]]:
    """All-core t-map orbits mod p^k: (proper 3-cycles, fixed points).

    Iterates the p-1 core elements and keeps only orbits whose members
    all lie in the core; at k = 2 those members are exactly the p-th
    power residues. Both lists are sorted by leading value. Raises
    MemoryBudgetExceeded, before the kernel runs, if its table for p
    would exceed TABLE_BUDGET.
    """
    if modulus.k < 2:
        raise ValueError("find_core_triplets needs k >= 2; at k = 1 the core is all units")
    _check_table_budget(modulus.p)
    fixed_values, triplet_values = kernel.scan_core_triplets(modulus.p, modulus.k)
    fixed = [FixedPoint(Residue(v, modulus), modulus) for v in fixed_values]
    return [triplet_from_values(modulus, t) for t in triplet_values], fixed


def _scan_one(args: tuple[int, int]) -> ScanRow:
    """The row for one prime: the counts, the first canonical triple as
    plain integers, and the kernel's seconds."""
    p, k = args
    start = time.perf_counter()
    fixed_values, triplet_values = kernel.scan_core_triplets(p, k)
    elapsed = time.perf_counter() - start
    first = triplet_values[0] if triplet_values else None
    return ScanRow(p, k, len(fixed_values), len(triplet_values), first, elapsed)


def scan_record(p, k, degenerate_count, proper_count, first, elapsed) -> ScanRecord:
    """A ScanRecord from plain integers; first is the leading triple or
    None, and a modulus is built only for a record that carries one."""
    triplet = None if first is None else triplet_from_values(PrimePowerModulus(p, k), first)
    return ScanRecord(p, k, degenerate_count, proper_count, triplet, elapsed)


def __getattr__(name: str):
    """ProcessPoolExecutor, imported on first use and kept in the module
    globals, so later lookups find it without this hook."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


def scan_prime_list(primes: list[int], k: int, jobs: int = 1) -> list[ScanRow]:
    """The ScanRow of each listed prime, in listed order, from the kernel
    that find_core_triplets runs; no Residue is built.

    jobs > 1 fans the per-prime work out across processes, in about four
    chunks per worker (the split multiprocessing.Pool.map makes) rather
    than one round trip per prime, and starts no more workers than there
    are chunks; the output order still follows the input list. Before
    any prime is scanned, the largest one is checked against the 2^63
    modulus bound, which p^k then meets for every listed p, and its
    kernel table against TABLE_BUDGET.
    """
    if k < 2:
        raise ValueError("scan needs k >= 2")
    if primes:
        p_max = max(primes)
        if exceeds_bound(p_max, k):
            raise ModulusOverflow(f"{p_max}^{k} exceeds the 2^63 modulus bound")
        _check_table_budget(p_max)
    work = [(p, k) for p in primes]
    if jobs > 1 and len(work) > 1:
        chunksize = -(-len(work) // (4 * jobs))
        # a forked pool starts all its workers at the first submit
        workers = min(jobs, -(-len(work) // chunksize))
        executor = globals().get("ProcessPoolExecutor") or __getattr__("ProcessPoolExecutor")
        with executor(max_workers=workers) as pool:
            return list(pool.map(_scan_one, work, chunksize=chunksize))
    return [_scan_one(item) for item in work]


def scan_primes(p_min: int, p_max: int, k: int, jobs: int = 1) -> list[ScanRecord]:
    """Run find_core_triplets for every prime in [p_min, p_max].

    Records come back in ascending prime order regardless of how the
    per-prime work is scheduled.
    """
    if not 3 <= p_min <= p_max:
        raise ValueError(f"need 3 <= p_min <= p_max, got [{p_min}, {p_max}]")
    if k < 2:  # before listing the primes that scan_prime_list would refuse
        raise ValueError("scan needs k >= 2")
    if exceeds_bound(p_max, k):
        raise ModulusOverflow(f"{p_max}^{k} exceeds the 2^63 modulus bound")
    rows = scan_prime_list(list(odd_primes_in(p_min, p_max)), k, jobs)
    return [scan_record(*row) for row in rows]
