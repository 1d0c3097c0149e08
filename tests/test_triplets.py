"""Successor-inverse orbits and the triplet scan."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pkarith import kernel, triplets
from pkarith.cli import main
from pkarith.errors import (
    CorruptCache,
    MemoryBudgetExceeded,
    ModulusOverflow,
    NotAUnit,
    UndefinedAtMinusOne,
)
from pkarith.groups import is_core_member
from pkarith.primes import odd_primes_in
from pkarith.report import (
    _check_first_proper,
    append_scan_cache,
    envelope,
    row_from_dict,
    row_to_dict,
    scan_summary,
    scan_to_dict,
)
from pkarith.residues import PrimePowerModulus, Residue, exceeds_bound
from pkarith.roots import cubic_roots_of_unity
from pkarith.triplets import (
    FixedPoint,
    ScanRecord,
    ScanRow,
    Triplet,
    find_core_triplets,
    orbit_of,
    scan_prime_list,
    scan_primes,
    t_map,
)


def res(value, p, k):
    return Residue(value, PrimePowerModulus(p, k))


def chain_holds(t: Triplet) -> bool:
    m = t.modulus.m
    links = [(t.a, t.b), (t.b, t.c), (t.c, t.a)]
    return all(
        (x.value + 1 + pow(y.value, -1, m)) % m == 0 for x, y in links
    )


class TestTMap:
    def test_cubic_root_is_fixed(self):
        assert t_map(res(18, 7, 2)).value == 18

    def test_generic_value(self):
        assert t_map(res(2, 7, 2)).value == 16

    def test_undefined_at_minus_one_class(self):
        with pytest.raises(UndefinedAtMinusOne):
            t_map(res(48, 7, 2))
        with pytest.raises(UndefinedAtMinusOne):
            t_map(res(6, 7, 2))

    def test_rejects_non_unit(self):
        with pytest.raises(NotAUnit):
            t_map(res(14, 7, 2))

    @pytest.mark.parametrize("p", list(odd_primes_in(3, 101)))
    def test_order_three_exhaustively_mod_p2(self, p):
        mod = PrimePowerModulus(p, 2)
        for v in range(1, mod.m):
            if v % p == 0 or (v + 1) % p == 0:
                continue
            a = Residue(v, mod)
            assert t_map(t_map(t_map(a))).value == v


class TestOrbitOf:
    def test_three_cycle(self):
        orbit = orbit_of(res(2, 7, 2))
        assert isinstance(orbit, Triplet)
        assert orbit.values() == (2, 16, 23)
        assert orbit.product().value == 1
        assert orbit.proper
        assert chain_holds(orbit)

    def test_fixed_point_for_cubic_root(self):
        orbit = orbit_of(res(18, 7, 2))
        assert isinstance(orbit, FixedPoint)
        assert orbit.value.value == 18

    def test_orbit_of_one(self):
        orbit = orbit_of(res(1, 7, 2))
        assert orbit.values() == (1, 24, 47)
        assert (1 * 24 * 47) % 49 == 1

    def test_canonical_rotation_starts_at_minimum(self):
        for start in (2, 16, 23):
            assert orbit_of(res(start, 7, 2)).values() == (2, 16, 23)

    def test_fixed_points_are_cubic_roots(self):
        for p in odd_primes_in(7, 500):
            if p % 6 != 1:
                continue
            mod = PrimePowerModulus(p, 2)
            lo, hi = cubic_roots_of_unity(mod).nontrivial
            for root in (lo, hi):
                assert isinstance(orbit_of(root), FixedPoint)


class TestFindCoreTriplets:
    def test_mod_49_has_only_fixed_points(self):
        proper, fixed = find_core_triplets(PrimePowerModulus(7, 2))
        assert proper == []
        assert [f.value.value for f in fixed] == [18, 30]

    def test_mod_25_is_empty(self):
        proper, fixed = find_core_triplets(PrimePowerModulus(5, 2))
        assert proper == [] and fixed == []

    def test_onset_prime_59(self):
        proper, fixed = find_core_triplets(PrimePowerModulus(59, 2))
        assert fixed == []
        assert [t.values() for t in proper] == [
            (298, 1106, 805),
            (299, 1404, 1105),
            (2076, 3181, 2375),
            (2374, 3182, 2675),
        ]
        for t in proper:
            assert chain_holds(t)
            assert t.product().value == 1
            assert t.proper
            for member in (t.a, t.b, t.c):
                assert is_core_member(member)
            assert t.a.value == min(t.values())

    def test_rejects_k1(self):
        with pytest.raises(ValueError):
            find_core_triplets(PrimePowerModulus(7, 1))


class TestScanPrimes:
    def test_nothing_below_59(self):
        records = scan_primes(3, 57, 2)
        assert all(r.proper_triplet_count == 0 for r in records)
        assert all(r.first_proper is None for r in records)

    def test_onset_record(self):
        (record,) = scan_primes(59, 59, 2)
        assert type(record) is ScanRecord and type(record.first_proper) is Triplet
        assert record.proper_triplet_count == 4
        assert record.first_proper.values() == (298, 1106, 805)

    def test_degenerate_count_mod_49(self):
        (record,) = scan_primes(7, 7, 2)
        assert record.degenerate_count == 2
        assert record.proper_triplet_count == 0

    def test_ascending_order_and_determinism(self):
        first = scan_primes(3, 100, 2)
        second = scan_primes(3, 100, 2)
        assert [r.p for r in first] == sorted(r.p for r in first)
        stripped = lambda rs: [
            (r.p, r.k, r.degenerate_count, r.proper_triplet_count, r.first_proper)
            for r in rs
        ]
        assert stripped(first) == stripped(second)

    def test_parallel_matches_serial(self):
        # serial and pooled rows both agree with find_core_triplets
        for k, p_max in ((2, 2000), (3, 300), (4, 300), (5, 300)):
            primes = list(odd_primes_in(3, p_max))
            expected = []
            for p in primes:
                proper, fixed = find_core_triplets(PrimePowerModulus(p, k))
                first = proper[0].values() if proper else None
                expected.append((p, k, len(fixed), len(proper), first))
            for jobs in (1, 2):
                rows = scan_prime_list(primes, k, jobs=jobs)
                assert all(type(row) is ScanRow for row in rows)
                assert [row[:5] for row in rows] == expected, (k, jobs)

    def test_pool_starts_no_more_workers_than_chunks(self, monkeypatch, capsys):
        """A stand-in executor records max_workers and runs the chunks in
        this process, so no worker process is ever started."""
        monkeypatch.delenv("PKARITH_CACHE", raising=False)
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(triplets, "ProcessPoolExecutor", RecordingPool)
        primes = list(odd_primes_in(3, 100))
        assert len(primes) == 24
        serial = [row[:5] for row in scan_prime_list(primes, 2)]
        # 24 primes: one per chunk below 6 jobs, chunks of 3 with 2 jobs
        for jobs, workers in ((5000, 24), (24, 24), (7, 7), (2, 2)):
            assert [row[:5] for row in scan_prime_list(primes, 2, jobs=jobs)] == serial
            assert started[-1] == workers, jobs
        assert main(["scan", "3", "100", "2", "--jobs", "5000"]) == 0
        assert started[-1] == 24

    def test_triplet_primes_below_200(self):
        records = scan_primes(3, 200, 2)
        assert [r.p for r in records if r.proper_triplet_count] == [59, 79, 83, 179, 193]

    def test_counts_match_first_proper_presence(self):
        for r in scan_primes(3, 120, 2):
            assert (r.proper_triplet_count > 0) == (r.first_proper is not None)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            scan_primes(10, 3, 2)
        with pytest.raises(ValueError):
            scan_primes(3, 10, 1)

    def test_overflow_rejected(self):
        with pytest.raises(ModulusOverflow):
            scan_primes(3, 4_000_000_000, 2)

    def test_higher_precision_scan(self):
        # at k = 3 the 59-triplets do not reappear; recorded as observed
        (record,) = scan_primes(59, 59, 3)
        assert record.k == 3
        assert record.proper_triplet_count == 0


class TestTableBudget:
    """The kernel's 8-byte-per-class table is checked before it exists;
    the budget is lowered here, never tested with a real allocation."""

    def test_find_core_triplets_refuses_over_budget(self, monkeypatch):
        monkeypatch.setattr(triplets, "TABLE_BUDGET", 8 * 59 - 1)
        with pytest.raises(MemoryBudgetExceeded, match=r"p = 59 needs 472 bytes, over the 471"):
            find_core_triplets(PrimePowerModulus(59, 2))
        monkeypatch.setattr(triplets, "TABLE_BUDGET", 8 * 59)
        assert len(find_core_triplets(PrimePowerModulus(59, 2))[0]) == 4

    def test_scan_checks_the_largest_prime_before_any_kernel_call(self, monkeypatch):
        def kernel_must_not_run(p, k):
            raise AssertionError(f"kernel ran for p = {p}")

        monkeypatch.setattr(triplets, "TABLE_BUDGET", 8 * 100)
        monkeypatch.setattr(kernel, "scan_core_triplets", kernel_must_not_run)
        with pytest.raises(MemoryBudgetExceeded, match=r"p = 101 needs 808 bytes"):
            scan_prime_list([3, 101, 59], 2)
        with pytest.raises(MemoryBudgetExceeded):
            scan_primes(3, 200, 2, jobs=2)

    def test_no_budget_skips_the_check(self, monkeypatch):
        monkeypatch.setattr(triplets, "TABLE_BUDGET", None)
        (record,) = scan_primes(59, 59, 2)
        assert record.proper_triplet_count == 4

    def test_budget_is_available_memory_where_meminfo_tells(self, tmp_path):
        meminfo = tmp_path / "meminfo"
        meminfo.write_text(
            "MemTotal:        8222320 kB\nMemFree:         6270736 kB\n"
            "MemAvailable:    7500000 kB\nBuffers:          104980 kB\n"
        )
        assert triplets._available_memory(str(meminfo)) == 7_680_000_000

    def test_budget_is_physical_memory_where_sysconf_tells(self, monkeypatch, tmp_path):
        meminfo = tmp_path / "meminfo"
        meminfo.write_text("MemTotal:        8222320 kB\nMemFree:         6270736 kB\n")
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1000}
        monkeypatch.setattr(triplets.os, "sysconf", pages.__getitem__, raising=False)
        assert triplets._available_memory(str(meminfo)) == 4_096_000
        missing = str(tmp_path / "no-meminfo")
        assert triplets._available_memory(missing) == 4_096_000

        def unsupported(name):
            raise ValueError(f"unrecognized configuration name {name}")

        monkeypatch.setattr(triplets.os, "sysconf", unsupported)
        assert triplets._available_memory(missing) is None
        monkeypatch.delattr(triplets.os, "sysconf")
        assert triplets._available_memory(missing) is None


@pytest.mark.parametrize("k", [2, 3])
def test_a_chain_with_a_and_b_in_the_core_has_c_in_the_core(k):
    """The premise of the cache check's two pow calls: on a closed chain
    (a+1)b = (b+1)c = (c+1)a = -1, abc = 1, so c = (ab)^-1 is in the core
    with a and b. Every unit starts a chain for m < 3000, every core
    member above that; the check accepts exactly the chains of three
    distinct core members."""
    closed, accepted_chains, proper = 0, 0, 0
    for p in odd_primes_in(3, 199):
        proper += len(kernel.scan_core_triplets(p, k)[1])
        m = p**k
        core = {pow(x, p ** (k - 1), m) for x in range(1, p)}
        for a in range(1, m) if m < 3000 else sorted(core):
            try:
                b = -pow(a + 1, -1, m) % m
                c = -pow(b + 1, -1, m) % m
            except ValueError:  # a + 1 or b + 1 is not a unit
                continue
            if (c + 1) * a % m != m - 1:
                continue
            closed += 1
            assert a * b * c % m == 1
            if a in core and b in core:
                assert c in core
            chain = [a, b, c]
            low = chain.index(min(chain))
            first = chain[low:] + chain[:low]
            try:
                _check_first_proper(p, k, first)
                accepted = True
            except CorruptCache:
                accepted = False
            assert accepted == (len({a, b, c}) == 3 and {a, b, c} <= core)
            accepted_chains += accepted
    assert closed > 5_000
    # each of the kernel's proper triplets, once from each member
    assert accepted_chains == 3 * proper
    assert proper > 0 or k == 3  # none mod p^3 for p < 200


# every (p, 2, first triplet) below 200; no proper triplet exists for
# k >= 3 at small p, so larger moduli are drawn without one
KNOWN_FIRSTS = [
    (p, 2, kernel.scan_core_triplets(p, 2)[1][0]) for p in (59, 79, 83, 179, 193)
]


def _largest_base(k: int) -> int:
    """The largest p with p^k below the 2^63 modulus bound."""
    p = int(2 ** (63 / k)) + 2
    while exceeds_bound(p, k):
        p -= 1
    return p


@st.composite
def scan_rows(draw) -> ScanRow:
    if draw(st.booleans()):
        p, k, first = draw(st.sampled_from(KNOWN_FIRSTS))
        first = draw(st.sampled_from([first, list(first)]))
        proper = draw(st.integers(1, 10**6))
    else:
        k = draw(st.integers(2, 39))  # 3^39 < 2^63 < 3^40
        top = _largest_base(k)
        p = draw(st.integers(3, top) | st.integers(max(3, top - 100), top))
        p -= 1 - p % 2  # odd, still >= 3
        first, proper = None, 0
    elapsed = draw(st.integers(0, 10**6) | st.floats(0, 1e3))
    return ScanRow(p, k, draw(st.integers(0, 10**6)), proper, first, elapsed)


@given(st.lists(scan_rows(), max_size=4))
def test_cache_record_round_trip(rows):
    """Each cache line is json.dumps(row_to_dict(row)), byte for byte,
    and reads back to the row, elapsed rounded to the microsecond."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scan.jsonl"
        append_scan_cache(path, rows)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    assert lines == [json.dumps(row_to_dict(row)) + "\n" for row in rows]
    for line, row in zip(lines, rows):
        first = None if row.first is None else list(row.first)
        assert row_from_dict(json.loads(line)) == (*row[:4], first, round(row.elapsed, 6))


@given(
    st.lists(scan_rows(), max_size=4),
    st.fixed_dictionaries(
        {"p_min": st.integers(3, 2**62), "p_max": st.integers(3, 2**62), "k": st.integers(2, 62)}
    ),
)
def test_scan_envelope_from_rows(rows, params):
    """The records rendered from the template are json.dumps's, byte for
    byte, for no rows too."""
    expected = envelope("scan", params, scan_to_dict(rows))
    assert envelope("scan", params, {"summary": scan_summary(rows)}, rows) == expected
