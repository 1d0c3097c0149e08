"""Seeded command lists for the three workloads.

Nothing here imports the package under test: the seed only generates CLI
argument lists, and the program sees nothing but those arguments.

A run executes its lead commands once and then seeded batches until the
run's time is used up. Batches of one workload ask for the same amount of
work whatever the seed, so that a seed changes which inputs are used, not
how many seconds they take:

- scan-cold: the scan range is jittered by a few primes, and every batch
  repeats the same two scans into fresh cache files.
- scan-warm: range lengths are stratified, so every batch covers the same
  total length.
- modulus: each slot draws from a fixed, narrow window of primes. For
  `analyze` and `core-theorem` the prime's cost, p * (d(p-1) + 6), must also
  lie within a few percent of the slot's target: they rebuild the core once
  per divisor of p-1, so their time tracks that product, not p alone.

Within one run no two `modulus` commands share a modulus and no two
`scan-warm` commands share a range, so an in-process memo cannot show a
gain that a user, who starts a fresh process per command, would not see.
"""

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

WORKLOADS = ("scan-cold", "scan-warm", "modulus")

# k = 2 scans cover [3, P] with P drawn from this window; P near 8000
# keeps one cold pure-Python scan in the seconds range. A scan's cost grows
# as P^2 / ln P, so the windows are narrow: +-0.5% in P is +-1% in cost.
SCAN_P_WINDOW = (7_960, 8_040)
# the k = 5 scan (moduli wider than one 30-bit CPython digit)
SCAN_K5_P_WINDOW = (1_990, 2_010)
WARM_BATCH = 100
# the traced scan-cold pass also scans through the process pool, with one
# worker per vCPU of the 2-vCPU machine the benchmark was tuned on
POOL_JOBS = 2
# analyze 100003 2 is the ROADMAP's under-1-s target on the pure backend;
# the other two primes share its shape, p - 1 = 2 * 3 * q * r with p = 1
# mod 6, so the three cost the same and their median is steadier than one
MODULUS_ANCHORS = (100_003, 100_183, 100_267)
MODULUS_P_MAX = 120_000  # slot windows span [1e3, 1.2e5]
MAX_BATCHES = 32


@dataclass(frozen=True)
class Command:
    """One CLI invocation; `covers` counts the primes it reports on."""

    argv: tuple[str, ...]
    covers: int
    anchor: bool = False


@dataclass
class Plan:
    """What one run executes, plus the parameters stamped on the result."""

    params: dict
    batches: Iterator[list[Command]]
    # modulus: run once, before the batches and outside batch_s
    lead: list[Command] = field(default_factory=list)
    # scan-warm: the program's own cold scan that fills the cache
    prepare: Optional[Command] = None
    # scan-cold: the (p, k) inputs of the kernel-only pass
    kernel_pass: list[tuple[int, int]] = field(default_factory=list)
    # scan-cold: run once in the traced pass only, for the pool's layer metrics
    pool_probe: list[Command] = field(default_factory=list)
    min_batches: int = 2


def odd_primes_upto(n: int) -> list[int]:
    """Odd primes <= n by a plain sieve, independent of the package."""
    if n < 3:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, n + 1, i)))
    return [i for i in range(3, n + 1, 2) if sieve[i]]


def divisor_counts(n: int) -> list[int]:
    """d(i) for 0 <= i <= n."""
    counts = [0] * (n + 1)
    for i in range(1, n + 1):
        for j in range(i, n + 1, i):
            counts[j] += 1
    return counts


def _scan_plan(rng: random.Random, work: Path) -> Plan:
    p_max = rng.randint(*SCAN_P_WINDOW)
    k5_max = rng.randint(*SCAN_K5_P_WINDOW)
    n2 = len(odd_primes_upto(p_max))
    n5 = len(odd_primes_upto(k5_max))

    def scan(hi: int, k: int, tag: str, extra=(), jobs=1) -> tuple[str, ...]:
        cache = work / f"{tag}.jsonl"
        argv = ("scan", "3", str(hi), str(k), "--jobs", str(jobs), "--cache", str(cache))
        return argv + tuple(extra)

    def batches():
        for i in range(MAX_BATCHES):
            yield [
                Command(scan(p_max, 2, f"cold-{i}-k2"), n2, anchor=True),
                Command(scan(k5_max, 5, f"cold-{i}-k5", ("--format", "structured")), n5),
            ]

    params = {"p_max": p_max, "k5_p_max": k5_max, "jobs": 1, "pool_probe_jobs": POOL_JOBS}
    plan = Plan(params, batches())
    plan.kernel_pass = [(p, 2) for p in odd_primes_upto(p_max)]
    plan.kernel_pass += [(p, 5) for p in odd_primes_upto(k5_max)]
    plan.pool_probe = [Command(scan(p_max, 2, "pool-k2", jobs=POOL_JOBS), n2)]
    return plan


def _warm_plan(rng: random.Random, work: Path) -> Plan:
    p_max = rng.randint(*SCAN_P_WINDOW)
    primes = odd_primes_upto(p_max)
    cache = str(work / "warm.jsonl")
    used = set()

    def scan(lo: int, hi: int, anchor: bool = False) -> Command:
        used.add((lo, hi))
        argv = ("scan", str(lo), str(hi), "2", "--cache", cache)
        return Command(argv, sum(1 for p in primes if lo <= p <= hi), anchor)

    def batches():
        for i in range(MAX_BATCHES):
            # the anchor rescans nearly the whole range, with an upper end of
            # its own in each batch; batch 0's is exactly the cold scan's
            batch = [scan(3, p_max - i, anchor=True)]
            # stratified lengths from 5% to 55% of the range, shuffled
            lengths = [
                int(p_max * (0.05 + 0.5 * (j + rng.random()) / WARM_BATCH))
                for j in range(WARM_BATCH)
            ]
            rng.shuffle(lengths)
            for length in lengths:
                lo = rng.randint(3, p_max - length)
                while (lo, lo + length) in used:
                    lo = rng.randint(3, p_max - length)
                batch.append(scan(lo, lo + length))
            yield batch

    params = {"p_max": p_max, "batch_commands": WARM_BATCH + 1}
    prepare = Command(("scan", "3", str(p_max), "2", "--cache", cache), len(primes))
    return Plan(params, batches(), prepare=prepare)


# (command, format, prime window, k, heavy): heavy commands are costed by
# p * (d(p-1) + 6), light ones by p alone. Heavy windows are narrow, so the
# cost target fixes both p and d(p-1) closely. On the pure backend the slots
# take about 2, 2, 20, 50, then four slots of 150-200 ms, 210, then two of
# 350-450 ms. Over n batches the median command therefore falls among the
# 4n middle commands, and the 90th percentile is the median of the 2n
# slowest, a block well apart from the rest, so noise cannot move either
# percentile onto a different kind of command.
_MODULUS_SLOTS = (
    ("lift", "text", (80_000, 120_000), (2, 3), False),
    ("lift", "structured", (1_000, 1_200), (1, 4), False),
    ("roots", "text", (9_500, 10_500), 2, False),
    ("core-theorem", "structured", (1_800, 2_200), 2, True),
    # k = 5 moduli; p^5 < 2^63 needs p < 6208
    ("analyze", "text", (2_400, 3_600), 5, True),
    ("analyze", "structured", (2_400, 3_600), 5, True),
    ("core-theorem", "text", (6_900, 8_100), 2, True),
    ("analyze", "text", (4_600, 5_400), 2, True),
    ("roots", "structured", (100_000, 110_000), 2, False),
    ("analyze", "structured", (8_300, 9_700), 2, True),
    ("analyze", "text", (8_300, 9_700), 2, True),
)
# the three lead analyses take most of a run's time, so modulus runs at
# least this many batches: each percentile then falls inside a block of
# that many samples of one slot
MODULUS_MIN_BATCHES = 6
_COST_DIVISOR_OFFSET = 6
_COST_TOLERANCE = 0.03
_TARGET_DIVISORS = 16  # d(100002), the anchor's divisor count


def _modulus_plan(rng: random.Random) -> Plan:
    primes = odd_primes_upto(MODULUS_P_MAX)
    counts = divisor_counts(MODULUS_P_MAX)
    used = set(MODULUS_ANCHORS)

    def cost(p: int) -> int:
        return p * (counts[p - 1] + _COST_DIVISOR_OFFSET)

    def pick(window, heavy: bool, lift: bool) -> int:
        lo, hi = window
        pool = [p for p in primes if lo <= p <= hi and p not in used]
        if lift:
            pool = [p for p in pool if p % 6 == 1]  # cubic roots exist
        if heavy:
            target = (lo + hi) // 2 * (_TARGET_DIVISORS + _COST_DIVISOR_OFFSET)
            near = [p for p in pool if abs(cost(p) - target) <= _COST_TOLERANCE * target]
            # once the window runs dry, the closest cost is the next best
            pool = near or sorted(pool, key=lambda p: abs(cost(p) - target))[:1]
        p = rng.choice(pool)
        used.add(p)
        return p

    def batches():
        for _ in range(MAX_BATCHES):
            batch = []
            for cmd, fmt, window, k, heavy in _MODULUS_SLOTS:
                p = pick(window, heavy, cmd == "lift")
                ks = tuple(str(v) for v in k) if isinstance(k, tuple) else (str(k),)
                batch.append(Command((cmd, str(p)) + ks + ("--format", fmt), 1))
            yield batch

    params = {"anchors": MODULUS_ANCHORS, "min_batches": MODULUS_MIN_BATCHES}
    lead = [Command(("analyze", str(p), "2"), 1, anchor=True) for p in MODULUS_ANCHORS]
    return Plan(params, batches(), lead=lead, min_batches=MODULUS_MIN_BATCHES)


def make_plan(workload: str, seed: int, work: Path) -> Plan:
    """The run's commands for `workload`; equal seeds give equal commands."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "scan-cold":
        return _scan_plan(rng, work)
    if workload == "scan-warm":
        return _warm_plan(rng, work)
    if workload == "modulus":
        return _modulus_plan(rng)
    raise ValueError(f"unknown workload {workload!r}")
