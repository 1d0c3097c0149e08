"""Tests for the benchmark's own code: percentile selection, self-time
arithmetic, the speed calibration, the seeded plans, and the oracle's
failure paths.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import io
import json
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import calibrate
import oracle
import stats
from tracer import Tracer
from workloads import Command, make_plan, odd_primes_upto


# --- percentile selection ---------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(10, 0, -1))  # unsorted on purpose
    assert stats.percentile(values, 50) == 5
    assert stats.percentile(values, 90) == 9
    assert stats.percentile(values, 100) == 10
    assert stats.percentile(values, 1) == 1
    assert stats.percentile([7.5], 90) == 7.5


def test_percentile_returns_a_sample():
    values = [0.3, 0.1, 0.2, 0.4]
    assert stats.percentile(values, 50) == 0.2
    assert stats.percentile(values, 90) == 0.4


@pytest.mark.parametrize("q", [0, -1, 101])
def test_percentile_rejects_bad_rank(q):
    with pytest.raises(ValueError):
        stats.percentile([1, 2], q)


def test_percentile_rejects_no_samples():
    with pytest.raises(ValueError):
        stats.percentile([], 50)


# --- speed calibration ------------------------------------------------------


def test_scale_is_reference_over_mean_speed():
    ref = calibrate.REFERENCE_BLOCK_S
    assert calibrate.scale([ref]) == pytest.approx(1.0)
    # a host at half speed doubles the block time and halves the factor
    assert calibrate.scale([2 * ref, 2 * ref]) == pytest.approx(0.5)
    # mean speed, not mean time: half the interval at full speed, half at
    # a third of it, averages 2/3 of full speed
    assert calibrate.scale([ref, 3 * ref]) == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        calibrate.scale([])


def test_sampler_scales_by_the_samples_around_an_interval():
    sampler = calibrate.SpeedSampler()
    ref, w = calibrate.REFERENCE_BLOCK_S, calibrate.WINDOW_S
    sampler.times = [0.0, 10.0, 10.5, 20.0]
    sampler.samples = [ref, 2 * ref, 2 * ref, ref]
    assert sampler.around(10.0 - w / 2, 10.5) == [2 * ref, 2 * ref]
    assert sampler.scaled(10.0, 10.5, 1.0) == pytest.approx(0.5)
    # no sample near the interval: the nearest one is used
    assert sampler.around(15.0, 16.0) == [ref]


def test_sampler_samples_while_running_and_counts_its_time():
    with calibrate.SpeedSampler() as sampler:
        deadline = time.perf_counter() + 3 * calibrate.PERIOD_S
        while time.perf_counter() < deadline:
            pass
    assert len(sampler.samples) >= 3
    assert sampler.spent == pytest.approx(sum(sampler.samples))
    assert sampler.times == sorted(sampler.times)


def test_runner_span_leaves_out_sampler_time():
    import worker

    class Cli:
        def main(self, argv):
            sampler.spent += 0.25  # as if the handler ran during the command
            return 0

    sampler = calibrate.SpeedSampler()
    runner = worker.Runner(Cli(), sampler=sampler)
    span, rc, _ = runner.run(Command(("scan",), 0))
    assert rc == 0
    assert span.seconds == pytest.approx(span.end - span.start - 0.25)


# --- self time --------------------------------------------------------------


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_direct_children_only():
    # cli.main 0..10 > report.build 2..5 > groups.core 3..4; kernel 6..9
    tracer = Tracer(clock=FakeClock([0, 2, 3, 4, 5, 6, 9, 10]))
    tracer.open("cli.main")
    with tracer.span("report.build"):
        with tracer.span("groups.core"):
            pass
    with tracer.span("kernel.scan"):
        pass
    tracer.close()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["cli.main"].self_time == 10 - 3 - 3
    assert by_name["report.build"].self_time == 3 - 1
    assert by_name["groups.core"].self_time == 1
    assert tracer.layer_self() == {"cli": 4, "report": 2, "groups": 1, "kernel": 3}
    assert sum(tracer.layer_self().values()) == by_name["cli.main"].duration


def test_nested_spans_of_one_layer_are_not_counted_twice():
    tracer = Tracer(clock=FakeClock([0, 1, 4, 5]))
    with tracer.span("subgroups.verify"):
        with tracer.span("subgroups.core_subgroup"):
            pass
    assert tracer.layer_self()["subgroups"] == 5
    assert tracer.total("subgroups.core_subgroup") == 3
    assert tracer.calls("subgroups.core_subgroup") == 1


def test_span_closes_when_the_call_raises():
    tracer = Tracer(clock=FakeClock([0, 1, 2, 3]))
    tracer.open("cli.main")
    with pytest.raises(RuntimeError):
        with tracer.span("report.build"):
            raise RuntimeError
    tracer.close()
    assert not tracer.stack
    assert tracer.layer_self()["cli"] == 2


# --- seeded plans -----------------------------------------------------------


def _argvs(workload, seed, batches=3):
    plan = make_plan(workload, seed, Path("work"))
    lead = [c.argv for c in plan.lead]
    return lead + [c.argv for _, b in zip(range(batches), plan.batches) for c in b]


@pytest.mark.parametrize("workload", ["scan-cold", "scan-warm", "modulus"])
def test_same_seed_same_commands(workload):
    assert _argvs(workload, 5) == _argvs(workload, 5)
    assert _argvs(workload, 5) != _argvs(workload, 6)


def test_modulus_commands_never_share_a_modulus():
    argvs = _argvs("modulus", 3, batches=8)
    primes = [int(a[1]) for a in argvs]
    assert len(primes) == len(set(primes))
    assert ("analyze", "100003", "2") in argvs
    assert len([a for a in argvs if int(a[1]) > 100_000 and a[0] == "analyze"]) == 3
    assert any(a[0] == "analyze" and a[2] == "5" for a in argvs)
    assert all(int(a[1]) % 6 == 1 for a in argvs if a[0] == "lift")


def test_warm_ranges_never_repeat():
    plan = make_plan("scan-warm", 3, Path("work"))
    argvs = _argvs("scan-warm", 3, batches=3)
    ranges = [a[1:3] for a in argvs]
    assert len(ranges) == len(set(ranges)) == 303
    # batch 0's anchor is the range the cold scan filled the cache with
    assert argvs[0] == plan.prepare.argv


# --- oracle -----------------------------------------------------------------

SCAN = ("scan", "50", "62", "2")
GOOD_SCAN = (
    "  p = 53: no proper triplets, 0 degenerate\n"
    "  p = 59: 1 proper triplets, 0 degenerate; first (298, 1106, 805)\n"
    "  p = 61: no proper triplets, 2 degenerate\n"
    "summary: first proper triplet at p = 59: (298, 1106, 805)\n"
)


def test_oracle_accepts_the_paper_onset():
    assert oracle.check(SCAN, 0, GOOD_SCAN) == []


def test_oracle_flags_a_nonzero_exit():
    assert oracle.check(SCAN, 2, "") == ["exit 2"]


def test_oracle_flags_a_wrong_degenerate_count():
    bad = GOOD_SCAN.replace("61: no proper triplets, 2", "61: no proper triplets, 0")
    assert any("degenerate" in p for p in oracle.check(SCAN, 0, bad))


def test_oracle_flags_a_triplet_off_the_cycle():
    bad = GOOD_SCAN.replace("(298, 1106, 805)", "(298, 805, 1106)")
    problems = oracle.check(SCAN, 0, bad)
    assert any("!= -1" in p for p in problems)
    assert any("onset" in p for p in problems)


def test_oracle_flags_a_missing_onset():
    bad = (
        "  p = 53: no proper triplets, 0 degenerate\n"
        "  p = 59: no proper triplets, 0 degenerate\n"
        "  p = 61: no proper triplets, 2 degenerate\n"
        "summary: no proper triplets found\n"
    )
    assert any("onset" in p for p in oracle.check(SCAN, 0, bad))


def test_oracle_flags_a_missing_prime():
    bad = GOOD_SCAN.replace("  p = 53: no proper triplets, 0 degenerate\n", "")
    assert any("odd primes" in p for p in oracle.check(SCAN, 0, bad))


def test_warm_text_is_the_cold_lines():
    assert oracle.expected_warm_text(GOOD_SCAN, 55, 62) == (
        "  p = 59: 1 proper triplets, 0 degenerate; first (298, 1106, 805)\n"
        "  p = 61: no proper triplets, 2 degenerate\n"
        "summary: first proper triplet at p = 59: (298, 1106, 805)\n"
    )
    assert oracle.expected_warm_text(GOOD_SCAN, 60, 62).endswith(
        "summary: no proper triplets found\n")


def test_oracle_flags_a_failing_core_theorem():
    out = (
        "core theorem mod 13^2: subgroup sums over divisors of p - 1 = 12\n"
        + "".join(f"  d = {d}: sum = 0, pass\n" for d in (2, 3, 4, 6))
        + "  d = 12: sum = 7, FAIL\n"
        "  d = 1 excluded: trivial subgroup sums to 1\n"
        "FAILURES present\n"
    )
    problems = oracle.check(("core-theorem", "13", "2"), 0, out)
    assert any("d = 12" in p for p in problems)
    assert any("all pass" in p for p in problems)
    # a divisor silently left out is a failure too
    skipped = out.replace("  d = 12: sum = 7, FAIL\n", "").replace("FAILURES present", "all pass")
    assert any("every divisor" in p for p in oracle.check(("core-theorem", "13", "2"), 0, skipped))


def test_oracle_flags_an_flt_pair_off_minus_one():
    out = (
        "FLT root pairs mod 49 (core pairs with a + b = -1):\n"
        "  (18, 31)  base-7 (24, 43)  EDS holds  [cubic-root pair]\n"
    )
    problems = oracle.check(("roots", "7", "2"), 0, out)
    assert any("sum to -1" in p for p in problems)


def test_oracle_flags_a_core_element_that_moves_under_the_fermat_map():
    doc = {"report": {
        "core": [{"dec": c} for c in (31, 30, 48, 18, 19, 2)],  # 2^7 != 2 mod 49
        "cubic_roots": [{"dec": c} for c in (1, 18, 30)],
        "flt_pairs": [{"a": {"dec": 18}, "b": {"dec": 30}, "eds_holds": True}],
        "core_theorem": {"checks": [{"d": d, "sum": 0, "pass": True} for d in (2, 3, 6)]},
        "triplets": {"proper": [], "fixed_points": [{"dec": 18}, {"dec": 30}]},
    }}
    argv = ("analyze", "7", "2", "--format", "structured")
    problems = oracle.check(argv, 0, json.dumps(doc))
    assert problems == ["core element 2: c^p != c mod 49"]


def test_oracle_flags_a_wrong_lift():
    out = (
        "cubic roots of 1 mod 7^4 (lifted from precision 2):\n"
        "  roots: 1 18 30  base-7: 0001 0024 0042\n"
        "  zero sum mod 2401: pass\n"
        "  one-complement a + a^-1 = -1: pass\n"
    )
    assert oracle.check(("lift", "7", "2", "4"), 0, out)


def test_oracle_flags_unparseable_output():
    argv = ("analyze", "7", "2", "--format", "structured")
    assert oracle.check(argv, 0, "not json")[0].startswith("unparseable output")


# --- against the real CLI ---------------------------------------------------


def _cli(*argv):
    cli = pytest.importorskip("pkarith.cli")
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


@pytest.mark.parametrize("argv", [
    ("scan", "3", "120", "2"),
    ("scan", "3", "120", "2", "--format", "structured"),
    ("scan", "3", "200", "5"),
    ("analyze", "7", "2"),
    ("analyze", "61", "3", "--format", "structured"),
    ("analyze", "1999", "5"),
    ("roots", "59", "2"),
    ("roots", "61", "2", "--format", "structured"),
    ("core-theorem", "13", "2"),
    ("core-theorem", "13", "2", "--format", "structured"),
    ("lift", "7", "2", "4"),
    ("lift", "13", "1", "3", "--format", "structured"),
])
def test_oracle_accepts_real_output(argv):
    rc, out = _cli(*argv)
    assert oracle.check(argv, rc, out) == []


def test_oracle_catches_a_forged_cache_record(tmp_path):
    """A cache line claiming (1, 2, 3) at p = 59 is printed by the CLI as
    the onset triplet; the oracle must reject that output."""
    cache = tmp_path / "forged.jsonl"
    cache.write_text(json.dumps({
        "p": 59, "k": 2, "degenerate_count": 0, "proper_triplet_count": 1,
        "first_proper": [1, 2, 3], "elapsed": 0.0}) + "\n")
    argv = ("scan", "3", "100", "2", "--cache", str(cache))
    rc, out = _cli(*argv)
    assert rc == 0 and "(1, 2, 3)" in out
    problems = oracle.check(argv, rc, out)
    assert any("not in the core" in p for p in problems)
    assert any("onset" in p for p in problems)


def test_instrumentation_counts_and_restores(tmp_path):
    cli = pytest.importorskip("pkarith.cli")
    from pkarith import kernel, residues

    from tracer import Instrumentation

    originals = (kernel.scan_core_triplets, residues.Residue.__post_init__, cli.scan_prime_list)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        inst = Instrumentation(tracer)
        try:
            with redirect_stdout(io.StringIO()):
                assert cli.main(["scan", "3", "100", "2"]) == 0
        finally:
            inst.uninstall()
        metrics = inst.layer_metrics()
        counts.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
    assert counts[0] == counts[1]
    primes = odd_primes_upto(100)
    assert counts[0]["kernel.calls"] == len(primes)
    assert counts[0]["kernel.elements"] == sum(p - 1 for p in primes)
    assert counts[0]["triplets.pool_tasks"] == 0
    assert (kernel.scan_core_triplets, residues.Residue.__post_init__,
            cli.scan_prime_list) == originals


# --- kernel pass ------------------------------------------------------------


def test_kernel_pass_fails_on_any_backend_mismatch(monkeypatch):
    import sys
    import types

    kernel_py = pytest.importorskip("pkarith._kernel_py")
    import worker

    inputs = [(7, 2), (59, 2), (61, 3)]
    broken = types.SimpleNamespace(scan_core_triplets=lambda p, k: ([], []))
    monkeypatch.setitem(sys.modules, "pkarith._kernel", broken)
    timings, parity, mismatches = worker.kernel_pass(inputs, 0)
    assert parity.startswith("mismatch") and mismatches
    assert set(timings) == {"pure", "compiled"}

    twin = types.SimpleNamespace(scan_core_triplets=kernel_py.scan_core_triplets)
    monkeypatch.setitem(sys.modules, "pkarith._kernel", twin)
    assert worker.kernel_pass(inputs, 0)[1:] == ("pass", [])


def test_kernel_pass_says_when_parity_is_skipped(monkeypatch):
    import sys

    pytest.importorskip("pkarith._kernel_py")
    import worker

    monkeypatch.setitem(sys.modules, "pkarith._kernel", None)  # not importable
    timings, parity, mismatches = worker.kernel_pass([(7, 2)], 0)
    assert parity == "skipped (no compiled kernel importable)"
    assert set(timings) == {"pure"} and mismatches == []
    q1, median, q3 = timings["pure"]
    assert 0 < q1 <= median <= q3
