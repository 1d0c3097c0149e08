"""One workload in one process: run the plan, check outputs, measure.

Started by run.py with PYTHONPATH pointing at the built copy of the
package. The load is a closed loop with one client: each command is an
in-process `cli.main(argv)` call with stdout captured, started when the
previous one returns. Prints one JSON document as its last line.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import oracle
import stats
from calibrate import SpeedSampler
from tracer import Instrumentation, Tracer
from workloads import WORKLOADS, make_plan


@dataclass(frozen=True)
class Span:
    """A timed interval; `seconds` leaves out the time the speed sampler
    spent inside it."""

    start: float
    end: float
    seconds: float


class Runner:
    """Runs commands, keeps their timings and counts failures."""

    def __init__(self, cli, tracer=None, sampler=None):
        self.cli = cli
        self.tracer = tracer
        self.sampler = sampler
        self.attempted = 0
        self.failures: list[str] = []
        self.output_bytes = 0

    def mark(self) -> tuple[float, float]:
        return time.perf_counter(), self.sampler.spent if self.sampler else 0.0

    def since(self, mark) -> Span:
        start, spent = mark
        end, now_spent = self.mark()
        return Span(start, end, end - start - (now_spent - spent))

    def run(self, cmd) -> tuple[Span, object, str]:
        """Execute one command; returns (its span, exit code, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        argv = list(cmd.argv)
        mark = self.mark()
        if self.tracer is not None:
            self.tracer.request += 1
            self.tracer.open("cli.main")
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except (Exception, SystemExit) as exc:  # a failed command, not a crash
            rc = exc
        finally:
            if self.tracer is not None:
                self.tracer.close()
        span = self.since(mark)
        self.attempted += 1
        text = out.getvalue()
        self.output_bytes += len(text.encode())
        if rc != 0:
            self.failures.append(f"{' '.join(argv)}: exit {rc!r} {err.getvalue().strip()}")
        return span, rc, text

    def verify(self, cmd, rc, text, problems=()) -> None:
        """Oracle checks, outside the timed region. A command that already
        failed by exit code is not counted twice."""
        if rc != 0:
            return
        problems = list(problems) + oracle.check(cmd.argv, rc, text)
        if problems:
            self.failures.append(f"{' '.join(cmd.argv)}: {problems[:3]}")


def run_batch(runner: Runner, batch, warm_ref=None) -> tuple[Span, list, list]:
    """Run a batch back to back, then check it. Returns the spans of the
    batch, of its commands and of its anchor commands."""
    gc.collect()
    results = []
    mark = runner.mark()
    for cmd in batch:
        results.append(runner.run(cmd))
    span = runner.since(mark)
    for cmd, (_, rc, text) in zip(batch, results):
        problems = []
        if warm_ref is not None and rc == 0:
            lo, hi = oracle.positional(cmd.argv)[:2]
            if text != oracle.expected_warm_text(warm_ref, lo, hi):
                problems.append("warm output differs from the cold output")
        runner.verify(cmd, rc, text, problems)
    spans = [r[0] for r in results]
    anchors = [s for cmd, s in zip(batch, spans) if cmd.anchor]
    return span, spans, anchors


# (metric name, module under pkarith) of every kernel backend
BACKENDS = (("pure", "_kernel_py"), ("compiled", "_kernel"))


def kernel_pass(inputs, seconds: float):
    """Kernel-only scans of `inputs` on every importable backend.

    Each pass times one backend over all inputs; passes repeat until
    `seconds` is used up (at least three per backend). With two or more
    backends the full (fixed, triplets) lists must agree on every input.
    Returns ({backend: (q1, median, q3) ns per element}, parity, mismatches).
    """
    backends = {}
    for name, module in BACKENDS:
        try:
            backends[name] = importlib.import_module(f"pkarith.{module}")
        except ImportError:
            pass
    elements = sum(p - 1 for p, _ in inputs)
    timings, reference, mismatches = {}, None, []
    for name, backend in backends.items():
        samples, deadline = [], time.perf_counter() + seconds / len(backends)
        while len(samples) < 3 or time.perf_counter() < deadline:
            gc.collect()
            start = time.perf_counter()
            results = [backend.scan_core_triplets(p, k) for p, k in inputs]
            samples.append((time.perf_counter() - start) * 1e9 / elements)
        timings[name] = tuple(statistics.quantiles(samples, n=4))
        if reference is None:
            reference = results
        elif results != reference:
            bad = [pk for pk, a, b in zip(inputs, reference, results) if a != b]
            mismatches.append(f"{name} differs from pure at (p, k) = {bad[:5]}")
    if len(backends) < 2:
        parity = "skipped (no compiled kernel importable)"
    else:
        parity = "mismatch: " + "; ".join(mismatches) if mismatches else "pass"
    return timings, parity, mismatches


def run_lead(plan, runner: Runner) -> list[Span]:
    """The commands run once per run; returns their spans."""
    spans = []
    for cmd in plan.lead:
        span, rc, text = runner.run(cmd)
        runner.verify(cmd, rc, text)
        spans.append(span)
    return spans


def measure(plan, runner: Runner, seconds: float, warm_ref):
    """Lead commands once, then batches until `seconds` is used up and at
    least `plan.min_batches` have run. Returns the spans and the number of
    primes the batches reported on."""
    start = time.perf_counter()
    anchors, spans, batches, covered = run_lead(plan, runner), [], [], 0
    for batch in plan.batches:
        batch_span, cmd_spans, batch_anchors = run_batch(runner, batch, warm_ref)
        batches.append(batch_span)
        spans += cmd_spans
        anchors += batch_anchors
        covered += sum(cmd.covers for cmd in batch)
        if len(batches) >= plan.min_batches and time.perf_counter() - start >= seconds:
            break
    return {"batches": batches, "commands": spans, "anchors": anchors}, covered


def end_to_end(times: dict, covered: int) -> dict:
    """The time metrics, name -> (value, unit), from per-kind seconds."""
    return {
        "batch_s": (statistics.median(times["batches"]), "s"),
        "cmd_p50_ms": (stats.percentile(times["commands"], 50) * 1e3, "ms"),
        "cmd_p90_ms": (stats.percentile(times["commands"], 90) * 1e3, "ms"),
        "primes_per_s": (covered / sum(times["batches"]), "1/s"),
        "anchor_cmd_s": (statistics.median(times["anchors"]), "s"),
    }


def untraced_run(plan, runner: Runner, seconds: float, warm_ref):
    """The end-to-end metrics, name -> (value, unit), at the reference
    speed (calibrate.py), and the stamp's sample counts and raw walls."""
    with runner.sampler as sampler:
        spans, covered = measure(plan, runner, seconds, warm_ref)
    scaled = {kind: [sampler.scaled(s.start, s.end, s.seconds) for s in kind_spans]
              for kind, kind_spans in spans.items()}
    raw = {kind: [s.seconds for s in kind_spans] for kind, kind_spans in spans.items()}
    metrics = end_to_end(scaled, covered)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics["peak_rss_mb"] = (rss_kb / 1024, "MB")
    samples = {
        "batches": len(spans["batches"]),
        "commands": len(spans["commands"]),
        "calibration_samples": len(sampler.samples),
        "calibration_block_ms": statistics.median(sampler.samples) * 1e3,
        "unscaled": {name: value for name, (value, _) in end_to_end(raw, covered).items()},
    }
    return metrics, samples


POOL_METRICS = ("triplets.pool_tasks", "triplets.pool_wait_s", "triplets.pool_efficiency")


def pool_probe(plan, runner: Runner) -> tuple[dict, list]:
    """The pool's layer metrics, from the plan's pool commands run traced
    on their own, so that they add nothing to the other layers' metrics.
    Returns the metrics and the spans."""
    tracer = Tracer()
    inst = Instrumentation(tracer)
    pooled = Runner(runner.cli, tracer)
    try:
        for cmd in plan.pool_probe:
            _, rc, text = pooled.run(cmd)
            pooled.verify(cmd, rc, text)
    finally:
        inst.uninstall()
    runner.attempted += pooled.attempted
    runner.failures += pooled.failures
    layers = inst.layer_metrics()
    return {name: layers[name] for name in POOL_METRICS}, tracer.dump()


def traced_run(plan, runner: Runner, seconds: float, warm_ref, trace_file: Path):
    """One batch untraced, then the lead commands and one batch traced,
    then the plan's pool probe and kernel pass, if it has them.

    Returns the per-layer metrics and the kernel parity verdict; writes
    the spans to `trace_file`, and those of the pool probe beside it.
    """
    untraced_wall = run_batch(runner, next(plan.batches), warm_ref)[0].seconds
    tracer = Tracer()
    inst = Instrumentation(tracer)
    traced = Runner(runner.cli, tracer)
    try:
        run_lead(plan, traced)
        traced_wall = run_batch(traced, next(plan.batches), warm_ref)[0].seconds
    finally:
        inst.uninstall()
    metrics = inst.layer_metrics()
    trace_file.write_text(json.dumps(tracer.dump()))
    if plan.pool_probe:
        pool_metrics, pool_spans = pool_probe(plan, runner)
        metrics.update(pool_metrics)
        trace_file.with_suffix(".pool.json").write_text(json.dumps(pool_spans))
    runner.attempted += traced.attempted
    runner.failures += traced.failures
    metrics["report.output_bytes"] = (traced.output_bytes, "B")
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    timings, parity = {}, "not run on this workload"
    if plan.kernel_pass:
        timings, parity, mismatches = kernel_pass(plan.kernel_pass, seconds)
        runner.failures += mismatches
    for name, _ in BACKENDS:
        q1, med, q3 = timings.get(name, (0.0, 0.0, 0.0))
        metrics[f"kernel.{name}.ns_per_element"] = (med, "ns")
        metrics[f"kernel.{name}.ns_per_element.q1"] = (q1, "ns")
        metrics[f"kernel.{name}.ns_per_element.q3"] = (q3, "ns")
    return metrics, parity


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--tree", type=Path, required=True)
    args = parser.parse_args()

    from pkarith import cli, kernel

    src = Path(cli.__file__).resolve()
    if args.tree.resolve() not in src.parents:
        raise SystemExit(f"imported pkarith from {src}, not from the built tree {args.tree}")
    if args.work.exists():
        shutil.rmtree(args.work)
    args.work.mkdir(parents=True)
    plan = make_plan(args.workload, args.seed, args.work)
    runner = Runner(cli, sampler=SpeedSampler() if args.trace == 0 else None)
    warm_ref = None
    if plan.prepare is not None:
        _, rc, warm_ref = runner.run(plan.prepare)
        runner.verify(plan.prepare, rc, warm_ref)

    result = {"backend": kernel.BACKEND, "params": plan.params}
    if args.trace == 0:
        result["metrics"], result["samples"] = untraced_run(
            plan, runner, args.seconds, warm_ref)
    else:
        trace_file = args.work.parent / f"trace-{args.workload}-seed{args.seed}.json"
        result["metrics"], result["parity"] = traced_run(
            plan, runner, args.seconds, warm_ref, trace_file)
    shutil.rmtree(args.work)
    result["attempted"] = runner.attempted
    result["failures"] = runner.failures
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
