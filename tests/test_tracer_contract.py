"""The names and fields the benchmark's tracer relies on.

perfbench/tracer.py patches pkarith functions by attribute name and reads
`.p` and `.elapsed` from what `cli.scan_prime_list` returns. This runs a
pooled scan and a structured scan under that tracer, so a rename, a change
of row type on the CLI scan path, or rendering outside the traced report
functions fails here rather than only inside the benchmark.
"""

import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

from pkarith import cli, kernel, report, residues, triplets
from pkarith.primes import odd_primes_in

TRACER_SOURCE = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_SOURCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PATCHED = [
    (cli, "scan_prime_list"),
    (cli, "odd_primes_in"),
    (cli, "is_prime"),
    (report, "scan_to_text"),
    (report, "scan_to_dict"),
    (report, "append_scan_cache"),
    (report, "load_scan_cache"),
    (report, "envelope"),
    (kernel, "scan_core_triplets"),
    (triplets, "ProcessPoolExecutor"),
    (residues.Residue, "__post_init__"),
]


def test_pooled_scan_under_the_benchmark_tracer(monkeypatch):
    monkeypatch.delenv("PKARITH_CACHE", raising=False)
    tracer_mod = _load_tracer()
    originals = [getattr(owner, attr) for owner, attr in PATCHED]
    inst = tracer_mod.Instrumentation(tracer_mod.Tracer())
    try:
        for (owner, attr), original in zip(PATCHED, originals):
            assert getattr(owner, attr) is not original, attr
        with redirect_stdout(io.StringIO()) as out:
            assert cli.main(["scan", "3", "400", "2", "--jobs", "2"]) == 0
    finally:
        inst.uninstall()
    assert "first proper triplet at p = 59" in out.getvalue()
    metrics = {name: value for name, (value, _) in inst.layer_metrics().items()}
    assert metrics["kernel.calls"] == len(list(odd_primes_in(3, 400)))
    assert metrics["triplets.pool_efficiency"] > 0
    assert metrics["residues.objects"] == 0
    assert [getattr(owner, attr) for owner, attr in PATCHED] == originals


def test_structured_scan_renders_inside_a_render_span(monkeypatch):
    """The whole structured scan document comes back from one traced
    report.envelope call, so its render time is a report.render.* span."""
    monkeypatch.delenv("PKARITH_CACHE", raising=False)
    tracer_mod = _load_tracer()
    originals = [getattr(owner, attr) for owner, attr in PATCHED]
    inst = tracer_mod.Instrumentation(tracer_mod.Tracer())
    traced_envelope = report.envelope
    rendered = []

    def keep_rendered(*args, **kwargs):
        rendered.append(traced_envelope(*args, **kwargs))
        return rendered[-1]

    report.envelope = keep_rendered
    try:
        with redirect_stdout(io.StringIO()) as out:
            assert cli.main(["scan", "3", "400", "5", "--format", "structured"]) == 0
    finally:
        report.envelope = traced_envelope
        inst.uninstall()
    assert rendered == [out.getvalue()]
    assert '"records": [' in rendered[0]
    assert inst.tracer.calls("report.render.envelope") == 1
    metrics = {name: value for name, (value, _) in inst.layer_metrics().items()}
    assert metrics["report.render_ms"] > 0
    assert metrics["kernel.calls"] == len(list(odd_primes_in(3, 400)))
    assert [getattr(owner, attr) for owner, attr in PATCHED] == originals
