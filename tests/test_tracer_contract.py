"""The names and fields the benchmark's tracer relies on.

perfbench/tracer.py patches pkarith functions by attribute name and reads
`.p` and `.elapsed` from what `cli.scan_prime_list` returns. This runs a
pooled scan under that tracer, so a rename or a change of row type on the
CLI scan path fails here rather than only inside the benchmark.
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


def test_pooled_scan_under_the_benchmark_tracer(monkeypatch):
    monkeypatch.delenv("PKARITH_CACHE", raising=False)
    tracer_mod = _load_tracer()
    patched = [
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
    originals = [getattr(owner, attr) for owner, attr in patched]
    inst = tracer_mod.Instrumentation(tracer_mod.Tracer())
    try:
        for (owner, attr), original in zip(patched, originals):
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
    assert [getattr(owner, attr) for owner, attr in patched] == originals
