"""pkarith benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload scan-cold --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The package is measured as
`pip install -e . --no-build-isolation` would install it: src/ and the
build files are copied into .bench_build/, and whatever extension
setup.py declares is built there in place. Nothing under src/ or in
site-packages is touched. The copy is reused while the sources are
unchanged.

--trace 0 prints the end-to-end metrics, with every time scaled to a
reference host speed (calibrate.py); --trace 1 prints the per-layer
metrics of a traced run (see perfbench/README.md). The last line of stdout is
{"correct", "attempted", "failed", "metrics"}; the lines above it are the
run's metadata stamp and the metrics in readable form.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BUILD_FILES = ("setup.py", "pyproject.toml", "setup.cfg", "MANIFEST.in")
SKIP = shutil.ignore_patterns("__pycache__", "*.pyc", "*.so", "*.egg-info")
SETUP_SAMPLES = 15
SETUP_BLOCKS = 3  # calibration blocks between two imports
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 850

sys.path.insert(0, str(HERE))
from calibrate import scale, time_block  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def source_files() -> list[Path]:
    src = ROOT / "src"
    if not (src / "pkarith").is_dir() or not (ROOT / "setup.py").is_file():
        raise BenchError(f"no pkarith sources under {ROOT}: run from a checkout of the repo")
    files = [f for f in sorted(src.rglob("*")) if f.is_file()
             and "__pycache__" not in f.parts and f.suffix not in (".pyc", ".so")
             and not any(part.endswith(".egg-info") for part in f.parts)]
    return files + [ROOT / name for name in BUILD_FILES if (ROOT / name).is_file()]


def build() -> tuple[Path, dict]:
    """The built copy for the current sources, building it if needed."""
    files = source_files()
    digest = hashlib.sha256()
    for f in files:
        digest.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes() + b"\0")
    source_sha = digest.hexdigest()
    tree = BUILD / f"tree-{source_sha[:16]}"
    stamp = tree / "build.json"
    if stamp.is_file():
        return tree, json.loads(stamp.read_text())
    for old in list(BUILD.glob("tree-*")) + list(BUILD.glob("staging-*")):
        shutil.rmtree(old)
    staging = BUILD / f"staging-{os.getpid()}"
    shutil.copytree(ROOT / "src", staging / "src", ignore=SKIP)
    for name in BUILD_FILES:
        if (ROOT / name).is_file():
            shutil.copy2(ROOT / name, staging / name)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        cwd=staging, capture_output=True, text=True, timeout=BUILD_LIMIT_S,
    )
    ext_s = time.perf_counter() - start
    (staging / "build.log").write_text(proc.stdout + proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"build_ext failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    # byte-compile as an install does, so that setup_s never includes
    # compiling, whether or not PYTHONDONTWRITEBYTECODE is set
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"],
                   cwd=staging, check=True, timeout=BUILD_LIMIT_S)
    info = {"source_sha256": source_sha, "build.ext_s": ext_s,
            "extensions": sorted(str(p.relative_to(staging / "src"))
                                 for p in (staging / "src").rglob("*.so"))}
    (staging / "build.json").write_text(json.dumps(info))
    staging.rename(tree)
    return tree, info


def child_env(tree: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(tree / "src")
    # measure the backend the install selects, with no cache from outside
    for var in ("PKARITH_PURE", "PKARITH_CACHE"):
        env.pop(var, None)
    return env


def _timed_import(env: dict) -> float:
    """Wall time of one fresh interpreter importing pkarith.cli.

    Waits with a blocking wait: subprocess's wait with a timeout polls in
    sleeps of up to 50 ms, which would quantise the measurement.
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "import pkarith.cli"], env=env)
    killer = threading.Timer(60, proc.kill)
    killer.start()
    try:
        rc = proc.wait()
    finally:
        killer.cancel()
    elapsed = time.perf_counter() - start
    if rc != 0:
        raise BenchError(f"import pkarith.cli exited {rc}")
    return elapsed


def setup_seconds(env: dict) -> float:
    """Median wall of a fresh interpreter importing pkarith.cli, each at the
    reference speed of the calibration blocks timed just before and after
    it (calibrate.py)."""
    _timed_import(env)  # warms the file cache
    blocks = [time_block() for _ in range(SETUP_BLOCKS)]
    scaled = []
    for _ in range(SETUP_SAMPLES):
        wall = _timed_import(env)
        after = [time_block() for _ in range(SETUP_BLOCKS)]
        scaled.append(wall * scale(blocks + after))
        blocks = after
    return statistics.median(scaled)


def git_revision() -> str:
    """HEAD of the checkout, read without running git; the benchmark also
    runs in exported trees, which carry no .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def declared_metrics(trace: int) -> list[str]:
    """Metric names BENCHMARK.json declares for this kind of run, in order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        names = declared_metrics(args.trace)
        tree, build_info = build()
        built = time.perf_counter()
        env = child_env(tree)
        setup_s = setup_seconds(env) if args.trace == 0 else None
        budget = RUN_LIMIT_S - (time.perf_counter() - built)
        work = BUILD / "work" / f"{args.workload}-{os.getpid()}"
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--work", str(work), "--tree", str(tree)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=max(budget, 60),
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        measured = dict(result["metrics"])
        if setup_s is not None:
            measured["setup_s"] = (setup_s, "s")
        if sorted(measured) != sorted(names):
            raise BenchError(f"measured {sorted(measured)}, BENCHMARK.json declares {names}")
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    metrics = {name: measured[name] for name in names}
    failed = len(result["failures"])
    attempted = result["attempted"]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": result["params"],
        "backend": result["backend"],
        "parity": result.get("parity", "checked in the traced scan-cold run"),
        "git_revision": git_revision(),
        "source_sha256": build_info["source_sha256"],
        "build.ext_s": round(build_info["build.ext_s"], 3),
        "extensions": build_info["extensions"],
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "samples": result.get("samples"),
    }
    print("meta: " + json.dumps(meta))
    for problem in result["failures"]:
        print(f"FAILED: {problem}")
    print(f"failed_ratio {failed / attempted:.4f} ({failed} of {attempted} commands)")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
