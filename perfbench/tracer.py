"""Spans and counts recorded from outside the package, for the traced run.

`Instrumentation` wraps the public functions of each pkarith module at the
module namespaces that call them, so every call across a layer boundary
opens a span. A span's self time is its duration minus the time covered
by the spans it caused; a layer's self time is the sum over its spans.
Nothing is wrapped in an untraced run.
"""

import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index into Tracer.spans, -1 for a root
    request: int
    end: float = 0.0
    child_time: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Keeps every span in memory; aggregates when the run ends."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.request = 0

    def open(self, name: str) -> None:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, self.clock(), parent, self.request))
        self.stack.append(len(self.spans) - 1)

    def close(self) -> None:
        span = self.spans[self.stack.pop()]
        span.end = self.clock()
        if span.parent >= 0:
            self.spans[span.parent].child_time += span.duration

    @contextmanager
    def span(self, name: str):
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def total(self, name: str) -> float:
        """Summed duration of the spans called `name`."""
        return sum(s.duration for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def total_prefix(self, prefix: str) -> float:
        return sum(s.duration for s in self.spans if s.name.startswith(prefix))

    def layer_self(self) -> dict[str, float]:
        """Self time per layer, in seconds."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.layer] += s.self_time
        return out

    def dump(self) -> list[list]:
        """Spans as rows: name, start, end, parent, request."""
        return [[s.name, s.start, s.end, s.parent, s.request] for s in self.spans]


# namespace module -> {attribute: span name}; a function imported into
# several modules is wrapped once in each, around the same original
_SPANS = {
    "pkarith.cli": {
        "scan_prime_list": "triplets.scan_prime_list",
        "verify_core_theorem": "subgroups.verify_core_theorem",
    },
    "pkarith.report": {
        "build_analysis": "report.build.analysis",
        "build_roots": "report.build.roots",
        "build_lift": "report.build.lift",
        "analysis_to_text": "report.render.analysis_text",
        "analysis_to_dict": "report.render.analysis_dict",
        "roots_to_text": "report.render.roots_text",
        "roots_to_dict": "report.render.roots_dict",
        "core_theorem_to_text": "report.render.core_theorem_text",
        "core_theorem_to_dict": "report.render.core_theorem_dict",
        "lift_to_text": "report.render.lift_text",
        "lift_to_dict": "report.render.lift_dict",
        "scan_to_text": "report.render.scan_text",
        "scan_to_dict": "report.render.scan_dict",
        "envelope": "report.render.envelope",
        "append_scan_cache": "report.cache_write",
        "core_elements": "groups.core_elements",
        "group_structure": "groups.group_structure",
        "cubic_roots_of_unity": "roots.cubic_roots_of_unity",
        "enumerate_core_root_pairs": "roots.enumerate_core_root_pairs",
        "enumerate_flt_roots_mod_p2": "roots.enumerate_flt_roots_mod_p2",
        "hensel_lift_poly_root": "roots.hensel_lift_poly_root",
        "verify_core_theorem": "subgroups.verify_core_theorem",
        "find_core_triplets": "triplets.find_core_triplets",
    },
    "pkarith.subgroups": {
        "core_elements": "groups.core_elements",
        "core_subgroup": "subgroups.core_subgroup",
    },
    "pkarith.roots": {
        "core_elements": "groups.core_elements",
        "primitive_root": "residues.primitive_root",
    },
    "pkarith.groups": {"primitive_root": "residues.primitive_root"},
}
# every namespace that calls is_prime, counted without a span
_IS_PRIME_CALLERS = ("pkarith.primes", "pkarith.cli", "pkarith.residues")


def _wrap(tracer: Tracer, name: str, fn):
    def traced(*args, **kwargs):
        tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close()

    return traced


class Instrumentation:
    """Installs the wrappers; `uninstall` puts every original back."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved: list[tuple[object, str, object]] = []
        self.pool_kernel_s = 0.0
        self.pool_jobs = 0
        names = {*_SPANS, *_IS_PRIME_CALLERS, "pkarith.kernel", "pkarith.triplets"}
        mods = {name: importlib.import_module(name) for name in names}
        for mod_name, attrs in _SPANS.items():
            for attr, span_name in attrs.items():
                fn = getattr(mods[mod_name], attr)
                self._set(mods[mod_name], attr, _wrap(tracer, span_name, fn))
        self._instrument_counts(mods)
        self._instrument_kernel(mods["pkarith.kernel"])
        self._instrument_scan(mods["pkarith.cli"], mods["pkarith.triplets"])

    def _set(self, owner, attr: str, value) -> None:
        self.saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self.saved):
            setattr(owner, attr, value)
        self.saved.clear()

    def _instrument_counts(self, mods) -> None:
        counts = self.tracer.counts
        is_prime = mods["pkarith.primes"].is_prime

        def counted_is_prime(n):
            counts["primes.is_prime_calls"] += 1
            return is_prime(n)

        for name in _IS_PRIME_CALLERS:
            self._set(mods[name], "is_prime", counted_is_prime)

        residue = mods["pkarith.residues"].Residue
        post_init = residue.__post_init__

        def counted_post_init(self_):
            counts["residues.objects"] += 1
            post_init(self_)

        self._set(residue, "__post_init__", counted_post_init)

        report = mods["pkarith.report"]
        load = report.load_scan_cache
        tracer = self.tracer

        def traced_load(path):
            with tracer.span("report.cache_read"):
                records = load(path)
            counts["report.cache_records"] += len(records)
            return records

        self._set(report, "load_scan_cache", traced_load)

        cli = mods["pkarith.cli"]
        enumerate_primes = cli.odd_primes_in

        def traced_odd_primes_in(lo, hi):
            # consumed eagerly so the span covers the whole enumeration;
            # every caller lists the generator at once anyway
            with tracer.span("primes.odd_primes_in"):
                primes = list(enumerate_primes(lo, hi))
            return iter(primes)

        self._set(cli, "odd_primes_in", traced_odd_primes_in)

    def _instrument_kernel(self, kernel) -> None:
        scan = kernel.scan_core_triplets
        tracer = self.tracer

        def traced_kernel(p, k):
            tracer.counts["kernel.calls"] += 1
            tracer.counts["kernel.elements"] += p - 1
            with tracer.span("kernel.scan_core_triplets"):
                return scan(p, k)

        self._set(kernel, "scan_core_triplets", traced_kernel)

    def _instrument_scan(self, cli, triplets) -> None:
        """Pool submits and wall time; pool kernel time from ScanRecord.elapsed.

        Workers run the kernel in other processes, where these wrappers'
        counts are lost, so the parent counts each pooled record instead.
        """
        tracer = self.tracer
        inst = self
        base = triplets.ProcessPoolExecutor

        class TracedPool(base):
            def __init__(self, max_workers=None, *args, **kwargs):
                tracer.counts["triplets.pools"] += 1
                inst.pool_jobs = max_workers or 1
                tracer.open("pool.wall")
                super().__init__(max_workers, *args, **kwargs)

            def submit(self, *args, **kwargs):
                tracer.counts["triplets.pool_tasks"] += 1
                return super().submit(*args, **kwargs)

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.close()

        self._set(triplets, "ProcessPoolExecutor", TracedPool)
        scan_prime_list = cli.scan_prime_list  # already span-wrapped

        def counted_scan_prime_list(primes, k, jobs=1):
            pools = tracer.counts["triplets.pools"]
            records = scan_prime_list(primes, k, jobs=jobs)
            if tracer.counts["triplets.pools"] != pools:
                tracer.counts["kernel.calls"] += len(records)
                tracer.counts["kernel.elements"] += sum(r.p - 1 for r in records)
                inst.pool_kernel_s += sum(r.elapsed for r in records)
            return records

        self._set(cli, "scan_prime_list", counted_scan_prime_list)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        t = self.tracer
        c = t.counts
        own = t.layer_self()
        busy = t.total("kernel.scan_core_triplets") + self.pool_kernel_s
        elements = c["kernel.elements"]
        pool_wall = t.total("pool.wall")
        pool_share = self.pool_kernel_s / self.pool_jobs if self.pool_jobs else 0.0
        ms = 1e3
        return {
            "cli.self_ms": (own["cli"] * ms, "ms"),
            "report.self_ms": (own["report"] * ms, "ms"),
            "report.build_ms": (t.total_prefix("report.build.") * ms, "ms"),
            "report.render_ms": (t.total_prefix("report.render.") * ms, "ms"),
            "report.cache_read_ms": (t.total("report.cache_read") * ms, "ms"),
            "report.cache_write_ms": (t.total("report.cache_write") * ms, "ms"),
            "report.cache_records": (c["report.cache_records"], "count"),
            "triplets.self_ms": (own["triplets"] * ms, "ms"),
            "triplets.pool_tasks": (c["triplets.pool_tasks"], "count"),
            "triplets.pool_wait_s": (pool_wall - pool_share if pool_wall else 0.0, "s"),
            "triplets.pool_efficiency": (
                pool_share / pool_wall if pool_wall else 0.0, "ratio"),
            "kernel.calls": (c["kernel.calls"], "count"),
            "kernel.busy_s": (busy, "s"),
            "kernel.elements": (elements, "count"),
            "kernel.ns_per_element": (busy * 1e9 / elements if elements else 0.0, "ns"),
            "subgroups.core_subgroup_calls": (t.calls("subgroups.core_subgroup"), "count"),
            "subgroups.self_ms": (own["subgroups"] * ms, "ms"),
            "roots.self_ms": (own["roots"] * ms, "ms"),
            "groups.core_elements_calls": (t.calls("groups.core_elements"), "count"),
            "groups.core_elements_ms": (t.total("groups.core_elements") * ms, "ms"),
            "groups.self_ms": (own["groups"] * ms, "ms"),
            "residues.objects": (c["residues.objects"], "count"),
            "residues.primitive_root_ms": (t.total("residues.primitive_root") * ms, "ms"),
            "primes.enum_ms": (t.total("primes.odd_primes_in") * ms, "ms"),
            "primes.is_prime_calls": (c["primes.is_prime_calls"], "count"),
        }
