"""Spans around the calls the benchmark makes into each capsplit layer.

The benchmark reaches every layer through ``Tracer.api``. Untraced, that
holds the package's own functions. Traced, each function is wrapped
so that every call records a span (name, start, end, parent span, export
id); the engine's public methods are wrapped on the instance, and the
functions one layer calls in another (``print_normalized``, ``evaluate``,
``parse``) are wrapped at their import sites in the calling module. Spans
stay in memory and are written out as JSON lines when the run ends.

A layer's self time is the duration of its spans minus the time of their
direct child spans. The tracing overhead is estimated from the spans too:
the number of spans times the measured cost of one wrapped no-op call,
as a share of the traced wall time.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
from time import perf_counter
from types import SimpleNamespace


def maxrss_mb() -> float:
    """High-water resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# public capsplit attribute -> name of its span
API_SPANS = {
    "load_corpus": "corpus.ingest",
    "CappedEngine": "engine.index",
    "plan_prescribed": "planner.plan",
    "plan_auto": "planner.plan",
    "plan_censored": "planner.plan",
    "validate_direct": "reconcile.validate",
    "emit_strategy_script": "cli.emit",
    "emit_report": "cli.emit",
    "parse_strategy_script": "cli.parse_script",
    "parse": "query.parse",
    "evaluate": "query.evaluate",
}

# spans whose rise of the high-water RSS is recorded
RSS_SPANS = {"corpus.ingest", "engine.index", "planner.plan", "reconcile.validate"}

ENGINE_METHODS = ("count", "register", "retrieve", "prefix_children")

# (module, attribute) import sites through which one layer calls another
IMPORT_SITES = (
    ("reconcile", "print_normalized", "query.print"),
    ("reconcile", "evaluate", "query.evaluate"),
    ("cli", "print_normalized", "query.print"),
    ("cli", "parse", "query.parse"),
)


class Tracer:
    """Records spans; a disabled tracer hands every function back unwrapped."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent index, export id]
        self.rss_rise: dict[str, float] = {}
        self.export: str | None = None
        self.gc_s = 0.0
        self.gc_collections = 0
        self._stack: list[int] = []
        self._gc_start = 0.0

    def wrap(self, fn, name: str):
        if not self.enabled:
            return fn
        spans, stack = self.spans, self._stack
        track_rss = name in RSS_SPANS

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.export]
            stack.append(len(spans))
            spans.append(record)
            rss0 = maxrss_mb() if track_rss else 0.0
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
                if track_rss:
                    self.rss_rise[name] = self.rss_rise.get(name, 0.0) + maxrss_mb() - rss0

        return traced

    def api(self, capsplit) -> SimpleNamespace:
        """The package's public calls, wrapped when tracing."""
        calls = {attr: self.wrap(getattr(capsplit, attr), name) for attr, name in API_SPANS.items()}
        return SimpleNamespace(**calls)

    def instrument(self, engine) -> None:
        """Wrap the engine's public methods on this instance only."""
        for method in ENGINE_METHODS:
            setattr(engine, method, self.wrap(getattr(engine, method), f"engine.{method}"))

    def patch_import_sites(self, capsplit) -> None:
        """Wrap cross-layer calls where the calling module imported them."""
        if not self.enabled:
            return
        for module_name, attr, name in IMPORT_SITES:
            module = getattr(capsplit, module_name)
            original = getattr(module, attr, None)
            if callable(original):
                setattr(module, attr, self.wrap(original, name))

    # -- garbage collector -------------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_s += perf_counter() - self._gc_start
            self.gc_collections += 1

    def start_gc_watch(self) -> None:
        if self.enabled:
            gc.callbacks.append(self._on_gc)

    def stop_gc_watch(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- output ------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, export) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end,
                         "parent": parent, "export": export}
                    )
                    + "\n"
                )


def speed_probe_s() -> float:
    """Time of a fixed pure-Python kernel: how fast this host runs right now.

    The load average misses a shared host that runs everything slower for
    a while; this probe, taken before and after a run, shows it.
    """
    t0 = perf_counter()
    table = {str(i): i for i in range(200_000)}
    sorted(table, key=table.__getitem__, reverse=True)
    return perf_counter() - t0


def span_cost_s(samples: int = 20000) -> float:
    """Measured extra cost of one traced call over a plain call, in seconds."""
    probe = Tracer(enabled=True)

    def noop():
        return None

    wrapped = probe.wrap(noop, "calibrate")
    costs = []
    for _ in range(5):
        t0 = perf_counter()
        for _ in range(samples):
            noop()
        t1 = perf_counter()
        for _ in range(samples):
            wrapped()
        t2 = perf_counter()
        probe.spans.clear()
        costs.append(((t2 - t1) - (t1 - t0)) / samples)
    return max(statistics.median(costs), 0.0)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer totals derived from the recorded spans."""
    spans = tracer.spans
    duration = [end - start for _, start, end, _, _ in spans]
    child_time = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += duration[i]
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, (name, *_rest) in enumerate(spans):
        total[name] = total.get(name, 0.0) + duration[i]
        self_time[name] = self_time.get(name, 0.0) + duration[i] - child_time[i]
        calls[name] = calls.get(name, 0) + 1
    count_ms = [duration[i] * 1000.0 for i, s in enumerate(spans) if s[0] == "engine.count"]
    probes = sum(
        1 for s in spans if s[0] == "engine.count" and s[3] >= 0 and spans[s[3]][0] == "planner.plan"
    )
    return {
        "total": total,
        "self": self_time,
        "calls": calls,
        "count_p50_ms": _quantile(count_ms, 50),
        "count_p99_ms": _quantile(count_ms, 99),
        "probes": probes,
    }


def _quantile(values: list[float], pct: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
