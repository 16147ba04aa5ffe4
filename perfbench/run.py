"""Run one benchmark workload against the capsplit sources of this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run is one fresh, single-threaded interpreter. It makes the
workload's inputs from the seed, times one client's closed loop of exports
through the public API, checks every output, and prints, as the last line
of standard output, one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones (tracing off); with ``--trace 1`` they are the per-layer
ones, derived from spans recorded around every call into a layer.

``--seconds`` is the run's time budget: further setup samples are taken
only while the run is inside it. A record of every run, with its metadata
and the sha256 of every emitted script and report, is appended to
``.bench_out/runs.jsonl``; a traced run also writes its spans there.

Exits with status 2, printing no result, when the checkout holds no
capsplit sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time

from program import OUT, ProgramMissing, git_commit, import_capsplit, source_digest
from tracing import Tracer, layer_metrics, span_cost_s, speed_probe_s
from workloads import WORKLOADS, Run, run

END_TO_END = {
    "gen_s": "s",
    "setup_s": "s",
    "plan_s": "s",
    "validate_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "probes": "count",
    "statements": "count",
}

PER_LAYER = {
    "corpus.build_s": "s",
    "corpus.serialize_s": "s",
    "corpus.ingest_s": "s",
    "corpus.ingest_us_per_record": "us",
    "corpus.rss_rise_mb": "MB",
    "engine.index_s": "s",
    "engine.index_rss_rise_mb": "MB",
    "engine.count_calls": "count",
    "engine.count_s": "s",
    "engine.count_p50_ms": "ms",
    "engine.count_p99_ms": "ms",
    "engine.prefix_children_calls": "count",
    "engine.prefix_children_s": "s",
    "engine.register_calls": "count",
    "engine.register_s": "s",
    "engine.retrieve_calls": "count",
    "engine.retrieve_s": "s",
    "engine.growth_mb": "MB",
    "planner.plan_s": "s",
    "planner.self_s": "s",
    "planner.probes": "count",
    "planner.statements_per_probe": "ratio",
    "planner.rss_rise_mb": "MB",
    "reconcile.validate_s": "s",
    "reconcile.self_s": "s",
    "reconcile.overlap_pairs": "count",
    "reconcile.rss_rise_mb": "MB",
    "query.evaluate_s": "s",
    "query.parse_s": "s",
    "query.print_s": "s",
    "cli.emit_s": "s",
    "cli.script_bytes": "bytes",
    "runtime.gc_s": "s",
    "runtime.gc_collections": "count",
    "trace.overhead_frac": "fraction",
}


def end_to_end(result: Run) -> dict[str, float]:
    done = [e for e in result.exports if e.strategy is not None and e.report is not None]
    return {
        "gen_s": result.gen_s,
        "setup_s": statistics.median(result.setup_samples),
        "plan_s": sum(e.plan_s for e in done),
        "validate_s": sum(e.validate_s for e in done),
        "wall_s": result.wall_s,
        "peak_rss_mb": result.peak_rss_mb,
        "probes": sum(e.probes for e in done),
        "statements": sum(len(e.strategy.statements) for e in done),
    }


def per_layer(result: Run, tracer: Tracer) -> dict[str, float]:
    layers = layer_metrics(tracer)
    total, own, calls = layers["total"], layers["self"], layers["calls"]
    done = [e for e in result.exports if e.strategy is not None]
    statements = [len(e.strategy.statements) for e in done]
    return {
        "corpus.build_s": result.build_s,
        "corpus.serialize_s": result.serialize_s,
        "corpus.ingest_s": result.ingest_s,
        "corpus.ingest_us_per_record": result.ingest_s / max(result.records, 1) * 1e6,
        "corpus.rss_rise_mb": tracer.rss_rise.get("corpus.ingest", 0.0),
        "engine.index_s": result.index_s,
        "engine.index_rss_rise_mb": tracer.rss_rise.get("engine.index", 0.0),
        "engine.count_calls": calls.get("engine.count", 0),
        "engine.count_s": total.get("engine.count", 0.0),
        "engine.count_p50_ms": layers["count_p50_ms"],
        "engine.count_p99_ms": layers["count_p99_ms"],
        "engine.prefix_children_calls": calls.get("engine.prefix_children", 0),
        "engine.prefix_children_s": total.get("engine.prefix_children", 0.0),
        "engine.register_calls": calls.get("engine.register", 0),
        "engine.register_s": total.get("engine.register", 0.0),
        "engine.retrieve_calls": calls.get("engine.retrieve", 0),
        "engine.retrieve_s": total.get("engine.retrieve", 0.0),
        "engine.growth_mb": result.growth_mb,
        "planner.plan_s": total.get("planner.plan", 0.0),
        "planner.self_s": own.get("planner.plan", 0.0),
        "planner.probes": layers["probes"],
        "planner.statements_per_probe": sum(statements) / max(layers["probes"], 1),
        "planner.rss_rise_mb": tracer.rss_rise.get("planner.plan", 0.0),
        "reconcile.validate_s": total.get("reconcile.validate", 0.0),
        "reconcile.self_s": own.get("reconcile.validate", 0.0),
        "reconcile.overlap_pairs": sum(n * (n - 1) // 2 for n in statements),
        "reconcile.rss_rise_mb": tracer.rss_rise.get("reconcile.validate", 0.0),
        "query.evaluate_s": total.get("query.evaluate", 0.0),
        "query.parse_s": total.get("query.parse", 0.0),
        "query.print_s": total.get("query.print", 0.0),
        "cli.emit_s": total.get("cli.emit", 0.0),
        "cli.script_bytes": sum(len(e.script.encode()) for e in done),
        "runtime.gc_s": tracer.gc_s,
        "runtime.gc_collections": tracer.gc_collections,
        "trace.overhead_frac": len(tracer.spans) * span_cost_s() / result.wall_s,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_before = os.getloadavg()
    speed_before = speed_probe_s()
    started = time.time()
    try:
        capsplit = import_capsplit()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    tracer = Tracer(enabled=bool(args.trace))
    try:
        result = run(args.workload, args.seed, args.seconds, capsplit, tracer, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = per_layer(result, tracer) if args.trace else end_to_end(result)
    units = PER_LAYER if args.trace else END_TO_END
    attempted = len(result.exports)
    failed = sum(1 for e in result.exports if e.failed)
    correct = failed == 0 and not result.problems
    record = {
        "started": started,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "speed_probe_s": [speed_before, speed_probe_s()],
        "records": result.records,
        "setup_samples": result.setup_samples,
        "phase_s": {**result.phase_s, "timed": result.wall_s, "total": time.time() - started},
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "problems": result.problems,
        "metrics": metrics,
        "exports": [e.summary() for e in result.exports],
    }
    with open(OUT / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    if args.trace:
        tracer.write_spans(str(OUT / f"spans-{args.workload}-seed{args.seed}-{int(started)}.jsonl"))

    for problem in result.problems + [f"{e.id}: {p}" for e in result.exports for p in e.problems]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}", file=sys.stderr)
    print(f"{args.workload} error_rate = {failed / attempted:.6g} fraction", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
