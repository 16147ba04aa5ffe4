"""The two workloads: a timed closed loop of exports, then output checks.

Every workload calls the public API in the order the CLI uses it:
``load_corpus`` -> ``CappedEngine`` -> ``plan_*`` -> ``emit_strategy_script``
-> ``validate_direct`` -> ``emit_report``. One client runs the exports one
after another on one long-lived engine. The checks run after the timed
section, on a separate visible engine, and count nothing toward the
metrics.

- ``fixture-sweep``: the paper-scale session on the shipped ``usa_t1``
  fixture (496,487 records). The program writes the fixture, loads it and
  runs the README quick start (the published seven-statement grouping),
  then ``plan_auto`` at caps 100k, 50k, 20k and 10k on the same visible
  engine. Large sets: corpus build, ingest and index dominate the set-up;
  planner, set algebra, memo, reconciliation and ``#n`` chains of up to
  64 statements dominate the exports. Its inputs and the expected
  quick-start report are fixed, so the seed is not used.
- ``censored-domains``: censored planning (cap 5,000) of 50 (year,
  country) domains of a seeded 250k-record corpus, validated against the
  index-free oracle. Small sets that share little beyond term leaves, and
  probes that only see "at least the cap".
"""

from __future__ import annotations

import gc
import hashlib
import json
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import inputs
from tracing import Tracer, maxrss_mb

HERE = Path(__file__).resolve().parent

FIXTURE = "usa_t1"
FIXTURE_BASE = "PY=2007 AND CU=USA"
FIXTURE_GROUPS = "AB,CDEFG,HIKLM,NOPQR,STUVWXYZ123456789,J/AD=CA"
FIXTURE_REPORT = HERE / "usa_t1_report.txt"
SWEEP_CAPS = (100_000, 50_000, 20_000, 10_000)
CENSORED_CAP = 5_000

CHILD_TIMEOUT_S = 150
GEN_RECORDS = 200_000  # size of the seeded profile ``capsplit gen`` writes on the seeded workload


@dataclass
class Export:
    """One export: plan, emit the script, validate, emit the report."""

    id: str
    base: str
    plan: Callable
    strategy: object = None
    report: object = None
    script: str = ""
    report_text: str = ""
    probes: int = 0
    plan_s: float = 0.0
    validate_s: float = 0.0
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    def summary(self) -> dict:
        strategy, report = self.strategy, self.report
        return {
            "id": self.id,
            "statements": len(strategy.statements) if strategy else None,
            "probes": self.probes,
            "plan_s": self.plan_s,
            "validate_s": self.validate_s,
            "verdict": report.verdict.value if report else None,
            "max_multiplicity": report.max_multiplicity if report else None,
            "script_sha256": _sha256(self.script.encode()),
            "report_sha256": _sha256(self.report_text.encode()),
            "problems": self.problems,
        }


@dataclass
class Run:
    """What one run measured, and what its checks found."""

    workload: str
    records: int = 0
    gen_s: float = 0.0
    build_s: float = 0.0
    serialize_s: float = 0.0
    setup_samples: list[float] = field(default_factory=list)
    ingest_s: float = 0.0
    index_s: float = 0.0
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    setup_rss_mb: float = 0.0
    growth_mb: float = 0.0  # peak RSS at the end of the exports minus after setup
    exports: list[Export] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)  # checks not tied to one export
    phase_s: dict[str, float] = field(default_factory=dict)  # untimed phases, for the record


class Counter:
    """Counts calls of one engine method, traced or not."""

    def __init__(self, engine, method: str):
        self.calls = 0
        inner = getattr(engine, method)

        def counted(*args, **kwargs):
            self.calls += 1
            return inner(*args, **kwargs)

        setattr(engine, method, counted)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _child(args: list[str]) -> str:
    done = subprocess.run(
        [sys.executable, *args], cwd=HERE, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {done.returncode}: {done.stderr.strip()}")
    return done.stdout


# ---------------------------------------------------------------------------
# Workload definitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    engine_cap: int
    count_mode: str
    setups: int  # setup samples per run; the median is reported


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fixture-sweep", 100_000, "visible", 1),
        Workload("censored-domains", CENSORED_CAP, "censored", 3),
    )
}


def _exports(workload: str, api, capsplit, engine) -> list[Export]:
    so = capsplit.FieldKind.SO
    if workload == "fixture-sweep":
        groups = capsplit.parse_group_spec(FIXTURE_GROUPS)
        quick_start = Export(
            FIXTURE, FIXTURE_BASE,
            lambda: api.plan_prescribed(engine, api.parse(FIXTURE_BASE), so, groups),
        )
        return [quick_start] + [
            Export(f"cap{cap}", FIXTURE_BASE,
                   lambda cap=cap: api.plan_auto(engine, api.parse(FIXTURE_BASE), so, cap=cap))
            for cap in SWEEP_CAPS
        ]
    shape = inputs.SHAPES[workload]
    exports = []
    for year in shape.years:
        for country in sorted(shape.countries):
            base = f"PY={year} AND CU={country}"
            exports.append(
                Export(f"{year}-{country}", base,
                       lambda base=base: api.plan_censored(engine, api.parse(base), so))
            )
    return exports


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, capsplit, tracer: Tracer, workdir: Path) -> Run:
    """Make the inputs, time the exports, then check every output."""
    spec = WORKLOADS[workload]
    api = tracer.api(capsplit)
    tracer.patch_import_sites(capsplit)
    result = Run(workload)
    corpus_path = workdir / "corpus.tsv"
    t0 = perf_counter()
    if workload == "fixture-sweep":
        gen_args = ["fixture", FIXTURE, str(corpus_path)]
    else:
        _child(["inputs.py", workload, str(seed), str(corpus_path)])
        gen_args = ["profile", str(seed), str(GEN_RECORDS), str(workdir / "generated.tsv")]
    result.phase_s["inputs"] = perf_counter() - t0

    tracer.start_gc_watch()
    t_start = perf_counter()
    gen = json.loads(_child(["gen.py", *gen_args]))
    result.build_s, result.serialize_s = gen["build_s"], gen["serialize_s"]
    result.gen_s = gen["build_s"] + gen["serialize_s"]

    config = capsplit.EngineConfig(cap=spec.engine_cap, count_mode=spec.count_mode)
    t0 = perf_counter()
    corpus = api.load_corpus(str(corpus_path))
    t1 = perf_counter()
    engine = api.CappedEngine(corpus, config)
    t2 = perf_counter()
    result.ingest_s, result.index_s = t1 - t0, t2 - t1
    result.setup_samples.append(t2 - t0)
    result.records = len(corpus)
    result.setup_rss_mb = maxrss_mb()

    counter = Counter(engine, "count")
    tracer.instrument(engine)
    result.exports = _exports(workload, api, capsplit, engine)
    for export in result.exports:
        _timed_export(export, api, engine, counter, tracer)
    tracer.export = None
    result.wall_s = perf_counter() - t_start
    result.growth_mb = maxrss_mb() - result.setup_rss_mb
    result.peak_rss_mb = max(maxrss_mb(), gen["peak_rss_mb"])
    tracer.stop_gc_watch()

    # -- checks, outside timing --------------------------------------------
    t0 = perf_counter()
    del engine
    for export in result.exports:
        export.plan = None  # drops the last reference to the timed engine
    tracer.export = "check"
    if workload != "fixture-sweep" and capsplit.serialize(corpus).encode() != corpus_path.read_bytes():
        result.problems.append("serialize(load_corpus(f)) is not byte-identical to f")
    _check_exports(result, api, capsplit, corpus)
    del corpus
    result.phase_s["checks"] = perf_counter() - t0

    # -- further setup samples, each on a freshly collected heap -------------
    t0 = perf_counter()
    while len(result.setup_samples) < spec.setups and perf_counter() - t_start < seconds:
        gc.collect()
        t1 = perf_counter()
        engine = capsplit.CappedEngine(capsplit.load_corpus(str(corpus_path)), config)
        result.setup_samples.append(perf_counter() - t1)
        del engine
    result.phase_s["more_setups"] = perf_counter() - t0
    return result


def _timed_export(export: Export, api, engine, counter: Counter, tracer: Tracer) -> None:
    tracer.export = export.id
    try:
        calls = counter.calls
        t0 = perf_counter()
        export.strategy = export.plan()
        export.script = api.emit_strategy_script(export.strategy)
        t1 = perf_counter()
        export.probes = counter.calls - calls
        export.report = api.validate_direct(export.strategy, engine)
        export.report_text = api.emit_report(export.report)
        t2 = perf_counter()
    except Exception as exc:  # an export that raises counts as failed; the loop goes on
        export.problems.append(f"raised {type(exc).__name__}: {exc}")
        return
    export.plan_s, export.validate_s = t1 - t0, t2 - t1


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _check_exports(result: Run, api, capsplit, corpus) -> None:
    checker = capsplit.CappedEngine(corpus)  # visible, separate from the timed engine
    expected = {FIXTURE: FIXTURE_REPORT.read_text()} if result.workload == "fixture-sweep" else {}
    oracle: dict[str, int] = {}
    for export in result.exports:
        if export.failed:
            continue
        try:
            export.problems.extend(_check_one(export, api, checker, corpus, oracle))
        except Exception as exc:  # a check that cannot run fails the export
            export.problems.append(f"check raised {type(exc).__name__}: {exc}")
        if export.id in expected and export.report_text != expected[export.id]:
            got = export.report_text.splitlines()
            want = expected[export.id].splitlines()
            diff = [f"{w!r} != {g!r}" for w, g in zip(want, got) if w != g]
            export.problems.append(
                "report differs from the published usa_t1 report: "
                + ("; ".join(diff[:5]) or f"{len(got)} lines, expected {len(want)}")
            )


def _check_one(export: Export, api, checker, corpus, oracle: dict) -> list[str]:
    problems = []
    strategy, report = export.strategy, export.report
    parsed = api.parse_strategy_script(export.script)
    if (
        parsed.statements != strategy.statements
        or parsed.overlap != strategy.overlap_stmt
        or parsed.exclusions != strategy.exclusion_stmts
    ):
        problems.append("parse_strategy_script(emit_strategy_script(s)) differs from s")
    if len(report.per_statement) != len(strategy.statements):
        return problems + ["report does not cover every statement"]
    for i, (stmt, row) in enumerate(zip(strategy.statements, report.per_statement), start=1):
        count = checker.count(stmt).expect_exact()
        if count >= strategy.cap:
            problems.append(f"statement {i} recounts {count}, not below the cap {strategy.cap}")
        if row.count != count:
            problems.append(f"statement {i} reported {row.count}, recounted {count}")
    direct = checker.count(strategy.base).expect_exact()
    if report.direct_source == "engine":
        # a censored run's direct count already comes from the oracle
        if export.base not in oracle:
            oracle[export.base] = len(api.evaluate(strategy.base, corpus))
        if oracle[export.base] != direct:
            problems.append(f"oracle counts {oracle[export.base]} for the base, engine {direct}")
    elif report.direct_source != "oracle":
        problems.append(f"direct count source {report.direct_source!r}")
    if report.direct_count != direct:
        problems.append(f"direct count {report.direct_count}, recounted {direct}")
    if not report.method_b_total == report.union_cardinality == direct:
        problems.append(
            f"method B {report.method_b_total}, union {report.union_cardinality}, direct {direct}"
        )
    a_exact = report.method_a_total == direct
    if a_exact != (report.max_multiplicity <= 2):
        problems.append(
            f"method A {report.method_a_total} vs direct {direct} at max multiplicity "
            f"{report.max_multiplicity}"
        )
    verdict = "Exact" if report.max_multiplicity <= 2 else "MethodAOvercount"
    if report.verdict.value != verdict:
        problems.append(f"verdict {report.verdict.value}, expected {verdict}")
    return problems
