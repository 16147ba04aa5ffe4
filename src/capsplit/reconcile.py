"""Strategy execution and total reconciliation.

Running a strategy clears the engine's numbered statements, registers
its own in script order (so the partition statements are 1..n, the
overlap statement n+1 and the exclusions n+2..2n+1), then computes the
complete retrieval total two ways:

- method A: sum of the statement counts minus the overlap count. Exact
  only while no record sits in more than two statements, because a record
  in m statements adds m to the sum but only 1 to the overlap.
- method B: sum of the exclusion counts plus the overlap count. Exact at
  any multiplicity: the exclusion sets are pairwise disjoint and disjoint
  from the overlap set, so the sum telescopes to the union cardinality.

Every partition statement is sub-cap and therefore materializable, so the
runner also takes the union, the records shared by two or more sections
and the maximum per-record multiplicity from the section bitsets alone
(``CappedEngine.coverage`` over ``#1..#n``). That is the same information
an operator of a real capped interface gets by downloading each section,
and it never reads the overlap or exclusion statements it cross-checks.

A censored interface cannot report the direct count of the base, so
``validate_direct`` takes it from the index-free ``query.Oracle`` instead.
Each engine gets one oracle over its corpus, kept for exactly as long as
the engine lives, so validating many exports of one engine scans the
corpus once per distinct term rather than once per term of every base.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace
from enum import Enum

from .engine import VISIBLE, CappedEngine
from .planner import Strategy
from .query import Oracle, SetRef


# one oracle per engine, dropped with the engine; an oracle never refers back to it
_ORACLES: weakref.WeakKeyDictionary[CappedEngine, Oracle] = weakref.WeakKeyDictionary()


class ReconcileError(Exception):
    """Internal reconciliation invariant broke (engine/runner disagreement)."""


class Verdict(Enum):
    EXACT = "Exact"
    METHOD_A_OVERCOUNT = "MethodAOvercount"
    CAP_VIOLATION = "CapViolation"
    MISMATCH = "Mismatch"


@dataclass(frozen=True)
class StatementResult:
    number: int
    count: int | None  # None when the engine censored the count
    running_sum: int | None


@dataclass(frozen=True)
class ExclusionResult:
    number: int  # number of the statement being excluded, 1..n
    count: int
    running_sum: int


@dataclass(frozen=True)
class RunReport:
    per_statement: tuple[StatementResult, ...]
    overlap_count: int | None
    method_a_total: int | None
    per_exclusion: tuple[ExclusionResult, ...]
    method_b_total: int | None
    union_cardinality: int | None
    max_multiplicity: int | None
    direct_count: int | None
    direct_source: str | None
    verdict: Verdict


@dataclass(frozen=True)
class ExactnessFinding:
    """Whether method A can be trusted, and the corrected total if not."""

    max_multiplicity: int
    method_a_exact: bool
    corrected_total: int
    overcount: int  # (sum of statement counts - union) - overlap


def run_strategy(strategy: Strategy, engine: CappedEngine) -> RunReport:
    """Execute a strategy as a numbered session and reconcile its counts.

    A statement whose count reaches the cap yields a partial report with
    the CapViolation verdict and no totals.
    """
    n = len(strategy.statements)
    cap = strategy.cap
    per_statement: list[StatementResult] = []
    running: int | None = 0
    violated = False
    engine.clear_statements()
    for i, stmt in enumerate(strategy.statements, start=1):
        result = engine.register(stmt)
        value = result.value
        if value is None or value >= cap:
            violated = True
        running = None if (running is None or value is None) else running + value
        per_statement.append(StatementResult(i, value, running))
    if violated:
        return RunReport(
            per_statement=tuple(per_statement),
            overlap_count=None,
            method_a_total=None,
            per_exclusion=(),
            method_b_total=None,
            union_cardinality=None,
            max_multiplicity=None,
            direct_count=None,
            direct_source=None,
            verdict=Verdict.CAP_VIOLATION,
        )

    overlap_result = engine.register(strategy.overlap_stmt)

    per_exclusion: list[ExclusionResult] = []
    excl_running = 0
    for i, stmt in enumerate(strategy.exclusion_stmts, start=1):
        result = engine.register(stmt)
        # Exclusions are subsets of sub-cap statements, so never censored.
        value = result.expect_exact()
        excl_running += value
        per_exclusion.append(ExclusionResult(i, value, excl_running))

    # records in at least 1, 2, ... sections; the list ends at the maximum multiplicity
    coverage = engine.coverage(SetRef(i) for i in range(1, n + 1))
    union_cardinality, materialized_overlap = (coverage + [0, 0])[:2]
    max_multiplicity = len(coverage)

    if overlap_result.is_exact:
        if overlap_result.value != materialized_overlap:
            raise ReconcileError(
                f"overlap statement counted {overlap_result.value} records but the "
                f"materialized sections contain {materialized_overlap} shared ones"
            )
        overlap_count = overlap_result.value
    else:
        # Censored engines may refuse the overlap count; the materialized
        # sections carry the same information.
        overlap_count = materialized_overlap

    method_a_total = running - overlap_count
    method_b_total = excl_running + overlap_count
    if method_b_total != union_cardinality:
        raise ReconcileError(
            f"method B total {method_b_total} diverged from the materialized "
            f"union of {union_cardinality} records"
        )
    return RunReport(
        per_statement=tuple(per_statement),
        overlap_count=overlap_count,
        method_a_total=method_a_total,
        per_exclusion=tuple(per_exclusion),
        method_b_total=method_b_total,
        union_cardinality=union_cardinality,
        max_multiplicity=max_multiplicity,
        direct_count=None,
        direct_source=None,
        verdict=_verdict(method_a_total, method_b_total, None),
    )


def validate_direct(strategy: Strategy, engine: CappedEngine) -> RunReport:
    """Run the strategy and compare both totals against the direct count.

    The direct count of the base query comes from the engine when counts
    are visible; a censored interface cannot report it, so it is computed
    by the engine's corpus-scan oracle instead and labeled as oracle-sourced.
    """
    report = run_strategy(strategy, engine)
    if engine.config.count_mode == VISIBLE:
        direct = engine.count(strategy.base).expect_exact()
        source = "engine"
    else:
        oracle = _ORACLES.get(engine)
        if oracle is None:
            oracle = _ORACLES[engine] = Oracle(engine.corpus)
        direct = len(oracle.evaluate(strategy.base))
        source = "oracle"
    verdict = report.verdict
    if verdict is not Verdict.CAP_VIOLATION:
        verdict = _verdict(report.method_a_total, report.method_b_total, direct)
    return replace(report, direct_count=direct, direct_source=source, verdict=verdict)


def _verdict(method_a: int, method_b: int, direct: int | None) -> Verdict:
    # Coverage loss dominates: method B misses records the partition never
    # touched, which no amount of overlap arithmetic can repair.
    if direct is not None and method_b != direct:
        return Verdict.MISMATCH
    if method_a != method_b:
        return Verdict.METHOD_A_OVERCOUNT
    return Verdict.EXACT


def check_exactness(report: RunReport) -> ExactnessFinding:
    """Judge method A against the materialized union.

    Method A equals the union exactly when no record lies in more than two
    statements; otherwise each record in m statements is overcounted by
    m - 2, and the total surplus is (sum of counts - union) - overlap.
    """
    if report.method_a_total is None or report.union_cardinality is None:
        raise ReconcileError("cannot judge exactness of a partial (cap-violated) report")
    statement_sum = sum(s.count for s in report.per_statement)
    overcount = (statement_sum - report.union_cardinality) - report.overlap_count
    return ExactnessFinding(
        max_multiplicity=report.max_multiplicity,
        method_a_exact=report.method_a_total == report.union_cardinality,
        corrected_total=report.union_cardinality,
        overcount=overcount,
    )
