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

The report is one function of the session's counts: ``_session`` makes
every engine call, and ``_reconcile`` builds every row, running sum,
total, cross-check and verdict from the counts alone. A statement that
does not fit the cap of the engine it runs on ends the session with its
rows and CapViolation, whatever cap the plan was made for.

Every partition statement is sub-cap and therefore materializable, so the
runner also takes the union, the records shared by two or more sections
and the maximum per-record multiplicity from the section bitsets alone
(``CappedEngine.coverage`` over ``#1..#n``). That is the same information
an operator of a real capped interface gets by downloading each section,
and it never reads the overlap or exclusion statements it cross-checks.
Method A's surplus, if any, is ``method_a_total - union_cardinality``.

A censored interface cannot report the direct count of the base, so
``validate_direct`` takes it from the index-free ``query.Oracle`` instead.
Each engine gets one oracle over its corpus, kept for exactly as long as
the engine lives, so validating many exports of one engine scans the
corpus once per distinct term rather than once per term of every base.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate

from .engine import VISIBLE, CappedEngine, CountResult
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
class Row:
    """One counted statement and the running sum; an exclusion row takes the excluded number."""

    number: int
    count: int | None  # None when censored, as is every running sum from it on
    running_sum: int | None


@dataclass(frozen=True)
class RunReport:
    per_statement: tuple[Row, ...]
    verdict: Verdict
    overlap_count: int | None = None
    method_a_total: int | None = None
    per_exclusion: tuple[Row, ...] = ()
    method_b_total: int | None = None
    union_cardinality: int | None = None
    max_multiplicity: int | None = None
    direct_count: int | None = None
    direct_source: str | None = None


def run_strategy(strategy: Strategy, engine: CappedEngine) -> RunReport:
    """Execute a strategy as a numbered session and reconcile its counts.

    A statement whose count reaches the cap yields a partial report with
    the CapViolation verdict and no totals.
    """
    return _reconcile(*_session(strategy, engine))


def validate_direct(strategy: Strategy, engine: CappedEngine) -> RunReport:
    """Run the strategy and compare both totals against the direct count.

    The direct count of the base query comes from the engine when counts
    are visible; a censored interface cannot report it, so it is computed
    by the engine's corpus-scan oracle instead and labeled as oracle-sourced.
    """
    session = _session(strategy, engine)
    if engine.config.count_mode == VISIBLE:
        return _reconcile(*session, engine.count(strategy.base).expect_exact(), "engine")
    oracle = _ORACLES.get(engine)
    if oracle is None:
        oracle = _ORACLES[engine] = Oracle(engine.corpus)
    return _reconcile(*session, len(oracle.evaluate(strategy.base)), "oracle")


def _session(strategy: Strategy, engine: CappedEngine) -> tuple:
    """Register the strategy's statements, overlap statement and exclusions, and return
    their counts (None where censored) and the statements' coverage; a statement that
    does not fit the engine's cap, whatever cap the plan was made for, ends the session
    with no overlap, exclusions or coverage."""
    engine.clear_statements()
    counts = [engine.register(query).value for query in strategy.statements]
    if not all(CountResult(count).fits(engine.config.cap) for count in counts):
        return counts, None, [], None
    overlap = engine.register(strategy.overlap_stmt).value
    exclusions = [engine.register(query).value for query in strategy.exclusion_stmts]
    # records in at least 1, 2, ... sections; the list ends at the maximum multiplicity
    return counts, overlap, exclusions, engine.coverage(map(SetRef, range(1, len(counts) + 1)))


def _reconcile(counts: list[int | None], overlap: int | None, exclusions: list[int | None],
               coverage: list[int] | None, direct: int | None = None,
               source: str | None = None) -> RunReport:
    """The report of a session's counts, None where censored: ``coverage`` is None when a
    statement did not fit the cap, and ``direct`` is the base's count, taken from ``source``."""
    per_statement, statement_sum = _rows(counts)
    if coverage is None:
        return RunReport(per_statement, Verdict.CAP_VIOLATION,
                         direct_count=direct, direct_source=source)
    per_exclusion, exclusion_sum = _rows(exclusions)
    # Exclusions are subsets of sub-cap statements, so never censored.
    exclusion_sum = CountResult(exclusion_sum).expect_exact()

    union_cardinality, materialized_overlap = (*coverage, 0, 0)[:2]
    if overlap is None:
        # Censored engines may refuse the overlap count; the materialized
        # sections carry the same information.
        overlap = materialized_overlap
    elif overlap != materialized_overlap:
        raise ReconcileError(f"overlap statement counted {overlap} records but the "
                             f"materialized sections contain {materialized_overlap} shared ones")

    method_a_total = statement_sum - overlap
    method_b_total = exclusion_sum + overlap
    if method_b_total != union_cardinality:
        raise ReconcileError(f"method B total {method_b_total} diverged from the "
                             f"materialized union of {union_cardinality} records")
    return RunReport(
        per_statement, _verdict(method_a_total, method_b_total, direct),
        overlap_count=overlap, method_a_total=method_a_total, per_exclusion=per_exclusion,
        method_b_total=method_b_total, union_cardinality=union_cardinality,
        max_multiplicity=len(coverage), direct_count=direct, direct_source=source,
    )


def _rows(counts: list[int | None]) -> tuple[tuple[Row, ...], int | None]:
    """``counts`` as rows numbered from 1, and their sum; a sum is None from a censored
    count on."""
    sums = list(accumulate(counts, lambda s, n: None if s is None or n is None else s + n,
                           initial=0))
    return tuple(map(Row, range(1, len(sums)), counts, sums[1:])), sums[-1]


def _verdict(method_a: int, method_b: int, direct: int | None) -> Verdict:
    # Coverage loss dominates: method B misses records the partition never
    # touched, which no amount of overlap arithmetic can repair.
    if direct is not None and method_b != direct:
        return Verdict.MISMATCH
    if method_a != method_b:
        return Verdict.METHOD_A_OVERCOUNT
    return Verdict.EXACT

