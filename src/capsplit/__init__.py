"""capsplit: partitioned Boolean retrieval under result-set caps.

Given a search interface that refuses to materialize more than K records
per query, capsplit synthesizes a family of sub-cap statements covering a
base query, executes it, removes the duplication caused by multi-valued
source titles, and proves the reconciled total against an independent
direct count.
"""

from importlib import import_module as _import_module

from .corpus import (
    Corpus,
    CorpusError,
    CorpusProfile,
    Record,
    build_fixture,
    generate,
    ingest,
    load_corpus,
    save_corpus,
    serialize,
)
from .engine import (
    CENSORED,
    VISIBLE,
    CapExceededError,
    CappedEngine,
    CountResult,
    EngineConfig,
    EngineError,
)
from .planner import (
    GroupSpecError,
    PlanInfeasibleError,
    Prefixes,
    Split,
    Strategy,
    build_exclusions,
    build_overlap_statement,
    parse_group_spec,
    plan_auto,
    plan_censored,
    plan_prescribed,
)
from .query import (
    And,
    Diff,
    FieldKind,
    Or,
    Oracle,
    Pattern,
    Query,
    QueryError,
    SetRef,
    Term,
    evaluate,
    parse,
    print_normalized,
)
from .reconcile import RunReport, Verdict, run_strategy, validate_direct

__version__ = "0.1.0"

# The CLI module is imported on first use (PEP 562), so that
# ``python -m capsplit.cli`` runs it as ``__main__`` without a second copy of
# it already in ``sys.modules``.
_FROM_CLI = ("emit_report", "emit_strategy_script", "parse_strategy_script")


def __getattr__(name: str):
    if name == "cli" or name in _FROM_CLI:
        cli = _import_module(f"{__name__}.cli")
        return cli if name == "cli" else getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), "cli", *_FROM_CLI})
