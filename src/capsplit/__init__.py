"""capsplit: partitioned Boolean retrieval under result-set caps.

Given a search interface that refuses to materialize more than K records
per query, capsplit synthesizes a family of sub-cap statements covering a
base query, executes it, removes the duplication caused by multi-valued
source titles, and proves the reconciled total against an independent
direct count.
"""

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
from .cli import emit_report, emit_strategy_script, parse_strategy_script

__version__ = "0.1.0"
