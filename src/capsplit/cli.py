"""Command-line interface and deterministic text emitters.

Commands:

    gen       write a corpus file from a generator profile or shipped fixture
    ingest    parse and validate a corpus file, print the record count
    count     count one query against a corpus
    plan      synthesize a partition strategy, print it as a numbered script
    run       plan and execute a strategy, print the reconciliation report
    validate  run and additionally compare both totals to the direct count

Exit statuses: 0 success (verdict Exact), 1 verdict failure, 2 usage error,
3 data error, 4 infeasible plan or cap exceeded.

The strategy script and the key=value report are byte-deterministic so
they can be diffed and parsed; report integers never carry digit grouping.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from typing import Callable

from .corpus import (
    DEFAULT_ADDRESS_POOLS,
    FIXTURE_NAMES,
    CorpusError,
    CorpusProfile,
    _ascii_float,
    _ascii_int,
    _write_corpus,
    build_fixture,
    generate,
    load_corpus,
    save_corpus,
)
from .engine import CapExceededError, CappedEngine, EngineConfig, EngineError
from .planner import (
    GroupSpecError,
    PlanInfeasibleError,
    Strategy,
    parse_group_spec,
    plan_auto,
    plan_prescribed,
)
from .query import FieldKind, Query, QueryError, parse, print_normalized
from .reconcile import RunReport, Verdict, run_strategy, validate_direct

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INFEASIBLE = 4

OVERLAP_HEADING = "Statement to find overlapping"
EXCLUSION_HEADING = "New Search Strategy (Excluding overlapping)"

UNAVAILABLE = "unavailable"


# ---------------------------------------------------------------------------
# Emitters
# ---------------------------------------------------------------------------


def emit_strategy_script(strategy: Strategy) -> str:
    """Render a strategy as the numbered session script."""
    n = len(strategy.statements)
    lines = [f"{i}. {print_normalized(stmt)}" for i, stmt in enumerate(strategy.statements, 1)]
    lines.append(OVERLAP_HEADING)
    lines.append(f"{n + 1}. {print_normalized(strategy.overlap_stmt)}")
    lines.append(EXCLUSION_HEADING)
    for i, stmt in enumerate(strategy.exclusion_stmts, 1):
        lines.append(f"{n + 1 + i}. {print_normalized(stmt)}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ParsedScript:
    statements: tuple[Query, ...]
    overlap: Query | None
    exclusions: tuple[Query, ...]


def parse_strategy_script(text: str) -> ParsedScript:
    """Re-read an emitted strategy script into its query trees.

    Lines are numbered 1, 2, 3, ... in session order across all three
    sections, in ASCII digits without leading zeros; any other number is
    an error. Each heading may appear once,
    the overlap heading before the exclusion heading, and the overlap
    section holds exactly one statement.
    """
    # heading -> its statements, in script order; "" heads the lines before any heading
    sections: dict[str, list[Query]] = {"": [], OVERLAP_HEADING: [], EXCLUSION_HEADING: []}
    order = list(sections)
    section = ""
    expected = 1
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line in sections:
            if order.index(line) != order.index(section) + 1:
                raise ValueError(f"script heading is repeated or out of order: {line!r}")
            section = line
            continue
        number, dot, rest = line.partition(". ")
        if not dot or not number.isdigit():
            raise ValueError(f"script line is not numbered: {line!r}")
        if number != str(expected):
            raise ValueError(f"script line should be numbered {expected}: {line!r}")
        if section == OVERLAP_HEADING and sections[section]:
            raise ValueError(f"script has a second overlap statement: {line!r}")
        expected += 1
        sections[section].append(parse(rest))
    statements, overlap, exclusions = sections.values()
    if section and not overlap:
        raise ValueError(f"script has no statement under {OVERLAP_HEADING!r}")
    return ParsedScript(tuple(statements), overlap[0] if overlap else None, tuple(exclusions))


def _fmt(value: int | None) -> str:
    return UNAVAILABLE if value is None else str(value)


def emit_report(report: RunReport) -> str:
    """Render the machine-readable key=value run report, fixed key order."""
    lines: list[str] = []
    for s in report.per_statement:
        lines.append(f"statement.{s.number}.count={_fmt(s.count)}")
        lines.append(f"statement.{s.number}.sum={_fmt(s.running_sum)}")
    lines.append(f"overlap.count={_fmt(report.overlap_count)}")
    for e in report.per_exclusion:
        lines.append(f"exclusion.{e.number}.count={e.count}")
        lines.append(f"exclusion.{e.number}.sum={e.running_sum}")
    lines.append(f"method_a.total={_fmt(report.method_a_total)}")
    lines.append(f"method_b.total={_fmt(report.method_b_total)}")
    lines.append(f"union.cardinality={_fmt(report.union_cardinality)}")
    lines.append(f"direct.count={_fmt(report.direct_count)}")
    if report.direct_source is not None:
        lines.append(f"direct.source={report.direct_source}")
    lines.append(f"max.multiplicity={_fmt(report.max_multiplicity)}")
    lines.append(f"verdict={report.verdict.value}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _natural_int(text: str) -> int:
    value = _ascii_int(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number in ASCII digits")
    return value


def _ascii_number(text: str) -> float:
    value = _ascii_float(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number in ASCII digits")
    return value


def _positive_int(text: str) -> int:
    value = _natural_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_engine_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--corpus", required=True, help="corpus file to load")
    sub.add_argument("--cap", type=_positive_int, default=EngineConfig.cap, help="result-set cap")
    sub.add_argument("--mode", choices=("visible", "censored"), default="visible")


def _add_strategy_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--base", required=True, help="base query to partition")
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--groups", help="prescribed groups, e.g. 'AB,...,J/AD=CA' or '/AD=LONDON'"
    )
    source.add_argument("--auto", action="store_true", help="greedy alphabetical packing")
    sub.add_argument("--out", help="write output to this file instead of stdout")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capsplit",
        description="Partitioned Boolean retrieval under a result-set cap.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a corpus file")
    gen.add_argument("--out", help="output path (default: stdout)")
    gen.add_argument("--profile", help="JSON generator profile")
    gen.add_argument("--fixture", choices=FIXTURE_NAMES,
                     help="write a shipped fixture instead (takes no generator flag)")
    gen.add_argument("--seed", type=_natural_int)
    gen.add_argument("--n", type=_natural_int)
    gen.add_argument("--multi-title-prob", type=_ascii_number, dest="multi_title_prob")
    gen.add_argument("--countries", help="comma list of NAME[:WEIGHT]")

    ingest_p = sub.add_parser("ingest", help="validate a corpus file")
    ingest_p.add_argument("--corpus", required=True)

    count_p = sub.add_parser("count", help="count a query")
    _add_engine_args(count_p)
    count_p.add_argument("query", help="query string")

    for name, help_text in (
        ("plan", "synthesize a strategy and print the script"),
        ("run", "plan, execute and print the reconciliation report"),
        ("validate", "run and compare totals against the direct count"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        _add_engine_args(cmd)
        _add_strategy_args(cmd)
    return parser


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------


def _write_out(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_countries(text: str) -> dict[str, float]:
    weights: dict[str, float] = {}
    for part in text.split(","):
        name, colon, weight = part.partition(":")
        name = name.strip().upper()
        if not name:
            raise CorpusError(f"bad --countries entry in {text!r}")
        if name in weights:
            raise CorpusError(f"country {name!r} is named twice in --countries")
        # a bare name weighs 1; a colon needs a weight after it
        value = _ascii_float(weight) if colon else 1.0
        if value is None:
            raise CorpusError(f"country weight {weight!r} of {name!r} is not finite, "
                              "or not ASCII digits")
        weights[name] = value
    return weights


# the flags of a seeded profile, which a shipped fixture does not read
_GENERATOR_FLAGS = ("--profile", "--seed", "--n", "--multi-title-prob", "--countries")


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.fixture:
        corpus = build_fixture(args.fixture)
    else:
        if args.profile:
            with open(args.profile, "r", encoding="utf-8") as fh:
                try:
                    profile = CorpusProfile.from_dict(json.load(fh))
                except (TypeError, ValueError) as exc:
                    raise CorpusError(f"invalid profile {args.profile}: {exc}") from None
        else:
            profile = CorpusProfile(seed=0, n_records=1000)
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.n is not None:
            overrides["n_records"] = args.n
        if args.multi_title_prob is not None:
            overrides["multi_title_prob"] = args.multi_title_prob
        if args.countries:
            overrides["country_weights"] = _parse_countries(args.countries)
            overrides["address_pools"] = DEFAULT_ADDRESS_POOLS
        if overrides:
            profile = replace(profile, **overrides)
        corpus = generate(profile)
    if args.out:
        save_corpus(corpus, args.out)
    else:
        _write_corpus(corpus, sys.stdout)
    return EXIT_OK


def _cmd_ingest(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    print(f"{len(corpus)} records")
    return EXIT_OK


def _load_engine(args: argparse.Namespace) -> CappedEngine:
    corpus = load_corpus(args.corpus)
    return CappedEngine(corpus, EngineConfig(cap=args.cap, count_mode=args.mode))


def _cmd_count(args: argparse.Namespace) -> int:
    query = parse(args.query)  # a bad query is a usage error, whatever the corpus
    result = _load_engine(args).count(query)
    print(result.value if result.is_exact else f">={args.cap}")
    return EXIT_OK


def _planner(args: argparse.Namespace) -> Callable[[CappedEngine], Strategy]:
    """Parse ``--base`` and ``--groups`` into a planner, before any corpus is loaded."""
    base = parse(args.base)
    field = FieldKind.SO  # the source title, as the paper partitions
    if args.groups is not None:  # argparse lets exactly one of --groups, --auto through
        groups = parse_group_spec(args.groups)
        return lambda engine: plan_prescribed(engine, base, field, groups)
    return lambda engine: plan_auto(engine, base, field)


def _print_warnings(strategy: Strategy) -> None:
    for warning in strategy.warnings:
        print(f"warning: {warning}", file=sys.stderr)


def _cmd_plan(args: argparse.Namespace) -> int:
    plan = _planner(args)
    strategy = plan(_load_engine(args))
    _print_warnings(strategy)
    _write_out(emit_strategy_script(strategy), args.out)
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    """``run`` and ``validate``: the latter also compares against the direct count."""
    plan = _planner(args)
    engine = _load_engine(args)
    strategy = plan(engine)
    _print_warnings(strategy)
    execute = validate_direct if args.command == "validate" else run_strategy
    report = execute(strategy, engine)
    _write_out(emit_report(report), args.out)
    return EXIT_OK if report.verdict is Verdict.EXACT else EXIT_VERDICT


_COMMANDS = {
    "gen": _cmd_gen,
    "ingest": _cmd_ingest,
    "count": _cmd_count,
    "plan": _cmd_plan,
    "run": _cmd_run,
    "validate": _cmd_run,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "gen" and args.fixture:
            given = [flag for flag in _GENERATOR_FLAGS
                     if getattr(args, flag[2:].replace("-", "_")) is not None]
            if given:
                parser.error(f"gen --fixture takes none of {', '.join(given)}")
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (CapExceededError, PlanInfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (QueryError, GroupSpecError, EngineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CorpusError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
