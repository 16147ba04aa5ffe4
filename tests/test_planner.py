from __future__ import annotations

import random
import re
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from capsplit import (
    CENSORED,
    CappedEngine,
    Corpus,
    CorpusProfile,
    Diff,
    EngineConfig,
    FieldKind,
    GroupSpecError,
    Pattern,
    PlanInfeasibleError,
    Prefixes,
    SetRef,
    Split,
    Strategy,
    VISIBLE,
    Verdict,
    build_exclusions,
    build_overlap_statement,
    emit_strategy_script,
    evaluate,
    generate,
    ingest,
    parse,
    parse_group_spec,
    parse_strategy_script,
    plan_auto,
    plan_censored,
    plan_prescribed,
    print_normalized,
    run_strategy,
    serialize,
    validate_direct,
)
from capsplit import planner
from capsplit.query import postorder

from conftest import CUBA_BASE, REFERENCE_GROUPS_CUBA, USA_BASE
from helpers import make_record

SO = FieldKind.SO


class CountingEngine(CappedEngine):
    """Keeps the printed form of every statement sent to ``count``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.probed: list[str] = []

    @property
    def probes(self) -> int:
        return len(self.probed)

    def count(self, query):
        self.probed.append(print_normalized(query))
        return super().count(query)

    def repeated_probes(self) -> list[str]:
        return sorted(text for text, n in Counter(self.probed).items() if n > 1)


def _initials(symbols: str) -> Prefixes:
    """The bucket a letter chunk of a group specification parses to."""
    return Prefixes(tuple(Pattern(sym, truncated=True) for sym in symbols))


def _letters_corpus(buckets: dict[str, int]) -> Corpus:
    records = []
    n = 0
    for letter, size in buckets.items():
        for _ in range(size):
            n += 1
            records.append(make_record(f"R{n:05d}", (f"{letter}TITLE {n:05d}",)))
    return Corpus(tuple(records))


# -- overlap / exclusion builders ---------------------------------------------


def test_overlap_statement_pair_order():
    text = print_normalized(build_overlap_statement(7))
    pairs = [(i, j) for i in range(1, 8) for j in range(i + 1, 8)]
    expected = " OR ".join(f"(#{i} AND #{j})" for i, j in pairs)
    assert text == expected


def test_overlap_statement_small_cases():
    assert print_normalized(build_overlap_statement(2)) == "#1 AND #2"
    assert build_overlap_statement(1) == Diff(SetRef(1), SetRef(1))
    with pytest.raises(GroupSpecError):
        build_overlap_statement(0)


def test_overlap_statement_for_one_group_evaluates_empty():
    corpus = _letters_corpus({"A": 5})
    registry = {1: {r.id for r in corpus}}
    assert evaluate(build_overlap_statement(1), corpus, registry) == set()


def test_build_exclusions():
    stmts = build_exclusions(7)
    assert [print_normalized(s) for s in stmts] == [f"#{i} NOT #8" for i in range(1, 8)]


def _set_ref_objects(queries) -> set[int]:
    return {id(node) for query in queries for node in postorder(query) if isinstance(node, SetRef)}


def test_overlap_and_exclusions_hold_one_set_ref_per_number():
    # 28 pairs of 8 statements reference 8 SetRef objects, not 56
    assert len(_set_ref_objects([build_overlap_statement(8)])) == 8
    assert len(_set_ref_objects([build_overlap_statement(1)])) == 1
    # #1..#7 and the overlap #8, which every exclusion shares
    assert len(_set_ref_objects(build_exclusions(7))) == 8


# -- group specifications ------------------------------------------------------


def test_parse_group_spec_with_split():
    assert parse_group_spec("AB,CDEFG,J/AD=CA") == (
        _initials("AB"), _initials("CDEFG"), Split("J", FieldKind.AD, Pattern("CA"))
    )


def test_parse_group_spec_whole_base_split():
    assert parse_group_spec("/AD=LONDON") == (Split("", FieldKind.AD, Pattern("LONDON")),)


def test_truncated_pivot_parses_alike_in_group_spec_and_split_flags():
    pivot = Pattern("LOND", truncated=True)
    assert parse_group_spec("/AD= lond* ") == (Split("", FieldKind.AD, pivot),)


@pytest.mark.parametrize(
    "text",
    [
        "", "A,,B", "J/AD", "J/XX=5", "AÉ", "J/AD=", "J/=CA",
        # characters that upper-case to two symbols; unwritable split prefixes
        "ß", "ﬁ", "ﬆ", "É/AD=CA", "OR J/AD=CA",
    ],
)
def test_parse_group_spec_errors(text):
    with pytest.raises(GroupSpecError):
        parse_group_spec(text)


def _overlap_message(first: str, second: str, prefix: str) -> str:
    return re.escape(f"groups {first!r} and {second!r} both export the records "
                     f"under prefix {prefix!r}")


def test_parse_group_spec_refuses_letters_and_split_prefixes_that_overlap():
    with pytest.raises(GroupSpecError, match=_overlap_message("AB", "BC", "B")):
        parse_group_spec("AB,BC")
    # whatever the chunk order
    with pytest.raises(GroupSpecError, match=_overlap_message("ABJ", "J/AD=CA", "J")):
        parse_group_spec("ABJ,J/AD=CA")
    with pytest.raises(GroupSpecError, match=_overlap_message("J/AD=CA", "ABJ", "J")):
        parse_group_spec("J/AD=CA,ABJ")


@pytest.mark.parametrize(
    "text, prefix",
    [
        pytest.param(text, prefix, id=text)
        for text, prefix in [
            ("J/AD=HAVANA,J/AD=HAVANA", "J"),
            ("J/AD=CA,J/AD=HAVANA", "J"),
            ("J/AD=CA,JO/AD=CA", "J"),
            ("/AD=LONDON,/AD=PARIS", ""),
            ("AB,/AD=LONDON", ""),
        ]
    ],
)
def test_parse_group_spec_refuses_split_scopes_that_overlap(text, prefix):
    for spec in (text, ",".join(reversed(text.split(",")))):  # whatever the chunk order
        first, second = spec.split(",")
        with pytest.raises(GroupSpecError, match=_overlap_message(first, second, prefix)):
            parse_group_spec(spec)


def _head_refuses(chunks: list[str]) -> bool:
    """The four overlap checks ``parse_group_spec`` made before they became
    one rule over named prefixes, kept as the reference; ``chunks`` are
    canonical letter chunks and ``PREFIX/AD=X`` splits."""
    listed: set[str] = set()
    prefixes: list[str] = []
    for chunk in chunks:
        if "/" in chunk:
            prefixes.append(chunk.partition("/")[0])
            continue
        if listed.intersection(chunk):  # a symbol in two letter chunks
            return True
        listed.update(chunk)
    for i, prefix in enumerate(prefixes):
        if prefix and prefix[0] in listed:  # a split prefix starting with a listed symbol
            return True
        if not prefix and len(chunks) > 1:  # a whole-base split beside another chunk
            return True
        for other in prefixes[:i]:  # split prefixes that nest or are equal
            if prefix.startswith(other) or other.startswith(prefix):
                return True
    return False


_CHUNKS = st.lists(
    st.one_of(
        st.text("AJ1", min_size=1, max_size=3),  # letter chunks, repeats within one allowed
        st.sampled_from(["", "A", "J", "JO", "JOR", "JA", "1"]).map(lambda p: f"{p}/AD=X"),
    ),
    min_size=1,
    max_size=4,
)


@given(chunks=_CHUNKS)
def test_parse_group_spec_refuses_exactly_what_the_four_old_checks_refused(chunks):
    for order in (chunks, chunks[::-1]):
        if not _head_refuses(order):
            assert len(parse_group_spec(",".join(order))) == len(order)
            continue
        with pytest.raises(GroupSpecError) as refused:
            parse_group_spec(",".join(order))
        first, second, prefix = re.fullmatch(
            r"groups '(.*)' and '(.*)' both export the records under prefix '(.*)'",
            str(refused.value),
        ).groups()
        # two different chunks, in spec order, that both name a prefix starting with it
        i, j = order.index(first), order.index(second, order.index(first) + 1)
        for chunk in (order[i], order[j]):
            named = [chunk.partition("/")[0]] if "/" in chunk else list(chunk)
            assert any(p.startswith(prefix) for p in named)


def test_split_prefix_is_checked_and_normalized_at_parse_time():
    assert parse_group_spec("jo  urnal/AD=CA,K/AD=CA") == (
        Split("JO URNAL", FieldKind.AD, Pattern("CA")),
        Split("K", FieldKind.AD, Pattern("CA")),
    )
    with pytest.raises(GroupSpecError, match="split prefix symbol 'É' not in A..Z, 0..9"):
        parse_group_spec("é/AD=CA")
    with pytest.raises(GroupSpecError, match="reserved character"):
        parse_group_spec("J*/AD=CA")


def test_letters_canonicalize_and_validate():
    assert parse_group_spec("BAB") == (_initials("AB"),)
    assert parse_group_spec("1Z") == (_initials("Z1"),)  # digits sort after letters
    with pytest.raises(GroupSpecError, match="'É' not in A..Z, 0..9"):
        parse_group_spec("É")
    with pytest.raises(GroupSpecError):
        Prefixes(())


# -- prescribed planning -------------------------------------------------------


def test_plan_prescribed_reference_grouping(cuba_corpus):
    engine = CappedEngine(cuba_corpus)
    strategy = plan_prescribed(
        engine, parse(CUBA_BASE), SO, parse_group_spec(REFERENCE_GROUPS_CUBA)
    )
    counts = [engine.count(s).value for s in strategy.statements]
    assert counts == [140, 216, 161, 193, 91, 108, 35]
    assert emit_strategy_script(strategy).splitlines()[7:9] == [
        "Statement to find overlapping",
        f"8. {print_normalized(strategy.overlap_stmt)}",
    ]
    assert len(strategy.exclusion_stmts) == 7
    # no record of the base starts with 0, so nothing is left out
    assert strategy.warnings == ()


@pytest.mark.parametrize(
    ("spec", "missing"),
    [(REFERENCE_GROUPS_CUBA.replace("J/", "JO/"), 142), ("A", 832)],
)
def test_plan_prescribed_warns_with_the_uncovered_count(cuba_corpus, spec, missing):
    engine = CappedEngine(cuba_corpus)
    strategy = plan_prescribed(engine, parse(CUBA_BASE), SO, parse_group_spec(spec))
    assert strategy.warnings == (f"groups leave records of the base uncovered: {missing}",)
    report = validate_direct(strategy, engine)
    assert report.direct_count - report.method_b_total == missing
    assert report.verdict is Verdict.MISMATCH


def test_censored_uncovered_count_reads_at_least_the_cap(cuba_corpus):
    engine = CappedEngine(cuba_corpus, EngineConfig(cap=500, count_mode=CENSORED))
    strategy = plan_prescribed(engine, parse(CUBA_BASE), SO, parse_group_spec("A"))
    assert strategy.warnings == ("groups leave records of the base uncovered: at least the cap",)


def test_plan_prescribed_full_coverage_has_no_warning(cuba_corpus):
    engine = CappedEngine(cuba_corpus)
    strategy = plan_prescribed(
        engine, parse(CUBA_BASE), SO,
        parse_group_spec("AB,CDEFG,HIKLM,NOPQR,STUVWXYZ0123456789,J/AD=HAVANA"),
    )
    assert strategy.warnings == ()


def test_plan_prescribed_infeasible_names_statement(cuba_corpus):
    engine = CappedEngine(cuba_corpus, EngineConfig(cap=200))
    with pytest.raises(PlanInfeasibleError, match=r"statement 2 .*cap is 200"):
        plan_prescribed(engine, parse(CUBA_BASE), SO, parse_group_spec(REFERENCE_GROUPS_CUBA))


@pytest.mark.parametrize("count_mode", [VISIBLE, CENSORED])
def test_a_base_naming_a_numbered_statement_is_refused_before_any_probe(cuba_corpus, count_mode):
    # a finished run leaves #1 in the engine's session, but the next run
    # numbers its own statements from #1, so the base would name one of them
    engine = CountingEngine(cuba_corpus, EngineConfig(cap=500, count_mode=count_mode))
    run_strategy(plan_auto(engine, parse(CUBA_BASE), SO), engine)
    engine.probed.clear()
    for text in ("#1", f"{CUBA_BASE} NOT #1"):
        with pytest.raises(GroupSpecError, match="names the numbered statement #1"):
            plan_auto(engine, parse(text), SO)
        with pytest.raises(GroupSpecError, match="names the numbered statement #1"):
            plan_prescribed(engine, parse(text), SO, parse_group_spec(REFERENCE_GROUPS_CUBA))
    assert engine.probes == 0


def test_plan_prescribed_refuses_no_groups_before_any_probe(cuba_corpus):
    engine = CountingEngine(cuba_corpus)
    with pytest.raises(GroupSpecError) as err:
        plan_prescribed(engine, parse(CUBA_BASE), SO, ())
    assert str(err.value) == "a prescribed plan needs at least one group"
    assert engine.probes == 0


def test_plan_prescribed_names_the_without_side_of_a_split_that_does_not_fit():
    # J has 3 records with AD=CA and 12 without: the with side fits cap 10, the other does not
    records = [make_record(f"A{i}", ("A REV",)) for i in range(4)]
    records += [make_record(f"C{i}", ("JOURNAL",), addresses=("CA",)) for i in range(3)]
    records += [make_record(f"N{i}", ("JOURNAL",), addresses=("NY",)) for i in range(12)]
    engine = CappedEngine(Corpus(tuple(records)), EngineConfig(cap=10))
    with pytest.raises(
        PlanInfeasibleError,
        match=r"^statement 3 \(PY=2007 AND SO=J\* NOT AD=CA\) has 12 records; cap is 10$",
    ):
        plan_prescribed(engine, parse("PY=2007"), SO, parse_group_spec("A,J/AD=CA"))


def test_pivot_split_sides_are_disjoint(cuba_corpus):
    engine = CappedEngine(cuba_corpus)
    strategy = plan_prescribed(
        engine, parse(CUBA_BASE), SO, parse_group_spec(REFERENCE_GROUPS_CUBA)
    )
    with_side = evaluate(strategy.statements[5], cuba_corpus)
    without_side = evaluate(strategy.statements[6], cuba_corpus)
    assert with_side and without_side
    assert not (with_side & without_side)


# -- greedy planning -----------------------------------------------------------


def test_plan_auto_greedy_hand_example():
    corpus = _letters_corpus({"A": 40, "B": 30, "C": 35})
    engine = CappedEngine(corpus, EngineConfig(cap=100))
    strategy = plan_auto(engine, parse("SO=A* OR SO=B* OR SO=C* OR SO=D*"), SO)
    # greedy closes {A,B} because 70 + 35 would reach the cap
    counts = [engine.count(s).value for s in strategy.statements]
    assert counts == [70, 35]
    base = "(SO=A* OR SO=B* OR SO=C* OR SO=D*)"
    first, second = (print_normalized(s) for s in strategy.statements)
    assert first == f"{base} AND (SO=A* OR SO=B*)"
    assert second.startswith(f"{base} AND (SO=C* OR ")


def test_plan_auto_empty_base_keeps_one_statement():
    corpus = _letters_corpus({"A": 10})
    engine = CappedEngine(corpus, EngineConfig(cap=100))
    strategy = plan_auto(engine, parse("PY=1999"), SO)
    assert len(strategy.statements) == 1
    assert engine.count(strategy.statements[0]).value == 0


def test_plan_auto_single_title_class_infeasible():
    records = tuple(make_record(f"R{i}", ("JAMA",)) for i in range(20))
    engine = CappedEngine(Corpus(records), EngineConfig(cap=10))
    with pytest.raises(PlanInfeasibleError, match="SO=JAMA"):
        plan_auto(engine, parse("PY=2007"), SO)


def _deepening_corpus() -> Corpus:
    titles = (
        ["J"] * 2
        + [f"JA{c} REV" for c in "WXYZ"]
        + [f"JO{c} REV" for c in "WXYZ"]
        + [f"JU{c} REV" for c in "WXYZ"]
        + [f"A{c} REV" for c in "XYZ"]
    )
    return Corpus(
        tuple(make_record(f"R{i:03d}", (t,)) for i, t in enumerate(titles, 1))
    )


def test_plan_auto_deepens_oversized_bucket():
    engine = CappedEngine(_deepening_corpus(), EngineConfig(cap=10))
    strategy = plan_auto(engine, parse("PY=2007"), SO)
    texts = [print_normalized(s) for s in strategy.statements]
    assert texts == [
        "PY=2007 AND (SO=A* OR SO=B* OR SO=C* OR SO=D* OR SO=E* OR SO=F* OR SO=G* OR SO=H* OR SO=I*)",
        "PY=2007 AND (SO=J OR SO=JA*)",  # exact-title residue comes first
        "PY=2007 AND (SO=JO* OR SO=JU*)",
    ]
    counts = [engine.count(s).value for s in strategy.statements]
    assert counts == [3, 6, 8]
    assert sum(counts) == len(engine.corpus)


def _word_boundary_corpus() -> Corpus:
    records = tuple(
        make_record(f"R{i:03d}", (f"JOURNAL OF {chr(65 + i % 4)} VOL {i:03d}",))
        for i in range(30)
    ) + (make_record("R900", ("JOURNAL",)),)  # exact residue at the boundary
    return Corpus(records)


def test_plan_auto_deepens_across_word_boundaries():
    # an oversized bucket whose values share a whole first word must deepen
    # into the next word's symbols, since no pattern can end with a space
    engine = CappedEngine(_word_boundary_corpus(), EngineConfig(cap=12))
    strategy = plan_auto(engine, parse("PY=2007"), SO)
    assert [print_normalized(s) for s in strategy.statements] == [
        "PY=2007 AND SO=JOURNAL",
        "PY=2007 AND SO=JOURNAL OF A*",
        "PY=2007 AND SO=JOURNAL OF B*",
        "PY=2007 AND SO=JOURNAL OF C*",
        "PY=2007 AND SO=JOURNAL OF D*",
    ]
    counts = [engine.count(s).expect_exact() for s in strategy.statements]
    assert counts == [1, 8, 8, 7, 7]
    report = validate_direct(strategy, engine)
    assert report.method_b_total == report.direct_count == 31
    assert report.verdict.value == "Exact"


def test_plan_censored_deepens_like_visible_planning():
    # one greedy planner serves both count modes, with one result
    assert plan_censored is plan_auto
    corpus = _deepening_corpus()
    censored = CappedEngine(corpus, EngineConfig(cap=10, count_mode=CENSORED))
    visible = CappedEngine(corpus, EngineConfig(cap=10))
    base = parse("PY=2007")
    assert plan_auto(censored, base, SO) == plan_auto(visible, base, SO)


def test_plan_prescribed_works_on_censored_engine(cuba_corpus):
    # sub-cap groups prove themselves even through censored probes
    engine = CappedEngine(cuba_corpus, EngineConfig(cap=100_000, count_mode=CENSORED))
    strategy = plan_prescribed(
        engine, parse(CUBA_BASE), SO, parse_group_spec(REFERENCE_GROUPS_CUBA)
    )
    assert len(strategy.statements) == 7
    with pytest.raises(PlanInfeasibleError, match="at least the cap"):
        plan_prescribed(
            CappedEngine(cuba_corpus, EngineConfig(cap=150, count_mode=CENSORED)),
            parse(CUBA_BASE), SO, parse_group_spec(REFERENCE_GROUPS_CUBA),
        )


def test_plan_censored_matches_visible_planning():
    corpus = generate(CorpusProfile(seed=33, n_records=3000, multi_title_prob=0.2))
    visible = CappedEngine(corpus, EngineConfig(cap=300))
    censored = CappedEngine(corpus, EngineConfig(cap=300, count_mode=CENSORED))
    base = parse("PY=2*")
    auto = plan_auto(visible, base, SO)
    cens = plan_censored(censored, base, SO)
    assert cens.statements == auto.statements
    for stmt in cens.statements:
        assert visible.count(stmt).value < 300


def test_plan_censored_probe_budget_for_single_group():
    corpus = _letters_corpus({"A": 5, "B": 5})
    engine = CountingEngine(corpus, EngineConfig(cap=1000, count_mode=CENSORED))
    strategy = plan_censored(engine, parse("PY=2007"), SO)
    assert len(strategy.statements) == 1
    assert engine.probes <= 37  # alphabet size + 1


@pytest.mark.parametrize("count_mode", [VISIBLE, CENSORED])
def test_galloping_finds_the_longest_run_in_few_probes(count_mode):
    # one record on each of A..8 and three on 9: the first 35 symbols fit below
    # the cap of 36 and all 36 do not, so bisection ends next to the known miss
    buckets = dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZ012345678", 1) | {"9": 3}
    engine = CountingEngine(_letters_corpus(buckets), EngineConfig(cap=36, count_mode=count_mode))
    strategy = plan_auto(engine, parse("PY=2007"), SO)
    # all 36, then runs of 1, 2, 4, 8, 16, 32, 34 and 35 symbols, then 9 alone;
    # one probe per symbol would take 37
    assert engine.probes == 10
    assert engine.repeated_probes() == []
    assert [print_normalized(s).count(" OR ") + 1 for s in strategy.statements] == [35, 1]
    assert print_normalized(strategy.statements[1]) == "PY=2007 AND SO=9*"


def test_plan_mode_preconditions(cuba_corpus):
    corpus = _letters_corpus({"A": 5})
    censored = CappedEngine(corpus, EngineConfig(cap=10, count_mode=CENSORED))
    with pytest.raises(GroupSpecError, match="censored engine"):
        plan_censored(censored, parse("PY=2007"), SO, cap=99)
    # a statement above the engine's cap could not be validated on it
    visible = CappedEngine(cuba_corpus, EngineConfig(cap=100))
    base = parse(CUBA_BASE)
    with pytest.raises(GroupSpecError, match="cap 400 above the engine cap 100"):
        plan_auto(visible, base, SO, cap=400)
    for cap in (100, 60):
        strategy = plan_auto(visible, base, SO, cap=cap)
        assert validate_direct(strategy, visible).direct_count == 910
    # the smallest cap is 1: below it the cap is refused, at it the base is planned
    with pytest.raises(GroupSpecError, match=r"^cap must be >= 1, got 0$"):
        plan_auto(visible, base, SO, cap=0)
    with pytest.raises(PlanInfeasibleError, match=r"single value class SO=.+ reaches the cap 1;"):
        plan_auto(visible, base, SO, cap=1)
    strategy = plan_auto(visible, parse("PY=1999"), SO, cap=1)
    assert (len(strategy.statements), strategy.cap) == (1, 1)


_GENERATED = generate(CorpusProfile(seed=33, n_records=3000, multi_title_prob=0.2))


@pytest.mark.parametrize(
    "corpus, cap",
    [
        (_deepening_corpus(), 10),  # kept residue SO=J
        (_word_boundary_corpus(), 12),  # kept residue SO=JOURNAL, hop over the space
        (_GENERATED, 60),
        (_GENERATED, 100),
    ],
    ids=["deepening", "word-boundary", "generated-cap60", "generated-cap100"],
)
@pytest.mark.parametrize("count_mode", [VISIBLE, CENSORED])
def test_greedy_planning_counts_each_statement_once(corpus, cap, count_mode):
    engine = CountingEngine(corpus, EngineConfig(cap=cap, count_mode=count_mode))
    plan_auto(engine, parse("PY=2*"), SO)
    assert engine.probes > 0
    assert engine.repeated_probes() == []


def _keyword_titles_corpus() -> Corpus:
    return Corpus(tuple(make_record(f"R{k:03d}", (f"SCIENCE AND TECH {k}",)) for k in range(60)))


def test_deepening_past_a_keyword_word_is_infeasible():
    # SO=SCIENCE AND TECH 0* would print as an AND of SO=SCIENCE and TECH 0*
    corpus = _keyword_titles_corpus()
    assert ingest(serialize(corpus)) == corpus  # such values load fine
    engine = CappedEngine(corpus, EngineConfig(cap=20))
    with pytest.raises(PlanInfeasibleError, match="SO=SCIENCE AND"):
        plan_auto(engine, parse("PY=2007"), SO)


def _titles_corpus(titles: list[str]) -> Corpus:
    return Corpus(tuple(make_record(f"R{k:03d}", (t,)) for k, t in enumerate(titles)))


_ORGANIC_ORAL = [f"ORGANIC {k}" for k in range(15)] + [f"ORAL {k}" for k in range(15)]


@pytest.mark.parametrize(
    "titles, first",
    [
        (_ORGANIC_ORAL, "PY=2007 AND (SO=ORAL 0* OR SO=ORAL 1* OR SO=ORAL 2* OR SO=ORAL 3* "
         "OR SO=ORAL 4* OR SO=ORAL 5*)"),
        ([f"SCIENCE ANDES {k}" for k in range(30)], "PY=2007 AND SO=SCIENCE ANDES 0*"),
    ],
    ids=["OR*", "SCIENCE AND*"],
)
@pytest.mark.parametrize("count_mode", [VISIBLE, CENSORED])
def test_plan_auto_deepens_a_bucket_ending_on_a_keyword_word(titles, first, count_mode):
    # SO=OR and SO=SCIENCE AND cannot be written untruncated, but no stored
    # value equals them, so the children cover the bucket and the plan goes on
    engine = CountingEngine(_titles_corpus(titles), EngineConfig(cap=12, count_mode=count_mode))
    strategy = plan_auto(engine, parse("PY=2007"), SO)
    assert print_normalized(strategy.statements[0]) == first
    assert len(strategy.statements) == 4
    assert engine.repeated_probes() == []
    assert parse_strategy_script(emit_strategy_script(strategy)).statements == strategy.statements
    assert validate_direct(strategy, engine).verdict.value == "Exact"


def test_keyword_value_that_a_deepened_bucket_must_name_is_infeasible():
    # the stored title OR is the residue of the oversized bucket SO=OR*
    engine = CappedEngine(_titles_corpus(["OR"] + _ORGANIC_ORAL), EngineConfig(cap=12))
    with pytest.raises(PlanInfeasibleError, match=r"SO=OR\*"):
        plan_auto(engine, parse("PY=2007"), SO)


def test_shallow_plan_over_keyword_titles_parses_back():
    engine = CappedEngine(_keyword_titles_corpus(), EngineConfig(cap=100))
    strategy = plan_auto(engine, parse("PY=2007"), SO)
    parsed = parse_strategy_script(emit_strategy_script(strategy))
    assert parsed.statements == strategy.statements
    assert validate_direct(strategy, engine).verdict.value == "Exact"


def test_single_title_corpus_statements_are_disjoint():
    rng = random.Random(5)
    corpus = generate(
        CorpusProfile(seed=rng.randint(0, 10**6), n_records=2000, multi_title_prob=0.0)
    )
    engine = CappedEngine(corpus, EngineConfig(cap=250))
    strategy = plan_auto(engine, parse("PY=2*"), SO)
    seen: set[str] = set()
    for stmt in strategy.statements:
        ids = evaluate(stmt, corpus)
        assert not (seen & ids)
        seen |= ids
    registry = {i: evaluate(s, corpus) for i, s in enumerate(strategy.statements, 1)}
    assert evaluate(strategy.overlap_stmt, corpus, registry) == set()


def test_planning_is_deterministic(cuba_corpus):
    base = parse(CUBA_BASE)
    first = plan_auto(CappedEngine(cuba_corpus, EngineConfig(cap=300)), base, SO)
    second = plan_auto(CappedEngine(cuba_corpus, EngineConfig(cap=300)), base, SO)
    assert first == second


def test_stray_symbol_warning():
    records = (
        make_record("R1", ("ACTA REV",), addresses=("LONDON",)),
        make_record("R2", ("ÉTUDES CELTIQUES",)),
    )
    engine = CappedEngine(Corpus(records), EngineConfig(cap=100))
    base = parse("PY=2007")
    # greedy plans bucket every stored first symbol, stray ones too
    auto = plan_auto(engine, base, SO)
    assert auto.warnings == ()
    report = validate_direct(auto, engine)
    assert report.method_b_total == report.direct_count == 2
    # the ÉTUDES record is the one that no group names
    assert plan_prescribed(engine, base, SO, parse_group_spec("A")).warnings == (
        "groups leave records of the base uncovered: 1",
    )
    # a whole-base split covers every first symbol, stray ones too
    assert plan_prescribed(engine, base, SO, parse_group_spec("/AD=LONDON")).warnings == ()


@pytest.mark.parametrize(
    "spec",
    [REFERENCE_GROUPS_CUBA, "A", "/AD=HAVANA"],
    ids=["reference", "letters", "whole-base-split"],
)
def test_prescribed_plans_read_no_term_dictionary(cuba_corpus, spec):
    engine = CappedEngine(cuba_corpus)
    with mock.patch.object(engine, "prefix_children", wraps=engine.prefix_children) as children:
        plan_prescribed(engine, parse(CUBA_BASE), SO, parse_group_spec(spec))
    assert children.call_count == 0


def test_plan_auto_refuses_the_address_field_before_probing(cuba_corpus):
    engine = CappedEngine(cuba_corpus, EngineConfig(cap=500))
    with mock.patch.object(engine, "count", wraps=engine.count) as count:
        with pytest.raises(GroupSpecError, match="AD values may be empty"):
            plan_auto(engine, parse("PY=2007"), FieldKind.AD)
    assert count.call_count == 0


# titles of a few short words, so buckets deepen, keep exact residues, cross
# word boundaries, end on the keyword OR (SO=OR*, SO=J OR*) without any
# value holding it as a whole word, and start outside A..Z, 0..9 (ÉA)
_WORDS = st.sampled_from(["J", "JA", "JO", "JOR", "ORA", "A", "1", "ÉA"])
_TITLE = st.lists(_WORDS, min_size=1, max_size=3).map(" ".join)
_RECORDS = st.lists(
    st.tuples(st.lists(_TITLE, min_size=1, max_size=2), st.sampled_from([2006, 2007])),
    min_size=4,
    max_size=20,
)


def _records_corpus(records) -> Corpus:
    return Corpus(
        tuple(make_record(f"R{i:03d}", tuple(t), year) for i, (t, year) in enumerate(records))
    )


@given(records=_RECORDS, cap=st.integers(2, 8))
def test_greedy_plans_alike_in_both_modes_and_reconcile(records, cap):
    corpus = _records_corpus(records)
    visible = CountingEngine(corpus, EngineConfig(cap=cap))
    censored = CountingEngine(corpus, EngineConfig(cap=cap, count_mode=CENSORED))
    base = parse("PY=2007")
    # a prefix partition exists exactly when every full-title class is below the cap
    classes = Counter(t for titles, year in records if year == 2007 for t in set(titles))
    if classes and max(classes.values()) >= cap:
        for engine in (visible, censored):
            with pytest.raises(PlanInfeasibleError, match="single value class"):
                plan_auto(engine, base, SO)
        return
    strategy = plan_auto(visible, base, SO)
    assert plan_auto(censored, base, SO) == strategy
    assert visible.repeated_probes() == censored.repeated_probes() == []
    assert all(visible.count(stmt).value < cap for stmt in strategy.statements)
    for engine in (visible, censored):
        report = validate_direct(strategy, engine)
        assert report.method_b_total == report.union_cardinality == report.direct_count


class _LinearPacker(planner._Packer):
    """The reference greedy packing: one probe of ``current + [item]`` per item."""

    def pack(self, items, current, current_count):
        packed = []
        for item in items:
            result = self.probe(current + [item])
            if not result.fits(self.cap) and current:
                packed.append((current, current_count))
                current = []
                result = self.probe([item])
            if result.fits(self.cap):
                current.append(item)
                current_count = result.value
            else:
                packed.extend(self.pack(*self.expand(item)))
        if current:
            packed.append((current, current_count))
        return packed


def test_auto_planning_probe_counts_on_the_usa_fixture(usa_engine):
    # the whole domain is probed once, and a bucket that did not fit is not probed
    # whole again as the run of its exact residue and its children
    probes = []
    with mock.patch.object(usa_engine, "count", wraps=usa_engine.count) as count:
        for cap in (100_000, 50_000, 20_000, 10_000):
            plan_auto(usa_engine, parse(USA_BASE), SO, cap=cap)
            probes.append(count.call_count)
            count.reset_mock()
    assert probes == [40, 62, 131, 370]


def _plan_or_refusal(engine: CappedEngine, base) -> Strategy | str:
    try:
        return plan_auto(engine, base, SO)
    except PlanInfeasibleError as exc:
        return str(exc)


@given(records=_RECORDS, cap=st.integers(2, 8), count_mode=st.sampled_from([VISIBLE, CENSORED]))
def test_galloping_packs_like_linear_packing_in_fewer_probes(records, cap, count_mode):
    corpus = _records_corpus(records)
    config = EngineConfig(cap=cap, count_mode=count_mode)
    linear, galloping = CountingEngine(corpus, config), CountingEngine(corpus, config)
    base = parse("PY=2007")
    with mock.patch.object(planner, "_Packer", _LinearPacker):
        reference = _plan_or_refusal(linear, base)
    strategy = _plan_or_refusal(galloping, base)
    assert strategy == reference
    statements = len(strategy.statements) if isinstance(strategy, Strategy) else 0
    # at most two probes per run beyond linear packing (plan_auto probes the whole domain for both)
    assert galloping.probes <= linear.probes + 2 * statements
    assert galloping.repeated_probes() == []


# letter chunks and splits over the symbols of ``_WORDS``, multi-symbol prefixes
# (JO/, JA/) and a whole-base split among them
_CHUNK = st.one_of(
    st.text(alphabet="AJO1B", min_size=1, max_size=3),
    st.builds(
        "{}/{}".format,
        st.sampled_from(["", "J", "JO", "JA", "JOR", "O", "A", "1"]),
        st.sampled_from(["AD=HAVANA", "SO=JOR*", "PY=2006"]),
    ),
)


@given(records=_RECORDS, cap=st.integers(2, 21), chunks=st.lists(_CHUNK, min_size=1, max_size=4))
def test_prescribed_warning_counts_what_method_b_misses(records, cap, chunks):
    try:
        groups = parse_group_spec(",".join(chunks))
    except GroupSpecError:
        return
    corpus = _records_corpus(records)
    visible = CappedEngine(corpus, EngineConfig(cap=cap))
    base = parse("PY=2007")
    try:
        strategy = plan_prescribed(visible, base, SO, groups)
    except PlanInfeasibleError:
        return
    report = validate_direct(strategy, visible)
    missing = report.direct_count - report.method_b_total
    expected = (f"groups leave records of the base uncovered: {missing}",) if missing else ()
    assert strategy.warnings == expected
    assert (strategy.warnings == ()) == (report.verdict is not Verdict.MISMATCH)
    censored = CappedEngine(corpus, EngineConfig(cap=len(records) + 1, count_mode=CENSORED))
    assert plan_prescribed(censored, base, SO, groups).warnings == strategy.warnings
