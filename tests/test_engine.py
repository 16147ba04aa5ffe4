from __future__ import annotations

import gc
import random
import sys
import tracemalloc
from collections import Counter
from itertools import chain

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from capsplit import (
    CENSORED,
    VISIBLE,
    CapExceededError,
    CappedEngine,
    Corpus,
    CorpusProfile,
    CountResult,
    EngineConfig,
    EngineError,
    FieldKind,
    Oracle,
    Pattern,
    SetRef,
    Term,
    build_fixture,
    build_overlap_statement,
    evaluate,
    generate,
    load_corpus,
    parse,
    print_normalized,
    save_corpus,
)
from capsplit.query import And, Diff, Or

from helpers import brute_eval, make_record
from test_query import _random_ast


@pytest.fixture(scope="module")
def corpus():
    return generate(CorpusProfile(seed=21, n_records=1500, multi_title_prob=0.2))


@pytest.fixture()
def engine(corpus):
    return CappedEngine(corpus)


# -- counting ---------------------------------------------------------------


# statements #1..#9 registered before the random trees run; some refer back
_STATEMENTS = (
    "PY=2*",
    "PY=2007",
    "SO=A* OR SO=B* OR SO=C*",
    "#1 NOT #2",
    "CU=USA",
    "#3 AND #4",
    "SO=J* OR AD=X*",
    "#5 OR #6",
    "PY=2009 NOT #3",
)


def test_visible_count_matches_oracles(corpus):
    # 0..9 records put the highest position on and around a byte boundary
    corpora = [
        generate(CorpusProfile(seed=21, n_records=n, multi_title_prob=0.2))
        for n in (0, 1, 7, 8, 9)
    ]
    rng = random.Random(99)
    for data in (*corpora, corpus):
        engine = CappedEngine(data)
        registry: dict[int, set[str]] = {}
        for number, text in enumerate(_STATEMENTS, start=1):
            query = parse(text)
            registry[number] = brute_eval(data, query, registry)
            assert engine.register(query) == CountResult.exact(len(registry[number]))
        for _ in range(200):
            ast = _random_ast(rng, rng.randint(0, 3))
            expected = brute_eval(data, ast, registry)
            assert engine.count(ast) == CountResult.exact(len(expected))
            assert engine.retrieve(ast) == expected  # every result is below the default cap
            assert evaluate(ast, data, registry) == expected


def test_empty_corpus_counts_zero():
    engine = CappedEngine(Corpus(()))
    assert engine.count(parse("PY=2007 AND CU=USA")) == CountResult.exact(0)


def test_censored_count_never_reveals_cap_or_more(corpus):
    engine = CappedEngine(corpus, EngineConfig(cap=100, count_mode=CENSORED))
    for text in ("PY=2*", "SO=J*", "CU=USA", "SO=A* OR SO=B* OR SO=C*", "PY=1900"):
        result = engine.count(parse(text))
        true_n = len(brute_eval(corpus, parse(text)))
        if true_n >= 100:
            assert result == CountResult.at_least_cap()
        else:
            assert result == CountResult.exact(true_n)


def test_count_result_expect_exact():
    assert CountResult.exact(7).expect_exact() == 7
    assert CountResult.exact(0).is_exact
    assert not CountResult.at_least_cap().is_exact
    with pytest.raises(EngineError, match="censored"):
        CountResult.at_least_cap().expect_exact()
    # the one cap rule: exact and strictly below the cap
    assert CountResult.exact(99).fits(100)
    assert not CountResult.exact(100).fits(100)
    assert not CountResult.at_least_cap().fits(100)
    assert str(CountResult.exact(99)) == "99"
    assert str(CountResult.at_least_cap()) == "at least the cap"


def test_the_default_cap_is_the_papers():
    assert EngineConfig().cap == 100_000


def test_engine_config_validation():
    with pytest.raises(EngineError, match="cap"):
        EngineConfig(cap=0)
    with pytest.raises(EngineError, match="count_mode"):
        EngineConfig(count_mode="fuzzy")


# -- retrieval --------------------------------------------------------------


def test_retrieve_succeeds_iff_strictly_below_cap():
    records = tuple(make_record(f"R{i}", ("A REV",)) for i in range(7))
    corpus = Corpus(records)
    query = parse("SO=A*")
    assert len(CappedEngine(corpus, EngineConfig(cap=8)).retrieve(query)) == 7
    with pytest.raises(CapExceededError):
        CappedEngine(corpus, EngineConfig(cap=7)).retrieve(query)  # exactly cap
    with pytest.raises(CapExceededError):
        CappedEngine(corpus, EngineConfig(cap=5)).retrieve(query)


def test_retrieve_returns_matching_ids(corpus, engine):
    query = parse("PY=2007 AND SO=J*")
    assert engine.retrieve(query) == brute_eval(corpus, query)


@given(
    marks=st.lists(st.booleans(), max_size=60),
    edges=st.sets(st.sampled_from([0, 7, 8, -1])),
    mode=st.sampled_from([VISIBLE, CENSORED]),
)
def test_retrieve_maps_each_set_bit_to_its_id(marks, edges, mode):
    # byte boundaries (positions 0, 7, 8) and the last record, N-1, are marked on demand
    n = len(marks)
    marked = {p for p, mark in enumerate(marks) if mark} | {e % n for e in edges if -n <= e < n}
    corpus = Corpus(tuple(
        make_record(f"R{p:02d}", ("A REV" if p in marked else "B REV",)) for p in range(n)
    ))
    engine = CappedEngine(corpus, EngineConfig(cap=n + 1, count_mode=mode))
    query = parse("SO=A*")
    hits = engine._eval(query)
    ids = corpus.ids
    assert engine.retrieve(query) == {ids[p] for p in range(n) if hits >> p & 1}
    assert engine.retrieve(query) == {f"R{p:02d}" for p in marked}


def test_cap_exceeded_error_payload(corpus):
    query = parse("PY=2*")
    visible = CappedEngine(corpus, EngineConfig(cap=10))
    with pytest.raises(CapExceededError) as err:
        visible.retrieve(query)
    assert err.value.count == CountResult.exact(1500)
    censored = CappedEngine(corpus, EngineConfig(cap=10, count_mode=CENSORED))
    with pytest.raises(CapExceededError) as err:
        censored.retrieve(query)
    assert err.value.count == CountResult.at_least_cap()  # no exact leak


# -- coverage ---------------------------------------------------------------


# section trees over terms that hit generated corpora, and a few that never do
_SECTION_TREES = st.recursive(
    st.sampled_from(
        ["PY=2005", "PY=2007", "PY=200*", "CU=USA", "CU=CUBA", "SO=A*", "SO=J*", "SO=Q*",
         "AD=UNIV", "AD=MA", "AD=X*", "PY=1999", "PY=1*", "PY=7*", "CU=C1*", "CU=C42"]
    ).map(parse),
    lambda sub: st.one_of(st.builds(kind, sub, sub) for kind in (And, Or, Diff)),
    max_leaves=5,
)

# profiles whose PY or CU column has more than 256 distinct values once a
# corpus holds a few hundred records, so its leaves are built from positions
_WIDE = {
    None: {},
    "PY": {"year_range": (0, 10**6)},
    "CU": {"country_weights": {f"C{k}": 1.0 for k in range(2000)}},
}


@given(
    seed=st.integers(0, 10_000),
    n_records=st.integers(0, 60),
    wide=st.sampled_from(list(_WIDE)),
    sections=st.lists(_SECTION_TREES, max_size=6),
    cap=st.integers(1, 80),
    count_mode=st.sampled_from([VISIBLE, CENSORED]),
)
def test_coverage_is_the_at_least_k_histogram_of_the_sections(
    seed, n_records, wide, sections, cap, count_mode
):
    if wide:
        n_records += 400
    data = generate(CorpusProfile(seed=seed, n_records=n_records, multi_title_prob=0.3,
                                  **_WIDE[wide]))
    if wide:
        column = data.years if wide == "PY" else data.countries
        assert len(column.values) > 256
    uncapped = CappedEngine(data, EngineConfig(cap=n_records + 1))
    materialized = [uncapped.retrieve(s) for s in sections]
    engine = CappedEngine(data, EngineConfig(cap=cap, count_mode=count_mode))
    refused = [ids for ids in materialized if len(ids) >= cap]
    if refused:
        with pytest.raises(CapExceededError) as err:
            engine.coverage(sections)
        # the first section at or above the cap is refused, its size censored as counts are
        hidden = count_mode == CENSORED
        assert err.value.count == CountResult(None if hidden else len(refused[0]))
        return
    multiplicity = Counter(chain.from_iterable(materialized))
    top = max(multiplicity.values(), default=0)
    expected = [sum(m >= k for m in multiplicity.values()) for k in range(1, top + 1)]
    assert engine.coverage(sections) == expected
    for section in sections:
        engine.register(section)
    assert engine.coverage(SetRef(i) for i in range(1, len(sections) + 1)) == expected


# -- registry ---------------------------------------------------------------


def test_register_then_count_by_reference(engine):
    query = parse("SO=A* OR SO=B*")
    count = engine.register(query)
    assert engine.count(parse("#1")) == count


def test_register_forward_reference_rejected(engine):
    engine.register(parse("SO=A*"))
    # the statement being registered is #2, so #2 and #3 are not bound yet
    with pytest.raises(EngineError, match="unbound set reference #2"):
        engine.register(parse("#2 AND SO=B*"))
    with pytest.raises(EngineError, match="unbound set reference #3"):
        engine.register(parse("#3"))
    # a rejected statement takes no number
    assert engine.register(parse("#1 AND SO=B*")) == engine.count(parse("#2"))


def test_register_unbound_reference_rejected(engine):
    with pytest.raises(EngineError, match="unbound set reference #1"):
        engine.count(parse("#1"))
    engine.register(parse("SO=A*"))
    with pytest.raises(EngineError, match="unbound set reference #2"):
        engine.count(parse("#1 OR #2"))


def test_register_stores_sets_at_or_above_cap(corpus):
    engine = CappedEngine(corpus, EngineConfig(cap=10))
    count = engine.register(parse("PY=2*"))
    assert count == CountResult.exact(1500)  # visible counts stay exact
    assert engine.count(SetRef(1)) == CountResult.exact(1500)
    with pytest.raises(CapExceededError):
        engine.retrieve(SetRef(1))  # materialization is still capped


def test_cleared_session_numbers_new_statements_from_one(engine):
    engine.register(parse("SO=A*"))
    first = engine.count(parse("#1 AND PY=2*"))
    engine.clear_statements()
    engine.register(parse("SO=A* OR SO=B*"))
    second = engine.count(parse("#1 AND PY=2*"))
    assert second == engine.count(parse("(SO=A* OR SO=B*) AND PY=2*"))
    assert first != second or engine.count(parse("SO=B*")).value == 0


def test_overlap_statement_over_64_sections(corpus, engine):
    # 2,016 pairs: a chain deeper than the default recursion limit of 1,000
    overlap = build_overlap_statement(64)
    assert parse(print_normalized(overlap)) == overlap
    assert overlap != build_overlap_statement(63)
    letters = sorted(engine.prefix_children(FieldKind.SO, ""))
    registry: dict[int, set[str]] = {}
    for k in range(64):
        a, b = letters[k % len(letters)], letters[(7 * k + 3) % len(letters)]
        query = parse(f"SO={a}* OR SO={b}*")
        engine.register(query)
        registry[k + 1] = evaluate(query, corpus)
    expected = evaluate(overlap, corpus, registry)
    assert expected  # the sections do overlap
    assert engine.count(overlap) == CountResult.exact(len(expected))


def test_count_of_a_query_nested_past_the_recursion_limit(corpus, engine):
    # SO=A* NOT (SO=B* OR (SO=C* AND (SO=D* NOT (...)))), read back from its text
    letters = sorted(engine.prefix_children(FieldKind.SO, ""))
    ops = (Diff, Or, And)
    query = Term(FieldKind.SO, Pattern(letters[0], True))
    for k in reversed(range(5 * sys.getrecursionlimit())):
        query = ops[k % 3](Term(FieldKind.SO, Pattern(letters[k % len(letters)], True)), query)
    query = parse(print_normalized(query))
    expected = Oracle(corpus).evaluate(query)
    assert expected
    assert engine.count(query) == CountResult.exact(len(expected))


# -- prefix introspection ----------------------------------------------------


def test_prefix_children_basic():
    corpus = Corpus(
        (
            make_record("R1", ("JAMA",)),
            make_record("R2", ("JBC",)),
            make_record("R3", ("J",)),  # exact value contributes no child
        )
    )
    engine = CappedEngine(corpus)
    assert engine.prefix_children(FieldKind.SO, "J") == {"A", "B"}
    assert engine.prefix_children(FieldKind.SO, "") == {"J"}
    assert engine.prefix_children(FieldKind.SO, "Q") == set()


def test_prefix_children_tokenized_fields():
    corpus = Corpus(
        (make_record("R1", ("A REV",), countries=("NORTH IRELAND",),
                     addresses=("UCL LONDON",)),)
    )
    engine = CappedEngine(corpus)
    assert engine.prefix_children(FieldKind.CU, "NORTH") == {" "}
    assert engine.prefix_children(FieldKind.AD, "L") == {"O"}


def test_prefix_children_prefix_is_a_raw_position():
    corpus = Corpus((make_record("R1", ("JOURNAL OF X",)), make_record("R2", ("JOURNAL",))))
    engine = CappedEngine(corpus)
    assert engine.prefix_children(FieldKind.SO, "JOURNAL") == {" "}
    # a trailing space is a legitimate position and must not be collapsed
    assert engine.prefix_children(FieldKind.SO, "JOURNAL ") == {"O"}
    assert engine.prefix_children(FieldKind.SO, "journal ") == {"O"}


def test_prefix_children_reads_py_years():
    # PY's terms are the year's digits, as for any other field
    corpus = Corpus((make_record("R1", ("A",), year=2005), make_record("R2", ("A",), year=2007)))
    assert CappedEngine(corpus).prefix_children(FieldKind.PY, "200") == {"5", "7"}


# words of a few symbols, past "Z" and up to the last code point, joined by spaces
_WORD = st.text(st.sampled_from(["J", "O", "A", "É", "1", "\U0010ffff"]), min_size=1, max_size=3)
_VALUE = st.lists(_WORD, min_size=1, max_size=3).map(" ".join)


@given(
    titles=st.lists(_VALUE, min_size=1, max_size=12),
    pick=st.tuples(st.integers(0, 11), st.integers(0, 12)),  # a title, a cut into it
)
@example(titles=["JO", "JO A", "JO É", "JOB"], pick=(0, 2))  # a term equals the prefix
@example(titles=["JO", "JO A", "JO É", "JOB"], pick=(1, 3))  # the prefix ends on a space
@example(titles=["JO A", "JO AB", "JO", "JOA"], pick=(0, 4))  # past a word boundary
@example(titles=["J\U0010ffff", "J\U0010ffffA", "JA"], pick=(2, 1))  # the last code point
@example(titles=["J\U0010ffff", "J\U0010ffffA", "JA"], pick=(0, 2))  # ending on it
def test_prefix_children_equals_a_scan_of_every_value(titles, pick):
    corpus = Corpus(tuple(make_record(f"R{i:02d}", (t,)) for i, t in enumerate(titles)))
    title = titles[pick[0] % len(titles)]
    prefix = title[: pick[1] % (len(title) + 1)]
    scan = {
        t[len(prefix)]
        for rec in corpus
        for t in rec.source_titles
        if t.startswith(prefix) and len(t) > len(prefix)
    }
    engine = CappedEngine(corpus)
    assert engine.prefix_children(FieldKind.SO, prefix) == scan
    assert engine.prefix_children(FieldKind.SO, "") == {t[0] for t in titles}
    # the leaves of the same span: every title under the prefix, and the prefix itself
    if prefix and Pattern(prefix, True).text == prefix:
        for truncated, matches in ((True, str.startswith), (False, str.__eq__)):
            leaf = Term(FieldKind.SO, Pattern(prefix, truncated))
            assert engine.retrieve(leaf) == {
                rec.id for rec in corpus if any(matches(t, prefix) for t in rec.source_titles)
            }


@pytest.mark.parametrize("n", [0, 1, 8, 9, 16, 17, 300])
def test_leaf_bitset_has_one_bit_per_posting(n):
    # positions at byte boundaries: the first and last bit of a byte, the
    # first of the next, and the corpus's last record
    marked = {p for p in (0, 7, 8, n - 1) if 0 <= p < n}
    titles = ["A REV" if p in marked else "B REV" for p in range(n)]
    corpus = Corpus(tuple(make_record(f"R{p:03d}", (t,)) for p, t in enumerate(titles)))
    engine = CappedEngine(corpus)
    for text, postings in (("A", marked), ("B", set(range(n)) - marked)):
        bits = engine._leaf(Term(FieldKind.SO, Pattern(text, truncated=True)))
        assert bits == sum(1 << p for p in postings)
    assert engine._leaf(Term(FieldKind.SO, Pattern("A REV"))) == sum(1 << p for p in marked)
    assert engine._leaf(Term(FieldKind.SO, Pattern("Q", truncated=True))) == 0


def _values_corpus(n_values: int, field: str, n_records: int) -> Corpus:
    """Records whose PY, CU or SO column cycles through ``n_values`` distinct values.

    A record's countries are ``C{v}`` and ``C{v+1}``, so its country set is
    one of ``n_values`` sets. Its SO titles are ``JA{v} REV`` and
    ``JB{v} REV``, so ``SO=J*`` finds each SO value through two terms.
    """
    def record(p: int):
        v = p % n_values
        if field == "PY":
            return make_record(f"R{p}", (f"T{p % 7} REV",), year=1000 + v,
                               addresses=(f"UNIV {v % 5}",))
        if field == "SO":
            return make_record(f"R{p}", (f"JA{v} REV", f"JB{v} REV"))
        return make_record(f"R{p}", (f"T{p % 7} REV",), countries=(f"C{v}", f"C{v + 1}"))
    return Corpus(tuple(map(record, range(n_records))))


def _stored_strings(corpus: Corpus) -> dict[FieldKind, set[str]]:
    """Every string a record can be found through, by field, read off the records."""
    strings: dict[FieldKind, set[str]] = {field: set() for field in FieldKind}
    for rec in corpus:
        strings[FieldKind.PY].add(str(rec.pub_year))
        strings[FieldKind.CU].update(rec.countries)
        strings[FieldKind.SO].update(rec.source_titles)
        strings[FieldKind.AD].update(tok for addr in rec.addresses for tok in addr.split())
    return strings


@pytest.mark.parametrize(
    "field, n_values, n_records",
    [
        ("PY", 256, 600), ("PY", 257, 600), ("CU", 256, 600), ("CU", 257, 600),
        ("SO", 256, 600), ("SO", 257, 600),  # a value in a span twice, counted once
        ("PY", 3, 0),
        ("PY", 3, 4400), ("CU", 300, 4400),  # leaves of more bits than int() reads in base 10
    ],
)
def test_leaves_agree_with_the_oracle_on_both_sides_of_the_bytes_rule(field, n_values, n_records):
    corpus = _values_corpus(n_values, field, n_records)
    engine, oracle = CappedEngine(corpus), Oracle(corpus)
    column = {"PY": corpus.years, "CU": corpus.countries, "SO": corpus.source_titles}[field]
    assert len(column.values) == min(n_values, n_records)
    narrow = engine._index[FieldKind[field]]._reversed_codes is not None
    assert narrow == (len(column.values) <= 256)
    records = tuple(corpus)  # built once for the brute force
    for kind, strings in _stored_strings(corpus).items():
        terms = {Term(kind, Pattern(text)) for text in strings}
        terms |= {Term(kind, Pattern(text[0], truncated=True)) for text in strings}
        for term in terms:
            expected = oracle.evaluate(term)
            assert engine.count(term) == CountResult.exact(len(expected)), term
            hits = engine.retrieve(term)
            assert hits == expected, term
            # the engine and the oracle both read query.field_strings; the brute
            # force reads each record's fields, so it checks that one definition
            assert hits == brute_eval(records, term), term
    for text in ("PY=1000", "CU=C0", "SO=T*", "SO=J*", "AD=UNIV", "PY=2*"):
        query = parse(text)
        assert engine.retrieve(query) == oracle.evaluate(query), text
    if field == "SO":  # every record is found through both its titles, and counted once
        assert engine.count(parse("SO=J*")) == CountResult.exact(n_records)


# -- memory -------------------------------------------------------------------


def test_a_corpus_and_its_index_keep_no_python_object_per_record():
    # ids, per-record codes, SO positions and each field's term codes are flat
    # buffers: a few bytes per record, where one object or pointer per record
    # costs 8 to 60. In a generated corpus nearly every record's titles are a
    # value and a term of their own, so there the index keeps one term per record.
    generated = generate(CorpusProfile(seed=1, n_records=50_000))
    tracing = tracemalloc.is_tracing()
    gc.collect()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        corpus = build_fixture("uk_s1")
        gc.collect()
        built = tracemalloc.get_traced_memory()[0]
        engine = CappedEngine(corpus)
        gc.collect()
        indexed = tracemalloc.get_traced_memory()[0]
        generated_engine = CappedEngine(generated)
        gc.collect()
        generated_indexed = tracemalloc.get_traced_memory()[0]
    finally:
        if not tracing:
            tracemalloc.stop()
    n = len(corpus)
    assert n == 131_845
    assert (built - before) / n <= 40, "bytes per record held by the corpus"
    assert (indexed - built) / n <= 11, "bytes per record added by the engine's index"
    assert (generated_indexed - indexed) / len(generated) <= 40, \
        "bytes per generated record added by the engine's index"
    assert engine.count(parse("SO=A*")).value > 0
    assert generated_engine.count(parse("SO=A*")).value > 0


def test_building_the_index_holds_no_array_per_term():
    # nearly every generated record's titles are a term of their own; the build
    # holds one int per term while it counts and places each term's codes (about
    # 95 bytes per record here), where an array per term peaked at about 300
    generated = generate(CorpusProfile(seed=1, n_records=50_000))
    tracing = tracemalloc.is_tracing()
    gc.collect()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        engine = CappedEngine(generated)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert (peak - before) / len(generated) <= 120, "traced peak bytes per record of the index build"
    assert engine.count(parse("SO=A*")).value > 0


def test_building_a_leaf_holds_one_bit_per_record(uk_corpus):
    # a leaf of the SO field, whose codes outnumber a byte, sets bits in a
    # buffer of one bit per record, then reads it as one int: about 0.43 traced
    # peak bytes per record, where a buffer of a byte per record would hold 8
    engine = CappedEngine(uk_corpus)
    tracing = tracemalloc.is_tracing()
    gc.collect()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        bits = engine._leaf(Term(FieldKind.SO, Pattern("A", truncated=True)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert uk_corpus.source_titles.codes.typecode == "I"
    assert bits != 0
    assert (peak - before) / len(uk_corpus) < 1, "traced peak bytes per record of one leaf"


def test_loading_a_corpus_file_holds_no_python_object_per_record(uk_corpus, tmp_path):
    # the peak of a load is its flat columns, a batch of lines and the texts
    # of each distinct value; the fixture's ids ascend, so the duplicate check
    # holds no id of its own
    path = str(tmp_path / "uk_s1.tsv")
    save_corpus(uk_corpus, path)
    tracing = tracemalloc.is_tracing()
    gc.collect()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        corpus = load_corpus(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert corpus == uk_corpus
    assert (peak - before) / len(corpus) <= 100, "traced peak bytes per record of the load"


# -- shared-result hygiene ----------------------------------------------------


def test_evaluation_results_are_stable_across_reuse(corpus, engine):
    # repeated mixed use must not corrupt shared postings or cached leaves
    q1, q2 = parse("SO=A*"), parse("SO=A* AND PY=2007")
    a1 = engine.count(q1)
    engine.count(Diff(q1, q2))
    engine.count(Or(q1, q2))
    engine.count(And(q1, q2))
    assert engine.count(q1) == a1
    assert engine.retrieve(q2) == brute_eval(corpus, q2)
