from __future__ import annotations

import hashlib
import random
import sys
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from capsplit import (
    And,
    Corpus,
    CorpusProfile,
    Diff,
    FieldKind,
    Or,
    Oracle,
    Pattern,
    QueryError,
    SetRef,
    Term,
    build_overlap_statement,
    evaluate,
    generate,
    parse,
    print_normalized,
)
from capsplit.query import _scan_term, field_strings

from helpers import brute_eval, make_record

PY, CU, SO, AD = FieldKind.PY, FieldKind.CU, FieldKind.SO, FieldKind.AD


# -- parsing ----------------------------------------------------------------


def test_parse_letter_group_statement():
    got = parse("PY=2007 AND CU=USA AND (SO=A* OR SO=B*)")
    expected = And(
        And(Term(PY, Pattern("2007")), Term(CU, Pattern("USA"))),
        Or(Term(SO, Pattern("A", True)), Term(SO, Pattern("B", True))),
    )
    assert got == expected


def test_parse_single_term():
    assert parse("CU=X") == Term(CU, Pattern("X"))


def test_parse_not_has_and_precedence_left_assoc():
    got = parse("PY=2007 AND CU=USA AND SO=J* NOT AD=CA")
    expected = Diff(
        And(
            And(Term(PY, Pattern("2007")), Term(CU, Pattern("USA"))),
            Term(SO, Pattern("J", True)),
        ),
        Term(AD, Pattern("CA")),
    )
    assert got == expected


def test_parse_value_group_desugars_to_or():
    got = parse("CU=(England OR Scotland OR Wales OR North Ireland)")
    expected = Or(
        Or(
            Or(Term(CU, Pattern("ENGLAND")), Term(CU, Pattern("SCOTLAND"))),
            Term(CU, Pattern("WALES")),
        ),
        Term(CU, Pattern("NORTH IRELAND")),
    )
    assert got == expected


def test_parse_case_insensitive():
    assert parse("py=2007 and cu=usa") == parse("PY=2007 AND CU=USA")
    assert parse("so=a* or so=b*") == parse("SO=A* OR SO=B*")


def test_parse_set_references():
    assert parse("(#1 AND #2) OR (#1 AND #3)") == Or(
        And(SetRef(1), SetRef(2)), And(SetRef(1), SetRef(3))
    )
    assert parse("#1 NOT #8") == Diff(SetRef(1), SetRef(8))


def test_parse_multi_word_bare_value():
    assert parse("CU=NORTH IRELAND AND PY=2007") == And(
        Term(CU, Pattern("NORTH IRELAND")), Term(PY, Pattern("2007"))
    )


@pytest.mark.parametrize(
    "text,fragment,offset",
    [
        ("PY=2007 AND XX=5", "unknown field 'XX'", 12),
        ("SO=", "empty value", 3),
        ("SO=*", "lone '*'", 3),
        ("SO=A*B", "trailing truncation marker", 3),
        ("(CU=X", "unbalanced parentheses", 5),
        ("CU=X)", "unexpected trailing input", 4),
        ("CU=X AND", "unexpected end of query", 8),
        ("#0", "must be positive", 0),
        ("#", "statement number after '#'", 0),
        # statement numbers are ASCII digits only, though str.isdigit takes these
        ("#²", "statement number after '#'", 0),
        ("#١", "statement number after '#'", 0),
        ("#1²", "unexpected trailing input '²'", 2),
        pytest.param("#" + "1" * 5000, "statement number after '#'", 0, id="5000-digits"),
        ("SO=(A* AND B*)", "expected ')' or OR", 7),
        ("AND CU=X", "unexpected 'AND'", 0),
        # which error a text with several faults reports, and where
        ("(CU=X #1)", "unbalanced parentheses", 6),
        ("#1 FOO", "unexpected trailing input 'FOO'", 3),
        ("XX FOO", "expected '=' after field name 'XX'", 0),
        ("SO=(A OR )", "empty value", 9),
        ("CU=X OR #0", "must be positive", 8),
        ("(#1 AND #²)", "statement number after '#'", 8),  # the scan runs first
        ("((SO=A*)", "unbalanced parentheses", 8),
        ("SO=A*))", "unexpected trailing input ')'", 5),
        ("SO=(A* OR B*", "unbalanced parentheses in value group", 12),
        ("#1 = #2", "unexpected trailing input '='", 3),
        ("(#1 AND #2) OR (", "unexpected end of query", 16),
    ],
)
def test_parse_errors_carry_offsets(text, fragment, offset):
    with pytest.raises(QueryError) as err:
        parse(text)
    assert fragment in str(err.value)
    assert err.value.position == offset


_SOUP_TOKENS = st.sampled_from([
    "(", ")", "=", "#", "#0", "#1", "#12", "#²", "#1²", "AND", "and", "OR", "or", "Not",
    "PY", "py", "CU", "SO", "AD", "XX", "A", "B*", "*", "A*B", "2007", "NORTH", "ß", "AND*",
    "SO=A*", "CU=USA",
])


@given(st.lists(st.tuples(_SOUP_TOKENS, st.sampled_from(["", " ", "  ", "\t"])), max_size=16))
def test_parse_returns_a_tree_or_a_located_error_on_any_token_soup(pieces):
    text = "".join(token + gap for token, gap in pieces)
    try:
        query = parse(text)
    except QueryError as exc:
        assert exc.position is not None and 0 <= exc.position <= len(text)
    else:
        assert parse(print_normalized(query)) == query


_DEEP = 5 * sys.getrecursionlimit()


def _right_nested(op, depth: int):
    """``C0 op (C1 op (... op SO=A))``: ``depth`` operators, each the right operand of the last."""
    node = Term(SO, Pattern("A"))
    for k in reversed(range(depth)):
        node = op(Term(CU, Pattern(f"C{k}")), node)
    return node


@pytest.mark.parametrize("op", [Or, And, Diff])
def test_right_nested_chain_round_trips_past_the_recursion_limit(op):
    query = _right_nested(op, _DEEP)
    text = print_normalized(query)
    assert text.count("(") == _DEEP - 1
    assert parse(text) == query


def test_term_inside_parentheses_past_the_recursion_limit():
    assert parse("(" * _DEEP + "CU=X" + ")" * _DEEP) == Term(CU, Pattern("X"))


def test_pattern_rejects_internal_star_and_reserved_chars():
    with pytest.raises(QueryError):
        Pattern("A*B")
    with pytest.raises(QueryError):
        Pattern("")
    with pytest.raises(QueryError):
        Pattern("A#B")
    with pytest.raises(QueryError):
        SetRef(0)


@pytest.mark.parametrize(
    "text, truncated",
    [("SCIENCE AND TECH", False), ("SCIENCE AND TECH", True), ("SCIENCE AND", False),
     ("OR", False), ("not a", True), ("A NOT B", False)],
)
def test_pattern_rejects_keyword_words(text, truncated):
    with pytest.raises(QueryError, match="keyword"):
        Pattern(text, truncated)


@pytest.mark.parametrize(
    "text, truncated",
    [("SCIENCE AND", True), ("OR", True), ("ANDES", False), ("ORAL NOTES", False),
     ("SCIENCE ANDTECH", False)],
)
def test_keyword_free_patterns_print_and_parse_back(text, truncated):
    # a truncated last word prints as AND* and reads back as a value word
    term = Term(FieldKind.SO, Pattern(text, truncated))
    assert parse(print_normalized(term)) == term


# -- printing ---------------------------------------------------------------


def test_print_normalizes_case():
    assert print_normalized(parse("cu=cuba")) == "CU=CUBA"


def test_print_statement_shapes():
    text = "PY=2007 AND CU=USA AND (SO=A* OR SO=B*)"
    assert print_normalized(parse(text)) == text
    text = "PY=2007 AND CU=USA AND SO=J* NOT AD=CA"
    assert print_normalized(parse(text)) == text


def test_print_overlap_statement_has_21_parenthesized_pairs():
    text = print_normalized(build_overlap_statement(7))
    assert text.count("(#") == 21
    assert text.startswith("(#1 AND #2) OR (#1 AND #3)")
    assert text.endswith("(#6 AND #7)")


@pytest.mark.parametrize(
    "n, digest",
    [(64, "6f07951ab7e697581668f3a8a918b553b4ee29bbcd50c88eeb0f30afb884ac22"),
     (200, "2726abd95ca718c83677ee71cb712422479a3a7f76cdad9847a8337079d99e37")],
)
def test_print_overlap_statement_bytes_are_pinned(n, digest):
    text = print_normalized(build_overlap_statement(n))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_print_overlap_statement_of_600_sections_is_fast():
    # 179,700 pairs in one left-deep OR chain; string concatenation took minutes
    query = build_overlap_statement(600)
    started = time.perf_counter()
    text = print_normalized(query)
    assert time.perf_counter() - started < 10.0
    assert text.count("(#") == 179_700
    assert text.endswith("(#599 AND #600)")


# A parenthesizes an operator operand iff it is the right operand or
# exactly one of it and its parent is an OR. The operand is CU=X <op> SO=A*
# (or SO=A* alone); its sibling is PY=1.
_OPERANDS = {
    "Term": Term(SO, Pattern("A", truncated=True)),
    "And": And(Term(CU, Pattern("X")), Term(SO, Pattern("A", truncated=True))),
    "Or": Or(Term(CU, Pattern("X")), Term(SO, Pattern("A", truncated=True))),
    "Diff": Diff(Term(CU, Pattern("X")), Term(SO, Pattern("A", truncated=True))),
}
_PARENTHESIZATION = [
    (And, "left", "Term", "SO=A* AND PY=1"),
    (And, "left", "And", "CU=X AND SO=A* AND PY=1"),
    (And, "left", "Or", "(CU=X OR SO=A*) AND PY=1"),
    (And, "left", "Diff", "CU=X NOT SO=A* AND PY=1"),
    (And, "right", "Term", "PY=1 AND SO=A*"),
    (And, "right", "And", "PY=1 AND (CU=X AND SO=A*)"),
    (And, "right", "Or", "PY=1 AND (CU=X OR SO=A*)"),
    (And, "right", "Diff", "PY=1 AND (CU=X NOT SO=A*)"),
    (Or, "left", "Term", "SO=A* OR PY=1"),
    (Or, "left", "And", "(CU=X AND SO=A*) OR PY=1"),
    (Or, "left", "Or", "CU=X OR SO=A* OR PY=1"),
    (Or, "left", "Diff", "(CU=X NOT SO=A*) OR PY=1"),
    (Or, "right", "Term", "PY=1 OR SO=A*"),
    (Or, "right", "And", "PY=1 OR (CU=X AND SO=A*)"),
    (Or, "right", "Or", "PY=1 OR (CU=X OR SO=A*)"),
    (Or, "right", "Diff", "PY=1 OR (CU=X NOT SO=A*)"),
    (Diff, "left", "Term", "SO=A* NOT PY=1"),
    (Diff, "left", "And", "CU=X AND SO=A* NOT PY=1"),
    (Diff, "left", "Or", "(CU=X OR SO=A*) NOT PY=1"),
    (Diff, "left", "Diff", "CU=X NOT SO=A* NOT PY=1"),
    (Diff, "right", "Term", "PY=1 NOT SO=A*"),
    (Diff, "right", "And", "PY=1 NOT (CU=X AND SO=A*)"),
    (Diff, "right", "Or", "PY=1 NOT (CU=X OR SO=A*)"),
    (Diff, "right", "Diff", "PY=1 NOT (CU=X NOT SO=A*)"),
]


@pytest.mark.parametrize(
    "parent, side, operand, text",
    _PARENTHESIZATION,
    ids=[f"{parent.__name__}-{side}-{operand}" for parent, side, operand, _ in _PARENTHESIZATION],
)
def test_print_parenthesizes_operator_operands(parent, side, operand, text):
    sibling = Term(PY, Pattern("1"))
    pair = (_OPERANDS[operand], sibling) if side == "left" else (sibling, _OPERANDS[operand])
    query = parent(*pair)
    assert print_normalized(query) == text
    assert parse(text) == query


def _random_pattern(rng: random.Random) -> Pattern:
    words = [
        "".join(rng.choice("ABCXYZ019") for _ in range(rng.randint(1, 4)))
        for _ in range(rng.randint(1, 2))
    ]
    return Pattern(" ".join(words), truncated=rng.random() < 0.4)


def _random_ast(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.15:
            return SetRef(rng.randint(1, 9))
        return Term(rng.choice(list(FieldKind)), _random_pattern(rng))
    kind = rng.choice((And, Or, Diff))
    return kind(_random_ast(rng, depth - 1), _random_ast(rng, depth - 1))


def test_print_parse_round_trip_on_random_asts():
    rng = random.Random(20090555)
    for _ in range(1000):
        ast = _random_ast(rng, rng.randint(0, 4))
        text = print_normalized(ast)
        reparsed = parse(text)
        assert reparsed == ast
        assert print_normalized(reparsed) == text  # idempotent


def test_equality_depends_on_shape_not_only_on_leaves():
    a, b, c = (Term(SO, Pattern(t)) for t in "ABC")
    unequal = [
        (Or(Or(a, b), c), Or(a, Or(b, c))),
        (And(a, b), Diff(a, b)),
        (Or(a, b), Or(Or(a, b), c)),
        (And(Or(a, b), c), And(Or(a, b), And(c, c))),
        (Or(a, b), Or(a, SetRef(1))),
        (build_overlap_statement(64), build_overlap_statement(63)),
    ]
    for left, right in unequal:
        assert left != right and right != left
    assert Term(SO, Pattern("1")) != SetRef(1)
    assert Or(Or(a, b), c) == Or(Or(Term(SO, Pattern("A")), b), c)
    assert build_overlap_statement(64) == build_overlap_statement(64)


# -- evaluation -------------------------------------------------------------


def _toy_corpus() -> Corpus:
    return Corpus(
        (
            make_record("R1", ("APPLIED PHYSICS", "CHEM SERIES"), 2007, ("USA",),
                        ("STANFORD UNIV STANFORD CA",)),
            make_record("R2", ("ANNALS OF MATH",), 2007, ("USA",), ("CHICAGO IL",)),
            make_record("R3", ("JOURNAL OF BIOLOGY",), 2006, ("CUBA", "USA"),
                        ("CNIC HAVANA", "MIT CAMBRIDGE MA")),
            make_record("R4", ("BIO LETTERS",), 2007, ("NORTH IRELAND",), ()),
        )
    )


def test_evaluate_field_semantics():
    corpus = _toy_corpus()
    assert evaluate(parse("PY=2007"), corpus) == {"R1", "R2", "R4"}
    assert evaluate(parse("CU=USA"), corpus) == {"R1", "R2", "R3"}
    assert evaluate(parse("CU=NORTH IRELAND"), corpus) == {"R4"}
    assert evaluate(parse("SO=A*"), corpus) == {"R1", "R2"}
    assert evaluate(parse("AD=CA"), corpus) == {"R1"}  # token match, not CHICAGO
    assert evaluate(parse("AD=HAVANA"), corpus) == {"R3"}
    assert evaluate(parse("PY=2007 AND CU=USA NOT SO=C*"), corpus) == {"R2"}


def test_py_matches_on_decimal_string():
    corpus = _toy_corpus()
    # uniform prefix semantics apply to the year's decimal form too
    assert evaluate(parse("PY=200*"), corpus) == {"R1", "R2", "R3", "R4"}
    assert evaluate(parse("PY=2006"), corpus) == {"R3"}
    assert evaluate(parse("PY=199*"), corpus) == set()


def test_multi_title_record_is_in_both_letter_buckets():
    corpus = _toy_corpus()
    assert "R1" in evaluate(parse("SO=A*"), corpus)
    assert "R1" in evaluate(parse("SO=C*"), corpus)


def test_diff_with_itself_is_empty():
    corpus = _toy_corpus()
    for text in ("SO=A*", "PY=2007", "CU=USA AND SO=B*"):
        node = parse(text)
        assert evaluate(Diff(node, node), corpus) == set()


def test_unbound_setref_names_number():
    with pytest.raises(QueryError, match="#5"):
        evaluate(parse("#5"), _toy_corpus())


def test_registry_resolution():
    corpus = _toy_corpus()
    registry = {1: {"R1", "R2"}, 2: {"R2", "R3"}}
    assert evaluate(parse("#1 AND #2"), corpus, registry) == {"R2"}
    assert evaluate(parse("#1 NOT #2"), corpus, registry) == {"R1"}


def test_evaluate_matches_per_record_oracle():
    rng = random.Random(4)
    corpus = generate(CorpusProfile(seed=40, n_records=400))
    for _ in range(150):
        ast = _random_ast(rng, rng.randint(0, 3))
        if any(isinstance(n, SetRef) for n in _walk(ast)):
            continue
        assert evaluate(ast, corpus) == brute_eval(corpus, ast)


def _walk(node):
    yield node
    if isinstance(node, (And, Or, Diff)):
        yield from _walk(node.left)
        yield from _walk(node.right)


def test_de_morgan_on_finite_corpus():
    corpus = generate(CorpusProfile(seed=8, n_records=500))
    universe = parse("PY=2*")  # all generated years are 2005..2009
    a, b = parse("SO=J*"), parse("CU=USA")
    left = evaluate(Diff(universe, Or(a, b)), corpus)
    right = evaluate(Diff(Diff(universe, a), b), corpus)
    assert evaluate(universe, corpus) == {r.id for r in corpus}
    assert left == right


def test_truncation_monotonicity():
    corpus = generate(CorpusProfile(seed=9, n_records=800))
    assert evaluate(parse("SO=AB*"), corpus) <= evaluate(parse("SO=A*"), corpus)
    assert evaluate(parse("SO=JOU*"), corpus) <= evaluate(parse("SO=J*"), corpus)


def test_multiplicity_accounting():
    corpus = generate(CorpusProfile(seed=10, n_records=600, multi_title_prob=0.4))
    statements = [parse(f"SO={ch}*") for ch in "ABCDEFGHIJKLMNOPQRSTUVWXYZ"]
    total = sum(len(evaluate(s, corpus)) for s in statements)
    per_record = sum(
        sum(1 for s in statements if rec.id in evaluate(s, Corpus((rec,))))
        for rec in corpus
    )
    assert total == per_record


def test_evaluate_is_pure():
    corpus = _toy_corpus()
    node = parse("PY=2007 AND CU=USA")
    before = corpus.records
    first = evaluate(node, corpus)
    second = evaluate(node, corpus)
    assert first == second
    assert corpus.records == before


# -- the oracle's term cache -------------------------------------------------


# trees over terms that hit generated corpora, a few that never do, and #1..#3
_ORACLE_TREES = st.recursive(
    st.one_of(
        st.sampled_from(
            ["PY=2005", "PY=2007", "PY=200*", "CU=USA", "CU=CUBA", "SO=A*", "SO=J*",
             "AD=UNIV", "AD=MA", "AD=X*", "PY=1999"]
        ).map(parse),
        st.integers(1, 3).map(SetRef),
    ),
    lambda sub: st.one_of(st.builds(kind, sub, sub) for kind in (And, Or, Diff)),
    max_leaves=5,
)


@given(
    seed=st.integers(0, 10_000),
    n_records=st.integers(0, 60),
    queries=st.lists(_ORACLE_TREES, max_size=8),
)
def test_oracle_agrees_with_one_shot_evaluate_across_queries(seed, n_records, queries):
    corpus = generate(CorpusProfile(seed=seed, n_records=n_records, multi_title_prob=0.3))
    registry = {
        i: brute_eval(corpus, parse(text))
        for i, text in enumerate(("PY=2007", "SO=J* OR SO=A*", "CU=USA NOT AD=MA"), start=1)
    }
    oracle = Oracle(corpus)
    # every query twice, so later ones reuse the term sets earlier ones kept
    for query in queries + queries:
        expected = evaluate(query, corpus, registry)
        assert oracle.evaluate(query, registry) == expected
        assert expected == brute_eval(corpus, query, registry)


@pytest.mark.parametrize(
    "text, strings",
    [
        ("PY=2007", {"2007", "2008"}),
        ("CU=U*", {"USA", "CUBA", "UK"}),
        ("SO=B REV", {"A REV", "B REV", "C REV"}),
        ("AD=MA", {"MIT", "CAMBRIDGE", "MA", "UNIV", "HAVANA"}),
    ],
)
def test_scan_term_matches_each_distinct_string_once(text, strings, monkeypatch):
    # 300 records over a handful of distinct values: the pattern sees each once
    values = [
        (2007, ("A REV",), ("USA",), ("MIT CAMBRIDGE MA",)),
        (2008, ("B REV", "C REV"), ("CUBA", "USA"), ("UNIV HAVANA", "MIT CAMBRIDGE MA")),
        (2007, ("C REV",), ("UK",), ()),
    ]
    corpus = Corpus(tuple(
        make_record(f"R{i:03d}", titles, year, countries, addresses)
        for i, (year, titles, countries, addresses) in enumerate(values * 100)
    ))
    seen = []
    matches = Pattern.matches

    def counted(self, value):
        seen.append(value)
        return matches(self, value)

    monkeypatch.setattr(Pattern, "matches", counted)
    found = _scan_term(corpus, corpus.ids, parse(text))
    assert sorted(seen) == sorted(strings)
    monkeypatch.undo()
    assert found == brute_eval(corpus, parse(text))


def test_field_strings_names_the_strings_each_field_is_found_through():
    corpus = Corpus((
        make_record("R1", ("ALPHA REV", "BETA REV"), 2007, ("CUBA", "USA"), ("UNIV HAVANA",)),
        make_record("R2", ("ALPHA REV",), 2008, ("USA",),
                    ("MIT CAMBRIDGE MA", "HARVARD CAMBRIDGE MA")),
        make_record("R3", ("GAMMA J",), 2007, ("UK",)),
    ))
    expected = {
        PY: (corpus.years, [["2007"], ["2008"]]),
        CU: (corpus.countries, [["CUBA", "USA"], ["USA"], ["UK"]]),
        SO: (corpus.source_titles, [["ALPHA REV", "BETA REV"], ["ALPHA REV"], ["GAMMA J"]]),
        # the two addresses share CAMBRIDGE and MA, each named once; no address, no string
        AD: (corpus.addresses, [["HAVANA", "UNIV"], ["CAMBRIDGE", "HARVARD", "MA", "MIT"], []]),
    }
    for field, (column, strings) in expected.items():
        found_column, found = field_strings(corpus, field)
        assert found_column is column, field
        assert [sorted(value) for value in found] == strings, field
    assert list(corpus.years.codes) == [0, 1, 0]
    for column in (corpus.countries, corpus.source_titles, corpus.addresses):
        assert list(column.codes) == [0, 1, 2]


def test_oracle_answers_are_fresh_sets():
    oracle = Oracle(_toy_corpus())
    registry = {1: {"R1", "R2"}}
    for text in ("CU=USA", "CU=USA AND PY=2007", "#1"):
        first = oracle.evaluate(parse(text), registry)
        expected = set(first)
        first.clear()
        first.add("R9")
        assert oracle.evaluate(parse(text), registry) == expected
    assert registry == {1: {"R1", "R2"}}
