from __future__ import annotations

import gc
import random
import weakref
from collections import Counter
from dataclasses import replace

import pytest

from capsplit import (
    CENSORED,
    CappedEngine,
    Corpus,
    CorpusProfile,
    EngineConfig,
    EngineError,
    FieldKind,
    SetRef,
    Strategy,
    Verdict,
    build_exclusions,
    build_overlap_statement,
    generate,
    parse,
    parse_group_spec,
    plan_auto,
    plan_prescribed,
    run_strategy,
    validate_direct,
)
from capsplit import query, reconcile
from capsplit.reconcile import ReconcileError

from conftest import CUBA_BASE, REFERENCE_GROUPS_CUBA, UK_BASE
from helpers import brute_eval, make_record, skewed_bucket_corpus

SO = FieldKind.SO


def _cuba_report(cuba_corpus, mode="visible", with_direct=True):
    engine = CappedEngine(cuba_corpus, EngineConfig(count_mode=mode))
    strategy = plan_prescribed(
        engine, parse(CUBA_BASE), SO, parse_group_spec(REFERENCE_GROUPS_CUBA)
    ) if mode == "visible" else None
    if strategy is None:
        visible = CappedEngine(cuba_corpus)
        strategy = plan_prescribed(
            visible, parse(CUBA_BASE), SO, parse_group_spec(REFERENCE_GROUPS_CUBA)
        )
    return (validate_direct if with_direct else run_strategy)(strategy, engine)


def test_reference_evaluator_agrees_on_direct_count(cuba_corpus):
    # the index-free evaluator is the semantics oracle for the engine
    from capsplit import evaluate

    assert len(evaluate(parse(CUBA_BASE), cuba_corpus)) == 910


def test_reference_run_report(cuba_corpus):
    report = _cuba_report(cuba_corpus)
    assert [s.count for s in report.per_statement] == [140, 216, 161, 193, 91, 108, 35]
    assert [s.running_sum for s in report.per_statement] == [140, 356, 517, 710, 801, 909, 944]
    assert report.overlap_count == 34
    assert [e.count for e in report.per_exclusion] == [127, 205, 139, 177, 86, 108, 34]
    assert [e.running_sum for e in report.per_exclusion] == [127, 332, 471, 648, 734, 842, 876]
    assert report.method_a_total == 910
    assert report.method_b_total == 910
    assert report.union_cardinality == 910
    assert report.direct_count == 910
    assert report.direct_source == "engine"
    assert report.max_multiplicity == 2
    assert report.verdict is Verdict.EXACT
    assert [s.number for s in report.per_statement] == list(range(1, 8))


def test_exclusion_count_equals_statement_count_iff_no_overlap_degree(cuba_corpus):
    report = _cuba_report(cuba_corpus)
    for stmt, excl in zip(report.per_statement, report.per_exclusion):
        assert excl.count <= stmt.count
    # statement 6 has overlap degree zero: its exclusion keeps the full count
    assert report.per_statement[5].count == report.per_exclusion[5].count == 108
    assert report.per_statement[0].count > report.per_exclusion[0].count


def test_run_starts_from_an_empty_statement_registry(cuba_corpus):
    engine = CappedEngine(cuba_corpus)
    base = parse(CUBA_BASE)
    larger = plan_prescribed(engine, base, SO, parse_group_spec(REFERENCE_GROUPS_CUBA))
    smaller = plan_prescribed(engine, base, SO, parse_group_spec("ABCDEFGHIJKLM,NOPQRSTUVWXYZ123456789"))
    assert validate_direct(larger, engine).verdict is Verdict.EXACT
    assert validate_direct(smaller, engine).verdict is Verdict.EXACT
    n = len(smaller.statements)
    assert len(larger.statements) > n
    engine.count(SetRef(2 * n + 1))  # the smaller run's last exclusion
    with pytest.raises(EngineError, match="unbound"):
        engine.count(SetRef(2 * n + 2))


def test_uk_whole_base_split(uk_corpus):
    engine = CappedEngine(uk_corpus)
    strategy = plan_prescribed(
        engine, parse(UK_BASE), SO, parse_group_spec("/AD=LONDON")
    )
    report = validate_direct(strategy, engine)
    assert [s.count for s in report.per_statement] == [33043, 98802]
    assert report.overlap_count == 0
    assert report.method_a_total == report.method_b_total == 131845
    assert report.direct_count == 131845
    assert report.verdict is Verdict.EXACT


def test_empty_base_run_is_exact():
    corpus = generate(CorpusProfile(seed=2, n_records=100))
    engine = CappedEngine(corpus)
    strategy = plan_auto(engine, parse("PY=1800"), SO)
    report = validate_direct(strategy, engine)
    assert all(s.count == 0 for s in report.per_statement)
    assert report.method_a_total == report.method_b_total == 0
    assert report.direct_count == 0
    assert report.verdict is Verdict.EXACT


def test_triple_title_record_overcounts_method_a():
    rng = random.Random(17)
    corpus = skewed_bucket_corpus(rng, "AMZ", bucket_size=70, wide_records=1,
                                  wide_letters="AMZ")
    engine = CappedEngine(corpus, EngineConfig(cap=100))
    strategy = plan_auto(engine, parse("PY=2007"), SO)
    report = validate_direct(strategy, engine)
    direct = len(corpus)
    assert report.max_multiplicity == 3
    assert report.method_b_total == direct
    assert report.method_a_total == direct + 1  # one m=3 record nets +1
    assert report.verdict is Verdict.METHOD_A_OVERCOUNT
    assert report.union_cardinality == direct
    assert report.method_a_total - report.union_cardinality == 1


def test_method_b_exact_at_any_multiplicity():
    rng = random.Random(23)
    for _ in range(8):
        wide = rng.randint(1, 10)
        letters = rng.choice(("AMZ", "BHQ", "CKVZ"))
        corpus = skewed_bucket_corpus(
            rng, letters, bucket_size=rng.randint(60, 90),
            wide_records=wide, wide_letters=letters,
            extra_noise=rng.randint(0, 30),
        )
        engine = CappedEngine(corpus, EngineConfig(cap=120))
        strategy = plan_auto(engine, parse("PY=2007"), SO)
        report = validate_direct(strategy, engine)
        assert report.method_b_total == len(brute_eval(corpus, parse("PY=2007")))
        surplus = (len(letters) - 2) * wide
        assert report.method_a_total == report.method_b_total + surplus
        assert report.method_a_total - report.union_cardinality == surplus
        assert (report.verdict is Verdict.EXACT) == (surplus == 0)


def test_two_ways_equality_at_low_multiplicity():
    rng = random.Random(31)
    for _ in range(5):
        corpus = generate(
            CorpusProfile(seed=rng.randint(0, 10**6), n_records=1500,
                          multi_title_prob=rng.uniform(0.0, 0.3))
        )
        engine = CappedEngine(corpus, EngineConfig(cap=200))
        strategy = plan_auto(engine, parse("PY=2*"), SO)
        report = validate_direct(strategy, engine)
        assert report.max_multiplicity <= 2
        assert report.method_a_total == report.method_b_total == report.direct_count


def test_cap_violation_yields_partial_report():
    records = tuple(make_record(f"R{i:04d}", ("A REV",)) for i in range(200))
    corpus = Corpus(records)
    engine = CappedEngine(corpus, EngineConfig(cap=100))
    strategy = Strategy(
        base=parse("PY=2007"),
        cap=100,
        statements=(parse("PY=2007 AND SO=A*"),),
        overlap_stmt=build_overlap_statement(1),
        exclusion_stmts=tuple(build_exclusions(1)),
    )
    report = run_strategy(strategy, engine)
    assert report.verdict is Verdict.CAP_VIOLATION
    assert report.per_statement[0].count == 200  # visible mode still reports it
    assert report.method_a_total is None
    assert report.method_b_total is None
    assert report.per_exclusion == ()
    validated = validate_direct(strategy, engine)
    assert validated.verdict is Verdict.CAP_VIOLATION
    assert validated.direct_count == 200


def test_cap_violation_in_censored_mode_hides_count():
    records = tuple(make_record(f"R{i:04d}", ("A REV",)) for i in range(200))
    engine = CappedEngine(Corpus(records), EngineConfig(cap=100, count_mode=CENSORED))
    strategy = Strategy(
        base=parse("PY=2007"),
        cap=100,
        statements=(parse("PY=2007 AND SO=A*"),),
        overlap_stmt=build_overlap_statement(1),
        exclusion_stmts=tuple(build_exclusions(1)),
    )
    report = run_strategy(strategy, engine)
    assert report.verdict is Verdict.CAP_VIOLATION
    assert report.per_statement[0].count is None


def test_censored_overlap_count_falls_back_to_materialized_sections():
    # three-way ring of dual-title records: every statement is sub-cap but
    # the overlap statement itself is not
    records = []
    n = 0
    for pair in ("AB", "BC", "CA"):
        for _ in range(30):
            n += 1
            records.append(
                make_record(f"R{n:04d}", (f"{pair[0]}X{n:04d} REV", f"{pair[1]}Y{n:04d} REV"))
            )
    corpus = Corpus(tuple(records))
    censored = CappedEngine(corpus, EngineConfig(cap=65, count_mode=CENSORED))
    visible = CappedEngine(corpus, EngineConfig(cap=65))
    strategy = plan_auto(visible, parse("PY=2007"), SO)
    assert [visible.count(s).value for s in strategy.statements] == [60, 60, 60]
    report = validate_direct(strategy, censored)
    assert report.overlap_count == 90  # recovered from materialized sections
    assert report.method_a_total == 90
    assert report.method_b_total == 90
    assert report.direct_count == 90
    assert report.direct_source == "oracle"
    assert report.verdict is Verdict.EXACT


def test_uncovered_symbol_causes_mismatch():
    records = tuple(
        [make_record(f"R{i}", ("ACTA REV",)) for i in range(5)]
        + [make_record("R90", ("0RPHAN REV",)), make_record("R91", ("0MEGA REV",))]
    )
    corpus = Corpus(records)
    engine = CappedEngine(corpus, EngineConfig(cap=1000))
    groups = parse_group_spec("ABCDEFGHIJKLMNOPQRSTUVWXYZ123456789")
    strategy = plan_prescribed(engine, parse("PY=2007"), SO, groups)
    assert strategy.warnings  # the 0 gap is announced
    report = validate_direct(strategy, engine)
    assert report.method_a_total == report.method_b_total == 5
    assert report.direct_count == 7
    assert report.verdict is Verdict.MISMATCH


# -- the two cross-checks run_strategy makes against the section bitsets ------


def _cuba_strategy(cuba_corpus):
    engine = CappedEngine(cuba_corpus)
    strategy = plan_prescribed(
        engine, parse(CUBA_BASE), SO, parse_group_spec(REFERENCE_GROUPS_CUBA)
    )
    assert run_strategy(strategy, engine).overlap_count == 34  # the sections do overlap
    return engine, strategy


def test_wrong_overlap_statement_is_caught(cuba_corpus):
    engine, strategy = _cuba_strategy(cuba_corpus)
    broken = replace(strategy, overlap_stmt=parse("#1 NOT #1"))
    with pytest.raises(
        ReconcileError,
        match="overlap statement counted 0 records but the materialized sections contain 34",
    ):
        run_strategy(broken, engine)


def test_wrong_exclusions_are_caught(cuba_corpus):
    engine, strategy = _cuba_strategy(cuba_corpus)
    n = len(strategy.statements)
    broken = replace(
        strategy, exclusion_stmts=tuple(parse(f"#{i} NOT #{i}") for i in range(1, n + 1))
    )
    with pytest.raises(
        ReconcileError, match="method B total 34 diverged from the materialized union of 910"
    ):
        run_strategy(broken, engine)


# -- censored direct counts ---------------------------------------------------


_DOMAINS = [
    f"PY={year} AND CU={country}" for year in range(2005, 2010) for country in ("USA", "CUBA")
]


def _censored_exports(corpus):
    engine = CappedEngine(corpus, EngineConfig(cap=150, count_mode=CENSORED))
    return engine, [plan_auto(engine, parse(base), SO) for base in _DOMAINS]


def test_censored_direct_counts_scan_each_distinct_term_once(monkeypatch):
    corpus = generate(CorpusProfile(seed=5, n_records=1200))
    engine, strategies = _censored_exports(corpus)
    scanned = Counter()
    scan = query._scan_term

    def counting_scan(corpus, ids, term):
        scanned[term] += 1
        return scan(corpus, ids, term)

    monkeypatch.setattr(query, "_scan_term", counting_scan)
    for strategy in strategies + strategies:
        report = validate_direct(strategy, engine)
        assert report.direct_source == "oracle"
        assert report.direct_count == len(brute_eval(corpus, strategy.base))
        assert report.verdict is not Verdict.MISMATCH
    # 10 bases over 5 years and 2 countries
    assert len(scanned) == 7
    assert set(scanned.values()) == {1}


def test_each_engine_gets_its_own_oracle():
    corpora = [generate(CorpusProfile(seed=seed, n_records=900)) for seed in (6, 7)]
    exports = [_censored_exports(corpus) for corpus in corpora]
    for (engine, strategies), corpus in zip(exports * 2, corpora * 2):
        for strategy in strategies:
            direct = validate_direct(strategy, engine).direct_count
            assert direct == len(brute_eval(corpus, strategy.base))
    # the oracle goes with its engine and never keeps it alive
    engine = exports[0][0]
    oracle = weakref.ref(reconcile._ORACLES[engine])
    gone = weakref.ref(engine)
    del engine, exports
    gc.collect()
    assert gone() is None and oracle() is None


# -- the report of hand-written session counts, with no engine ---------------
# Two sections of 5 and 4 records share 1: the union is 8, and the exclusions
# (each section without the shared record) count 4 and 3.

_TWO = dict(counts=[5, 4], overlap=1, exclusions=[4, 3], coverage=[8, 1])


def test_counts_of_two_overlapping_sections_reconcile_exact():
    report = reconcile._reconcile(**_TWO)
    assert report.per_statement == (reconcile.Row(1, 5, 5), reconcile.Row(2, 4, 9))
    assert report.per_exclusion == (reconcile.Row(1, 4, 4), reconcile.Row(2, 3, 7))
    assert report.overlap_count == 1
    assert report.method_a_total == report.method_b_total == report.union_cardinality == 8
    assert report.max_multiplicity == 2
    assert report.direct_count is None and report.direct_source is None
    assert report.verdict is Verdict.EXACT


def test_counts_with_a_record_in_three_sections_overcount_method_a():
    # three sections of 3 records, one record in all of them: 7 records, 1 shared
    report = reconcile._reconcile([3, 3, 3], 1, [2, 2, 2], [7, 1, 1])
    assert report.max_multiplicity == 3
    assert report.method_b_total == report.union_cardinality == 7
    assert report.method_a_total == 8
    assert report.verdict is Verdict.METHOD_A_OVERCOUNT


def test_a_censored_statement_count_is_a_cap_violation():
    report = reconcile._reconcile([50, None, 30], None, [], None)
    assert [row.running_sum for row in report.per_statement] == [50, None, None]
    assert report.verdict is Verdict.CAP_VIOLATION
    assert report.overlap_count is report.method_a_total is report.method_b_total is None
    assert report.per_exclusion == ()


def test_a_censored_overlap_count_is_taken_from_the_coverage():
    report = reconcile._reconcile(**{**_TWO, "overlap": None})
    assert report == reconcile._reconcile(**_TWO)


@pytest.mark.parametrize("broken, message", [
    ({"overlap": 0}, "overlap statement counted 0 records but the materialized sections "
                     "contain 1 shared ones"),
    ({"exclusions": [0, 0]}, "method B total 1 diverged from the materialized union of 8 "
                             "records"),
])
def test_counts_that_contradict_the_coverage_are_refused(broken, message):
    with pytest.raises(ReconcileError) as caught:
        reconcile._reconcile(**{**_TWO, **broken})
    assert str(caught.value) == message


def test_a_censored_exclusion_count_is_refused():
    with pytest.raises(EngineError) as caught:
        reconcile._reconcile(**{**_TWO, "exclusions": [4, None]})
    assert str(caught.value) == "count was censored at the cap"


def test_a_direct_count_other_than_method_b_is_a_mismatch():
    report = reconcile._reconcile(**_TWO, direct=9, source="engine")
    assert report.method_a_total == report.method_b_total == 8
    assert (report.direct_count, report.direct_source) == (9, "engine")
    assert report.verdict is Verdict.MISMATCH


def test_a_direct_count_leaves_a_cap_violation_standing():
    report = reconcile._reconcile([200], None, [], None, direct=200, source="oracle")
    assert report.verdict is Verdict.CAP_VIOLATION
    assert (report.direct_count, report.direct_source) == (200, "oracle")
    assert report.method_a_total is report.method_b_total is None
