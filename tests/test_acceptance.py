"""Acceptance suite: one test per release criterion, each printing a
single PASS line (run with ``pytest tests/test_acceptance.py -v -s``).
All tolerances are exact integer equality; time and memory budgets are
asserted where the criterion states them."""

from __future__ import annotations

import random
import resource
import sys
import time

from capsplit import (
    CENSORED,
    CappedEngine,
    CorpusProfile,
    EngineConfig,
    FieldKind,
    Verdict,
    build_fixture,
    build_overlap_statement,
    generate,
    parse,
    parse_group_spec,
    plan_auto,
    plan_censored,
    plan_prescribed,
    print_normalized,
    run_strategy,
    save_corpus,
    validate_direct,
)
from capsplit.cli import main
from capsplit.corpus import FIXTURE_LETTER_GROUPS

from conftest import (
    CUBA_BASE,
    REFERENCE_GROUPS_CUBA,
    REFERENCE_GROUPS_USA,
    UK_BASE,
    USA_BASE,
)
from helpers import skewed_bucket_corpus

SO = FieldKind.SO


def _passed(criterion: int, summary: str) -> None:
    print(f"[criterion {criterion}] PASS - {summary}")
    sys.stdout.flush()


def _parse_report(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.strip().splitlines())


# -- criterion 1: small-scale facsimile ----------------------------------------


def test_criterion_1_reference_table_facsimile(cuba_file, tmp_path, capsys):
    out = tmp_path / "report.txt"
    started = time.perf_counter()
    code = main(
        ["validate", "--corpus", cuba_file, "--base", CUBA_BASE,
         "--groups", REFERENCE_GROUPS_CUBA, "--out", str(out)]
    )
    elapsed = time.perf_counter() - started
    capsys.readouterr()
    assert code == 0
    report = _parse_report(out.read_text())
    counts = [140, 216, 161, 193, 91, 108, 35]
    sums = [140, 356, 517, 710, 801, 909, 944]
    exclusions = [127, 205, 139, 177, 86, 108, 34]
    esums = [127, 332, 471, 648, 734, 842, 876]
    for i in range(7):
        assert report[f"statement.{i + 1}.count"] == str(counts[i])
        assert report[f"statement.{i + 1}.sum"] == str(sums[i])
        assert report[f"exclusion.{i + 1}.count"] == str(exclusions[i])
        assert report[f"exclusion.{i + 1}.sum"] == str(esums[i])
    assert report["overlap.count"] == "34"
    assert report["method_a.total"] == "910"
    assert report["method_b.total"] == "910"
    assert report["direct.count"] == "910"
    assert report["verdict"] == "Exact"
    assert elapsed < 1.0
    with capsys.disabled():
        _passed(1, f"910-record facsimile exact, validate ran in {elapsed:.2f}s")


# -- criterion 2: full-scale facsimile -----------------------------------------


def test_criterion_2_full_scale_facsimile(capsys):
    started = time.perf_counter()
    corpus = build_fixture("usa_t1")
    assert len(corpus) == 496487
    engine = CappedEngine(corpus)  # cap 100,000
    strategy = plan_prescribed(
        engine, parse(USA_BASE), SO, parse_group_spec(REFERENCE_GROUPS_USA)
    )
    report = validate_direct(strategy, engine)
    elapsed = time.perf_counter() - started

    assert [s.count for s in report.per_statement] == [
        91122, 91920, 82897, 84783, 58751, 17064, 92976
    ]
    assert [s.running_sum for s in report.per_statement] == [
        91122, 183042, 265939, 350722, 409473, 426537, 519513
    ]
    assert report.overlap_count == 23026
    assert [e.count for e in report.per_exclusion] == [
        85586, 87535, 69457, 75516, 45551, 17008, 92808
    ]
    assert report.per_exclusion[-1].running_sum == 473461
    assert report.method_a_total == 496487
    assert report.method_b_total == 496487
    assert report.direct_count == 496487
    assert report.verdict is Verdict.EXACT

    # independent per-record scan of the same cells
    counts = [0] * 7
    overlap = 0
    for rec in corpus:
        initials = {t[0] for t in rec.source_titles}
        stmts = {
            i for i, letters in enumerate(FIXTURE_LETTER_GROUPS)
            if initials.intersection(letters)
        }
        if "J" in initials:
            stmts.add(5 if any("CA" in a.split() for a in rec.addresses) else 6)
        assert 1 <= len(stmts) <= 2
        for s in stmts:
            counts[s] += 1
        overlap += len(stmts) == 2
    assert counts == [91122, 91920, 82897, 84783, 58751, 17064, 92976]
    assert overlap == 23026

    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1024 * 1024)
    assert elapsed < 120.0
    assert peak_gb < 2.0
    with capsys.disabled():
        _passed(2, f"496,487-record facsimile exact in {elapsed:.1f}s, peak {peak_gb:.2f} GB")


def test_auto_planning_full_scale_totals(usa_engine):
    # greedy planning may group differently; the reconciled totals may not
    from capsplit.corpus import SYMBOLS

    assert usa_engine.prefix_children(SO, "") <= set(SYMBOLS)
    strategy = plan_auto(usa_engine, parse(USA_BASE), SO)
    for stmt in strategy.statements:
        assert usa_engine.count(stmt).expect_exact() < 100_000
    report = validate_direct(strategy, usa_engine)
    assert report.method_a_total == 496487
    assert report.method_b_total == 496487
    assert report.verdict is Verdict.EXACT


# -- criterion 3: whole-base pivot split ----------------------------------------


def test_criterion_3_uk_pivot_split(capsys):
    started = time.perf_counter()
    corpus = build_fixture("uk_s1")
    engine = CappedEngine(corpus)
    strategy = plan_prescribed(
        engine, parse(UK_BASE), SO, parse_group_spec("/AD=LONDON")
    )
    report = validate_direct(strategy, engine)
    elapsed = time.perf_counter() - started
    assert [s.count for s in report.per_statement] == [33043, 98802]
    assert 33043 + 98802 == 131845
    assert report.method_a_total == report.method_b_total == 131845
    assert report.direct_count == 131845
    assert report.verdict is Verdict.EXACT
    assert elapsed < 30.0
    with capsys.disabled():
        _passed(3, f"33,043 + 98,802 = 131,845 = direct, in {elapsed:.1f}s")


# -- criteria 4-6: randomized properties ----------------------------------------


def _property_cases():
    """100 deterministic cases; every tenth is an engineered multiplicity-3
    corpus whose three letter buckets each exceed half the cap, so the
    wide records are guaranteed to span three statements."""
    rng = random.Random(20090400)
    cases = []
    for trial in range(100):
        if trial % 10 == 9:
            cases.append(
                ("m3", rng.randint(0, 10**9), rng.randint(200, 1000),
                 rng.randint(1, 5), rng.randint(0, 60))
            )
        else:
            cases.append(
                ("gen", rng.randint(0, 10**9), rng.randint(200, 1000),
                 rng.randint(2000, 10000), rng.uniform(0.0, 0.3))
            )
    return cases


def _build_case(case):
    kind, seed, cap, a, b = case
    if kind == "gen":
        corpus = generate(CorpusProfile(seed=seed, n_records=a, multi_title_prob=b))
    else:
        bucket = int(cap * 0.7)
        corpus = skewed_bucket_corpus(
            random.Random(seed), "AMZ", bucket, wide_records=a,
            wide_letters="AMZ", extra_noise=b,
        )
    return corpus, cap


def _direct_scan(corpus) -> int:
    return sum(1 for rec in corpus if rec.pub_year == 2007)


def test_criterion_4_two_ways_property(capsys):
    started = time.perf_counter()
    base = parse("PY=2007")
    engineered_flagged = 0
    for case in _property_cases():
        corpus, cap = _build_case(case)
        engine = CappedEngine(corpus, EngineConfig(cap=cap))
        strategy = plan_auto(engine, base, SO)
        for stmt in strategy.statements:
            assert engine.count(stmt).expect_exact() < cap
        report = validate_direct(strategy, engine)
        direct = _direct_scan(corpus)
        assert report.direct_count == direct
        assert report.method_b_total == direct
        if report.max_multiplicity <= 2:
            assert report.method_a_total == direct
        else:
            assert report.method_a_total != direct
        if case[0] == "m3":
            assert report.max_multiplicity >= 3
            assert report.verdict is Verdict.METHOD_A_OVERCOUNT
            engineered_flagged += 1
    elapsed = time.perf_counter() - started
    assert engineered_flagged == 10
    assert elapsed < 60.0
    with capsys.disabled():
        _passed(4, f"100 corpora reconciled, {engineered_flagged} multiplicity-3 "
                   f"corpora flagged, in {elapsed:.1f}s")


def test_criterion_5_method_b_exactness_theorem(capsys):
    rng = random.Random(20090500)
    base = parse("PY=2007")
    cases = 0
    for letters in ("AMZ", "BHQ", "CKVZ", "ADGJX", "AMZ", "EKRY"):
        for _ in range(4):
            cap = rng.randint(300, 900)
            corpus = skewed_bucket_corpus(
                rng, letters, int(cap * 0.7), wide_records=rng.randint(1, 8),
                wide_letters=letters, extra_noise=rng.randint(0, 50),
            )
            engine = CappedEngine(corpus, EngineConfig(cap=cap))
            report = validate_direct(plan_auto(engine, base, SO), engine)
            union = report.union_cardinality
            assert report.max_multiplicity == len(letters) >= 3
            assert report.method_b_total == union == _direct_scan(corpus)
            statement_sum = sum(s.count for s in report.per_statement)
            surplus = (statement_sum - union) - report.overlap_count
            assert report.method_a_total == union + surplus
            assert surplus > 0
            cases += 1
    assert cases >= 20
    with capsys.disabled():
        _passed(5, f"method B equals the union in all {cases} engineered "
                   "high-multiplicity corpora; method A surplus matches exactly")


def test_criterion_6_censored_planning(capsys):
    base = parse("PY=2007")
    for case in _property_cases():
        corpus, cap = _build_case(case)
        censored = CappedEngine(corpus, EngineConfig(cap=cap, count_mode=CENSORED))
        strategy = plan_censored(censored, base, SO)
        visible = CappedEngine(corpus, EngineConfig(cap=cap))
        for stmt in strategy.statements:
            assert visible.count(stmt).expect_exact() < cap
        report = run_strategy(strategy, censored)
        assert report.method_b_total == _direct_scan(corpus)
    with capsys.disabled():
        _passed(6, "censored planning terminated sub-cap on all 100 corpora; "
                   "method B matched the direct scan")


# -- criterion 7: determinism -----------------------------------------------------


def test_criterion_7_byte_determinism(tmp_path, capsys):
    gen_a, gen_b = tmp_path / "g1.tsv", tmp_path / "g2.tsv"
    for path in (gen_a, gen_b):
        assert main(["gen", "--seed", "99", "--n", "2000",
                     "--multi-title-prob", "0.2", "--out", str(path)]) == 0
    assert gen_a.read_bytes() == gen_b.read_bytes()

    corpus_path = tmp_path / "fx.tsv"
    save_corpus(build_fixture("cuba_t3"), str(corpus_path))
    outs = []
    for name in ("p1", "p2"):
        script = tmp_path / f"{name}.script"
        report = tmp_path / f"{name}.report"
        assert main(["plan", "--corpus", str(corpus_path), "--base", CUBA_BASE,
                     "--groups", REFERENCE_GROUPS_CUBA, "--out", str(script)]) == 0
        assert main(["run", "--corpus", str(corpus_path), "--base", CUBA_BASE,
                     "--groups", REFERENCE_GROUPS_CUBA, "--out", str(report)]) == 0
        outs.append((script.read_bytes(), report.read_bytes()))
    capsys.readouterr()
    assert outs[0] == outs[1]
    with capsys.disabled():
        _passed(7, "gen, plan and run outputs are byte-identical across runs")


# -- criterion 8: parser conformance ------------------------------------------------


OVERLAP_QUERY = (
    "(#1 AND #2) OR (#1 AND #3) OR (#1 AND #4) OR (#1 AND #5) OR (#1 AND #6) OR "
    "(#1 AND #7) OR (#2 AND #3) OR (#2 AND #4) OR (#2 AND #5) OR (#2 AND #6) OR "
    "(#2 AND #7) OR (#3 AND #4) OR (#3 AND #5) OR (#3 AND #6) OR (#3 AND #7) OR "
    "(#4 AND #5) OR (#4 AND #6) OR (#4 AND #7) OR (#5 AND #6) OR (#5 AND #7) OR "
    "(#6 AND #7)"
)

REFERENCE_QUERIES = [
    "PY=2007 AND CU=USA AND (SO=A* OR SO=B*)",
    "PY=2007 AND CU=USA AND (SO=C* OR SO=D* OR SO=E* OR SO=F* OR SO=G*)",
    "PY=2007 AND CU=USA AND (SO=H* OR SO=I* OR SO=K* OR SO=L* OR SO=M*)",
    "PY=2007 AND CU=USA AND (SO=N* OR SO=O* OR SO=P* OR SO=Q* OR SO=R*)",
    "PY=2007 AND CU=USA AND (SO=S* OR SO=T* OR SO=U* OR SO=V* OR SO=W* OR SO=X* OR "
    "SO=Y* OR SO=Z* OR SO=1* OR SO=2* OR SO=3* OR SO=4* OR SO=5* OR SO=6* OR SO=7* OR "
    "SO=8* OR SO=9*)",
    "PY=2007 AND CU=USA AND SO=J* AND AD=CA",
    "PY=2007 AND CU=USA AND SO=J* NOT AD=CA",
    OVERLAP_QUERY,
    *[f"#{i} NOT #8" for i in range(1, 8)],
    "PY=2007 AND CU=CUBA",
    "PY=2007 AND CU=CUBA AND (SO=A* OR SO=B*)",
    "PY=2007 AND CU=CUBA AND SO=J* AND AD=Havana",
    "PY=2007 AND CU=CUBA AND SO=J* NOT AD=Havana",
    "PY=2007 AND CU=(England OR Scotland OR Wales OR North Ireland) AND AD=LONDON",
    "PY=2007 AND CU=(England OR Scotland OR Wales OR North Ireland) NOT AD=LONDON",
]


def test_criterion_8_parser_conformance(capsys):
    for text in REFERENCE_QUERIES:
        ast = parse(text)
        normalized = print_normalized(ast)
        assert parse(normalized) == ast
        assert print_normalized(parse(normalized)) == normalized
    overlap = build_overlap_statement(7)
    rendered = print_normalized(overlap)
    assert rendered.count("(#") == 21
    assert overlap == parse(OVERLAP_QUERY)
    with capsys.disabled():
        _passed(8, f"all {len(REFERENCE_QUERIES)} reference statements round-trip; "
                   "overlap statement prints 21 pairs")
