from __future__ import annotations

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from capsplit import (
    CappedEngine,
    CorpusError,
    CorpusProfile,
    FieldKind,
    emit_report,
    emit_strategy_script,
    generate,
    parse,
    parse_group_spec,
    parse_strategy_script,
    plan_prescribed,
)
from capsplit.cli import build_arg_parser, main

from conftest import CUBA_BASE, REFERENCE_GROUPS_CUBA


# -- gen / ingest -------------------------------------------------------------


def test_gen_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    for path in (a, b):
        assert main(["gen", "--seed", "42", "--n", "500", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().count(b"\r") == 0  # LF endings only


def test_gen_profile_file_with_overrides(tmp_path, capsys):
    profile = {
        "seed": 1,
        "n_records": 50,
        "year_range": [2007, 2007],
        "country_weights": {"CUBA": 1.0},
        "multi_title_prob": 0.0,
    }
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(profile))
    out = tmp_path / "c.tsv"
    assert main(["gen", "--profile", str(path), "--n", "20", "--out", str(out)]) == 0
    assert main(["ingest", "--corpus", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "20 records"


def test_gen_countries_flag(tmp_path, capsys):
    out = tmp_path / "c.tsv"
    assert main(["gen", "--n", "30", "--countries", "CUBA:2,SPAIN", "--out", str(out)]) == 0
    body = out.read_text()
    assert "CUBA" in body or "SPAIN" in body
    out.unlink()
    # a weight is ASCII digits with at most one '.'
    for countries in ("USA:\u0661", "CUBA:1_0", "CUBA:1.2.0", "CUBA:0.\uff15"):
        assert main(["gen", "--n", "30", "--countries", countries, "--out", str(out)]) == 3
        assert "country weight" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "countries, message",
    [
        ("usa:1,USA:3,cuba", "country 'USA' is named twice in --countries"),
        ("CUBA, cuba ", "country 'CUBA' is named twice in --countries"),
        ("USA:", "country weight '' of 'USA' is not finite, or not ASCII digits"),
        ("CUBA:2,USA:", "country weight '' of 'USA' is not finite, or not ASCII digits"),
    ],
)
def test_gen_countries_named_twice_or_without_a_weight_are_refused(tmp_path, capsys,
                                                                    countries, message):
    out = tmp_path / "c.tsv"
    assert main(["gen", "--n", "30", "--countries", countries, "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_gen_profile_naming_one_country_twice_is_refused(tmp_path, capsys):
    path, out = tmp_path / "profile.json", tmp_path / "c.tsv"
    path.write_text(json.dumps({"seed": 1, "n_records": 30,
                                "country_weights": {"usa": 1, "USA": 1, "CUBA": 1}}))
    assert main(["gen", "--profile", str(path), "--out", str(out)]) == 3
    assert "profile countries 'USA' and 'usa' name one country" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "profile",
    [
        {"seed": 1, "n_records": 0, "country_weights": {"USA": 1, "A(B": 1}},
        {"seed": 1, "n_records": 0, "address_pools": {"X|Y": ["OK"]}},
    ],
)
def test_gen_profile_with_a_bad_country_fails_at_load(tmp_path, capsys, profile):
    path, out = tmp_path / "profile.json", tmp_path / "c.tsv"
    path.write_text(json.dumps(profile))
    # --countries would replace the bad field, but the file is checked as it is read
    assert main(["gen", "--profile", str(path), "--countries", "USA", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    with pytest.raises(CorpusError) as python_err:
        generate(CorpusProfile(**profile))
    assert err == f"error: invalid profile {path}: {python_err.value}\n"
    assert str(python_err.value).startswith("profile country ")
    assert not out.exists()


def test_gen_countries_bytes_are_pinned(tmp_path, capsys):
    # every record of a country without a default pool has an empty address field
    argv = ["gen", "--countries", "usa,Zimbabwe", "--seed", "5", "--n", "300"]
    assert main(argv) == 0
    stdout = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(stdout).hexdigest() == (
        "f5c7a91e4ccb8cae7d1332457d0ffc8ca129e5e6385ddfe30f0ed125a21df1e7")
    out = tmp_path / "c.tsv"
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == stdout


def test_gen_non_finite_weights_are_data_errors(tmp_path, capsys):
    out = tmp_path / "c.tsv"
    for countries in ("CUBA:inf,USA", "CUBA:nan,USA"):
        assert main(["gen", "--n", "30", "--countries", countries, "--out", str(out)]) == 3
    path = tmp_path / "profile.json"
    for weights in ({"CUBA": float("nan")}, {"CUBA": float("inf"), "USA": 1.0}):
        path.write_text(json.dumps({"seed": 1, "n_records": 30, "country_weights": weights}))
        assert main(["gen", "--profile", str(path), "--out", str(out)]) == 3
    assert capsys.readouterr().err.count("not finite") == 4
    assert not out.exists()


def test_gen_bad_profile_is_data_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"seed": 1, "n_records": 5, "bogus_field": true}')
    assert main(["gen", "--profile", str(path)]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "profile, field",
    [
        ({"seed": 1, "n_records": "5"}, "n_records"),
        ({"seed": 1, "n_records": 5, "address_pools": {"USA": "MIT"}}, "address_pools"),
        ({"seed": 1.5, "n_records": 5}, "seed"),
        ({"seed": 1, "n_records": 5, "year_range": [2005]}, "year_range"),
        ({"seed": 1, "n_records": 5, "country_weights": {"USA": "5"}}, "country_weights"),
        ({"seed": 1, "n_records": 5, "initial_letter_weights": ["A"]}, "initial_letter_weights"),
        ({"seed": 1, "n_records": 5, "multi_title_prob": True}, "multi_title_prob"),
    ],
)
def test_gen_mistyped_profile_is_data_error(tmp_path, capsys, profile, field):
    path = tmp_path / "mistyped.json"
    path.write_text(json.dumps(profile))
    out = tmp_path / "c.tsv"
    assert main(["gen", "--profile", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"invalid profile {path}" in err and field in err
    assert not out.exists()
    # the same value in a Python profile fails the same check with the same message
    with pytest.raises(CorpusError) as python_err:
        generate(CorpusProfile(**profile))
    assert err == f"error: invalid profile {path}: {python_err.value}\n"
    assert str(python_err.value).startswith(f"profile {field} must be ")


def test_gen_reserved_character_in_profile_is_data_error(tmp_path, capsys):
    # no record is generated, so the bad address is never drawn
    profile = {"seed": 1, "n_records": 0, "address_pools": {"USA": ["MIT=CAMBRIDGE"]}}
    path = tmp_path / "reserved.json"
    path.write_text(json.dumps(profile))
    assert main(["gen", "--profile", str(path), "--out", str(tmp_path / "c.tsv")]) == 3
    assert "reserved character '='" in capsys.readouterr().err


def test_gen_fixture(tmp_path, capsys):
    out = tmp_path / "cuba.tsv"
    assert main(["gen", "--fixture", "cuba_t3", "--out", str(out)]) == 0
    assert main(["ingest", "--corpus", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "910 records"


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--n", "5", "--seed", "3", "--countries", "usa"], "--seed, --n, --countries"),
        (["--profile", "missing.json"], "--profile"),
        (["--multi-title-prob", "0.5"], "--multi-title-prob"),
        (["--countries", ""], "--countries"),
    ],
    ids=["seed-n-countries", "profile", "multi-title-prob", "empty-countries"],
)
def test_gen_fixture_refuses_generator_flags(flags, named, tmp_path, capsys):
    out = tmp_path / "cuba.tsv"
    assert main(["gen", "--fixture", "cuba_t3", *flags, "--out", str(out)]) == 2
    assert f"gen --fixture takes none of {named}" in capsys.readouterr().err
    assert not out.exists()


def test_ingest_malformed_is_data_error(tmp_path, capsys):
    path = tmp_path / "bad.tsv"
    path.write_text("R1\t2007\tA REV\tUSA\t\nR1\t2007\tB REV\tUSA\t\n")
    assert main(["ingest", "--corpus", str(path)]) == 3
    assert "duplicate id" in capsys.readouterr().err


def test_missing_corpus_file_is_data_error(capsys):
    assert main(["count", "--corpus", "/nonexistent.tsv", "PY=2007"]) == 3


# -- count ---------------------------------------------------------------------


def test_count_prints_exact_value(cuba_file, capsys):
    assert main(["count", "--corpus", cuba_file, "PY=2007 AND CU=CUBA"]) == 0
    assert capsys.readouterr().out.strip() == "910"


def test_count_censored_prints_floor(cuba_file, capsys):
    args = ["count", "--corpus", cuba_file, "--cap", "500", "--mode", "censored"]
    assert main(args + ["PY=2007 AND CU=CUBA"]) == 0
    assert capsys.readouterr().out.strip() == ">=500"


def test_count_bad_query_is_usage_error(cuba_file, capsys):
    assert main(["count", "--corpus", cuba_file, "PY=2007 AND"]) == 2
    assert "offset" in capsys.readouterr().err
    assert main(["count", "--corpus", cuba_file, "#²"]) == 2
    assert "statement number after '#' (offset 0)" in capsys.readouterr().err
    # more digits than int() converts
    assert main(["count", "--corpus", cuba_file, "#" + "1" * 5000]) == 2
    assert "statement number after '#' (offset 0)" in capsys.readouterr().err


def test_count_takes_a_query_nested_5000_deep(cuba_file, capsys):
    query = "(" * 5000 + "PY=2007 AND CU=CUBA" + ")" * 5000
    assert main(["count", "--corpus", cuba_file, query]) == 0
    assert capsys.readouterr().out.strip() == "910"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["count", "PY=2007 AND"], "offset"),
        (["plan", "--base", "PY=(2007", "--auto"], "offset"),
        (["run", "--base", "PY=2007", "--groups", "AB,B"],
         "groups 'AB' and 'B' both export the records under prefix 'B'"),
        (["validate", "--base", "PY=2007", "--groups", "J/XX=5"], "unknown pivot field"),
    ],
    ids=["count-query", "plan-base", "run-groups", "validate-groups"],
)
def test_bad_query_or_spec_is_usage_error_before_the_corpus_loads(argv, message, tmp_path, capsys):
    missing = str(tmp_path / "missing.tsv")
    assert main([argv[0], "--corpus", missing, *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "missing.tsv" not in err


# -- flag validation -------------------------------------------------------------


def test_unknown_flag_and_bad_cap_are_usage_errors(cuba_file, capsys):
    assert main(["count", "--corpus", cuba_file, "--frobnicate", "PY=1"]) == 2
    assert main(["plan", "--cap", "0", "--corpus", cuba_file, "--base", "PY=1", "--auto"]) == 2
    assert main(["bogus-command"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["plan", "run", "validate"])
def test_partition_field_is_not_a_flag(command, cuba_file, capsys):
    # statements always bucket the source title; an AD partition would leave
    # records without an address out of every statement
    for field in ("SO", "AD"):
        argv = [command, "--corpus", cuba_file, "--base", CUBA_BASE, "--field", field, "--auto"]
        assert main(argv) == 2
        assert "unrecognized arguments: --field" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cap",
    ["\uff11\uff10", "\u0663", "1_000", " 7 ", "7 ", "+7", "-1", "0", "7.0", "", "9" * 5000],
    ids=["full-width", "arabic-indic", "underscore", "spaces", "trailing-space", "plus",
         "negative", "zero", "decimal", "empty", "5000-digits"],
)
def test_cap_takes_ascii_digits_only(cap, cuba_file, capsys):
    assert main(["count", "--corpus", cuba_file, "--cap", cap, "PY=2007"]) == 2
    assert "argument --cap" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [("--n", "1_0"), ("--n", "\uff11\uff10"), ("--seed", "\u0663"), ("--seed", "-1"),
     ("--n", "9" * 5000), ("--multi-title-prob", "\u0660.\u0665"),
     ("--multi-title-prob", "0_5"), ("--multi-title-prob", "0.2.1")],
    ids=["n-underscore", "n-full-width", "seed-arabic-indic", "seed-negative", "n-5000-digits",
         "prob-arabic-indic", "prob-underscore", "prob-two-points"],
)
def test_gen_counts_take_ascii_digits_only(flag, value, tmp_path, capsys):
    out = tmp_path / "c.tsv"
    assert main(["gen", flag, value, "--out", str(out)]) == 2
    assert f"argument {flag}" in capsys.readouterr().err
    assert not out.exists()


def test_exactly_one_planning_source(cuba_file, tmp_path, capsys):
    args = ["run", "--corpus", cuba_file, "--base", CUBA_BASE]
    assert main(args + ["--auto", "--groups", "A,B"]) == 2
    assert "argument --groups: not allowed with argument --auto" in capsys.readouterr().err
    assert main(args) == 2
    assert "one of the arguments --groups --auto is required" in capsys.readouterr().err
    assert main(args + ["--groups", ""]) == 2  # an empty SPEC is no call for --auto
    assert "empty group in group specification" in capsys.readouterr().err
    # refused as usage before the corpus is read, so a missing corpus is no data error
    missing = str(tmp_path / "missing.tsv")
    for command in ("plan", "run", "validate"):
        argv = [command, "--corpus", missing, "--base", CUBA_BASE, "--auto", "--groups", "A"]
        assert main(argv) == 2
    assert "not allowed with argument" in capsys.readouterr().err


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_commands_parse():
    # every `capsplit ...` line of the README's sh blocks, parsed but not run
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["capsplit"]:
                commands.append((line.strip(), words[1:]))
    assert len(commands) >= 5
    parser = build_arg_parser()
    for line, argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


# -- plan ------------------------------------------------------------------------


def test_plan_script_facsimile_and_round_trip(cuba_file, tmp_path, capsys):
    out1, out2 = tmp_path / "s1.txt", tmp_path / "s2.txt"
    args = ["plan", "--corpus", cuba_file, "--base", CUBA_BASE,
            "--groups", REFERENCE_GROUPS_CUBA]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    lines = text.splitlines()
    assert lines[0] == "1. PY=2007 AND CU=CUBA AND (SO=A* OR SO=B*)"
    assert lines[5] == "6. PY=2007 AND CU=CUBA AND SO=J* AND AD=HAVANA"
    assert lines[6] == "7. PY=2007 AND CU=CUBA AND SO=J* NOT AD=HAVANA"
    assert "Statement to find overlapping" in lines
    assert "New Search Strategy (Excluding overlapping)" in lines
    assert lines[-1] == "15. #7 NOT #8"
    # the groups name every record of the base, so nothing is warned
    assert capsys.readouterr().err == ""


def test_plan_and_validate_a_spec_that_leaves_records_out(cuba_file, tmp_path, capsys):
    # SO=JO* AND/NOT AD=HAVANA drops the other J titles
    leaky = REFERENCE_GROUPS_CUBA.replace("J/AD=HAVANA", "JO/AD=HAVANA")
    args = ["--corpus", cuba_file, "--base", CUBA_BASE, "--groups", leaky]
    assert main(["plan", *args, "--out", str(tmp_path / "leaky.txt")]) == 0
    assert capsys.readouterr().err == "warning: groups leave records of the base uncovered: 142\n"
    assert main(["validate", *args]) == 1
    out = capsys.readouterr().out
    assert "method_b.total=768" in out
    assert "direct.count=910" in out
    assert out.endswith("verdict=Mismatch\n")


def test_plan_infeasible_exit_code(cuba_file, capsys):
    args = ["plan", "--corpus", cuba_file, "--cap", "100", "--base", CUBA_BASE,
            "--groups", REFERENCE_GROUPS_CUBA]
    assert main(args) == 4
    assert "cap is 100" in capsys.readouterr().err


def test_plan_past_a_keyword_word_exits_infeasible(tmp_path, capsys):
    path = tmp_path / "keyword.tsv"
    path.write_text("".join(f"R{k}\t2007\tSCIENCE AND TECH {k}\tUSA\t\n" for k in range(60)))
    args = ["plan", "--corpus", str(path), "--base", "PY=2007", "--auto"]
    assert main(args + ["--cap", "20"]) == 4
    assert "SO=SCIENCE AND" in capsys.readouterr().err
    assert main(args + ["--cap", "100"]) == 0
    script = capsys.readouterr().out
    assert len(parse_strategy_script(script).statements) == 1


def test_degenerate_single_statement_script():
    from capsplit import CorpusProfile, EngineConfig, generate, plan_auto

    corpus = generate(CorpusProfile(seed=6, n_records=40))
    engine = CappedEngine(corpus, EngineConfig(cap=10_000))
    strategy = plan_auto(engine, parse("PY=2*"), FieldKind.SO)
    assert len(strategy.statements) == 1
    lines = emit_strategy_script(strategy).splitlines()
    assert lines[1] == "Statement to find overlapping"
    assert lines[2] == "2. #1 NOT #1"  # no pairs exist with one statement
    assert lines[4] == "3. #1 NOT #2"


def test_emitted_script_reparses_to_same_statements(cuba_corpus):
    engine = CappedEngine(cuba_corpus)
    strategy = plan_prescribed(
        engine, parse(CUBA_BASE), FieldKind.SO, parse_group_spec(REFERENCE_GROUPS_CUBA)
    )
    script = emit_strategy_script(strategy)
    assert emit_strategy_script(strategy) == script  # idempotent
    parsed = parse_strategy_script(script)
    assert parsed.statements == strategy.statements
    assert parsed.overlap == strategy.overlap_stmt
    assert parsed.exclusions == strategy.exclusion_stmts


@pytest.mark.parametrize(
    "script, bad_line",
    [
        ("1. SO=A*\n3. SO=B*\n2. SO=C*\n", "3. SO=B*"),  # skipped
        ("1. SO=A*\nStatement to find overlapping\n1. #1 NOT #1\n", "1. #1 NOT #1"),  # repeated
        ("\u0661. PY=2007\n", "\u0661. PY=2007"),  # a digit, but not an ASCII one
        ("01. PY=2007\n", "01. PY=2007"),
    ],
    ids=["skipped", "repeated", "arabic-indic", "leading-zero"],
)
def test_script_numbers_must_run_in_session_order(script, bad_line):
    with pytest.raises(ValueError, match=re.escape(repr(bad_line))):
        parse_strategy_script(script)


@pytest.mark.parametrize(
    "script, bad_line",
    [
        (
            "1. SO=A*\nStatement to find overlapping\n2. #1 NOT #1\n3. #1 AND #1\n",
            "3. #1 AND #1",
        ),
        (
            "1. SO=A*\nStatement to find overlapping\n"
            "New Search Strategy (Excluding overlapping)\n2. #1 NOT #1\n",
            "Statement to find overlapping",
        ),
        (
            "1. SO=A*\nNew Search Strategy (Excluding overlapping)\n2. #1 NOT #1\n"
            "Statement to find overlapping\n3. #1 AND #1\n",
            "New Search Strategy (Excluding overlapping)",
        ),
    ],
    ids=["second-overlap-line", "empty-overlap-section", "exclusions-before-overlap"],
)
def test_script_sections_come_once_and_in_order(script, bad_line):
    with pytest.raises(ValueError, match=re.escape(repr(bad_line))):
        parse_strategy_script(script)


# -- run / validate -----------------------------------------------------------------


def test_validate_reference_fixture(cuba_file, capsys):
    args = ["validate", "--corpus", cuba_file, "--base", CUBA_BASE,
            "--groups", REFERENCE_GROUPS_CUBA]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "overlap.count=34" in out
    assert "method_a.total=910" in out
    assert "method_b.total=910" in out
    assert "direct.count=910" in out
    assert "direct.source=engine" in out
    assert out.endswith("verdict=Exact\n")


def test_validate_refuses_a_split_given_twice_as_a_usage_error(cuba_file, capsys):
    args = ["validate", "--corpus", cuba_file, "--base", CUBA_BASE,
            "--groups", REFERENCE_GROUPS_CUBA + ",J/AD=HAVANA"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("groups 'J/AD=HAVANA' and 'J/AD=HAVANA' both export the records "
            "under prefix 'J'") in captured.err


def test_report_lines_are_machine_parseable(cuba_file, capsys):
    args = ["validate", "--corpus", cuba_file, "--base", CUBA_BASE,
            "--groups", REFERENCE_GROUPS_CUBA]
    assert main(args) == 0
    out = capsys.readouterr().out
    for line in out.splitlines():
        assert re.fullmatch(r"[a-z_.0-9]+=[A-Za-z0-9]+", line), line
    assert out.splitlines()[-1] == "verdict=Exact"


def test_report_marks_unavailable_totals_on_cap_violation():
    from capsplit import Strategy, build_exclusions, build_overlap_statement, run_strategy
    from capsplit.corpus import Corpus
    from capsplit.engine import EngineConfig
    from helpers import make_record

    records = tuple(make_record(f"R{i:03d}", ("A REV",)) for i in range(30))
    engine = CappedEngine(Corpus(records), EngineConfig(cap=10))
    strategy = Strategy(
        base=parse("PY=2007"),
        cap=10,
        statements=(parse("PY=2007 AND SO=A*"),),
        overlap_stmt=build_overlap_statement(1),
        exclusion_stmts=tuple(build_exclusions(1)),
    )
    text = emit_report(run_strategy(strategy, engine))
    assert "statement.1.count=30" in text
    assert "method_a.total=unavailable" in text
    assert "verdict=CapViolation" in text


def test_run_deterministic_output(cuba_file, tmp_path):
    out1, out2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    args = ["run", "--corpus", cuba_file, "--base", CUBA_BASE,
            "--groups", REFERENCE_GROUPS_CUBA]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_validate_mismatch_exits_one(tmp_path, capsys):
    lines = ["# corpus"]
    for i in range(5):
        lines.append(f"R{i}\t2007\tACTA REV {i}\tCUBA\t")
    lines.append("R90\t2007\t0RPHAN REV\tCUBA\t")
    path = tmp_path / "gap.tsv"
    path.write_text("\n".join(lines) + "\n")
    args = ["validate", "--corpus", str(path), "--base", "PY=2007",
            "--groups", "ABCDEFGHIJKLMNOPQRSTUVWXYZ123456789"]
    assert main(args) == 1
    out = capsys.readouterr().out
    assert "verdict=Mismatch" in out
    assert "direct.count=6" in out


def test_validate_censored_uses_oracle_direct(cuba_file, capsys):
    args = ["validate", "--corpus", cuba_file, "--cap", "500", "--mode", "censored",
            "--base", CUBA_BASE, "--auto"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "direct.count=910" in out
    assert "direct.source=oracle" in out
    assert "verdict=Exact" in out


def test_validate_split_pivot_flags(tmp_path, capsys):
    # whole-base pivot split through an empty-prefix group
    lines = ["# corpus"]
    for i in range(4):
        lines.append(f"L{i}\t2007\tA REV {i}\tENGLAND\tUCL LONDON")
    for i in range(7):
        lines.append(f"O{i}\t2007\tB REV {i}\tSCOTLAND\tUNIV EDINBURGH")
    path = tmp_path / "uk.tsv"
    path.write_text("\n".join(lines) + "\n")
    args = ["validate", "--corpus", str(path),
            "--base", "PY=2007 AND CU=(England OR Scotland)",
            "--groups", "/AD=LONDON"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "statement.1.count=4" in out
    assert "statement.2.count=7" in out
    assert "direct.count=11" in out


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("module", ["capsplit", "capsplit.cli"])
def test_python_m_runs_the_command_without_warnings(module):
    # importing the package must not import the CLI module, or runpy warns
    # that capsplit.cli was in sys.modules before it ran as __main__
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-m", module, "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert "usage: capsplit" in done.stdout
