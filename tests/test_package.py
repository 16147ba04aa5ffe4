"""The package stays pure standard library, keeps the names the benchmark uses,
``query.py`` walks and parses trees of any depth without recursion, and
``corpus.py`` draws through ``random``'s public primitives only."""

from __future__ import annotations

import ast
import dataclasses
import subprocess
import sys
from pathlib import Path

import capsplit

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "capsplit"

# what perfbench/gen.py and perfbench/workloads.py call on the package by name
BENCHMARK_NAMES = (
    "build_fixture", "generate", "CorpusProfile", "save_corpus", "serialize",
    "EngineConfig", "FieldKind", "parse_group_spec",
)

# what perfbench/workloads.py reads off each export's strategy, report and report rows
# (emit_report, which perfbench digests, reads a row's number and running sum too)
BENCHMARK_FIELDS = {
    capsplit.Strategy: ("base", "cap", "statements", "overlap_stmt", "exclusion_stmts"),
    capsplit.RunReport: (
        "per_statement", "verdict", "max_multiplicity", "method_a_total", "method_b_total",
        "union_cardinality", "direct_count", "direct_source",
    ),
    capsplit.reconcile.Row: ("number", "count", "running_sum"),
}


def test_package_imports_only_stdlib_and_itself():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            outside += [
                f"{path.name}: {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_package_keeps_every_name_the_benchmark_calls():
    # read perfbench/tracing.py's name tables as literals, without running or importing it
    tracing = ROOT / "perfbench" / "tracing.py"
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in ast.parse(tracing.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("API_SPANS", "ENGINE_METHODS")
    }
    names = [*tables["API_SPANS"], *BENCHMARK_NAMES]
    assert "plan_censored" in names
    missing = [name for name in names if not hasattr(capsplit, name)]
    engine = capsplit.CappedEngine
    missing += [f"CappedEngine.{m}" for m in tables["ENGINE_METHODS"] if not hasattr(engine, m)]
    assert missing == []


def test_every_public_name_imports_from_the_package_and_the_cli_loads_on_use():
    names = [name for name in dir(capsplit) if not name.startswith("_")]
    assert {"cli", "emit_report", "emit_strategy_script", "parse_strategy_script"} <= set(names)
    assert capsplit.emit_report is capsplit.cli.emit_report
    # a fresh interpreter: importing the package leaves the CLI module unloaded
    code = ("import sys, capsplit; loaded = 'capsplit.cli' in sys.modules; "
            f"from capsplit import {', '.join(names)}; print(loaded)")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT / "src",
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "False\n")


def test_strategy_and_report_keep_every_field_the_benchmark_reads():
    missing = [
        f"{cls.__name__}.{name}"
        for cls, names in BENCHMARK_FIELDS.items()
        for name in names
        if name not in {field.name for field in dataclasses.fields(cls)}
    ]
    assert missing == []


def test_query_oracle_stays_independent_of_the_engine():
    # the index-free evaluator is the check on the engine, planner and reconciliation
    path = PACKAGE / "query.py"
    imported = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            imported += [module, *(f"{module}.{alias.name}" for alias in node.names)]
    parts = {part for name in imported for part in name.split(".")}
    assert parts.isdisjoint({"engine", "planner", "reconcile"})


def test_query_module_has_no_recursion():
    # trees of any depth: no function in query.py calls itself, directly or through
    # others (a method's calls through self count; other attribute calls do not)
    path = PACKAGE / "query.py"
    calls: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if not isinstance(node, ast.FunctionDef):
            continue
        callees = calls.setdefault(node.name, set())
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if isinstance(func, ast.Name):
                callees.add(func.id)
            elif isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "self":
                callees.add(func.attr)
    recursive = []
    for name in calls:
        seen: set[str] = set()
        todo = list(calls[name])
        while todo:
            callee = todo.pop()
            if callee in calls and callee not in seen:
                seen.add(callee)
                todo += calls[callee]
        if name in seen:
            recursive.append(name)
    assert recursive == []


def test_corpus_draws_through_public_primitives_only():
    # the generator and fixtures draw through getrandbits and random: no draw pays for the
    # frames of random's own choice/choices/randint/randrange/shuffle, and nothing leans
    # on its private helpers (_randbelow and the like)
    path = PACKAGE / "corpus.py"
    banned = {"choice", "choices", "randint", "randrange", "shuffle"}
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        # an attribute or an imported name may be random's; a bare name is the module's own
        if isinstance(node, ast.Attribute):
            names, theirs = [node.attr], True
        elif isinstance(node, ast.ImportFrom):
            names, theirs = [alias.name for alias in node.names], True
        elif isinstance(node, ast.Name):
            names, theirs = [node.id], False
        else:
            continue
        found += [
            f"line {node.lineno}: {name}"
            for name in names
            if name in banned or (theirs and name.startswith("_rand"))
        ]
    assert found == []
