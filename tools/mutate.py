"""Mutation check: which single-operator changes to a module do its tests miss?

    python tools/mutate.py src/capsplit/reconcile.py tests/test_reconcile.py [--timeout 120]

Each mutant changes one thing in the module: it flips one comparison
(``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``, ``is`` and ``is not``,
``in`` and ``not in``), one arithmetic operator (``+`` and ``-``, ``*`` and
``//``, ``/`` to ``*``, ``%`` to ``//``, ``**`` to ``*``), or one bitwise
operator (``&`` and ``|``, ``^`` to ``|``, ``<<`` and ``>>``), augmented
assignments included, or it adds one to one integer constant. Annotations
are skipped: they are never evaluated at run time.

The tests run once on the unchanged module, which must pass, and then once
per mutant, under pytest with ``-x``, in a fresh interpreter with a time
limit. A mutant is killed when the tests fail or run out of time, and
survives when they pass. The tool never writes the file it is given: it
mutates a copy of the repository in a temporary directory, which is removed
at the end however the runs end.

It prints one line per mutant and then the survivors. A survivor listed in
``EQUIVALENT``, with the reason it cannot change behaviour, is reported but
accepted. The exit status is 1 if any other mutant survives, else 0.
Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FLIPS: dict[type, type] = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.Div: ast.Mult, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift,
}

SYMBOLS: dict[type, str] = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//", ast.Div: "/",
    ast.Mod: "%", ast.Pow: "**", ast.BitAnd: "&", ast.BitOr: "|", ast.BitXor: "^",
    ast.LShift: "<<", ast.RShift: ">>",
}

# Survivors that cannot change behaviour, keyed by (file, function, source
# line of the mutated node, change), each with the reason.
_EMPTY_OPENING_RUN = (
    "the count of an empty opening run is never read: longest_fit returns it only "
    "for width 0, where pack deepens the next item, and replaces it after a probe fits"
)
EQUIVALENT: dict[tuple[str, str, str, str], str] = {
    ("src/capsplit/planner.py", "_Packer.expand", "return children, [], 0", "0 -> 1"):
        _EMPTY_OPENING_RUN,
    ("src/capsplit/planner.py", "_Packer.pack",
     "current, current_count, too_wide = [], 0, None", "0 -> 1"): _EMPTY_OPENING_RUN,
    ("src/capsplit/planner.py", "plan_auto",
     "runs = [(symbols, whole.value)] if whole.fits(cap) else packer.pack(symbols, [], 0)",
     "0 -> 1"): _EMPTY_OPENING_RUN,
    ("src/capsplit/planner.py", "_Packer.longest_fit", "steps += 1", "+ -> -"):
        "only the parity of steps is read, and -k has the parity of k",
    ("src/capsplit/engine.py", "_FieldIndex.leaf", "buf = bytearray((self._size + 7) >> 3)",
     "7 -> 8"): "it adds at most one zero byte, and a zero-padded little-endian buffer "
                "reads as the same int",
    ("src/capsplit/engine.py", "_term_table",
     'starts = array("I", accumulate(map(free.__getitem__, terms), initial=0))', "0 -> 1"):
        "every term's slice moves up one slot together, past one unused slot, so every "
        "leaf reads the same codes",
    **{("src/capsplit/query.py", function, line, "0 -> 1"):
       "a token's kind and text are the same string for '(', ')', '=' and a keyword, and no "
       "other token's text is one of them, so reading the text decides as the kind does"
       for function, line in (
           ("parse", 'while tokens[i][0] == "(":'),
           ("parse", 'elif kind == "word" and tokens[i + 1][0] == "=":'),
           ("_value", 'group = tokens[i][0] == "("'),
           ("_value", 'if tokens[i][0] == ")":'),
           ("_value", 'if tokens[i][0] != "OR":'))},
    ("src/capsplit/query.py", "_print_operator", "if len(left) >= len(right):", ">= -> >"):
        "operands of equal length only change which deque takes the other's pieces; "
        "the printed text is the same",
}


@dataclass(frozen=True)
class Mutant:
    index: int  # in walk order, so a mutant can be applied to a fresh parse
    line: int
    function: str
    text: str  # the source line, stripped
    change: str

    @property
    def key(self) -> tuple[str, str, str]:
        return self.function, self.text, self.change


def _sites(tree: ast.Module) -> list[tuple[ast.AST, str, object, str]]:
    """Every mutable site, in walk order: (node, attribute, index or None, function).

    The attribute names what changes: ``op`` of a binary or augmented
    assignment, ``ops`` (with an index) of a comparison, ``value`` of an
    integer constant. Annotations and return annotations are not entered.
    """
    sites: list[tuple[ast.AST, str, object, str]] = []

    def walk(node: ast.AST, scope: list[str]) -> None:
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in FLIPS:
            sites.append((node, "op", None, ".".join(scope)))
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in FLIPS:
                    sites.append((node, "ops", i, ".".join(scope)))
        elif (isinstance(node, ast.Constant) and type(node.value) is int):
            sites.append((node, "value", None, ".".join(scope)))
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = [*scope, node.name]
        for name, value in ast.iter_fields(node):
            if name in ("annotation", "returns"):
                continue
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    walk(child, inner)

    walk(tree, [])
    return sites


def _apply(node: ast.AST, attr: str, index: object) -> str:
    """Change one site in place and describe the change."""
    if attr == "value":
        node.value += 1
        return f"{node.value - 1} -> {node.value}"
    if attr == "ops":
        old = node.ops[index]
        node.ops[index] = FLIPS[type(old)]()
    else:
        old = node.op
        node.op = FLIPS[type(old)]()
    new = node.ops[index] if attr == "ops" else node.op
    return f"{SYMBOLS[type(old)]} -> {SYMBOLS[type(new)]}"


def mutants(source: str) -> list[Mutant]:
    lines = source.splitlines()
    found = []
    for index, (node, attr, i, function) in enumerate(_sites(ast.parse(source))):
        change = _apply(node, attr, i)
        found.append(Mutant(index, node.lineno, function or "<module>",
                            lines[node.lineno - 1].strip(), change))
    return found


def mutated_source(source: str, index: int) -> str:
    tree = ast.parse(source)
    node, attr, i, _ = _sites(tree)[index]
    _apply(node, attr, i)
    return ast.unparse(tree) + "\n"


def run_tests(copy: Path, tests: list[str], timeout: float) -> str:
    """'passed', 'failed' or 'timeout'; the whole process group is killed at the limit."""
    # no .pyc: a mutant of the same size written within a second of the last
    # one would otherwise load the last one's cached bytecode
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    proc = subprocess.Popen(command, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        return "passed" if proc.wait(timeout=timeout) == 0 else "failed"
    except subprocess.TimeoutExpired:
        return "timeout"
    finally:  # also when this tool is interrupted
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("file", help="module to mutate, inside this repository")
    parser.add_argument("tests", nargs="+", help="test files to run against each mutant")
    parser.add_argument("--timeout", type=float, default=60.0,
                        help="seconds per test run before the mutant counts as killed")
    args = parser.parse_args(argv)
    # a terminated run still kills its test process and removes its copy
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    target = Path(args.file).resolve().relative_to(ROOT)
    tests = [str(Path(t).resolve().relative_to(ROOT)) for t in args.tests]
    source = (ROOT / target).read_text()
    found = mutants(source)
    survivors: list[Mutant] = []
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", ".bench_out", "__pycache__", ".hypothesis", ".pytest_cache", "*.tsv"))
        mutable = copy / target
        mutable.write_text(ast.unparse(ast.parse(source)) + "\n")
        if run_tests(copy, tests, args.timeout) != "passed":
            print(f"the tests do not pass on the unchanged {target}", file=sys.stderr)
            return 2
        for mutant in found:
            mutable.write_text(mutated_source(source, mutant.index))
            start = time.perf_counter()
            outcome = run_tests(copy, tests, args.timeout)
            print(f"{'survived' if outcome == 'passed' else 'killed':8} {outcome:7} "
                  f"{time.perf_counter() - start:6.1f}s  {target}:{mutant.line} "
                  f"{mutant.function}: {mutant.change} in {mutant.text!r}", flush=True)
            if outcome == "passed":
                survivors.append(mutant)
    unexplained = 0
    print(f"\n{len(found)} mutants, {len(found) - len(survivors)} killed, "
          f"{len(survivors)} survived")
    for mutant in survivors:
        reason = EQUIVALENT.get((str(target), *mutant.key))
        unexplained += reason is None
        print(f"  {target}:{mutant.line} {mutant.function}: {mutant.change} in {mutant.text!r}"
              + (f"  (equivalent: {reason})" if reason else ""))
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
