"""Locating the checkout and importing the program under test from it."""

from __future__ import annotations

import hashlib
import importlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "capsplit"
OUT = ROOT / ".bench_out"


class ProgramMissing(Exception):
    """The checkout holds no capsplit sources to benchmark."""


def import_capsplit():
    """Import capsplit from this checkout's ``src``, never from elsewhere."""
    if not (PACKAGE / "__init__.py").is_file():
        raise ProgramMissing(f"no capsplit package under {SRC}")
    sys.path.insert(0, str(SRC))
    capsplit = importlib.import_module("capsplit")
    if Path(capsplit.__file__).resolve().parent != PACKAGE.resolve():
        raise ProgramMissing(f"capsplit was imported from {capsplit.__file__}, not {PACKAGE}")
    return capsplit


def source_digest() -> str:
    """sha256 over the package's source files, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None
