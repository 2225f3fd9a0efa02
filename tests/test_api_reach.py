"""No library API that only tests reach.

A top-level or method definition under ``src/repro`` whose name appears
nowhere in the program (``src/``, ``tools/``, ``examples/``,
``benchmarks/``, ``perfbench/`` and the build files) except at its own
definition has no caller but the test suite. Such code is deleted
together with its tests rather than kept alive by them. The scan is a
plain name match, so a name mentioned in a docstring counts as reached,
and dunder methods are skipped (the data model calls them, not a name).
The few definitions that stay on purpose are listed in ``ALLOWED`` with
the reason.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parents[1]
PROGRAM_DIRS = ("src", "tools", "examples", "benchmarks", "perfbench")
BUILD_FILES = ("Makefile", "pyproject.toml", "setup.py")
TEXT_SUFFIXES = {
    ".py", ".c", ".h", ".toml", ".cfg", ".ini", ".json", ".md", ".txt",
    ".yml", ".yaml", ".sh",
}

ALLOWED = {
    "repro.perf.__getattr__": (
        "the package's lazy attribute hook; Python calls it by protocol"
    ),
    "repro.perf._cc._reset_for_tests": (
        "test hook that drops the cached C library so a test can rebuild it"
    ),
}


def _program_words() -> Counter:
    paths = [
        path
        for directory in PROGRAM_DIRS
        for path in (ROOT / directory).rglob("*")
        if path.is_file()
        and path.suffix in TEXT_SUFFIXES
        and "__pycache__" not in path.parts
    ]
    paths += [ROOT / name for name in BUILD_FILES if (ROOT / name).exists()]
    words: Counter = Counter()
    for path in paths:
        words.update(
            re.findall(r"[A-Za-z_]\w*", path.read_text(errors="replace"))
        )
    return words


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreached_definitions() -> List[str]:
    """Qualified names of definitions reached only by their own ``def``."""
    definitions = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
        module = module.removesuffix(".__init__")
        for node in ast.parse(path.read_text()).body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            definitions.append((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                definitions.extend(
                    (f"{module}.{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not _is_dunder(item.name)
                )
    defined = Counter(name for _, name in definitions)
    words = _program_words()
    return sorted(
        qualified
        for qualified, name in definitions
        if words[name] <= defined[name]
    )


def test_no_test_only_api():
    assert unreached_definitions() == sorted(ALLOWED)
