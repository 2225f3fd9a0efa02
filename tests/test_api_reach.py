"""No library API that only tests or prose reach.

A top-level or method definition under ``src/repro`` whose name appears
nowhere in the program (``src/``, ``tools/``, ``examples/``,
``benchmarks/``, ``perfbench/`` and the build files) except at its own
definition has no caller but the test suite. Such code is deleted
together with its tests rather than kept alive by them.

A name counts as reached only where program code refers to it. The
Python files are read with ``ast`` (the same on every supported Python,
unlike ``tokenize``, whose f-string tokens changed in 3.12), and a name
counts as

* an identifier: a variable, attribute, argument, keyword, import name
  or alias, or the name of another definition; or
* a word inside a string literal that is not a docstring, so names
  reached through ``getattr``, patch strings such as
  ``"repro.perf.fastsim.run_fast"`` and the C source kept in a string
  still count.

Docstrings (with the doctests in them), bare string statements,
comments and the ``.md`` files under the program directories do not
count. JSON, TOML and the other data and build files still count as
plain text. Dunder methods are skipped: the data model calls them, not a
name. The few definitions that stay on purpose are listed in ``ALLOWED``
with the reason.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path
from typing import Iterator, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
PROGRAM_DIRS = ("src", "tools", "examples", "benchmarks", "perfbench")
BUILD_FILES = ("Makefile", "pyproject.toml", "setup.py")
TEXT_SUFFIXES = {
    ".c", ".h", ".toml", ".cfg", ".ini", ".json", ".txt", ".yml", ".yaml",
    ".sh",
}
WORD = re.compile(r"[A-Za-z_]\w*")

ALLOWED = {
    "repro.perf.__getattr__": (
        "the package's lazy attribute hook; Python calls it by protocol"
    ),
    "repro.perf._cc._reset_for_tests": (
        "test hook that drops the cached C library so a test can rebuild it"
    ),
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _prose_strings(tree: ast.AST) -> set:
    """Ids of the string constants that are docstrings or bare statements."""
    return {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    }


def _code_names(tree: ast.AST) -> Iterator[str]:
    """Every identifier and every word of a non-prose string in ``tree``."""
    prose = _prose_strings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
            if node.asname:
                yield node.asname
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield from node.module.split(".")
        elif isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            yield node.name
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            yield from node.names
        elif isinstance(node, ast.ExceptHandler) and node.name:
            yield node.name
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in prose
        ):
            yield from WORD.findall(node.value)


def _program_words() -> Counter:
    paths = [
        path
        for directory in PROGRAM_DIRS
        for path in (ROOT / directory).rglob("*")
        if path.is_file()
        and not any(
            part == "__pycache__" or part.endswith(".egg-info")
            for part in path.parts
        )
    ]
    paths += [ROOT / name for name in BUILD_FILES if (ROOT / name).exists()]
    words: Counter = Counter()
    for path in paths:
        text = path.read_text(errors="replace")
        if path.suffix == ".py":
            words.update(_code_names(ast.parse(text)))
        elif path.suffix in TEXT_SUFFIXES or path.name == "Makefile":
            words.update(WORD.findall(text))
    return words


def _definitions() -> Iterator[Tuple[str, str, str]]:
    """``(location, qualified name, name)`` of each checked definition."""
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        relative = path.relative_to(ROOT / "src")
        module = ".".join(relative.with_suffix("").parts)
        module = module.removesuffix(".__init__")
        location = path.relative_to(ROOT).as_posix()
        for node in ast.parse(path.read_text()).body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            yield f"{location}:{node.lineno}", f"{module}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ) and not _is_dunder(item.name):
                        yield (
                            f"{location}:{item.lineno}",
                            f"{module}.{node.name}.{item.name}",
                            item.name,
                        )


def unreached_hits() -> List[Tuple[str, str]]:
    """``(path:line, qualified name)`` of the definitions no code names,
    in file and line order."""
    definitions = list(_definitions())
    defined = Counter(name for _, _, name in definitions)
    words = _program_words()
    return [
        (location, qualified)
        for location, qualified, name in definitions
        if words[name] <= defined[name]
    ]


def unreached_definitions() -> List[str]:
    """Qualified names of definitions reached only by their own ``def``."""
    return sorted(qualified for _, qualified in unreached_hits())


def test_no_test_only_api():
    hits = [
        f"{location} {qualified}"
        for location, qualified in unreached_hits()
        if qualified not in ALLOWED
    ]
    assert not hits, "unreached definitions:\n" + "\n".join(hits)
    assert unreached_definitions() == sorted(ALLOWED)
