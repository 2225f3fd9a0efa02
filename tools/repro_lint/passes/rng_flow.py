"""rng-flow: dataflow rules over Generator/SeedSequence values.

Three rules share one intraprocedural tracker
(:mod:`repro_lint.dataflow`); each guards a different way a single
function can break the bit-identity contract:

* ``rng-boundary-reuse`` — a stream is consumed after (or handed off
  more than once across) a worker/checkpoint boundary;
* ``rng-raw-seed`` — a Generator is built from a raw integer literal
  instead of a spawned ``SeedSequence`` (streams seeded ``1, 2, 3...``
  are not statistically independent, and hand-allocated seed ranges
  collide the moment two components pick the same constants);
* ``rng-unordered-iter`` — a draw happens inside iteration over a set
  (hash-seed-dependent order) or an unsorted dict view, so the draw
  sequence depends on interpreter state rather than the seed.

All three apply to library code under ``src/`` only; the sanctioned
seeding module is exempt from ``rng-raw-seed``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional

from repro_lint.callgraph import FunctionInfo, ProjectGraph
from repro_lint.dataflow import (
    RngEvent,
    RngTracker,
    draws_in_loop,
    track_function,
    unordered_iterable,
)
from repro_lint.engine import Finding, Severity
from repro_lint.passes import ProjectPass


def _in_scope(function: FunctionInfo) -> bool:
    parts = function.path.parts
    return "src" in parts


def _is_seeding_module(function: FunctionInfo) -> bool:
    return function.path.parts[-3:] == ("repro", "utils", "seeding.py")


class RngBoundaryReusePass(ProjectPass):
    id = "rng-boundary-reuse"
    severity = Severity.ERROR
    description = (
        "a Generator handed to a worker/checkpoint boundary must not be "
        "consumed again (or handed off repeatedly): spawn child streams "
        "instead of sharing one"
    )

    def run(self, graph: ProjectGraph) -> Iterator[Finding]:
        for function in graph.functions.values():
            if not _in_scope(function):
                continue
            tracker = track_function(function)
            yield from self._check(function, tracker)

    def _check(
        self, function: FunctionInfo, tracker: RngTracker
    ) -> Iterator[Finding]:
        path = str(function.path)
        first_handoff: Dict[str, RngEvent] = {}
        for event in tracker.events:
            if event.kind == "handoff":
                previous = first_handoff.get(event.var)
                if previous is not None:
                    yield self.finding(
                        path,
                        event.node,
                        f"generator `{event.var}` handed to a second "
                        f"{event.detail} boundary (first at line "
                        f"{previous.node.lineno}): two workers would share "
                        "one stream — spawn a child SeedSequence per "
                        "handoff",
                    )
                    continue
                first_handoff[event.var] = event
                created = tracker.created_in.get(event.var)
                if created is not None and len(event.loops) > len(created):
                    yield self.finding(
                        path,
                        event.node,
                        f"generator `{event.var}` (created outside the "
                        f"loop) is handed to a {event.detail} boundary on "
                        "every iteration: each submission shares the same "
                        "stream — spawn a child stream per iteration",
                    )
            elif event.kind == "draw" and event.var in first_handoff:
                handoff = first_handoff[event.var]
                yield self.finding(
                    path,
                    event.node,
                    f"generator `{event.var}` consumed after being handed "
                    f"to a {handoff.detail} boundary at line "
                    f"{handoff.node.lineno}: parent and worker now draw "
                    "from one stream in racy order — spawn a child stream "
                    "for the worker",
                )


class RngRawSeedPass(ProjectPass):
    id = "rng-raw-seed"
    severity = Severity.WARNING
    description = (
        "library Generators must derive from a spawned SeedSequence "
        "(repro.utils.seeding), not a raw integer literal"
    )

    def run(self, graph: ProjectGraph) -> Iterator[Finding]:
        for function in graph.functions.values():
            if not _in_scope(function) or _is_seeding_module(function):
                continue
            tracker = track_function(function)
            for event in tracker.events:
                if event.kind == "create" and event.detail == "raw-int":
                    yield self.finding(
                        str(function.path),
                        event.node,
                        f"generator `{event.var}` seeded with a raw integer "
                        "literal: derive it from a spawned SeedSequence "
                        "(repro.utils.seeding.make_rng / "
                        "SeedSequenceFactory) so streams stay independent",
                    )


class RngUnorderedIterPass(ProjectPass):
    id = "rng-unordered-iter"
    severity = Severity.ERROR
    description = (
        "no RNG draw inside iteration over a set or unsorted dict view: "
        "the draw order would depend on hash/insertion state, silently "
        "breaking bit-identity"
    )

    def run(self, graph: ProjectGraph) -> Iterator[Finding]:
        for function in graph.functions.values():
            if not _in_scope(function):
                continue
            tracker = track_function(function)
            yield from self._check(function, tracker)

    def _check(
        self, function: FunctionInfo, tracker: RngTracker
    ) -> Iterator[Finding]:
        path = str(function.path)
        for loop in self._loops(function.node):
            kind = unordered_iterable(loop.iter)
            if kind is None:
                continue
            noun = (
                "a set (hash-seed-dependent order)"
                if kind == "set"
                else "an unsorted dict view"
            )
            for draw in draws_in_loop(loop, tracker.generators):
                yield self.finding(
                    path,
                    draw,
                    f"RNG draw inside iteration over {noun}: wrap the "
                    "iterable in sorted(...) so the draw sequence depends "
                    "only on the seed",
                )

    @staticmethod
    def _loops(node: ast.AST) -> List[ast.For]:
        loops: List[ast.For] = []
        stack: List[ast.AST] = list(ast.iter_child_nodes(node))
        while stack:
            child = stack.pop()
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            if isinstance(child, ast.For):
                loops.append(child)
            stack.extend(ast.iter_child_nodes(child))
        return loops
