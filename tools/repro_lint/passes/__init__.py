"""Project-level analysis passes (call graph / dataflow backed).

A :class:`ProjectPass` is the multi-file counterpart of
:class:`repro_lint.engine.Rule`: it sees the whole
:class:`~repro_lint.callgraph.ProjectGraph` instead of one module, so it
can follow calls across imports. Findings flow through the same per-file
suppression and baseline machinery as statement-level rules.

Adding a pass: subclass :class:`ProjectPass` in a module under this
package, append an instance to :data:`ALL_PASSES`, and add at least one
seeded true positive and one guarded false positive to the fixture
corpus under ``tests/tools/fixtures/``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List

from repro_lint.callgraph import ProjectGraph
from repro_lint.engine import Finding, Severity


class ProjectPass:
    """Base class for flow-aware passes over the project graph."""

    id: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""

    def run(self, graph: ProjectGraph) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, path: str, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule_id=self.id,
            severity=self.severity,
            path=path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


def module_segments(module_name: str) -> List[str]:
    return module_name.split(".")


from repro_lint.passes.async_safety import AsyncBlockingPass  # noqa: E402
from repro_lint.passes.determinism import WallclockPass  # noqa: E402
from repro_lint.passes.dispatch import ParallelDispatchPass  # noqa: E402
from repro_lint.passes.rng_flow import (  # noqa: E402
    RngBoundaryReusePass,
    RngRawSeedPass,
    RngUnorderedIterPass,
)

ALL_PASSES: List[ProjectPass] = [
    AsyncBlockingPass(),
    ParallelDispatchPass(),
    RngBoundaryReusePass(),
    RngRawSeedPass(),
    RngUnorderedIterPass(),
    WallclockPass(),
]

_BY_ID: Dict[str, ProjectPass] = {p.id: p for p in ALL_PASSES}


def pass_by_id(pass_id: str) -> ProjectPass:
    """Look a pass up by its identifier; raises ``KeyError`` if unknown."""
    return _BY_ID[pass_id]


__all__ = [
    "ALL_PASSES",
    "AsyncBlockingPass",
    "ParallelDispatchPass",
    "ProjectPass",
    "RngBoundaryReusePass",
    "RngRawSeedPass",
    "RngUnorderedIterPass",
    "WallclockPass",
    "module_segments",
    "pass_by_id",
]
