"""parallel-dispatch: one process-pool construction site under ``repro``.

Monte Carlo trials and packet replicas run through one seeded parallel
map, :mod:`repro.perf.parallel`: it alone owns the chunk rule, the
per-worker state, the in-process path and the abort polling that keep
results bit-identical for any worker count. A ``ProcessPoolExecutor`` or
``multiprocessing.Pool`` built anywhere else under ``repro`` is a second
copy of all of that. A bare ``Process`` is not a pool: the service's
supervised workers are long-lived processes, not a map, and pass.
"""

from __future__ import annotations

from typing import Iterator

from repro_lint.callgraph import PROCESS_FACTORIES, ProjectGraph
from repro_lint.engine import Finding, Severity
from repro_lint.passes import ProjectPass, module_segments

#: Constructors of process pools: every process factory but ``Process``.
POOL_FACTORIES = PROCESS_FACTORIES - {"Process"}


class ParallelDispatchPass(ProjectPass):
    id = "parallel-dispatch"
    severity = Severity.ERROR
    description = (
        "process pools under repro are built only in repro.perf.parallel: "
        "run jobs through parallel_map instead of a second pool"
    )

    #: The one module allowed to construct a pool.
    home = "repro.perf.parallel"

    def run(self, graph: ProjectGraph) -> Iterator[Finding]:
        for function in graph.functions.values():
            module = function.module.name
            if module_segments(module)[0] != "repro" or module == self.home:
                continue
            for site in function.calls:
                target = site.target()
                if site.boundary != "process" or target is None:
                    continue
                if target.rsplit(".", 1)[-1] in POOL_FACTORIES:
                    yield self.finding(
                        str(function.path),
                        site.node,
                        f"process pool `{target}` built outside "
                        f"{self.home}: dispatch the jobs through "
                        "parallel_map, which owns the chunk rule, worker "
                        "state and abort polling",
                    )
