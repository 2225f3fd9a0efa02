"""wallclock: no wall-clock reads in simulation/detection/perf hot paths.

Simulated time, detection windows, and benchmark identities must be
functions of the seed and the event schedule, never of when the run
happened to execute. ``time.time`` / ``datetime.now`` in those packages
couples results to the host clock (and to NTP steps mid-run);
``time.monotonic`` is the sanctioned interval clock and the engines'
sim-time is the sanctioned timestamp source.

Service/tooling code is out of scope — deadlines and SLO reports are
*supposed* to read real clocks.
"""

from __future__ import annotations

from typing import Iterator

from repro_lint.callgraph import ProjectGraph
from repro_lint.engine import Finding, Severity
from repro_lint.passes import ProjectPass, module_segments

#: Resolved call targets that read the wall clock.
WALLCLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.ctime",
        "time.localtime",
        "time.gmtime",
        "time.strftime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "datetime.now",
        "datetime.utcnow",
        "date.today",
    }
)


class WallclockPass(ProjectPass):
    id = "wallclock"
    severity = Severity.ERROR
    description = (
        "simulation/detection/perf code must not read the wall clock "
        "(time.time, datetime.now): use time.monotonic for intervals or "
        "the engine's sim-time for timestamps"
    )

    #: Module segments whose code is deterministic-by-contract.
    scope = frozenset({"simulation", "detection", "perf"})

    def run(self, graph: ProjectGraph) -> Iterator[Finding]:
        for function in graph.functions.values():
            if not self.scope & set(module_segments(function.module.name)):
                continue
            for site in function.calls:
                target = site.target()
                if target is None:
                    continue
                if target in WALLCLOCK_CALLS:
                    yield self.finding(
                        str(function.path),
                        site.node,
                        f"wall-clock read `{target}` in a deterministic "
                        "package: results must be a function of the seed — "
                        "use time.monotonic for intervals or sim-time for "
                        "timestamps",
                    )
