"""Output checks for the benchmark's workloads.

Each check takes the program's output (and a reference where one exists)
and returns ``None`` when the output is right or a one-line reason when
it is not. They compare against properties that survive legitimate
changes to the program: packet conservation, seed reproducibility, a
delivery band wide enough for an exact-routing rewrite, cross-tier and
serial/parallel bit-identity, and the analytical model.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional

#: Delivery ratio band for the 10^6-node flooded round. The fast engine
#: delivers ~0.051 and the exact event engine ~0.0505 on this config;
#: half to double that leaves room for a routing rewrite and still
#: catches a broken forwarding path.
FLOOD_DELIVERY_BAND = (0.025, 0.10)


def flood_report(report: Any) -> Optional[str]:
    """Every legitimate packet is delivered or dropped exactly once."""
    accounted = (
        report.delivered + report.dropped_at_congested + report.dropped_no_neighbor
    )
    if report.sent != accounted:
        return (
            f"packet conservation broken: sent {report.sent} != delivered "
            f"{report.delivered} + congested {report.dropped_at_congested} + "
            f"no-neighbor {report.dropped_no_neighbor}"
        )
    low, high = FLOOD_DELIVERY_BAND
    if not low <= report.delivery_ratio <= high:
        return (
            f"delivery ratio {report.delivery_ratio:.4f} outside the pinned "
            f"band [{low}, {high}]"
        )
    return None


def flood_rerun(report: Any, rerun: Any) -> Optional[str]:
    """Re-running an op's seed reproduces its report."""
    if report != rerun:
        return "re-running the op's seed did not reproduce its report"
    return None


def zoo_report(report: Any, reference: Any) -> Optional[str]:
    """A zoo report equals the compiled-tier run apart from the tier label."""
    if dataclasses.replace(reference, tier=report.tier) != report:
        return (
            f"scenario {report.scenario!r} differs from its compiled-tier "
            "reference run"
        )
    return None


def mc_estimate(result: Any, serial: Any) -> Optional[str]:
    """A parallel Monte Carlo estimate equals the serial one."""
    if result != serial:
        return f"parallel estimate {result} != serial estimate {serial}"
    return None


def eval_answer(p_s: Any, reference: float) -> Optional[str]:
    """A served ``p_s`` equals ``repro.core.evaluate`` on the same payload."""
    if p_s != reference:
        return f"served p_s {p_s!r} != evaluate() {reference!r}"
    return None
