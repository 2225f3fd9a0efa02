#!/usr/bin/env python
"""Scenario-zoo smoke harness: every committed campaign against the oracle.

Runs each zoo scenario through the detection→repair loop on the packet
engine AND on the event-driven oracle from ``tests/perf/event_oracle.py``,
asserts that the two full reports are equal (delivery, sent and absorbed
attack packets, flagged and repaired sets, precision and recall, phase by
phase), and writes the delivery × detection-quality matrix as JSON.
Exits non-zero on any mismatch, any failed run, or a blown wall-clock
budget::

    PYTHONPATH=src python tools/scenario_smoke.py --quick --budget 300 \
        --output scenario-smoke.json

CI runs exactly that (the ``scenario-smoke`` job) and uploads the matrix
as an artifact.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Any, Dict, List

# The oracle lives in the test suite, importable from the repo root.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

from repro.scenarios.runner import run_scenario  # noqa: E402
from repro.scenarios.zoo import list_scenarios  # noqa: E402
from tests.perf.event_oracle import event_engine  # noqa: E402


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="2 repair phases per campaign instead of 3",
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="fail if the whole sweep exceeds this wall-clock budget",
    )
    parser.add_argument(
        "--output",
        default="scenario-smoke.json",
        metavar="PATH",
        help="where to write the matrix JSON (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    phases = 2 if args.quick else 3
    names = list_scenarios()
    if not names:
        print("no zoo scenarios found", file=sys.stderr)
        return 1

    started = time.perf_counter()
    matrix: List[Dict[str, Any]] = []
    violations: List[str] = []
    for name in names:
        row: Dict[str, Any] = {"scenario": name}
        for mode in ("none", "detected"):
            fast = run_scenario(name, mode=mode, phases=phases)
            with event_engine():
                event = run_scenario(name, mode=mode, phases=phases)
            identical = fast == event
            if not identical:
                violations.append(
                    f"{name} [{mode}]: the engine and the oracle disagree "
                    f"(delivery {fast.delivery_per_phase} vs "
                    f"{event.delivery_per_phase}, flagged "
                    f"{fast.flagged_per_phase} vs {event.flagged_per_phase})"
                )
            row[mode] = {
                "fast": fast.to_dict(),
                "event": event.to_dict(),
                "oracle_identical": identical,
            }
            print(
                f"{name:22s} {mode:8s} delivery={fast.final_delivery:.4f} "
                f"precision={fast.precision:.2f} recall={fast.recall:.2f} "
                f"oracle={'OK' if identical else 'MISMATCH'}"
            )
        matrix.append(row)
    elapsed = time.perf_counter() - started

    payload = {
        "phases": phases,
        "elapsed_seconds": elapsed,
        "scenarios": matrix,
        "violations": violations,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output} ({elapsed:.1f}s for {len(names)} scenarios)")

    if violations:
        for message in violations:
            print(f"VIOLATION: {message}", file=sys.stderr)
        return 1
    if args.budget is not None and elapsed > args.budget:
        print(
            f"budget blown: {elapsed:.1f}s > {args.budget:.1f}s",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
