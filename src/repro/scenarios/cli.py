"""Command-line interface for the scenario zoo.

Installed as ``repro-scenarios``::

    repro-scenarios list [--verbose]
    repro-scenarios show pulsing-shrew
    repro-scenarios run pulsing-shrew --mode detected --tier compiled
    repro-scenarios run --spec my-campaign.json --json report.json

``show`` prints the committed spec JSON; ``run`` replays a campaign
through the detection→repair loop and prints its phased report.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.detection.loop import LOOP_MODES
from repro.errors import ReproError
from repro.perf.compiled import TIERS
from repro.scenarios.runner import ScenarioRunReport, run_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.zoo import list_scenarios, load_scenario, scenario_path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-scenarios",
        description="List, inspect, and run attack-campaign scenarios.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    list_cmd = commands.add_parser("list", help="list zoo scenarios")
    list_cmd.add_argument(
        "--verbose", action="store_true", help="include descriptions"
    )

    show_cmd = commands.add_parser("show", help="print a scenario spec")
    show_cmd.add_argument("name", help="zoo scenario name")

    run_cmd = commands.add_parser("run", help="run a scenario campaign")
    run_cmd.add_argument(
        "name", nargs="?", help="zoo scenario name (or use --spec)"
    )
    run_cmd.add_argument(
        "--spec", metavar="PATH", help="run a spec from a JSON file instead"
    )
    run_cmd.add_argument(
        "--mode",
        choices=LOOP_MODES,
        default="detected",
        help="repair mode (default: detected)",
    )
    run_cmd.add_argument(
        "--phases", type=int, default=3, help="repair phases (default: 3)"
    )
    run_cmd.add_argument(
        "--tier",
        choices=TIERS,
        help="execution tier (default: the spec's)",
    )
    run_cmd.add_argument(
        "--seed", type=int, help="seed override (default: the spec's)"
    )
    run_cmd.add_argument(
        "--json", metavar="PATH", help="also write the report as JSON"
    )
    return parser


def _render_report(report: ScenarioRunReport) -> str:
    lines = [
        f"scenario {report.scenario}: mode={report.mode} "
        f"tier={report.tier} seed={report.seed}",
        f"  initial targets ({len(report.initial_targets)}): "
        f"{list(report.initial_targets)}",
    ]
    for phase in range(report.phases):
        lines.append(
            f"  phase {phase}: delivery="
            f"{report.delivery_per_phase[phase]:.4f} "
            f"sent={report.sent_per_phase[phase]} "
            f"attack={report.attack_packets_per_phase[phase]} "
            f"flagged={len(report.flagged_per_phase[phase])} "
            f"repaired={len(report.repaired_per_phase[phase])}"
        )
    lines.append(
        f"  final delivery={report.final_delivery:.4f} "
        f"precision={report.precision:.4f} recall={report.recall:.4f} "
        f"repaired={report.total_repaired}"
    )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            for name in list_scenarios():
                if args.verbose:
                    spec = load_scenario(name)
                    print(f"{name}: {spec.description}")
                else:
                    print(name)
            return 0

        if args.command == "show":
            print(scenario_path(args.name).read_text().rstrip("\n"))
            return 0

        # run
        if (args.name is None) == (args.spec is None):
            print(
                "pass exactly one of a zoo name or --spec PATH",
                file=sys.stderr,
            )
            return 2
        if args.spec is not None:
            try:
                with open(args.spec, "r", encoding="utf-8") as handle:
                    text = handle.read()
            except OSError as exc:
                print(f"error: cannot read {args.spec}: {exc}", file=sys.stderr)
                return 1
            scenario = ScenarioSpec.from_json(text)
        else:
            scenario = load_scenario(args.name)
        report = run_scenario(
            scenario,
            mode=args.mode,
            phases=args.phases,
            tier=args.tier,
            seed=args.seed,
        )
        print(_render_report(report))
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(report.to_dict(), handle, indent=2)
                handle.write("\n")
            print(f"wrote JSON to {args.json}")
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
