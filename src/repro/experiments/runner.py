"""Command-line experiment runner.

Usage (installed as ``repro-experiments``)::

    repro-experiments --list
    repro-experiments fig4a fig6b
    repro-experiments --all
    repro-experiments --paper-only --markdown out.md

Each run prints the same rows/series the paper's figure plots, an ASCII
rendering of the curve shapes, and PASS/FAIL for every machine-checked
claim the paper makes about that figure.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import ReproError
from repro.experiments.figures import PAPER_FIGURES, available, run_figure
from repro.experiments.report import render_markdown, render_text
from repro.perf.compiled import TIERS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the figures of the ICDCS 2004 SOS paper.",
    )
    parser.add_argument("figures", nargs="*", help="figure ids to run")
    parser.add_argument("--all", action="store_true", help="run every figure")
    parser.add_argument(
        "--paper-only", action="store_true", help="run only the paper's figures"
    )
    parser.add_argument("--list", action="store_true", help="list figure ids")
    parser.add_argument(
        "--no-plot", action="store_true", help="suppress ASCII plots"
    )
    parser.add_argument(
        "--markdown",
        metavar="PATH",
        help="also write results as markdown to PATH",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="also write results as JSON to PATH (loadable via "
        "repro.utils.serialization.load_results)",
    )
    parser.add_argument(
        "--trials",
        type=int,
        help="override Monte Carlo trial counts on figures that sample",
    )
    parser.add_argument(
        "--seed",
        type=int,
        help="override the seed on figures that sample",
    )
    parser.add_argument(
        "--tier",
        choices=TIERS,
        help="execution tier for figures that accept one "
        "(bit-identical; only speed changes)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        for figure_id in available():
            print(figure_id)
        return 0

    if args.all:
        targets = available()
    elif args.paper_only:
        targets = list(PAPER_FIGURES)
    else:
        targets = args.figures
    if not targets:
        print("nothing to run; pass figure ids, --all, or --paper-only",
              file=sys.stderr)
        return 2

    markdown_sections = []
    results = []
    failures = 0
    errors = []
    overrides = {}
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.tier is not None:
        overrides["tier"] = args.tier
    for figure_id in targets:
        try:
            result = run_figure(figure_id, **overrides)
        except ReproError as exc:
            # One broken figure must not abort the rest of the batch;
            # record it and keep going, then fail loudly at the end.
            print(f"ERROR [{figure_id}]: {exc}", file=sys.stderr)
            errors.append((figure_id, str(exc)))
            continue
        results.append(result)
        print(render_text(result, plot=not args.no_plot))
        markdown_sections.append(render_markdown(result))
        failures += len(result.failed_claims())

    if args.json:
        from repro.utils.serialization import save_results

        save_results(results, args.json)
        print(f"wrote JSON to {args.json}")

    if args.markdown:
        with open(args.markdown, "w", encoding="utf-8") as handle:
            handle.write("# Reproduced experiments\n\n")
            handle.write("\n".join(markdown_sections))
        print(f"wrote markdown to {args.markdown}")

    if errors:
        print(
            f"{len(errors)} figure(s) errored "
            f"({len(results)} of {len(targets)} completed):",
            file=sys.stderr,
        )
        for figure_id, message in errors:
            print(f"  {figure_id}: {message}", file=sys.stderr)
        return 2
    if failures:
        print(f"{failures} claim(s) FAILED", file=sys.stderr)
        return 1
    print("all claims PASS")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
