"""Shared --tier option on the experiment runner."""

from __future__ import annotations

import pytest

from repro.experiments.runner import build_parser


def test_engine_choices():
    # There is one packet engine: the retired --engine/--event-engine
    # options fail loudly instead of being silently ignored.
    parser = build_parser()
    for argv in (
        ["scn-zoo", "--engine", "event"],
        ["scn-zoo", "--engine", "fast"],
        ["scn-zoo", "--event-engine"],
    ):
        with pytest.raises(SystemExit):
            parser.parse_args(argv)


def test_tier_choices():
    parser = build_parser()
    args = parser.parse_args(["scn-zoo", "--tier", "numpy"])
    assert args.tier == "numpy"
    with pytest.raises(SystemExit):
        parser.parse_args(["scn-zoo", "--tier", "gpu"])

