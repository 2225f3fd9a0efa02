"""repro-scenarios CLI: list / show / run."""

from __future__ import annotations

import json

import pytest

from repro.scenarios.cli import main
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.zoo import ZOO_DIR, list_scenarios

from tests.scenarios.conftest import tiny_spec


def test_list_prints_every_zoo_name(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == list_scenarios()


def test_list_verbose_includes_descriptions(capsys):
    assert main(["list", "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "flash-crowd:" in out
    assert "flash crowd" in out.lower()


def test_show_prints_the_committed_spec(capsys):
    assert main(["show", "pulsing-shrew"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out) == json.loads(
        (ZOO_DIR / "pulsing-shrew.json").read_text()
    )


def test_show_unknown_name_fails_cleanly(capsys):
    assert main(["show", "nope"]) == 1
    assert "unknown scenario" in capsys.readouterr().err


def test_run_zoo_scenario_with_json_output(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    assert (
        main(
            [
                "run",
                "stealth-lowrate",
                "--phases",
                "1",
                "--mode",
                "none",
                "--json",
                str(out_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "scenario stealth-lowrate" in out
    payload = json.loads(out_path.read_text())
    assert payload["scenario"] == "stealth-lowrate"
    assert payload["mode"] == "none"
    assert payload["phases"] == 1


def test_run_spec_file(capsys, tmp_path):
    spec_path = tmp_path / "campaign.json"
    spec_path.write_text(tiny_spec().to_json())
    assert main(["run", "--spec", str(spec_path), "--phases", "1"]) == 0
    assert "scenario tiny" in capsys.readouterr().out


def test_run_requires_exactly_one_source(capsys, tmp_path):
    assert main(["run"]) == 2
    spec_path = tmp_path / "campaign.json"
    spec_path.write_text(tiny_spec().to_json())
    assert main(["run", "pulsing-shrew", "--spec", str(spec_path)]) == 2


def test_run_missing_spec_file_fails_cleanly(capsys, tmp_path):
    assert main(["run", "--spec", str(tmp_path / "missing.json")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_run_rejects_bad_engine():
    # --engine is gone: any value, including the old ones, is refused.
    for engine in ("warp", "event", "fast"):
        with pytest.raises(SystemExit):
            main(["run", "pulsing-shrew", "--engine", engine])


def test_entry_point_is_wired():
    import tomllib

    with open("pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)
    assert (
        project["project"]["scripts"]["repro-scenarios"]
        == "repro.scenarios.cli:main"
    )
    assert "scenarios/zoo/*.json" in (
        project["tool"]["setuptools"]["package-data"]["repro"]
    )
    # ScenarioSpec class is importable from the entry module's target
    assert ScenarioSpec is not None
