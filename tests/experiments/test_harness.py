"""Tests for the experiment registry, reporting, and CLI runner."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments.figures import REGISTRY, available, run_figure
from repro.experiments.report import render_markdown, render_text
from repro.experiments.result import Claim, FigureResult
from repro.experiments.runner import main


class TestRegistry:
    def test_all_paper_figures_registered(self):
        for figure_id in ("fig4a", "fig4b", "fig6a", "fig6b", "fig7", "fig8a", "fig8b"):
            assert figure_id in REGISTRY

    def test_validation_and_ablations_registered(self):
        for figure_id in ("val-mc", "abl-filters", "abl-prior", "abl-pb", "abl-tradeoff"):
            assert figure_id in REGISTRY

    def test_section5_extensions_registered(self):
        for figure_id in ("ext-latency", "ext-repair", "ext-monitoring"):
            assert figure_id in REGISTRY

    def test_available_lists_everything(self):
        assert set(available()) == set(REGISTRY)

    def test_unknown_figure_rejected(self):
        with pytest.raises(ExperimentError, match="unknown figure"):
            run_figure("fig99")


@pytest.fixture
def sample_result():
    return FigureResult(
        figure_id="figX",
        title="Sample",
        x_label="L",
        x_values=[1, 2],
        series={"s": [0.25, 0.75]},
        claims=[Claim("holds", True), Claim("broken", False)],
        notes="a note",
    )


class TestReport:
    def test_render_text_contains_table_and_claims(self, sample_result):
        text = render_text(sample_result)
        assert "Sample" in text
        assert "0.2500" in text
        assert "[PASS] holds" in text
        assert "[FAIL] broken" in text
        assert "a note" in text

    def test_render_text_without_plot(self, sample_result):
        text = render_text(sample_result, plot=False)
        assert "P_S (top=" not in text

    def test_render_markdown_structure(self, sample_result):
        md = render_markdown(sample_result)
        assert md.startswith("### figX")
        assert "| L | s |" in md
        assert "- [x] holds" in md
        assert "- [ ] broken" in md

    def test_render_text_handles_nan_gaps(self):
        # Infeasible sweep points are stored as NaN; the plot must render
        # them as gaps instead of crashing.
        result = FigureResult(
            figure_id="gappy",
            title="Gappy",
            x_label="L",
            x_values=[1, 2, 3],
            series={"s": [0.5, float("nan"), 0.7]},
        )
        text = render_text(result, plot=True)
        assert "Gappy" in text


class TestRunnerCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig4a" in out

    def test_single_figure(self, capsys):
        assert main(["fig4a", "--no-plot"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 4(a)" in out
        assert "all claims PASS" in out

    def test_no_arguments_errors(self, capsys):
        assert main([]) == 2

    def test_unknown_figure_id_errors_cleanly(self, capsys):
        assert main(["fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown figure" in err

    def test_trials_and_seed_overrides(self, capsys):
        # fig4a takes no trials/seed: overrides must be ignored cleanly.
        assert main(["fig4a", "--no-plot", "--trials", "5", "--seed", "1"]) == 0
        # val-mc accepts both: a tiny run should still succeed.
        assert main(["ext-repair", "--no-plot", "--trials", "5",
                     "--seed", "1"]) in (0, 1)


class TestRunFigureOverrides:
    def test_overrides_forwarded_when_supported(self):
        a = run_figure("fig4a-mc", trials=10, seed=3)
        b = run_figure("fig4a-mc", trials=10, seed=3)
        c = run_figure("fig4a-mc", trials=10, seed=4)
        assert a.series["monte_carlo"] == b.series["monte_carlo"]
        assert a.series["monte_carlo"] != c.series["monte_carlo"]

    def test_unsupported_overrides_ignored(self):
        result = run_figure("fig4a", trials=3, seed=1)
        assert result.figure_id == "fig4a"

    def test_markdown_output(self, tmp_path, capsys):
        path = tmp_path / "out.md"
        assert main(["fig4a", "--no-plot", "--markdown", str(path)]) == 0
        content = path.read_text()
        assert content.startswith("# Reproduced experiments")
        assert "fig4a" in content

    def test_json_output_round_trips(self, tmp_path, capsys):
        from repro.utils.serialization import load_results

        path = tmp_path / "out.json"
        assert main(["fig4a", "--no-plot", "--json", str(path)]) == 0
        [loaded] = load_results(path)
        assert loaded.figure_id == "fig4a"
        assert loaded.failed_claims() == []


class TestExtensionFigures:
    def test_latency_extension_runs_and_passes(self):
        result = run_figure("ext-latency")
        assert result.failed_claims() == []

    def test_underlay_extension_runs_and_passes(self):
        result = run_figure("ext-underlay")
        assert result.failed_claims() == []


class TestRunnerErrorIsolation:
    def test_bad_figure_does_not_abort_batch(self, capsys):
        # fig99 errors, fig4a still runs; the batch exits 2 with a summary.
        assert main(["fig99", "fig4a", "--no-plot"]) == 2
        captured = capsys.readouterr()
        assert "ERROR [fig99]:" in captured.err
        assert "1 figure(s) errored (1 of 2 completed):" in captured.err
        assert "Fig. 4(a)" in captured.out  # the good figure rendered anyway

    def test_error_summary_lists_every_failure(self, capsys):
        assert main(["fig98", "fig99", "--no-plot"]) == 2
        err = capsys.readouterr().err
        assert "2 figure(s) errored (0 of 2 completed):" in err
        assert "fig98:" in err
        assert "fig99:" in err

    def test_clean_batch_still_exits_zero(self, capsys):
        assert main(["fig4a", "fig4b", "--no-plot"]) == 0
        assert "all claims PASS" in capsys.readouterr().out


class TestDegradedCoverageWarnings:
    @pytest.fixture
    def degraded_result(self):
        return FigureResult(
            figure_id="figW",
            title="Warned",
            x_label="L",
            x_values=[1],
            series={"s": [0.5]},
            warnings=["3 of 30 trials failed at churn=0.2"],
        )

    def test_render_text_shows_warning_block(self, degraded_result):
        text = render_text(degraded_result, plot=False)
        assert "WARNING — degraded coverage:" in text
        assert "! 3 of 30 trials failed at churn=0.2" in text

    def test_render_markdown_shows_warning_block(self, degraded_result):
        md = render_markdown(degraded_result)
        assert "> **Warning — degraded coverage:**" in md
        assert "> - 3 of 30 trials failed at churn=0.2" in md

    def test_clean_result_has_no_warning_block(self, sample_result):
        assert "WARNING" not in render_text(sample_result, plot=False)
        assert "Warning" not in render_markdown(sample_result)
