"""Pass-level tests over the fixture corpus.

Every ``*_tp.py`` fixture marks its expected finding lines with a
``# TP anchor`` comment; the tests assert the passes report **exactly**
those (rule, line) pairs — catching both missed true positives and any
false positive the guarded ``*_fp.py`` variants are designed to provoke.
"""

from pathlib import Path

import pytest

from repro_lint.analysis import analyze_paths
from repro_lint.passes import ALL_PASSES, pass_by_id
from repro_lint.rules import ALL_RULES

FIXTURES = Path(__file__).parent / "fixtures" / "src" / "repro"

PASS_IDS = {p.id for p in ALL_PASSES}


def pass_findings(report):
    return [f for f in report.findings if f.rule_id in PASS_IDS]


def anchor_lines(path: Path):
    return {
        lineno
        for lineno, text in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        )
        if "TP anchor" in text
    }


@pytest.fixture(scope="module")
def result():
    return analyze_paths([FIXTURES], ALL_RULES, ALL_PASSES)


def report_for(result, name):
    for report in result.reports:
        if report.path.endswith(name):
            return report
    raise AssertionError(f"no report for {name}")


class TestTruePositives:
    EXPECTED = {
        "service/blocking_helpers.py": "async-blocking",
        "service/blocking_tp.py": "async-blocking",
        "rngflow/boundary_tp.py": "rng-boundary-reuse",
        "rngflow/rawseed_tp.py": "rng-raw-seed",
        "rngflow/unordered_tp.py": "rng-unordered-iter",
        "simulation/wallclock_tp.py": "wallclock",
        "simulation/dispatch_tp.py": "parallel-dispatch",
    }

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_findings_hit_every_anchor_exactly(self, result, name):
        rule_id = self.EXPECTED[name]
        report = report_for(result, name)
        findings = pass_findings(report)
        assert {f.rule_id for f in findings} == {rule_id}
        assert {f.line for f in findings} == anchor_lines(FIXTURES / name)

    def test_blocking_message_names_the_call_chain(self, result):
        report = report_for(result, "service/blocking_helpers.py")
        (finding,) = pass_findings(report)
        assert "handle_request -> settle" in finding.message

    def test_severities_come_from_the_pass(self, result):
        report = report_for(result, "rngflow/rawseed_tp.py")
        for finding in pass_findings(report):
            assert finding.severity == pass_by_id("rng-raw-seed").severity


class TestGuardedFalsePositives:
    CLEAN = [
        "service/blocking_fp.py",
        "rngflow/boundary_fp.py",
        "rngflow/rawseed_fp.py",
        "rngflow/unordered_fp.py",
        "simulation/wallclock_fp.py",
        "service/dispatch_fp.py",
        "perf/parallel.py",
    ]

    @pytest.mark.parametrize("name", CLEAN)
    def test_no_pass_findings(self, result, name):
        report = report_for(result, name)
        assert pass_findings(report) == []

    def test_fp_files_are_clean_on_statement_rules_too(self, result):
        for name in self.CLEAN:
            report = report_for(result, name)
            assert report.findings == []


class TestScoping:
    def test_wallclock_ignores_service_modules(self, result):
        # blocking_fp.py reads time.time() in a coroutine — fine for
        # service code, which owns deadlines and SLO reporting.
        report = report_for(result, "service/blocking_fp.py")
        assert all(f.rule_id != "wallclock" for f in report.findings)

    def test_every_pass_has_tp_and_fp_coverage(self):
        covered = set(TestTruePositives.EXPECTED.values())
        assert covered == PASS_IDS


class TestSuppressionIntegration:
    def test_pass_findings_honor_inline_suppressions(self, tmp_path):
        src = tmp_path / "src" / "repro" / "simulation"
        src.mkdir(parents=True)
        target = src / "mod.py"
        target.write_text(
            "import time\n"
            "\n"
            "def stamp():\n"
            "    return time.time()  "
            "# repro-lint: disable=wallclock -- telemetry only\n",
            encoding="utf-8",
        )
        result = analyze_paths([tmp_path], ALL_RULES, ALL_PASSES)
        (report,) = [r for r in result.reports if r.path.endswith("mod.py")]
        assert report.findings == []
        assert [f.rule_id for f in report.suppressed] == ["wallclock"]
