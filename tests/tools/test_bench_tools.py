"""Tests for the benchmark-trajectory tools.

``tools/bench_snapshot.py`` normalizes raw pytest-benchmark output into
``BENCH_<n>.json`` snapshots; ``tools/bench_compare.py`` diffs two
snapshots and must exit non-zero on a >threshold regression — that exit
code is the contract future PRs' perf gates rely on.
"""

from __future__ import annotations

import copy
import json

import pytest

import bench_compare
import bench_snapshot


def _raw_report(means):
    """A minimal raw pytest-benchmark report with the given mean timings."""
    return {
        "datetime": "2026-08-07T12:00:00",
        "machine_info": {
            "node": "testhost",
            "processor": "x86_64",
            "machine": "x86_64",
            "python_version": "3.12.0",
            "release": "ignored-key",
        },
        "benchmarks": [
            {
                "fullname": name,
                "stats": {
                    "mean": mean,
                    "stddev": mean / 10.0,
                    "median": mean,
                    "min": mean * 0.9,
                    "max": mean * 1.1,
                    "rounds": 5,
                    "iterations": 1,
                },
            }
            for name, mean in means.items()
        ],
    }


MEANS = {
    "benchmarks/bench_batch.py::test_grid_sweep_1000pt_vectorized": 0.010,
    "benchmarks/bench_parallel.py::test_mc_200_trials_serial": 0.900,
    "benchmarks/bench_memo.py::test_kernel_warm_cache": 0.0002,
}


def _write_raw(tmp_path, means, name="raw.json"):
    path = tmp_path / name
    path.write_text(json.dumps(_raw_report(means)))
    return str(path)


class TestSnapshot:
    def test_normalizes_and_autonumbers(self, tmp_path):
        raw = _write_raw(tmp_path, MEANS)
        root = str(tmp_path)
        assert bench_snapshot.main([raw, "--root", root]) == 0
        first = tmp_path / "BENCH_1.json"
        assert first.exists()

        snapshot = json.loads(first.read_text())
        assert snapshot["version"] == bench_snapshot.SNAPSHOT_VERSION
        assert set(snapshot["benchmarks"]) == set(MEANS)
        assert "release" not in snapshot["machine_info"]
        for name, mean in MEANS.items():
            assert snapshot["benchmarks"][name]["mean"] == mean

        # Second run numbers itself BENCH_2.json.
        assert bench_snapshot.main([raw, "--root", root]) == 0
        assert (tmp_path / "BENCH_2.json").exists()

    def test_rejects_empty_report(self, tmp_path):
        raw = _write_raw(tmp_path, {})
        assert bench_snapshot.main([raw, "--root", str(tmp_path)]) == 2

    def test_rejects_unreadable_input(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert bench_snapshot.main([missing, "--root", str(tmp_path)]) == 2


class TestCompare:
    def _snapshot_pair(self, tmp_path, regression_factor=1.0):
        base_raw = _write_raw(tmp_path, MEANS, "base_raw.json")
        bench_snapshot.main(
            [base_raw, "--output", str(tmp_path / "BENCH_1.json")]
        )
        slower = copy.deepcopy(MEANS)
        first = next(iter(slower))
        slower[first] = slower[first] * regression_factor
        new_raw = _write_raw(tmp_path, slower, "new_raw.json")
        bench_snapshot.main([new_raw, "--output", str(tmp_path / "BENCH_2.json")])
        return str(tmp_path / "BENCH_1.json"), str(tmp_path / "BENCH_2.json")

    def test_identical_snapshots_pass(self, tmp_path, capsys):
        base, new = self._snapshot_pair(tmp_path)
        assert bench_compare.main([base, new]) == 0
        assert "OK" in capsys.readouterr().out

    def test_injected_regression_fails(self, tmp_path, capsys):
        """The acceptance criterion: >=20% slower must exit non-zero."""
        base, new = self._snapshot_pair(tmp_path, regression_factor=1.25)
        assert bench_compare.main([base, new]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_regression_within_threshold_passes(self, tmp_path):
        base, new = self._snapshot_pair(tmp_path, regression_factor=1.15)
        assert bench_compare.main([base, new]) == 0

    def test_threshold_is_configurable(self, tmp_path):
        base, new = self._snapshot_pair(tmp_path, regression_factor=1.15)
        assert bench_compare.main([base, new, "--threshold", "0.1"]) == 1

    def test_speedups_never_fail(self, tmp_path):
        base, new = self._snapshot_pair(tmp_path, regression_factor=0.5)
        assert bench_compare.main([base, new]) == 0

    def test_auto_mode_picks_two_newest(self, tmp_path):
        self._snapshot_pair(tmp_path, regression_factor=1.25)
        assert bench_compare.main(["--root", str(tmp_path)]) == 1

    def test_auto_mode_without_baseline_is_a_clean_noop(self, tmp_path, capsys):
        """Fresh clones / new branches have no trajectory: exit 0, say why."""
        assert bench_compare.main(["--root", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "no baseline snapshot found" in out

    def test_auto_mode_with_single_snapshot_is_a_clean_noop(
        self, tmp_path, capsys
    ):
        raw = _write_raw(tmp_path, MEANS)
        bench_snapshot.main([raw, "--root", str(tmp_path)])
        assert bench_compare.main(["--root", str(tmp_path)]) == 0
        assert "no baseline snapshot found" in capsys.readouterr().out

    def test_disjoint_snapshots_error(self, tmp_path):
        raw_a = _write_raw(tmp_path, {"a::one": 1.0}, "a.json")
        raw_b = _write_raw(tmp_path, {"b::two": 1.0}, "b.json")
        bench_snapshot.main([raw_a, "--output", str(tmp_path / "BENCH_1.json")])
        bench_snapshot.main([raw_b, "--output", str(tmp_path / "BENCH_2.json")])
        assert (
            bench_compare.main(
                [str(tmp_path / "BENCH_1.json"), str(tmp_path / "BENCH_2.json")]
            )
            == 2
        )

    def test_grown_suite_reports_additions_without_failing(self, tmp_path, capsys):
        grown = dict(MEANS)
        grown["benchmarks/bench_new.py::test_shiny"] = 0.5
        raw_a = _write_raw(tmp_path, MEANS, "a.json")
        raw_b = _write_raw(tmp_path, grown, "b.json")
        bench_snapshot.main([raw_a, "--output", str(tmp_path / "BENCH_1.json")])
        bench_snapshot.main([raw_b, "--output", str(tmp_path / "BENCH_2.json")])
        assert (
            bench_compare.main(
                [str(tmp_path / "BENCH_1.json"), str(tmp_path / "BENCH_2.json")]
            )
            == 0
        )
        assert "added:" in capsys.readouterr().out


def _ladder(flooded_compiled=0.08, flooded_numpy=0.40):
    return {
        "version": 1,
        "available": ["scalar", "numpy", "compiled"],
        "backend": "cc",
        "rounds": 3,
        "benchmarks": {
            "flooded_packet_1000c": {
                "tiers": {
                    "numpy": {"mean": flooded_numpy, "rounds": 3},
                    "compiled": {"mean": flooded_compiled, "rounds": 3},
                },
                "speedup_vs_numpy": {
                    "compiled": flooded_numpy / flooded_compiled
                },
            },
        },
    }


class TestLadderEmbedding:
    def test_snapshot_embeds_ladder_as_tiers_block(self, tmp_path):
        raw = _write_raw(tmp_path, MEANS)
        ladder_path = tmp_path / "ladder.json"
        ladder_path.write_text(json.dumps(_ladder()))
        out = tmp_path / "BENCH_1.json"
        assert bench_snapshot.main(
            [raw, "--output", str(out), "--ladder", str(ladder_path)]
        ) == 0
        snapshot = json.loads(out.read_text())
        assert snapshot["tiers"]["backend"] == "cc"
        assert "flooded_packet_1000c" in snapshot["tiers"]["benchmarks"]

    def test_malformed_ladder_rejected(self, tmp_path):
        raw = _write_raw(tmp_path, MEANS)
        ladder_path = tmp_path / "ladder.json"
        ladder_path.write_text(json.dumps({"no": "benchmarks"}))
        assert bench_snapshot.main(
            [raw, "--ladder", str(ladder_path), "--root", str(tmp_path)]
        ) == 2


class TestCompareTiers:
    def _tiered_pair(self, tmp_path, new_compiled, new_numpy=0.40):
        for number, ladder in (
            (1, _ladder()),
            (2, _ladder(flooded_compiled=new_compiled,
                        flooded_numpy=new_numpy)),
        ):
            raw = _write_raw(tmp_path, MEANS, f"raw{number}.json")
            ladder_path = tmp_path / f"ladder{number}.json"
            ladder_path.write_text(json.dumps(ladder))
            bench_snapshot.main(
                [raw, "--output", str(tmp_path / f"BENCH_{number}.json"),
                 "--ladder", str(ladder_path)]
            )
        return (
            str(tmp_path / "BENCH_1.json"),
            str(tmp_path / "BENCH_2.json"),
        )

    def test_compiled_regression_cannot_hide_behind_numpy(
        self, tmp_path, capsys
    ):
        # numpy got 2x faster, compiled got 3x slower: the per-tier rows
        # must still fail the gate.
        base, new = self._tiered_pair(
            tmp_path, new_compiled=0.24, new_numpy=0.20
        )
        assert bench_compare.main([base, new]) == 1
        out = capsys.readouterr().out
        assert "flooded_packet_1000c[compiled]" in out
        assert "REGRESSION" in out

    def test_matching_tiers_pass(self, tmp_path, capsys):
        base, new = self._tiered_pair(tmp_path, new_compiled=0.08)
        assert bench_compare.main([base, new]) == 0
        assert "flooded_packet_1000c[numpy]" in capsys.readouterr().out

    def test_pre_ladder_snapshots_skip_tier_rows(self, tmp_path):
        # Old snapshots have no tiers block; comparison degrades to the
        # plain timing diff instead of erroring.
        raw = _write_raw(tmp_path, MEANS)
        bench_snapshot.main([raw, "--output", str(tmp_path / "BENCH_1.json")])
        ladder_path = tmp_path / "ladder.json"
        ladder_path.write_text(json.dumps(_ladder()))
        bench_snapshot.main(
            [raw, "--output", str(tmp_path / "BENCH_2.json"),
             "--ladder", str(ladder_path)]
        )
        assert bench_compare.main(
            [str(tmp_path / "BENCH_1.json"), str(tmp_path / "BENCH_2.json")]
        ) == 0


class TestCompareAgainst:
    def _trajectory(self, tmp_path, factors):
        """BENCH_1..n with every benchmark scaled by the given factors."""
        for number, factor in enumerate(factors, start=1):
            means = {name: mean * factor for name, mean in MEANS.items()}
            raw = _write_raw(tmp_path, means, f"raw{number}.json")
            bench_snapshot.main(
                [raw, "--output", str(tmp_path / f"BENCH_{number}.json")]
            )

    def test_against_compares_newest_to_chosen_base(self, tmp_path, capsys):
        # 1.0 -> 1.1 -> 1.15: newest vs previous is within threshold,
        # but vs BENCH_1 the cumulative drift is not.
        self._trajectory(tmp_path, [1.0, 1.1, 1.15])
        root = str(tmp_path)
        assert bench_compare.main(["--root", root]) == 0
        assert bench_compare.main(
            ["--root", root, "--against", "1", "--threshold", "0.12"]
        ) == 1
        assert "BENCH_1.json" in capsys.readouterr().out

    def test_against_missing_snapshot_errors(self, tmp_path):
        self._trajectory(tmp_path, [1.0, 1.0])
        assert bench_compare.main(
            ["--root", str(tmp_path), "--against", "9"]
        ) == 2

    def test_against_newest_itself_errors(self, tmp_path):
        self._trajectory(tmp_path, [1.0, 1.0])
        assert bench_compare.main(
            ["--root", str(tmp_path), "--against", "2"]
        ) == 2


class TestMemoizationContract:
    def test_memoized_kernel_identical_results(self):
        from repro.core.probability import (
            all_bad_cache_clear,
            all_bad_cache_info,
            all_bad_probability,
        )

        all_bad_cache_clear()
        cold = [all_bad_probability(100.0, 17.5, k) for k in range(10)]
        warm = [all_bad_probability(100.0, 17.5, k) for k in range(10)]
        assert cold == warm
        info = all_bad_cache_info()
        assert info.hits >= 9  # z=0 short-circuits before the cache
        assert info.currsize <= info.maxsize


class TestLadderSampler:
    """``bench_ladder`` records both samplers and, under
    ``--require-compiled``, fails when either C replay is disengaged."""

    def test_report_records_the_sampler(self, monkeypatch):
        import bench_ladder

        monkeypatch.setattr(bench_ladder, "build_benchmarks", lambda quick: [])
        report = bench_ladder.run_ladder(rounds=1, quick=True)
        assert report["sampler"] == {
            "choice": bench_ladder.choice_sampler(),
            "poisson": bench_ladder.poisson_sampler(),
        }
        assert set(report["sampler"].values()) <= {"cc", "numpy"}
        assert "poisson sampler: " in bench_ladder.format_table(report)

    def test_disengaged_replay_fails_require_compiled(self, monkeypatch, capsys):
        import bench_ladder

        monkeypatch.setattr(bench_ladder, "compiled_backend", lambda: "cc")
        monkeypatch.setattr(bench_ladder, "choice_sampler", lambda: "numpy")
        assert bench_ladder.main(["--require-compiled", "--quick"]) == 1
        assert "Generator.choice" in capsys.readouterr().err

    def test_disengaged_poisson_replay_fails_require_compiled(
        self, monkeypatch, capsys
    ):
        import bench_ladder

        monkeypatch.setattr(bench_ladder, "compiled_backend", lambda: "cc")
        monkeypatch.setattr(bench_ladder, "choice_sampler", lambda: "cc")
        monkeypatch.setattr(bench_ladder, "poisson_sampler", lambda: "numpy")
        assert bench_ladder.main(["--require-compiled", "--quick"]) == 1
        assert "poisson_rows" in capsys.readouterr().err
