"""Tests for the shared benchmark tooling and the `repro bench` CLI."""

import json

import pytest

from repro import benchtool
from repro.cli import main as cli_main


def artifact(benchmarks: dict) -> dict:
    return {
        "suite": "synthesis_micro",
        "benchmarks": {
            name: {
                "median_s": median,
                "mean_s": median,
                "stddev_s": 0.0,
                "rounds": 5,
            }
            for name, median in benchmarks.items()
        },
        "median_speedups": {},
    }


GUARDED_NAME = benchtool.GUARDED[0]


class TestSummarize:
    def test_summarize_shapes_and_speedups(self):
        raw = {
            "datetime": "2026-07-29T00:00:00",
            "machine_info": {"node": "vm", "processor": "", "python_version": "3"},
            "benchmarks": [
                {
                    "name": "test_bench_branch_synthesis",
                    "stats": {
                        "median": 0.006, "mean": 0.007,
                        "stddev": 0.001, "rounds": 5,
                    },
                },
                {
                    "name": "test_bench_branch_synthesis_sequential",
                    "stats": {
                        "median": 0.012, "mean": 0.013,
                        "stddev": 0.001, "rounds": 5,
                    },
                },
            ],
        }
        summary = benchtool.summarize(raw)
        assert summary["suite"] == "synthesis_micro"
        assert (
            summary["benchmarks"]["test_bench_branch_synthesis"]["median_s"]
            == 0.006
        )
        key = (
            "test_bench_branch_synthesis_sequential/"
            "test_bench_branch_synthesis"
        )
        assert summary["median_speedups"][key] == 2.0


class TestCompare:
    def test_ok_when_within_threshold(self):
        base = artifact({GUARDED_NAME: 0.010, "test_other": 0.001})
        fresh = artifact({GUARDED_NAME: 0.011, "test_other": 0.005})
        rows = benchtool.compare(fresh, base)
        assert not any(row.fails(1.25) for row in rows)
        # Unguarded rows never gate, however large the regression.
        other = next(row for row in rows if row.name == "test_other")
        assert other.ratio == pytest.approx(5.0)
        assert not other.fails(1.25)

    def test_guarded_regression_fails(self):
        base = artifact({GUARDED_NAME: 0.010})
        fresh = artifact({GUARDED_NAME: 0.020})
        rows = benchtool.compare(fresh, base)
        guarded = next(row for row in rows if row.name == GUARDED_NAME)
        assert guarded.fails(1.25)
        assert guarded.verdict(1.25) == "FAIL"

    def test_missing_guarded_benchmark_fails(self):
        base = artifact({GUARDED_NAME: 0.010})
        fresh = artifact({})
        rows = benchtool.compare(fresh, base)
        guarded = next(row for row in rows if row.name == GUARDED_NAME)
        assert guarded.fails(1.25)

    def test_new_benchmark_without_baseline_is_tracked_not_gated(self):
        base = artifact({})
        fresh = artifact({GUARDED_NAME: 0.010})
        rows = benchtool.compare(fresh, base)
        guarded = next(row for row in rows if row.name == GUARDED_NAME)
        assert not guarded.fails(1.25)
        assert guarded.verdict(1.25) == "new"

    def test_speed_scale_normalizes_uniform_slowdown(self):
        # Twelve benchmarks, all 1.4x slower: a slower machine, not
        # twelve simultaneous regressions — the normalized gate passes.
        names = [GUARDED_NAME] + [f"test_other_{i}" for i in range(11)]
        base = artifact({name: 0.010 for name in names})
        fresh = artifact({name: 0.014 for name in names})
        rows = benchtool.compare(fresh, base)
        scale = benchtool.speed_scale(rows)
        assert scale == pytest.approx(1.4)
        guarded = next(row for row in rows if row.name == GUARDED_NAME)
        assert guarded.fails(1.25)  # raw ratio alone would gate
        assert not guarded.fails(1.25, scale)

    def test_speed_scale_keeps_relative_regressions_gated(self):
        # One guarded benchmark 2x slower against a steady suite: the
        # median scale stays ~1.0 and the regression still fails.
        names = [f"test_other_{i}" for i in range(11)]
        base = artifact({GUARDED_NAME: 0.010, **{n: 0.010 for n in names}})
        fresh = artifact({GUARDED_NAME: 0.020, **{n: 0.010 for n in names}})
        rows = benchtool.compare(fresh, base)
        scale = benchtool.speed_scale(rows)
        assert scale == pytest.approx(1.0)
        guarded = next(row for row in rows if row.name == GUARDED_NAME)
        assert guarded.fails(1.25, scale)

    def test_speed_scale_rejects_small_samples_and_global_collapse(self):
        # Too few shared benchmarks (a --filter subset): no estimate.
        base = artifact({GUARDED_NAME: 0.010, "test_other": 0.010})
        fresh = artifact({GUARDED_NAME: 0.014, "test_other": 0.014})
        assert benchtool.speed_scale(benchtool.compare(fresh, base)) == 1.0
        # A suite uniformly 3x slower is outside SPEED_SCALE_BAND — a
        # plausible real global regression, so it is NOT normalized away.
        names = [GUARDED_NAME] + [f"test_other_{i}" for i in range(11)]
        base = artifact({name: 0.010 for name in names})
        fresh = artifact({name: 0.030 for name in names})
        rows = benchtool.compare(fresh, base)
        assert benchtool.speed_scale(rows) == 1.0
        guarded = next(row for row in rows if row.name == GUARDED_NAME)
        assert guarded.fails(1.25, benchtool.speed_scale(rows))

    def test_per_benchmark_override_loosens_bound(self):
        name = "test_bench_serve_cold_store"
        assert name in benchtool.GUARDED
        base = artifact({name: 0.001})
        fresh = artifact({name: 0.0016})  # 1.6x: within its 2.0x override
        rows = benchtool.compare(fresh, base)
        row = next(r for r in rows if r.name == name)
        assert not row.fails(1.25)
        worse = artifact({name: 0.0022})  # 2.2x: beyond the override
        row = next(
            r
            for r in benchtool.compare(worse, base)
            if r.name == name
        )
        assert row.fails(1.25)

    def test_format_marks_guarded_rows(self):
        base = artifact({GUARDED_NAME: 0.010, "test_other": 0.001})
        fresh = artifact({GUARDED_NAME: 0.030, "test_other": 0.001})
        text = benchtool.format_compare(benchtool.compare(fresh, base))
        assert GUARDED_NAME in text
        assert "*FAIL" in text
        assert "guarded" in text


class TestRepoRoot:
    def test_find_repo_root_from_nested_dir(self, tmp_path):
        from pathlib import Path

        here = Path(__file__).resolve()
        root = benchtool.find_repo_root(here.parent)
        assert (root / "benchmarks" / "test_bench_synthesis_micro.py").is_file()

    def test_find_repo_root_outside_checkout_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            benchtool.find_repo_root(tmp_path)


class TestCliBench:
    def test_compare_passes_and_fails(self, tmp_path, capsys):
        base_path = tmp_path / "base.json"
        fresh_path = tmp_path / "fresh.json"
        base_path.write_text(json.dumps(artifact({GUARDED_NAME: 0.010})))
        fresh_path.write_text(json.dumps(artifact({GUARDED_NAME: 0.011})))
        code = cli_main(
            [
                "bench",
                "--fresh", str(fresh_path),
                "--compare", str(base_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "regression gate passed" in out
        assert GUARDED_NAME in out

        fresh_path.write_text(json.dumps(artifact({GUARDED_NAME: 0.030})))
        code = cli_main(
            [
                "bench",
                "--fresh", str(fresh_path),
                "--compare", str(base_path),
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "REGRESSION" in captured.err

    def test_max_regression_override(self, tmp_path, capsys):
        base_path = tmp_path / "base.json"
        fresh_path = tmp_path / "fresh.json"
        base_path.write_text(json.dumps(artifact({GUARDED_NAME: 0.010})))
        fresh_path.write_text(json.dumps(artifact({GUARDED_NAME: 0.030})))
        code = cli_main(
            [
                "bench",
                "--fresh", str(fresh_path),
                "--compare", str(base_path),
                "--max-regression", "4.0",
            ]
        )
        assert code == 0
        capsys.readouterr()

    def test_fresh_without_compare_is_ok(self, tmp_path, capsys):
        fresh_path = tmp_path / "fresh.json"
        fresh_path.write_text(json.dumps(artifact({GUARDED_NAME: 0.010})))
        assert cli_main(["bench", "--fresh", str(fresh_path)]) == 0
        capsys.readouterr()


class TestZeroBaseline:
    def test_zero_baseline_median_fails_loudly(self):
        base = artifact({GUARDED_NAME: 0.0})
        fresh = artifact({GUARDED_NAME: 0.010})
        rows = benchtool.compare(fresh, base)
        guarded = next(row for row in rows if row.name == GUARDED_NAME)
        assert guarded.ratio == float("inf")
        assert guarded.fails(1.25)
