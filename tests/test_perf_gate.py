"""The performance gate's verdict, on synthetic benchmark summaries.

Pure functions only: no benchmark run, no subprocess, no timing.
"""

import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import perf_gate  # noqa: E402

LOWER = {"name": "verdict_p50_ms", "unit": "ms", "better": "lower", "bound": 0.24}
HIGHER = {"name": "verdicts_per_s", "unit": "ops/s", "better": "higher", "bound": 0.24}
BENCHMARK = {"workloads": [{"name": "w"}], "end_to_end": [LOWER, HIGHER]}


def summary(failed=0, attempted=100, **values):
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": "-"} for name, v in values.items()},
    }


def runs(verdict_p50_ms=100.0, verdicts_per_s=50.0, **kwargs):
    """``PAIRS`` identical runs of workload ``w``."""
    one = summary(verdict_p50_ms=verdict_p50_ms, verdicts_per_s=verdicts_per_s, **kwargs)
    return {"w": [one] * perf_gate.PAIRS}


def failures(parent, change, benchmark=BENCHMARK):
    return perf_gate.verdict(benchmark, parent, change)[1]


class TestBounds:
    def test_identical_sides_pass(self):
        rows, fails = perf_gate.verdict(BENCHMARK, runs(), runs())
        assert fails == []
        assert [r["ratio"] for r in rows] == [1.0, 1.0]

    def test_slowdown_within_bound_passes(self):
        assert failures(runs(), runs(verdict_p50_ms=120.0)) == []

    def test_slowdown_beyond_bound_fails(self):
        fails = failures(runs(), runs(verdict_p50_ms=125.0))
        assert len(fails) == 1 and "verdict_p50_ms" in fails[0]

    def test_exact_bound_passes(self):
        assert failures(runs(), runs(verdict_p50_ms=124.0)) == []
        assert failures(runs(), runs(verdicts_per_s=38.0)) == []

    def test_speedup_passes(self):
        assert failures(runs(), runs(verdict_p50_ms=10.0, verdicts_per_s=500.0)) == []

    def test_higher_is_better_flips_direction(self):
        # a rise in throughput is a gain, however large
        assert failures(runs(), runs(verdicts_per_s=500.0)) == []
        # a fall beyond the bound fails
        fails = failures(runs(), runs(verdicts_per_s=37.0))
        assert len(fails) == 1 and "verdicts_per_s" in fails[0]

    def test_median_of_runs_is_compared(self):
        change = runs()
        change["w"] = [summary(verdict_p50_ms=ms, verdicts_per_s=50.0)
                       for ms in (1000.0, 110.0, 90.0)]
        rows, fails = perf_gate.verdict(BENCHMARK, runs(), change)
        assert fails == [] and rows[0]["change"] == 110.0


class TestNoise:
    def test_rows_carry_each_sides_range(self):
        change = {"w": [summary(verdict_p50_ms=ms, verdicts_per_s=50.0)
                        for ms in (90.0, 110.0, 100.0)]}
        rows, _ = perf_gate.verdict(BENCHMARK, runs(), change)
        assert rows[0]["parent_range"] == [100.0, 100.0]
        assert rows[0]["change_range"] == [90.0, 110.0]
        assert "90.000-110.000" in perf_gate.table(rows)

    def test_parent_spread_wider_than_bound_is_unresolved(self):
        # same median as runs(): spread (130 - 70) / 100 = 0.6 > 0.24
        noisy = {"w": [summary(verdict_p50_ms=ms, verdicts_per_s=50.0)
                       for ms in (70.0, 100.0, 130.0)]}
        rows, fails = perf_gate.verdict(BENCHMARK, noisy, runs())
        assert [r["unresolved"] for r in rows] == [True, False]
        assert "unresolved" in perf_gate.table(rows).splitlines()[1]
        assert fails == []
        rows, _ = perf_gate.verdict(BENCHMARK, runs(), runs())
        assert not any(r["unresolved"] for r in rows)

    def test_unresolved_changes_no_failure(self):
        noisy = {"w": [summary(verdict_p50_ms=ms, verdicts_per_s=50.0)
                       for ms in (70.0, 100.0, 130.0)]}
        slower = runs(verdict_p50_ms=125.0)
        fails = failures(noisy, slower)
        assert fails == failures(runs(), slower)
        assert len(fails) == 1 and "verdict_p50_ms" in fails[0]


class TestRuns:
    def test_higher_failed_share_fails(self):
        fails = failures(runs(), runs(failed=1))
        assert any("failed-op share" in f for f in fails)

    def test_equal_failed_share_is_no_regression(self):
        assert not any("failed-op share" in f
                       for f in failures(runs(failed=1), runs(failed=1)))

    def test_incorrect_run_fails(self):
        fails = failures(runs(), runs(failed=1))
        assert any("correct: false" in f for f in fails)

    def test_missing_workload_fails(self):
        assert failures(runs(), {}) == ["w: change has 0 of 3 runs"]
        assert failures({}, runs()) == ["w: parent has 0 of 3 runs"]

    def test_missing_run_fails(self):
        short = {"w": runs()["w"][:-1]}
        assert failures(runs(), short) == ["w: change has 2 of 3 runs"]

    def test_crashed_run_fails(self):
        crashed = {"w": runs()["w"][:-1] + [None]}
        assert failures(crashed, runs()) == ["w: a parent run failed"]

    def test_missing_metric_fails(self):
        change = {"w": [summary(verdict_p50_ms=100.0)] * perf_gate.PAIRS}
        assert failures(runs(), change) == ["w: verdicts_per_s missing from a run"]


class TestCommittedBenchmark:
    def committed(self):
        return json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_every_workload_and_end_to_end_metric_is_gated(self):
        benchmark = self.committed()
        values = {m["name"]: 1.0 for m in benchmark["end_to_end"]}
        side = {w["name"]: [summary(**values)] * perf_gate.PAIRS
                for w in benchmark["workloads"]}
        rows, fails = perf_gate.verdict(benchmark, side, side)
        assert fails == []
        assert {(r["workload"], r["metric"]) for r in rows} == {
            (w["name"], m["name"])
            for w in benchmark["workloads"] for m in benchmark["end_to_end"]
        }
        assert {(r["metric"], r["bound"], r["better"]) for r in rows} == {
            (m["name"], m["bound"], m["better"]) for m in benchmark["end_to_end"]
        }

    @pytest.mark.parametrize("direction", ["lower", "higher"])
    def test_workloads_and_metrics_come_from_the_file(self, direction):
        """Names, directions and bounds are read, never built in."""
        metric = {"name": "made_up", "better": direction, "bound": 0.5}
        benchmark = {"workloads": [{"name": "x"}], "end_to_end": [metric]}
        parent = {"x": [summary(made_up=10.0)] * perf_gate.PAIRS}
        worse = 16.0 if direction == "lower" else 4.0
        within = 15.0 if direction == "lower" else 5.0
        assert failures(parent, {"x": [summary(made_up=within)] * perf_gate.PAIRS},
                        benchmark) == []
        fails = failures(parent, {"x": [summary(made_up=worse)] * perf_gate.PAIRS},
                         benchmark)
        assert len(fails) == 1 and fails[0].startswith("x: made_up")
