"""The smoke harness's pure checkers, on synthetic inputs.

No subprocess, no server, no timing: each checker passes a well-formed
input and fails the malformed ones it exists to catch.
"""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "tools"))

import smoke  # noqa: E402
from smoke import SmokeFailure  # noqa: E402

HISTOGRAM = """\
# TYPE h histogram
h_bucket{le="0.1"} 1
h_bucket{le="1"} 3
h_bucket{le="+Inf"} 4
h_sum 2.5
h_count 4
"""


def check_histogram(text):
    samples, types = smoke.parse_prometheus(text)
    smoke.check_histogram(samples, types, "h")


class TestPrometheus:
    def test_parses_samples_and_types(self):
        samples, types = smoke.parse_prometheus(
            '# TYPE a counter\na 3\nb{shard="x"} 1.5\n'
        )
        assert samples == {"a": 3.0, 'b{shard="x"}': 1.5}
        assert types == {"a": "counter"}
        assert smoke.scalar_samples('a 3\nb{shard="x"} 1.5\n') == {"a": 3.0}

    def test_line_that_is_not_series_value_fails(self):
        with pytest.raises(SmokeFailure, match="'series value'"):
            smoke.parse_prometheus("a\n")

    def test_well_formed_histogram_passes(self):
        check_histogram(HISTOGRAM)

    @pytest.mark.parametrize(
        "old, new, error",
        [
            ('le="1"} 3', 'le="1"} 0', "not cumulative"),
            ('h_bucket{le="+Inf"} 4\n', "", "missing the \\+Inf bucket"),
            ("h_count 4", "h_count 5", "\\+Inf bucket 4.0 != _count 5.0"),
        ],
        ids=["non-cumulative", "missing-inf", "inf-not-count"],
    )
    def test_malformed_histogram_fails(self, old, new, error):
        with pytest.raises(SmokeFailure, match=error):
            check_histogram(HISTOGRAM.replace(old, new))

    def test_histogram_groups_split_by_labels(self):
        samples, _ = smoke.parse_prometheus(
            'h_bucket{s="a",le="+Inf"} 2\nh_count{s="a"} 2\nh_count{s="b"} 1\n'
        )
        assert smoke.histogram_groups(samples, "h") == {
            's="a"': {'h_bucket{le="+Inf"}': 2.0, "h_count": 2.0},
            's="b"': {"h_count": 1.0},
        }


def progress(*kinds):
    return [
        {"seq": seq, "kind": f"obligation.{kind}", "obligation": "o1"}
        for seq, kind in enumerate(kinds, start=1)
    ]


class TestStreams:
    def test_obligation_lifecycle_passes(self):
        events = progress("queued", "start", "tick", "finish")
        assert smoke.check_progress_stream(events) == {"o1": "done"}

    def test_seq_going_backwards_fails(self):
        events = progress("queued", "start")
        events[1]["seq"] = 0
        with pytest.raises(SmokeFailure, match="strictly increasing"):
            smoke.check_progress_stream(events)

    def test_done_to_running_regression_fails(self):
        with pytest.raises(SmokeFailure, match="regressed done -> running"):
            smoke.check_progress_stream(progress("start", "finish", "tick"))

    def test_merged_stream_needs_shard_tags(self):
        events = [{"seq": 0, "kind": "job.routed"}] + [
            {"seq": i, "shard_seq": 1, "shard": shard, "kind": "job.state",
             "state": "done"}
            for i, shard in enumerate(["a:1", "b:2"], start=1)
        ]
        smoke.check_merged_stream(events, ["a:1", "b:2"])
        del events[1]["shard"]
        with pytest.raises(SmokeFailure, match="not tagged"):
            smoke.check_merged_stream(events, ["a:1", "b:2"])


def job():
    return {
        "reports": [
            {
                "label": "m",
                "all_true": True,
                "cache": {"hits": 1, "misses": 0},
                "user_time": 0.5,
                "resources": {"bdd_nodes": 9},
                "specs": [
                    {"spec": "AG p", "holds": True, "cached": True,
                     "stats": {"fixpoint_iterations": 3}},
                ],
            }
        ]
    }


class TestComparable:
    def test_strips_only_cache_timing_and_stats(self):
        assert smoke.comparable(job()) == [
            {
                "label": "m",
                "all_true": True,
                "specs": [{"spec": "AG p", "holds": True}],
            }
        ]

    def test_replay_keeps_timing_and_stats(self):
        (report,) = smoke.comparable(job(), replay=True)
        assert "cache" not in report and "cached" not in report["specs"][0]
        assert report["user_time"] == 0.5 and report["resources"]
        assert report["specs"][0]["stats"] == {"fixpoint_iterations": 3}
