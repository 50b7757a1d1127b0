"""Unit tests of the benchmark's statistics and trace arithmetic.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import benchlib  # noqa: E402


def span(id_, parent, start, end, name="core.flow"):
    return {"id": id_, "parent": parent, "start": start, "end": end,
            "name": name, "job": 0}


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(100, 0, -1))  # 1..100, unsorted
        self.assertEqual(benchlib.percentile(values, 50), 50)
        self.assertEqual(benchlib.percentile(values, 90), 90)
        self.assertEqual(benchlib.percentile(values, 100), 100)
        self.assertEqual(benchlib.percentile([7.0], 90), 7.0)
        self.assertEqual(benchlib.percentile([1, 2, 3, 4], 90), 4)

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            benchlib.percentile([], 90)

    def test_ten_samples_beyond_p90_need_100_jobs(self):
        self.assertEqual(benchlib.samples_beyond(100, 90), 10)
        self.assertEqual(benchlib.samples_beyond(99, 90), 9)
        self.assertEqual(benchlib.samples_beyond(2, 90), 0)


class SelfTime(unittest.TestCase):
    def test_children_union_is_subtracted_once(self):
        spans = [span(1, 0, 0, 10), span(2, 1, 1, 3), span(3, 1, 2, 5),
                 span(4, 1, 7, 8)]
        st = benchlib.self_times(spans)
        self.assertEqual(st[1], 10 - 4 - 1)  # [1,5] and [7,8] covered
        self.assertEqual(st[2], 2)
        self.assertEqual(st[3], 3)

    def test_child_outside_parent_is_clipped(self):
        st = benchlib.self_times([span(1, 0, 0, 10), span(2, 1, 8, 12)])
        self.assertEqual(st[1], 8)

    def test_grandchildren_count_only_for_their_parent(self):
        spans = [span(1, 0, 0, 10), span(2, 1, 0, 6), span(3, 2, 0, 6)]
        st = benchlib.self_times(spans)
        self.assertEqual(st, {1: 4, 2: 0, 3: 6})

    def test_layer_totals_from_chrome_events(self):
        trace = {"traceEvents": [
            {"name": "place.job", "ts": 0.0, "dur": 3e6,
             "args": {"id": 1, "parent": 0, "job": 0}},
            {"name": "core.flow", "ts": 0.5e6, "dur": 2e6,
             "args": {"id": 2, "parent": 1, "job": 0}},
            {"name": "core.round", "ts": 1e6, "dur": 0.5e6,
             "args": {"id": 3, "parent": 2, "job": 0}},
        ]}
        totals = benchlib.layer_self_seconds(benchlib.spans_from_chrome(trace))
        self.assertAlmostEqual(totals["place"], 1.0)
        self.assertAlmostEqual(totals["core"], 2.0)


def raw_result(workload="place_congested"):
    return {
        "workload": workload, "attempted": 2, "failed": 0, "failures": [],
        "setup_s": [0.2, 0.1, 0.3], "latency_s": [5.0, 7.0],
        "first_feedback_s": [1.0, 2.0], "placements": 2, "busy_s": 12.0,
        "routed_wl": [10.0, 10.0], "peak_rss_mb": 64.0,
        "layers": {"io.read_bookshelf_s": [0.1, 0.1],
                   "core.global_place_s": [5.0, 5.0],
                   "gp.wirelength_s": [3.0, 3.0],
                   "gp.poisson_s": [1.0, 1.0],
                   "core.round_s": [0.2, 0.4, 0.3]},
        "info": {},
    }


class Metrics(unittest.TestCase):
    def test_end_to_end(self):
        m = benchlib.end_to_end_metrics(raw_result())
        self.assertEqual(set(m), set(benchlib.END_TO_END))
        self.assertEqual(m["setup_s"], 0.2)
        self.assertEqual(m["latency_p50_s"], 6.0)

    def test_per_layer(self):
        m = benchlib.per_layer_metrics(raw_result())
        self.assertEqual(set(m), set(benchlib.PER_LAYER))
        self.assertEqual(m["core.round_p50_s"], 0.3)
        self.assertEqual(m["trace.latency_p90_s"], 7.0)
        self.assertEqual(m["trace.first_feedback_p50_s"], 1.5)
        self.assertEqual(m["trace.placements_per_s"], 2 / 12.0)
        self.assertEqual(m["serve.ack_s"], 0.0)  # layer not exercised
        self.assertAlmostEqual(m["trace.stage_coverage"], 5.1 / 6.1)
        self.assertAlmostEqual(m["trace.gp_coverage"], 4.0 / 5.0)

    def test_benchmark_json_declares_what_is_reported(self):
        path = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         benchlib.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         benchlib.PER_LAYER)

    def test_result_line_keys(self):
        raw = raw_result()
        line = benchlib.result_line(raw, benchlib.end_to_end_metrics(raw),
                                    benchlib.END_TO_END)
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertTrue(line["correct"])
        self.assertEqual(line["metrics"]["setup_s"],
                         {"value": 0.2, "unit": "s"})


if __name__ == "__main__":
    unittest.main()
