"""Self-tests of run.py's helpers: python3 -m unittest discover -s perfbench"""

import json
import os
import statistics
import unittest

import run


def span(id_, parent, start, end, layer="x", name="s"):
    return {"id": id_, "parent": parent, "name": name, "layer": layer,
            "start_s": start, "end_s": end}


class Statistics(unittest.TestCase):
    def test_median(self):
        self.assertEqual(run.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(run.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(run.quartiles(values), (q1, q3))
        self.assertEqual(run.quartiles([2.0]), (2.0, 2.0))

    def test_spread_is_iqr_over_median(self):
        values = [10.0, 10.0, 11.0, 9.0, 10.0]
        q1, q3 = run.quartiles(values)
        self.assertAlmostEqual(run.spread(values), (q3 - q1) / 10.0)
        self.assertEqual(run.spread([4.0, 4.0, 4.0]), 0.0)


class Spans(unittest.TestCase):
    def test_covered_merges_overlaps_and_clips(self):
        self.assertAlmostEqual(run.covered(0, 10, [(1, 4), (3, 6)]), 5.0)
        self.assertAlmostEqual(run.covered(0, 10, [(-5, 2), (8, 20)]), 4.0)
        self.assertAlmostEqual(run.covered(0, 10, [(2, 3), (5, 6)]), 2.0)
        self.assertAlmostEqual(run.covered(0, 10, []), 0.0)

    def test_self_time_with_overlapping_children(self):
        spans = [span(1, 0, 0.0, 10.0), span(2, 1, 1.0, 5.0),
                 span(3, 1, 4.0, 7.0), span(4, 2, 2.0, 3.0)]
        own = run.self_times(spans)
        self.assertAlmostEqual(own[1], 10.0 - 6.0)  # children cover 1..7.
        self.assertAlmostEqual(own[2], 4.0 - 1.0)
        self.assertAlmostEqual(own[3], 3.0)
        self.assertAlmostEqual(own[4], 1.0)

    def test_attribute_sums_layers_under_the_replay_root(self):
        spans = [span(1, 0, 0.0, 10.0, "perfbench", "replay"),
                 span(2, 1, 0.0, 6.0, "solar"), span(3, 1, 6.0, 9.0, "sweep"),
                 span(4, 0, 10.0, 50.0, "perfbench", "stand_in"),
                 span(5, 4, 10.0, 50.0, "solar")]
        total, layers = run.attribute(spans)
        self.assertAlmostEqual(total, 10.0)
        self.assertEqual(set(layers), {"perfbench", "solar", "sweep"})
        self.assertAlmostEqual(layers["solar"], 6.0)
        self.assertAlmostEqual(layers["perfbench"], 1.0)  # unattributed.
        with self.assertRaises(run.BenchError):
            run.attribute([span(1, 0, 0.0, 1.0, name="other")])


class Contract(unittest.TestCase):
    def test_benchmark_json_names_are_unique(self):
        path = os.path.join(run.HERE, os.pardir, "BENCHMARK.json")
        with open(path) as f:
            spec = json.load(f)
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
