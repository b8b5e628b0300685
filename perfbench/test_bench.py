"""Self-tests of the benchmark's gate and tracer.

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

import gate
import spans

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _passing(key: str) -> dict:
    want = gate.EXPECTED[key]
    return {
        "key": key,
        "graphs_checked": want["graphs_checked"],
        "violations": 0,
        "equality_witnesses": want["equality_witnesses"],
        "coverage": want.get("coverage"),
        "rc": 0,
    }


class GateTest(unittest.TestCase):
    def test_expected_values_pass(self):
        summaries = [_passing(key) for key in gate.EXPECTED]
        self.assertEqual(gate.tally(summaries), (len(summaries), 0, []))

    def test_wrong_expected_count_is_a_failure(self):
        expected = dict(gate.EXPECTED)
        expected["order_size:n=7"] = dict(expected["order_size:n=7"], graphs_checked=852)
        summaries = [_passing("order_size:n=7"), _passing("deletion:n=7")]
        attempted, failed, problems = gate.tally(summaries, expected)
        self.assertEqual((attempted, failed), (2, 1))
        self.assertEqual(failed / attempted, 0.5)
        self.assertIn("graphs_checked is 853, expected 852", problems[0])

    def test_injected_violation_is_a_failure(self):
        summaries = [_passing("odd_trees:n=12") for _ in range(3)]
        summaries[1]["violations"] = 1
        attempted, failed, _ = gate.tally(summaries)
        self.assertEqual((attempted, failed), (3, 1))

    def test_summary_of_a_real_report(self):
        from wienerseq.verifier import search_maximal_planar

        report = search_maximal_planar(9, mode="apollonian").to_dict()
        summary = gate.summarize(report, rc=0)
        self.assertEqual(summary["key"], "maximal_planar:mode=apollonian,n=9")
        self.assertEqual(gate.check(summary), [])


class TracerTest(unittest.TestCase):
    def test_counts_of_a_small_suite(self):
        # Graphs on 5 vertices grow from 1, 2, 4 and 11 classes of orders
        # 1..4 by every neighborhood of the new vertex: 2 + 8 + 32 + 176
        # labelings keep 2 + 4 + 11 + 34 classes, 21 of the 34 connected.
        from wienerseq import enumeration, verifier

        enumeration._all_graphs.cache_clear()
        original = enumeration.canonical_graph
        tracer = spans.Tracer()
        with tracer.patched():
            tracer.wrap(spans.ROOT, verifier.verify_order_size)(5)
        self.assertIs(enumeration.canonical_graph, original)
        m = tracer.metrics()
        self.assertEqual(m["enumeration.canonical_calls"], 218)
        self.assertEqual(m["enumeration.classes_out"], 51)
        self.assertEqual(m["enumeration.filter_calls"], 34)
        self.assertEqual(m["enumeration.filter_passed"], 21)
        self.assertEqual(m["verifier.graphs_checked"], 21)
        self.assertGreater(m["trace.verdict_s"], m["verifier.check_s"])

    def test_self_time_subtracts_children(self):
        tracer = spans.Tracer()
        inner = tracer.wrap("codec", lambda: None)
        tracer.wrap(spans.ROOT, inner)()
        (root, _, r0, r1, _), (parent, kind, c0, c1, _) = tracer.spans
        self.assertEqual((root, parent, kind), (None, 0, "codec"))
        m = tracer.metrics()
        self.assertAlmostEqual(m["trace.unattributed_s"], (r1 - r0) - (c1 - c0))
        self.assertAlmostEqual(m["graphs.codec_s"], c1 - c0)


class BenchmarkFileTest(unittest.TestCase):
    def test_per_layer_metrics_match_benchmark_json(self):
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            bench = json.load(fh)
        declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
        self.assertEqual(
            declared, {name: unit for name, (unit, _) in spans.LAYER_METRICS.items()}
        )


if __name__ == "__main__":
    unittest.main()
