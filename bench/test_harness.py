"""Self-tests of the benchmark harness (stdlib unittest).

    python3 bench/test_harness.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_keeps_ten_samples_beyond(self):
        self.assertIsNone(run.highest_percentile(19))
        self.assertEqual(run.highest_percentile(20), 50)
        self.assertEqual(run.highest_percentile(99), 50)
        self.assertEqual(run.highest_percentile(100), 90)
        self.assertEqual(run.highest_percentile(10000), 90)
        self.assertEqual(run.highest_percentile(1000, ladder=(50, 90, 99)), 99)
        self.assertEqual(run.highest_percentile(999, ladder=(50, 90, 99)), 90)

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 90), 90)
        self.assertEqual(run.percentile(values, 50), 50)
        self.assertEqual(run.percentile([5], 90), 5)


class SelfTime(unittest.TestCase):
    def spans(self, tracer, rows):
        """rows: (function name, start, end, parent index), in start order."""
        for name, start, end, parent in rows:
            tracer.kind.append(tracer.names.index(name))
            tracer.start.append(start)
            tracer.end.append(end)
            tracer.parent.append(parent)
            tracer.op.append(0)

    def test_nested_spans(self):
        t = tracing.Tracer()
        self.spans(t, [
            ("cli.run", 0, 100, -1),
            ("lyndon_intervals.plateaus", 10, 90, 0),
            ("seq_core.lex_cmp", 20, 30, 1),
            ("seq_core.lex_cmp", 40, 45, 1),
            ("lyndon_intervals.ebli", 50, 70, 1),
            ("seq_core.lex_cmp", 55, 60, 4),
            ("cli.run", 200, 210, -1),
        ])
        m = t.metrics()
        s = 1e-9
        self.assertAlmostEqual(m["cli.run.self_s"], (100 - 80 + 10) * s)
        self.assertAlmostEqual(m["lyndon_intervals.plateaus.self_s"], (80 - 10 - 5 - 20) * s)
        self.assertAlmostEqual(m["lyndon_intervals.ebli.self_s"], 15 * s)
        self.assertAlmostEqual(m["seq_core.self_s"], 20 * s)
        self.assertEqual(m["seq_core.lex_cmp.calls"], 3)
        # ebli runs inside plateaus, so the layer is busy only while plateaus runs
        self.assertAlmostEqual(m["lyndon_intervals.busy_s"], 80 * s)
        self.assertAlmostEqual(m["lyndon_intervals.plateaus.kept_ratio"], 0.0)
        total_self = sum(m[layer + ".self_s"] for layer in tracing.LAYERS)
        self.assertAlmostEqual(total_self, 110 * s)

    def test_recursion_counts_busy_time_once(self):
        t = tracing.Tracer()
        self.spans(t, [
            ("seq_core.log_interval", 0, 50, -1),
            ("seq_core.log_interval", 10, 30, 0),
        ])
        m = t.metrics()
        self.assertEqual(m["seq_core.log_interval.calls"], 2)
        self.assertAlmostEqual(m["seq_core.log_interval.busy_s"], 50e-9)
        self.assertAlmostEqual(m["seq_core.log_interval.self_s"], 50e-9)


class GeneratorDigest(unittest.TestCase):
    def digest(self, workload, seed):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", workload,
             "--seed", str(seed), "--rounds", "2"],
            capture_output=True, text=True, check=True).stdout
        return out.splitlines()[-1]

    def test_same_seed_same_inputs(self):
        for workload in ("plateaus", "queries"):
            self.assertEqual(self.digest(workload, 5), self.digest(workload, 5))

    def test_other_seed_other_inputs(self):
        self.assertNotEqual(self.digest("queries", 5), self.digest("queries", 6))


class Golden(unittest.TestCase):
    def test_tighter_enclosure_passes_and_disjoint_fails(self):
        op = ["entropy", "--alpha", "(1)", "--lower", "(01)"]
        ref = '{"h":{"lo":"0.40","hi":"0.50"},"states":3}'
        self.assertEqual(checks.golden_mismatch(op, '{"h":{"lo":"0.45","hi":"0.46"},"states":3}', ref), [])
        self.assertTrue(checks.golden_mismatch(op, '{"h":{"lo":"0.51","hi":"0.52"},"states":3}', ref))
        self.assertTrue(checks.golden_mismatch(op, '{"h":{"lo":"0.45","hi":"0.46"},"states":4}', ref))


if __name__ == "__main__":
    unittest.main()
