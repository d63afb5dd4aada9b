"""Self-tests of the benchmark harness.

Run from the root of a checkout::

    python3 bench/selftest.py

They start worker processes, so they live here rather than in the
program's test suite.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import unittest
from pathlib import Path

import run as bench
import workloads as wl
from tracer import PER_LAYER, Tracer, aggregate, self_times


def _order(req):
    return int(req.argv[req.argv.index("--n") + 1])


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # main [0, 10] holds a [1, 4] (which holds a1 [2, 3]) and b [5, 9]
        spans = [
            ("main", 0.0, 10.0, -1),
            ("a", 1.0, 4.0, 0),
            ("a1", 2.0, 3.0, 1),
            ("b", 5.0, 9.0, 0),
        ]
        self.assertEqual(self_times(spans), [3.0, 2.0, 1.0, 4.0])

    def test_recursion_marks_only_the_outermost_span(self):
        tracer = Tracer()

        def fact(n):
            return 1 if n <= 1 else n * traced(n - 1)

        traced = tracer._span("toy.fact", fact)
        tracer.begin(0)
        self.assertEqual(traced(4), 24)
        outer = [s[5] for s in tracer.spans]
        parents = [s[3] for s in tracer.spans]
        self.assertEqual(outer, [True, False, False, False])
        self.assertEqual(parents, [-1, 0, 1, 2])

    def test_ratios_are_sums_over_sums(self):
        base = {name: 0 for name in ("species.egf_hits", "species.egf_lookups",
                                     "oracle.enum_hits", "oracle.enum_lookups",
                                     "zindex.mono_mul_useful", "zindex.mono_mul_pairs")}
        rows = []
        for hits, lookups in ((1, 4), (3, 4)):
            row = {name: 0.0 for name in PER_LAYER}
            row.update(base, **{"species.egf_hits": hits, "species.egf_lookups": lookups})
            rows.append(row)
        out = aggregate(rows, cache_entries_end=7, overhead_ratio=1.5)
        self.assertEqual(out["species.egf_hit_ratio"], 0.5)
        self.assertEqual(out["oracle.enum_hit_ratio"], 0.0)
        self.assertEqual(out["cache.entries_end"], 7)


class Golden(unittest.TestCase):
    def test_corrupted_golden_counts_as_failed(self):
        corpus = sorted(wl.CORPORA["labelled"], key=_order)[:2]
        golden = bench.load_golden()
        bad = dict(golden)
        key = corpus[0].key
        bad[key] = dict(golden[key], digest="0" * 64)
        run = bench.run_cold(corpus, seed=1, seconds=0, golden=bad, trace=False, spans_dir=None)
        metrics, _ = bench.end_to_end(run)
        self.assertEqual(len(run.samples), 2 * bench.MIN_PASSES)
        self.assertEqual([s.ok for s in run.samples if s.request.key == key], [False] * bench.MIN_PASSES)
        self.assertEqual(metrics["correct_ratio"], 0.5)

    def test_tail_ladder_keeps_ten_beyond(self):
        self.assertEqual(bench.tail_percentile(40), 75)
        self.assertEqual(bench.tail_percentile(39), 50)
        self.assertEqual(bench.tail_percentile(1000), 99)


class TracedDigests(unittest.TestCase):
    """Tracing must not change a single output byte, on any workload."""

    def setUp(self):
        self.golden = bench.load_golden()
        self.spans = Path(tempfile.mkdtemp(dir=bench.ROOT / ".bench_out"))
        self.addCleanup(shutil.rmtree, self.spans)

    def _assert_clean(self, run):
        self.assertGreater(len(run.samples), 0)
        self.assertEqual(run.mismatched_traces, 0)
        self.assertTrue(all(s.ok for s in run.samples))

    def test_cold_workloads(self):
        for name, corpus in wl.CORPORA.items():
            with self.subTest(workload=name):
                small = sorted(corpus, key=_order)[:4]
                run = bench.run_cold(small, 1, 0, self.golden, True, self.spans)
                self._assert_clean(run)

    def test_session(self):
        run = bench.run_session(1, 2, self.golden, True, self.spans)
        self._assert_clean(run)


if __name__ == "__main__":
    (bench.ROOT / ".bench_out").mkdir(exist_ok=True)
    if not (bench.ROOT / "src" / "specalc").is_dir():
        sys.exit("no specalc sources in this checkout")
    unittest.main()
