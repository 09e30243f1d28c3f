"""Tests of the benchmark's span recorder and wrapper installation.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import sys
import unittest
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spans import SpanRecorder, Tracer  # noqa: E402


def recorder(times):
    """A recorder whose clock returns ``times`` in order, one per open or close."""
    return SpanRecorder(clock=iter(times).__next__)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 8]
        rec = recorder([0, 1, 4, 5, 6, 8, 9, 10])
        root = rec.open("root")
        a = rec.open("a")
        rec.close(a)
        b = rec.open("b")
        c = rec.open("c")
        rec.close(c)
        rec.close(b)
        rec.close(root)
        self.assertEqual(rec.parents, [-1, 0, 0, 2])
        self.assertEqual(rec.self_times(), [3, 3, 2, 2])
        self.assertEqual(sum(rec.self_times()), 10)

    def test_totals_group_by_name(self):
        # root [0, 10] holds leaf [1, 5] (holding leaf [2, 3]) and leaf [6, 9]
        # (holding leaf [7, 8])
        rec = recorder([0, 1, 2, 3, 5, 6, 7, 8, 9, 10])
        root = rec.open("root")
        for _ in range(2):
            leaf = rec.open("leaf")
            inner = rec.open("leaf")
            rec.close(inner)
            rec.close(leaf)
        rec.close(root)
        self.assertEqual(rec.layer_totals(), {"root": (1, 3), "leaf": (4, 7)})

    def test_overlapping_children_count_once_and_are_clipped(self):
        rec = SpanRecorder()
        rec.names = ["parent", "x", "y"]
        rec.starts = [0.0, 2.0, 4.0]
        rec.ends = [10.0, 6.0, 12.0]
        rec.parents = [-1, 0, 0]
        # children cover [2, 10] of the parent: self time 2
        self.assertEqual(rec.self_times()[0], 2.0)

    def test_out_of_order_close_is_rejected(self):
        rec = recorder([0, 1, 2])
        outer = rec.open("outer")
        rec.open("inner")
        with self.assertRaises(RuntimeError):
            rec.close(outer)

    def test_counters_accumulate(self):
        rec = SpanRecorder()
        rec.add("rows", 3)
        rec.add("rows", 4)
        self.assertEqual(rec.counters, {"rows": 7})


class TracerTest(unittest.TestCase):
    def test_wraps_every_lookup_site_and_restores(self):
        from hlpuf_lab import adversary, cli, hybrid, protocol, qstate

        originals = (adversary.lr_train, hybrid.server_verify, qstate.MubFamily.basis_state)
        rec = SpanRecorder()
        with Tracer(rec):
            self.assertIs(cli.lr_train, adversary.lr_train)
            self.assertIsNot(adversary.lr_train, originals[0])
            self.assertIs(protocol.server_verify, hybrid.server_verify)
            self.assertIs(adversary.server_verify, hybrid.server_verify)
            self.assertIsNot(hybrid.server_verify, originals[1])
        self.assertEqual((adversary.lr_train, hybrid.server_verify,
                          qstate.MubFamily.basis_state), originals)
        self.assertIs(cli.lr_train, originals[0])
        self.assertIs(protocol.server_verify, originals[1])

    def test_traced_call_draws_the_same_random_stream(self):
        from hlpuf_lab import qstate

        state = qstate.bb84_state(0, 1)
        basis = np.eye(2, dtype=complex)
        plain_rng, traced_rng = np.random.default_rng(5), np.random.default_rng(5)
        plain = [qstate.measure(state, basis, plain_rng)[0] for _ in range(50)]
        rec = SpanRecorder()
        with Tracer(rec):
            traced = [qstate.measure(state, basis, traced_rng)[0] for _ in range(50)]
        self.assertEqual(plain, traced)
        self.assertEqual(plain_rng.random(), traced_rng.random())
        self.assertEqual(rec.layer_totals()["qstate.measure"][0], 50)


if __name__ == "__main__":
    unittest.main()
