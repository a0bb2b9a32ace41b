"""Tests of the benchmark's own closed forms and checkers, on cases verified
by hand.  Kept out of the program's test suite:

    python3 permbench/selfcheck.py
"""

from __future__ import annotations

import unittest
from math import comb

from checks import (
    centralizer_dim,
    check_close,
    check_oracle,
    check_schur,
    check_table_compare,
    closure_dim,
    is_universal,
    preset_dim,
    sector_table,
)


class ClosedForms(unittest.TestCase):
    def test_hand_counted_dimensions(self):
        self.assertEqual(closure_dim(6, 3), 81)  # 84 - 4 + 1
        self.assertEqual(closure_dim(4, 2), 33)  # 35 - 3 + 1
        self.assertEqual(closure_dim(2, 2), 9)   # 10 - 2 + 1
        self.assertEqual(closure_dim(8, 8), 164)  # 165 - 5 + 4 = traceless part

    def test_threshold_is_where_the_closure_is_traceless(self):
        for n in range(2, 13):
            for k in range(2, n + 1):
                self.assertEqual(is_universal(n, k), closure_dim(n, k) == comb(n + 3, 3) - 1,
                                 (n, k))

    def test_threshold_cases(self):
        self.assertTrue(is_universal(4, 4))
        self.assertFalse(is_universal(4, 3))
        self.assertTrue(is_universal(5, 4))
        self.assertFalse(is_universal(5, 3))

    def test_centralizer(self):
        self.assertEqual([centralizer_dim(n) for n in (1, 2, 5, 8, 9)], [1, 2, 3, 5, 5])

    def test_sector_table(self):
        self.assertEqual(sector_table(4), [[0, 1, 5], [1, 3, 3], [2, 2, 1]])
        self.assertEqual(sector_table(1), [[0, 1, 2]])
        for n in range(1, 21):  # the sectors fill the 2^n-dimensional space
            self.assertEqual(sum(d * m for _, d, m in sector_table(n)), 2 ** n)

    def test_presets(self):
        self.assertEqual([preset_dim(p, 3) for p in ("G1", "G1prime", "G2", "Gk:3")], [1, 3, 19, 19])


class Checkers(unittest.TestCase):
    def test_close(self):
        good = {"dim": 81, "verdicts": {"universal": False, "semi_universal": True}}
        self.assertEqual(check_close(6, 3)(good), [])
        self.assertEqual(len(check_close(6, 3)({**good, "dim": 80})), 1)
        wrong = {**good, "verdicts": {"universal": True, "semi_universal": True}}
        self.assertEqual(len(check_close(6, 3)(wrong)), 1)
        self.assertEqual(len(check_close(6, 3, dense=True)({**good, "dense_dim": 80})), 1)

    def test_table_compare(self):
        def report(count):
            return {"cases": [{"name": "method-agreement", "params": {"n": 6},
                               "details": {"mismatch_count": count}}]}

        self.assertEqual(check_table_compare(report(0)), [])
        self.assertEqual(len(check_table_compare(report(2))), 1)
        self.assertEqual(len(check_table_compare({"cases": []})), 1)

    def test_oracle_needs_every_n(self):
        case = {"name": "dense-vs-sparse-closure", "params": {"n": 2},
                "details": {"G1": {"sparse": 1, "dense": 1}, "G1prime": {"sparse": 3, "dense": 3},
                            "G2": {"sparse": 9, "dense": 9}}}
        self.assertEqual(check_oracle(2, 2)({"cases": [case]}), [])
        self.assertEqual(len(check_oracle(2, 3)({"cases": [case]})), 1)
        case["details"]["G2"]["dense"] = 8
        self.assertEqual(len(check_oracle(2, 2)({"cases": [case]})), 1)

    def test_schur(self):
        control = {"closure_dim": 33, "sectors": [
            {"mu": 0, "m": 5, "span_dim": 24}, {"mu": 1, "m": 3, "span_dim": 8},
            {"mu": 2, "m": 1, "span_dim": 0}]}
        report = {"cases": [
            {"name": "sector-table", "params": {"n": 4},
             "details": {"blocks": [[0, 1, 5], [1, 3, 3], [2, 2, 1]]}},
            {"name": "block-structure", "params": {"n": 4, "gens": "G2"},
             "details": {"rows_projected": 33, "block_pattern": "clean",
                         "subspace_control": control}},
        ]}
        self.assertEqual(check_schur(4)(report), [])
        control["sectors"][1]["span_dim"] = 7
        self.assertEqual(len(check_schur(4)(report)), 1)


if __name__ == "__main__":
    unittest.main()
