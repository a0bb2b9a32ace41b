"""Published coefficient tables: recomputation, rank, and the dependence fix."""

import json

import pytest

from permlie import (
    ConstraintError,
    PauliTriple,
    StructureTable,
    SymOpVector,
    build_abc,
    printed_commutators,
    relevant_support,
    to_printed_convention,
    verify_printed_commutators,
)


class TestPrintedTables:
    def test_three_body_on_four_qubits(self):
        first, second, third = printed_commutators(3, 4)
        assert first.lhs == (PauliTriple(2, 1, 0), PauliTriple(0, 0, 1))
        assert first.expected == {
            PauliTriple(1, 2, 0): -4,
            PauliTriple(3, 0, 0): 6,
        }
        assert second.expected == {
            PauliTriple(1, 0, 2): 4,
            PauliTriple(3, 0, 0): -6,
        }
        assert third.expected == {
            PauliTriple(1, 0, 0): 6,
            PauliTriple(1, 2, 0): -4,
            PauliTriple(1, 0, 2): -4,
            PauliTriple(3, 0, 0): 12,
        }

    def test_four_body_on_five_qubits(self):
        first, second, third = printed_commutators(4, 5)
        assert first.expected[PauliTriple(4, 0, 0)] == 8
        assert second.expected[PauliTriple(2, 0, 2)] == 4
        assert third.expected[PauliTriple(4, 0, 0)] == 24
        # the level-drop term the original derivation missed
        assert third.expected[PauliTriple(0, 2, 0)] == -12

    def test_four_body_on_six_qubits(self):
        _, second, third = printed_commutators(4, 6)
        assert second.expected[PauliTriple(2, 0, 2)] == 4
        assert third.expected[PauliTriple(2, 0, 0)] == 2 * 2 * 4

    def test_uncorrected_tables_drop_multiplicities(self):
        first, _, third = printed_commutators(4, 5, corrected=False)
        assert first.expected == {
            PauliTriple(2, 2, 0): -2,
            PauliTriple(4, 0, 0): 2,
        }
        assert PauliTriple(0, 2, 0) not in third.expected
        assert all(v in (2, -2) for v in third.expected.values())

    def test_rejects_low_kbar_and_small_n(self):
        with pytest.raises(ConstraintError):
            printed_commutators(2, 4)
        with pytest.raises(ConstraintError):
            printed_commutators(5, 4)


class TestConventionMap:
    def test_flips_sign_on_odd_total_y_count(self):
        a, b = PauliTriple(2, 1, 0), PauliTriple(0, 0, 1)
        vec = SymOpVector(4, {PauliTriple(1, 2, 0): 4, PauliTriple(3, 0, 0): -6})
        assert to_printed_convention(vec, a, b) == {
            PauliTriple(1, 2, 0): -4,
            PauliTriple(3, 0, 0): 6,
        }

    def test_keeps_sign_on_even_total_y_count(self):
        a, b = PauliTriple(1, 1, 0), PauliTriple(0, 1, 0)
        vec = SymOpVector(3, {PauliTriple(2, 0, 0): 2, PauliTriple(0, 2, 0): -2})
        assert to_printed_convention(vec, a, b) == dict(vec.items())

    @pytest.mark.parametrize("kbar,n", [(3, 3), (3, 4), (4, 4), (4, 5), (5, 5)])
    def test_structure_engine_reproduces_every_table(self, kbar, n):
        table = StructureTable(n)
        for pc in printed_commutators(kbar, n):
            a, b = pc.lhs
            got = to_printed_convention(table.bracket(a, b), a, b)
            assert got == pc.expected


class TestOracleRecomputation:
    @pytest.mark.parametrize("kbar,n", [(3, 3), (3, 4), (4, 4), (4, 5), (5, 6), (6, 6)])
    def test_all_printed_coefficients_match(self, kbar, n):
        report = verify_printed_commutators(kbar, n)
        assert report.ok
        assert all(r["match"] for r in report.records)
        # no phantom or missing terms: both sides present in every record
        assert all(
            r["printed"] is not None and r["recomputed"] is not None
            for r in report.records
        )

    def test_record_shape_and_jsonable(self):
        report = verify_printed_commutators(3, 4)
        assert report.n == 4 and report.ok is True
        rec = report.records[0]
        assert {"commutator", "triple", "printed", "recomputed", "match"} <= set(rec)
        # the records go into verify noteF's report as they are
        assert json.loads(json.dumps(report.records)) == list(report.records)

    def test_rejects_out_of_range(self):
        with pytest.raises(ConstraintError):
            verify_printed_commutators(2, 4)
        with pytest.raises(ConstraintError):
            verify_printed_commutators(4, 3)


class TestSharedSupportRank:
    def test_support_triples(self):
        assert relevant_support(5) == (
            PauliTriple(3, 2, 0),
            PauliTriple(3, 0, 2),
            PauliTriple(5, 0, 0),
        )

    @pytest.mark.parametrize(
        "kbar,n", [(k, n) for n in range(3, 10) for k in range(3, n + 1)]
    )
    def test_corrected_tables_have_rank_two(self, kbar, n):
        case = build_abc(kbar, n)
        assert case.rank == 2
        assert case.dependence_holds
        assert case.C == case.A.scaled(kbar - 2) - case.B

    @pytest.mark.parametrize(
        "kbar,n", [(k, n) for n in range(3, 10) for k in range(3, n + 1)]
    )
    def test_uncorrected_tables_have_rank_three(self, kbar, n):
        case = build_abc(kbar, n, corrected=False)
        assert case.rank == 3
        assert not case.dependence_holds

    def test_projection_keeps_only_shared_support(self):
        case = build_abc(4, 6)
        support = set(relevant_support(4))
        for vec in (case.A, case.B, case.C):
            assert set(vec.support()) <= support

    def test_rejects_out_of_range(self):
        with pytest.raises(ConstraintError):
            build_abc(2, 5)
        with pytest.raises(ConstraintError):
            build_abc(6, 5)
