"""Center elements, conjugacy-class sums, and the centralizer verification."""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from permlie import (
    ConstraintError,
    PauliTriple,
    ResourceLimitError,
    SparseEchelon,
    SymOpVector,
    all_triples,
    lie_closure,
    make_C,
    make_L,
    make_L_direct,
    orbit_bracket,
    preset_generators,
    run_selector,
    verify_center,
)
from permlie import center as center_mod
from permlie.center import (
    CENTER_CAP,
    FIELDS,
    _ad_kernel_system,
    spanning_generators,
)
from permlie.linalg import integer_row
from permlie.oracle import class_sum, dense_bracket, densify
from permlie.schur import SectorLedger, sector_ledger
from permlie.symops import GeneratorSet, rank_triple, triple_rank
from reference import bracket_vectors, closure_span_rank, nullspace, row_vectors, trace_inner


class TestCenterElements:
    def test_mu_two_worked_coefficients(self):
        for n in (4, 6):
            c2 = make_C(2, n)
            expected = SymOpVector(
                n,
                {
                    (4, 0, 0): 12,
                    (0, 4, 0): 12,
                    (0, 0, 4): 12,
                    (2, 2, 0): 4,
                    (2, 0, 2): 4,
                    (0, 2, 2): 4,
                },
            )
            assert c2 == expected

    def test_mu_zero_is_identity(self):
        assert make_C(0, 5) == SymOpVector.unit((0, 0, 0), 5)

    def test_mu_one_coefficients_and_dense_centrality(self):
        n = 3
        c1 = make_C(1, n)
        assert c1 == SymOpVector(n, {(2, 0, 0): 2, (0, 2, 0): 2, (0, 0, 2): 2})
        dense_c1 = densify(c1)
        for t in all_triples(n):
            assert dense_bracket(dense_c1, densify(SymOpVector.unit(t, n))).is_zero

    def test_support_is_even_at_level_two_mu(self):
        for n in (5, 9):
            for mu in range(n // 2 + 1):
                for t, _ in make_C(mu, n).items():
                    assert t.level == 2 * mu
                    assert t.kx % 2 == t.ky % 2 == t.kz % 2 == 0

    def test_mu_out_of_range(self):
        with pytest.raises(ConstraintError):
            make_C(3, 5)
        with pytest.raises(ConstraintError):
            make_C(-1, 5)

    def test_structurally_central_in_the_table(self, tables):
        n = 4
        table = tables(n)
        for mu in range(n // 2 + 1):
            cv = make_C(mu, n)
            for t in all_triples(n):
                assert bracket_vectors(table, cv, SymOpVector.unit(t, n)).is_zero


class TestClassSums:
    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_mu_one_worked_expansion(self, n):
        l1 = make_L(1, n)
        expected = SymOpVector(
            n,
            {
                (0, 0, 0): Fraction(comb(n, 2), 2),
                (2, 0, 0): Fraction(1, 2),
                (0, 2, 0): Fraction(1, 2),
                (0, 0, 2): Fraction(1, 2),
            },
        )
        assert l1 == expected

    def test_mu_zero_is_identity(self):
        assert make_L(0, 6) == SymOpVector.unit((0, 0, 0), 6)

    def test_matches_permutation_matrix_sum(self):
        assert densify(make_L(2, 4)) == class_sum(2, 4)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_recombination_equals_direct_count(self, n):
        for mu in range(n // 2 + 1):
            assert make_L(mu, n) == make_L_direct(mu, n)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_class_sums_and_centers_have_equal_spans(self, n):
        for mu in range(n // 2 + 1):
            c_ech = SparseEchelon()
            c_rank = c_ech.extend(make_C(m, n).coeffs for m in range(mu + 1))
            assert c_rank == mu + 1
            l_rows = [integer_row(make_L(m, n).coeffs) for m in range(mu + 1)]
            assert c_ech.extend(l_rows) == 0
            l_ech = SparseEchelon()
            assert l_ech.extend(l_rows) == mu + 1

    def test_mu_out_of_range(self):
        with pytest.raises(ConstraintError):
            make_L(4, 6)


class TestProjectionPattern:
    """A closure run's exempt levels are the C_mu some generator pairs
    with; every other C_mu is trace-orthogonal to the generators."""

    def test_two_body_set_touches_only_mu_one(self, ctx):
        assert ctx.closure("G2", 6).exempt == {1}

    def test_four_body_set_touches_mu_one_and_two(self, ctx):
        assert ctx.closure("Gk", 6, 4).exempt == {1, 2}

    def test_odd_letter_generator_orthogonal_everywhere(self):
        gens = GeneratorSet(4, (SymOpVector.unit((1, 1, 1), 4),), "custom")
        assert lie_closure(gens).exempt == frozenset()

    def test_pattern_is_conserved_by_the_closure(self, ctx):
        n, k = 5, 3
        run = ctx.closure("Gk", n, k)
        exempt = run.exempt
        rows = row_vectors(n, run.basis)
        for mu in range(n // 2 + 1):
            cv = make_C(mu, n)
            if mu not in exempt:
                assert all(trace_inner(row, cv) == 0 for row in rows)
            else:
                assert any(trace_inner(row, cv) != 0 for row in rows)


def full_scan_system(table):
    """Reference solve: the equations [A, P_t] = 0 over every basis pair,
    dim^2 table brackets.  Its nullspace is the centralizer by definition."""
    triples = all_triples(table.n)
    constraints = {}
    for s in triples:
        for t in triples:
            if s == t:
                continue
            for u, g in table.bracket(s, t).items():
                constraints.setdefault((t, u), {})[s] = g
    system = SparseEchelon()
    system.extend(constraints.values())
    return system


def span_rows(vecs):
    """Primitive reduced echelon rows: equal lists mean equal spans."""
    ech = SparseEchelon()
    ech.extend(map(integer_row, vecs))
    return ech.rows()


def commute_scan(table, cs):
    """Reference commute check: every C_mu against every basis element,
    (floor(n/2)+1)*dim table brackets.  True when all of them vanish."""
    n = table.n
    return all(
        bracket_vectors(table, c, SymOpVector.unit(t, n)).is_zero
        for c in cs
        for t in all_triples(n)
    )


def perturbed_make_C(mu, n):
    """make_C with the weight of one triple of the top C_mu raised by 1."""
    c = make_C(mu, n)
    if mu < n // 2:
        return c
    coeffs = dict(c.coeffs)
    coeffs[PauliTriple(2 * mu, 0, 0)] += 1
    return SymOpVector(n, coeffs)


class TestCentralizerVerification:
    def test_five_qubits(self):
        report = verify_center(5)
        assert report.expected_dim == 3
        assert report.commute_ok and report.independent_ok
        assert report.solved_dim == 3 == report.expected_dim
        assert report.ok

    def test_single_qubit_center_is_identity_line(self):
        report = verify_center(1)
        assert report.expected_dim == 1 and report.ok
        gens = spanning_generators(1)
        assert gens.members == tuple(SymOpVector.unit(t, 1) for t in ((1, 0, 0), (0, 1, 0)))
        assert sector_ledger(gens).full and closure_span_rank(gens) == 4

    def test_jsonable_fields(self):
        data = verify_center(2).to_jsonable()
        assert data["n"] == 2 and data["ok"] is True
        assert set(data) == {
            "n", "expected_dim", "commute_ok", "independent_ok", "solved_dim", "ok",
        }

    @pytest.mark.parametrize("n", range(1, 17))
    def test_certificate_agrees_with_the_closure_span_rank(self, n):
        """The ledger certificate holds wherever the old one did: the
        spanning closure joined by the C_mu is the whole algebra."""
        assert verify_center(n).commute_ok
        assert closure_span_rank(spanning_generators(n)) == comb(n + 3, 3)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_certificate_agrees_with_commute_scan(self, tables, n):
        table = tables(n)
        report = verify_center(n)
        cs = [make_C(mu, n) for mu in range(n // 2 + 1)]
        assert commute_scan(table, cs) is report.commute_ok is True

    @pytest.mark.parametrize("n", range(2, 7))
    def test_ledger_that_proves_nothing_fails_the_certificate(self, tables, monkeypatch, n):
        """The certificate is sufficient only: without the ledger's proof
        commute_ok is false, though the C_mu do commute with everything."""
        monkeypatch.setattr(center_mod, "sector_ledger", lambda gens: SectorLedger(gens.n, ()))
        report = verify_center(n)
        assert commute_scan(tables(n), [make_C(mu, n) for mu in range(n // 2 + 1)])
        assert not report.commute_ok and not report.ok
        assert report.independent_ok and report.solved_dim == report.expected_dim

    @pytest.mark.parametrize("engine", ["overlap", "orbit"])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_bracket_flips_y_parity(self, tables, n, engine):
        """ky(u) = ky(a) + ky(b) + 1 (mod 2) on every structure constant.
        Transposition fixes X and Z and negates Y, so P_t^T = (-1)^ky(t) P_t,
        and a bracket is odd under it.  So the bracket of two even-ky
        elements, such as two C_mu, has odd ky only; no certificate rests
        on it."""
        table = tables(n)
        for a, b in combinations(all_triples(n), 2):
            ab = table.bracket(a, b) if engine == "overlap" else orbit_bracket(a, b, n)
            for u in ab.coeffs:
                assert (u.ky - a.ky - b.ky) % 2 == 1, (a, b, u)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_center_elements_commute_with_each_other(self, tables, n):
        table = tables(n)
        cs = [make_C(mu, n) for mu in range(n // 2 + 1)]
        for c1, c2 in combinations(cs, 2):
            assert bracket_vectors(table, c1, c2).is_zero

    @pytest.mark.parametrize("n", range(2, 7))
    def test_short_spanning_set_fails(self, monkeypatch, n):
        monkeypatch.setattr(
            center_mod, "spanning_generators", lambda m: preset_generators("G1prime", m)
        )
        report = verify_center(n)
        g1prime = preset_generators("G1prime", n)
        assert not sector_ledger(g1prime).full
        assert closure_span_rank(g1prime) < comb(n + 3, 3)
        assert not report.commute_ok
        assert report.independent_ok and report.solved_dim == report.expected_dim
        assert not report.ok

    @pytest.mark.parametrize("n", range(1, 8))
    def test_field_kernel_equals_full_scan_and_c_span(self, tables, n):
        table = tables(n)
        triples = all_triples(n)
        kernel = nullspace(_ad_kernel_system(table, FIELDS), range(len(triples)))
        fields = span_rows({rank_triple(r): q for r, q in sol.items()} for sol in kernel)
        full = span_rows(nullspace(full_scan_system(table), triples))
        c_span = span_rows(make_C(mu, n).coeffs for mu in range(n // 2 + 1))
        assert len(fields) == n // 2 + 1
        assert fields == full == c_span

    @pytest.mark.parametrize("n", range(1, 13))
    def test_solve_rank_does_not_depend_on_insert_order(self, tables, n):
        # _ad_kernel_system inserts its equations sorted; any order has the
        # same rank, so solved_dim does not rest on the sort
        table = tables(n)
        equations: dict = {}
        for s in range(comb(n + 3, 3)):
            for g in map(triple_rank, FIELDS):
                for u, c in table.bracket_coeffs({s: 1}, {g: 1}).items():
                    equations.setdefault((g, u), {})[s] = c
        built = list(equations.values())
        shuffled = built[:]
        random.Random(n).shuffle(shuffled)
        rank = _ad_kernel_system(table, FIELDS).rank
        assert comb(n + 3, 3) - rank == n // 2 + 1
        for order in (built, built[::-1], shuffled):
            ech = SparseEchelon()
            ech.extend(order)
            assert ech.rank == rank

    @pytest.mark.parametrize("n", range(2, 7))
    def test_x_field_alone_overcounts(self, tables, monkeypatch, n):
        table = tables(n)
        x_only = (PauliTriple(1, 0, 0),)
        free = len(all_triples(n)) - _ad_kernel_system(table, x_only).rank
        assert free > n // 2 + 1
        monkeypatch.setattr(center_mod, "FIELDS", x_only)
        report = verify_center(n)
        assert report.commute_ok and report.independent_ok
        assert report.solved_dim == free != report.expected_dim
        assert not report.ok

    @pytest.mark.parametrize("n", range(2, 9))
    def test_changed_weight_fails_commute_scan(self, tables, monkeypatch, n):
        table = tables(n)
        bad = [perturbed_make_C(mu, n) for mu in range(n // 2 + 1)]
        assert not commute_scan(table, bad)
        monkeypatch.setattr(center_mod, "make_C", perturbed_make_C)
        report = verify_center(n)
        assert not report.commute_ok
        assert report.solved_dim == n // 2 + 1 == report.expected_dim
        assert not report.ok

    def test_resource_cap(self):
        with pytest.raises(ResourceLimitError):
            verify_center(CENTER_CAP + 1)
        with pytest.raises(ResourceLimitError):
            run_selector("prop1", CENTER_CAP + 1, CENTER_CAP + 3)


class TestDenseCenterOracle:
    def test_four_qubit_centralizer_is_exactly_the_c_span(self):
        """Nullspace of the word-level commutator action, found independently."""
        n = 4
        triples = all_triples(n)
        dense_units = [densify(SymOpVector.unit(t, n)) for t in triples]
        constraints = SparseEchelon()
        for probe in dense_units:
            rows: dict[int, dict] = {}
            for j, gen in enumerate(dense_units):
                br = dense_bracket(gen, probe)
                for word, coeff in br.coeffs.items():
                    rows.setdefault(word, {})[j] = coeff
            constraints.extend(rows.values())
        null = nullspace(constraints, range(len(triples)))
        assert len(null) == n // 2 + 1
        c_span = SparseEchelon()
        c_span.extend(make_C(mu, n).coeffs for mu in range(n // 2 + 1))
        for sol in null:
            vec = SymOpVector(n, {triples[j]: q for j, q in sol.items()})
            assert c_span.contains(vec.coeffs)
