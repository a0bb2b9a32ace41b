"""Sector data, exact sector blocks and controllability spans, checked
against the float coupled basis of tests/coupled_basis.py."""

import gc
import itertools
import weakref
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings

import coupled_basis
from coupled_basis import (
    SCHUR_BUILD_CAP,
    UNITARITY_TOL,
    SchurTransform,
    block_project,
    build_schur_transform,
    dense_matrix,
    permutation_matrix,
)
from permlie import (
    ConstraintError,
    DimensionMismatch,
    GeneratorSet,
    ResourceLimitError,
    SparseEchelon,
    SymOpVector,
    VerificationError,
    all_triples,
    by_rank,
    certify_subspace_control,
    isotypic_table,
    lie_closure,
    make_C,
    orbit_size,
    orbit_words,
    parse_generator_spec,
    preset_generators,
    sector_block,
    sector_check,
    sector_ledger,
    triple_block,
)
from permlie import schur
from permlie.closure import _verdicts
from permlie.schur import SECTOR_CAP, central_residuals
from permlie.linalg import integer_row
from reference import (
    one_stage_closure,
    phase_rank,
    row_vectors,
    sector_trace_rank,
    trace_inner,
    trace_pairing_verdicts,
    word_text,
)

from conftest import (
    ENGINE_DEADLINE,
    WIDE_DEADLINE,
    case_ids,
    custom_generator_sets,
    g2_plus_custom_sets,
    kron_word,
    preset_cases,
)

PRESETS_TO_12 = preset_cases(12)


class TestIsotypicTable:
    def test_two_qubits(self):
        blocks = isotypic_table(2)
        assert [(b.mu, b.d, b.m) for b in blocks] == [(0, 1, 3), (1, 1, 1)]

    def test_four_qubits(self):
        blocks = isotypic_table(4)
        assert [b.m for b in blocks] == [5, 3, 1]
        assert [b.d for b in blocks] == [1, 3, 2]
        assert sum(b.d * b.m for b in blocks) == 16
        assert sum(b.m**2 for b in blocks) == 35

    def test_single_qubit(self):
        blocks = isotypic_table(1)
        assert [(b.mu, b.d, b.m) for b in blocks] == [(0, 1, 2)]

    @pytest.mark.parametrize("n", range(1, 21))
    def test_sum_rules(self, n):
        blocks = isotypic_table(n)
        assert sum(b.d * b.m for b in blocks) == 2**n
        assert sum(b.m**2 for b in blocks) == comb(n + 3, 3)

    def test_multiplicities_decrease(self):
        for n in (5, 8):
            ms = [b.m for b in isotypic_table(n)]
            assert ms == sorted(ms, reverse=True)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConstraintError):
            isotypic_table(0)


class TestTransform:
    def test_two_qubit_rows_are_textbook(self):
        st = build_schur_transform(2)
        e = np.eye(4)
        s = 1 / np.sqrt(2)
        expected = np.column_stack(
            [e[0], s * (e[1] + e[2]), e[3], s * (e[1] - e[2])]
        )
        assert np.abs(st.matrix - expected).max() < 1e-15

    @pytest.mark.parametrize("n", range(1, 7))
    def test_orthonormal_columns(self, n):
        st = build_schur_transform(n)
        gram = st.matrix.T @ st.matrix
        assert np.abs(gram - np.eye(2**n)).max() < UNITARITY_TOL

    def test_three_qubit_sector_layout(self):
        st = build_schur_transform(3)
        assert st.sector_slice(0) == slice(0, 4)
        assert st.sector_slice(1) == slice(4, 8)
        assert len(st.paths[0]) == 1 and len(st.paths[1]) == 2

    def test_build_cap(self):
        with pytest.raises(ResourceLimitError):
            build_schur_transform(SCHUR_BUILD_CAP + 1)


class TestPermutationAction:
    def test_swap_matrix(self):
        swap = permutation_matrix([1, 0], 2)
        expected = np.eye(4)[[0, 2, 1, 3]]
        assert np.array_equal(swap, expected)

    def test_identity(self):
        assert np.array_equal(permutation_matrix([0, 1, 2], 3), np.eye(8))

    def test_bad_permutation_rejected(self):
        with pytest.raises(ConstraintError):
            permutation_matrix([0, 0], 2)

    def test_symmetrized_operators_commute_with_relabeling(self):
        n = 3
        p = dense_matrix(SymOpVector.unit((1, 0, 2), n))
        for perm in itertools.permutations(range(n)):
            r = permutation_matrix(perm, n)
            assert np.abs(r @ p @ r.T - p).max() < 1e-12

    def test_conjugated_relabelings_act_trivially_on_multiplicities(self):
        n = 4
        st = build_schur_transform(n)
        for perm in itertools.permutations(range(n)):
            conj = st.matrix.T @ permutation_matrix(perm, n) @ st.matrix
            for b in st.blocks:
                sl = st.sector_slice(b.mu)
                inside = conj[sl, sl].reshape(b.d, b.m, b.d, b.m)
                for p in range(b.d):
                    for q in range(b.d):
                        block = inside[p, :, q, :]
                        scalar = np.trace(block) / b.m
                        assert np.abs(block - scalar * np.eye(b.m)).max() < 1e-9
                before = conj[sl, : sl.start]
                after = conj[sl, sl.stop :]
                for leak in (before, after):
                    if leak.size:
                        assert np.abs(leak).max() < 1e-9


def content_scalar_c1(mu: int, n: int) -> float:
    """Spectrum of the first center element from diagram content sums."""
    r1, r2 = n - mu, mu
    transposition_sum = r1 * (r1 - 1) // 2 + r2 * (r2 - 3) // 2
    return 4.0 * transposition_sum - n * (n - 1)


class TestBlockProjection:
    def test_identity_projects_to_identity_blocks(self):
        st = build_schur_transform(3)
        for b, a in zip(st.blocks, block_project(SymOpVector.unit((0, 0, 0), 3), st)):
            assert np.abs(a - np.eye(b.m)).max() < 1e-12

    def test_x_field_on_two_qubits(self):
        st = build_schur_transform(2)
        triplet, singlet = block_project(SymOpVector.unit((1, 0, 0), 2), st)
        s = np.sqrt(2)
        expected = np.array([[0, s, 0], [s, 0, s], [0, s, 0]])
        assert np.abs(triplet - expected).max() < 1e-12
        assert np.abs(singlet).max() < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_center_elements_are_sector_scalars(self, n):
        st = build_schur_transform(n)
        for mu in range(n // 2 + 1):
            blocks = block_project(make_C(mu, n), st)
            for b, a in zip(st.blocks, blocks):
                scalar = np.trace(a).real / b.m
                assert np.abs(a - scalar * np.eye(b.m)).max() < 1e-9

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_first_center_scalars_match_content_formula(self, n):
        st = build_schur_transform(n)
        blocks = block_project(make_C(1, n), st)
        for b, a in zip(st.blocks, blocks):
            assert np.trace(a).real / b.m == pytest.approx(
                content_scalar_c1(b.mu, n), abs=1e-9
            )

    def test_second_center_scalars_four_qubits(self):
        st = build_schur_transform(4)
        blocks = block_project(make_C(2, 4), st)
        scalars = [np.trace(a).real / b.m for b, a in zip(st.blocks, blocks)]
        assert scalars == pytest.approx([12.0, -20.0, 60.0], abs=1e-9)

    def test_every_closure_row_is_block_structured(self, ctx):
        for n in (2, 3, 4):
            st = build_schur_transform(n)
            for row in row_vectors(n, ctx.closure("G2", n).basis):
                block_project(row, st)  # raises on any off-pattern entry

    def test_detector_catches_a_wrong_transform(self):
        st = build_schur_transform(3)
        mixed = st.matrix.copy()
        mixed[:, [5, 6]] = mixed[:, [6, 5]]  # cross two coupling paths
        broken = SchurTransform(st.n, mixed, st.blocks, st.offsets, st.paths)
        with pytest.raises(VerificationError):
            block_project(SymOpVector.unit((1, 0, 0), 3), broken)

    def test_qubit_count_mismatch_rejected(self):
        st = build_schur_transform(2)
        with pytest.raises(DimensionMismatch):
            block_project(SymOpVector.unit((1, 0, 0), 3), st)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_loop_reference_on_closure_rows(self, ctx, n):
        st = build_schur_transform(n)
        for row in row_vectors(n, ctx.closure("G2", n).basis):
            got = block_project(row, st)
            want = loop_block_project(row, st)
            assert len(got) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))


def loop_block_project(v, st, tol=1e-9):
    """Reference block projection: check the pattern copy by copy."""
    S = st.matrix.T @ dense_matrix(v) @ st.matrix
    blocks = []
    for b in st.blocks:
        sl = st.sector_slice(b.mu)
        inside = S[sl, sl].reshape(b.d, b.m, b.d, b.m)
        mean = np.trace(inside, axis1=0, axis2=2) / b.d
        worst = 0.0
        for p in range(b.d):
            for q in range(b.d):
                ref = mean if p == q else 0.0
                worst = max(worst, np.abs(inside[p, :, q, :] - ref).max())
        before = np.abs(S[sl, : sl.start]).max() if sl.start else 0.0
        after = np.abs(S[sl, sl.stop :]).max() if sl.stop < S.shape[1] else 0.0
        assert max(worst, before, after) <= tol, f"sector {b.mu}"
        blocks.append(mean)
    return blocks


class TestBlockPatternDetector:
    """One planted defect per arm of the pattern check, at n = 3.

    Sector mu = 1 spans columns 4..7: path 0 holds 4, 5 and path 1 holds 6, 7.
    The transform is the identity, so the planted matrix is what is checked.
    """

    @staticmethod
    def project(monkeypatch, planted):
        st = build_schur_transform(3)
        flat = SchurTransform(3, np.eye(8), st.blocks, st.offsets, st.paths)
        monkeypatch.setattr(coupled_basis, "dense_matrix", lambda v: planted)
        return block_project(SymOpVector.unit((0, 0, 0), 3), flat)

    def test_clean_pattern_passes(self, monkeypatch):
        blocks = self.project(monkeypatch, np.eye(8, dtype=complex))
        assert [a.shape for a in blocks] == [(4, 4), (2, 2)]

    def test_diagonal_copy_differing_from_mean(self, monkeypatch):
        planted = np.eye(8, dtype=complex)
        planted[4, 4] += 1e-6
        with pytest.raises(VerificationError, match="mu=1"):
            self.project(monkeypatch, planted)

    def test_nonzero_off_diagonal_copy(self, monkeypatch):
        planted = np.eye(8, dtype=complex)
        planted[4, 7] = planted[7, 4] = 1e-6
        with pytest.raises(VerificationError, match="mu=1"):
            self.project(monkeypatch, planted)

    def test_cross_sector_leak(self, monkeypatch):
        planted = np.eye(8, dtype=complex)
        planted[0, 4] = planted[4, 0] = 1e-6
        with pytest.raises(VerificationError, match="mu=0"):
            self.project(monkeypatch, planted)


def orthogonalized_traceless_basis(n: int) -> SparseEchelon:
    """Span of all triples with every central direction projected out."""
    center = [make_C(mu, n) for mu in range(n // 2 + 1)]
    norms = [trace_inner(c, c) for c in center]
    basis = SparseEchelon()
    for t in all_triples(n):
        v = SymOpVector.unit(t, n)
        for c, norm in zip(center, norms):
            coeff = Fraction(trace_inner(v, c), norm)
            if coeff:
                v = v - c.scaled(coeff)
        if not v.is_zero:
            basis.insert(integer_row(by_rank(v.coeffs)))
    return basis


class TestSubspaceControl:
    def test_two_body_four_qubits(self, ctx):
        report = certify_subspace_control(4, ctx.closure("G2", 4).basis)
        assert [s.span_dim for s in report.sectors] == [24, 8, 0]
        assert [s.su_dim for s in report.sectors] == [24, 8, 0]
        assert report.trace_rank == 1
        assert report.controllable and report.consistent
        assert report.closure_dim == 33

    def test_relative_phase_deficit_is_exactly_one(self, ctx):
        # a fully phase-controlling algebra would have trace rank L-1 = 2
        report = certify_subspace_control(4, ctx.closure("G2", 4).basis)
        n_sectors = len(report.sectors)
        assert report.trace_rank == n_sectors - 1 - 1

    def test_one_body_generators_fail_every_big_sector(self, ctx):
        report = certify_subspace_control(3, ctx.closure("G1", 3).basis)
        for s in report.sectors:
            if s.m > 1:
                assert not s.spans_su
        assert not report.controllable
        # one shared operator shows up in both sectors; the span bookkeeping
        # cannot decompose that and must say so
        assert not report.consistent

    def test_synthetic_traceless_complement_passes_all_sectors(self):
        n = 3
        basis = orthogonalized_traceless_basis(n)
        assert basis.rank == 18
        report = certify_subspace_control(n, basis)
        assert report.controllable and report.consistent
        assert report.trace_rank == 0

    @pytest.mark.parametrize("label,n,k", PRESETS_TO_12, ids=case_ids(PRESETS_TO_12))
    def test_trace_rank_matches_sector_traces(self, ctx, label, n, k):
        basis = ctx.closure(label, n, k).basis
        assert certify_subspace_control(n, basis).trace_rank == sector_trace_rank(n, basis)

    @settings(max_examples=40, deadline=WIDE_DEADLINE)
    @given(custom_generator_sets(max_n=7))
    def test_trace_rank_matches_sector_traces_on_custom_sets(self, gens):
        n, basis = gens.n, lie_closure(gens).basis
        assert certify_subspace_control(n, basis).trace_rank == sector_trace_rank(n, basis)

    def test_analysis_cap(self):
        basis = SparseEchelon()
        basis.insert({1: 1})  # P_(1,0,0)
        with pytest.raises(ResourceLimitError):
            certify_subspace_control(SECTOR_CAP + 1, basis)

    def test_jsonable_fields(self, ctx):
        data = certify_subspace_control(2, ctx.closure("G1prime", 2).basis).to_jsonable()
        assert data["closure_dim"] == 3
        assert {"mu", "m", "span_dim", "su_dim", "spans_su"} <= set(data["sectors"][0])


class TestDenseMatrixConvention:
    def test_single_word_class(self):
        zz = dense_matrix(SymOpVector.unit((0, 0, 2), 2))
        assert np.abs(zz - kron_word("ZZ")).max() < 1e-15

    def test_orbit_sum_matches_brute_force(self):
        got = dense_matrix(SymOpVector.unit((1, 0, 1), 3))
        words = set(itertools.permutations("XZI"))
        expected = sum(kron_word("".join(w)) for w in words)
        assert np.abs(got - expected).max() < 1e-15

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_class_equals_its_kron_orbit_sum(self, n):
        for t in all_triples(n):
            expected = sum(kron_word(word_text(w, n)) for w in orbit_words(t, n))
            assert np.array_equal(dense_matrix(SymOpVector.unit(t, n)), expected), t


PHASE = (1, 1j, -1, -1j)


def exact_block(table, t, b):
    """Orthonormal block i**ky D^-1 B D of P_t in sector b, as floats,
    from that sector's table of B = G D^-2."""
    g = np.zeros((b.m, b.m), dtype=complex)
    for k, v in table[t].items():
        g[divmod(k, b.m)] = PHASE[t.ky % 4] * v
    d = np.sqrt([2**b.mu * comb(b.m - 1, w) for w in range(b.m)])
    return g / d[:, None] * d[None, :]


def violation(n):
    """The sector pass's first block violation on the empty basis, or None."""
    found, _ = sector_check(n, SparseEchelon())
    return None if found["block_pattern"] == "clean" else found["block_pattern"]


def presets(n):
    yield from (preset_generators(label, n) for label in ("G1", "G1prime", "G2"))
    yield from (preset_generators("Gk", n, k=k) for k in range(3, n + 1))


class TestExactBlocks:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_match_the_coupled_basis(self, n):
        """i^ky D^-1 B_mu(t) D is block_project's block, phase and sign included."""
        st = build_schur_transform(n)
        tables = [sector_block(n, b.mu) for b in st.blocks]
        for t in all_triples(n):
            for b, table, want in zip(st.blocks, tables, block_project(SymOpVector.unit(t, n), st)):
                assert np.abs(exact_block(table, t, b) - want).max() < 1e-12, (t, b.mu)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_blocks_are_orthogonal_like_the_words(self, n):
        """sum_mu d_mu tr(A_mu(P_a) A_mu(P_b)) = 2^n orbit_size(a) [a = b], exactly."""
        sectors = isotypic_table(n)
        tables = [sector_block(n, b.mu) for b in sectors]
        triples = all_triples(n)
        for a, c in itertools.combinations_with_replacement(triples, 2):
            total = 0
            for b, table in zip(sectors, tables):
                block_a, block_c = table[a], table[c]
                for k, v in block_a.items():
                    wp, w = divmod(k, b.m)
                    total += b.d * v * block_c.get(w * b.m + wp, 0)
            # tr(A_a A_c) = i^(ky_a + ky_c) sum B_a[w', w] B_c[w, w'] per sector
            want = 2**n * orbit_size(a, n) * (-1) ** a.ky if a == c else 0
            assert total == want, (a, c)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_certificate_matches_the_float_oracle(self, n):
        for gens in presets(n):
            basis = lie_closure(gens).basis
            assert certify_subspace_control(n, basis) == coupled_basis.certify_subspace_control(
                n, basis
            ), gens.label

    @pytest.mark.parametrize("n", range(1, 13))
    def test_sum_rules_hold(self, n):
        assert violation(n) is None

    def test_blocks_are_integers_with_the_ky_parity(self):
        for b in isotypic_table(6):
            q = b.m - 1
            for t, g in sector_block(6, b.mu).items():
                for k, v in g.items():
                    wp, w = divmod(k, b.m)
                    assert isinstance(v, int) and v
                    # G = B D^2 is Hermitian up to the phase i^ky
                    assert g.get(w * b.m + wp, 0) * comb(q, wp) == v * comb(q, w) * (-1) ** t.ky, (
                        t, b.mu, wp, w)
                    assert (wp + w) % 2 == (t.kx + t.ky) % 2

    @pytest.mark.parametrize(
        "mu,t,keys,named",
        [
            (1, (0, 0, 1), [0], "trace sum rule fails at P_(0,0,1)"),
            (2, (0, 2, 0), [0], "trace sum rule fails at P_(0,2,0)"),
            (0, (1, 0, 0), [1], "block of P_(1,0,0) in sector mu=0 is not Hermitian"),
            (0, (0, 0, 0), [3], "block of P_(0,0,0) in sector mu=0 is not Hermitian"),
            # B[0,1] + 1 and B[1,0] + C(4,1): Hermitian, same trace, larger norm
            (0, (1, 0, 0), [1, 5, 5, 5, 5], "norm sum rule fails at P_(1,0,0)"),
            # the same entries of an odd-ky block break its antisymmetry
            (0, (0, 1, 0), [1, 5, 5, 5, 5], "block of P_(0,1,0) in sector mu=0 is not Hermitian"),
        ],
    )
    def test_a_perturbed_entry_is_named(self, plant, mu, t, keys, named):
        plant(mu, t, *keys)
        assert violation(4).startswith(named)

    def test_a_violation_raises_from_the_pass(self, ctx, plant):
        plant(0, (1, 0, 0), 1)
        with pytest.raises(VerificationError, match=r"P_\(1,0,0\) in sector mu=0 is not Hermitian"):
            certify_subspace_control(4, ctx.closure("G2", 4).basis)

    def test_sector_check_reports_a_violation(self, ctx, plant):
        plant(1, (0, 0, 1), 0)
        found, rep = sector_check(4, ctx.closure("G2", 4).basis)
        assert rep is None
        assert found == {"block_pattern": found["block_pattern"]}
        assert found["block_pattern"].startswith("trace sum rule fails at P_(0,0,1)")

    def test_clean_check_carries_the_certificate(self, ctx):
        found, rep = sector_check(5, ctx.closure("G2", 5).basis)
        assert found["block_pattern"] == "clean"
        assert found["subspace_control"] == rep.to_jsonable()
        assert rep.controllable and rep.consistent

    def test_table_cap(self):
        with pytest.raises(ResourceLimitError):
            sector_block(SECTOR_CAP + 1, 0)

    def test_no_such_sector(self):
        for mu in (-1, 3):
            with pytest.raises(ConstraintError, match="does not exist"):
                sector_block(5, mu)

    def test_one_sector_table_at_a_time(self, ctx, monkeypatch):
        """Sector mu's table is dead while sector mu + 1 is being built."""

        class Table(dict):
            pass

        build = schur.sector_block
        built = []

        def tracked(n, mu):
            gc.collect()
            assert [ref() for ref in built] == [None] * len(built), f"building mu={mu}"
            table = Table(build(n, mu))
            built.append(weakref.ref(table))
            return table

        monkeypatch.setattr(schur, "sector_block", tracked)
        rep = certify_subspace_control(6, ctx.closure("G2", 6).basis)
        assert len(built) == 4 and rep.controllable


# Every preset to n = 12, and G1, G1prime and G2 on to n = 16.
LEDGER_PRESETS = preset_cases(12) + [
    (label, n, None) for n in range(13, 17) for label in ("G1", "G1prime", "G2")]


def ledger_dim(gens, ledger):
    """The dimension a full ledger of gens proves: sum_mu (m_mu^2 - 1)
    plus the generators' phase rank."""
    return sum(s.m * s.m - 1 for s in ledger.sectors) + phase_rank(gens)


def ledger_verdicts(gens, ledger):
    """The verdicts of a closure of dimension ledger_dim, read off gens."""
    seeds = (integer_row(by_rank(g.coeffs)) for g in gens.members)
    return _verdicts(gens.n, ledger_dim(gens, ledger), list(central_residuals(seeds)))


def assert_ledger_agrees(gens, ech):
    """A full ledger proves the dimension and verdicts of ech, the one-stage
    closure of gens; every sector it calls full is full in ech's sector
    pass; and a ledger that is not full stops at its first open sector."""
    n = gens.n
    ledger = sector_ledger(gens)
    spans = {s.mu: s.spans_su for s in certify_subspace_control(n, ech).sectors}
    assert [s.mu for s in ledger.sectors] == list(range(n // 2, n // 2 - len(ledger.sectors), -1))
    assert all(spans[s.mu] for s in ledger.sectors if s.full)
    assert all(s.full for s in ledger.sectors[:-1])
    assert [s.m for s in ledger.sectors] == [n - 2 * s.mu + 1 for s in ledger.sectors]
    if ledger.full:
        assert ledger_dim(gens, ledger) == ech.rank
        assert ledger_verdicts(gens, ledger) == trace_pairing_verdicts(n, ech)
        assert trace_pairing_verdicts(n, ech).semi_universal
    return ledger


class TestSectorLedger:
    """schur.sector_ledger against the one-stage closure of
    tests/reference.py and its sector pass, certify_subspace_control."""

    def test_krawtchouk_numbers_are_the_polynomial_coefficients(self):
        """_kraw(a, b, k) is [y^k] (1+y)^a (1-y)^b, read off the product of
        the a + b linear factors; past degree a + b it is 0."""
        for a in range(13):
            for b in range(13):
                poly = [1]
                for sign in [1] * a + [-1] * b:
                    poly = [x + sign * y for x, y in zip(poly + [0], [0] + poly)]
                assert [schur._kraw(a, b, k) for k in range(a + b + 2)] == poly + [0], (a, b)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_triple_block_matches_the_sector_table(self, n):
        """triple_block(n, mu, t) is sector_block(n, mu)[t], B_mu(t), for
        every triple."""
        for b in isotypic_table(n):
            for t, g in sector_block(n, b.mu).items():
                assert triple_block(n, b.mu, t) == g, (n, b.mu, t)

    @pytest.mark.parametrize("label,n,k", LEDGER_PRESETS, ids=case_ids(LEDGER_PRESETS))
    def test_presets_match_the_one_stage_closure(self, one_stage, label, n, k):
        """Every G2 and Gk is proven; G1 and G1prime, which are not
        semi-universal at n >= 2, are not."""
        gens = preset_generators(label, n, k=k)
        ech, _ = one_stage(label, n, k)
        ledger = assert_ledger_agrees(gens, ech)
        assert ledger.full == trace_pairing_verdicts(n, ech).semi_universal
        assert ledger.full == (label in ("G2", "Gk") or (label, n) == ("G1prime", 1))

    @settings(max_examples=40, deadline=ENGINE_DEADLINE)
    @given(custom_generator_sets())
    def test_custom_sets_match_the_one_stage_closure(self, gens):
        assert_ledger_agrees(gens, one_stage_closure(gens)[0])

    @settings(max_examples=40, deadline=WIDE_DEADLINE)
    @given(g2_plus_custom_sets(max_n=7))
    def test_g2_supersets_match_the_one_stage_closure(self, gens):
        """G2, scaled, plus custom vectors: always semi-universal, and
        always proven, since ZZ's gaps certify G2 and further members only
        widen each gap's span."""
        ledger = assert_ledger_agrees(gens, one_stage_closure(gens)[0])
        assert ledger.full

    def test_custom_examples_are_proven(self):
        for spec, n in (("1,0,0;0,1,0;0,0,2;2,2,0", 8), ("1,0,0;0,1,0;0,0,4", 9)):
            gens = parse_generator_spec(spec, n)
            assert assert_ledger_agrees(gens, one_stage_closure(gens)[0]).full

    def test_an_open_sector_stops_the_walk(self):
        """{X, Y} fills the spin-1/2 sector only: at n = 9 the ledger checks
        m = 2 (full) and m = 4 (open), and stops there."""
        ledger = sector_ledger(preset_generators("G1prime", 9))
        assert [(s.mu, s.m, s.full) for s in ledger.sectors] == [(4, 2, True), (3, 4, False)]
        assert not ledger.full and phase_rank(preset_generators("G1prime", 9)) == 0


def preset_sweep(n):
    """The presets at n, in the order of preset_cases: G1, G1prime, G2
    and every Gk:k to n = 12."""
    return [preset_generators(label, n, k=k) for label, m, k in LEDGER_PRESETS if m == n]


def served_and_fresh(gens):
    """(the ledger of gens served from the cache, the one proven after
    cache_clear()); the first must be a hit."""
    sector_ledger(gens)
    hits = schur._ledger.cache_info().hits
    served = sector_ledger(gens)
    assert schur._ledger.cache_info().hits == hits + 1
    schur._ledger.cache_clear()
    return served, sector_ledger(gens)


def misses():
    return schur._ledger.cache_info().misses


class TestLedgerCache:
    """sector_ledger proves one ledger per n and generator content in a
    process, keyed by the set of the members' integer rows."""

    @pytest.mark.parametrize("n", range(1, 17))
    def test_served_ledgers_equal_fresh_ones(self, n):
        """Every preset at n, swept in one cache as verify walks them, and
        each proven again after cache_clear(): the same ledger."""
        sweep = preset_sweep(n)
        served = [sector_ledger(gens) for gens in sweep]
        for gens, ledger in zip(sweep, served):
            schur._ledger.cache_clear()
            assert sector_ledger(gens) == ledger, gens.label

    @settings(max_examples=40, deadline=ENGINE_DEADLINE)
    @given(custom_generator_sets(max_n=7))
    def test_custom_sets_are_served_as_proven(self, gens):
        served, fresh = served_and_fresh(gens)
        assert served == fresh

    @settings(max_examples=40, deadline=WIDE_DEADLINE)
    @given(g2_plus_custom_sets(max_n=7))
    def test_g2_supersets_are_served_as_proven(self, gens):
        served, fresh = served_and_fresh(gens)
        assert served == fresh and served.full

    @pytest.mark.parametrize("n", range(2, 11))
    def test_every_gk_at_one_n_shares_g2s_entry(self, n):
        """G2, Gk:2 and lie_closure of every Gk:k at n read one ledger."""
        assert sector_ledger(preset_generators("G2", n)).full
        assert sector_ledger(preset_generators("Gk", n, k=2)).full
        for k in range(3, n + 1):
            assert lie_closure(preset_generators("Gk", n, k=k)).iterations == 0
        assert misses() == 1

    @pytest.mark.parametrize("n", range(2, 9))
    def test_permuted_and_fraction_scaled_members_share_an_entry(self, n):
        """Members in any order, and members divided by integers, which
        integer_row scales back, key the same entry."""
        members = preset_generators("Gk", n, k=n).members
        ledger = sector_ledger(GeneratorSet(n, members))
        for order in itertools.islice(itertools.permutations(members), 24):
            assert sector_ledger(GeneratorSet(n, order)) == ledger
        thirds = [g.scaled(Fraction(1, 3 + i)) for i, g in enumerate(members)]
        assert sector_ledger(GeneratorSet(n, thirds[::-1])) == ledger
        assert misses() == 1

    @pytest.mark.parametrize("n", range(3, 9))
    def test_another_n_or_member_misses(self, n):
        """G2 at n and n + 1 are two entries, and G1prime plus ZZZ, G2 with
        ZZ changed, is a third, whose ledger leaves a sector open."""
        g2 = sector_ledger(preset_generators("G2", n))
        assert sector_ledger(preset_generators("G2", n + 1)).n == n + 1
        zzz = SymOpVector.unit((0, 0, 3), n)
        other = sector_ledger(GeneratorSet(n, preset_generators("G1prime", n).members + (zzz,)))
        assert misses() == 3
        assert g2.full and not other.full

    @pytest.mark.parametrize("n", range(4, 9))
    def test_flat_zz_leaves_g2_to_the_worklist(self, monkeypatch, one_stage, n):
        """With ZZ's block patched to a constant diagonal, every gap against
        it is 0, X and Y alone must hold a unit, and no sector of m >= 3
        is certified: G2's ledger is not full, and lie_closure falls back
        to the worklist, which gives the one-stage rows."""
        block = schur.triple_block

        def flat_zz(n, mu, t):
            if t != (0, 0, 2):
                return block(n, mu, t)
            m = n - 2 * mu + 1
            return {w * (m + 1): 1 for w in range(m)}

        monkeypatch.setattr(schur, "triple_block", flat_zz)
        assert not sector_ledger(preset_generators("G2", n)).full
        run = lie_closure(preset_generators("G2", n))
        ech, steps = one_stage("G2", n)
        assert (run.basis.pivots(), run.basis.rows()) == (ech.pivots(), ech.rows())
        assert run.iterations == steps > 0
