"""Acceptance gate: the ten headline claims, one test (and one report line) each.

Every criterion is checked at its stated strength: exact rational arithmetic
wherever the claim is exact, 1e-9 off-pattern tolerance for the one
floating-point check (the block structure in the float coupled basis of
tests/coupled_basis.py), and a wall-clock bound on the large runs.  Shared
structure tables and closures are memoized for the session so the criteria
stay independent without redoing work.
"""

import time
from itertools import combinations, combinations_with_replacement
from math import comb

import coupled_basis
from coupled_basis import block_project, build_schur_transform
from permlie import (
    SparseEchelon,
    SymOpVector,
    all_triples,
    ambient_dims,
    build_abc,
    by_rank,
    class_sum,
    compare_tables,
    dense_bracket,
    dense_closure,
    densify,
    isotypic_table,
    make_C,
    make_L,
    preset_generators,
    sector_check,
    symmetrize,
    verify_center,
    verify_printed_commutators,
)
from permlie.linalg import integer_row
from reference import bracket_vectors, membership_residual, row_vectors, trace_inner


def rank_row(v: SymOpVector) -> dict:
    """A vector as the echelon takes it: rank-keyed primitive integers."""
    return integer_row(by_rank(v.coeffs))


def test_criterion_01_two_body_closure_dimension(ctx):
    """dim closure(G2) = C(n+3,3) - floor(n/2), exactly, n = 2..32."""
    slowest = 0.0
    dims = []
    for n in range(2, 33):
        run = ctx.closure("G2", n)
        assert run.dim == comb(n + 3, 3) - n // 2, f"n={n}"
        assert run.wall_time < 60.0, f"n={n} took {run.wall_time:.1f}s"
        slowest = max(slowest, run.wall_time)
        dims.append(run.dim)
    print(f"criterion 1: dims {dims} for n=2..32, slowest closure {slowest:.2f}s")


def test_criterion_02_k_body_universality_threshold(ctx):
    """closure(Gk) hits dim su exactly at (n even, k=n) or (n odd, k>=n-1), n <= 32."""
    checked = 0
    for n in range(2, 33):
        su = ambient_dims(n).dim_su
        for k in range(2, n + 1):
            run = ctx.closure("Gk", n, k=k)
            at_threshold = (n % 2 == 0 and k == n) or (n % 2 == 1 and k >= n - 1)
            assert (run.dim == su) == at_threshold, f"n={n} k={k}"
            assert run.dim == comb(n + 3, 3) - 1 - n // 2 + k // 2, f"n={n} k={k}"
            checked += 1
    print(f"criterion 2: {checked} (n,k) cases match the threshold and dimension formula")


def test_criterion_03_centralizer_span():
    """The centralizer has dim floor(n/2)+1 and equals the C_mu span, n = 1..24."""
    for n in range(1, 25):
        rep = verify_center(n)
        assert rep.commute_ok, f"n={n}: some bracket(C_mu, P_t) nonzero"
        assert rep.independent_ok, f"n={n}"
        assert rep.solved_dim == n // 2 + 1, f"n={n}"
        assert rep.solved_dim == rep.expected_dim and rep.ok, f"n={n}"
    print("criterion 3: centralizer solved exactly, dim floor(n/2)+1, n=1..24")


def test_criterion_04_central_projection_pattern(ctx):
    """Generators project onto C_mu exactly for mu in 1..floor(k/2); closures conserve orthogonality."""
    rows_checked = 0
    for n in range(2, 9):
        center = {mu: make_C(mu, n) for mu in range(n // 2 + 1)}
        families = [("G2", None)] + [("Gk", k) for k in range(2, n + 1)]
        for label, k in families:
            gens = preset_generators(label, n, k=k)
            exempt = ctx.closure(label, n, k=k).exempt
            pattern = {mu: mu not in exempt for mu in center}
            touched = set(range(1, (k or 2) // 2 + 1))
            assert pattern == {mu: mu not in touched for mu in center}, gens.label
            for row in row_vectors(n, ctx.closure(label, n, k=k).basis):
                for mu, orthogonal in pattern.items():
                    if orthogonal:
                        assert trace_inner(row, center[mu]) == 0, (gens.label, n, mu)
                rows_checked += 1
    print(f"criterion 4: projection patterns exact; {rows_checked} closure rows stay orthogonal")


def test_criterion_05_membership_residuals(ctx):
    """closure(G2) rows satisfy every mu != 1 membership constraint; C_1 is reachable."""
    for n in range(2, 11):
        run = ctx.closure("G2", n)
        mus = [mu for mu in range(n // 2 + 1) if mu != 1]
        for row in row_vectors(n, run.basis):
            for mu in mus:
                assert membership_residual(row, mu) == 0, (n, mu)
        c1 = make_C(1, n)
        assert run.basis.contains(rank_row(c1)), f"n={n}: C_1 not reachable"
        assert membership_residual(c1, 1) != 0
        assert all(membership_residual(c1, mu) == 0 for mu in mus)
    print("criterion 5: membership residuals exactly zero for mu != 1, C_1 reachable, n=2..10")


def test_criterion_06_class_sums_and_spans(ctx):
    """make_L densifies to the class sums (n <= 6); L- and C-spans coincide (n <= 8)."""
    matched = 0
    for n in range(1, 7):
        for mu in range(n // 2 + 1):
            assert densify(make_L(mu, n)) == class_sum(mu, n), (n, mu)
            matched += 1
    for n in range(1, 9):
        for mu in range(n // 2 + 1):
            lspan, cspan = SparseEchelon(), SparseEchelon()
            for j in range(mu + 1):
                lspan.insert(rank_row(make_L(j, n)))
                cspan.insert(rank_row(make_C(j, n)))
            assert lspan.rank == cspan.rank == mu + 1, (n, mu)
            for j in range(mu + 1):
                assert cspan.contains(rank_row(make_L(j, n))), (n, mu, j)
                assert lspan.contains(rank_row(make_C(j, n))), (n, mu, j)
    print(f"criterion 6: {matched} class sums reproduced exactly; L/C spans equal, n=1..8")


def test_criterion_07_dense_sparse_agreement(ctx):
    """Word-level and coordinate-level closures give identical dimensions."""
    cases = []
    for n in range(2, 6):
        cases += [("G1", None, n), ("G1prime", None, n), ("G2", None, n)]
        cases += [("Gk", k, n) for k in (3, 4, 5) if k <= n]
    for label, k, n in cases:
        gens = preset_generators(label, n, k=k)
        drun = dense_closure([densify(g) for g in gens.members])
        assert drun.dim == ctx.closure(label, n, k=k).dim, (label, k, n)
    big = preset_generators("G2", 6)
    dbig = dense_closure([densify(g) for g in big.members])
    assert dbig.dim == ctx.closure("G2", 6).dim == 81
    print(f"criterion 7: {len(cases)} preset closures agree with the word oracle, plus G2 at n=6")


def test_criterion_08_structure_constant_cross_validation(tables):
    """Both sparse bracket routes agree everywhere, match the word oracle, and satisfy Jacobi."""
    for n in range(1, 9):
        assert compare_tables(tables(n)) == [], f"n={n}"
    pairs = 0
    for n in range(1, 6):
        table = tables(n)
        dense = {t: densify(SymOpVector.unit(t, n)) for t in all_triples(n)}
        for a, b in combinations(all_triples(n), 2):
            assert table.bracket(a, b) == symmetrize(dense_bracket(dense[a], dense[b]))
            pairs += 1
    triples_scanned = 0
    for n in range(1, 5):
        table = tables(n)
        units = [SymOpVector.unit(t, n) for t in all_triples(n)]
        for va, vb, vc in combinations_with_replacement(units, 3):
            total = (
                bracket_vectors(table, va, bracket_vectors(table, vb, vc))
                + bracket_vectors(table, vb, bracket_vectors(table, vc, va))
                + bracket_vectors(table, vc, bracket_vectors(table, va, vb))
            )
            assert total.is_zero, (n, va.text(), vb.text(), vc.text())
            triples_scanned += 1
    print(
        "criterion 8: methods agree for n<=8, "
        f"{pairs} pairs match the word oracle, Jacobi holds on {triples_scanned} triples"
    )


def test_criterion_09_printed_coefficient_tables():
    """The corrected commutator tables recompute exactly; their rank drops to 2."""
    recomputed = 0
    for kbar in (3, 4):
        for n in range(kbar, 7):
            rep = verify_printed_commutators(kbar, n)
            assert rep.ok and all(r["match"] for r in rep.records), (kbar, n)
            recomputed += len(rep.records)
    for n in range(3, 10):
        for kbar in range(3, n + 1):
            fixed = build_abc(kbar, n)
            assert fixed.rank == 2 and fixed.dependence_holds, (kbar, n)
            original = build_abc(kbar, n, corrected=False)
            assert original.rank == 3 and not original.dependence_holds, (kbar, n)
    print(f"criterion 9: {recomputed} printed coefficients reproduced; rank 2 fixed vs 3 original")


def test_criterion_10_block_structure_and_sector_control(ctx):
    """Closure rows are I_d (x) A_lambda blocks to 1e-9; sum rules exact; sectors controllable.

    The float coupled basis checks the block pattern at n = 2..8 and control
    at n = 2..7; the exact sector blocks certify control at n = 2..12.
    """
    for n in range(1, 21):
        blocks = isotypic_table(n)
        assert sum(b.d * b.m for b in blocks) == 2**n, f"n={n}"
        assert sum(b.m**2 for b in blocks) == comb(n + 3, 3), f"n={n}"
    projected = 0
    for n in range(2, 9):
        st = build_schur_transform(n)
        for row in row_vectors(n, ctx.closure("G2", n).basis):
            block_project(row, st, tol=1e-9)  # raises above 1e-9 off pattern
            projected += 1
        if n <= 7:
            rep = coupled_basis.certify_subspace_control(n, ctx.closure("G2", n).basis, st)
            assert rep.controllable and rep.consistent, f"n={n}"
            assert all(s.spans_su for s in rep.sectors), f"n={n}"
    slowest = 0.0
    for n in range(2, 13):
        start = time.perf_counter()
        found, rep = sector_check(n, ctx.closure("G2", n).basis)
        elapsed = time.perf_counter() - start
        assert found["block_pattern"] == "clean", f"n={n}: {found['block_pattern']}"
        assert rep.controllable and rep.consistent, f"n={n}"
        assert elapsed < 60.0, f"n={n} took {elapsed:.1f}s"
        slowest = max(slowest, elapsed)
    print(f"criterion 10: {projected} rows block structured under 1e-9 (n=2..8); "
          "float control n=2..7; exact sum rules and control n=2..12, "
          f"slowest {slowest:.2f}s")
