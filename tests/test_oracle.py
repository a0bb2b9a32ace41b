"""Word-level dense engine: the independent ground truth for everything else."""

import random
from fractions import Fraction
from math import factorial

import pytest

from permlie import (
    ConstraintError,
    DenseOp,
    DimensionMismatch,
    ResourceLimitError,
    SymOpVector,
    all_triples,
    class_sum,
    dense_bracket,
    dense_closure,
    densify,
    make_C,
    make_L,
    orbit_size,
    orbit_words,
    preset_generators,
    symmetrize,
)
from permlie.oracle import (
    WORD_QUBIT_CAP,
    _word_product,
    letters_to_word,
    transposition_pairings,
    word_triple,
)
from reference import word_letters, word_text


def unit(t, n):
    return SymOpVector.unit(t, n)


class TestWords:
    def test_letters_round_trip(self):
        for w in (0, 1, 27, 255):
            assert letters_to_word(word_letters(w, 4)) == w

    def test_word_text_uses_pauli_letters(self):
        n = 3
        text = word_text(letters_to_word((1, 2, 3)), n)
        assert sorted(text) == ["X", "Y", "Z"]
        assert word_text(0, n) == "III"

    def test_word_triple_counts_letters(self):
        for n in (1, 3):
            for w in range(4**n):
                letters = word_letters(w, n)
                assert word_triple(w, n) == tuple(letters.count(c) for c in (1, 2, 3))

    def test_qubit_cap_enforced(self):
        with pytest.raises(ResourceLimitError):
            DenseOp(WORD_QUBIT_CAP + 1, {0: 1})


# Single-site Pauli products: SITE_PRODUCT[a][b] = (p, c) with a*b = i**p * c,
# letters encoded I=0, X=1, Y=2, Z=3.  The table of the site-by-site
# reference below; the package reads the same products off bit masks.
SITE_PRODUCT = (
    ((0, 0), (0, 1), (0, 2), (0, 3)),
    ((0, 1), (0, 0), (1, 3), (3, 2)),
    ((0, 2), (3, 3), (0, 0), (1, 1)),
    ((0, 3), (1, 2), (3, 1), (0, 0)),
)


def site_by_site_product(w1: int, w2: int, n: int) -> tuple[int, int]:
    """Reference word product: multiply letter by letter via SITE_PRODUCT."""
    phase = 0
    out = 0
    for j in range(n):
        shift = 2 * j
        a = (w1 >> shift) & 3
        b = (w2 >> shift) & 3
        if a and b:
            p, c = SITE_PRODUCT[a][b]
            phase += p
            out |= c << shift
        else:
            out |= (a | b) << shift
    return phase & 3, out


class TestWordProduct:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_pair_matches_site_by_site(self, n):
        words = range(4**n)
        for w1 in words:
            for w2 in words:
                assert _word_product(w1, w2, n) == site_by_site_product(w1, w2, n)

    @pytest.mark.parametrize("n", [5, 6])
    def test_random_pairs_match_site_by_site(self, n):
        rng = random.Random(n)
        for _ in range(5000):
            w1, w2 = rng.randrange(4**n), rng.randrange(4**n)
            assert _word_product(w1, w2, n) == site_by_site_product(w1, w2, n)

    def test_single_site_phases(self):
        x, y, z = 1, 2, 3
        assert _word_product(x, y, 1) == (1, z)  # XY = iZ
        assert _word_product(y, x, 1) == (3, z)  # YX = -iZ
        assert _word_product(z, x, 1) == (1, y)  # ZX = iY
        assert _word_product(x, z, 1) == (3, y)  # XZ = -iY


class TestDenseOpAlgebra:
    def test_canonical_form_drops_zeros(self):
        op = DenseOp(2, {5: 1, 10: 0})
        assert op.coeffs == {5: 1}


class TestDensify:
    def test_two_z_on_two_qubits_is_single_word(self):
        zz = letters_to_word((3, 3))
        assert densify(unit((0, 0, 2), 2)).coeffs == {zz: 1}

    def test_x_field_on_three_qubits(self):
        got = densify(unit((1, 0, 0), 3))
        expected_words = {
            letters_to_word(ls)
            for ls in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        }
        assert got.coeffs == {w: 1 for w in expected_words}

    def test_first_center_element_on_two_qubits(self):
        got = densify(make_C(1, 2))
        pairs = {letters_to_word((a, a)): 2 for a in (1, 2, 3)}
        assert got.coeffs == pairs

    def test_orbit_words_count_and_distinctness(self):
        for n in (3, 5):
            for t in all_triples(n):
                words = orbit_words(t, n)
                assert len(words) == len(set(words)) == orbit_size(t, n)

    def test_cap_enforced(self):
        with pytest.raises(ResourceLimitError):
            densify(unit((1, 0, 0), WORD_QUBIT_CAP + 1))


class TestSymmetrize:
    def test_round_trips_densify(self):
        rng = random.Random(23)
        for n in (1, 2, 3, 4):
            ts = all_triples(n)
            for _ in range(8):
                v = SymOpVector(
                    n,
                    {
                        t: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                        for t in rng.sample(ts, min(4, len(ts)))
                    },
                )
                assert symmetrize(densify(v)) == v

    def test_rejects_asymmetric_input(self):
        lone_x = DenseOp(2, {letters_to_word((1, 0)): 1})
        with pytest.raises(ConstraintError):
            symmetrize(lone_x)


class TestDenseBracket:
    def test_single_qubit_xy_convention(self):
        x, y, z = (DenseOp(1, {a: 1}) for a in (1, 2, 3))
        got = dense_bracket(x, y)
        assert got.coeffs == {3: -2}
        assert dense_bracket(y, x).coeffs == {3: 2}
        assert dense_bracket(z, z).is_zero

    def test_cross_module_equality(self, tables):
        n = 4
        table = tables(n)
        got = dense_bracket(densify(unit((1, 0, 0), n)), densify(unit((0, 1, 0), n)))
        assert got == densify(table.bracket((1, 0, 0), (0, 1, 0)))

    def test_center_element_is_a_dense_annihilator(self):
        n = 4
        rng = random.Random(5)
        c2 = densify(make_C(2, n))
        ts = all_triples(n)
        v = SymOpVector(n, {t: rng.randint(-4, 4) for t in rng.sample(ts, 7)})
        assert dense_bracket(c2, densify(v)).is_zero


class TestDenseClosure:
    def test_two_body_three_qubits(self):
        seeds = [densify(g) for g in preset_generators("G2", 3).members]
        assert dense_closure(seeds).dim == 19

    def test_single_word_closes_on_itself(self):
        lone_x = DenseOp(2, {letters_to_word((0, 1)): 1})
        assert dense_closure([lone_x]).dim == 1

    def test_low_body_words_generate_everything(self):
        n = 3
        seeds = [
            DenseOp(n, {w: 1})
            for w in range(1, 4**n)
            if sum(1 for l in word_letters(w, n) if l) <= 2
        ]
        assert dense_closure(seeds).dim == 4**n - 1

    @pytest.mark.parametrize("label,k", [("G1", None), ("G1prime", None), ("G2", None), ("Gk", 3)])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_sparse_closure(self, ctx, label, k, n):
        if k is not None and k > n:
            pytest.skip("family undefined here")
        gens = preset_generators(label, n, k=k)
        dense = dense_closure(densify(g) for g in gens.members)
        assert dense.dim == ctx.closure(label, n, k).dim

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ConstraintError):
            dense_closure([])
        with pytest.raises(ConstraintError):
            dense_closure([DenseOp(2, {})])
        with pytest.raises(DimensionMismatch):
            dense_closure([DenseOp(2, {1: 1}), DenseOp(3, {1: 1})])


class TestClassSums:
    def test_single_transposition_on_two_qubits(self):
        got = class_sum(1, 2)
        expected = {
            0: Fraction(1, 2),
            letters_to_word((1, 1)): Fraction(1, 2),
            letters_to_word((2, 2)): Fraction(1, 2),
            letters_to_word((3, 3)): Fraction(1, 2),
        }
        assert got.coeffs == expected

    def test_mu_zero_is_identity_word(self):
        assert class_sum(0, 5).coeffs == {0: 1}

    @pytest.mark.parametrize(
        "n,mu,count", [(4, 1, 6), (4, 2, 3), (5, 2, 15), (6, 2, 45), (6, 3, 15)]
    )
    def test_pairing_enumeration_counts(self, n, mu, count):
        pairings = transposition_pairings(n, mu)
        assert len(pairings) == count
        formula = factorial(n) // (2**mu * factorial(mu) * factorial(n - 2 * mu))
        assert count == formula
        for pairing in pairings:
            used = [q for pair in pairing for q in pair]
            assert len(used) == len(set(used)) == 2 * mu

    def test_matches_closed_form_through_six_qubits(self):
        for n in range(1, 7):
            for mu in range(n // 2 + 1):
                assert class_sum(mu, n) == densify(make_L(mu, n))
