"""Core basis types: triples, orbit counting, the trace pairing, presets."""

import itertools
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permlie import (
    AmbientDims,
    ConstraintError,
    DimensionMismatch,
    GeneratorSet,
    PauliTriple,
    ResourceLimitError,
    SymOpVector,
    all_triples,
    ambient_dims,
    as_triple,
    check_qubits,
    frac_text,
    orbit_size,
    parse_generator_spec,
    preset_generators,
    rank_triple,
    triple_rank,
)
from permlie.symops import rank_texts
from permlie.center import make_C

from conftest import kron_word
from reference import trace_inner


def brute_orbit_strings(t: PauliTriple, n: int) -> set[str]:
    """All distinct letter strings with the given X/Y/Z counts, by force."""
    letters = "X" * t.kx + "Y" * t.ky + "Z" * t.kz + "I" * (n - t.level)
    return set("".join(p) for p in itertools.permutations(letters))


def class_matrix(t: PauliTriple, n: int) -> np.ndarray:
    """Dense matrix of P_t as an explicit sum of word matrices."""
    return sum(kron_word(w) for w in brute_orbit_strings(t, n))


class TestOrbitSize:
    def test_two_z_on_four_qubits(self):
        assert orbit_size(PauliTriple(0, 0, 2), 4) == 6

    def test_identity_orbit_is_single_string(self):
        assert orbit_size(PauliTriple(0, 0, 0), 7) == 1

    def test_matches_brute_force_enumeration(self):
        t = PauliTriple(2, 1, 0)
        assert len(brute_orbit_strings(t, 4)) == 12
        assert orbit_size(t, 4) == 12

    @pytest.mark.parametrize("n", range(1, 13))
    def test_orbits_partition_all_words(self, n):
        assert sum(orbit_size(t, n) for t in all_triples(n)) == 4**n

    def test_multinomial_formula(self):
        t, n = PauliTriple(2, 1, 3), 8
        expected = factorial(n) // (
            factorial(2) * factorial(1) * factorial(3) * factorial(n - 6)
        )
        assert orbit_size(t, n) == expected == len(brute_orbit_strings(t, n))

    def test_invalid_triple_rejected(self):
        with pytest.raises(ConstraintError):
            orbit_size(PauliTriple(2, 2, 0), 3)


def level_key(t) -> tuple[int, int, int, int]:
    """The canonical triple order, written out: by level, then (kx, ky, kz)."""
    return (sum(t), *t)


class TestTriples:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_count_is_tetrahedral(self, n):
        assert len(all_triples(n)) == comb(n + 3, 3)

    def test_canonical_order_and_uniqueness(self):
        ts = all_triples(6)
        assert len(set(ts)) == len(ts)
        keys = [level_key(t) for t in ts]
        assert keys == sorted(keys)

    def test_rank_map_matches_order(self):
        # The closed form needs no n: the rank is the position in
        # level_key order of every triple up to level 69, all_triples(n)
        # is a prefix of that order for each n < 70, and rank_triple inverts
        # the rank.  all_triples.__wrapped__ keeps 70 tables out of its cache.
        levels = range(70)
        top = sorted(
            (t for t in itertools.product(levels, repeat=3) if sum(t) in levels),
            key=level_key,
        )
        assert [triple_rank(t) for t in top] == list(range(len(top)))
        assert [rank_triple(r) for r in range(len(top))] == top
        for n in levels:
            assert all_triples.__wrapped__(n) == tuple(top[: comb(n + 3, 3)])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, comb(2003, 3)), max_size=40))
    def test_rank_texts_walk_matches_rank_triple(self, ranks):
        """One ascending walk gives rank_triple's text for every rank, also
        across long jumps in level (rank_triple's cache is left out)."""
        ranks = sorted(ranks + [0, 1, 3, 4, comb(2003, 3) - 1])
        assert list(rank_texts(ranks)) == [rank_triple.__wrapped__(r).text() for r in ranks]
        every = range(comb(15, 3))
        assert list(rank_texts(every)) == [rank_triple.__wrapped__(r).text() for r in every]

    def test_text_round_trip(self):
        t = PauliTriple(3, 0, 2)
        assert t.text() == "3,0,2"
        assert PauliTriple.from_text("3,0,2") == t
        assert PauliTriple.from_text(" 3 , 0 , 2 ") == t

    def test_from_text_rejects_garbage(self):
        for bad in ("1,2", "1,2,3,4", "a,b,c", ""):
            with pytest.raises(ConstraintError):
                PauliTriple.from_text(bad)

    def test_check_bounds(self):
        assert PauliTriple(1, 1, 1).check(3) == PauliTriple(1, 1, 1)
        with pytest.raises(ConstraintError):
            PauliTriple(1, 1, 1).check(2)
        with pytest.raises(ConstraintError):
            PauliTriple(-1, 0, 0).check(4)

    def test_level(self):
        assert PauliTriple(0, 0, 0).level == 0
        assert PauliTriple(2, 1, 3).level == 6

    def test_as_triple_accepts_all_forms(self):
        t = PauliTriple(1, 0, 2)
        assert as_triple(t) is t
        assert as_triple((1, 0, 2)) == t
        assert as_triple("1,0,2") == t


class TestAmbientDims:
    def test_two_qubits(self):
        d = ambient_dims(2)
        assert (d.dim_u, d.dim_center, d.dim_su_cless) == (10, 2, 8)

    def test_four_qubits(self):
        d = ambient_dims(4)
        assert (d.dim_u, d.dim_center) == (35, 3)

    def test_single_qubit(self):
        assert ambient_dims(1) == AmbientDims(4, 3, 1, 3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConstraintError):
            ambient_dims(0)


class TestSymOpVector:
    def test_zero_coefficients_dropped(self):
        v = SymOpVector(3, {(1, 0, 0): 2, (0, 1, 0): 0})
        assert v.support() == (PauliTriple(1, 0, 0),)
        assert len(v) == 1

    def test_fraction_canonicalized_to_int(self):
        v = SymOpVector(2, {(1, 0, 0): Fraction(4, 2)})
        assert v[(1, 0, 0)] == 2
        assert isinstance(v[(1, 0, 0)], int)

    def test_floats_rejected(self):
        with pytest.raises(ConstraintError):
            SymOpVector(2, {(1, 0, 0): 0.5})

    def test_scaling_by_a_float_rejected(self):
        u = SymOpVector.unit((1, 0, 0), 2)
        with pytest.raises(ConstraintError):
            u.scaled(0.1)
        assert type(u.scaled(Fraction(6, 3))[(1, 0, 0)]) is int

    def test_out_of_range_key_rejected(self):
        with pytest.raises(ConstraintError):
            SymOpVector(1, {(1, 1, 0): 1})

    def test_arithmetic(self):
        u = SymOpVector(3, {(1, 0, 0): 1, (0, 0, 2): 3})
        v = SymOpVector(3, {(1, 0, 0): -1, (0, 1, 0): 5})
        assert (u + v).coeffs == {
            PauliTriple(0, 1, 0): 5,
            PauliTriple(0, 0, 2): 3,
        }
        assert u - u == SymOpVector.zero(3)
        assert (-u).coeffs == {PauliTriple(1, 0, 0): -1, PauliTriple(0, 0, 2): -3}
        assert u.scaled(Fraction(1, 3))[(0, 0, 2)] == 1

    def test_mixed_qubit_counts_rejected(self):
        with pytest.raises(DimensionMismatch):
            SymOpVector.unit((1, 0, 0), 2) + SymOpVector.unit((1, 0, 0), 3)

    def test_json_round_trip(self):
        v = SymOpVector(4, {(1, 0, 0): Fraction(-2, 3), (0, 0, 2): 7})
        data = v.to_jsonable()
        assert data == {"1,0,0": "-2/3", "0,0,2": "7"}
        parsed = {PauliTriple.from_text(k): Fraction(q) for k, q in data.items()}
        assert SymOpVector(4, parsed) == v

    def test_text_form(self):
        v = SymOpVector(3, {(0, 0, 2): Fraction(1, 2)})
        assert v.text() == "1/2*(0,0,2)"
        assert SymOpVector.zero(3).text() == "0"


class TestFractionText:
    @given(st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4))
    def test_round_trip(self, q):
        assert Fraction(frac_text(q)) == q

    def test_integer_rendering(self):
        assert frac_text(Fraction(6, 3)) == "2"
        assert frac_text(Fraction(-5, 7)) == "-5/7"


def dense_frobenius(u: SymOpVector, v: SymOpVector) -> complex:
    """Brute-force tr(U V) over explicit matrices."""
    mu = sum(c * class_matrix(t, u.n) for t, c in u.items())
    mv = sum(c * class_matrix(t, v.n) for t, c in v.items())
    return complex(np.trace(mu @ mv))


class TestTraceInner:
    def test_self_pairing_matches_dense_frobenius(self):
        u = SymOpVector.unit((0, 0, 2), 4)
        assert trace_inner(u, u) == 2**4 * 6 == 96
        assert dense_frobenius(u, u) == pytest.approx(96)

    def test_distinct_triples_orthogonal(self):
        u = SymOpVector.unit((1, 0, 0), 5)
        v = SymOpVector.unit((0, 1, 0), 5)
        assert trace_inner(u, v) == 0

    def test_center_element_projection(self):
        c1 = make_C(1, 2)
        zz = SymOpVector.unit((0, 0, 2), 2)
        assert trace_inner(c1, zz) == 8
        assert dense_frobenius(c1, zz) == pytest.approx(8)
        # closed form 2^n * n! / ((n-2mu)! * a! b! c!) at mu=1, triple (0,0,2)
        assert trace_inner(c1, zz) == 2**2 * factorial(2) // factorial(0)

    def test_mismatched_n_rejected(self):
        with pytest.raises(DimensionMismatch):
            trace_inner(SymOpVector.unit((1, 0, 0), 2), SymOpVector.unit((1, 0, 0), 3))


def sparse_vectors(n: int):
    triples = st.sampled_from(all_triples(n))
    coeff = st.fractions(min_value=-50, max_value=50, max_denominator=8)
    return st.dictionaries(triples, coeff, max_size=5).map(
        lambda d: SymOpVector(n, d)
    )


class TestTraceInnerProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(sparse_vectors(n), sparse_vectors(n))))
    def test_symmetric(self, pair):
        u, v = pair
        assert trace_inner(u, v) == trace_inner(v, u)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.tuples(sparse_vectors(n), sparse_vectors(n), sparse_vectors(n))
        ),
        st.fractions(min_value=-20, max_value=20, max_denominator=5),
    )
    def test_bilinear(self, triple, q):
        u, v, w = triple
        assert trace_inner(u + v, w) == trace_inner(u, w) + trace_inner(v, w)
        assert trace_inner(u.scaled(q), w) == q * trace_inner(u, w)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4).flatmap(sparse_vectors))
    def test_positive_definite(self, u):
        if u.is_zero:
            assert trace_inner(u, u) == 0
        else:
            assert trace_inner(u, u) > 0


class TestGeneratorSets:
    def test_g1_is_uniform_x_field(self):
        g = preset_generators("G1", 5)
        assert g.members == (SymOpVector.unit((1, 0, 0), 5),)
        assert g.label == "G1" and g.k is None

    def test_g1prime_adds_y_field(self):
        g = preset_generators("G1prime", 4)
        assert [m.support()[0] for m in g.members] == [
            PauliTriple(1, 0, 0),
            PauliTriple(0, 1, 0),
        ]

    def test_g2_adds_two_body_zz(self):
        g = preset_generators("G2", 4)
        assert [m.support()[0] for m in g.members] == [
            PauliTriple(1, 0, 0),
            PauliTriple(0, 1, 0),
            PauliTriple(0, 0, 2),
        ]
        assert g.k == 2

    def test_gk_extends_z_ladder(self):
        g = preset_generators("Gk", 6, k=4)
        assert g.label == "Gk:4" and g.k == 4
        assert [m.support()[0] for m in g.members] == [
            PauliTriple(1, 0, 0),
            PauliTriple(0, 1, 0),
            PauliTriple(0, 0, 2),
            PauliTriple(0, 0, 3),
            PauliTriple(0, 0, 4),
        ]

    def test_gk_range_checked(self):
        with pytest.raises(ConstraintError):
            preset_generators("Gk", 3, k=4)
        with pytest.raises(ConstraintError):
            preset_generators("Gk", 3, k=1)
        with pytest.raises(ConstraintError):
            preset_generators("Gk", 5)

    def test_g2_needs_two_qubits(self):
        with pytest.raises(ConstraintError):
            preset_generators("G2", 1)

    def test_unknown_preset(self):
        with pytest.raises(ConstraintError):
            preset_generators("G3", 4)

    def test_duplicates_and_zeros_dropped(self):
        x = SymOpVector.unit((1, 0, 0), 3)
        g = GeneratorSet(3, (x, SymOpVector.zero(3), x))
        assert g.members == (x,)

    def test_nothing_left_rejected(self):
        with pytest.raises(ConstraintError):
            GeneratorSet(3, (SymOpVector.zero(3),))
        with pytest.raises(ConstraintError):
            GeneratorSet(3, ())

    def test_mixed_n_rejected(self):
        with pytest.raises(DimensionMismatch):
            GeneratorSet(3, (SymOpVector.unit((1, 0, 0), 2),))


class TestGeneratorSpecParsing:
    def test_presets(self):
        assert parse_generator_spec("G2", 4).label == "G2"
        assert parse_generator_spec("Gk:3", 5).label == "Gk:3"

    def test_custom_triples(self):
        g = parse_generator_spec("1,0,0; 0,1,0; 0,0,2", 4)
        assert g.label == "custom"
        assert len(g.members) == 3

    def test_duplicate_custom_triples_collapse(self):
        g = parse_generator_spec("1,0,0; 1,0,0", 4)
        assert len(g.members) == 1

    def test_bad_specs_rejected(self):
        for bad in ("", "Gk:x", "1,2", "9,0,0"):
            with pytest.raises(ConstraintError):
                parse_generator_spec(bad, 4)


def test_qubit_caps_raise_resource_errors():
    check_qubits(6, 6, "anything")
    with pytest.raises(ResourceLimitError):
        check_qubits(7, 6, "dense work")
