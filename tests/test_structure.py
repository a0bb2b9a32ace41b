"""Structure constants: the seed columns and their two references, the
orbit expansion and the pair overlap count; algebraic laws; the table."""

import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permlie import (
    ConstraintError,
    DimensionMismatch,
    PauliTriple,
    ResourceLimitError,
    StructureTable,
    SymOpVector,
    VerificationError,
    all_triples,
    as_triple,
    compare_tables,
    orbit_bracket,
)
from permlie import structure
from permlie.center import make_C
from permlie.oracle import dense_bracket, densify, symmetrize
from permlie.structure import ORBIT_CAP, _orbit_average
from permlie.symops import rank_triple, triple_rank
from reference import _bracket_overlap, bracket_vectors, trace_inner


def pair_count_bracket(table, a, b):
    """[i P_a, i P_b] by the reference pair overlap count."""
    a, b = (as_triple(t).check(table.n) for t in (a, b))
    return SymOpVector.from_ranks(table.n, _bracket_overlap(a, b, table.n) if a != b else {})


# The three bracket engines, as (table, a, b) -> vector: the seed columns
# behind every StructureTable, and the orbit expansion and the pair overlap
# count they are checked against.
ENGINES = {
    "overlap-combinatorics": lambda table, a, b: table.bracket(a, b),
    "orbit-expansion": lambda table, a, b: orbit_bracket(a, b, table.n),
    "pair-overlap-count": pair_count_bracket,
}


def unit(t, n):
    return SymOpVector.unit(t, n)


class TestBracketExamples:
    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("engine", ENGINES.values(), ids=ENGINES)
    def test_x_field_with_y_field_gives_z_field(self, n, engine):
        got = engine(StructureTable(n), (1, 0, 0), (0, 1, 0))
        assert got == unit((0, 0, 1), n).scaled(-2)

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_self_bracket_vanishes(self, n):
        table = StructureTable(n)
        for t in all_triples(n):
            assert table.bracket(t, t).is_zero
            assert orbit_bracket(t, t, n).is_zero

    def test_one_qubit_su2_cycle(self):
        table = StructureTable(1)
        x, y, z = (1, 0, 0), (0, 1, 0), (0, 0, 1)
        assert table.bracket(x, y) == unit(z, 1).scaled(-2)
        assert table.bracket(y, z) == unit(x, 1).scaled(-2)
        assert table.bracket(z, x) == unit(y, 1).scaled(-2)

    def test_x_field_ladder_coefficients(self, tables):
        # [P_(kx,ky,kz), P_(1,0,0)] swaps one Y<->Z with weights ky+1, kz+1
        n, t = 5, PauliTriple(1, 2, 1)
        expected = (
            unit((1, 3, 0), n).scaled(-2 * (t.ky + 1))
            + unit((1, 1, 2), n).scaled(2 * (t.kz + 1))
        )
        got = tables(n).bracket(t, (1, 0, 0))
        assert got == expected
        dense = symmetrize(dense_bracket(densify(unit(t, n)), densify(unit((1, 0, 0), n))))
        assert dense == expected

    @pytest.mark.parametrize("n", [4, 6])
    def test_x_field_ladder_general(self, tables, n):
        table = tables(n)
        for t in all_triples(n):
            terms = []
            if t.kz >= 1:
                terms.append(unit((t.kx, t.ky + 1, t.kz - 1), n).scaled(-2 * (t.ky + 1)))
            if t.ky >= 1:
                terms.append(unit((t.kx, t.ky - 1, t.kz + 1), n).scaled(2 * (t.kz + 1)))
            expected = sum(terms, SymOpVector.zero(n))
            assert table.bracket(t, (1, 0, 0)) == expected

    def test_invalid_triples_rejected(self):
        with pytest.raises(ConstraintError):
            StructureTable(2).bracket((3, 0, 0), (1, 0, 0))
        with pytest.raises(ConstraintError):
            orbit_bracket((3, 0, 0), (1, 0, 0), 2)
        with pytest.raises(ConstraintError):
            orbit_bracket((1, 0, 0), (3, 0, 0), 2)


class TestAlgebraicLaws:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_antisymmetry_and_even_integer_coefficients(self, tables, n):
        table = tables(n)
        ts = all_triples(n)
        for i, a in enumerate(ts):
            for b in ts[i:]:
                ab = table.bracket(a, b)
                assert ab == -table.bracket(b, a)
                for _, g in ab.items():
                    assert isinstance(g, int) and g % 2 == 0

    def test_level_and_kx_preserved_by_x_field(self, tables):
        n = 6
        table = tables(n)
        probe = PauliTriple(1, 0, 0)
        for t in all_triples(n):
            for u, _ in table.bracket(t, probe).items():
                assert u.level == t.level
                assert u.kx == t.kx

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_jacobi_full_scan(self, tables, n):
        table = tables(n)
        ts = all_triples(n)
        for a in ts:
            for b in ts:
                for c in ts:
                    total = (
                        bracket_vectors(table, table.bracket(a, b), unit(c, n))
                        + bracket_vectors(table, table.bracket(b, c), unit(a, n))
                        + bracket_vectors(table, table.bracket(c, a), unit(b, n))
                    )
                    assert total.is_zero

    def test_jacobi_random_sample_up_to_ten_qubits(self, tables):
        # 10,000 seeded draws, weighted toward the larger qubit counts
        rng = random.Random(0x5EED)
        weights = [1, 1, 1, 2, 2, 3, 3, 4, 4]
        for _ in range(10_000):
            n = rng.choices(range(2, 11), weights=weights)[0]
            table = tables(n)
            ts = all_triples(n)
            a, b, c = (rng.choice(ts) for _ in range(3))
            total = (
                bracket_vectors(table, table.bracket(a, b), unit(c, n))
                + bracket_vectors(table, table.bracket(b, c), unit(a, n))
                + bracket_vectors(table, table.bracket(c, a), unit(b, n))
            )
            assert total.is_zero, (n, a, b, c)

    def test_trace_form_is_ad_invariant(self, tables):
        n = 4
        table = tables(n)
        rng = random.Random(7)
        ts = all_triples(n)

        def rand_vec():
            return SymOpVector(
                n, {rng.choice(ts): rng.randint(-5, 5) for _ in range(4)}
            )

        for _ in range(50):
            u, v, w = rand_vec(), rand_vec(), rand_vec()
            lhs = trace_inner(bracket_vectors(table, u, v), w)
            rhs = trace_inner(v, bracket_vectors(table, u, w))
            assert lhs + rhs == 0


class TestBracketVectors:
    def test_self_bracket_zero(self, tables):
        table = tables(3)
        v = SymOpVector(3, {(1, 0, 0): 2, (0, 0, 2): 3})
        assert bracket_vectors(table, v, v).is_zero

    def test_unit_vectors_reduce_to_plain_bracket(self, tables):
        table = tables(4)
        got = bracket_vectors(table, unit((1, 0, 0), 4), unit((0, 1, 0), 4))
        assert got == unit((0, 0, 1), 4).scaled(-2)

    def test_center_element_annihilates_everything(self, tables):
        n = 4
        table = tables(n)
        c1 = make_C(1, n)
        rng = random.Random(11)
        ts = all_triples(n)
        v = SymOpVector(n, {t: rng.randint(-9, 9) for t in rng.sample(ts, 6)})
        assert bracket_vectors(table, c1, v).is_zero
        assert dense_bracket(densify(c1), densify(v)).is_zero

    @settings(max_examples=40, deadline=None)
    @given(
        st.dictionaries(st.sampled_from(all_triples(3)), st.integers(-9, 9), max_size=4),
        st.dictionaries(st.sampled_from(all_triples(3)), st.integers(-9, 9), max_size=4),
        st.dictionaries(st.sampled_from(all_triples(3)), st.integers(-9, 9), max_size=4),
    )
    def test_bilinearity(self, tables, du, dv, dw):
        table = tables(3)
        u, v, w = (SymOpVector(3, d) for d in (du, dv, dw))
        assert bracket_vectors(table, u, v + w) == (
            bracket_vectors(table, u, v) + bracket_vectors(table, u, w)
        )

    def test_mismatched_n_rejected(self, tables):
        with pytest.raises(DimensionMismatch):
            bracket_vectors(tables(3), unit((1, 0, 0), 3), unit((1, 0, 0), 4))


class TestMethodAgreement:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_overlap_equals_orbit_all_pairs(self, n):
        assert compare_tables(StructureTable(n)) == []

    def test_six_qubit_full_table_dual_method(self):
        compared = StructureTable(6)
        assert compare_tables(compared) == []
        assert compared.entry_count == 84 * 83 // 2

    def test_mismatch_records_name_both_engines(self, monkeypatch):
        monkeypatch.setattr("permlie.structure._seed_column", lambda s: ())
        bad = compare_tables(StructureTable(1))
        assert [r["pair"] for r in bad] == [["0,0,1", "0,1,0"], ["0,0,1", "1,0,0"],
                                            ["0,1,0", "1,0,0"]]
        assert bad[0] == {"pair": ["0,0,1", "0,1,0"], "columns": {}, "orbit": {"1,0,0": "2"}}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_both_match_dense_oracle(self, tables, n):
        table = tables(n)
        ts = all_triples(n)
        for i, a in enumerate(ts):
            for b in ts[i + 1 :]:
                dense = symmetrize(dense_bracket(densify(unit(a, n)), densify(unit(b, n))))
                assert table.bracket(a, b) == dense
                assert orbit_bracket(a, b, n) == dense


def pair_engine_coeffs(table, t, s):
    """[i P_t, i P_s] by the reference pair overlap count, keyed by rank."""
    return _bracket_overlap(rank_triple(t), rank_triple(s), table.n) if t != s else {}


class TestSeedColumns:
    """bracket_coeffs counts each structure constant against the output
    word with the seed's column; the pair overlap count is its reference."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_every_preset_seed_against_every_triple(self, n):
        table = StructureTable(n)
        seeds = [(1, 0, 0), (0, 1, 0)] + [(0, 0, k) for k in range(2, n + 1)]
        for s in map(triple_rank, seeds):
            for t in range(comb(n + 3, 3)):
                assert table.bracket_coeffs({t: 1}, {s: 1}) == pair_engine_coeffs(table, t, s)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_low_seed_against_every_triple(self, n):
        table = StructureTable(n)
        for s in range(comb(min(n, 3) + 3, 3)):
            for t in range(comb(n + 3, 3)):
                assert table.bracket_coeffs({t: 1}, {s: 1}) == pair_engine_coeffs(table, t, s)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_pairs_up_to_twenty_qubits(self, data):
        n = data.draw(st.integers(1, 20))
        s = data.draw(st.sampled_from(all_triples(min(n, 6))))
        t = data.draw(st.sampled_from(all_triples(n)))
        got = StructureTable(n).bracket_coeffs({triple_rank(t): 1}, {triple_rank(s): 1})
        assert got == (_bracket_overlap(t, s, n) if t != s else {})

    def test_bilinear_in_both_arguments(self):
        n, table = 7, StructureTable(7)
        u = {triple_rank(PauliTriple(2, 1, 3)): 3, triple_rank(PauliTriple(0, 4, 0)): -5}
        v = {triple_rank(PauliTriple(1, 0, 0)): 2, triple_rank(PauliTriple(1, 1, 2)): 7}
        want: dict = {}
        for t, a in u.items():
            for s, b in v.items():
                for w, g in pair_engine_coeffs(table, t, s).items():
                    want[w] = want.get(w, 0) + a * b * g
        assert table.bracket_coeffs(u, v) == {w: c for w, c in want.items() if c}
        assert table.bracket_coeffs(u, {}) == table.bracket_coeffs({}, v) == {}

    def test_self_bracket_builds_no_column(self, monkeypatch):
        """[w, w] = 0 is returned before any seed column is built, and after
        the rank check."""
        def no_column(s):
            raise AssertionError("seed column built")

        monkeypatch.setattr("permlie.structure._seed_column", no_column)
        table = StructureTable(7)
        w = {triple_rank(PauliTriple(2, 1, 3)): 3, triple_rank(PauliTriple(0, 0, 7)): -5}
        assert table.bracket_coeffs(w, dict(w)) == {}
        with pytest.raises(ConstraintError, match="leave the"):
            table.bracket_coeffs({comb(10, 3): 1}, {comb(10, 3): 1})

    def test_z_type_brackets_build_no_column(self):
        """Z-type words are diagonal and commute: bracket_coeffs returns {}
        for rows whose keys are all Z-type, after the rank check, with no
        call to _seed_column; the orbit expansion agrees pair by pair."""
        n = 7
        z = [triple_rank(PauliTriple(0, 0, k)) for k in range(n + 1)]
        table = StructureTable(n)
        calls = structure._seed_column.cache_info()
        assert table.bracket_coeffs({z[3]: 2, z[1]: -1, z[0]: 4}, {z[5]: 1, z[2]: 3}) == {}
        assert table.bracket_coeffs({z[7]: 1}, {z[6]: -2}) == {}
        after = structure._seed_column.cache_info()
        assert (after.hits, after.misses) == (calls.hits, calls.misses)
        for a, b in [(3, 5), (1, 2), (7, 6), (0, 4)]:
            assert orbit_bracket((0, 0, a), (0, 0, b), n).is_zero
        with pytest.raises(ConstraintError, match="leave the"):
            table.bracket_coeffs({z[3]: 1}, {comb(10, 3): 1})
        mixed = {z[2]: 1, triple_rank(PauliTriple(1, 0, 0)): 1}
        assert table.bracket_coeffs(mixed, {z[2]: 1}) == table.bracket_coeffs(
            {triple_rank(PauliTriple(1, 0, 0)): 1}, {z[2]: 1}) != {}


class TestTableBasics:
    def test_bracket_accepts_text_and_tuples(self, tables):
        table = tables(2)
        assert table.bracket("1,0,0", (0, 1, 0)) == unit((0, 0, 1), 2).scaled(-2)

    @pytest.mark.parametrize("engine", ENGINES.values(), ids=ENGINES)
    def test_out_of_range_triple_never_enters_the_table(self, engine):
        # every engine must refuse ranks outside the C(n+3,3) triples of n,
        # in either slot of the pair, before it brackets anything
        table = StructureTable(2)
        past, y_field = comb(2 + 3, 3), triple_rank(PauliTriple(0, 1, 0))
        assert rank_triple(past) == (0, 0, 3)
        for bad in (past, -1):
            for u, v in (({bad: 1}, {y_field: 1}), ({y_field: 1}, {bad: 1})):
                with pytest.raises(ConstraintError, match="leave the 10 triples of n = 2"):
                    table.bracket_coeffs(u, v)
        with pytest.raises(ConstraintError, match="needs more than 2 qubits"):
            engine(table, (1, 0, 0), (0, 2, 1))
        assert table.entry_count == 0

    def test_overlap_entries_are_rank_keyed(self):
        x, y, z = PauliTriple(1, 0, 0), PauliTriple(0, 1, 0), (0, 0, 1)
        assert _bracket_overlap(x, y, 3) == {triple_rank(z): -2}
        assert _orbit_average(x, {z: -2, (0, 0, 4): 0}, 3) == {triple_rank(z): -2}

    @pytest.mark.parametrize("u", [(2, 0, 1), (0, 0, 3), (3, 0, 0), (0, 3, 0), (-1, 1, 0)])
    def test_orbit_average_refuses_a_triple_past_level_n(self, u):
        # orbit sizes are read off the letter counts unchecked, so a triple
        # past level n must be caught, not divide by a zero orbit size
        with pytest.raises(VerificationError, match="left level <= 2"):
            _orbit_average(PauliTriple(1, 0, 0), {u: 2}, 2)

    def test_whole_table_work_is_capped(self):
        # refuses before computing a single entry
        past_orbit = StructureTable(ORBIT_CAP + 1)
        with pytest.raises(ResourceLimitError, match=f"capped at n <= {ORBIT_CAP}"):
            compare_tables(past_orbit)
        assert past_orbit.entry_count == 0
