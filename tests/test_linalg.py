"""Sparse exact echelon forms: integer rows, rank, row invariants, and the
nullspace that tests/reference.py reads off an echelon's rows."""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from permlie import GeneratorSet, lie_closure, predicted_dim, preset_generators
from permlie.cli import main
from permlie.linalg import SparseEchelon, _make_primitive, integer_row, rank_of
from reference import nullspace


def gauss_rank(rows: list[list[int]]) -> int:
    """Reference rank via plain fraction Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    pivot_row = 0
    for c in range(cols):
        pivot = next((r for r in range(pivot_row, len(m)) if m[r][c]), None)
        if pivot is None:
            continue
        m[pivot_row], m[pivot] = m[pivot], m[pivot_row]
        pr = m[pivot_row]
        for r in range(len(m)):
            if r != pivot_row and m[r][c]:
                f = m[r][c] / pr[c]
                m[r] = [a - f * b for a, b in zip(m[r], pr)]
        pivot_row += 1
        rank += 1
    return rank


def to_sparse(row: list[int]) -> dict[int, int]:
    return {i: v for i, v in enumerate(row) if v}


class TestInsertAndRank:
    def test_independent_rows_accepted(self):
        ech = SparseEchelon()
        assert ech.insert({0: 1, 1: 2}) is not None
        assert ech.insert({1: 1}) is not None
        assert ech.rank == 2

    def test_dependent_row_rejected(self):
        ech = SparseEchelon()
        ech.insert({0: 2, 1: 4})
        assert ech.insert({0: 1, 1: 2}) is None
        assert ech.insert(integer_row({0: Fraction(1, 3), 1: Fraction(2, 3)})) is None
        assert ech.rank == 1

    def test_zero_row_rejected(self):
        ech = SparseEchelon()
        assert ech.insert({}) is None
        assert ech.insert({0: 0}) is None

    def test_extend_counts_new_rows(self):
        ech = SparseEchelon()
        added = ech.extend([{0: 1}, {0: 2}, {1: 5}, {0: 1, 1: 5}])
        assert added == 2

    def test_reduced_rows_grow_like_inserted_ones(self):
        """from_reduced stores reduced rows as they are and reads their
        column index off them: it holds what inserting them builds, and
        grows the same."""
        ref = SparseEchelon()
        ref.extend([{0: 1, 2: 3}, {1: 2, 2: 1, 3: 1}, {4: 1}])
        built = SparseEchelon.from_reduced(dict(zip(ref.pivots(), ref.rows())))
        assert built.rows() == ref.rows() and built._cols == ref._cols
        for ech in (built, ref):
            ech.extend([{2: 5}, {3: 1, 5: 2}])
        assert built.rows() == ref.rows() and built._cols == ref._cols

    def test_rank_of_helper(self):
        assert rank_of([{0: 1, 1: 1}, {1: 1}, {0: 1}]) == 2


class TestRowInvariants:
    def test_stored_rows_are_primitive_with_positive_pivots(self):
        ech = SparseEchelon()
        for vec in ({0: -4, 1: 6}, {1: 10, 2: -15}):
            stored = ech.insert(vec)
            assert stored is not None
            pivot = min(stored)
            assert stored[pivot] > 0
            assert gcd(*(abs(v) for v in stored.values())) == 1
            assert all(isinstance(v, int) for v in stored.values())

    def test_rows_are_fully_reduced(self):
        ech = SparseEchelon()
        ech.extend([{0: 1, 1: 3, 2: 7}, {1: 2, 2: 5}, {2: 11}])
        pivots = set(ech.pivots())
        for pivot, row in zip(ech.pivots(), ech.rows()):
            foreign = set(row) & (pivots - {pivot})
            assert not foreign

    def test_rows_view_is_the_stored_primitive_rows(self):
        ech = SparseEchelon()
        ech.extend([{2: 4, 3: -6}, {0: 3, 1: 2}])
        assert ech.pivots() == [0, 2]
        assert ech.rows() == [{0: 3, 1: 2}, {2: 2, 3: -3}]


class TestMakePrimitive:
    def test_content_one_only_through_a_late_entry(self):
        # gcd(4, 6) = 2, and only the last entry brings the content to 1
        assert _make_primitive({0: 4, 1: 6, 2: 9}, 0) == {0: 4, 1: 6, 2: 9}

    def test_negative_pivot_flips_sign_when_the_scan_stops_early(self):
        # the content reaches 1 at the second entry; the later ones still flip
        assert _make_primitive({0: -2, 1: 3, 2: 4}, 0) == {0: 2, 1: -3, 2: -4}
        assert _make_primitive({0: 3, 1: -4, 2: 8}, 1) == {0: -3, 1: 4, 2: -8}

    def test_common_content_is_divided_out(self):
        assert _make_primitive({0: -4, 1: 6, 2: 8}, 0) == {0: 2, 1: -3, 2: -4}
        assert _make_primitive({3: 6}, 3) == {3: 1}


class TestIntegerRow:
    def test_clears_denominators_by_their_lcm(self):
        row = integer_row({0: Fraction(1, 3), 1: Fraction(-1, 2), 2: 0, 3: 2})
        assert row == {0: 2, 1: -3, 3: 12}
        assert all(type(v) is int for v in row.values())

    def test_int_rows_keep_their_values_without_zeros(self):
        assert integer_row({0: 4, 1: 0, 2: -6}) == {0: 4, 2: -6}
        assert integer_row({0: 0}) == {} == integer_row({})

    def test_rational_multiple_of_a_row_is_contained(self):
        ech = SparseEchelon()
        ech.insert({0: 3, 1: 2})
        assert ech.contains(integer_row({0: Fraction(1), 1: Fraction(2, 3)}))
        assert not ech.contains(integer_row({0: Fraction(1), 1: Fraction(1, 3)}))


class TestResidualAndContains:
    def test_contains_linear_combinations(self):
        ech = SparseEchelon()
        ech.extend([{0: 2, 1: 4}, {1: 1, 2: 3}])
        combo = {0: 1, 1: 5, 2: 9}  # half row one plus three times row two
        assert ech.contains(combo)
        assert not ech.contains({2: 1})


class TestNullspace:
    def test_known_kernel(self):
        # x0 + x1 + x2 = 0 and x1 - x2 = 0  =>  kernel spanned by (-2, 1, 1)
        ech = SparseEchelon()
        ech.extend([{0: 1, 1: 1, 2: 1}, {1: 1, 2: -1}])
        null = nullspace(ech, range(3))
        assert len(null) == 1
        sol = null[0]
        scale = sol[2]
        assert {k: v / scale for k, v in sol.items()} == {
            0: Fraction(-2),
            1: Fraction(1),
            2: Fraction(1),
        }

    def test_full_rank_has_trivial_kernel(self):
        ech = SparseEchelon()
        ech.extend([{0: 1}, {1: 1}])
        assert nullspace(ech, range(2)) == []

    def test_empty_system_kernel_is_everything(self):
        ech = SparseEchelon()
        null = nullspace(ech, range(3))
        assert len(null) == 3


small_matrices = st.lists(
    st.lists(st.integers(-9, 9), min_size=4, max_size=4),
    min_size=1,
    max_size=6,
)


class TestAgainstDenseOracle:
    @settings(max_examples=120, deadline=None)
    @given(small_matrices)
    def test_rank_matches_gaussian_elimination(self, rows):
        ech = SparseEchelon()
        ech.extend(to_sparse(r) for r in rows)
        assert ech.rank == gauss_rank(rows)

    @settings(max_examples=120, deadline=None)
    @given(small_matrices)
    def test_rank_nullity(self, rows):
        ech = SparseEchelon()
        ech.extend(to_sparse(r) for r in rows)
        assert ech.rank + len(nullspace(ech, range(4))) == 4

    @settings(max_examples=120, deadline=None)
    @given(small_matrices)
    def test_nullspace_annihilates_rows(self, rows):
        ech = SparseEchelon()
        ech.extend(to_sparse(r) for r in rows)
        for sol in nullspace(ech, range(4)):
            for row in rows:
                assert sum(Fraction(row[k]) * v for k, v in sol.items()) == 0

    @settings(max_examples=80, deadline=None)
    @given(small_matrices, st.integers(-5, 5), st.integers(-5, 5))
    def test_row_combinations_are_contained(self, rows, c1, c2):
        ech = SparseEchelon()
        ech.extend(to_sparse(r) for r in rows)
        stored = [dict(row) for row in ech.rows()]
        if len(stored) < 2:
            return
        combo: dict = {}
        for c, row in ((c1, stored[0]), (c2, stored[1])):
            for k, v in row.items():
                combo[k] = combo.get(k, 0) + c * v
        combo = {k: v for k, v in combo.items() if v}
        assert ech.contains(combo)
        assert ech.insert(combo) is None


class FullScanEchelon(SparseEchelon):
    """Reference echelon: every stored row is scanned for the new pivot,
    with no column index, and every row, single-entry ones included, is
    eliminated and back-substituted by the general integer step."""

    def _eliminate(self, vec):
        work = {k: v for k, v in vec.items() if v}
        for p in [k for k in work if k in self._rows]:
            c = work.get(p)
            if not c:
                continue
            row = self._rows[p]
            g = gcd(c, row[p])
            for k, rv in row.items():
                nv = row[p] // g * work.get(k, 0) - c // g * rv
                if nv:
                    work[k] = nv
                else:
                    work.pop(k, None)
            for k in work:
                if k not in row:
                    work[k] *= row[p] // g
        return work

    def insert(self, vec):
        work = self._eliminate(vec)
        if not work:
            return None
        pivot = min(work)
        new = _make_primitive(work, pivot)
        npiv = new[pivot]
        for q, row in self._rows.items():
            c = row.get(pivot)
            if not c:
                continue
            g = gcd(c, npiv)
            merged = {k: npiv // g * v for k, v in row.items()}
            for k, v in new.items():
                nv = merged.get(k, 0) - c // g * v
                if nv:
                    merged[k] = nv
                else:
                    merged.pop(k, None)
            self._rows[q] = _make_primitive(merged, q)
        self._rows[pivot] = new
        return new


COLUMNS = 10
sparse_rows = st.lists(
    st.dictionaries(st.integers(0, COLUMNS - 1), st.integers(-6, 6).filter(bool), max_size=5),
    min_size=1,
    max_size=14,
)


class TestColumnIndex:
    @settings(max_examples=150, deadline=None)
    @given(sparse_rows, st.permutations(range(COLUMNS)))
    def test_index_matches_full_scan_after_every_insert(self, vecs, order):
        # a random column order: relabel the columns through the permutation
        ech = SparseEchelon()
        ref = FullScanEchelon()
        for vec in ({order[k]: v for k, v in row.items()} for row in vecs):
            assert ech.insert(vec) == ref.insert(vec)
            assert ech._rows == ref._rows
            assert ech._cols == column_support(ech)


def column_support(ech):
    """The column index an echelon's rows imply."""
    support: dict = {}
    for p, row in ech._rows.items():
        for k in row:
            if k != p:
                support.setdefault(k, set()).add(p)
    return support


def assert_matches_full_scan(vecs):
    """Insert vecs into both echelons; after each, the rows agree and the
    column index matches them.  At the end every row is primitive."""
    ech, ref = SparseEchelon(), FullScanEchelon()
    for vec in vecs:
        assert ech.insert(vec) == ref.insert(vec)
        assert ech._rows == ref._rows
        assert ech._cols == column_support(ech)
    for p, row in ech._rows.items():
        assert row[p] > 0 and gcd(*row.values()) == 1
    return ech, ref


single_heavy_rows = st.lists(
    st.one_of(
        st.tuples(st.integers(0, COLUMNS - 1), st.integers(-6, 6).filter(bool)).map(lambda kv: dict([kv])),
        st.dictionaries(st.integers(0, COLUMNS - 1), st.integers(-6, 6).filter(bool), max_size=4),
    ),
    min_size=1,
    max_size=14,
)


class TestSingleEntryRows:
    """A stored row of length 1 is {p: 1}: eliminating against it deletes
    column p, and inserting it drops column p from the rows that hold it.
    Both agree with the general step of FullScanEchelon."""

    def test_inserted_unit_row_leaves_the_rows_it_cuts_primitive(self):
        ech, _ = assert_matches_full_scan([{0: 2, 3: 1}, {1: 6, 2: 4, 3: 1}, {3: -7}])
        assert ech.rows() == [{0: 1}, {1: 3, 2: 2}, {3: 1}]
        assert ech._cols == {2: {1}}

    def test_inserted_unit_row_keeps_other_columns_indexed(self):
        ech, _ = assert_matches_full_scan([{0: 4, 2: 2, 5: 1}, {1: 1, 2: 3, 5: -1}, {5: 2}])
        assert ech.rows() == [{0: 2, 2: 1}, {1: 1, 2: 3}, {5: 1}]
        assert ech._cols == {2: {0, 1}}

    def test_elimination_against_unit_rows(self):
        rows = [{2: 3}, {4: -1}, {0: 1, 1: 3}]
        ech, ref = assert_matches_full_scan(rows)
        for vec in ({0: 2, 2: 7, 4: 5}, {2: 1, 4: 1}, {1: 2, 2: -4, 3: 6}, {3: 9, 4: 2}):
            assert ech._eliminate(vec) == ref._eliminate(vec)
        assert ech._eliminate({2: 1, 4: 1}) == {}
        assert ech._eliminate({3: 9, 4: 2}) == {3: 9}

    @settings(max_examples=150, deadline=None)
    @given(single_heavy_rows, sparse_rows)
    def test_random_rows_match_full_scan(self, vecs, probes):
        ech, ref = assert_matches_full_scan(vecs)
        for vec in probes:
            assert ech._eliminate(vec) == ref._eliminate(vec)


# Verbs whose echelons see closure rows, L_mu rows, verdict residuals,
# sector blocks and traces, dense-engine rows and the X/Y kernel system.
INT_ONLY_VERBS = (
    ("close", "--n", "8", "--gens", "G2"),
    ("center", "--n", "9"),
    ("schur", "--n", "6", "--check-blocks"),
    ("verify", "lemma2"),
    ("verify", "cor1", "--n-range", "2..5"),
    ("verify", "oracle", "--n-range", "2..3"),
)


class TestIntegerEngine:
    def test_no_fraction_reaches_the_echelon(self, monkeypatch, capsys):
        seen = set()
        eliminate = SparseEchelon._eliminate

        def recording(self, vec):
            seen.update(map(type, vec.values()))
            return eliminate(self, vec)

        monkeypatch.setattr(SparseEchelon, "_eliminate", recording)
        for argv in INT_ONLY_VERBS:
            assert main([*argv, "--json", "-"]) == 0, argv
        capsys.readouterr()
        g2 = preset_generators("G2", 5)
        thirds = tuple(g.scaled(Fraction(1, 3)) for g in g2.members)
        assert lie_closure(GeneratorSet(5, thirds, "custom")).dim == predicted_dim("G2", 5)
        assert seen == {int}
