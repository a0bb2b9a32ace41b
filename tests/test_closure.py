"""Lie closures: dimensions, verdicts, membership functionals, reports."""

import json
import random
import sys
from collections import deque
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from permlie import (
    ClosureRun,
    ConstraintError,
    GeneratorSet,
    PauliTriple,
    StructureTable,
    SymOpVector,
    all_triples,
    ambient_dims,
    build_report,
    is_universal_pair,
    lie_closure,
    predicted_dim,
    preset_generators,
    semi_universal_basis,
    verify,
)
from permlie import closure, schur
from permlie.center import make_C
from permlie.cli import main
from permlie.closure import (
    Verdicts,
    _verdicts,
    central_rank,
    central_residuals,
    generator_residuals,
)
from permlie.linalg import SparseEchelon, generator_closure, integer_row, rank_of
from permlie.oracle import DenseOp, dense_bracket, dense_closure, densify
from permlie.schur import LedgerSector, SectorLedger, sector_ledger
from permlie.symops import by_rank, parse_generator_spec, rank_triple, triple_rank
from conftest import (
    ENGINE_DEADLINE,
    ORACLE_DEADLINE,
    WIDE_DEADLINE,
    case_ids,
    custom_generator_sets,
    custom_vectors,
    g2_plus_custom_sets,
    preset_cases,
)
from reference import (
    bracket_vectors,
    extend_closure,
    list_central_residuals,
    list_membership_check,
    membership_residual,
    one_stage_closure,
    row_vectors,
    schema_path,
    snapshot_closure,
    trace_inner,
    trace_pairing_verdicts,
)


def all_pairs_closure(gens, table):
    """Reference worklist: each new row is bracketed with every stored row.

    Its echelon is keyed by (level, kx, ky, kz) tuples, so the reference
    does not share the engine's triple ranks."""
    ech = SparseEchelon()
    stored = []
    work = deque()

    def vector(row):
        return SymOpVector(gens.n, {PauliTriple(*key[1:]): c for key, c in row.items()})

    def admit(v):
        row = ech.insert({(t.level, *t): c for t, c in v.items()})
        if row is not None:
            vec = vector(row)
            work.extend((vec, s) for s in stored)
            stored.append(vec)

    for g in gens.members:
        admit(g)
    while work:
        admit(bracket_vectors(table, *work.popleft()))
    return tuple(vector(r) for r in ech.rows())


class TestClosureDimensions:
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_single_x_field_closes_on_itself(self, ctx, n):
        assert ctx.closure("G1", n).dim == 1

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_two_field_set_closes_on_global_spin(self, ctx, n):
        assert ctx.closure("G1prime", n).dim == 3

    def test_two_body_set_four_qubits(self, ctx):
        run = ctx.closure("G2", 4)
        assert run.dim == 33
        dense = dense_closure(densify(g) for g in preset_generators("G2", 4).members)
        assert dense.dim == 33

    def test_three_body_set_four_qubits(self, ctx):
        assert ctx.closure("Gk", 4, 3).dim == 33

    def test_iterations_and_wall_time_recorded(self, ctx):
        """The worklist counts its brackets; a closure the sector ledger
        proves makes none."""
        run = ctx.closure("G1prime", 3)
        assert run.iterations > 0
        assert run.wall_time >= 0.0
        proven = ctx.closure("G2", 3)
        assert proven.iterations == 0 and proven.wall_time >= 0.0


class TestPredictedDim:
    def test_examples(self):
        assert predicted_dim("Gk", 6, 2) == 81
        assert predicted_dim("Gk", 5, 4) == comb(8, 3) - 1 == 55
        assert predicted_dim("Gk", 4, 3) == 33
        assert predicted_dim("G2", 9) == comb(12, 3) - 4
        assert predicted_dim("G1", 7) == 1
        assert predicted_dim("G1prime", 2) == 3

    def test_range_checked(self):
        with pytest.raises(ConstraintError):
            predicted_dim("Gk", 4, 1)
        with pytest.raises(ConstraintError):
            predicted_dim("Gk", 4, 5)
        with pytest.raises(ConstraintError):
            predicted_dim("Gk", 4)
        with pytest.raises(ConstraintError):
            predicted_dim("custom", 4)


class TestUniversalityThreshold:
    def test_truth_table(self):
        assert is_universal_pair(4, 4)
        assert not is_universal_pair(4, 3)
        assert not is_universal_pair(6, 5)
        assert is_universal_pair(5, 4)
        assert is_universal_pair(5, 5)
        assert is_universal_pair(3, 2)
        assert not is_universal_pair(7, 5)

    def test_range_checked(self):
        with pytest.raises(ConstraintError):
            is_universal_pair(3, 1)


class TestClosureInvariance:
    def test_generator_order_and_scale_do_not_matter(self):
        base = preset_generators("G2", 4)
        reference = lie_closure(base)
        shuffled = GeneratorSet(
            4,
            tuple(
                g.scaled(Fraction(3, 7)) for g in reversed(base.members)
            ),
            "custom",
        )
        other = lie_closure(shuffled)
        assert other.dim == reference.dim
        # reduced echelon over a fixed order is canonical: same subspace,
        # identical rows
        assert other.basis.rows() == reference.basis.rows()

    def test_k_body_ladders_are_nested(self, ctx):
        n = 5
        runs = [ctx.closure("Gk", n, k) for k in (2, 3, 4, 5)]
        for smaller, bigger in zip(runs, runs[1:]):
            assert smaller.dim <= bigger.dim
            for row in smaller.basis.rows():
                assert bigger.basis.contains(row)

    @settings(max_examples=20, deadline=ORACLE_DEADLINE)
    @given(custom_generator_sets())
    def test_generator_pairing_matches_all_pairs_and_dense(self, tables, gens):
        run = lie_closure(gens)
        reference = all_pairs_closure(gens, tables(gens.n))
        assert tuple(row_vectors(gens.n, run.basis)) == reference
        assert dense_closure(densify(g) for g in gens.members).dim == run.dim


PRESETS_TO_12 = preset_cases(12)
WORD_PRESETS = preset_cases(4)


def seed_rows(gens):
    return [integer_row(by_rank(g.coeffs)) for g in gens.members]


def expected_brackets(gens):
    """The brackets lie_closure makes: none when the sector ledger shows
    every sector full, that of S0 (the members of level <= 2, when they
    are a nonempty proper subset) or that of the whole set S.  Otherwise
    dim L(S) x rank(S), with the dimension from the one-stage worklist."""
    two_body = [g for g in gens.members if max(t.level for t in g.coeffs) <= 2]
    if 0 < len(two_body) < len(gens.members) and sector_ledger(GeneratorSet(gens.n, two_body)).full:
        return 0
    if sector_ledger(gens).full:
        return 0
    return one_stage_closure(gens)[0].rank * rank_of(seed_rows(gens))


def assert_worklists_agree(seeds, bracket):
    """The pivot worklist and the admission-snapshot worklist end on the
    same echelon after the same number of brackets."""
    fast, slow = SparseEchelon(), SparseEchelon()
    steps = generator_closure(seeds, bracket, fast)
    assert steps == snapshot_closure(seeds, bracket, slow)
    assert fast.pivots() == slow.pivots()
    assert fast.rows() == slow.rows()


class TestWorklist:
    """generator_closure brackets each row as stored when popped, unless the
    row as admitted is narrower; the snapshot worklist of tests/reference.py
    is its oracle."""

    @pytest.mark.parametrize("label,n,k", PRESETS_TO_12, ids=case_ids(PRESETS_TO_12))
    def test_presets_match_snapshot_worklist(self, label, n, k):
        gens = preset_generators(label, n, k=k)
        assert_worklists_agree(seed_rows(gens), StructureTable(n).bracket_coeffs)

    @settings(max_examples=30, deadline=ENGINE_DEADLINE)
    @given(custom_generator_sets())
    def test_custom_sets_match_snapshot_worklist(self, gens):
        assert_worklists_agree(seed_rows(gens), StructureTable(gens.n).bracket_coeffs)

    @pytest.mark.parametrize("label,n,k", WORD_PRESETS, ids=case_ids(WORD_PRESETS))
    def test_word_bracket_matches_snapshot_worklist(self, label, n, k):
        gens = preset_generators(label, n, k=k)

        def bracket(u, g):
            return dense_bracket(DenseOp(n, u), DenseOp(n, g)).coeffs

        assert_worklists_agree([integer_row(densify(g).coeffs) for g in gens.members], bracket)

    def test_coefficients_stay_narrow_on_a_dense_custom_set(self):
        """Bracketing the stored row on every pop drove this set's bracketed
        rows to 136,739-bit coefficients (11 s for a 54-dimensional closure);
        the admission-snapshot worklist stays at 77 bits.  The pivot worklist
        brackets whichever of the two rows is narrower."""
        n = 5
        members = [{(2, 2, 0): -3}, {(2, 1, 0): 1, (3, 0, 1): -3}, {(0, 4, 1): 1, (5, 0, 0): -1}]
        gens = GeneratorSet(
            n, tuple(SymOpVector(n, {PauliTriple(*t): c for t, c in m.items()}) for m in members), "custom"
        )
        bracket_coeffs = StructureTable(n).bracket_coeffs

        def widest(closure):
            bits = []

            def bracket(u, g):
                bits.append(max(abs(v).bit_length() for v in u.values()))
                return bracket_coeffs(u, g)

            closure(seed_rows(gens), bracket, SparseEchelon())
            return max(bits)

        assert widest(generator_closure) <= widest(snapshot_closure)

    @pytest.mark.parametrize("label,n,k", PRESETS_TO_12, ids=case_ids(PRESETS_TO_12))
    def test_preset_bracket_count_is_exact(self, label, n, k):
        """The worklist makes dim x rank(seed rows) brackets; lie_closure
        makes the ones expected_brackets counts."""
        gens = preset_generators(label, n, k=k)
        ech, steps = one_stage_closure(gens)
        assert steps == ech.rank * rank_of(seed_rows(gens))
        assert lie_closure(gens).iterations == expected_brackets(gens)

    @settings(max_examples=30, deadline=ENGINE_DEADLINE)
    @given(custom_generator_sets())
    def test_custom_bracket_count_is_exact(self, gens):
        ech, steps = one_stage_closure(gens)
        assert steps == ech.rank * rank_of(seed_rows(gens))
        assert lie_closure(gens).iterations == expected_brackets(gens)

    @pytest.mark.parametrize("label,n,k", WORD_PRESETS, ids=case_ids(WORD_PRESETS))
    def test_word_bracket_count_is_exact(self, label, n, k):
        seeds = [densify(g) for g in preset_generators(label, n, k=k).members]
        run = dense_closure(seeds)
        assert run.iterations == run.dim * rank_of(integer_row(s.coeffs) for s in seeds)


GK_TO_12 = [("Gk", n, k) for n in range(2, 13) for k in range(2, n + 1)]


@lru_cache(maxsize=None)
def one_stage_rows(label, n, k=None):
    """(pivots, rows) of a preset's one-stage closure."""
    ech, _ = one_stage_closure(preset_generators(label, n, k=k))
    return ech.pivots(), ech.rows()


def echelon(run):
    return run.basis.pivots(), run.basis.rows()


@st.composite
def nested_custom_sets(draw, base=None):
    """(S, S'): S' is S plus 1-2 custom vectors, where S is G2 when base
    is "G2" and otherwise a custom set."""
    if base == "G2":
        n = draw(st.integers(2, 5))
        small = preset_generators("G2", n)
    else:
        small = draw(custom_generator_sets())
        n = small.n
    extra = draw(st.lists(custom_vectors(n), min_size=1, max_size=2))
    return small, GeneratorSet(n, small.members + tuple(extra), "custom")


def no_ledger(gens):
    """A sector ledger that proves nothing, so that lie_closure takes the
    worklist."""
    return SectorLedger(gens.n, (LedgerSector(0, gens.n + 1, False),))


class TestStagedClosure:
    """lie_closure writes the closed form when the sector ledger of the
    members of level <= 2 or of the whole set shows every sector full, and
    runs the one-stage worklist otherwise; verify's walk makes one
    lie_closure per case.  The one-stage worklist of tests/reference.py is
    the oracle, and its extend_closure (insertion into a semi-universal
    closure of some of the members) a second one."""

    @pytest.mark.parametrize("label,n,k", GK_TO_12, ids=case_ids(GK_TO_12))
    def test_gk_matches_one_stage_worklist(self, label, n, k):
        assert echelon(lie_closure(preset_generators(label, n, k=k))) == one_stage_rows(label, n, k)

    def test_verify_walk_derives_the_one_stage_rows(self):
        cases = [(run.n, run.gens.k) for run in verify._closures("Gk", 2, 12)
                 if echelon(run) == one_stage_rows("Gk", run.n, run.gens.k)]
        assert cases == [(n, k) for _, n, k in GK_TO_12]

    def test_every_derived_run_checks_semi_universality(self, monkeypatch):
        """Each run of the walk reads the sector ledger once, that of its
        two-body part {X, Y, ZZ}, which shows every sector full, and makes
        no bracket.  Every Gk at one n has G2's two-body content, so the
        certificate runs once per n and per sector: 7 ledgers, not 28."""
        checked, certified = [], []

        def recording(gens):
            ledger = sector_ledger(gens)
            checked.append((gens.n, gens.members, ledger.full))
            return ledger

        def counting(n, b, others, z_type):
            certified.append((n, b.mu))
            return full_sector(n, b, others, z_type)

        full_sector = schur._sector_full
        monkeypatch.setattr(closure, "sector_ledger", recording)
        monkeypatch.setattr(schur, "_sector_full", counting)
        cases = [(n, k) for n in range(2, 9) for k in range(2, n + 1)]
        walked = [(run.n, run.gens.k, run.iterations) for run in verify._closures("Gk", 2, 8)]
        assert walked == [(n, k, 0) for n, k in cases]
        assert checked == [(n, preset_generators("G2", n).members, True) for n, _ in cases]
        assert schur._ledger.cache_info().misses == 7
        assert certified == [(n, mu) for n in range(2, 9) for mu in range(n // 2, -1, -1)]

    def test_declined_derivations_fall_back(self, monkeypatch):
        """With the ledger declining, every member of each Gk is closed by
        the one-stage worklist: (k + 1) x dim brackets, and no more."""
        monkeypatch.setattr(closure, "sector_ledger", no_ledger)
        for run in verify._closures("Gk", 2, 6):
            n, k = run.n, run.gens.k
            assert echelon(run) == one_stage_rows("Gk", n, k)
            assert run.iterations == (k + 1) * run.dim

    @settings(max_examples=30, deadline=ENGINE_DEADLINE)
    @given(nested_custom_sets("G2"))
    def test_semi_universal_base_extends(self, pair):
        small, big = pair
        want = one_stage_closure(big)[0]
        run = extend_closure(big, lie_closure(small))
        assert run is not None
        assert echelon(run) == (want.pivots(), want.rows())
        assert echelon(lie_closure(big)) == (want.pivots(), want.rows())

    @settings(max_examples=40, deadline=ENGINE_DEADLINE)
    @given(nested_custom_sets())
    def test_custom_base_extends_only_when_semi_universal(self, pair):
        small, big = pair
        base = lie_closure(small)
        want = one_stage_closure(big)[0]
        run = extend_closure(big, base)
        semi = trace_pairing_verdicts(small.n, base.basis).semi_universal
        assert (run is not None) == semi
        if run is not None:
            assert echelon(run) == (want.pivots(), want.rows())
        assert echelon(lie_closure(big)) == (want.pivots(), want.rows())

    def test_declines_a_base_that_is_not_semi_universal(self):
        for n in (2, 3, 4, 5):
            g1p = preset_generators("G1prime", n)
            assert extend_closure(preset_generators("G2", n), lie_closure(g1p)) is None

    def test_declines_a_base_outside_the_set(self):
        g2 = preset_generators("G2", 4)
        run = lie_closure(g2)
        zzz = SymOpVector.unit((0, 0, 3), 4)
        without_zz = GeneratorSet(4, preset_generators("G1prime", 4).members + (zzz,))
        assert extend_closure(without_zz, run) is None
        # gens at n = 5, run at n = 4
        assert extend_closure(preset_generators("Gk", 5, k=3), run) is None
        assert extend_closure(preset_generators("Gk", 4, k=3), run) is not None

    def test_two_body_part_that_is_not_semi_universal_falls_back(self, monkeypatch):
        """{X, Y} closes on su(2), which is not semi-universal, and neither
        ledger is full: lie_closure reads no verdict, and the one-stage
        worklist closes every member with its dim x r brackets alone."""
        read = []

        def recording(n, dim, residuals):
            verdicts = _verdicts(n, dim, residuals)
            read.append((len(residuals), verdicts.semi_universal))
            return verdicts

        monkeypatch.setattr(closure, "_verdicts", recording)
        gens = parse_generator_spec("1,0,0;0,1,0;1,1,1", 4)
        run = lie_closure(gens)
        want, steps = one_stage_closure(gens)
        assert read == []
        assert echelon(run) == (want.pivots(), want.rows())
        assert run.iterations == steps

    def test_set_no_ledger_proves_is_closed_once(self, capsys):
        """Neither ledger proves Z, Y, ZZ and ZZZ at n = 3, though {Z, Y, ZZ}
        closes semi-universally: the one-stage worklist closes every member,
        19 x 4 brackets and no more, and the report lists left_out."""
        spec, n = "0,0,1;0,1,0;0,0,2;0,0,3", 3
        gens = parse_generator_spec(spec, n)
        two_body = GeneratorSet(n, gens.members[:3])
        assert not sector_ledger(two_body).full and not sector_ledger(gens).full
        assert trace_pairing_verdicts(n, one_stage_closure(two_body)[0]).semi_universal
        want, steps = one_stage_closure(gens)
        run = lie_closure(gens)
        assert echelon(run) == (want.pivots(), want.rows())
        assert run.iterations == steps == 19 * 4
        assert main(["close", "--n", str(n), "--gens", spec, "--json", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["dim"], payload["iterations"]) == (19, 76)
        assert "left_out" in payload and "pivots" not in payload

    def test_fraction_members_stage_as_their_integer_multiple(self, monkeypatch):
        """X/2, 3Y/4, 2ZZ/3 + I/5 and 5ZZZ/7 at n = 5, proven by the ledger
        or, with the ledger declining, closed by the one-stage worklist,
        give the rows, verdicts and exempt levels of the same set times 420,
        the lcm of the denominators; the worklist makes 54 x 4 brackets on
        both."""
        n = 5
        members = [{(1, 0, 0): Fraction(1, 2)}, {(0, 1, 0): Fraction(3, 4)},
                   {(0, 0, 2): Fraction(2, 3), (0, 0, 0): Fraction(1, 5)},
                   {(0, 0, 3): Fraction(5, 7)}]

        def closed(scale):
            vectors = tuple(SymOpVector(n, {t: c * scale for t, c in m.items()}) for m in members)
            gens = GeneratorSet(n, vectors, "custom")
            run = lie_closure(gens)
            want = one_stage_closure(gens)[0]
            assert echelon(run) == (want.pivots(), want.rows())
            steps = one_stage_closure(gens)[1]
            return echelon(run), run.iterations, steps, run.verdicts, build_report(run).exempt

        for ledger in (sector_ledger, no_ledger):
            monkeypatch.setattr(closure, "sector_ledger", ledger)
            rational = closed(1)
            assert rational == closed(420)
            (pivots, _), iterations, steps, verdicts, _ = rational
            assert (len(pivots), steps) == (54, 54 * 4)
            assert iterations == (0 if ledger is sector_ledger else steps)
            assert verdicts.semi_universal


# The closures of the kbody_ladder benchmark: Gk:k for 2 <= k <= n <= 8 and
# G2 at n = 16, 20 and 24.
BENCH_LADDER = [("Gk", n, k) for n in range(2, 9) for k in range(2, n + 1)] + [
    ("G2", n, None) for n in (16, 20, 24)]


def closed_form(gens):
    """semi_universal_basis of gens, read off their central residuals."""
    return semi_universal_basis(gens.n, generator_residuals(gens))


def semi_universal_one_stage(gens):
    """The one-stage echelon of gens; the example is skipped unless it is
    semi-universal."""
    ech = one_stage_closure(gens)[0]
    assume(trace_pairing_verdicts(gens.n, ech).semi_universal)
    return ech


class TestClosedForm:
    """semi_universal_basis writes the reduced echelon of a semi-universal
    closure with no bracket; the one-stage worklist is its oracle."""

    @pytest.mark.parametrize("n", range(2, 33))
    def test_g2_rows(self, one_stage, n):
        want = one_stage("G2", n)[0]
        got = closed_form(preset_generators("G2", n))
        assert (got.pivots(), got.rows()) == (want.pivots(), want.rows())

    @pytest.mark.parametrize("label,n,k", GK_TO_12, ids=case_ids(GK_TO_12))
    def test_gk_rows(self, one_stage, label, n, k):
        want = one_stage(label, n, k)[0]
        got = closed_form(preset_generators(label, n, k=k))
        assert (got.pivots(), got.rows()) == (want.pivots(), want.rows())

    @pytest.mark.parametrize("spec, n", [("1,0,0;0,1,0;0,0,2;2,2,0", 8), ("1,0,0;0,1,0;0,0,4", 9)])
    def test_custom_examples(self, spec, n):
        gens = parse_generator_spec(spec, n)
        want = one_stage_closure(gens)[0]
        assert trace_pairing_verdicts(n, want).semi_universal
        got = closed_form(gens)
        assert (got.pivots(), got.rows()) == (want.pivots(), want.rows())

    @settings(max_examples=40, deadline=ENGINE_DEADLINE)
    @given(st.one_of(custom_generator_sets(), g2_plus_custom_sets()))
    def test_semi_universal_custom_sets(self, gens):
        want = semi_universal_one_stage(gens)
        got = closed_form(gens)
        assert (got.pivots(), got.rows()) == (want.pivots(), want.rows())

    def test_rows_grow_like_the_worklist_echelon(self):
        """The closed form's column index lets it take further rows: the C_mu
        inserted into G2's closed form at n = 6 give the whole algebra, as
        they do in the worklist's echelon (centralizer_case does this)."""
        gens = preset_generators("G2", 6)
        got, want = closed_form(gens), one_stage_closure(gens)[0]
        for ech in (got, want):
            ech.extend(by_rank(make_C(mu, 6).coeffs) for mu in range(4))
        assert got.rank == want.rank == comb(9, 3)
        assert got.rows() == want.rows() and got._cols == want._cols

    @pytest.mark.parametrize("label,n,k", BENCH_LADDER, ids=case_ids(BENCH_LADDER))
    def test_benchmark_ladder_runs_no_worklist(self, label, n, k):
        """Route guard: a closure the sector ledger stops proving would fall
        back to the worklist silently, and fail here."""
        assert lie_closure(preset_generators(label, n, k=k)).iterations == 0

    @pytest.mark.parametrize("n", range(2, 17))
    def test_worklist_rows_pass_the_membership_check(self, one_stage, n):
        """On closed-form rows the membership check holds by construction;
        on the worklist's rows it still checks the bracket engine's
        arithmetic, for G2 and every Gk."""
        for label, k in [("G2", None)] + [("Gk", k) for k in range(2, n + 1)]:
            ech = one_stage(label, n, k)[0]
            touched = lie_closure(preset_generators(label, n, k=k)).exempt
            assert list_membership_check(ech.rows(), n, touched) == [], (label, n, k)
            assert ech.rank == predicted_dim(label, n, k), (label, n, k)


def complement(n, pivots):
    """The triples of n that are not among pivots, ascending by rank."""
    held = set(pivots)
    return tuple(r for r in range(comb(n + 3, 3)) if r not in held)


@pytest.fixture
def closed_forms(monkeypatch):
    """The n of every semi_universal_basis call that closure makes."""
    calls = []
    write = closure.semi_universal_basis

    def recording(n, residuals):
        calls.append(n)
        return write(n, residuals)

    monkeypatch.setattr(closure, "semi_universal_basis", recording)
    return calls


class TestNoEchelon:
    """A run that the sector ledger proves semi-universal holds no echelon:
    dim and the report's left_out are read off the generators, and
    ClosureRun.basis writes the closed form on its first read only."""

    def assert_read_off_generators(self, gens):
        run = lie_closure(gens)
        report = build_report(run)
        want = closed_form(gens)
        assert report.verdicts.semi_universal and report.pivots is None
        assert report.left_out == complement(gens.n, want.pivots())
        assert run.dim == report.dim == want.rank == ambient_dims(gens.n).dim_u - len(report.left_out)

    @pytest.mark.parametrize("n", range(2, 33))
    def test_g2_left_out_is_the_closed_form_complement(self, n):
        self.assert_read_off_generators(preset_generators("G2", n))

    @pytest.mark.parametrize("label,n,k", GK_TO_12, ids=case_ids(GK_TO_12))
    def test_gk_left_out_is_the_closed_form_complement(self, label, n, k):
        self.assert_read_off_generators(preset_generators(label, n, k=k))

    @settings(max_examples=60, deadline=ENGINE_DEADLINE)
    @given(st.one_of(custom_generator_sets(), g2_plus_custom_sets()))
    def test_custom_sets_list_left_out_xor_pivots(self, gens):
        """A semi-universal set lists the complement of the closed form's
        pivots; any other lists its worklist echelon's pivots."""
        run = lie_closure(gens)
        report = build_report(run)
        if run.verdicts.semi_universal:
            self.assert_read_off_generators(gens)
        else:
            assert report.left_out is None
            assert report.pivots == tuple(one_stage_closure(gens)[0].pivots())

    def test_rows_read_twice_are_written_once(self, closed_forms):
        """thm4 reads each run's rows twice (_conservation, then contains):
        one closed form per case."""
        cases = verify.run_selector("thm4", 2, 7).cases
        assert all(c.ok for c in cases)
        assert closed_forms == [c.params["n"] for c in cases]
        run = lie_closure(preset_generators("G2", 6))
        assert run.basis is run.basis and closed_forms[-1:] == [6]

    def test_dim_and_verdict_readers_write_no_rows(self, closed_forms):
        for selector in ("thm1", "thm5", "cor1"):
            assert verify.run_selector(selector, 2, 8).ok
        assert closed_forms == []

    def test_close_writes_no_echelon(self, capsys, closed_forms):
        assert main(["close", "--n", "64", "--gens", "G2", "--json", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert closed_forms == []
        assert payload["dim"] == predicted_dim("G2", 64)
        assert payload["left_out"] == ["0,0,0"] + [f"{2 * mu},0,0" for mu in range(2, 33)]
        assert "pivots" not in payload


class TestTracerContract:
    """permbench/tracing.py's end_job reads iterations, dim and
    basis.rows() of every closure run; a proven run writes its rows there,
    and they are the rows of the one-stage worklist."""

    @pytest.mark.parametrize("spec, n", [("G2", 8), ("Gk:5", 7), ("G1prime", 5),
                                         ("1,0,0;0,1,0;1,1,1", 4), ("1,0,0;0,1,0;0,0,2;0,0,3", 5)])
    def test_end_job_reads_every_run(self, spec, n):
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "permbench"))
        try:
            from tracing import Tracer
        finally:
            sys.path.pop(0)
        gens = parse_generator_spec(spec, n)
        want = one_stage_closure(gens)[0]
        run = lie_closure(gens)
        tracer = Tracer()
        tracer._runs.append(run)  # a proven run has written no row yet
        tracer.end_job("{}")
        counts = tracer.job_counts[0]
        assert (counts["closure.dim"], counts["closure.iterations"]) == (want.rank, run.iterations)
        assert counts["linalg.basis_nnz"] == sum(map(len, want.rows()))
        assert run.basis.rows() == want.rows()


class TestOneRowReader:
    """Verdicts and a report's exempt levels are read off the generators'
    central residuals, which lie_closure reads once and the run carries:
    only the conservation check of verify's thm3, thm4 and thm6 passes a
    closure's rows to central_residuals."""

    @pytest.fixture
    def seen(self, monkeypatch):
        """The number of rows of every central_residuals call in closure
        and verify."""
        calls = []

        def recording(rows):
            rows = list(rows)
            calls.append(len(rows))
            return central_residuals(rows)

        monkeypatch.setattr(closure, "central_residuals", recording)
        monkeypatch.setattr(verify, "central_residuals", recording)
        return calls

    @pytest.mark.parametrize("label, n", [("G2", 8), ("G1prime", 5), ("1,0,0;0,1,0;1,1,1", 4)])
    def test_close_report_reads_generators_only(self, seen, label, n):
        """The closure, on the closed form or the worklist, reads its
        generators' residuals once and no closure row; the report reads
        none."""
        gens = parse_generator_spec(label, n)
        run = lie_closure(gens)
        assert seen == [len(gens.members)]
        del seen[:]
        build_report(run).to_jsonable()
        assert seen == []

    def test_threshold_reads_generators_only(self, seen):
        """cor1 reads Gk's k + 1 residuals once per closure: the closed form
        and the verdicts take them from the run."""
        cases = verify.run_selector("cor1", 2, 8).cases
        assert all(c.ok for c in cases)
        assert seen == [c.params["k"] + 1 for c in cases]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_staged_closure_reads_generators_only(self, seen, n):
        for k in range(2, n + 1):
            gens = preset_generators("Gk", n, k=k)
            del seen[:]
            lie_closure(gens)
            assert all(m <= len(gens.members) for m in seen)

    def test_central_projections_read_each_closure_once(self, seen):
        """A Gk set at n has at most n + 1 members, so a call with more rows
        reads a closure's; thm6 makes one such call per case."""
        for n in range(2, 9):
            del seen[:]
            cases = verify.run_selector("thm6", n, n).cases
            closures = [m for m in seen if m > n + 1]
            assert closures == [predicted_dim("Gk", n, c.params["k"]) for c in cases]


class TestComplementIsCentral:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_orthogonal_complement_spanned_by_untouched_centers(self, ctx, k):
        n = 6
        run = ctx.closure("Gk", n, k)
        dims = ambient_dims(n)
        untouched = [0] + list(range(k // 2 + 1, n // 2 + 1))
        assert run.dim + len(untouched) == dims.dim_u
        for mu in untouched:
            cv = make_C(mu, n)
            for row in row_vectors(n, run.basis):
                assert trace_inner(row, cv) == 0


class TestMembershipFunctional:
    def test_zero_vector_all_residuals_zero(self):
        v = SymOpVector.zero(6)
        for mu in range(4):
            assert membership_residual(v, mu) == 0

    def test_center_element_residual_is_positive_sum(self):
        n, mu = 6, 2
        c2 = make_C(mu, n)
        expected = Fraction(0)
        for a in range(mu + 1):
            for b in range(mu - a + 1):
                c = mu - a - b
                num = factorial(2 * a) * factorial(2 * b) * factorial(2 * c)
                den = (factorial(a) * factorial(b) * factorial(c)) ** 2
                expected += Fraction(num, den)
        assert membership_residual(c2, mu) == expected
        assert expected > 0

    def test_closure_rows_satisfy_all_nonexempt_constraints(self, ctx):
        n = 6
        rows = ctx.closure("G2", n).basis.rows()
        for residuals in central_residuals(rows):
            assert all(r == 0 for mu, r in residuals.items() if mu != 1)

    def test_some_row_violates_the_exempt_constraint(self, ctx):
        n = 6
        rows = row_vectors(n, ctx.closure("G2", n).basis)
        assert any(membership_residual(row, 1) != 0 for row in rows)

    def test_center_elements_reachable_inside_closure(self, ctx):
        n = 6
        basis = ctx.closure("G2", n).basis
        assert basis.contains(by_rank(make_C(1, n).coeffs))
        assert not basis.contains(by_rank(make_C(2, n).coeffs))

    def test_mu_out_of_range_rejected(self):
        with pytest.raises(ConstraintError):
            membership_residual(SymOpVector.zero(4), 3)


class TestExemptLevels:
    def test_k_body_families(self, ctx):
        assert ctx.closure("G2", 6).exempt == frozenset({1})
        assert ctx.closure("Gk", 6, 4).exempt == frozenset({1, 2})
        assert ctx.closure("Gk", 8, 7).exempt == frozenset({1, 2, 3})

    def test_custom_sets_use_trace_pattern(self):
        gens = GeneratorSet(4, (make_C(2, 4),), "custom")
        assert lie_closure(gens).exempt == frozenset({2})
        odd = GeneratorSet(4, (SymOpVector.unit((1, 1, 1), 4),), "custom")
        assert lie_closure(odd).exempt == frozenset()


CUSTOM_SPECS = ("1,0,0;1,1,0", "2,0,0;0,1,1;1,0,0")


def identity_closures(ctx, n):
    """Closures of G1, G1prime, G2, every Gk:k and two custom sets at n."""
    runs = [ctx.closure("G1", n), ctx.closure("G1prime", n), ctx.closure("G2", n)]
    runs += [ctx.closure("Gk", n, k) for k in range(2, n + 1)]
    customs = [parse_generator_spec(spec, n) for spec in CUSTOM_SPECS]
    runs += [lie_closure(gens) for gens in customs]
    return runs, customs


def rows_central_rank(rows):
    return central_rank(central_residuals(rows))


class TestResidualTraceIdentity:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_trace_equals_scaled_residual(self, ctx, n):
        runs, _ = identity_closures(ctx, n)
        for run in runs:
            residual_rows = central_residuals(run.basis.rows())
            for row, residuals in zip(row_vectors(n, run.basis), residual_rows):
                for mu in range(n // 2 + 1):
                    residual = membership_residual(row, mu)
                    assert type(residuals.get(mu, 0)) is int
                    assert residuals.get(mu, 0) == factorial(mu) * residual, (n, mu, row.text())
                    scale = 2**n * factorial(n) // factorial(n - 2 * mu)
                    assert trace_inner(row, make_C(mu, n)) == scale * residual, (
                        n, mu, row.text()
                    )

    @pytest.mark.parametrize("n", range(2, 9))
    def test_verdicts_match_trace_pairing_reference(self, ctx, n):
        runs, customs = identity_closures(ctx, n)
        for run in runs:
            assert basis_verdicts(n, run.basis) == trace_pairing_verdicts(n, run.basis)
        for run, gens in zip(runs[-len(customs):], customs):
            touched = {
                mu
                for mu in range(n // 2 + 1)
                if any(trace_inner(g, make_C(mu, n)) for g in gens.members)
            }
            assert run.exempt == touched

    @settings(max_examples=40, deadline=ENGINE_DEADLINE)
    @given(custom_generator_sets())
    def test_verdicts_match_trace_pairing_reference_on_custom_sets(self, gens):
        run = lie_closure(gens)
        assert build_report(run).verdicts == trace_pairing_verdicts(gens.n, run.basis)

    # tr([a, b] C) = tr(a [b, C]) = 0 for central C, so brackets add nothing
    # to the pairing with the center: a closure's central rank is its
    # generators'.
    @pytest.mark.parametrize("label,n,k", PRESETS_TO_12, ids=case_ids(PRESETS_TO_12))
    def test_closure_keeps_generators_central_rank(self, ctx, label, n, k):
        seeds = seed_rows(preset_generators(label, n, k=k))
        rows = ctx.closure(label, n, k).basis.rows()
        assert rows_central_rank(rows) == rows_central_rank(seeds)

    @settings(max_examples=40, deadline=WIDE_DEADLINE)
    @given(custom_generator_sets(max_n=7))
    def test_closure_keeps_custom_generators_central_rank(self, gens):
        rows = lie_closure(gens).basis.rows()
        assert rows_central_rank(rows) == rows_central_rank(seed_rows(gens))


def basis_from(vectors):
    """The echelon spanned by vectors."""
    basis = SparseEchelon()
    basis.extend(integer_row(by_rank(v.coeffs)) for v in vectors)
    return basis


def basis_verdicts(n, basis):
    """The verdicts build_report reads off the span of basis at n, taken as
    a finished closure of its own rows."""
    gens = GeneratorSet(n, tuple(row_vectors(n, basis)), "custom")
    return build_report(ClosureRun(gens, generator_residuals(gens), basis, 0, 0.0)).verdicts


class TestVerdicts:
    def test_two_body_three_qubits_universal(self, ctx):
        v = basis_verdicts(3, ctx.closure("G2", 3).basis)
        assert v == Verdicts(universal=True, semi_universal=True)

    def test_two_body_four_qubits_semi_only(self, ctx):
        v = basis_verdicts(4, ctx.closure("G2", 4).basis)
        assert v == Verdicts(universal=False, semi_universal=True)

    def test_one_body_three_qubits_nothing(self, ctx):
        v = basis_verdicts(3, ctx.closure("G1", 3).basis)
        assert v == Verdicts(universal=False, semi_universal=False)

    def test_full_algebra_via_adjoined_centers(self):
        n = 4
        extra = (make_C(0, n), make_C(2, n))
        gens = GeneratorSet(n, preset_generators("G2", n).members + extra, "custom")
        run = lie_closure(gens)
        assert run.dim == ambient_dims(n).dim_u
        assert build_report(run).verdicts.universal

    def test_traceless_algebra_via_adjoined_center(self):
        n = 4
        gens = GeneratorSet(
            n, preset_generators("G2", n).members + (make_C(2, n),), "custom"
        )
        run = lie_closure(gens)
        assert run.dim == ambient_dims(n).dim_su
        assert build_report(run).verdicts.universal

    def test_traceless_complement_blocks_universality(self):
        # dimension dim_su alone is not enough: the missing direction must be
        # the identity.  Dropping a non-central triple instead fails both.
        n = 4
        vectors = [
            SymOpVector.unit(t, n) for t in all_triples(n) if t != (1, 0, 0)
        ]
        basis = basis_from(vectors)
        v = basis_verdicts(n, basis)
        assert not v.universal and not v.semi_universal
        assert v == trace_pairing_verdicts(n, basis)

    def test_identity_complement_grants_universality(self):
        n = 4
        vectors = [
            SymOpVector.unit(t, n) for t in all_triples(n) if t != (0, 0, 0)
        ]
        basis = basis_from(vectors)
        v = basis_verdicts(n, basis)
        assert v.universal and v.semi_universal
        assert v == trace_pairing_verdicts(n, basis)


class TestReports:
    def test_preset_report_fields(self, ctx):
        run = ctx.closure("G2", 4)
        report = build_report(run)
        assert report.dim == report.predicted == 33
        assert report.matched is True and report.ok
        assert report.exempt == (1,)
        assert report.verdicts.semi_universal and not report.verdicts.universal
        assert report.pivots is None
        assert [rank_triple(r) for r in report.left_out] == [(0, 0, 0), (4, 0, 0)]

    def test_custom_report_has_no_prediction(self):
        gens = GeneratorSet(3, (SymOpVector.unit((1, 0, 0), 3),), "custom")
        run = lie_closure(gens)
        report = build_report(run)
        assert report.predicted is None and report.matched is None
        assert report.ok

    def test_report_json_matches_schema(self, ctx):
        import jsonschema

        run = ctx.closure("Gk", 5, 3)
        payload = build_report(run).to_jsonable()
        payload["command"] = "close"
        schema = json.loads(open(schema_path("closure_report")).read())
        jsonschema.validate(payload, schema)

    def test_reports_deterministic_apart_from_timing(self):
        gens = preset_generators("G2", 3)
        a = build_report(lie_closure(gens)).to_jsonable()
        b = build_report(lie_closure(gens)).to_jsonable()
        a.pop("wall_time")
        b.pop("wall_time")
        assert a == b


def corrupted_echelon(n, seed, count=40):
    """The echelon of count random integer rows at n, whose rows, unlike a
    closure's, have nonzero central residuals at several mu; their pivot
    coefficients are not all 1."""
    rng = random.Random(seed)
    ech = SparseEchelon()
    for _ in range(count):
        ech.insert({rng.randrange(comb(n + 3, 3)): rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(4)})
    return ech


class TestStreamedResidualPass:
    """The streamed pass of schur.central_residuals, which verify's
    conservation check runs over closure rows, against the list-based pass
    of tests/reference.py."""

    @pytest.mark.parametrize("n", [4, 8, 12])
    @pytest.mark.parametrize("seed", range(3))
    def test_residuals_match_the_list_pass(self, n, seed):
        rows = corrupted_echelon(n, seed).rows()
        # (2,0,0) - (0,2,0) cancels at mu = 1, where the list pass keeps a 0.
        rows.append({triple_rank((2, 0, 0)): 1, triple_rank((0, 2, 0)): -1, triple_rank((0, 0, 4)): 5})
        want = [{mu: r for mu, r in enumerate(res) if r} for res in list_central_residuals(rows, n)]
        assert list(central_residuals(rows)) == want
        assert want[-1] == {2: 5}

    # At n = 40 the rows reach level 40, far past the generators' levels,
    # so the streamed pass grows its even-triple table all the way.
    @pytest.mark.parametrize("n", [4, 8, 12, 40])
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("exempt", [None, (), (0, 2)], ids=["family", "none", "0-2"])
    def test_report_matches_the_list_pass(self, n, seed, exempt):
        """thm4's case report on each row of a corrupted echelon, as a
        closure of generators that touch the levels exempt (G2's for None),
        is clean exactly when the list pass finds no residual at another
        level."""
        if exempt is None:
            gens = preset_generators("G2", n)
        else:
            units = [(1, 0, 0)] + [(0, 0, 2 * mu) for mu in exempt]
            gens = GeneratorSet(n, tuple(SymOpVector.unit(t, n) for t in units), "custom")
        residuals = generator_residuals(gens)
        touched = frozenset(mu for res in residuals for mu in res)
        assert touched == frozenset((1,) if exempt is None else exempt)
        rows = corrupted_echelon(n, seed).rows()
        nonzero = list_membership_check(rows, n, touched)
        offenders = {i for i, _ in nonzero}
        for i, row in enumerate(rows):
            one = SparseEchelon()
            one.insert(row)
            _, details = verify._membership(ClosureRun(gens, residuals, one, 0, 0.0))
            assert details["all_zero"] == (i not in offenders), (i, row)
            assert details["residuals_checked"] == n // 2 + 1 - len(touched)
        assert offenders
        if exempt == ():
            assert len({mu for _, mu in nonzero}) > 1

    @pytest.mark.parametrize("n", range(2, 17))
    def test_closed_forms_are_clean(self, n):
        for label, k in [("G2", None)] + [("Gk", k) for k in range(2, n + 1)]:
            run = lie_closure(preset_generators(label, n, k=k))
            assert list_membership_check(run.basis.rows(), n, run.exempt) == [], (label, n, k)

    @settings(max_examples=40, deadline=ENGINE_DEADLINE)
    @given(st.one_of(custom_generator_sets(), g2_plus_custom_sets()))
    def test_no_row_leaves_the_touched_levels(self, gens):
        """The worklist and closed-form routes both conserve every central
        projection the generators leave untouched."""
        run = lie_closure(gens)
        assert list_membership_check(run.basis.rows(), gens.n, run.exempt) == []


class TestLieBasis:
    """A closure's basis is the echelon its worklist grew (ClosureRun.basis)."""

    def test_insert_reports_growth(self):
        gens = preset_generators("G1", 2)
        basis = lie_closure(gens).basis
        x = by_rank(SymOpVector.unit((1, 0, 0), 2).coeffs)
        assert basis.insert({r: 5 * c for r, c in x.items()}) is None
        assert basis.insert(by_rank(SymOpVector.unit((0, 1, 0), 2).coeffs)) is not None
        assert basis.rank == 2

    def test_rows_are_primitive_ints_with_positive_pivot(self, ctx):
        basis = ctx.closure("Gk", 7, 4).basis
        for pivot, row in zip(basis.pivots(), basis.rows()):
            assert pivot == min(row) and row[pivot] > 0
            assert all(type(c) is int for c in row.values())
            assert gcd(*row.values()) == 1
        pivots = [rank_triple(p) for p in basis.pivots()]
        assert pivots == sorted(pivots, key=lambda t: (t.level, t.kx, t.ky, t.kz))

    def test_contains_takes_rational_vectors(self, ctx):
        """Rational vectors enter through integer_row, once."""
        basis = ctx.closure("G1prime", 4).basis

        def row(v):
            return integer_row(by_rank(v.coeffs))

        x = SymOpVector.unit((1, 0, 0), 4)
        assert basis.contains(row(x.scaled(Fraction(2, 3))))
        assert not basis.contains(row(x + SymOpVector(4, {(0, 0, 4): Fraction(1, 2)})))
        assert basis.insert(row(x.scaled(Fraction(-1, 7)))) is None


def test_closure_dimension_random_generator_sanity():
    """A random single generator always closes on a subalgebra, never errors."""
    rng = random.Random(3)
    n = 3
    ts = all_triples(n)
    for _ in range(5):
        v = SymOpVector(n, {t: rng.randint(-3, 3) for t in rng.sample(ts, 3)})
        if v.is_zero:
            continue
        run = lie_closure(GeneratorSet(n, (v,), "custom"))
        assert 1 <= run.dim <= ambient_dims(n).dim_u
