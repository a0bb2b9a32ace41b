"""Lie closures of equivariant generator sets, with exact dimension proofs.

lie_closure has two routes.  It reads schur.sector_ledger of S0, the
generators of level <= 2, when they are a nonempty proper subset, and
then, unless that ledger is full, of the whole set.  A full ledger shows
that the closure of the set it was read from contains the derived algebra
D = [A, A] of the whole equivariant algebra A; since L(gens) contains
L(S0), which contains D, semi_universal_basis can write the reduced
echelon in closed form, with no bracket.  Every Gk has G2's two-body part
{X, Y, ZZ}, so at one n they all read the one ledger a process proves for
G2.  Otherwise it runs the one worklist, linalg.generator_closure, on every
member, with the seed columns of StructureTable.bracket_coeffs: each newly
independent row is bracketed with the generators only, as the echelon
stores it when the worklist pops it (by then mostly shortened by
back-substitution) unless the row as admitted has fewer coefficient bits.
Results go through a reduced echelon basis until nothing new appears.
There is no other pairing strategy.
Everything is exact: the resulting dimension is a theorem about the
generated algebra, not a numerical estimate.  The module also carries the
closed-form dimension predictions for the preset generator families and
the universality verdicts read off the generators' central residuals
(schur.central_residuals).

A proven closure holds no echelon.  The run holds its generators and
their central residuals, and a semi-universal closure's dimension,
verdicts, exempt levels and the triples its echelon leaves out are read
off them (_left_out); its rows are written only when a reader asks for
them (ClosureRun.basis).  A worklist run holds the SparseEchelon it grew.  Every
reader of rows takes them as they are stored, keyed by triple_rank (whose
int order is the canonical triple order) and primitive over the integers.
PauliTriple and Fraction appear only at the boundary: generators enter
through integer_row once, their residuals are read once, and to_jsonable
turns ranks into text.  build_report reads no row: a closure pairs with the
center as its generators do (see _verdicts), so the levels they touch, its
exempt levels, are the only central projections it can move.  verify's
thm3, thm4 and thm6 suites check that on the rows.
"""

from __future__ import annotations

import time
from math import comb, gcd, lcm
from typing import Mapping, NamedTuple, Sequence

from .linalg import SparseEchelon, generator_closure, integer_row
from .schur import central_rank, central_residuals, sector_ledger
from .structure import StructureTable
from .symops import (
    AmbientDims,
    ConstraintError,
    GeneratorSet,
    ambient_dims,
    by_rank,
    rank_texts,
    triple_rank,
)


class ClosureRun:
    """A finished closure of gens.  residuals are the generators' central
    residuals (schur.central_residuals), one dict per member, read once by
    lie_closure (generator_residuals); every reader of the central pairing
    takes them from here.  basis is its reduced echelon: its rows are the
    closure's primitive integer rows, keyed by triple_rank.  A worklist run
    is given the echelon it grew and its bracket count as iterations.  A
    run the sector ledger proved is given None and iterations 0, and basis
    writes semi_universal_basis on its first read, once; dim, verdicts,
    exempt and build_report never read it.  The run is immutable apart from
    that one write."""

    __slots__ = ("gens", "residuals", "_basis", "iterations", "wall_time", "dim")

    def __init__(self, gens: GeneratorSet, residuals: tuple[dict[int, int], ...],
                 basis: SparseEchelon | None, iterations: int, wall_time: float) -> None:
        if basis is None:  # the pairing complement of Z0 (see semi_universal_basis)
            dims = ambient_dims(gens.n)
            dim = dims.dim_u - dims.dim_center + central_rank(residuals)
        else:
            dim = basis.rank
        for name, value in zip(self.__slots__, (gens, residuals, basis, iterations, wall_time, dim)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign {name!r}: ClosureRun is immutable")

    @property
    def basis(self) -> SparseEchelon:
        if self._basis is None:
            object.__setattr__(self, "_basis", semi_universal_basis(self.n, self.residuals))
        return self._basis

    @property
    def n(self) -> int:
        return self.gens.n

    @property
    def verdicts(self) -> Verdicts:
        """Universality flags, read off the generators' central residuals
        (see _verdicts); no closure row is read."""
        return _verdicts(self.n, self.dim, self.residuals)

    @property
    def exempt(self) -> frozenset[int]:
        """Central levels the generators touch: the mu at which some
        generator has a nonzero central residual, that is, a nonzero trace
        pairing with C_mu.  The closure pairs with the center as they do,
        so every other central projection is conserved.  For the k-body
        ladder these are mu = 1..floor(k/2)."""
        return frozenset(mu for res in self.residuals for mu in res)


def generator_residuals(gens: GeneratorSet) -> tuple[dict[int, int], ...]:
    """The central residuals of gens' members as integer rows, in order."""
    return tuple(central_residuals(integer_row(by_rank(g.coeffs)) for g in gens.members))


def _worklist(gens: GeneratorSet) -> tuple[SparseEchelon, int]:
    """The one-stage closure of gens: linalg.generator_closure with the seed
    columns of StructureTable.bracket_coeffs, which store nothing, on
    rank-keyed rows.  Returns the echelon and the bracket count."""
    ech = SparseEchelon()
    steps = generator_closure(
        (integer_row(by_rank(g.coeffs)) for g in gens.members),
        StructureTable(gens.n).bracket_coeffs,
        ech,
    )
    return ech, steps


def lie_closure(gens: GeneratorSet) -> ClosureRun:
    """Smallest Lie algebra containing the generators, as an exact basis.

    Two routes.  The closure is proven when schur.sector_ledger shows every
    sector full, first for S0, the members of level <= 2, when they are a
    nonempty proper subset, then for the whole set: it is semi-universal,
    since L(gens) contains L(S0), which contains D = [A, A].  The run then
    holds no echelon, its rows are the closed form (semi_universal_basis)
    written when first read, and iterations is 0.  A Gk reads the ledger
    of {X, Y, ZZ}, G2's, which sector_ledger proves once per n.  Otherwise
    the one-stage worklist closes every member, and the run holds its
    echelon and its dim x rank(seed rows) brackets.  Both routes end on the
    same reduced echelon, the one its span determines; FIFO order and the
    canonical triple order make each run deterministic.  The generators'
    central residuals are read once, first, and the run carries them.
    """
    t0 = time.perf_counter()
    residuals = generator_residuals(gens)
    two_body = [g for g in gens.members if max(t.level for t in g.coeffs) <= 2]
    s0 = GeneratorSet(gens.n, two_body) if 0 < len(two_body) < len(gens.members) else None
    if (s0 is not None and sector_ledger(s0).full) or sector_ledger(gens).full:
        return ClosureRun(gens, residuals, None, 0, time.perf_counter() - t0)
    ech, steps = _worklist(gens)
    return ClosureRun(gens, residuals, ech, steps, time.perf_counter() - t0)


def semi_universal_basis(n: int, residuals: Sequence[Mapping[int, int]]) -> SparseEchelon:
    """The reduced echelon of L(gens) at n when L(gens) is semi-universal,
    with no bracket, from the central residuals of gens' members.

    Let A be the whole equivariant algebra, the direct sum of the gl(m_mu),
    Z its center and D = [A, A] its derived algebra, the sum of the
    sl(m_mu).  The trace pairing is definite on A and D is the pairing
    complement of Z.  A semi-universal L contains D, so its pairing
    complement is central: it is Z0, the central elements trace-orthogonal
    to every generator (for central C, tr([a, b] C) = 0, so a central
    element orthogonal to the generators is orthogonal to L).  So L is the
    pairing complement of Z0: the rows whose central residuals lie in the
    span of the generators'.

    Each y in the null space of the generators' residual matrix gives one
    constraint sum_mu y_mu res_mu(row) = 0, on the even triples of the
    levels 2 mu where y_mu != 0 (_free_row gives one y per free mu).  The
    constraints are reduced with their largest triple as pivot (keys
    -rank), which puts them in the form x_j = -sum_f c_jf x_f over their
    non-pivot triples f.  So the echelon of L holds {t: 1} for every
    triple no constraint touches, and for each other triple f but the
    constraints' pivots j the row e_f - sum_j c_jf e_j (_free_row again),
    whose smallest triple is f and which no other row shares: the reduced
    rows, made primitive, are the ones the worklist stores.
    """
    pairing = SparseEchelon()
    pairing.extend(residuals)
    held = dict(zip(pairing.pivots(), pairing.rows()))
    constraints = SparseEchelon()  # keyed by -rank: a row's pivot is its largest triple
    for f in range(n // 2 + 1):
        if f in held:
            continue
        phi = {}
        for mu, ym in _free_row(f, [(p, row) for p, row in held.items() if f in row]).items():
            for a in range(mu + 1):
                for b in range(mu - a + 1):
                    w = comb(mu, a) * comb(mu - a, b)  # mu!/(a!b!c!)
                    phi[-triple_rank((2 * a, 2 * b, 2 * (mu - a - b)))] = ym * w
        constraints.insert(phi)
    touched: dict[int, list[tuple[int, dict]]] = {}  # triple -> (pivot, row) that hold it
    for p, row in zip(constraints.pivots(), constraints.rows()):
        row = {-k: v for k, v in row.items()}
        for r in row:
            if r != -p:
                touched.setdefault(r, []).append((-p, row))
    rows = {r: {r: 1} for r in range(comb(n + 3, 3))}
    for p in constraints.pivots():
        del rows[-p]
    for r, hits in touched.items():
        rows[r] = _free_row(r, hits)
    return SparseEchelon.from_reduced(rows)


def _left_out(n: int, residuals: Sequence[Mapping[int, int]]) -> tuple[int, ...]:
    """The ranks of the triples that are not pivots of a semi-universal
    closure's reduced echelon, ascending: the pivots of the constraints of
    semi_universal_basis, read off the generators' residual columns with no
    constraint row.

    A constraint, y in the null space of the residual matrix, weighs every
    even triple of each level 2 mu with y_mu != 0 by y_mu times a nonzero
    weight, so its largest triple is (2 mu, 0, 0) for the largest such mu.
    So the pivots are (2 mu, 0, 0) for the mu at which some null vector
    ends: the mu whose residual column lies in the span of the columns
    below it, dim_center - central_rank of them.
    """
    cols = SparseEchelon()  # residual columns, keyed by generator
    return tuple(triple_rank((2 * mu, 0, 0)) for mu in range(n // 2 + 1)
                 if cols.insert({i: res[mu] for i, res in enumerate(residuals) if mu in res}) is None)


def _free_row(f: int, hits: Sequence[tuple[int, dict]]) -> dict:
    """The null vector of a reduced echelon at its free column f: the
    primitive integer multiple of e_f - sum_p (row[f] / row[p]) e_p over the
    rows (p, row) that hold f, positive at f."""
    scale = lcm(*[row[p] for p, row in hits])
    vec = {p: -row[f] * (scale // row[p]) for p, row in hits}
    vec[f] = scale
    g = gcd(*vec.values())
    return vec if g == 1 else {k: v // g for k, v in vec.items()}


def predicted_dim(label: str, n: int, k: int | None = None) -> int:
    """Closed-form closure dimension for the k-body ladder families.

    G2 and Gk:<k> reach the full dimension count minus the untouched central
    directions; G1 and G1prime close on the global spin components.
    """
    if label == "G1":
        return 1
    if label == "G1prime":
        return 3
    if label == "G2":
        k = 2
    elif label.startswith("Gk"):
        if k is None:
            raise ConstraintError("k-body prediction needs k")
    else:
        raise ConstraintError(f"no dimension prediction for {label!r}")
    if not 2 <= k <= n:
        raise ConstraintError(f"prediction needs 2 <= k <= n, got k={k}, n={n}")
    return comb(n + 3, 3) - (n // 2 + 1) + k // 2


def is_universal_pair(n: int, k: int) -> bool:
    """Whether the k-body family exhausts the traceless equivariant algebra."""
    if not 2 <= k <= n:
        raise ConstraintError(f"universality threshold needs 2 <= k <= n, got k={k}, n={n}")
    if n % 2 == 0:
        return k == n
    return k >= n - 1


class Verdicts(NamedTuple):
    universal: bool
    semi_universal: bool


def _verdicts(n: int, dim: int, residuals: Sequence[Mapping[int, int]]) -> Verdicts:
    """Universality flags of a closure of dimension dim, read off exactly
    from the central residuals of its generators.

    The central elements orthogonal to every row span the trace-pairing
    complement of the algebra.  Semi-universality means that complement is
    entirely central; universality additionally means it is at most the
    identity direction.

    For central C, tr([a, b] C) = tr(a [b, C]) = 0, so a closure, its
    generators' span plus brackets, pairs with the C_mu as its generators
    do.  The central elements trace-orthogonal to it form a space of
    dimension dim_center minus central_rank, and the identity C_0 spans it
    exactly when it is one-dimensional and no generator has a residual at
    mu = 0.
    """
    dims = ambient_dims(n)
    nullity = dims.dim_center - central_rank(residuals)
    semi = nullity == dims.dim_u - dim
    universal = dim == dims.dim_u or (
        dim == dims.dim_su and nullity == 1 and not any(0 in res for res in residuals)
    )
    return Verdicts(universal, semi)


class ClosureReport(NamedTuple):
    """Serializable record of one closure computation."""

    n: int
    label: str
    k: int | None
    generators: tuple[str, ...]
    dim: int
    predicted: int | None
    matched: bool | None
    ambient: AmbientDims
    verdicts: Verdicts
    exempt: tuple[int, ...]
    pivots: tuple[int, ...] | None
    left_out: tuple[int, ...] | None
    iterations: int
    wall_time: float

    @property
    def ok(self) -> bool:
        """No prediction mismatch."""
        return self.matched is not False

    def to_jsonable(self) -> dict:
        """The payload; it lists pivots, or, for a semi-universal closure,
        the left_out triples instead."""
        key, ranks = ("pivots", self.pivots) if self.left_out is None else ("left_out", self.left_out)
        return {
            "n": self.n,
            "label": self.label,
            "k": self.k,
            "generators": list(self.generators),
            "dim": self.dim,
            "predicted": self.predicted,
            "matched": self.matched,
            "ambient": {
                "dim_u": self.ambient.dim_u,
                "dim_su": self.ambient.dim_su,
                "dim_center": self.ambient.dim_center,
                "dim_su_cless": self.ambient.dim_su_cless,
            },
            "verdicts": {
                "universal": self.verdicts.universal,
                "semi_universal": self.verdicts.semi_universal,
            },
            "exempt": list(self.exempt),
            key: list(rank_texts(ranks)),
            "iterations": self.iterations,
            "wall_time": self.wall_time,
        }


def build_report(run: ClosureRun) -> ClosureReport:
    """Report of a closure run, read off its generators: exempt is the
    levels they touch (ClosureRun.exempt), and every other central
    projection is conserved by the closure.  A semi-universal closure lists
    left_out, the triples that are not pivots of its echelon (_left_out),
    and reads no row; any other lists its echelon's pivots."""
    gens = run.gens
    n = gens.n
    label = gens.label
    verdicts = run.verdicts
    if verdicts.semi_universal:
        pivots, left_out = None, _left_out(n, run.residuals)
    else:
        pivots, left_out = tuple(run.basis.pivots()), None
    try:
        predicted = predicted_dim(label, n, gens.k)
    except ConstraintError:
        predicted = None
    return ClosureReport(
        n=n,
        label=label,
        k=gens.k,
        generators=tuple(g.text() for g in gens.members),
        dim=run.dim,
        predicted=predicted,
        matched=None if predicted is None else run.dim == predicted,
        ambient=ambient_dims(n),
        verdicts=verdicts,
        exempt=tuple(sorted(run.exempt)),
        pivots=pivots,
        left_out=left_out,
        iterations=run.iterations,
        wall_time=run.wall_time,
    )
