"""Lie closures of equivariant generator sets, with exact dimension proofs.

lie_closure runs the one worklist, linalg.generator_closure, with the seed
columns of StructureTable.bracket_coeffs: each newly independent row is
bracketed with the generators only, as the echelon stores it when the
worklist pops it (by then mostly shortened by back-substitution) unless the
row as admitted has fewer coefficient bits.  Results go through a reduced
echelon basis until nothing new appears.  There is no other pairing
strategy.  When the generators of level <= 2 are a nonempty proper subset,
lie_closure closes them first, and extend_closure inserts the rest with no
further bracket once it has checked that their closure is semi-universal:
such a closure contains the derived algebra D = [A, A] of the whole
equivariant algebra A, and every subspace that contains D is a Lie algebra.
Everything is exact: the resulting dimension is a theorem about the
generated algebra, not a numerical estimate.  The module also carries the
closed-form dimension predictions for the preset generator families, the
central residuals, and the universality verdicts read off the generators'.

A closure is its echelon: the run holds its generators and the
SparseEchelon the worklist grew, and every reader takes its rows as they
are stored, keyed by triple_rank (whose int order is the canonical triple
order) and primitive over the integers.  PauliTriple and Fraction appear
only at the boundary: generators enter through integer_row once,
build_report divides a residual by its row's pivot coefficient only for
the offenders it prints, and to_jsonable turns pivot ranks into text.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import comb, factorial
from typing import Iterable, Mapping, NamedTuple, Sequence

from .linalg import SparseEchelon, generator_closure, integer_row, rank_of
from .structure import StructureTable
from .symops import (
    AmbientDims,
    ConstraintError,
    GeneratorSet,
    ambient_dims,
    by_rank,
    frac_text,
    rank_triple,
)

# Nonzero membership residuals a closure report lists by value.
MAX_OFFENDERS = 8


class ClosureRun(NamedTuple):
    """A finished closure of gens.  basis is the reduced echelon the
    worklist grew: its rows are the closure's primitive integer rows, keyed
    by triple_rank."""

    gens: GeneratorSet
    basis: SparseEchelon
    iterations: int
    wall_time: float

    @property
    def n(self) -> int:
        return self.gens.n

    @property
    def dim(self) -> int:
        return self.basis.rank

    @property
    def verdicts(self) -> Verdicts:
        """Universality flags, read off the generators' central residuals
        (see _verdicts); no closure row is read."""
        seeds = (integer_row(by_rank(g.coeffs)) for g in self.gens.members)
        return _verdicts(self.n, self.dim, central_residuals(seeds, self.n))


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

    When the members of level <= 2 are a nonempty proper subset S0, S0 is
    closed first and extend_closure inserts the rest; iterations counts the
    brackets of S0's closure.  If extend_closure declines (S0's closure is
    not semi-universal), the one-stage worklist closes every member and
    iterations adds its brackets.  Any other set goes straight to the
    one-stage worklist.  Either path ends on the same reduced echelon, the
    one its span determines; FIFO order and the canonical triple order make
    each run deterministic.
    """
    t0 = time.perf_counter()
    two_body = [g for g in gens.members if max(t.level for t in g.coeffs) <= 2]
    steps = 0
    if 0 < len(two_body) < len(gens.members):
        base = GeneratorSet(gens.n, two_body)
        ech, steps = _worklist(base)
        run = extend_closure(gens, ClosureRun(base, ech, steps, 0.0))
        if run is not None:
            return run._replace(wall_time=time.perf_counter() - t0)
    ech, more = _worklist(gens)
    return ClosureRun(gens, ech, steps + more, time.perf_counter() - t0)


def extend_closure(gens: GeneratorSet, run: ClosureRun) -> ClosureRun | None:
    """Closure of gens from run, the closure of some of them, with no bracket;
    None unless run's generators are among gens' and run is semi-universal.

    Let A be the whole equivariant algebra, the direct sum of the gl(m_mu),
    Z its center and D = [A, A] its derived algebra, the sum of the
    sl(m_mu).  The trace pairing is definite on A and D is the pairing
    complement of Z.  A semi-universal V = L(run.gens) has an entirely
    central pairing complement, so V contains D.  Any subspace W with D in
    W is a Lie algebra, since [W, W] lies in [A, A] = D.  So V + span(gens)
    is a Lie algebra that contains gens and lies in L(gens): it is
    L(gens).  It is reached by inserting the other members into a copy of
    V's echelon, and since a span has one reduced primitive echelon, the
    rows are the ones the one-stage worklist stores.  run is left as it is.
    The result keeps run's iterations and adds this step's time to its
    wall_time.
    """
    t0 = time.perf_counter()
    base = run.gens.members
    if any(g not in gens.members for g in base) or not run.verdicts.semi_universal:
        return None
    ech = run.basis.copy()
    ech.extend(integer_row(by_rank(g.coeffs)) for g in gens.members if g not in base)
    return ClosureRun(gens, ech, run.iterations, run.wall_time + time.perf_counter() - t0)


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


def central_residuals(rows: Iterable[Mapping[int, int]], n: int) -> list[list]:
    """Central residual res[mu] of every rank-keyed row, for 0 <= mu <= n/2.

    A triple (2a, 2b, 2c) with every letter count even adds
    coeff * mu!/(a!b!c!) to res[mu], mu = a+b+c; no other triple adds anything,
    so one pass over each row's support finds them all, and an integer row
    gets integer residuals.  Since C_mu weighs (2a, 2b, 2c) by
    (2a)!(2b)!(2c)!/(a!b!c!) and orbit_size cancels the numerator,
    tr(row C_mu) = 2^n n!/(mu! (n - 2mu)!) * res[mu]: a residual vanishes
    exactly when the row is trace-orthogonal to C_mu.
    """
    out = []
    for row in rows:
        res = [0] * (n // 2 + 1)
        for r, coeff in row.items():
            kx, ky, kz = rank_triple(r)
            if not (kx | ky | kz) & 1:
                a, b, c = kx // 2, ky // 2, kz // 2
                w = factorial(a + b + c) // (factorial(a) * factorial(b) * factorial(c))
                res[a + b + c] += coeff * w
        out.append(res)
    return out


def central_rank(residuals: Iterable[Sequence[int]]) -> int:
    """Rank of the rows' trace pairing with the C_mu, read off their central
    residuals: residual[mu] is tr(row C_mu) times a nonzero factor that
    depends on mu alone, which leaves the rank as it is."""
    return rank_of({mu: r for mu, r in enumerate(res) if r} for res in residuals if any(res))


class Verdicts(NamedTuple):
    universal: bool
    semi_universal: bool


def _verdicts(n: int, dim: int, residuals: Sequence[Sequence[int]]) -> Verdicts:
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
        dim == dims.dim_su and nullity == 1 and not any(res[0] for res in residuals)
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
    residual_mus: tuple[int, ...]
    residuals_nonzero: int
    residual_offenders: tuple[tuple[int, int, Fraction], ...]
    pivots: tuple[int, ...]
    iterations: int
    wall_time: float

    @property
    def ok(self) -> bool:
        """No prediction mismatch and every checked residual is zero."""
        return self.matched is not False and self.residuals_nonzero == 0

    def to_jsonable(self) -> dict:
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
            "residual_mus": list(self.residual_mus),
            "residuals_nonzero": self.residuals_nonzero,
            "residual_offenders": [
                {"row": i, "mu": mu, "value": frac_text(r)}
                for i, mu, r in self.residual_offenders
            ],
            "pivots": [rank_triple(p).text() for p in self.pivots],
            "iterations": self.iterations,
            "wall_time": self.wall_time,
        }


def family_exempt_mus(gens: GeneratorSet) -> frozenset[int]:
    """Central levels a generator set is allowed to touch: the mu at which
    some generator has a nonzero central residual, that is, a nonzero trace
    pairing with C_mu.  For the k-body ladder these are mu = 1..floor(k/2).
    """
    return frozenset(
        mu
        for res in central_residuals((by_rank(g.coeffs) for g in gens.members), gens.n)
        for mu, r in enumerate(res)
        if r
    )


def build_report(run: ClosureRun, *, exempt: Iterable[int] | None = None) -> ClosureReport:
    """Report of a closure run.  Every non-exempt membership residual of
    every basis row is checked; the report keeps how many are nonzero and
    the first MAX_OFFENDERS of those, row-major, each as the residual of its
    row scaled to pivot coefficient 1."""
    gens = run.gens
    n = gens.n
    label = gens.label
    try:
        predicted = predicted_dim(label, n, gens.k)
    except ConstraintError:
        predicted = None
    matched = None if predicted is None else run.dim == predicted
    ex = frozenset(exempt) if exempt is not None else family_exempt_mus(gens)
    rows = run.basis.rows()
    pivots = run.basis.pivots()
    residuals = central_residuals(rows, n)
    mus = tuple(mu for mu in range(n // 2 + 1) if mu not in ex)
    nonzero = [(i, mu) for i, res in enumerate(residuals) for mu in mus if res[mu]]
    offenders = tuple(
        (i, mu, Fraction(residuals[i][mu], factorial(mu) * rows[i][pivots[i]]))
        for i, mu in nonzero[:MAX_OFFENDERS]
    )
    return ClosureReport(
        n=n,
        label=label,
        k=gens.k,
        generators=tuple(g.text() for g in gens.members),
        dim=run.dim,
        predicted=predicted,
        matched=matched,
        ambient=ambient_dims(n),
        verdicts=run.verdicts,
        exempt=tuple(sorted(ex)),
        residual_mus=mus,
        residuals_nonzero=len(nonzero),
        residual_offenders=offenders,
        pivots=tuple(pivots),
        iterations=run.iterations,
        wall_time=run.wall_time,
    )
