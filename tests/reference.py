"""Reference helpers the tests check permlie against.

No verb needs any of these, so they live with the tests, as the float
coupled basis of coupled_basis.py does: the Frobenius pairing, the rational
central-membership functional, the bracket of coordinate vectors, the word
text of the dense oracle, the paths of the bundled report schemas, the
universality verdicts read off an explicit nullspace of the trace pairings,
the view of an echelon's rank-keyed rows as SymOpVectors that lets these
triple-keyed oracles check the engine, the one-stage closure that proven
and worklist runs are checked against, that closure joined by the C_mu
(the centralizer's old span certificate), the closure of a superset of a
semi-universal closure's generators by insertion, the closure worklist that brackets
each row as it was admitted, the pair overlap count, a bracket engine of
its own that the seed columns are checked against, and the rank of the
rows' per-sector traces, which trace_rank is checked against, and the
list-based central residual pass that the streamed one is checked against,
with the membership check read off it.
"""

from collections import deque
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from math import comb, factorial

from permlie import StructureTable, ambient_dims, isotypic_table, make_C, sector_block
from permlie.closure import ClosureRun, Verdicts, generator_residuals
from permlie.linalg import SparseEchelon, generator_closure, integer_row, rank_of
from permlie.structure import _orbit_average
from permlie.symops import (
    ConstraintError,
    DimensionMismatch,
    PauliTriple,
    SymOpVector,
    by_rank,
    orbit_size,
    rank_triple,
    triple_rank,
)


def trace_inner(u: SymOpVector, v: SymOpVector):
    """Frobenius pairing tr(U V) of the underlying Hermitian operators.

    Distinct triples are orthogonal and tr(P_t^2) = 2^n * orbit_size(t), so
    the pairing is a weighted dot product of coordinates, exact over the
    rationals.
    """
    if u.n != v.n:
        raise DimensionMismatch(f"qubit counts differ: {u.n} vs {v.n}")
    total = sum(orbit_size(t, u.n) * a * v[t] for t, a in u.items())
    return total * 2**u.n


def membership_residual(v: SymOpVector, mu: int) -> Fraction:
    """Linear functional whose kernel cuts out the mu-th central complement.

    Sums the even-triple coordinates at level 2*mu with inverse factorial
    weights; an operator lies in the centerless part only if this vanishes
    for every mu.  closure.central_residuals gives mu! times it.
    """
    if mu < 0 or 2 * mu > v.n:
        raise ConstraintError(f"need 0 <= mu <= n/2, got mu={mu}, n={v.n}")
    total = Fraction(0)
    for a in range(mu + 1):
        for b in range(mu - a + 1):
            c = mu - a - b
            coeff = v[(2 * a, 2 * b, 2 * c)]
            if coeff:
                total += Fraction(coeff, factorial(a) * factorial(b) * factorial(c))
    return total


def list_central_residuals(rows, n: int) -> list[list]:
    """Central residuals res[mu] of every rank-keyed row, 0 <= mu <= n/2,
    as one list per row with each triple decoded by rank_triple: the pass
    schur.central_residuals streams, and its oracle."""
    out = []
    for row in rows:
        res = [0] * (n // 2 + 1)
        for r, coeff in row.items():
            kx, ky, kz = rank_triple(r)
            if not (kx | ky | kz) & 1:
                a, b, c = kx // 2, ky // 2, kz // 2
                res[a + b + c] += coeff * factorial(a + b + c) // (
                    factorial(a) * factorial(b) * factorial(c))
        out.append(res)
    return out


def list_membership_check(rows, n: int, exempt) -> list[tuple[int, int]]:
    """The (row, mu) of every nonzero central residual of rows at a level
    outside exempt, row-major, read off list_central_residuals: empty
    exactly when the rows conserve every central projection but exempt's,
    which verify's thm3, thm4 and thm6 cases check with the streamed pass."""
    mus = [mu for mu in range(n // 2 + 1) if mu not in exempt]
    residuals = list_central_residuals(rows, n)
    return [(i, mu) for i, res in enumerate(residuals) for mu in mus if res[mu]]


def phase_rank(gens) -> int:
    """Rank of the generators' trace pairing with the C_mu, which is their
    closure's: what a full sector ledger adds to sum_mu (m_mu^2 - 1)."""
    rows = [integer_row(by_rank(g.coeffs)) for g in gens.members]
    return rank_of({mu: r for mu, r in enumerate(res) if r}
                   for res in list_central_residuals(rows, gens.n))


def bracket_vectors(table, u: SymOpVector, v: SymOpVector) -> SymOpVector:
    """Bilinear extension of the table's basis bracket to coordinate vectors."""
    if u.n != table.n or v.n != table.n:
        raise DimensionMismatch("vector qubit count differs from table")
    coeffs = table.bracket_coeffs(by_rank(u.coeffs), by_rank(v.coeffs))
    return SymOpVector.from_ranks(table.n, coeffs)


def word_letters(w: int, n: int) -> tuple[int, ...]:
    """Letter codes (I, X, Y, Z = 0..3) of a base-4 word, qubit 0 first."""
    return tuple((w >> (2 * j)) & 3 for j in range(n))


def word_text(w: int, n: int) -> str:
    return "".join("IXYZ"[letter] for letter in word_letters(w, n))


def schema_path(name: str) -> str:
    """Filesystem path of a bundled report schema (no .schema.json suffix)."""
    return str(resources.files("permlie").joinpath("schemas", f"{name}.schema.json"))


def nullspace(ech: SparseEchelon, unknowns) -> list[dict]:
    """Basis of {x : row . x = 0 for every row of ech}, one solution per
    non-pivot unknown, with that unknown's coordinate set to 1.  The rows are
    fully reduced, so a pivot's coordinate is read off its own row alone."""
    pivots = ech.pivots()
    rows = list(zip(pivots, ech.rows()))
    sols = []
    for f in unknowns:
        if f in pivots:
            continue
        sol = {f: Fraction(1)}
        for p, row in rows:
            c = row.get(f)
            if c:
                sol[p] = Fraction(-c, row[p])
        sols.append(sol)
    return sols


def row_vectors(n: int, ech: SparseEchelon) -> list[SymOpVector]:
    """The rank-keyed rows of ech, in pivot order, as SymOpVectors at n."""
    return [SymOpVector.from_ranks(n, row) for row in ech.rows()]


def trace_pairing_verdicts(n: int, basis: SparseEchelon) -> Verdicts:
    """Reference verdicts of the span of basis at n, read off the trace
    pairings tr(row C_mu) directly: the central elements orthogonal to every
    row are a nullspace."""
    dims = ambient_dims(n)
    cvecs = [make_C(mu, n) for mu in range(dims.dim_center)]
    ech = SparseEchelon()
    for row in row_vectors(n, basis):
        coords = {mu: trace_inner(row, cv) for mu, cv in enumerate(cvecs)}
        coords = {mu: v for mu, v in coords.items() if v}
        if coords:
            ech.insert(coords)
    null = nullspace(ech, range(dims.dim_center))
    semi = len(null) == dims.dim_u - basis.rank
    if basis.rank == dims.dim_u:
        universal = True
    elif basis.rank == dims.dim_su:
        universal = len(null) == 1 and set(null[0]) == {0}
    else:
        universal = False
    return Verdicts(universal, semi)


@lru_cache(maxsize=None)
def _sector_traces(n: int) -> tuple[tuple[int, dict[int, int]], ...]:
    """(mu, {triple rank: tr A_mu(P_t)}) for every sector at n, the nonzero
    traces only: integers."""
    out = []
    for b in isotypic_table(n):
        m = b.m
        tr = {}
        for t, g in sector_block(n, b.mu).items():
            s1 = sum(g.get(w * (m + 1), 0) for w in range(m))
            if s1 and not t.ky & 1:  # tr A_mu = i^ky tr B: zero for odd ky
                tr[triple_rank(t)] = -s1 if t.ky & 2 else s1
        out.append((b.mu, tr))
    return tuple(out)


def sector_trace_rank(n: int, basis: SparseEchelon) -> int:
    """Rank of the rows' per-sector trace vectors (tr A_mu(row))_mu, whose
    entries are integers.  It reaches certify_subspace_control's
    trace_rank, which reads closure.central_rank, through the sector tables."""
    rows = basis.rows()
    traces = [{} for _ in rows]
    for mu, tr in _sector_traces(n):
        for row, row_tr in zip(rows, traces):
            s = sum(c * tr.get(r, 0) for r, c in row.items())
            if s:
                row_tr[mu] = s
    return rank_of(traces)


def one_stage_closure(gens) -> tuple[SparseEchelon, int]:
    """The closure of gens by the one-stage worklist alone: every member is
    a seed from the start, with no ledger and no insertion.  The oracle of
    proven and derived runs.  Returns the echelon and the bracket count."""
    ech = SparseEchelon()
    steps = generator_closure(
        (integer_row(by_rank(g.coeffs)) for g in gens.members),
        StructureTable(gens.n).bracket_coeffs,
        ech,
    )
    return ech, steps


def extend_closure(gens, run):
    """Closure of gens from run, the closure of some of them, by inserting
    the other members into an echelon of run's rows, with no bracket; None
    unless run's generators are among gens' and run is semi-universal.

    A semi-universal V = L(run.gens) contains D = [A, A], and any subspace
    that contains D is a Lie algebra, since [W, W] lies in [A, A] = D.  So
    V + span(gens) is L(gens).  run is left as it is; the result keeps its
    iterations and wall_time."""
    base = run.gens.members
    if any(g not in gens.members for g in base) or not run.verdicts.semi_universal:
        return None
    ech = SparseEchelon()
    ech.extend(run.basis.rows())
    ech.extend(integer_row(by_rank(g.coeffs)) for g in gens.members if g not in base)
    return ClosureRun(gens, generator_residuals(gens), ech, run.iterations, run.wall_time)


def closure_span_rank(gens) -> int:
    """Rank of the one-stage closure of gens joined by every C_mu: the old
    commute certificate of center.verify_center, which needed
    C(n+3,3) to conclude that the C_mu commute with every P_t."""
    ech = one_stage_closure(gens)[0]
    ech.extend(by_rank(make_C(mu, gens.n).coeffs) for mu in range(gens.n // 2 + 1))
    return ech.rank


def snapshot_closure(seeds, bracket, ech: SparseEchelon) -> int:
    """linalg.generator_closure that always brackets each admitted row as
    insert returned it, though back-substitution may since have shortened
    the row stored under its pivot.  Returns the bracket count."""
    gens = [row for row in map(ech.insert, seeds) if row is not None]
    work = deque(gens)
    steps = 0
    while work:
        row = work.popleft()
        for g in gens:
            steps += 1
            new = ech.insert(bracket(row, g))
            if new is not None:
                work.append(new)
    return steps


@lru_cache(maxsize=None)
def _row_options(total: int, caps: tuple[int, int, int, int]):
    """Ways to place `total` identical letters onto four position classes.

    Returns tuples (counts, weight, remaining_caps) where weight counts the
    position choices within each class.
    """
    out = []
    c0m, c1m, c2m, c3m = caps
    for c0 in range(min(total, c0m) + 1):
        w0 = comb(c0m, c0)
        r0 = total - c0
        for c1 in range(min(r0, c1m) + 1):
            w1 = w0 * comb(c1m, c1)
            r1 = r0 - c1
            for c2 in range(min(r1, c2m) + 1):
                c3 = r1 - c2
                if c3 > c3m:
                    continue
                w = w1 * comb(c2m, c2) * comb(c3m, c3)
                out.append(
                    (
                        (c0, c1, c2, c3),
                        w,
                        (c0m - c0, c1m - c1, c2m - c2, c3m - c3),
                    )
                )
    return tuple(out)


def _bracket_overlap(a: PauliTriple, b: PauliTriple, n: int) -> dict[int, int]:
    """Overlap-pattern count of [i P_a, i P_b].

    Fixes the representative word of orbit a (X block, Y block, Z block,
    identities) and classifies each word of orbit b by how many of its X, Y
    and Z letters land on each block.  A pattern contributes only when the
    number d of anticommuting overlaps is odd; its weight is the number of
    words realizing it and its sign tracks the product phase.
    """
    ax, ay, az = a
    bx, by, bz = b
    caps0 = (ax, ay, az, n - ax - ay - az)
    masses: dict[tuple[int, int, int], int] = {}
    for xs, wx, caps1 in _row_options(bx, caps0):
        for ys, wy, caps2 in _row_options(by, caps1):
            wxy = wx * wy
            for zs, wz, caps3 in _row_options(bz, caps2):
                d = xs[1] + xs[2] + ys[0] + ys[2] + zs[0] + zs[1]
                if not d & 1:
                    continue
                # negative single-site products: X.Z, Y.X, Z.Y
                neg = (zs[0] + xs[1] + ys[2] + ((d - 1) >> 1)) & 1
                w = wxy * wz
                contrib = 2 * w if neg else -2 * w
                ux = ax - xs[0] - ys[0] - zs[0] + zs[1] + ys[2] + xs[3]
                uy = ay - xs[1] - ys[1] - zs[1] + zs[0] + xs[2] + ys[3]
                uz = az - xs[2] - ys[2] - zs[2] + ys[0] + xs[1] + zs[3]
                key = (ux, uy, uz)
                masses[key] = masses.get(key, 0) + contrib
    return _orbit_average(a, masses, n)
