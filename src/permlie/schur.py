"""Exact sector blocks of permutation-equivariant operators.

By Schur-Weyl duality the n-qubit space splits into sectors mu = 0..n//2:
total spin n/2 - mu, multiplicity m = q + 1 with q = n - 2*mu, repeated d
times.  An equivariant operator acts on every copy of sector mu as one
m x m block A_mu.  One copy is spanned by the unnormalized states

    psi_w = (|01> - |10>)^(x)mu (x) D_w,    w = 0..q,

where D_w is the Dicke state (the plain sum of basis states) with w ones on
the last q qubits.  With A = I + xX + yY + zZ = [[1+z, x-u], [x+u, 1-z]]
and u = iy, A (x) A scales the singlet by det A, so

    <psi_w'| A^(x)n |psi_w> = (2 det A)^mu C(q,w)
        sum_j C(w,j) C(q-w,w'-j) a11^j a01^(w-j) a10^(w'-j) a00^(q-w-w'+j).

The x^kx u^ky z^kz coefficient of this integer polynomial is G_mu(t)[w', w],
and the Gram matrix of the psi_w is D^2 = diag(2^mu C(q,w)), so
A_mu(P_t) = i^ky D^-1 G_mu(t) D^-1.  Every block is exact: no float or
complex number is needed.

Closed form.  Expanding (2 det A)^mu = 2^mu sum_i C(mu,i) (-1)^i
(a01 a10)^i (a00 a11)^(mu-i), every term is a01^b a10^a a00^c a11^e with
a = w'+r, b = w+r, e = mu-r, c = q-w-w'+e and r = i-j.  Its x^kx u^ky z^kz
coefficient is K(a,b,ky) K(c,e,kz) when kx+ky = a+b, with the Krawtchouk
numbers K(a,b,k) = [y^k] (1+y)^a (1-y)^b.  So the triple fixes r, and each
entry of G_mu(t) is one product W_mu(w',w,r) K(a,b,ky) K(c,e,kz).

Checks.  sector_check tests every triple's blocks for Hermiticity and two
exact sum rules: the trace, sum_mu d_mu tr A_mu(P_t) = 2^n [t = 0], and the
norm, sum_mu d_mu tr A_mu(P_t)^2 = 2^n orbit_size(t).  Any one wrong table
entry fails one of the three.  certify_subspace_control ranks the blocks of a closure basis
over the rationals: A -> D A D is an invertible real-linear map that sends
I to D^2, so the span of the D A_mu(row) D joined with D^2 has dimension one
more than the span of the traceless parts of the A_mu(row).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from typing import NamedTuple

from .closure import LieBasis
from .linalg import SparseEchelon, rank_of
from .symops import (
    ConstraintError,
    PauliTriple,
    VerificationError,
    all_triples,
    check_qubits,
    orbit_size,
)

SECTOR_CAP = 30

Block = dict[int, int]  # entry w' * (q + 1) + w -> nonzero integer

# The records below are NamedTuples, not frozen dataclasses: every verb
# imports this module, and a NamedTuple class is several times cheaper to
# create.


class IsotypicBlock(NamedTuple):
    """One total-spin sector: multiplicity m acted on, d identical copies."""

    mu: int
    d: int
    m: int


def isotypic_table(n: int) -> tuple[IsotypicBlock, ...]:
    """Sector list for n qubits, with the two exact dimension sum rules."""
    if n < 1:
        raise ConstraintError("qubit count must be positive")
    blocks = []
    for mu in range(n // 2 + 1):
        d = comb(n, mu) - (comb(n, mu - 1) if mu else 0)
        m = n - 2 * mu + 1
        blocks.append(IsotypicBlock(mu, d, m))
    if sum(b.d * b.m for b in blocks) != 2**n:
        raise VerificationError("sector dimensions fail to tile the Hilbert space")
    if sum(b.m * b.m for b in blocks) != comb(n + 3, 3):
        raise VerificationError("sector multiplicities fail the equivariant count")
    return tuple(blocks)


def _krawtchouk(a: int, b: int) -> list[tuple[int, int]]:
    """Nonzero (k, [y^k] (1+y)^a (1-y)^b)."""
    out = []
    for k in range(a + b + 1):
        v = sum(comb(a, i) * comb(b, k - i) * (-1) ** (k - i)
                for i in range(max(0, k - b), min(a, k) + 1))
        if v:
            out.append((k, v))
    return out


def sector_blocks(n: int) -> tuple[dict[PauliTriple, Block], ...]:
    """G_mu(t) for every sector mu (the tuple index) and every triple t.

    Block mu of P_t is i**ky * D^-1 G D^-1, with G read off the dict as
    G[w', w] = blocks[mu][t].get(w' * (q + 1) + w, 0); see the module
    docstring for the closed form.
    """
    check_qubits(n, SECTOR_CAP, "sector analysis")
    memo: dict[tuple[int, int], list[tuple[int, int]]] = {}

    def kraw(a: int, b: int) -> list[tuple[int, int]]:
        if (a, b) not in memo:
            memo[a, b] = _krawtchouk(a, b)
        return memo[a, b]

    out = []
    for b in isotypic_table(n):
        mu, q = b.mu, b.m - 1
        table: dict[PauliTriple, Block] = {t: {} for t in all_triples(n)}
        for wp in range(b.m):
            for w in range(b.m):
                # W(r) = 2^mu C(q,w) sum_{i-j=r} C(mu,i) (-1)^i C(w,j) C(q-w,w'-j)
                weight: dict[int, int] = {}
                for j in range(min(w, wp) + 1):
                    cj = comb(w, j) * comb(q - w, wp - j) * comb(q, w) << mu
                    for i in range(mu + 1):
                        weight[i - j] = weight.get(i - j, 0) + (-1) ** i * comb(mu, i) * cj
                key = wp * b.m + w
                for r, c in weight.items():
                    a, bb, e = wp + r, w + r, mu - r
                    f = q - w - wp + e
                    if not c or min(a, bb, e, f) < 0:
                        continue
                    zs = kraw(f, e)
                    for ky, vy in kraw(a, bb):
                        cy = c * vy
                        kx = a + bb - ky
                        for kz, vz in zs:
                            table[kx, ky, kz][key] = cy * vz
        out.append(table)
    return tuple(out)


def _scales(b: IsotypicBlock) -> tuple[int, list[int]]:
    """(L, [L / C(q,w)]) with L the lcm of the C(q,w): integer D^-2 up to 2^mu L."""
    binoms = [comb(b.m - 1, w) for w in range(b.m)]
    big = lcm(*binoms)
    return big, [big // c for c in binoms]


def block_violation(n: int, blocks: tuple[dict[PauliTriple, Block], ...]) -> str | None:
    """First triple whose blocks are not Hermitian or break a sum rule, as a
    message, or None.

    Over the full space, tr P_t = 2^n [t = 0] and tr P_t^2 = 2^n orbit_size(t),
    and the trace of an operator is sum_mu d_mu tr A_mu.  With
    A_mu = i^ky D^-1 G D^-1, A_mu is Hermitian when G[w, w'] = (-1)^ky G[w', w];
    then tr A_mu = i^ky tr(D^-2 G) and tr A_mu^2 = sum G[w', w]^2 / (D^2[w'] D^2[w]).
    Any one wrong entry fails one of the three.
    """
    sectors = isotypic_table(n)
    # per sector: L, then for each entry k = (w', w) its transpose and L^2 D^-2[w'] D^-2[w]
    layout = []
    for b in sectors:
        big, inv = _scales(b)
        pairs = [divmod(k, b.m) for k in range(b.m * b.m)]
        layout.append((big, inv, [w * b.m + wp for wp, w in pairs],
                       [inv[wp] * inv[w] for wp, w in pairs]))
    for t in all_triples(n):
        sign = (-1) ** t.ky
        tr1 = tr2 = Fraction(0)
        for b, (big, inv, transpose, weight), table in zip(sectors, layout, blocks):
            g = table[t]
            if any(g.get(transpose[k]) != sign * v for k, v in g.items()):
                return f"block of P_({t.text()}) in sector mu={b.mu} is not Hermitian"
            s1 = sum(g.get(w * (b.m + 1), 0) * inv[w] for w in range(b.m))
            s2 = sum(v * v * weight[k] for k, v in g.items())
            tr1 += Fraction(b.d * s1, big << b.mu)
            tr2 += Fraction(b.d * s2, big * big << 2 * b.mu)
        want1 = 2**n if t.level == 0 else 0
        if tr1 != want1:
            return f"trace sum rule fails at P_({t.text()}): {tr1} != {want1}"
        want2 = 2**n * orbit_size(t, n)
        if tr2 != want2:
            return f"norm sum rule fails at P_({t.text()}): {tr2} != {want2}"
    return None


class SectorSpan(NamedTuple):
    mu: int
    m: int
    span_dim: int
    su_dim: int

    @property
    def spans_su(self) -> bool:
        return self.span_dim == self.su_dim


class SubspaceControlReport(NamedTuple):
    """Per-sector image of a closure basis under the block projection."""

    n: int
    closure_dim: int
    sectors: tuple[SectorSpan, ...]
    trace_rank: int

    @property
    def controllable(self) -> bool:
        return all(s.spans_su for s in self.sectors)

    @property
    def consistent(self) -> bool:
        """Exact bookkeeping: block images must account for every dimension."""
        return sum(s.span_dim for s in self.sectors) + self.trace_rank == self.closure_dim

    def to_jsonable(self) -> dict:
        return {
            "n": self.n,
            "closure_dim": self.closure_dim,
            "sectors": [
                {
                    "mu": s.mu,
                    "m": s.m,
                    "span_dim": s.span_dim,
                    "su_dim": s.su_dim,
                    "spans_su": s.spans_su,
                }
                for s in self.sectors
            ],
            "trace_rank": self.trace_rank,
            "controllable": self.controllable,
            "consistent": self.consistent,
        }


def certify_subspace_control(
    basis: LieBasis, blocks: tuple[dict[PauliTriple, Block], ...] | None = None
) -> SubspaceControlReport:
    """Measure how much of each sector's traceless algebra a basis reaches.

    Per sector, the integer blocks G_mu(row) (real and imaginary parts) are
    ranked exactly together with D^2, the image of the identity; the span
    dimension is that rank less one.  The blocks are Hermitian, so the rank
    stops growing at m^2 and later rows are skipped.  The span dimensions
    plus the rank of the per-sector traces must add up to the closure
    dimension.  blocks defaults to sector_blocks(basis.n).
    """
    n = basis.n
    if blocks is None:
        blocks = sector_blocks(n)
    rows = []
    for row in basis.rows():
        scale = lcm(*(c.denominator for _, c in row.items()))
        rows.append([(t, int(c * scale)) for t, c in row.items()])
    traces: list[dict[int, Fraction]] = [{} for _ in rows]
    sectors = []
    for b, table in zip(isotypic_table(n), blocks):
        big, inv = _scales(b)
        # real trace of the orthonormal block, times 2^mu L; zero for odd ky
        tr = {
            t: (-1) ** (t.ky // 2) * sum(g.get(w * (b.m + 1), 0) * inv[w] for w in range(b.m))
            for t, g in table.items()
            if t.ky % 2 == 0
        }
        ech = SparseEchelon()
        ech.insert({2 * w * (b.m + 1): comb(b.m - 1, w) for w in range(b.m)})
        for row, row_tr in zip(rows, traces):
            s = sum(c * tr.get(t, 0) for t, c in row)
            if s:
                row_tr[b.mu] = Fraction(s, big << b.mu)
            if ech.rank == b.m * b.m:
                continue
            acc: dict[int, int] = {}
            for t, c in row:
                part = t.ky & 1  # i^ky: real for even ky, imaginary for odd
                c = -c if t.ky & 2 else c
                for k, v in table[t].items():
                    k = 2 * k + part
                    acc[k] = acc.get(k, 0) + c * v
            ech.insert(acc)  # zero entries are dropped there
        sectors.append(SectorSpan(b.mu, b.m, ech.rank - 1, b.m * b.m - 1))
    return SubspaceControlReport(
        n=n,
        closure_dim=len(rows),
        sectors=tuple(sectors),
        trace_rank=rank_of(traces),
    )


def sector_check(basis: LieBasis) -> tuple[dict, SubspaceControlReport | None]:
    """block_violation and certify_subspace_control as report details:
    (details, report).

    The block table is built once.  A violation is a finding, not an error
    here: details then name the triple under block_pattern and report is
    None.
    """
    blocks = sector_blocks(basis.n)
    bad = block_violation(basis.n, blocks)
    if bad is not None:
        return {"block_pattern": bad}, None
    rep = certify_subspace_control(basis, blocks)
    return {"block_pattern": "clean", "subspace_control": rep.to_jsonable()}, rep
