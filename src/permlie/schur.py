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

One pass.  certify_subspace_control walks the sectors once, building,
checking and ranking one sector's table (sector_block) at a time, and
takes the rank the blocks leave out from closure.central_rank.
sector_check turns the result, or the violation, into report details.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, lcm
from typing import NamedTuple

from .closure import central_rank, central_residuals
from .linalg import SparseEchelon
from .symops import (
    ConstraintError,
    PauliTriple,
    VerificationError,
    all_triples,
    check_qubits,
    orbit_size,
)

# The largest n for which `schur --n n --check-blocks --json -` finished as a
# process in under 60 s on each of three runs on a 2-vCPU host (n = 30:
# 29.7-35.1 s, 115 MB peak RSS; n = 31: 41.6-44.6 s, 129 MB; `schur --n 30`
# alone: 0.2 s, 17 MB).  n = 32 took 47-57 s and 145 MB, too close to 60 s
# for a host whose speed drifts; n = 33 took 69 s.  Ranking the closure
# rows' blocks is most of the time, the largest sector's table (mu = 0) most
# of the memory.
SECTOR_CAP = 31

Block = dict[int, int]  # entry w' * (q + 1) + w -> nonzero integer


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


@cache  # shared by every sector; a, b <= n keeps it small (496 entries at n = 30)
def _krawtchouk(a: int, b: int) -> tuple[tuple[int, int], ...]:
    """Nonzero (k, [y^k] (1+y)^a (1-y)^b)."""
    out = []
    for k in range(a + b + 1):
        v = sum(comb(a, i) * comb(b, k - i) * (-1) ** (k - i)
                for i in range(max(0, k - b), min(a, k) + 1))
        if v:
            out.append((k, v))
    return tuple(out)


def sector_block(n: int, mu: int) -> dict[PauliTriple, Block]:
    """G_mu(t) of sector mu for every triple t.

    Block mu of P_t is i**ky * D^-1 G D^-1, with G read off the dict as
    G[w', w] = sector_block(n, mu)[t].get(w' * (q + 1) + w, 0), q = n - 2 mu;
    see the module docstring for the closed form.
    """
    check_qubits(n, SECTOR_CAP, "sector analysis")
    if not 0 <= mu <= n // 2:
        raise ConstraintError(f"sector mu={mu} does not exist at n = {n}")
    q = n - 2 * mu
    m = q + 1
    table: dict[PauliTriple, Block] = {t: {} for t in all_triples(n)}
    for wp in range(m):
        for w in range(m):
            # W(r) = 2^mu C(q,w) sum_{i-j=r} C(mu,i) (-1)^i C(w,j) C(q-w,w'-j)
            weight: dict[int, int] = {}
            for j in range(min(w, wp) + 1):
                cj = comb(w, j) * comb(q - w, wp - j) * comb(q, w) << mu
                for i in range(mu + 1):
                    weight[i - j] = weight.get(i - j, 0) + (-1) ** i * comb(mu, i) * cj
            key = wp * m + w
            for r, c in weight.items():
                a, bb, e = wp + r, w + r, mu - r
                f = q - w - wp + e
                if not c or min(a, bb, e, f) < 0:
                    continue
                zs = _krawtchouk(f, e)
                for ky, vy in _krawtchouk(a, bb):
                    cy = c * vy
                    kx = a + bb - ky
                    for kz, vz in zs:
                        table[kx, ky, kz][key] = cy * vz
    return table


def _scales(b: IsotypicBlock) -> tuple[int, list[int]]:
    """(L, [L / C(q,w)]) with L the lcm of the C(q,w): integer D^-2 up to 2^mu L."""
    binoms = [comb(b.m - 1, w) for w in range(b.m)]
    big = lcm(*binoms)
    return big, [big // c for c in binoms]


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


def certify_subspace_control(n: int, basis: SparseEchelon) -> SubspaceControlReport:
    """Check the exact blocks at n qubits and measure how much of each
    sector's traceless algebra the span of basis, a closure's echelon of
    rank-keyed rows, reaches, one sector at a time.

    Each sector's table is built by sector_block, checked, ranked and
    dropped before the next one is built, so memory holds one sector.

    Check.  Over the full space tr P_t = 2^n [t = 0] and
    tr P_t^2 = 2^n orbit_size(t), and the trace of an operator is
    sum_mu d_mu tr A_mu.  With A_mu = i^ky D^-1 G D^-1, A_mu is Hermitian
    when G[w, w'] = (-1)^ky G[w', w]; then tr A_mu = i^ky tr(D^-2 G) and
    tr A_mu^2 = sum G[w', w]^2 / (D^2[w'] D^2[w]).  Any one wrong entry fails
    one of the three.  The first triple in canonical order that fails raises
    VerificationError, naming Hermiticity (at the lowest mu), then the trace
    rule, then the norm rule.

    Rank.  Per sector, the integer blocks G_mu(row) (real and imaginary
    parts) are ranked exactly together with D^2, the image of the identity.
    A -> D A D is an invertible real-linear map that sends I to D^2, so the
    span of the traceless parts of the A_mu(row) has dimension that rank
    less one.  The blocks are Hermitian, so the rank stops growing at m^2
    and the pass over the rows stops there.

    The span dimensions plus trace_rank, the central_rank of the rows, must
    add up to the closure dimension.  It is the rank of the per-sector
    traces: the projectors Pi_mu and the C_nu are both bases of the center
    (the C_nu are central for every n <= CENTER_CAP, which covers
    SECTOR_CAP), and tr(row Pi_mu) = d_mu tr A_mu(row), so the two pairings
    differ by an invertible matrix and have the same rank.
    """
    triples = all_triples(n)
    rows = [[(triples[r], c) for r, c in row.items()] for row in basis.rows()]
    not_hermitian: dict[PauliTriple, int] = {}  # triple -> lowest failing mu
    tr1 = dict.fromkeys(triples, Fraction(0))  # sum_mu d_mu tr(D^-2 G)
    tr2 = dict.fromkeys(triples, Fraction(0))  # sum_mu d_mu tr A_mu^2
    sectors = []
    for b in isotypic_table(n):
        m = b.m
        big, inv = _scales(b)
        transpose = [k % m * m + k // m for k in range(m * m)]
        weight = [inv[k // m] * inv[k % m] for k in range(m * m)]
        table = sector_block(n, b.mu)
        for t, g in table.items():
            sign = -1 if t.ky & 1 else 1
            if any(g.get(transpose[k]) != sign * v for k, v in g.items()):
                not_hermitian.setdefault(t, b.mu)
            s1 = sum(g.get(w * (m + 1), 0) * inv[w] for w in range(m))
            if s1:
                tr1[t] += Fraction(b.d * s1, big << b.mu)
            tr2[t] += Fraction(b.d * sum(v * v * weight[k] for k, v in g.items()),
                               big * big << 2 * b.mu)
        ech = SparseEchelon()
        ech.insert({2 * w * (m + 1): comb(m - 1, w) for w in range(m)})
        for row in rows:
            if ech.rank == m * m:
                break
            acc: dict[int, int] = {}
            for t, c in row:
                part = t.ky & 1  # i^ky: real for even ky, imaginary for odd
                c = -c if t.ky & 2 else c
                for k, v in table[t].items():
                    k = 2 * k + part
                    acc[k] = acc.get(k, 0) + c * v
            ech.insert(acc)  # zero entries are dropped there
        del table  # only one sector's table may be alive at a time
        sectors.append(SectorSpan(b.mu, m, ech.rank - 1, m * m - 1))
    for t in triples:
        if t in not_hermitian:
            raise VerificationError(
                f"block of P_({t.text()}) in sector mu={not_hermitian[t]} is not Hermitian")
        want1 = 2**n if t.level == 0 else 0
        if tr1[t] != want1:
            raise VerificationError(f"trace sum rule fails at P_({t.text()}): {tr1[t]} != {want1}")
        want2 = 2**n * orbit_size(t, n)
        if tr2[t] != want2:
            raise VerificationError(f"norm sum rule fails at P_({t.text()}): {tr2[t]} != {want2}")
    return SubspaceControlReport(
        n=n,
        closure_dim=basis.rank,
        sectors=tuple(sectors),
        trace_rank=central_rank(central_residuals(basis.rows(), n)),
    )


def sector_check(n: int, basis: SparseEchelon) -> tuple[dict, SubspaceControlReport | None]:
    """certify_subspace_control as report details: (details, report).

    A violation is a finding, not an error here: details then name the
    triple under block_pattern and report is None.
    """
    try:
        rep = certify_subspace_control(n, basis)
    except VerificationError as exc:
        return {"block_pattern": str(exc)}, None
    return {"block_pattern": "clean", "subspace_control": rep.to_jsonable()}, rep
