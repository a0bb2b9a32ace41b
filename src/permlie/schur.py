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

One triple.  triple_block reads G_mu(t) D^-2 for one triple off the same
closed form, the D-conjugate of its block up to i^ky, whose entries are
the products above divided by 2^mu C(q,w): integers.  kx + ky = a + b
confines it to the band |w' - w| <= kx + ky, so a Z-type triple is
diagonal and costs m entries.

Ledger.  sector_ledger reads the generators' blocks, one triple at a time,
and certifies per sector that their closure L maps onto a Lie algebra that
contains su(m); if every sector is full, L contains [A, A] and its
dimension and echelon follow in closed form (closure.lie_closure).  No
closure row is read, and a process proves each n and generator content
once.

One pass.  certify_subspace_control walks the sectors of a finished
closure once, building, checking and ranking one sector's table
(sector_block) at a time, and takes the rank the blocks leave out from
central_rank.  sector_check turns the result, or the violation, into
report details.  The central residuals and their rank live here, the
pairing of rows with the center that the closure's verdicts, closed form
and exempt levels, the sector pass and verify's conservation check read.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, lcm
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .linalg import SparseEchelon, integer_row, rank_of
from .symops import (
    ConstraintError,
    GeneratorSet,
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


def central_residuals(rows: Iterable[Mapping[int, int]]) -> Iterator[dict[int, int]]:
    """The nonzero central residuals {mu: res[mu]} of each rank-keyed row,
    yielded one row at a time.

    A triple (2a, 2b, 2c) with every letter count even adds
    coeff * mu!/(a!b!c!) to res[mu], mu = a+b+c; no other triple adds anything,
    so one pass over each row's support finds them all, and an integer row
    gets integer residuals.  Since C_mu weighs (2a, 2b, 2c) by
    (2a)!(2b)!(2c)!/(a!b!c!) and orbit_size cancels the numerator,
    tr(row C_mu) = 2^n n!/(mu! (n - 2mu)!) * res[mu]: a residual vanishes
    exactly when the row is trace-orthogonal to C_mu.  The table of the
    even triples' ranks grows level by level to the largest triple seen,
    so its size is set by the rows, not by n.
    """
    even: dict[int, tuple[int, int]] = {}  # rank of (2a, 2b, 2c) -> (mu, mu!/(a!b!c!))
    level, bound = -1, 0  # even holds the even triples of every rank below bound
    for row in rows:
        res: dict[int, int] = {}
        for r, coeff in row.items():
            while r >= bound:
                level, base, bound = level + 1, bound, comb(level + 4, 3)
                mu = level // 2
                for a in range(0 if level & 1 else mu + 1):  # triple_rank of (2a, 2b, 2c)
                    start, wa = base + a * (2 * level + 3 - 2 * a), comb(mu, a)
                    even.update((start + 2 * b, (mu, wa * comb(mu - a, b)))
                                for b in range(mu - a + 1))
            hit = even.get(r)
            if hit:
                res[hit[0]] = res.get(hit[0], 0) + coeff * hit[1]
        if res and not all(res.values()):  # a sum that cancelled
            res = {mu: v for mu, v in res.items() if v}
        yield res


def central_rank(residuals: Iterable[Mapping[int, int]]) -> int:
    """Rank of the rows' trace pairing with the C_mu, read off their central
    residuals: residual[mu] is tr(row C_mu) times a nonzero factor that
    depends on mu alone, which leaves the rank as it is."""
    return rank_of(res for res in residuals if res)


def _kraw(a: int, b: int, k: int) -> int:
    """K(a, b, k) = [y^k] (1+y)^a (1-y)^b."""
    out = 0
    for i in range(max(0, k - b), min(a, k) + 1):
        term = comb(a, i) * comb(b, k - i)
        out += -term if (k - i) & 1 else term
    return out


@cache  # shared by every sector; a, b <= n keeps it small (496 entries at n = 30)
def _krawtchouk(a: int, b: int) -> tuple[tuple[int, int], ...]:
    """Nonzero (k, K(a, b, k))."""
    return tuple((k, v) for k in range(a + b + 1) if (v := _kraw(a, b, k)))


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


def triple_block(n: int, mu: int, t: PauliTriple) -> Block:
    """G_mu(t) D^-2 of one triple: the block of P_t conjugated by D,
    D A_mu(P_t) D^-1, up to the factor i^ky, keyed as sector_block's tables
    are; G_mu(t) is it times D^2[w] = 2^mu C(q,w) on column w.  Each entry
    is one product W_mu(w',w,r) K(a,b,ky) K(c,e,kz) of the module
    docstring divided by 2^mu C(q,w), an integer.  kx + ky = a + b and
    w' - w = a - b confine it to the band |w' - w| <= kx + ky, with
    w' + w + kx + ky even, and fix r = (kx + ky - w - w') / 2, so a Z-type
    triple is diagonal and costs m entries.  In the band a and b are never
    negative; e >= 0 and c >= 0 bound w' from below and from above, so no
    entry is tried and dropped.  K(a, b, 0) = 1 and K(a, b, 1) = a - b, the
    factors of most entries, are taken inline.  No cap applies."""
    q = n - 2 * mu
    m = q + 1
    kx, ky, kz = t
    s = kx + ky
    out: Block = {}
    for w in range(m):
        lo = max(0, w - s, s - w - 2 * mu)  # e = mu - r >= 0
        for wp in range(lo + ((lo + w + s) & 1), min(q, w + s, 2 * (q + mu) - s - w) + 1, 2):
            r = (s - w - wp) // 2
            a, b, e = wp + r, w + r, mu - r
            c = q - w - wp + e
            # W(r) / (2^mu C(q,w)) = sum_j C(mu, r+j) (-1)^(r+j) C(w,j) C(q-w,w'-j)
            weight = 0
            for j in range(max(0, -r), min(w, wp, e) + 1):
                term = comb(mu, r + j) * comb(w, j) * comb(q - w, wp - j)
                weight += -term if (r + j) & 1 else term
            weight *= (1 if not ky else a - b if ky == 1 else _kraw(a, b, ky)) * (
                1 if not kz else c - e if kz == 1 else _kraw(c, e, kz))
            if weight:
                out[wp * m + w] = weight
    return out


def _scales(b: IsotypicBlock) -> tuple[int, list[int]]:
    """(L, [L / C(q,w)]) with L the lcm of the C(q,w): integer D^-2 up to 2^mu L."""
    binoms = [comb(b.m - 1, w) for w in range(b.m)]
    big = lcm(*binoms)
    return big, [big // c for c in binoms]


class LedgerSector(NamedTuple):
    """One sector of a ledger: full when the certificate showed that the
    closure's block algebra contains su(m)."""

    mu: int
    m: int
    full: bool


class SectorLedger(NamedTuple):
    """What the generators' sector blocks prove about their closure L.
    sectors lists the sectors checked, smallest m first, each with whether
    pi_mu(L) contains su(m_mu); the walk stops at the first one the
    certificate leaves open, since then the ledger proves nothing of L."""

    n: int
    sectors: tuple[LedgerSector, ...]

    @property
    def full(self) -> bool:
        """Every sector full: L contains D = [A, A] (see sector_ledger)."""
        return len(self.sectors) == self.n // 2 + 1 and self.sectors[-1].full


def sector_ledger(gens: GeneratorSet) -> SectorLedger:
    """Read off the generators' sector blocks, with no closure, which
    sectors their closure L fills.

    The block map pi_mu of a sector is an associative homomorphism, so
    pi_mu(L) is the Lie algebra the generators' blocks generate.  If every
    pi_mu(L) contains su(m_mu), then L contains D = [A, A], the sum of the
    su(m_mu): [L, L] lies in D and maps onto every su(m_mu), and the m_mu
    are distinct, so the simple factors are pairwise non-isomorphic and a
    subalgebra that maps onto each is all of D (Goursat).  Then L is D plus
    the span of the generators' central parts, of dimension
    sum_mu (m_mu^2 - 1) plus the central_rank of the generators, which is
    the bound that closure._verdicts reads off them.  _sector_full is the
    per-sector certificate; it is a sufficient condition only, so a set
    that is not semi-universal stops at its first open sector, most often
    a small one.

    The ledger is proven once per n and generator content in a process
    (_ledger): the span of the blocks does not depend on the members'
    order, and every Z-type H is tried in turn, so the key is the set of
    the members' integer rows.  Every Gk at one n has the two-body part
    {X, Y, ZZ} of G2, whose ledger closure.lie_closure reads first.
    """
    return _ledger(gens.n, frozenset(tuple(sorted(integer_row(g.coeffs).items()))
                                     for g in gens.members))


@cache  # unbounded, like _krawtchouk: an entry is n//2 + 1 small tuples
def _ledger(n: int, members: frozenset[tuple[tuple[PauliTriple, int], ...]]) -> SectorLedger:
    """sector_ledger of the members, given as sorted (triple, integer)
    items, at n qubits."""
    z_type, others = [], []  # members whose triples are all Z-type, and the rest
    for items in sorted(members):
        row = dict(items)
        (z_type if all(not t.kx and not t.ky for t in row) else others).append(row)
    sectors = []
    for b in reversed(isotypic_table(n)):
        sectors.append(LedgerSector(b.mu, b.m, _sector_full(n, b, others, z_type)))
        if not sectors[-1].full:
            break
    return SectorLedger(n, tuple(sectors))


def _sector_full(n: int, b: IsotypicBlock, others: Sequence[Mapping[PauliTriple, int]],
                 z_type: Sequence[Mapping[PauliTriple, int]]) -> bool:
    """Root-space certificate that the blocks of the members, z_type those
    whose triples are all Z-type and others the rest, generate a Lie
    algebra that contains su(m) in sector b (Altafini, J. Math. Phys. 43,
    2051 (2002); Schirmer, Fu & Solomon, PRA 63, 063410 (2001)).

    Work in the complexification K of the block algebra, conjugated by D:
    a member's block becomes sum_t c_t i^ky G_mu(t) D^-2 (_member_block),
    an integer matrix up to a phase per entry.  Conjugation keeps spans and
    brackets.  A Z-type member is diagonal, H = diag(d); each is tried in
    turn (H = 0 if there is none), since the certificate holds for any H in
    the algebra.  ad_H scales the unit E_w'w by the gap d_w' - d_w, so a
    member X is the sum of its gap components X_g, and
    ad_H^j X = sum_g g^j X_g: by Vandermonde over the distinct gaps each
    X_g lies in K.  A unit in the complex span of one gap's components
    therefore lies in K, and so does its transpose: K is closed under
    X -> -D^2 X^+ D^-2, which sends E_w'w to a multiple of E_ww'.  If those
    units connect all m states, brackets along paths give every E_ij with
    i != j, and [E_ij, E_ji] the diagonal, so K holds sl(m) and the block
    algebra holds su(m).  m = 1 is always full.
    """
    m = b.m
    if m == 1:
        return True
    blocks = [_member_block(n, b.mu, g) for g in others]
    # A diagonal block lies in gap 0, where it can only cancel the diagonal
    # entries of the others: when they have none, a unit in a gap's span
    # lies in the span of theirs alone, and no diagonal block is built but H.
    if any((key >> 1) % (m + 1) == 0 for blk in blocks for key in blk):
        blocks += [_member_block(n, b.mu, g) for g in z_type]
    for h in z_type or [{}]:  # H = 0 when no member is Z-type
        d = _member_block(n, b.mu, h)
        if _units_connect(m, blocks, [d.get(2 * w * (m + 1), 0) for w in range(m)]):
            return True
    return False


def _member_block(n: int, mu: int, g: Mapping[PauliTriple, int]) -> dict[int, int]:
    """sum_t c_t i^ky G_mu(t) D^-2, the block of g in sector mu conjugated
    by D, with the real part at key 2k and the imaginary part at 2k + 1 of
    entry k = w' m + w."""
    blk: dict[int, int] = {}
    for t, c in g.items():
        part = t.ky & 1  # i^ky: real for even ky, imaginary for odd
        c = -c if t.ky & 2 else c
        if len(g) == 1:  # one triple: nothing to add up or cancel
            return {2 * k + part: c * v for k, v in triple_block(n, mu, t).items()}
        for k, v in triple_block(n, mu, t).items():
            key = 2 * k + part
            blk[key] = blk.get(key, 0) + c * v
    return {k: v for k, v in blk.items() if v}


def _units_connect(m: int, blocks: Sequence[Mapping[int, int]], d: Sequence[int]) -> bool:
    """Whether the units that lie in one gap's complex span, gaps taken
    against H = diag(d), connect all m states.  A gap's span is built only
    once one of its units could join two states that are not yet joined."""
    parts: dict[int, list[dict[int, int]]] = {}
    for blk in blocks:
        split: dict[int, dict[int, int]] = {}
        for key, v in blk.items():
            wp, w = divmod(key >> 1, m)
            gap = d[wp] - d[w]
            if gap in split:
                split[gap][key] = v
            else:
                split[gap] = {key: v}
        for gap, comp in split.items():
            parts.setdefault(gap, []).append(comp)
    parent = list(range(m))  # union-find forest of the states
    joined = 1
    for comps in parts.values():
        keys = sorted({key >> 1 for comp in comps for key in comp})
        span = None
        for k in keys:
            x, y = (_root(parent, z) for z in divmod(k, m))
            if x == y:
                continue
            if span is None:
                # A component of one phase is a real vector times it; when
                # all are, a real unit lies in their complex span exactly when
                # it lies in the real span of those vectors.
                real = all(len({key & 1 for key in comp}) == 1 for comp in comps)
                span = SparseEchelon()
                for comp in comps:
                    if real:
                        span.insert({key & ~1: v for key, v in comp.items()})
                    else:
                        span.insert(comp)
                        span.insert({key ^ 1: -v if key & 1 else v for key, v in comp.items()})
                whole = span.rank == (1 if real else 2) * len(keys)  # holds every unit here
            if whole or span.contains({2 * k: 1}):
                parent[x] = y
                joined += 1
                if joined == m:
                    return True
    return False


def _root(parent: list[int], x: int) -> int:
    """The root of x's tree in the union-find forest parent, halving its path."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


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
        trace_rank=central_rank(central_residuals(basis.rows())),
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
