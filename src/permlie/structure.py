"""Integer structure constants of the symmetrized-Pauli bracket.

The bracket of two basis elements is computed two ways.

* Columns (StructureTable.bracket_coeffs), the one bracket that permlie
  runs: in closures, the centralizer certificate and its X/Y solve, and
  `table --compare`.  Each seed triple s, the second argument, carries one
  column (_seed_column): its letter-placement patterns, counted once per
  process and for every n.  A structure constant is then counted against the
  representative word of the output triple, with no orbit size, no
  division and nothing stored per pair.
* The orbit expansion (orbit_bracket), the columns' reference: it
  multiplies the representative word of the first orbit by every word of
  the second with the word oracle's bit-mask product, at exponential cost,
  and averages over the output orbit (_orbit_average); compare_tables
  checks every pair of a table against it.  The two share no counting, so
  agreement is a strong check on the combinatorics; the word product
  itself is checked site by site in the oracle's tests, and the tests keep
  a third engine, a per-pair overlap count, as a further reference.

With coordinates standing for i * sum c_t P_t, every structure constant is an
even integer: [i P_a, i P_b] = sum_u g_u (i P_u).  Inside the table a triple
is its triple_rank; PauliTriple appears only at the boundary, in bracket.
bracket_coeffs brackets raw rank-keyed dicts, builds no SymOpVector, and
checks the ranks of both arguments against the C(n+3,3) triples of n.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial, prod
from typing import Mapping

from .oracle import _word_product, letters_to_word, orbit_words, word_triple
from .symops import (
    ConstraintError,
    PauliTriple,
    SymOpVector,
    VerificationError,
    all_triples,
    as_triple,
    check_qubits,
    orbit_size,
    rank_triple,
    triple_rank,
)

# The largest n for which compare_tables, and with it `table --n n
# --compare`, finished as a process in under 60 s on a 2-vCPU host (n = 8:
# 14.1-14.7 s, 31 MB; n = 9 took 74 s).  The orbit expansion of every pair
# is nearly all of it.
ORBIT_CAP = 8


def _orbit_average(a: PauliTriple, masses: Mapping, n: int) -> dict[int, int]:
    """Turn per-representative masses into orbit-sum coefficients, keyed by
    the triple_rank of the output triple u.

    The bracket of full orbit sums assigns each output orbit the mass seen by
    one representative times orbit_size(a)/orbit_size(u).  Each u is
    asserted to lie at level <= n and each division to be exact; orbit_size(u)
    is read off the letter counts, since orbit_size's own check is for input.
    """
    out: dict[int, int] = {}
    oa = orbit_size(a, n)
    for u, m in masses.items():
        if not m:
            continue
        ux, uy, uz = u
        free = n - ux - uy
        if min(ux, uy, uz, free - uz) < 0:
            raise VerificationError(f"orbit averaging of [{a.text()}, {u}] left level <= {n}")
        q, r = divmod(oa * m, comb(n, ux) * comb(n - ux, uy) * comb(free, uz))
        if r:
            raise VerificationError(
                f"orbit averaging of [{a.text()}, {u}] gave a non-integer constant"
            )
        out[triple_rank(u)] = q
    return out


# Site letters X, Y, Z, I as 0..3.  A seed letter L on an output site of
# letter R leaves the letter _REST[L][R] to the other word (their product
# up to phase) and multiplies the phase of (other word) . (seed word) by
# i**_PHASE[L][R]: 0 when they commute, 1 for the cyclic products
# X.Y, Y.Z, Z.X, and 3 for X.Z, Y.X, Z.Y.
_REST = ((3, 2, 1, 0), (2, 3, 0, 1), (1, 0, 3, 2))
_PHASE = ((0, 1, 3, 0), (3, 0, 1, 0), (1, 3, 0, 0))


@lru_cache(maxsize=None)
def _moves(letter: int, count: int, bits: int) -> tuple:
    """Every way to place `count` seed letters `letter` on the four site
    letters, n_R of them on R sites, per parity p of the phase exponent so
    far: (delta, parity after, weight).  delta adds the other word's
    letters dm_A and the n_R to a state of _seed_column; the weight is the
    multinomial count!/prod_R n_R!, negated when the phase passes -1."""
    rest, phase = _REST[letter], _PHASE[letter]
    out: tuple[list, list] = ([], [])
    for n0 in range(count + 1):
        for n1 in range(count - n0 + 1):
            for n2 in range(count - n0 - n1 + 1):
                ns = (n0, n1, n2, count - n0 - n1 - n2)
                dm = [0, 0, 0, 0]
                for r, nr in enumerate(ns):
                    dm[rest[r]] += nr
                delta = 0
                for f in (*dm[:3], *ns[:3]):
                    delta = delta << bits | f
                w = factorial(count) // prod(map(factorial, ns))
                e = sum(p * nr for p, nr in zip(phase, ns))
                for p in (0, 1):
                    out[p].append((delta, (p + e) & 1, -w if (p + e) & 2 else w))
    return out


@lru_cache(maxsize=None)
def _seed_column(s: int) -> tuple:
    """Pattern groups of [i P_t, i P_s] for the seed triple of rank s, for
    every n and every t.

    Fix the representative word of the output triple w and place the
    seed's letters on its sites: n[L][R] of its L letters on R sites, with
    k_R = sum_L n[L][R] sites of letter R covered.  The other word is then
    fixed, and it has m_A letters A on the covered sites.  The pattern
    counts prod_R C(w_R, k_R) * k_R!/prod_L n[L][R]! seed words, and it
    contributes only when an odd number of covered sites anticommute: -2
    per word when (other word) . (seed word) carries the phase i, +2 when
    it carries -i.  The uncovered sites carry the same letters in w and t,
    so w = t - m + k, and the pattern fits t exactly when m <= t letter by
    letter (with the identities t_I = n - level(t) and m_I).

    The states are built one seed letter kind at a time, fewest first,
    merged after each, one dict per parity of the phase exponent; the last
    kind adds to odd parity only.  A state is one int, (m_X, m_Y, m_Z, k_X,
    k_Y, k_Z) packed from the high end with level(s).bit_length() bits
    each; m_I and k_I are level(s) less the others.  Its weight sums
    prod_L (multinomial of the L letters over R), so the pattern count is
    that times prod_R k_R! / prod_L c_L!, exactly.  The groups are nested
    by the letters they consume from t, each level sorted: (m_X, ((m_Y,
    ((m_Z, m_I, terms), ...)), ...)), each term (k_X, k_Y, k_Z, k_I, G)
    with G the signed sum over its patterns, so _add_column stops at the
    first m_X, m_Y or m_Z that t cannot supply.  Nothing in it depends on
    n or t, so it is memoized by s alone.
    """
    counts = rank_triple(s)
    level = sum(counts)
    bits = level.bit_length()
    states: tuple[dict, dict] = ({0: 1}, {})
    order = sorted(range(3), key=counts.__getitem__)
    for letter in order:
        moves = _moves(letter, counts[letter], bits)
        merged: tuple[dict, dict] = ({}, {})
        for p in (0, 1):
            for delta, q, mw in moves[p]:
                if letter == order[-1] and not q:
                    continue
                target = merged[q]
                for key, weight in states[p].items():
                    key += delta
                    target[key] = target.get(key, 0) + weight * mw
        states = merged
    fact = [factorial(i) for i in range(level + 1)]
    div = prod(fact[c] for c in counts)
    mask = (1 << bits) - 1
    nested: dict = {}
    for key in sorted(states[1]):
        if weight := states[1][key]:
            m0, m1, m2 = key >> 5 * bits, key >> 4 * bits & mask, key >> 3 * bits & mask
            k0, k1, k2 = key >> 2 * bits & mask, key >> bits & mask, key & mask
            k3 = level - k0 - k1 - k2
            g = -2 * weight * fact[k0] * fact[k1] * fact[k2] * fact[k3] // div
            by_z = nested.setdefault(m0, {}).setdefault(m1, {})
            by_z.setdefault((m2, level - m0 - m1 - m2), []).append((k0, k1, k2, k3, g))
    return tuple(
        (m0, tuple((m1, tuple((*m, tuple(t)) for m, t in by_z.items()))
                   for m1, by_z in by_y.items()))
        for m0, by_y in nested.items()
    )


@lru_cache(maxsize=None)
def _pascal(n: int, k: int) -> tuple:
    """_pascal(n, k)[a][b] = C(a, b) for a <= n and b <= min(a, k)."""
    return tuple(tuple(comb(a, b) for b in range(min(a, k) + 1)) for a in range(n + 1))


def _add_column(out: dict, s: int, column: tuple, rows: list, n: int, cs) -> None:
    """Add cs * [i P_t, i P_s] for each (triple t, coefficient) of rows to
    out, keyed by triple rank: each row with coefficient c adds
    c * cs * G * prod_R C(w_R, k_R) to the output triple w = t - m + k of
    every group (m, k, G) of the column of s whose consumed letters m fit
    into t.  No k_R exceeds level(s)."""
    binom = _pascal(n, sum(rank_triple(s)))
    for (tx, ty, tz), ct in rows:
        ti = n - tx - ty - tz
        c = ct * cs
        for m0, by_y in column:
            r0 = tx - m0
            if r0 < 0:
                break
            for m1, by_z in by_y:
                r1 = ty - m1
                if r1 < 0:
                    break
                for m2, m3, terms in by_z:
                    r2, r3 = tz - m2, ti - m3
                    if r2 < 0:
                        break
                    if r3 < 0:
                        continue
                    for k0, k1, k2, k3, g in terms:
                        # w is the triple_rank of (wx, wy, wz)
                        wx, wy, wz = r0 + k0, r1 + k1, r2 + k2
                        lev = wx + wy + wz
                        w = (lev * (lev + 1) * (lev + 2) // 6
                             + wx * (2 * lev + 3 - wx) // 2 + wy)
                        out[w] = out.get(w, 0) + c * g * (
                            binom[wx][k0] * binom[wy][k1] * binom[wz][k2] * binom[r3 + k3][k3]
                        )


def orbit_bracket(a, b, n: int) -> SymOpVector:
    """Structure constants of [i P_a, i P_b] on n qubits by orbit expansion.

    The representative word of orbit a (X block, Y block, Z block,
    identities) times every word of orbit b, with the word oracle's product;
    the reference engine that compare_tables checks StructureTable against.
    Its cost grows with the number of words in the orbit of b.
    """
    a = as_triple(a).check(n)
    b = as_triple(b).check(n)
    if a == b:
        return SymOpVector.zero(n)
    rep = letters_to_word([1] * a.kx + [2] * a.ky + [3] * a.kz)
    masses: dict[PauliTriple, int] = {}
    for w in orbit_words(b, n):
        phase, word = _word_product(rep, w, n)
        if phase & 1:
            u = word_triple(word, n)
            masses[u] = masses.get(u, 0) + (-2 if phase == 1 else 2)
    return SymOpVector.from_ranks(n, _orbit_average(a, masses, n))


class StructureTable:
    """The structure constants at fixed n, by seed columns (_seed_column).

    Inside, a triple is its triple_rank.  bracket_coeffs, the one bracket,
    counts each structure constant of coordinate dicts against the output
    word with the column of each seed key, and stores nothing; bracket is
    its boundary for two PauliTriples.  entry_count is the number of pairs
    that compare_tables bracketed, 0 until it runs; permbench/tracing.py
    reads it.
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ConstraintError("qubit count must be positive")
        self.n = n
        self._size = comb(n + 3, 3)
        self.entry_count = 0

    def bracket(self, a, b) -> SymOpVector:
        ra, rb = (triple_rank(as_triple(t).check(self.n)) for t in (a, b))
        return SymOpVector.from_ranks(self.n, self.bracket_coeffs({ra: 1}, {rb: 1}))

    def bracket_coeffs(self, u: Mapping[int, object], v: Mapping[int, object]) -> dict:
        """Bilinear extension of the basis bracket to coordinate dicts keyed
        by triple rank, one seed column per key of v; zero coefficients are
        dropped.  Equal arguments, and arguments whose keys are all Z-type
        (diagonal words, which commute), give {} with no column built."""
        n, size = self.n, self._size
        for keys in (u, v):
            if keys and (min(keys) < 0 or max(keys) >= size):
                bad = sorted(r for r in keys if not 0 <= r < size)
                raise ConstraintError(f"ranks {bad} leave the {size} triples of n = {n}")
        if u == v:  # [w, w] = 0; a one-member closure brackets its seed with itself
            return {}
        rows = [(rank_triple(t), c) for t, c in u.items()]
        if all(not t.kx and not t.ky for t in map(rank_triple, v)) and all(
                not t.kx and not t.ky for t, _ in rows):
            return {}
        out: dict[int, object] = {}
        for s, cs in v.items():
            _add_column(out, s, _seed_column(s), rows, n, cs)
        return {w: c for w, c in out.items() if c}


def compare_tables(table: StructureTable) -> list[dict]:
    """Every pair of basis elements in `table` against orbit_bracket.

    Returns one record per disagreeing pair; empty means the columns and
    the orbit expansion agree everywhere.
    """
    n = table.n
    check_qubits(n, ORBIT_CAP, "the orbit-expansion comparison")
    ts = all_triples(n)
    bad = []
    for i, a in enumerate(ts):
        for b in ts[i + 1 :]:
            v1 = table.bracket(a, b)
            v2 = orbit_bracket(a, b, n)
            if v1 != v2:
                bad.append({"pair": [a.text(), b.text()], "columns": v1.to_jsonable(),
                            "orbit": v2.to_jsonable()})
    table.entry_count = len(ts) * (len(ts) - 1) // 2
    return bad
