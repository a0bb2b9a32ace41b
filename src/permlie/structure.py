"""Integer structure constants of the symmetrized-Pauli bracket.

The bracket of two basis elements is computed three ways.

* Columns (StructureTable.bracket_coeffs), the bracket that closures, the
  centralizer certificate and its X/Y solve run.  The second argument of a
  closure bracket is always a seed, so each seed triple s carries one
  column (_seed_column): its letter-placement patterns, counted once per
  process and for every n.  A structure constant is then counted against
  the representative word of the output triple, with no orbit size, no
  division and nothing stored per pair.
* The pair overlap count (_bracket_overlap), behind StructureTable.bracket,
  fill and `table`: the letter-overlap patterns between a fixed
  representative word of the first orbit and the full orbit of the second,
  averaged over the output orbit (_orbit_average) and stored per pair.  It
  is the columns' cross-check in the tests.
* The orbit expansion (orbit_bracket), the pair count's reference: it
  multiplies that representative word by every word of the second orbit
  with the word oracle's bit-mask product, at exponential cost;
  compare_tables checks a whole table against it.  The two share only the
  orbit averaging, so agreement is a strong check on the combinatorics; the
  word product itself is checked site by site in the oracle's tests.

With coordinates standing for i * sum c_t P_t, every structure constant is an
even integer: [i P_a, i P_b] = sum_u g_u (i P_u).

Inside the table a triple is its triple_rank, an int whose natural order is
the canonical triple order; PauliTriple appears only at the boundary, in
bracket.  bracket_coeffs brackets raw rank-keyed dicts and builds no
SymOpVector; it checks the ranks of both arguments against the C(n+3,3)
triples of n, as _pair_entry checks a pair before it files an entry.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
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

# The largest n for which StructureTable.fill, and with it `table --n n`,
# finished as a process in under 60 s on each of three runs on a 2-vCPU host
# (n = 13: 31-33 s, 442 MB peak RSS; n = 14 took 56 and 62 s, 773 MB).
FILL_CAP = 13

# The same for compare_tables, and with it `table --n n --compare`
# (n = 8: 14.1-14.7 s, 31 MB; n = 9 took 74 s).  The orbit expansion of
# every pair is nearly all of it.
ORBIT_CAP = 8


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
def _moves(letter: int, count: int) -> tuple:
    """Every way to place `count` seed letters `letter` on the four site
    letters: (n_X, n_Y, n_Z, n_I, dm_X, dm_Y, dm_Z, dm_I, phase), with n_R
    letters on R sites, dm_A of the other word's letters A on them, and the
    phase exponent they add."""
    rest, phase = _REST[letter], _PHASE[letter]
    out = []
    for n0 in range(count + 1):
        for n1 in range(count - n0 + 1):
            for n2 in range(count - n0 - n1 + 1):
                ns = (n0, n1, n2, count - n0 - n1 - n2)
                dm = [0, 0, 0, 0]
                for r, nr in enumerate(ns):
                    dm[rest[r]] += nr
                out.append((*ns, *dm, sum(p * nr for p, nr in zip(phase, ns))))
    return tuple(out)


@lru_cache(maxsize=None)
def _seed_column(s: int) -> tuple:
    """Pattern groups of [i P_t, i P_s] for the seed triple of rank s, for
    every n and every t.

    Fix the representative word of the output triple w and place the
    seed's letters on its sites: n[L][R] of its L letters on R sites, with
    k_R = sum_L n[L][R] sites of letter R covered.  The other word is then
    fixed, and it has m_A letters A on the covered sites.  The pattern
    counts prod_R C(w_R, k_R) * k_R!/prod_L n[L][R]! seed words, and it
    contributes only when an odd number d of covered sites anticommute,
    with -2 or +2 per word by the sign rule of _bracket_overlap.  The
    uncovered sites carry the same letters in w and t, so w = t - m + k,
    and the pattern fits t exactly when m <= t letter by letter (with the
    identities t_I = n - level(t) and m_I).

    The states (k, m, parity of the phase exponent) are built one seed
    letter at a time, X, then Y, then Z, with equal states merged after
    each.  As the L letters land, n[L][R] of them on R sites, the weight is
    multiplied by C(k_R + n[L][R], n[L][R]), whose product over L is the
    multinomial, and negated when the phase passes i**2 = -1.  The groups
    are nested by the letters they consume from t, each level sorted:
    (m_X, ((m_Y, ((m_Z, m_I, terms), ...)), ...)), each term
    (k_X, k_Y, k_Z, k_I, G) with G the signed sum over its patterns, so
    bracket_coeffs stops at the first m_X, m_Y or m_Z that t cannot supply.
    Nothing in it depends on n or t, so the memo is keyed by s alone.
    """
    states = {(0, 0, 0, 0, 0, 0, 0, 0, 0): 1}
    for letter, count in enumerate(rank_triple(s)):
        moves = _moves(letter, count)
        merged: dict[tuple, int] = {}
        for (k0, k1, k2, k3, m0, m1, m2, m3, e), weight in states.items():
            for n0, n1, n2, n3, d0, d1, d2, d3, de in moves:
                e2 = e + de
                key = (k0 + n0, k1 + n1, k2 + n2, k3 + n3,
                       m0 + d0, m1 + d1, m2 + d2, m3 + d3, e2 & 1)
                w = weight * (
                    comb(k0 + n0, n0) * comb(k1 + n1, n1) * comb(k2 + n2, n2) * comb(k3 + n3, n3)
                )
                merged[key] = merged.get(key, 0) + (-w if e2 & 2 else w)
        states = merged
    groups: dict[tuple, dict] = {}
    for state, weight in states.items():
        if state[8]:
            terms = groups.setdefault(state[4:8], {})
            terms[state[:4]] = terms.get(state[:4], 0) - 2 * weight
    nested: dict = {}
    for (m0, m1, m2, m3), terms in sorted(groups.items()):
        terms = tuple((*k, g) for k, g in terms.items() if g)
        if terms:
            nested.setdefault(m0, {}).setdefault(m1, []).append((m2, m3, terms))
    return tuple(
        (m0, tuple((m1, tuple(by_z)) for m1, by_z in by_y.items()))
        for m0, by_y in nested.items()
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
    """Structure constants at fixed n: the column engine, and a lazily
    filled pair table behind it.

    Inside, a triple is its triple_rank.  bracket_coeffs, the bracket of
    coordinate dicts that closures and the centralizer solve run, counts
    each structure constant against the output word with the seed's column
    (_seed_column) and stores nothing.  bracket, fill and compare_tables
    read the pair table instead: overlap counts (_bracket_overlap), computed
    on first request and stored under the pair (lo, hi) with lo < hi; the
    antisymmetric partner is produced by sign flip on lookup.  Every entry
    comes from _pair_entry, which checks hi against the C(n+3,3) triples of
    n before it files one, as bracket_coeffs checks the keys of both
    arguments.  A finished table is read-only in practice: lookups after
    fill() mutate nothing.
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ConstraintError("qubit count must be positive")
        self.n = n
        self._size = comb(n + 3, 3)
        self._entries: dict = {}

    def _pair_entry(self, a: int, b: int):
        if a < b:
            key, sign = (a, b), 1
        elif a > b:
            key, sign = (b, a), -1
        else:
            return None, 1
        entry = self._entries.get(key)
        if entry is None:
            lo, hi = key
            if lo < 0 or hi >= self._size:
                raise ConstraintError(
                    f"ranks {key} leave the {self._size} triples of n = {self.n}"
                )
            entry = _bracket_overlap(rank_triple(lo), rank_triple(hi), self.n)
            self._entries[key] = entry
        return entry, sign

    def bracket(self, a, b) -> SymOpVector:
        ra, rb = (triple_rank(as_triple(t).check(self.n)) for t in (a, b))
        entry, sign = self._pair_entry(ra, rb)
        return SymOpVector.from_ranks(self.n, {u: sign * g for u, g in (entry or {}).items()})

    def bracket_coeffs(self, u: Mapping[int, object], v: Mapping[int, object]) -> dict:
        """Bilinear extension of the basis bracket to coordinate dicts keyed
        by triple rank; zero coefficients are dropped.

        Each key s of v brings its column, and each key t of u with
        coefficient c adds c * G * prod_R C(w_R, k_R) to the output triple
        w = t - m + k of every group (m, k, G) of the column whose consumed
        letters m fit into t.
        """
        n, size = self.n, self._size
        for keys in (u, v):
            if keys and (min(keys) < 0 or max(keys) >= size):
                bad = sorted(r for r in keys if not 0 <= r < size)
                raise ConstraintError(f"ranks {bad} leave the {size} triples of n = {n}")
        rows = [(rank_triple(t), c) for t, c in u.items()]
        out: dict[int, object] = {}
        for s, cs in v.items():
            column = _seed_column(s)
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
                                    comb(wx, k0) * comb(wy, k1) * comb(wz, k2) * comb(r3 + k3, k3)
                                )
        return {w: c for w, c in out.items() if c}

    def fill(self) -> None:
        """Compute every pair of basis elements.  Idempotent."""
        check_qubits(self.n, FILL_CAP, "a full structure table")
        for a in range(self._size):
            for b in range(a + 1, self._size):
                self._pair_entry(a, b)

    @property
    def entry_count(self) -> int:
        return len(self._entries)


def compare_tables(table: StructureTable) -> list[dict]:
    """Every pair of basis elements in `table` against orbit_bracket.

    Fills the table on the way.  Returns one record per disagreeing pair;
    empty means the two engines agree everywhere.
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
                bad.append(
                    {
                        "pair": [a.text(), b.text()],
                        "overlap": v1.to_jsonable(),
                        "orbit": v2.to_jsonable(),
                    }
                )
    return bad
