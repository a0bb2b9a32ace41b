"""Integer structure constants of the symmetrized-Pauli bracket.

The bracket of two basis elements is computed two independent ways.  The
engine, behind every StructureTable, counts letter-overlap patterns between a
fixed representative word of the first orbit and the full orbit of the
second, which costs a polynomial number of integer terms.  The reference,
orbit_bracket, multiplies that representative word by every word of the
second orbit with the word oracle's bit-mask product, at exponential cost;
compare_tables checks a whole table against it.  The two engines share only
the final orbit-averaging step, so agreement is a strong check on the
combinatorics; the word product itself is checked site by site in the
oracle's tests.

With coordinates standing for i * sum c_t P_t, every structure constant is an
even integer: [i P_a, i P_b] = sum_u g_u (i P_u).

Inside the table a triple is its triple_rank, an int whose natural order is
the canonical triple order; PauliTriple appears only at the boundary, in
bracket.  StructureTable.bracket_coeffs brackets raw rank-keyed dicts and
builds no SymOpVector; it is the bracket the closure worklist runs.  Its
keys need no check of their own: a rank is checked once, when _pair_entry
files its table entry.
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
    """In-memory, lazily filled pairwise structure constants at fixed n.

    Inside, a triple is its triple_rank.  Entries are overlap counts
    (_bracket_overlap) keyed by rank, computed on first request and stored
    under the pair (lo, hi) with lo < hi; the antisymmetric partner is
    produced by sign flip on lookup.  Every entry comes from _pair_entry,
    which checks hi against the C(n+3,3) triples of n before it files one.
    A finished table is read-only in practice: lookups after fill() mutate
    nothing.
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
        by triple rank; zero coefficients are dropped."""
        out: dict[int, object] = {}
        for a, ca in u.items():
            for b, cb in v.items():
                entry, sign = self._pair_entry(a, b)
                if not entry:
                    continue
                c = ca * cb if sign > 0 else -ca * cb
                for t, g in entry.items():
                    out[t] = out.get(t, 0) + c * g
        return {t: c for t, c in out.items() if c}

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
