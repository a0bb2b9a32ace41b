"""Integer structure constants of the symmetrized-Pauli bracket.

The bracket of two basis elements is computed two independent ways.  The
engine, behind every StructureTable, counts letter-overlap patterns between a
fixed representative word of the first orbit and the full orbit of the
second, which costs a polynomial number of integer terms.  The reference,
orbit_bracket, expands the second orbit outright, word by word, at
exponential cost; compare_tables checks a whole table against it.  Both share
only the single-site Pauli product table and the final orbit-averaging step,
so agreement is a strong check on the combinatorics.

With coordinates standing for i * sum c_t P_t, every structure constant is an
even integer: [i P_a, i P_b] = sum_u g_u (i P_u).

StructureTable.bracket_coeffs brackets raw coordinate dicts and builds no
SymOpVector; it is the bracket the closure worklist runs.  Its keys need no
check of their own: each is checked once, when its table entry is computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Mapping

from .symops import (
    SITE_PRODUCT,
    ConstraintError,
    DimensionMismatch,
    PauliTriple,
    SymOpVector,
    VerificationError,
    all_triples,
    as_triple,
    check_qubits,
    orbit_size,
    triple_sort_key,
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


def _bracket_overlap(a: PauliTriple, b: PauliTriple, n: int) -> dict[PauliTriple, int]:
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


def representative_word(t: PauliTriple, n: int) -> tuple[int, ...]:
    """Canonical orbit representative: X block, Y block, Z block, identities."""
    t = as_triple(t).check(n)
    return tuple([1] * t.kx + [2] * t.ky + [3] * t.kz + [0] * (n - t.level))


def _bracket_orbit(a: PauliTriple, b: PauliTriple, n: int) -> dict[PauliTriple, int]:
    """Word-by-word expansion of [i P_a, i P_b] over the full orbit of b."""
    ax, ay, az = a
    bx, by, bz = b
    rep = representative_word(a, n)
    sites = range(n)
    masses: dict[tuple[int, int, int], int] = {}
    for xpos in combinations(sites, bx):
        xset = set(xpos)
        rem1 = [p for p in sites if p not in xset]
        for ypos in combinations(rem1, by):
            yset = set(ypos)
            rem2 = [p for p in rem1 if p not in yset]
            for zpos in combinations(rem2, bz):
                counts = [0, ax, ay, az]
                d = 0
                phase = 0
                for plist, v in ((xpos, 1), (ypos, 2), (zpos, 3)):
                    for p in plist:
                        s = rep[p]
                        if s == 0:
                            counts[v] += 1
                        elif s == v:
                            counts[s] -= 1
                        else:
                            ph, out = SITE_PRODUCT[s][v]
                            phase += ph
                            d += 1
                            counts[s] -= 1
                            counts[out] += 1
                if not d & 1:
                    continue
                key = (counts[1], counts[2], counts[3])
                contrib = -2 if phase % 4 == 1 else 2
                masses[key] = masses.get(key, 0) + contrib
    return _orbit_average(a, masses, n)


def _orbit_average(a: PauliTriple, masses: Mapping, n: int) -> dict[PauliTriple, int]:
    """Turn per-representative masses into orbit-sum coefficients.

    The bracket of full orbit sums assigns each output orbit the mass seen by
    one representative times orbit_size(a)/orbit_size(u); exactness of that
    division is asserted.
    """
    out: dict[PauliTriple, int] = {}
    oa = orbit_size(a, n)
    for u, m in masses.items():
        if not m:
            continue
        t = PauliTriple(*u)
        q, r = divmod(oa * m, orbit_size(t, n))
        if r:
            raise VerificationError(
                f"orbit averaging of [{a.text()}, {u}] gave a non-integer constant"
            )
        out[t] = q
    return out


def orbit_bracket(a, b, n: int) -> SymOpVector:
    """Structure constants of [i P_a, i P_b] on n qubits by orbit expansion.

    The reference engine that compare_tables checks StructureTable against;
    its cost grows with the number of words in the orbit of b.
    """
    a = as_triple(a).check(n)
    b = as_triple(b).check(n)
    if a == b:
        return SymOpVector.zero(n)
    return SymOpVector(n, _bracket_orbit(a, b, n))


@dataclass
class StructureTable:
    """In-memory, lazily filled pairwise structure constants at fixed n.

    Entries are overlap counts (_bracket_overlap), computed on first request
    and stored under the sorted pair; the antisymmetric partner is produced
    by sign flip on lookup.  Every entry comes from _pair_entry, which checks
    both triples against n.  A finished table is read-only in practice:
    lookups after fill() mutate nothing.
    """

    n: int
    _entries: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConstraintError("qubit count must be positive")

    def _pair_entry(self, a: PauliTriple, b: PauliTriple):
        # A stored pair is sorted, so at most one of the two lookups hits;
        # the sort keys are needed only to file a new entry.
        entry = self._entries.get((a, b))
        if entry is not None:
            return entry, 1
        entry = self._entries.get((b, a))
        if entry is not None:
            return entry, -1
        if a == b:
            return None, 1
        sign = 1
        if triple_sort_key(a) > triple_sort_key(b):
            a, b = b, a
            sign = -1
        entry = _bracket_overlap(a.check(self.n), b.check(self.n), self.n)
        self._entries[(a, b)] = entry
        return entry, sign

    def bracket(self, a, b) -> SymOpVector:
        entry, sign = self._pair_entry(as_triple(a), as_triple(b))
        if not entry:
            return SymOpVector.zero(self.n)
        if sign < 0:
            return SymOpVector(self.n, {u: -g for u, g in entry.items()})
        return SymOpVector(self.n, dict(entry))

    def bracket_coeffs(self, u: Mapping, v: Mapping) -> dict[PauliTriple, object]:
        """Bilinear extension of the basis bracket to coordinate dicts keyed
        by PauliTriple; zero coefficients are dropped."""
        out: dict[PauliTriple, object] = {}
        for a, ca in u.items():
            for b, cb in v.items():
                entry, sign = self._pair_entry(a, b)
                if not entry:
                    continue
                c = ca * cb if sign > 0 else -ca * cb
                for t, g in entry.items():
                    out[t] = out.get(t, 0) + c * g
        return {t: c for t, c in out.items() if c}

    def bracket_vectors(self, u: SymOpVector, v: SymOpVector) -> SymOpVector:
        """Bilinear extension of the basis bracket to coordinate vectors."""
        if u.n != self.n or v.n != self.n:
            raise DimensionMismatch("vector qubit count differs from table")
        return SymOpVector(self.n, self.bracket_coeffs(u.coeffs, v.coeffs))

    def fill(self) -> None:
        """Compute every pair of basis elements.  Idempotent."""
        check_qubits(self.n, FILL_CAP, "a full structure table")
        ts = all_triples(self.n)  # already in triple_sort_key order
        for i, a in enumerate(ts):
            for b in ts[i + 1 :]:
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
