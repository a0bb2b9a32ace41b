"""Exact sparse linear algebra over ordered keys.

SparseEchelon keeps a reduced row-echelon basis of integer row vectors
indexed by hashable keys of one kind, in their natural order: triple ranks,
Pauli words, sector block entries or central levels mu.  The smallest key of
a row is its pivot.  Every row it takes holds ints, and it stores primitive
integer dicts (content gcd 1, positive pivot entry); elimination is
fraction-free, so no Fraction is made inside it.  A rational vector enters
through integer_row, once, where it comes in from outside the engine.
generator_closure is the one Lie-closure worklist; the sparse and the
word-level engines differ only in the bracket they hand it.  When it pops
an admitted row, it brackets the row the echelon stores under the same
pivot at that moment, which back-substitution has mostly shortened, unless
the admitted row has fewer coefficient bits.  A finished worklist closure
is the echelon it grew, and its readers take rows() as stored.

Rows stay fully reduced: a pivot column is nonzero only in its own row.  To
keep them so without scanning every row on each insert, the echelon also
keeps a column index, mapping each non-pivot column to the set of pivots of
the stored rows that are nonzero there (no column maps to an empty set).
Back-substitution of a new row with pivot p then touches exactly the rows
the index lists under p, and updates the index for the columns each of
those rows gains or loses.  Elimination and membership read only the
rows.

A stored row of length 1 is {p: 1}, and most rows of a large closure are
such rows.  Eliminating against one deletes column p from the input, and
inserting one drops column p from each row the index lists under p and
re-primitivises that row.  Both are the general integer step with unit
multipliers, so they give the same rows bit for bit.  from_reduced takes
rows that are already reduced, such as a closed-form closure's, and builds
the column index from them with no elimination.

generator_closure's docstring proves its span is the generated algebra (by
Jacobi) and why a closure that contains the derived algebra D of the whole
equivariant algebra needs no bracket at all (D in V).
"""

from __future__ import annotations

from collections import deque
from math import gcd, lcm
from typing import Callable, Hashable, Iterable, Mapping

Key = Hashable
IntRow = dict


def integer_row(vec: Mapping) -> IntRow:
    """Rational vector times the lcm of its denominators, zeros dropped."""
    scale = lcm(*(v.denominator for v in vec.values()))
    return {k: int(v * scale) for k, v in vec.items() if v}


def _make_primitive(row: IntRow, pivot: Key) -> IntRow:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            break
    if row[pivot] < 0:
        g = -g
    if g in (1, 0):
        return row
    return {k: v // g for k, v in row.items()}


class SparseEchelon:
    """Reduced echelon accumulator over the integers (see integer_row)."""

    def __init__(self) -> None:
        self._rows: dict[Key, IntRow] = {}
        self._cols: dict[Key, set[Key]] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    def pivots(self) -> list[Key]:
        return sorted(self._rows)

    def _eliminate(self, vec: Mapping) -> IntRow:
        """Reduce the integer row vec against the basis; returns a positive
        multiple of its residual modulo the span."""
        work = {k: v for k, v in vec.items() if v}
        # Reduced rows hold no foreign pivots, so one pass in any order
        # eliminates every pivot the input touches; the primitive rows and
        # the residual do not depend on the order.
        for p in [k for k in work if k in self._rows]:
            c = work.get(p)
            if not c:
                continue
            row = self._rows[p]
            if len(row) == 1:  # {p: 1}: the general step would only zero p
                del work[p]
                continue
            piv = row[p]
            g = gcd(c, piv)
            mul_w = piv // g  # > 0: stored pivots are positive
            mul_r = c // g
            for k, rv in row.items():
                nv = mul_w * work.get(k, 0) - mul_r * rv
                if nv:
                    work[k] = nv
                else:
                    work.pop(k, None)
            if mul_w != 1:
                for k in work:
                    if k not in row:
                        work[k] *= mul_w
        return work

    def contains(self, vec: Mapping) -> bool:
        return not self._eliminate(vec)

    def insert(self, vec: Mapping) -> IntRow | None:
        """Add vec to the span.  Returns the stored primitive row if the
        rank grew, else None."""
        work = self._eliminate(vec)
        if not work:
            return None
        pivot = min(work)
        new = _make_primitive(work, pivot)
        rows, cols = self._rows, self._cols
        hits = cols.pop(pivot, ())
        if len(new) == 1:
            # new is {pivot: 1}: back-substitution only drops the column,
            # which may leave a row whose content is above 1.
            for q in hits:
                row = dict(rows[q])
                del row[pivot]
                rows[q] = _make_primitive(row, q)
            rows[pivot] = new
            return new
        npiv = new[pivot]
        for q in hits:
            row = rows[q]
            c = row[pivot]
            g = gcd(c, npiv)
            mul_o = npiv // g
            mul_n = c // g
            merged = {k: mul_o * v for k, v in row.items()}
            for k, v in new.items():
                nv = merged.get(k, 0) - mul_n * v
                if nv:
                    if k not in merged:
                        cols.setdefault(k, set()).add(q)
                    merged[k] = nv
                else:
                    del merged[k]
                    if k != pivot:
                        hit = cols[k]
                        hit.discard(q)
                        if not hit:
                            del cols[k]
            rows[q] = _make_primitive(merged, q)
        for k in new:
            if k != pivot:
                cols.setdefault(k, set()).add(pivot)
        rows[pivot] = new
        return new

    @classmethod
    def from_reduced(cls, rows: dict[Key, IntRow]) -> "SparseEchelon":
        """The echelon that stores rows, pivot -> row, as they are: each must
        be primitive, with its pivot as smallest key and positive entry
        there, and no pivot may occur in another row.  Nothing is
        eliminated; the column index is read off the rows."""
        out = cls()
        out._rows = rows
        for p, row in rows.items():
            if len(row) > 1:
                for k in row:
                    if k != p:
                        out._cols.setdefault(k, set()).add(p)
        return out

    def extend(self, vecs: Iterable[Mapping]) -> int:
        added = 0
        for v in vecs:
            if self.insert(v) is not None:
                added += 1
        return added

    def rows(self) -> list[IntRow]:
        """The stored primitive rows in pivot order, as pivots() lists them;
        a row's pivot is its smallest key."""
        return [self._rows[p] for p in self.pivots()]


def generator_closure(
    seeds: Iterable[Mapping],
    bracket: Callable[[IntRow, IntRow], Mapping],
    ech: SparseEchelon,
) -> int:
    """Grow ech to the Lie algebra generated by seeds; returns the bracket count.

    The seeds are inserted first, and those that raise the rank become the
    seed rows g.  The worklist holds the admitted rows, the seed rows
    included, in FIFO order, and pops each once.  For the row admitted with
    pivot p it brackets, as bracket(row, g) with each seed row, the row ech
    stores under p at that moment, which back-substitution has mostly
    shortened since, unless the admitted row has fewer coefficient bits in
    all.  (On dense custom sets, bracketing the stored row every time feeds
    ever wider coefficients back into the echelon.)  Each result is
    inserted in turn.  bracket takes and returns coordinate mappings.

    Pairing with the seeds alone is enough.  Let V be the final span and fix
    a seed row g.  The rows bracketed with g, one per pivot p, lie in V and
    have p as their smallest key: back-substitution only changes columns
    above a row's pivot.  So they are independent, and there are dim V of
    them, so they span V, and [V, g] lies in V.  Hence the set
    N = {x : [x, V] lies in V} contains the seeds.  N is a Lie subalgebra:
    for x, y in N and v in V, Jacobi gives
    [[x, y], v] = [x, [y, v]] - [y, [x, v]], which lies in V.  Hence N holds
    the generated algebra L.  Every row is an iterated bracket of seeds, so
    V lies in L, hence in N, and [V, V] lies in V: V is a Lie algebra that
    contains the seeds, so V = L.

    Every admitted row is popped once, so exactly rank * len(seed rows)
    brackets are evaluated and the loop always ends.

    No worklist is needed once the closure is known to contain the derived
    algebra D = [A, A] of the whole equivariant algebra A (it is
    semi-universal): any W that contains D has [W, W] inside [A, A] = D,
    inside W, so W = D + span(seeds) is the generated algebra.
    closure.lie_closure learns that from the sector ledger, and
    closure.semi_universal_basis writes W's echelon in closed form.
    """
    gens = [row for row in map(ech.insert, seeds) if row is not None]
    rows = ech._rows
    work = deque(gens)
    steps = 0
    while work:
        row = work.popleft()
        now = rows[min(row)]
        if now is not row and _bits(now) <= _bits(row):
            row = now
        for g in gens:
            steps += 1
            new = ech.insert(bracket(row, g))
            if new is not None:
                work.append(new)
    return steps


def _bits(row: IntRow) -> int:
    """Total coefficient bits of a row: the size the bracket and the
    elimination of its result work on."""
    return sum(v.bit_length() for v in row.values())


def rank_of(vecs: Iterable[Mapping]) -> int:
    ech = SparseEchelon()
    ech.extend(vecs)
    return ech.rank
