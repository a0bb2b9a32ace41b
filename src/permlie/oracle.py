"""Brute-force Pauli-word engine used as ground truth at small n.

Operators are stored as exact coordinate dictionaries over individual Pauli
words, one word per base-4 integer (two bits per qubit, letters I,X,Y,Z =
0..3, qubit 0 in the least significant position).  Nothing here knows about
orbits or structure constants; brackets multiply words letter by letter and
track the phase, so agreement with the symmetrized engine is an end-to-end
check.  Closures run the same single worklist as the symmetrized engine
(linalg.generator_closure, generator pairing only) with the word bracket in
place of the structure table.  Word counts grow as 4^n, hence the hard n <= 6
cap.

The skew-Hermitian convention matches the rest of the package: coeffs[w] is
the coordinate of i*w.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from typing import Iterable, Mapping, NamedTuple

from .linalg import SparseEchelon, generator_closure, integer_row
from .symops import (
    ConstraintError,
    DimensionMismatch,
    PauliTriple,
    SymOpVector,
    _Frozen,
    as_triple,
    check_qubits,
    orbit_size,
)

WORD_QUBIT_CAP = 6


def _check_word_n(n: int) -> None:
    if n < 1:
        raise ConstraintError("qubit count must be positive")
    check_qubits(n, WORD_QUBIT_CAP, "word-level engine")


def letters_to_word(letters: Iterable[int]) -> int:
    w = 0
    for j, letter in enumerate(letters):
        w |= letter << (2 * j)
    return w


class DenseOp(_Frozen):
    """Exact operator i * sum_w coeffs[w] * w over individual Pauli words."""

    __slots__ = ("n", "coeffs")
    n: int
    coeffs: Mapping[int, object]

    def __init__(self, n: int, coeffs: Mapping | None = None) -> None:
        _check_word_n(n)
        clean = {}
        top = 1 << (2 * n)
        for w, v in (coeffs or {}).items():
            if not 0 <= w < top:
                raise ConstraintError(f"word {w} out of range for n = {n}")
            if not isinstance(v, (int, Fraction)):
                raise ConstraintError("word coefficients must be exact rationals")
            if v:
                clean[w] = v
        self._set(n, clean)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs


def _word_product(w1: int, w2: int, n: int) -> tuple[int, int]:
    """(phase_power, word) with w1*w2 = i**phase_power * word.

    Letters multiply as XOR of their 2-bit codes.  Each site with a cyclic
    pair (XY, YZ, ZX) adds one to the phase power and each anticyclic pair
    (YX, ZY, XZ) subtracts one; the pairs are counted with per-letter masks.
    """
    low = ((1 << (2 * n)) - 1) // 3  # the low bit of every site
    lo1, hi1 = w1 & low, (w1 >> 1) & low
    lo2, hi2 = w2 & low, (w2 >> 1) & low
    x1, y1, z1 = lo1 & ~hi1, hi1 & ~lo1, lo1 & hi1
    x2, y2, z2 = lo2 & ~hi2, hi2 & ~lo2, lo2 & hi2
    cyclic = (x1 & y2 | y1 & z2 | z1 & x2).bit_count()
    anticyclic = (y1 & x2 | z1 & y2 | x1 & z2).bit_count()
    return (cyclic - anticyclic) & 3, w1 ^ w2


def word_triple(w: int, n: int) -> PauliTriple:
    """Letter counts (kx, ky, kz) of a word, read off the same masks."""
    low = ((1 << (2 * n)) - 1) // 3
    lo, hi = w & low, (w >> 1) & low
    return PauliTriple((lo & ~hi).bit_count(), (hi & ~lo).bit_count(), (lo & hi).bit_count())


def densify(v: SymOpVector) -> DenseOp:
    """Expand symmetrized coordinates into per-word coordinates."""
    _check_word_n(v.n)
    out: dict[int, object] = {}
    for t, c in v.items():
        for w in orbit_words(t, v.n):
            out[w] = out.get(w, 0) + c
    return DenseOp(v.n, out)


@lru_cache(maxsize=None)
def orbit_words(t, n: int) -> tuple[int, ...]:
    """Every word with the letter counts of t, as base-4 integers.

    Cached: the orbit-expansion reference asks for the orbit of b once for
    every pair (a, b), and densify for every vector it expands.
    """
    t = as_triple(t).check(n)
    sites = range(n)
    words = []
    for xpos in combinations(sites, t.kx):
        xset = set(xpos)
        rem1 = [p for p in sites if p not in xset]
        for ypos in combinations(rem1, t.ky):
            yset = set(ypos)
            rem2 = [p for p in rem1 if p not in yset]
            for zpos in combinations(rem2, t.kz):
                w = 0
                for p in xpos:
                    w |= 1 << (2 * p)
                for p in ypos:
                    w |= 2 << (2 * p)
                for p in zpos:
                    w |= 3 << (2 * p)
                words.append(w)
    return tuple(words)


def symmetrize(p: DenseOp) -> SymOpVector:
    """Collapse per-word coordinates back onto letter-count classes.

    Raises if the operator is not constant on some class, i.e. not actually
    permutation invariant.
    """
    groups: dict[PauliTriple, dict[int, object]] = {}
    for w, v in p.coeffs.items():
        t = word_triple(w, p.n)
        groups.setdefault(t, {})[w] = v
    coeffs = {}
    for t, seen in groups.items():
        size = orbit_size(t, p.n)
        vals = set(seen.values())
        if len(vals) != 1 or len(seen) != size:
            raise ConstraintError(
                f"operator is not uniform on the {t.text()} class; cannot symmetrize"
            )
        coeffs[t] = next(iter(vals))
    return SymOpVector(p.n, coeffs)


def dense_bracket(p: DenseOp, q: DenseOp) -> DenseOp:
    """Exact commutator of skew-Hermitian word sums.

    Words either commute or anticommute; an anticommuting pair contributes
    -2 or +2 times the product word depending on the accumulated phase.
    """
    if p.n != q.n:
        raise DimensionMismatch("qubit counts differ")
    n = p.n
    out: dict[int, object] = {}
    for w1, c1 in p.coeffs.items():
        for w2, c2 in q.coeffs.items():
            phase, w3 = _word_product(w1, w2, n)
            if not phase & 1:
                continue
            c = c1 * c2
            out[w3] = out.get(w3, 0) + (-2 * c if phase == 1 else 2 * c)
    return DenseOp(n, out)


class DenseClosureRun(NamedTuple):
    dim: int
    iterations: int


def dense_closure(seeds: Iterable[DenseOp]) -> DenseClosureRun:
    """Lie closure over raw words: linalg.generator_closure with dense_bracket.

    Exactly rank * r brackets are evaluated, r the number of seeds that
    raise the rank, so the run always ends.
    """
    seeds = [s for s in seeds if not s.is_zero]
    if not seeds:
        raise ConstraintError("dense closure needs at least one nonzero seed")
    n = seeds[0].n
    if any(s.n != n for s in seeds):
        raise DimensionMismatch("seed qubit counts differ")

    def bracket(u: Mapping, g: Mapping) -> Mapping:
        return dense_bracket(DenseOp(n, u), DenseOp(n, g)).coeffs

    ech = SparseEchelon()
    iterations = generator_closure((integer_row(s.coeffs) for s in seeds), bracket, ech)
    return DenseClosureRun(ech.rank, iterations)


def transposition_pairings(n: int, mu: int) -> list[tuple[tuple[int, int], ...]]:
    """All sets of mu disjoint index pairs from range(n)."""
    if mu < 0 or 2 * mu > n:
        raise ConstraintError(f"need 0 <= 2*mu <= n, got mu={mu}, n={n}")
    out: list[tuple[tuple[int, int], ...]] = []

    def grow(avail: tuple[int, ...], picked: tuple[tuple[int, int], ...]) -> None:
        if len(picked) == mu:
            out.append(picked)
            return
        first = avail[0]
        rest = avail[1:]
        for i, second in enumerate(rest):
            grow(rest[:i] + rest[i + 1 :], picked + ((first, second),))
        # leaving `first` unpaired: only legal while enough indices remain
        if len(rest) >= 2 * (mu - len(picked)):
            grow(rest, picked)

    grow(tuple(range(n)), ())
    return out


def class_sum(mu: int, n: int) -> DenseOp:
    """Sum of all permutation operators that move exactly mu disjoint pairs.

    Each transposition factors as (II + XX + YY + ZZ)/2 on its pair, and
    disjoint supports multiply without phases, so the word expansion is a sum
    over letter assignments to the pairs with weight 2^-mu.
    """
    _check_word_n(n)
    out: dict[int, object] = {}
    weight = Fraction(1, 2**mu)
    for pairing in transposition_pairings(n, mu):
        for letters in product(range(4), repeat=mu):
            w = 0
            for (a, b), letter in zip(pairing, letters):
                w |= letter << (2 * a)
                w |= letter << (2 * b)
            out[w] = out.get(w, 0) + weight
    return DenseOp(n, out)
