"""Symmetrized Pauli operators on n qubits.

A symmetrized Pauli string P_(kx,ky,kz) is the sum of every distinct n-qubit
Pauli word with exactly kx X letters, ky Y letters and kz Z letters.  The
triples with kx+ky+kz <= n label a basis of the permutation-equivariant
Hermitian operators; this module provides the triple bookkeeping, sparse
coordinate vectors over that basis and the preset generator sets.  Inside
the engine (structure table, closure worklist, echelons) a triple is its
triple_rank, an int in the canonical order; PauliTriple and SymOpVector are
the boundary types.

Package rule: runtime records are typing.NamedTuples, and value types that
validate on construction are __slots__ classes on _Frozen, never
dataclasses.  Every verb is a process that imports the whole package, and
importing dataclasses and setting up its classes took over half of that.

Coordinates follow the skew-Hermitian convention throughout the package: a
vector with coefficients c_t stands for the operator i * sum_t c_t P_t, so
Lie brackets of basis elements have even integer structure constants.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator, Mapping, NamedTuple, Union

Coeff = Union[int, Fraction]

class ConstraintError(ValueError):
    """An argument violates a documented precondition."""


class DimensionMismatch(ValueError):
    """Operands built for different qubit counts were combined."""


class VerificationError(RuntimeError):
    """A mechanically checked identity failed."""


class ResourceLimitError(RuntimeError):
    """The request exceeds a documented size cap."""


class PauliTriple(NamedTuple):
    """Letter-count label (kx, ky, kz) of a symmetrized Pauli string."""

    kx: int
    ky: int
    kz: int

    @property
    def level(self) -> int:
        return self.kx + self.ky + self.kz

    def text(self) -> str:
        return f"{self.kx},{self.ky},{self.kz}"

    @classmethod
    def from_text(cls, text: str) -> "PauliTriple":
        parts = text.split(",")
        if len(parts) != 3:
            raise ConstraintError(f"triple text must be 'kx,ky,kz', got {text!r}")
        try:
            kx, ky, kz = (int(p) for p in parts)
        except ValueError as exc:
            raise ConstraintError(f"non-integer triple component in {text!r}") from exc
        return cls(kx, ky, kz)

    def check(self, n: int) -> "PauliTriple":
        if min(self) < 0:
            raise ConstraintError(f"negative letter count in {self.text()}")
        if self.level > n:
            raise ConstraintError(f"triple {self.text()} needs more than {n} qubits")
        return self


def as_triple(t: Union[PauliTriple, tuple, str]) -> PauliTriple:
    if isinstance(t, PauliTriple):
        return t
    if isinstance(t, str):
        return PauliTriple.from_text(t)
    return PauliTriple(*t)


@lru_cache(maxsize=None)
def all_triples(n: int) -> tuple[PauliTriple, ...]:
    """Every triple with level <= n, in canonical order."""
    if n < 0:
        raise ConstraintError("qubit count must be nonnegative")
    out = []
    for level in range(n + 1):
        for kx in range(level + 1):
            for ky in range(level - kx + 1):
                out.append(PauliTriple(kx, ky, level - kx - ky))
    return tuple(out)


def triple_rank(t: PauliTriple) -> int:
    """Position of t in the canonical order, the same at every n: by level,
    then lexicographic on (kx, ky, kz).  The C(L+2,3) triples below level L
    come first, then those of level L with fewer X, then those with fewer
    Y."""
    kx, ky, kz = t
    level = kx + ky + kz
    return comb(level + 2, 3) + kx * (2 * level + 3 - kx) // 2 + ky


@lru_cache(maxsize=None)
def rank_triple(r: int) -> PauliTriple:
    """Inverse of triple_rank, for r >= 0; only the ranks asked for are kept."""
    level = int((6 * r) ** (1 / 3))
    while comb(level + 2, 3) > r:
        level -= 1
    while comb(level + 3, 3) <= r:
        level += 1
    r -= comb(level + 2, 3)
    kx = 0
    while r > level - kx:
        r -= level - kx + 1
        kx += 1
    return PauliTriple(kx, r, level - kx - r)


def rank_texts(ranks: Iterable[int]) -> Iterator[str]:
    """The text of rank_triple(r) for each r of an ascending sequence, read
    off one walk of the canonical order that decodes and keeps no triple."""
    level, bound, kx, start = 0, 1, 0, 0  # start: the rank of (kx, 0, level - kx)
    for r in ranks:
        while r >= bound:
            level += 1
            kx, start, bound = 0, bound, comb(level + 3, 3)
        while r - start > level - kx:
            start += level - kx + 1
            kx += 1
        yield f"{kx},{r - start},{level - kx - r + start}"


def by_rank(coeffs: Mapping) -> dict:
    """Coordinates keyed by triple_rank, as the engine keeps them."""
    return {triple_rank(t): c for t, c in coeffs.items()}


def orbit_size(t: PauliTriple, n: int) -> int:
    """Number of distinct Pauli words summed in P_t on n qubits."""
    t = as_triple(t).check(n)
    return comb(n, t.kx) * comb(n - t.kx, t.ky) * comb(n - t.kx - t.ky, t.kz)


class AmbientDims(NamedTuple):
    dim_u: int
    dim_su: int
    dim_center: int
    dim_su_cless: int


def ambient_dims(n: int) -> AmbientDims:
    """Dimensions of the equivariant unitary algebra and its named pieces.

    dim_u counts all triples, dim_su drops the identity direction,
    dim_center counts the invariant Casimir-type elements, and dim_su_cless
    is the centerless traceless part.
    """
    if n < 1:
        raise ConstraintError("qubit count must be positive")
    dim_u = comb(n + 3, 3)
    dim_center = n // 2 + 1
    return AmbientDims(dim_u, dim_u - 1, dim_center, dim_u - dim_center)


def _canon_value(v: Coeff) -> Coeff:
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else v
    if isinstance(v, int):
        return v
    raise ConstraintError(f"coefficients must be exact rationals, got {type(v).__name__}")


class _Frozen:
    """Immutable value type whose __slots__ are its fields, in __init__
    order.  __init__ validates and sets them once, through _set; after that
    the instance refuses assignment, and it compares, prints and pickles by
    its fields.  Defining __eq__ leaves it unhashable, as its dict fields
    are."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class SymOpVector(_Frozen):
    """Exact coordinate vector over the symmetrized Pauli basis.

    Represents i * sum_t coeffs[t] * P_t on n qubits.  Zero coefficients are
    dropped on construction, keys are normalized to PauliTriple, and values
    must be int or Fraction.
    """

    __slots__ = ("n", "coeffs")
    n: int
    coeffs: Mapping[PauliTriple, Coeff]

    def __init__(self, n: int, coeffs: Mapping | None = None) -> None:
        clean = {}
        for k, v in (coeffs or {}).items():
            v = _canon_value(v)
            if v:
                clean[as_triple(k).check(n)] = v
        self._set(n, clean)

    @classmethod
    def zero(cls, n: int) -> "SymOpVector":
        return cls(n, {})

    @classmethod
    def unit(cls, t, n: int) -> "SymOpVector":
        return cls(n, {as_triple(t): 1})

    @classmethod
    def from_ranks(cls, n: int, coeffs: Mapping[int, Coeff]) -> "SymOpVector":
        """Vector from engine coordinates keyed by triple_rank."""
        return cls(n, {rank_triple(r): c for r, c in coeffs.items()})

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, t) -> Coeff:
        return self.coeffs.get(as_triple(t), 0)

    def items(self) -> Iterator[tuple[PauliTriple, Coeff]]:
        return iter(self.coeffs.items())

    def support(self) -> tuple[PauliTriple, ...]:
        return tuple(sorted(self.coeffs, key=triple_rank))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def _require_same(self, other: "SymOpVector") -> None:
        if self.n != other.n:
            raise DimensionMismatch(f"qubit counts differ: {self.n} vs {other.n}")

    def __add__(self, other: "SymOpVector") -> "SymOpVector":
        self._require_same(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return SymOpVector(self.n, out)

    def __sub__(self, other: "SymOpVector") -> "SymOpVector":
        return self + (-other)

    def __neg__(self) -> "SymOpVector":
        return SymOpVector(self.n, {k: -v for k, v in self.coeffs.items()})

    def scaled(self, c: Coeff) -> "SymOpVector":
        c = _canon_value(c)
        return SymOpVector(self.n, {k: v * c for k, v in self.coeffs.items()})

    def text(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for t in self.support():
            parts.append(f"{frac_text(self.coeffs[t])}*({t.text()})")
        return " + ".join(parts)

    def to_jsonable(self) -> dict[str, str]:
        return {t.text(): frac_text(self.coeffs[t]) for t in self.support()}


def frac_text(v: Coeff) -> str:
    """Exact rational as 'p' or 'p/q' text."""
    f = Fraction(v)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


class GeneratorSet(_Frozen):
    """Ordered generators for a Lie closure; zero and duplicate members are
    dropped on construction, and a set with nothing left is rejected.

    label is a display tag ('G2', 'Gk:4', or 'custom'); k is the body count
    for the k-body family and None otherwise.
    """

    __slots__ = ("n", "members", "label", "k")
    n: int
    members: tuple[SymOpVector, ...]
    label: str
    k: int | None

    def __init__(self, n: int, members, label: str = "custom", k: int | None = None) -> None:
        kept = []
        seen = set()
        for g in members:
            if g.n != n:
                raise DimensionMismatch("generator qubit count differs from set")
            if g.is_zero:
                continue
            key = tuple(sorted(g.coeffs.items()))
            if key not in seen:
                seen.add(key)
                kept.append(g)
        if not kept:
            raise ConstraintError("generator set must contain a nonzero member")
        self._set(n, tuple(kept), label, k)


def preset_generators(label: str, n: int, k: int | None = None) -> GeneratorSet:
    """Build one of the named generator families.

    G1 is the single uniform X field, G1prime adds the uniform Y field, G2
    adds the 2-body ZZ sum, and Gk extends G2 with every uniform Z-type term
    up to k bodies (2 <= k <= n).
    """
    if n < 1:
        raise ConstraintError("qubit count must be positive")

    def units(*ts):
        return tuple(SymOpVector.unit(t, n) for t in ts)

    if label == "G1":
        return GeneratorSet(n, units((1, 0, 0)), "G1")
    if label == "G1prime":
        return GeneratorSet(n, units((1, 0, 0), (0, 1, 0)), "G1prime")
    if label == "G2":
        if n < 2:
            raise ConstraintError("G2 needs at least 2 qubits")
        return GeneratorSet(n, units((1, 0, 0), (0, 1, 0), (0, 0, 2)), "G2", k=2)
    if label == "Gk":
        if k is None:
            raise ConstraintError("Gk needs a body count k")
        if not 2 <= k <= n:
            raise ConstraintError(f"Gk needs 2 <= k <= n, got k={k}, n={n}")
        ts = [(1, 0, 0), (0, 1, 0)] + [(0, 0, kap) for kap in range(2, k + 1)]
        return GeneratorSet(n, units(*ts), f"Gk:{k}", k=k)
    raise ConstraintError(f"unknown preset {label!r}")


def parse_generator_spec(text: str, n: int) -> GeneratorSet:
    """Parse a generator-set argument.

    Accepts a preset name ('G1', 'G1prime', 'G2', 'Gk:<k>') or a
    semicolon-separated list of triples 'kx,ky,kz; kx,ky,kz; ...'.
    """
    if n < 1:
        raise ConstraintError("qubit count must be positive")
    text = text.strip()
    if text in ("G1", "G1prime", "G2"):
        return preset_generators(text, n)
    if text.startswith("Gk:"):
        try:
            k = int(text[3:])
        except ValueError as exc:
            raise ConstraintError(f"bad body count in {text!r}") from exc
        return preset_generators("Gk", n, k=k)
    members = tuple(
        SymOpVector.unit(PauliTriple.from_text(part.strip()), n)
        for part in text.split(";")
        if part.strip()
    )
    if not members:
        raise ConstraintError("empty generator specification")
    return GeneratorSet(n, members, "custom")


def check_qubits(n: int, cap: int, what: str) -> None:
    """Raise ResourceLimitError when n exceeds a documented cap."""
    if n > cap:
        raise ResourceLimitError(f"{what} is capped at n <= {cap}, got n = {n}")
