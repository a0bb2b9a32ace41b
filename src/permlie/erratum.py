"""Recomputation of three published commutator tables in a flipped convention.

A published derivation of the k-body dimension count worked in a convention
with the sign of Y reversed and the skew factor absorbed into the basis
elements, and printed three commutators whose coefficient tables decide
whether a certain family of directions is independent.  The corrected tables
make the third commutator a linear combination of the first two (rank 2); the
uncorrected ones wrongly gave rank 3 and hence an overcount.

This module rebuilds the printed tables from the closed-form coefficient
expressions, recomputes them from scratch with the word-level oracle through
the convention map, and exposes the rank/dependence checks on the shared
support.  Conversion map between conventions, per basis element:
coefficient_printed(u) = (-1)**(ky(a)+ky(b)+ky(u)) * coefficient_engine(u).
"""

from __future__ import annotations

from typing import NamedTuple

from .linalg import rank_of
from .oracle import dense_bracket, densify, symmetrize
from .symops import (
    ConstraintError,
    PauliTriple,
    SymOpVector,
    as_triple,
    by_rank,
    triple_rank,
)


def _check_case(kbar: int, n: int) -> None:
    if kbar < 3:
        raise ConstraintError(f"coefficient tables need kbar >= 3, got {kbar}")
    if kbar > n:
        raise ConstraintError(f"tables at kbar={kbar} need at least kbar qubits, got n={n}")


class PrintedCommutator(NamedTuple):
    """One published commutator: its operands and coefficient table.

    Coefficients are in the publication's convention; `expected` maps output
    triples to printed integers.
    """

    name: str
    lhs: tuple[PauliTriple, PauliTriple]
    expected: dict


def printed_commutators(kbar: int, n: int, corrected: bool = True) -> tuple[PrintedCommutator, ...]:
    """The three printed tables at one (kbar, n).

    With corrected=False the multiplicity factors revert to the published
    pre-correction value 1 (and the pre-correction third table loses its
    lowest-level term), reproducing the faulty rank-3 configuration.
    """
    _check_case(kbar, n)
    k = kbar

    def f(value: int) -> int:
        return value if corrected else 1

    first = PrintedCommutator(
        name=f"[({k - 1},1,0),(0,0,1)]",
        lhs=(PauliTriple(k - 1, 1, 0), PauliTriple(0, 0, 1)),
        expected={
            PauliTriple(k - 2, 2, 0): -2 * f(2),
            PauliTriple(k, 0, 0): 2 * f(k),
        },
    )
    second = PrintedCommutator(
        name=f"[({k - 1},0,1),(0,1,0)]",
        lhs=(PauliTriple(k - 1, 0, 1), PauliTriple(0, 1, 0)),
        expected={
            PauliTriple(k - 2, 0, 2): 2 * f(2),
            PauliTriple(k, 0, 0): -2 * f(k),
        },
    )
    third_expected = {
        PauliTriple(k - 2, 0, 0): 2 * f((k - 2) * (n - k + 2)),
        PauliTriple(k - 2, 2, 0): -2 * f(2 * (k - 2)),
        PauliTriple(k - 2, 0, 2): -2 * f(2),
        PauliTriple(k, 0, 0): 2 * f(k * (k - 1)),
    }
    if corrected and k >= 4:
        third_expected[PauliTriple(k - 4, 2, 0)] = -4 * (n - k + 2)
    third = PrintedCommutator(
        name=f"[({k - 2},1,0),(1,0,1)]",
        lhs=(PauliTriple(k - 2, 1, 0), PauliTriple(1, 0, 1)),
        expected=third_expected,
    )
    return (first, second, third)


def to_printed_convention(vec: SymOpVector, a, b) -> dict:
    """Engine-convention bracket coefficients mapped to printed ones."""
    a = as_triple(a)
    b = as_triple(b)
    base = a.ky + b.ky
    return {u: -g if (base + u.ky) & 1 else g for u, g in vec.items()}


def relevant_support(kbar: int) -> tuple[PauliTriple, ...]:
    """The three output triples on which the rank question is decided."""
    return (
        PauliTriple(kbar - 2, 2, 0),
        PauliTriple(kbar - 2, 0, 2),
        PauliTriple(kbar, 0, 0),
    )


class ErratumCase(NamedTuple):
    """Rank analysis of the printed tables restricted to the shared support."""

    n: int
    corrected: bool
    A: SymOpVector
    B: SymOpVector
    C: SymOpVector
    rank: int
    dependence_holds: bool


def build_abc(kbar: int, n: int, corrected: bool = True) -> ErratumCase:
    """Projections A, B, C of the printed tables onto the shared support.

    The corrected tables satisfy C = (kbar-2)A - B exactly, so the span has
    rank 2; the uncorrected ones are independent (rank 3).
    """
    _check_case(kbar, n)
    support = set(relevant_support(kbar))
    vecs = []
    for pc in printed_commutators(kbar, n, corrected):
        vecs.append(
            SymOpVector(n, {t: v for t, v in pc.expected.items() if t in support})
        )
    a, b, c = vecs
    rank = rank_of(by_rank(v.coeffs) for v in vecs)
    dependence = c == a.scaled(kbar - 2) - b
    return ErratumCase(n, corrected, a, b, c, rank, dependence)


class ErratumReport(NamedTuple):
    """Outcome of recomputing every printed coefficient from the oracle."""

    n: int
    records: tuple[dict, ...]
    ok: bool


def verify_printed_commutators(kbar: int, n: int) -> ErratumReport:
    """Recompute the three corrected tables with the word-level oracle.

    Each commutator is expanded over raw Pauli words, collapsed back to
    letter-count classes, and mapped through the convention flip; the result
    must equal the printed table coefficient for coefficient, with no extra
    terms.  Word expansion caps this at n <= 6.
    """
    _check_case(kbar, n)
    records = []
    ok = True
    for pc in printed_commutators(kbar, n, corrected=True):
        a, b = pc.lhs
        engine = symmetrize(
            dense_bracket(densify(SymOpVector.unit(a, n)), densify(SymOpVector.unit(b, n)))
        )
        got = to_printed_convention(engine, a, b)
        triples = sorted(set(got) | set(pc.expected), key=triple_rank)
        for t in triples:
            printed = pc.expected.get(t)
            recomputed = got.get(t)
            match = printed == recomputed
            ok = ok and match
            records.append(
                {
                    "commutator": pc.name,
                    "triple": t.text(),
                    "printed": printed,
                    "recomputed": recomputed,
                    "match": match,
                }
            )
    return ErratumReport(n, tuple(records), ok)
