"""Center of the equivariant algebra: invariant elements and class sums.

The centralizer of the equivariant algebra inside itself is spanned by one
element C_mu per integer 0 <= mu <= n/2, supported on even triples at level
2*mu with multinomial weights.  The same span is generated by the
transposition class sums L_mu of the symmetric group, and the exact linear
recombination between the two families is implemented here in both
directions: as a closed-form coefficient table and as a C-linear
combination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .linalg import SparseEchelon
from .structure import StructureTable
from .symops import (
    ConstraintError,
    GeneratorSet,
    PauliTriple,
    SymOpVector,
    all_triples,
    check_qubits,
    trace_inner,
    triple_sort_key,
)

# The largest n verify_center accepts.  The commute scan, which brackets
# each C_mu with every basis element, dominates: as a process on a 2-vCPU
# host, `center --n 14` took 16 s, n = 15 took 28 s and n = 16 took 51 s.
CENTER_CAP = 14

# The uniform one-body fields X and Y (the members of G1prime).
FIELDS = (PauliTriple(1, 0, 0), PauliTriple(0, 1, 0))


@dataclass(frozen=True)
class CenterElement:
    mu: int
    vec: SymOpVector


@dataclass(frozen=True)
class ClassSumElement:
    mu: int
    vec: SymOpVector


def _check_mu(mu: int, n: int) -> None:
    if mu < 0 or 2 * mu > n:
        raise ConstraintError(f"need 0 <= 2*mu <= n, got mu={mu}, n={n}")


def make_C(mu: int, n: int) -> CenterElement:
    """mu-th central basis element.

    C_mu sums the even triples at level 2*mu with weights
    (2a)!(2b)!(2c)!/(a!b!c!); C_0 is the identity string.
    """
    _check_mu(mu, n)
    coeffs = {}
    for a in range(mu + 1):
        for b in range(mu - a + 1):
            c = mu - a - b
            w = (
                factorial(2 * a)
                * factorial(2 * b)
                * factorial(2 * c)
                // (factorial(a) * factorial(b) * factorial(c))
            )
            coeffs[PauliTriple(2 * a, 2 * b, 2 * c)] = w
    return CenterElement(mu, SymOpVector(n, coeffs))


def make_L(mu: int, n: int) -> ClassSumElement:
    """Sum of all permutation operators moving exactly mu disjoint pairs.

    Computed through the exact recombination
    L_mu = 4^-mu / (n-2mu)! * sum_{m<=mu} (n-2m)!/(mu-m)! C_m.
    """
    _check_mu(mu, n)
    scale = Fraction(1, 4**mu * factorial(n - 2 * mu))
    vec = SymOpVector.zero(n)
    for m in range(mu + 1):
        coeff = scale * Fraction(factorial(n - 2 * m), factorial(mu - m))
        vec = vec + make_C(m, n).vec.scaled(coeff)
    return ClassSumElement(mu, vec)


def make_L_direct(mu: int, n: int) -> SymOpVector:
    """Same class sum, from the closed per-triple coefficient formula.

    The coefficient of P_(2a,2b,2c) with a+b+c = s <= mu is
    (2a)!(2b)!(2c)!(n-2s)! / (a!b!c!(mu-s)!) scaled by 4^-mu/(n-2mu)!.
    """
    _check_mu(mu, n)
    scale = Fraction(1, 4**mu * factorial(n - 2 * mu))
    coeffs = {}
    for a in range(mu + 1):
        for b in range(mu - a + 1):
            for c in range(mu - a - b + 1):
                s = a + b + c
                num = (
                    factorial(2 * a)
                    * factorial(2 * b)
                    * factorial(2 * c)
                    * factorial(n - 2 * s)
                )
                den = factorial(a) * factorial(b) * factorial(c) * factorial(mu - s)
                coeffs[PauliTriple(2 * a, 2 * b, 2 * c)] = scale * Fraction(num, den)
    return SymOpVector(n, coeffs)


def central_projection_test(gens: GeneratorSet) -> dict[int, bool]:
    """Which central directions a generator set is trace-orthogonal to.

    Returns {mu: True if every generator pairs to zero with C_mu}.  Bracket
    flows conserve these pairings, so a False entry marks a central
    direction the closure is allowed to reach.
    """
    out = {}
    for mu in range(gens.n // 2 + 1):
        cv = make_C(mu, gens.n).vec
        out[mu] = all(trace_inner(g, cv) == 0 for g in gens.members)
    return out


@dataclass(frozen=True)
class CenterReport:
    """Outcome of the full centralizer verification at one n."""

    n: int
    expected_dim: int
    commute_ok: bool
    independent_ok: bool
    solved_dim: int

    @property
    def ok(self) -> bool:
        return self.solved_dim == self.expected_dim and self.commute_ok and self.independent_ok

    def to_jsonable(self) -> dict:
        return {
            "n": self.n,
            "expected_dim": self.expected_dim,
            "commute_ok": self.commute_ok,
            "independent_ok": self.independent_ok,
            "solved_dim": self.solved_dim,
            "ok": self.ok,
        }


def _ad_kernel_system(
    table: StructureTable, gens: tuple[PauliTriple, ...]
) -> SparseEchelon:
    """Exact echelon of the equations [A, P_g] = 0, g in gens, on the
    coordinates x_s of A = sum_s x_s P_s.

    One table bracket per (P_s, g); the equation for (g, u) collects the
    coefficient of P_u in every [P_s, P_g].  The nullspace over
    all_triples(n) is the common kernel of the ad_g.
    """
    constraints: dict[tuple[PauliTriple, PauliTriple], dict] = {}
    for s in all_triples(table.n):
        for g in gens:
            for u, c in table.bracket(s, g).items():
                constraints.setdefault((g, u), {})[s] = c
    system = SparseEchelon(key_sort=triple_sort_key)
    system.extend(constraints.values())
    return system


def verify_center(n: int, table: StructureTable | None = None) -> CenterReport:
    """Mechanical check that span{C_mu} is exactly the centralizer.

    Three exact stages.  The commute scan brackets every C_mu with every
    basis element P_t, so span{C_mu} lies in the centralizer.  The C_mu are
    linearly independent.  The solve computes the common kernel of ad_X and
    ad_Y over the whole basis, where X = P_(1,0,0) and Y = P_(0,1,0) are the
    uniform one-body fields: 2*dim table brackets.

    The kernel of ad over any subset of the algebra contains the centralizer
    of the whole algebra, so solved_dim can only overcount it.  With the
    first two stages, solved_dim == floor(n/2)+1 therefore proves that
    span{C_mu} is the centralizer.  The solve never uses the C_mu, so it is
    an independent recomputation rather than a restatement.

    Why X and Y are enough: by Schur-Weyl duality the collective fields
    generate, as an associative algebra, every operator that commutes with
    the qubit permutations.  An element of the algebra that commutes with X
    and Y thus commutes with all of it.  Soundness does not rest on this;
    it only explains why the count comes out exact.
    """
    check_qubits(n, CENTER_CAP, "centralizer verification")
    if table is None:
        table = StructureTable(n)
    elif table.n != n:
        raise ConstraintError("table built for a different qubit count")
    num_c = n // 2 + 1
    triples = all_triples(n)
    cs = [make_C(mu, n) for mu in range(num_c)]

    commute_ok = True
    for c in cs:
        for t in triples:
            if not table.bracket_vectors(c.vec, SymOpVector.unit(t, n)).is_zero:
                commute_ok = False
                break
        if not commute_ok:
            break

    ech = SparseEchelon(key_sort=triple_sort_key)
    independent_ok = ech.extend(c.vec.coeffs for c in cs) == num_c

    solved_dim = len(triples) - _ad_kernel_system(table, FIELDS).rank
    return CenterReport(
        n=n,
        expected_dim=num_c,
        commute_ok=commute_ok,
        independent_ok=independent_ok,
        solved_dim=solved_dim,
    )
