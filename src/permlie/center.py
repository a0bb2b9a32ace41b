"""Center of the equivariant algebra: invariant elements and class sums.

The centralizer of the equivariant algebra inside itself is spanned by one
element C_mu per integer 0 <= mu <= n/2, supported on even triples at level
2*mu with multinomial weights.  The same span is generated by the
transposition class sums L_mu of the symmetric group, and the exact linear
recombination between the two families is implemented here in both
directions: as a closed-form coefficient table and as a C-linear
combination.  verify_center proves the span exactly: the C_mu commute with
generators whose sector ledger is full, and the common kernel of ad_X and
ad_Y, solved with no C_mu, has their dimension.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import NamedTuple

from .linalg import SparseEchelon, rank_of
from .schur import sector_ledger
from .structure import StructureTable
from .symops import (
    ConstraintError,
    GeneratorSet,
    PauliTriple,
    SymOpVector,
    by_rank,
    check_qubits,
    preset_generators,
    triple_rank,
)

# The largest n verify_center accepts.  `center --n 200 --json -` finished
# as a process in 32.1, 31.3 and 31.3 s on a 2-vCPU host, at 1.6 GB peak
# RSS (n = 144: 11.2 s, 651 MB).  The X/Y solve is nearly all of it: at
# n = 100 in process it took 3.0 s, the commute brackets 0.2 s and the
# sector ledger 0.04 s.  Time and memory grow about as n^3, so larger n
# was not run on a shared host.
CENTER_CAP = 200

# The uniform one-body fields X and Y (the members of G1prime).
FIELDS = (PauliTriple(1, 0, 0), PauliTriple(0, 1, 0))


def _check_mu(mu: int, n: int) -> None:
    if mu < 0 or 2 * mu > n:
        raise ConstraintError(f"need 0 <= 2*mu <= n, got mu={mu}, n={n}")


def make_C(mu: int, n: int) -> SymOpVector:
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
    return SymOpVector(n, coeffs)


def make_L(mu: int, n: int) -> SymOpVector:
    """Sum of all permutation operators moving exactly mu disjoint pairs.

    Computed through the exact recombination
    L_mu = 4^-mu / (n-2mu)! * sum_{m<=mu} (n-2m)!/(mu-m)! C_m.
    """
    _check_mu(mu, n)
    scale = Fraction(1, 4**mu * factorial(n - 2 * mu))
    vec = SymOpVector.zero(n)
    for m in range(mu + 1):
        coeff = scale * Fraction(factorial(n - 2 * m), factorial(mu - m))
        vec = vec + make_C(m, n).scaled(coeff)
    return vec


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


class CenterReport(NamedTuple):
    """Outcome of the full centralizer verification at one n: the commute
    certificate, the independence of the C_mu and the dimension of the
    X/Y solve (see verify_center)."""

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
    coordinates x_s of A = sum_s x_s P_s, with s the triple rank.

    One column bracket per (P_s, g); the equation for (g, u) collects the
    coefficient of P_u in every [P_s, P_g].  The nullspace over the ranks
    range(C(n+3,3)) is the common kernel of the ad_g.  The equations go in
    by their smallest key, highest first, so a new pivot mostly lies below
    every key of the stored rows and back-substitution seldom has a row to
    reduce.
    """
    constraints: dict[tuple[int, int], dict] = {}
    for s in range(comb(table.n + 3, 3)):
        for g in map(triple_rank, gens):
            for u, c in table.bracket_coeffs({s: 1}, {g: 1}).items():
                constraints.setdefault((g, u), {})[s] = c
    system = SparseEchelon()
    system.extend(sorted(constraints.values(), key=min, reverse=True))
    return system


def spanning_generators(n: int) -> GeneratorSet:
    """Generators whose closure contains the derived algebra [A, A], as
    their sector ledger proves (schur.sector_ledger).

    G2 from two qubits on (the semi-universality theorem); at n = 1, where
    G2 does not exist, G1prime, whose X and Y close on su(2).  Both contain
    the fields X and Y.
    """
    return preset_generators("G2" if n >= 2 else "G1prime", n)


def verify_center(n: int) -> CenterReport:
    """Mechanical check that span{C_mu} is exactly the centralizer.

    Three exact stages, with G = spanning_generators(n) (G2, or G1prime at
    n = 1):

    * Commute certificate (commute_ok).  (1) Every C_mu brackets to zero
      with each generator in G.  (2) The sector ledger of G is full, so the
      closure L(G) contains D = [A, A], A the whole algebra.  The
      centralizer of one element is a Lie subalgebra, so by (1) it contains
      L(G), and by (2) D.  A is the Lie algebra of a compact group, so
      A = D + Z(A) with Z(A) its center, and C_mu commutes with all of A.
      Soundness rests on the ledger's certificate and the exact sector
      blocks it reads, as it did when the closure's echelon was the closed
      form the ledger proves.  The certificate is sufficient only: a
      ledger that proves nothing leaves commute_ok false, though the C_mu
      may still commute.
    * Independence (independent_ok): the C_mu are linearly independent.
    * Solve (solved_dim): the common kernel of ad_X and ad_Y over the whole
      basis, where X = P_(1,0,0) and Y = P_(0,1,0) are the uniform one-body
      fields: 2*dim column brackets.  The kernel of ad over any subset of the
      algebra contains the centralizer of the whole algebra, so solved_dim
      can only overcount it; with the commute certificate and independence,
      solved_dim == floor(n/2)+1 proves that span{C_mu} is the centralizer.
      The solve never uses the C_mu, so it is an independent recomputation
      rather than a restatement.

    Why X and Y are enough: by Schur-Weyl duality the collective fields
    generate, as an associative algebra, every operator that commutes with
    the qubit permutations.  An element of the algebra that commutes with X
    and Y thus commutes with all of it.  Soundness does not rest on this;
    it only explains why the count comes out exact.
    """
    check_qubits(n, CENTER_CAP, "centralizer verification")
    table = StructureTable(n)
    num_c = n // 2 + 1
    cs = [by_rank(make_C(mu, n).coeffs) for mu in range(num_c)]

    gens = spanning_generators(n)
    commute_ok = not any(
        table.bracket_coeffs(c, by_rank(g.coeffs)) for c in cs for g in gens.members
    ) and sector_ledger(gens).full

    independent_ok = rank_of(cs) == num_c

    solved_dim = comb(n + 3, 3) - _ad_kernel_system(table, FIELDS).rank
    return CenterReport(
        n=n,
        expected_dim=num_c,
        commute_ok=commute_ok,
        independent_ok=independent_ok,
        solved_dim=solved_dim,
    )
