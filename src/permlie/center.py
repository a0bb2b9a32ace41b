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

from fractions import Fraction
from math import comb, factorial
from typing import NamedTuple

from .closure import lie_closure
from .linalg import SparseEchelon, rank_of
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

# The largest n verify_center accepts: the largest n for which
# `center --n n --json -` finished as a process in under 60 s on each of
# three runs on a 2-vCPU host (n = 144: 50.6, 52.9 and 54.1 s, 799 MB peak
# RSS; n = 148 took 66.8 s).  The G2 closure of the commute certificate is
# most of it: at n = 100 in process it took 9.3 s and the X/Y solve 4.0 s.
CENTER_CAP = 144

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
    """Outcome of the full centralizer verification at one n.

    closure_dim is the rank of the spanning closure (G2, or G1prime at
    n = 1) and span_rank the rank after the C_mu join it; the
    certificate needs span_rank == C(n+3,3).
    """

    n: int
    expected_dim: int
    commute_ok: bool
    independent_ok: bool
    solved_dim: int
    closure_dim: int
    span_rank: int

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
            "closure_dim": self.closure_dim,
            "span_rank": self.span_rank,
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
    """Generators whose closure plus span{C_mu} is the whole algebra.

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
      with each generator in G.  (2) The C_mu, inserted into the echelon of
      a fresh lie_closure(G), raise its rank to C(n+3,3), the dimension of
      the whole algebra.  The centralizer of one element is a Lie
      subalgebra, so (1) makes each C_mu commute with all of closure(G), and
      by (2) every P_t is a closure element plus a combination of the C_nu.
      So [C_mu, P_t] is a combination of the [C_mu, C_nu], which vanish
      by the next point.
    * Why [C_mu, C_nu] = 0 with no bracket computed.  By Jacobi and (1),
      [X, [C_mu, C_nu]] = [[X, C_mu], C_nu] + [C_mu, [X, C_nu]] = 0, and the
      same for Y, so [C_mu, C_nu] lies in ker ad_X ∩ ker ad_Y.  The solve
      below shows that kernel has dimension floor(n/2)+1; it contains the
      floor(n/2)+1 independent C_lambda by (1), so it is span{C_lambda},
      whose elements live on triples with every letter count even.
      Transposition fixes X and Z and negates Y, so P_t^T = (-1)^ky(t) P_t;
      applied to [P_a, P_b] it gives every structure constant of the
      bracket the grading ky(u) = ky(a) + ky(b) + 1 (mod 2).  The C_nu have
      even ky throughout, so [C_mu, C_nu] lives on odd ky only, and the two
      supports are disjoint: [C_mu, C_nu] = 0.  This step holds exactly
      when solved_dim == expected_dim and independent_ok, which ok requires.
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
    size = comb(n + 3, 3)
    cs = [by_rank(make_C(mu, n).coeffs) for mu in range(num_c)]

    gens = spanning_generators(n)
    commute_ok = not any(
        table.bracket_coeffs(c, by_rank(g.coeffs)) for c in cs for g in gens.members
    )
    # a closure of its own: the C_mu are inserted into its echelon
    basis = lie_closure(gens).basis
    closure_dim = basis.rank
    basis.extend(cs)
    span_rank = basis.rank
    commute_ok = commute_ok and span_rank == size

    independent_ok = rank_of(cs) == num_c

    solved_dim = size - _ad_kernel_system(table, FIELDS).rank
    return CenterReport(
        n=n,
        expected_dim=num_c,
        commute_ok=commute_ok,
        independent_ok=independent_ok,
        solved_dim=solved_dim,
        closure_dim=closure_dim,
        span_rank=span_rank,
    )
