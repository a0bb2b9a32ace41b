"""Float reference for the sector layer: the spin-coupled basis.

A real orthogonal change of basis built from sequential angular-momentum
coupling brings every equivariant operator to block-diagonal form: each
sector mu carries d paths of multiplicity m = n - 2*mu + 1, and an
equivariant operator acts as the identity across paths and as one m x m
matrix on the magnetic index.  This module builds that basis in floats,
projects operators onto their per-sector blocks with an off-pattern
tolerance, and ranks the blocks of a closure basis with a float tolerance.
It is the test oracle for the exact blocks of permlie.schur.

The dense matrix of P_t is a sum of signed permutation matrices, one per word
of the orbit: a word with X-or-Y mask x, Y-or-Z mask z and ny Y letters maps
|i> to i**ny * (-1)**popcount(i & z) |i ^ x>, so each word costs one update of
2^n entries and the entries stay exact small Gaussian integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import sqrt
from typing import Sequence

import numpy as np

from permlie.linalg import SparseEchelon
from permlie.oracle import orbit_words
from permlie.schur import SectorSpan, SubspaceControlReport, isotypic_table
from permlie.symops import (
    ConstraintError,
    DimensionMismatch,
    PauliTriple,
    SymOpVector,
    VerificationError,
    check_qubits,
)
from reference import row_vectors, word_letters

SCHUR_BUILD_CAP = 8
UNITARITY_TOL = 1e-12
BLOCK_TOL = 1e-9
RANK_TOL = 1e-8


@dataclass(frozen=True)
class SchurTransform:
    """Orthogonal matrix whose columns are coupled total-spin states.

    Columns are grouped by sector (mu ascending), then by coupling path in
    lexicographic order of the doubled-spin tuples, then by magnetic index
    descending.  Within a sector the layout is path-major, so an equivariant
    operator conjugates to identity_d (x) A_mu."""

    n: int
    matrix: np.ndarray
    blocks: tuple[IsotypicBlock, ...]
    offsets: tuple[int, ...]
    paths: tuple[tuple[tuple[int, ...], ...], ...]

    def sector_slice(self, mu: int) -> slice:
        b = self.blocks[mu]
        o = self.offsets[mu]
        return slice(o, o + b.d * b.m)


def build_schur_transform(n: int) -> SchurTransform:
    """Sequential pairwise coupling of n spin-1/2 factors.

    Uses the standard real recoupling coefficients, |0> as the up state, and
    appends each new qubit as the least significant index factor.  The result
    is validated against the sector table and checked orthonormal to
    UNITARITY_TOL before being returned.
    """
    check_qubits(n, SCHUR_BUILD_CAP, "coupled-basis construction")
    if n < 1:
        raise ConstraintError("qubit count must be positive")
    # path -> list of state vectors, magnetic index descending
    states: dict[tuple[int, ...], list[np.ndarray]] = {
        (1,): [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    }
    for m in range(1, n):
        nxt: dict[tuple[int, ...], list[np.ndarray]] = {}
        dim = 1 << (m + 1)
        for path, vecs in states.items():
            j2 = path[-1]
            den = 2 * (j2 + 1)
            for j2n in (j2 + 1, j2 - 1):
                if j2n < 0:
                    continue
                newvecs = []
                for idx in range(j2n + 1):
                    m2n = j2n - 2 * idx
                    vec = np.zeros(dim)
                    if abs(m2n - 1) <= j2:
                        num = j2 + m2n + 1 if j2n > j2 else j2 - m2n + 1
                        c = sqrt(num / den) if j2n > j2 else -sqrt(num / den)
                        vec[0::2] = c * vecs[(j2 - (m2n - 1)) // 2]
                    if abs(m2n + 1) <= j2:
                        num = j2 - m2n + 1 if j2n > j2 else j2 + m2n + 1
                        vec[1::2] = sqrt(num / den) * vecs[(j2 - (m2n + 1)) // 2]
                    newvecs.append(vec)
                nxt[path + (j2n,)] = newvecs
        states = nxt

    blocks = isotypic_table(n)
    size = 1 << n
    matrix = np.zeros((size, size))
    offsets = []
    sector_paths = []
    col = 0
    for b in blocks:
        offsets.append(col)
        j2_final = n - 2 * b.mu
        paths = sorted(p for p in states if p[-1] == j2_final)
        if len(paths) != b.d:
            raise VerificationError(
                f"sector mu={b.mu} produced {len(paths)} paths, expected {b.d}"
            )
        sector_paths.append(tuple(paths))
        for p in paths:
            for vec in states[p]:
                matrix[:, col] = vec
                col += 1
    gram_err = np.abs(matrix.T @ matrix - np.eye(size)).max()
    if gram_err > UNITARITY_TOL:
        raise VerificationError(f"coupled basis not orthonormal: deviation {gram_err:.2e}")
    return SchurTransform(n, matrix, blocks, tuple(offsets), tuple(sector_paths))


_PHASE = (1, 1j, -1, -1j)


@lru_cache(maxsize=None)
def _class_matrix(t: PauliTriple, n: int) -> np.ndarray:
    """Dense matrix of the symmetrized string P_t (float precision).

    Each word is a signed permutation matrix: with x the mask of its X or Y
    letters, z the mask of its Y or Z letters and ny its Y count (qubit j on
    index bit n-1-j), it maps |i> to i**ny * (-1)**popcount(i & z) |i ^ x>.
    """
    size = 1 << n
    idx = np.arange(size)
    parity = np.zeros(size, dtype=int)
    for j in range(n):
        parity ^= (idx >> j) & 1
    sign = 1 - 2 * parity  # (-1)**popcount(k)
    out = np.zeros((size, size), dtype=complex)
    for w in orbit_words(t, n):
        x = z = ny = 0
        for j, letter in enumerate(word_letters(w, n)):
            bit = 1 << (n - 1 - j)
            if letter in (1, 2):
                x |= bit
            if letter in (2, 3):
                z |= bit
            ny += letter == 2
        out[idx ^ x, idx] += _PHASE[ny & 3] * sign[idx & z]
    return out


def dense_matrix(v: SymOpVector) -> np.ndarray:
    """Matrix of the Hermitian part sum_t c_t P_t (the i factor dropped)."""
    size = 1 << v.n
    out = np.zeros((size, size), dtype=complex)
    for t, c in v.items():
        out += float(c) * _class_matrix(t, v.n)
    return out


def permutation_matrix(perm: Sequence[int], n: int) -> np.ndarray:
    """Qubit-relabeling operator sending slot j to slot perm[j].

    Slot 0 is the most significant index bit, matching the coupling order.
    """
    if sorted(perm) != list(range(n)):
        raise ConstraintError("perm must be a permutation of range(n)")
    size = 1 << n
    out = np.zeros((size, size))
    for i in range(size):
        bits = [(i >> (n - 1 - j)) & 1 for j in range(n)]
        k = 0
        for j, bit in enumerate(bits):
            k |= bit << (n - 1 - perm[j])
        out[k, i] = 1.0
    return out


def block_project(
    v: SymOpVector, st: SchurTransform, tol: float = BLOCK_TOL
) -> list[np.ndarray]:
    """Per-sector m x m blocks of an equivariant operator.

    Conjugates by the coupled basis and checks the exact block pattern: zero
    between sectors, identical copies across paths within a sector.  Any
    off-pattern magnitude above tol raises, since equivariant inputs cannot
    produce one without an upstream bug.
    """
    if v.n != st.n:
        raise DimensionMismatch("vector and transform disagree on qubit count")
    S = st.matrix.T @ dense_matrix(v) @ st.matrix
    blocks = []
    for b in st.blocks:
        sl = st.sector_slice(b.mu)
        inside = S[sl, sl].reshape(b.d, b.m, b.d, b.m)
        mean = np.trace(inside, axis1=0, axis2=2) / b.d
        # copy (p, q) must be mean when p == q and zero otherwise
        pattern = np.eye(b.d)[:, None, :, None] * mean[None, :, None, :]
        worst = np.abs(inside - pattern).max()
        # cross-sector leakage
        before = np.abs(S[sl, : sl.start]).max() if sl.start else 0.0
        after = np.abs(S[sl, sl.stop :]).max() if sl.stop < S.shape[1] else 0.0
        worst = max(worst, before, after)
        if worst > tol:
            raise VerificationError(
                f"block pattern violated in sector mu={b.mu}: deviation {worst:.2e}"
            )
        blocks.append(mean)
    return blocks


def _traceless_coords(a: np.ndarray) -> np.ndarray:
    m = a.shape[0]
    t = a - (np.trace(a) / m) * np.eye(m)
    return np.concatenate([t.real.ravel(), t.imag.ravel()])


def certify_subspace_control(
    n: int, basis: SparseEchelon, st: SchurTransform | None = None, tol: float = RANK_TOL
) -> SubspaceControlReport:
    """Measure how much of each sector's traceless algebra the span of a
    closure's echelon reaches at n qubits.

    Projects every basis row into its sector blocks and computes real ranks.
    The span dimensions plus the rank of the per-sector trace tuples must add
    up to the exact closure dimension; that cross-check ties the float ranks
    back to proven integer arithmetic.
    """
    check_qubits(n, SCHUR_BUILD_CAP, "sector-span certification")
    if st is None:
        st = build_schur_transform(n)
    if st.n != n:
        raise DimensionMismatch("basis and transform disagree on qubit count")
    rows = row_vectors(n, basis)
    per_sector: list[list[np.ndarray]] = [[] for _ in st.blocks]
    traces = []
    for row in rows:
        blocks = block_project(row, st)
        traces.append([np.trace(a).real for a in blocks])
        for i, a in enumerate(blocks):
            per_sector[i].append(_traceless_coords(a))
    sectors = []
    for b, vecs in zip(st.blocks, per_sector):
        mat = np.array(vecs)
        span = int(np.linalg.matrix_rank(mat, tol)) if mat.size else 0
        sectors.append(SectorSpan(b.mu, b.m, span, b.m * b.m - 1))
    tr = np.array(traces)
    trace_rank = int(np.linalg.matrix_rank(tr, tol)) if tr.size else 0
    return SubspaceControlReport(
        n=n,
        closure_dim=basis.rank,
        sectors=tuple(sectors),
        trace_rank=trace_rank,
    )
