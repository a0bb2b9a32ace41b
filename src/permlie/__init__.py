"""Exact Lie-algebra engine for permutation-equivariant qubit operators.

Operators invariant under every qubit permutation expand over symmetrized
Pauli strings P_(kx,ky,kz); this package computes their commutators with
exact integer structure constants, takes Lie closures of generator sets,
verifies the centralizer and class-sum identities, certifies universality
verdicts, and cross-checks everything against an independent word-level
oracle.  A worklist closure holds the echelon it grew (ClosureRun.basis).
A closure the sector ledger proves semi-universal holds none: its
dimension, verdicts, exempt levels and left-out triples are read off its
generators, and semi_universal_basis writes its rows in closed form, with
no bracket, only when a reader asks for them.  verify's thm3, thm4 and
thm6 suites check the rows' central residuals.  Spin
sectors are exact too: the block of every P_t on each sector is an
integer matrix read off one generating polynomial (permlie.schur), so the
sector certificates are exact.  The package uses the standard library only.
"""

from .center import (
    CenterReport,
    make_C,
    make_L,
    make_L_direct,
    verify_center,
)
from .closure import (
    ClosureReport,
    ClosureRun,
    Verdicts,
    build_report,
    is_universal_pair,
    lie_closure,
    predicted_dim,
    semi_universal_basis,
)
from .erratum import (
    ErratumCase,
    ErratumReport,
    build_abc,
    printed_commutators,
    relevant_support,
    to_printed_convention,
    verify_printed_commutators,
)
from .linalg import SparseEchelon
from .oracle import (
    DenseOp,
    class_sum,
    dense_bracket,
    dense_closure,
    densify,
    orbit_words,
    symmetrize,
)
from .schur import (
    IsotypicBlock,
    SubspaceControlReport,
    certify_subspace_control,
    isotypic_table,
    sector_block,
    sector_check,
    sector_ledger,
    triple_block,
)
from .structure import StructureTable, compare_tables, orbit_bracket
from .symops import (
    AmbientDims,
    ConstraintError,
    DimensionMismatch,
    GeneratorSet,
    PauliTriple,
    ResourceLimitError,
    SymOpVector,
    VerificationError,
    all_triples,
    ambient_dims,
    as_triple,
    by_rank,
    check_qubits,
    frac_text,
    orbit_size,
    parse_generator_spec,
    preset_generators,
    rank_triple,
    triple_rank,
)
from .verify import SELECTORS, SuiteReport, run_selector

__version__ = "0.1.0"
