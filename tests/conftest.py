"""Shared fixtures: ctx.closure(label, n, k), which builds each preset
closure once per test session (the package keeps no closure between
calls), and one structure table per qubit count."""

from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest

from permlie import StructureTable, lie_closure, preset_generators, schur


@pytest.fixture(scope="session")
def ctx():
    """ctx.closure(label, n, k=None): the closure of a preset family."""
    built = lru_cache(maxsize=None)(
        lambda label, n, k: lie_closure(preset_generators(label, n, k=k)))
    return SimpleNamespace(closure=lambda label, n, k=None: built(label, n, k))


@pytest.fixture(scope="session")
def tables():
    """tables(n): one StructureTable per n for the session.  A table stores
    no bracket; the seed columns behind it are memoized per process."""
    return lru_cache(maxsize=None)(StructureTable)


@pytest.fixture
def plant(monkeypatch):
    """plant(mu, t, *keys) adds 1 to those entries of the exact block
    G_mu(t) in every table schur.sector_block builds for the rest of the
    test."""
    build = schur.sector_block

    def apply(mu, t, *keys):
        def perturbed(n, nu):
            table = build(n, nu)
            if nu == mu:
                for key in keys:
                    table[t][key] = table[t].get(key, 0) + 1
            return table

        monkeypatch.setattr(schur, "sector_block", perturbed)

    return apply


# Single-qubit Pauli matrices for the brute-force cross-checks that tests
# build on their own, independently of the package's dense engine.
PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_word(word: str) -> np.ndarray:
    """Dense matrix of a Pauli word given as a string like 'XIZ'.

    The first character acts on the highest-order tensor factor, matching
    the convention used by the package's permutation matrices.
    """
    out = PAULI[word[0]]
    for ch in word[1:]:
        out = np.kron(out, PAULI[ch])
    return out


@pytest.fixture(scope="session")
def pauli_word_matrix():
    return kron_word
