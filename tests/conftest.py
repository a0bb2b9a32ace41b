"""Shared fixtures: ctx.closure(label, n, k), which builds each preset
closure once per test session (the package keeps no closure between
calls), one_stage(label, n, k), its oracle by the one-stage worklist,
and one structure table per qubit count; the generator sets the closure
and sector tests share: every preset to a given n and the hypothesis
strategies of custom sets; and an empty sector-ledger cache at the start
of every test."""

from datetime import timedelta
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import strategies as st

from permlie import (
    GeneratorSet,
    StructureTable,
    SymOpVector,
    all_triples,
    lie_closure,
    preset_generators,
    schur,
)
from reference import one_stage_closure


# Per-example deadlines of the custom_generator_sets tests.  In 1,500
# examples of each, the slowest took 4.8 s in the test that also runs the
# word oracle and 0.22 s in the others (medians 0.1 to 0.7 ms), so these
# fail a slowdown of an order of magnitude or more on the heaviest examples.
# Hypothesis checks a deadline once an example has ended: a runaway example
# still runs to its end before it fails.
ORACLE_DEADLINE = timedelta(seconds=30)
ENGINE_DEADLINE = timedelta(seconds=3)
# The deadline of the custom-set tests that reach n = 7.  Of 400 random sets
# at n = 7, closing one and ranking its central and sector traces took
# 25 ms at the median, 5.3 s at the 99th percentile and 6.9 s at most, on
# a 2-vCPU host: a few dense sets spend seconds in echelon inserts.
WIDE_DEADLINE = timedelta(seconds=30)


def custom_vectors(n):
    """Vectors at n with 1-2 small nonzero integer coefficients on random triples."""
    coeffs = st.integers(-3, 3).filter(bool)
    vector = st.dictionaries(st.sampled_from(all_triples(n)), coeffs, min_size=1, max_size=2)
    return vector.map(lambda m: SymOpVector(n, m))


@st.composite
def custom_generator_sets(draw, max_n=5):
    """1-3 custom_vectors, 2 <= n <= max_n."""
    n = draw(st.integers(2, max_n))
    members = draw(st.lists(custom_vectors(n), min_size=1, max_size=3))
    return GeneratorSet(n, tuple(members), "custom")


@st.composite
def g2_plus_custom_sets(draw, max_n=5):
    """G2's members, each scaled by a small nonzero integer, plus 1-2
    custom_vectors, 2 <= n <= max_n: sets that are mostly semi-universal."""
    n = draw(st.integers(2, max_n))
    scales = draw(st.lists(st.integers(-3, 3).filter(bool), min_size=3, max_size=3))
    g2 = tuple(g.scaled(c) for g, c in zip(preset_generators("G2", n).members, scales))
    extra = draw(st.lists(custom_vectors(n), min_size=1, max_size=2))
    return GeneratorSet(n, g2 + tuple(extra), "custom")


def preset_cases(max_n):
    """(label, n, k) of every preset generator set at n <= max_n: G1,
    G1prime, G2 and every Gk:k."""
    cases = []
    for n in range(1, max_n + 1):
        cases += [("G1", n, None), ("G1prime", n, None)]
        if n >= 2:
            cases.append(("G2", n, None))
        cases += [("Gk", n, k) for k in range(2, n + 1)]
    return cases


def case_ids(cases):
    return [f"{label}{'' if k is None else f':{k}'}-n{n}" for label, n, k in cases]


@pytest.fixture(scope="session")
def ctx():
    """ctx.closure(label, n, k=None): the closure of a preset family, one
    lie_closure per (label, n, k), as verify's ladder walk builds it."""
    @lru_cache(maxsize=None)
    def built(label, n, k):
        return lie_closure(preset_generators(label, n, k=k))

    return SimpleNamespace(closure=lambda label, n, k=None: built(label, n, k))


@pytest.fixture(scope="session")
def one_stage():
    """one_stage(label, n, k=None): (echelon, bracket count) of a preset's
    closure by the one-stage worklist of tests/reference.py, the oracle of
    lie_closure's closed form, built once per test session."""
    @lru_cache(maxsize=None)
    def built(label, n, k):
        return one_stage_closure(preset_generators(label, n, k=k))

    return lambda label, n, k=None: built(label, n, k)


@pytest.fixture(scope="session")
def tables():
    """tables(n): one StructureTable per n for the session.  A table stores
    no bracket; the seed columns behind it are memoized per process."""
    return lru_cache(maxsize=None)(StructureTable)


@pytest.fixture(autouse=True)
def fresh_ledgers():
    """Empty the per-process sector-ledger cache before each test, so that
    no test is served a ledger an earlier test proved, and cache_info()
    counts this test's lookups alone."""
    schur._ledger.cache_clear()


@pytest.fixture
def plant(monkeypatch):
    """plant(mu, t, *keys) adds 1 to those entries of the exact block
    B_mu(t) = G_mu(t) D^-2 in every table schur.sector_block builds for the
    rest of the test; a key named twice gets 2."""
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
