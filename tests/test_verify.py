"""The k-body ladder suites of `verify` (thm1, thm3, thm4, thm5, thm6,
cor1): one closure per case, each proven by the sector ledger with no
bracket, and G2 as the k = 2 rung of Gk."""

import pytest

from permlie import lie_closure, run_selector, verify

LADDER = ("thm1", "thm3", "thm4", "thm5", "thm6", "cor1")


@pytest.mark.parametrize("selector", LADDER)
def test_one_closure_per_case(monkeypatch, selector):
    """One lie_closure per case, of G2 at each n or of Gk:k at each (n, k),
    with no (label, n, k) repeats and no bracket."""
    built = []

    def counted(gens, *args, **kwargs):
        run = lie_closure(gens, *args, **kwargs)
        built.append((gens.label, gens.n, gens.k, run.iterations))
        return run

    monkeypatch.setattr(verify, "lie_closure", counted)
    cases = run_selector(selector, 2, 6).cases
    if "k" in cases[0].params:
        want = [(f"Gk:{c.params['k']}", c.params["n"], c.params["k"], 0) for c in cases]
    else:
        want = [("G2", c.params["n"], 2, 0) for c in cases]
    assert built == want


def rung(selector, *keys):
    """(n, details[key]...) per case of selector over n = 2..8, at k = 2
    for a Gk suite."""
    return [(c.params["n"], *(c.details[key] for key in keys))
            for c in run_selector(selector, 2, 8).cases if c.params.get("k", 2) == 2]


def test_g2_is_the_k2_rung():
    assert rung("thm1", "dim", "predicted") == rung("thm5", "dim", "predicted")
    assert rung("thm3", "pattern") == rung("thm6", "pattern")
