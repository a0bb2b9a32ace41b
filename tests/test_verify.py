"""The k-body ladder suites of `verify` (thm1, thm3, thm4, thm5, thm6,
cor1): one closure per case, each proven by the sector ledger with no
bracket, G2 as the k = 2 rung of Gk, and the conservation check of thm3,
thm4 and thm6 on a closure with a planted row."""

import pytest

from permlie import lie_closure, make_C, run_selector, verify
from permlie.cli import main
from permlie.linalg import integer_row
from permlie.symops import by_rank

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


def leaky_closure(gens):
    """lie_closure with C_2's row added to its echelon: a row that moves the
    central projection at level 2, which G2 and Gk for k < 4 leave
    untouched."""
    run = lie_closure(gens)
    run.basis.insert(integer_row(by_rank(make_C(2, gens.n).coeffs)))
    return run


class TestConservationCheck:
    """thm3, thm4 and thm6 check the closure rows themselves: a row that
    breaks conservation fails them, though the generators' pattern and the
    verdicts read off them are unchanged."""

    @pytest.fixture(autouse=True)
    def leak(self, monkeypatch):
        monkeypatch.setattr(verify, "lie_closure", leaky_closure)

    def test_central_projection_suites_fail(self):
        (case,) = run_selector("thm3", 6, 6).cases
        assert not case.ok and case.details["conserved"] is False
        assert case.details["pattern"] == {"0": True, "1": False, "2": True, "3": True}
        cases = run_selector("thm6", 6, 6).cases
        assert [(c.params["k"], c.details["conserved"]) for c in cases] == [
            (k, k >= 4) for k in range(2, 7)]
        assert [c.ok for c in cases] == [k >= 4 for k in range(2, 7)]

    def test_membership_suite_fails(self):
        (case,) = run_selector("thm4", 6, 6).cases
        assert not case.ok
        assert case.details["all_zero"] is False and case.details["c1_reachable"] is True

    def test_verify_exits_2(self, capsys):
        assert main(["verify", "thm3", "--n", "6"]) == 2
        assert "[FAIL] g2-central-projections n=6" in capsys.readouterr().out
