"""Named verification suites over ranges of qubit counts.

Each selector checks one mechanically provable statement family end to end
and returns a structured report: closure dimensions against closed forms,
central projections and their conservation, membership residuals, the
centralizer solve, class-sum recombination, the corrected commutator tables,
the spin-sector decomposition, and the word-level oracle agreement.  The CLI
exposes these as `permlie verify <selector>`; the test suite calls them
directly.

The six ladder suites (thm1, thm3, thm4, thm5, thm6, cor1) share one walk,
_closures, which yields the closure run of G2 at each n, or of Gk at every
2 <= k <= n, one at a time; each suite is a case function that reads one
run, which carries the generators it closed.  Each case is one
lie_closure, which the sector ledger proves with no bracket and no rows:
thm1, thm5 and cor1 read dim and verdicts, which the run reads off its
generators.  The ladder cases at one n share one ledger: every Gk is read
through its two-body part {X, Y, ZZ}, whose ledger the process proves
once (schur.sector_ledger).  thm3 and thm6 share theirs: G2 is Gk at
k = 2.  thm3, thm4 and thm6 read the rows, which the run writes in closed
form on the first read, and check on them what a `close` report reads off
the generators: no row has a central residual at a level the generators
leave untouched (_conservation).

Every case is a CaseResult and every report a SuiteReport; the `center`
and `schur` verbs build theirs with the same case builders as the prop1
and schur suites (centralizer_case, schur.sector_check).  The schur suite
reads exact sector blocks, so no suite uses floating point.

A suite whose every case needs a capped engine refuses a range that ends
above the cap, before any work, as the verbs do: prop1 above CENTER_CAP,
schur above SECTOR_CAP, oracle above WORD_QUBIT_CAP.  noteF and lemma2
check their word-oracle statements up to WORD_QUBIT_CAP only, since each
also checks a statement that holds at every n.  The other suites have no
cap.  Every suite refuses a range that starts below its floor, the default
lower end in SELECTORS, rather than run it with no case.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .center import CENTER_CAP, make_C, make_L, make_L_direct, verify_center
from .closure import is_universal_pair, lie_closure, predicted_dim
from .erratum import build_abc, verify_printed_commutators
from .linalg import SparseEchelon, integer_row, rank_of
from .oracle import WORD_QUBIT_CAP, class_sum, dense_closure, densify
from .schur import SECTOR_CAP, central_residuals, isotypic_table, sector_check
from .symops import (
    ConstraintError,
    VerificationError,
    ambient_dims,
    by_rank,
    check_qubits,
    parse_generator_spec,
    preset_generators,
)


class CaseResult(NamedTuple):
    """One checked case."""

    name: str
    params: dict
    ok: bool
    details: dict

    def to_jsonable(self) -> dict:
        return {"name": self.name, "params": self.params, "ok": self.ok, "details": self.details}


class SuiteReport(NamedTuple):
    """Cases of one suite run.  n_range is the range a verify suite was
    asked for; a verb's one n is already in its cases' params."""

    selector: str
    cases: tuple[CaseResult, ...]
    n_range: tuple[int, int] | None = None

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cases)

    def to_jsonable(self) -> dict:
        out = {
            "selector": self.selector,
            "ok": self.ok,
            "cases": [c.to_jsonable() for c in self.cases],
        }
        if self.n_range is not None:
            out["n_range"] = list(self.n_range)
        return out


def _closures(label: str, lo: int, hi: int):
    """The ladder walk: the closure run of G2 at each n in lo..hi, or of Gk
    at every 2 <= k <= n, one at a time, each by one lie_closure."""
    for n in range(lo, hi + 1):
        if label == "G2":
            yield lie_closure(preset_generators("G2", n))
            continue
        for k in range(2, n + 1):
            yield lie_closure(preset_generators(label, n, k=k))


def _dimension(run) -> tuple[bool, dict]:
    want = predicted_dim("Gk", run.n, run.gens.k)
    return run.dim == want, {"dim": run.dim, "predicted": want}


def _g2_dimension(run) -> tuple[bool, dict]:
    ok, details = _dimension(run)
    return ok, {**details, "iterations": run.iterations, "wall_time": run.wall_time}


def _conservation(run) -> tuple[frozenset[int], bool]:
    """The levels the generators touch (ClosureRun.exempt), and whether
    every closure row has a zero central residual at every other level, in
    one streamed pass over the rows.  It holds in theory (tr([a, b] C) = 0
    for central C).  Every ladder run is proven by its sector ledger, so
    its rows are the closed form's (closure.semi_universal_basis), built
    with no bracket: this checks the closed form's rows.  The bracket
    engine's cross-check is tests/reference.list_membership_check on the
    worklist's rows."""
    touched = run.exempt
    return touched, all(res.keys() <= touched for res in central_residuals(run.basis.rows()))


def _central_projections(run) -> tuple[bool, dict]:
    """Exactly the levels 1..k//2 are touched (only mu = 1 for G2), and the
    closure conserves every other central projection."""
    touched, conserved = _conservation(run)
    mus = range(run.n // 2 + 1)
    pattern = {mu: mu not in touched for mu in mus}
    expected = {mu: not 1 <= mu <= run.gens.k // 2 for mu in mus}
    return pattern == expected and conserved, {
        "pattern": {str(mu): v for mu, v in pattern.items()}, "conserved": conserved}


def _membership(run) -> tuple[bool, dict]:
    touched, clean = _conservation(run)
    c1_inside = run.basis.contains(by_rank(make_C(1, run.n).coeffs))
    return clean and c1_inside, {
        "residuals_checked": run.dim * (run.n // 2 + 1 - len(touched)), "all_zero": clean,
        "c1_reachable": c1_inside}


def _threshold(run) -> tuple[bool, dict]:
    matched, details = _dimension(run)
    dim_su = ambient_dims(run.n).dim_su
    vd = run.verdicts
    threshold = is_universal_pair(run.n, run.gens.k)
    ok = (
        matched
        and (run.dim == dim_su) == threshold
        and vd.universal == threshold
        and vd.semi_universal
    )
    return ok, {**details, "dim_su": dim_su, "universal": vd.universal,
                "semi_universal": vd.semi_universal, "threshold": threshold}


def _ladder(name: str, label: str, case: Callable) -> Callable:
    """A ladder suite: one case per closure run of the walk over label."""
    def suite(lo: int, hi: int) -> list[CaseResult]:
        return [CaseResult(name, {"n": run.n} if label == "G2" else {"n": run.n, "k": run.gens.k},
                           *case(run))
                for run in _closures(label, lo, hi)]
    return suite


def centralizer_case(n: int) -> CaseResult:
    """Proposition 1 at one n: span{C_mu} is exactly the centralizer."""
    rep = verify_center(n)
    return CaseResult("centralizer-span", {"n": n}, rep.ok, rep.to_jsonable())


def _suite_prop1(lo: int, hi: int) -> list[CaseResult]:
    check_qubits(hi, CENTER_CAP, "centralizer verification")
    return [centralizer_case(n) for n in range(lo, hi + 1)]


def _suite_lemma2(lo: int, hi: int) -> list[CaseResult]:
    out = []
    for n in range(lo, hi + 1):
        mus = range(n // 2 + 1)
        forms_equal = all(make_L(mu, n) == make_L_direct(mu, n) for mu in mus)
        l_rows = [integer_row(by_rank(make_L(mu, n).coeffs)) for mu in mus]
        c_ech = SparseEchelon()
        c_rank = c_ech.extend(by_rank(make_C(mu, n).coeffs) for mu in mus)
        growth = c_ech.extend(l_rows)
        l_rank = rank_of(l_rows)
        spans_equal = c_rank == len(mus) and growth == 0 and l_rank == len(mus)
        details = {"forms_equal": forms_equal, "spans_equal": spans_equal}
        ok = forms_equal and spans_equal
        if n <= WORD_QUBIT_CAP:
            perm_equal = all(class_sum(mu, n) == densify(make_L(mu, n)) for mu in mus)
            details["matches_permutation_sum"] = perm_equal
            ok = ok and perm_equal
        out.append(CaseResult("class-sum-recombination", {"n": n}, ok, details))
    return out


def _suite_notef(lo: int, hi: int) -> list[CaseResult]:
    out = []
    for n in range(lo, min(hi, WORD_QUBIT_CAP) + 1):
        for kbar in range(3, min(n, 4) + 1):
            rep = verify_printed_commutators(kbar, n)
            mismatches = [r for r in rep.records if not r["match"]]
            out.append(
                CaseResult(
                    "printed-coefficients-recomputed",
                    {"n": n, "kbar": kbar},
                    rep.ok,
                    {"coefficients": len(rep.records), "mismatches": mismatches},
                )
            )
    for n in range(lo, hi + 1):
        for kbar in range(3, n + 1):
            cor = build_abc(kbar, n)
            unc = build_abc(kbar, n, corrected=False)
            ok = cor.rank == 2 and cor.dependence_holds and unc.rank == 3
            out.append(
                CaseResult(
                    "corrected-tables-rank",
                    {"n": n, "kbar": kbar},
                    ok,
                    {"corrected_rank": cor.rank, "dependence_holds": cor.dependence_holds,
                     "uncorrected_rank": unc.rank},
                )
            )
    return out


def _suite_schur(lo: int, hi: int) -> list[CaseResult]:
    check_qubits(hi, SECTOR_CAP, "sector analysis")
    out = []
    rule_ok = True
    try:
        for n in range(1, 21):
            isotypic_table(n)
    except VerificationError:
        rule_ok = False
    out.append(CaseResult("sector-sum-rules", {"n_max": 20}, rule_ok, {}))
    for n in range(lo, hi + 1):
        details: dict = {"blocks": [[b.mu, b.d, b.m] for b in isotypic_table(n)]}
        ok = True
        if n >= 2:
            found, rep = sector_check(n, lie_closure(preset_generators("G2", n)).basis)
            details.update(found)
            ok = rep is not None and rep.controllable and rep.consistent
        out.append(CaseResult("sector-decomposition", {"n": n}, ok, details))
    return out


_PRESETS_FOR_ORACLE = ("G1", "G1prime", "G2")


def _suite_oracle(lo: int, hi: int) -> list[CaseResult]:
    check_qubits(hi, WORD_QUBIT_CAP, "word-level engine")
    out = []
    for n in range(lo, min(hi, 5) + 1):
        agree = True
        details = {}
        for label in _PRESETS_FOR_ORACLE + tuple(f"Gk:{k}" for k in range(3, min(n, 5) + 1)):
            gens = parse_generator_spec(label, n)
            srun = lie_closure(gens)
            drun = dense_closure([densify(g) for g in gens.members])
            details[label] = {"sparse": srun.dim, "dense": drun.dim}
            agree = agree and srun.dim == drun.dim
        out.append(CaseResult("dense-vs-sparse-closure", {"n": n}, agree, details))
    if lo <= 6 <= hi:
        gens6 = preset_generators("G2", 6)
        run6 = lie_closure(gens6)
        smoke = dense_closure([densify(g) for g in gens6.members])
        ok = smoke.dim == run6.dim
        out.append(
            CaseResult(
                "dense-smoke",
                {"n": 6},
                ok,
                {"dense_dim": smoke.dim, "sparse_dim": run6.dim},
            )
        )
    return out


SELECTORS: dict[str, tuple[int, int, Callable]] = {
    "thm1": (2, 10, _ladder("g2-closure-dimension", "G2", _g2_dimension)),
    "thm3": (2, 8, _ladder("g2-central-projections", "G2", _central_projections)),
    "thm4": (2, 10, _ladder("g2-membership-residuals", "G2", _membership)),
    "thm5": (2, 8, _ladder("kbody-closure-dimension", "Gk", _dimension)),
    "thm6": (2, 8, _ladder("kbody-central-projections", "Gk", _central_projections)),
    "cor1": (2, 8, _ladder("universality-threshold", "Gk", _threshold)),
    "prop1": (1, 8, _suite_prop1),
    "lemma2": (1, 8, _suite_lemma2),
    "noteF": (3, 9, _suite_notef),
    "schur": (1, 6, _suite_schur),
    "oracle": (2, 6, _suite_oracle),
}


def run_selector(selector: str, n_lo: int | None = None, n_hi: int | None = None) -> SuiteReport:
    """Run one named suite over [n_lo, n_hi] (defaults per selector).

    A suite's default lower end is its floor, the smallest n its statement
    covers; a range that starts below it is refused rather than clipped.
    """
    if selector not in SELECTORS:
        raise ConstraintError(
            f"unknown selector {selector!r}; choose from {', '.join(sorted(SELECTORS))}"
        )
    d_lo, d_hi, fn = SELECTORS[selector]
    lo = d_lo if n_lo is None else n_lo
    hi = d_hi if n_hi is None else n_hi
    if lo > hi:
        raise ConstraintError(f"bad range {lo}..{hi}")
    if lo < d_lo:
        raise ConstraintError(f"{selector} starts at n = {d_lo}, got n = {lo}")
    cases = fn(lo, hi)
    return SuiteReport(selector, tuple(cases), (lo, hi))
