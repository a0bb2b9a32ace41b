"""Output checks from closed forms, computed without permlie.

Every fact here is derived from the paper's statements, not from the
program: the k-body closure dimension, the universality threshold, the
centralizer dimension and the spin-sector table.  A checker takes the parsed
JSON report of one job and returns a list of problems (empty when the job is
right).  Checkers read only dimensions, verdicts, sector and centralizer
facts, so fields the program may reshape (residual lists, pairing names, cache
provenance) can change without breaking them.
"""

from __future__ import annotations

from math import comb


def closure_dim(n: int, k: int) -> int:
    """Dimension of the Lie closure of the k-body ladder on n qubits."""
    return comb(n + 3, 3) - (n // 2 + 1) + k // 2


def is_universal(n: int, k: int) -> bool:
    """The k-body ladder is universal iff k = n (n even) or k >= n-1 (n odd)."""
    return k == n if n % 2 == 0 else k >= n - 1


def centralizer_dim(n: int) -> int:
    return n // 2 + 1


def sector_table(n: int) -> list[list[int]]:
    """[mu, d, m] per sector: S_n irrep dimension d and spin multiplet size m."""
    return [
        [mu, comb(n, mu) - (comb(n, mu - 1) if mu else 0), n - 2 * mu + 1]
        for mu in range(n // 2 + 1)
    ]


def preset_dim(label: str, n: int) -> int:
    """Closure dimension of a named generator preset."""
    if label == "G1":
        return 1  # one uniform field
    if label == "G1prime":
        return 3  # two uniform fields close on global su(2)
    if label == "G2":
        return closure_dim(n, 2)
    if label.startswith("Gk:"):
        return closure_dim(n, int(label[3:]))
    raise ValueError(f"no closed form for preset {label!r}")


def _cases(report: dict, name: str) -> dict:
    """Cases of a suite report with the given name, keyed by their params."""
    return {
        tuple(sorted(c["params"].items())): c["details"]
        for c in report.get("cases", ())
        if c["name"] == name
    }


def _want_ns(found: dict, ns, what: str) -> list[str]:
    have = sorted(dict(k)["n"] for k in found)
    return [] if have == list(ns) else [f"{what}: cases for n={have}, want {list(ns)}"]


def check_close(n: int, k: int, dense: bool = False):
    """`close` of the k-body ladder (G2 is k = 2)."""

    def check(report: dict) -> list[str]:
        out = []
        if report.get("dim") != closure_dim(n, k):
            out.append(f"dim {report.get('dim')} != {closure_dim(n, k)}")
        v = report.get("verdicts", {})
        if v.get("universal") is not is_universal(n, k):
            out.append(f"universal {v.get('universal')} != {is_universal(n, k)}")
        if v.get("semi_universal") is not True:
            out.append("semi_universal is not true")
        if dense and report.get("dense_dim") != report.get("dim"):
            out.append(f"dense dim {report.get('dense_dim')} != sparse {report.get('dim')}")
        return out

    return check


def _centralizer_problems(details: dict, n: int) -> list[str]:
    want = centralizer_dim(n)
    out = []
    if details.get("expected_dim") != want:
        out.append(f"n={n}: claimed centralizer dim {details.get('expected_dim')} != {want}")
    if details.get("solved_dim") != want:
        out.append(f"n={n}: solved centralizer dim {details.get('solved_dim')} != {want}")
    return out


def check_center(n: int):
    def check(report: dict) -> list[str]:
        found = _cases(report, "centralizer-span")
        out = _want_ns(found, [n], "center")
        for key, details in found.items():
            out += _centralizer_problems(details, dict(key)["n"])
        return out

    return check


def check_prop1(lo: int, hi: int):
    def check(report: dict) -> list[str]:
        found = _cases(report, "centralizer-span")
        out = _want_ns(found, range(lo, hi + 1), "prop1")
        for key, details in found.items():
            out += _centralizer_problems(details, dict(key)["n"])
        return out

    return check


def _sector_problems(details: dict, n: int) -> list[str]:
    if details.get("blocks") != sector_table(n):
        return [f"n={n}: sectors {details.get('blocks')} != {sector_table(n)}"]
    return []


def _control_problems(control: dict, n: int) -> list[str]:
    """G2 is semi-universal, so it reaches su(m) in every sector."""
    out = []
    if control.get("closure_dim") != closure_dim(n, 2):
        out.append(f"n={n}: controlled closure dim {control.get('closure_dim')}")
    want = [[mu, m, m * m - 1] for mu, _, m in sector_table(n)]
    got = [[s.get("mu"), s.get("m"), s.get("span_dim")] for s in control.get("sectors", ())]
    if got != want:
        out.append(f"n={n}: sector spans {got} != {want}")
    return out


def check_schur(n: int):
    """`schur --check-blocks` with the default G2 generators."""

    def check(report: dict) -> list[str]:
        tables = _cases(report, "sector-table")
        out = _want_ns(tables, [n], "sector-table")
        for details in tables.values():
            out += _sector_problems(details, n)
        blocks = list(_cases(report, "block-structure").values())
        if len(blocks) != 1:
            return out + ["no block-structure case"]
        details = blocks[0]
        if details.get("rows_projected") != closure_dim(n, 2):
            out.append(f"rows projected {details.get('rows_projected')} != {closure_dim(n, 2)}")
        if details.get("block_pattern") != "clean":
            out.append(f"block pattern {details.get('block_pattern')!r}")
        return out + _control_problems(details.get("subspace_control", {}), n)

    return check


def check_verify_schur(lo: int, hi: int, control_max: int):
    def check(report: dict) -> list[str]:
        rules = _cases(report, "sector-sum-rules")
        out = [] if rules else ["no sector-sum-rules case"]
        found = _cases(report, "sector-decomposition")
        out += _want_ns(found, range(lo, hi + 1), "sector-decomposition")
        for key, details in found.items():
            n = dict(key)["n"]
            out += _sector_problems(details, n)
            if n >= 2 and details.get("block_pattern") != "clean":
                out.append(f"n={n}: block pattern {details.get('block_pattern')!r}")
            if 2 <= n <= control_max:
                out += _control_problems(details.get("subspace_control", {}), n)
        return out

    return check


def check_oracle(lo: int, hi: int):
    """`verify oracle`: sparse and dense closures of every preset agree with
    the closed form."""

    def check(report: dict) -> list[str]:
        found = _cases(report, "dense-vs-sparse-closure")
        out = _want_ns(found, range(lo, hi + 1), "oracle")
        for key, details in found.items():
            n = dict(key)["n"]
            labels = ["G1", "G1prime", "G2"] + [f"Gk:{k}" for k in range(3, min(n, 5) + 1)]
            if sorted(details) != sorted(labels):
                out.append(f"n={n}: presets {sorted(details)} != {sorted(labels)}")
            for label, dims in details.items():
                want = preset_dim(label, n)
                if dims.get("sparse") != want or dims.get("dense") != want:
                    out.append(f"n={n} {label}: {dims} != {want}")
        return out

    return check


def check_table_compare(report: dict) -> list[str]:
    agree = list(_cases(report, "method-agreement").values())
    if len(agree) != 1:
        return ["no method-agreement case"]
    if agree[0].get("mismatch_count") != 0:
        return [f"{agree[0].get('mismatch_count')} mismatches between methods"]
    return []


def check_lemma2(lo: int, hi: int):
    """Class sums: both closed forms agree and span the centralizer flag."""

    def check(report: dict) -> list[str]:
        found = _cases(report, "class-sum-recombination")
        out = _want_ns(found, range(lo, hi + 1), "lemma2")
        for key, details in found.items():
            bad = sorted(k for k, v in details.items() if v is not True)
            if bad or "spans_equal" not in details:
                out.append(f"n={dict(key)['n']}: failed {bad or ['spans_equal missing']}")
        return out

    return check


def check_notef(report: dict) -> list[str]:
    """The corrected commutator tables have rank 2, the printed ones rank 3."""
    out = []
    for key, details in _cases(report, "printed-coefficients-recomputed").items():
        if details.get("mismatches"):
            out.append(f"{dict(key)}: printed coefficients differ")
    ranks = _cases(report, "corrected-tables-rank")
    if not ranks:
        out.append("no corrected-tables-rank case")
    for key, details in ranks.items():
        if (details.get("corrected_rank"), details.get("uncorrected_rank")) != (2, 3):
            out.append(f"{dict(key)}: ranks {details}")
        if details.get("dependence_holds") is not True:
            out.append(f"{dict(key)}: published dependence fails")
    return out


def check_thm1(lo: int, hi: int):
    def check(report: dict) -> list[str]:
        found = _cases(report, "g2-closure-dimension")
        out = _want_ns(found, range(lo, hi + 1), "thm1")
        for key, details in found.items():
            n = dict(key)["n"]
            if details.get("dim") != closure_dim(n, 2):
                out.append(f"n={n}: dim {details.get('dim')} != {closure_dim(n, 2)}")
        return out

    return check
