"""Command line surface.

Five verbs: `close` runs one exact Lie closure and reports dimensions,
verdicts, and the central levels its generators touch; `verify` runs a
named suite over a range of qubit counts; `center` verifies the
centralizer and optionally emits coefficient tables; `schur` lists the
spin sectors and, with --check-blocks, checks the exact sector blocks and
certifies sector control of a closure; `table` reports the number of
basis pairs and, with --compare, brackets each pair once and checks it
against the orbit-expansion reference engine.  Every verb that brackets
uses StructureTable's seed columns, which store nothing.

`close` reports one closure.  Every other verb builds verify.CaseResults
and hands them to _report, the one function that turns cases into the JSON
payload, the human lines and the exit code.

Exit codes: 0 success, 1 usage or precondition error (an unwritable
report path, or a reader that closed stdout early, included), 2
verification failure or prediction mismatch, 3 resource-cap refusal, made
before any work and with nothing on stdout.
Reports are JSON (`--json PATH`, `-` for stdout) with exact rationals as
'p/q' strings.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from functools import cache
from math import comb

from .center import make_C, make_L, spanning_generators
from .closure import build_report, lie_closure
from .oracle import WORD_QUBIT_CAP, dense_closure, densify
from .schur import SECTOR_CAP, isotypic_table, sector_check
from .structure import StructureTable, compare_tables
from .symops import (
    ConstraintError,
    DimensionMismatch,
    ResourceLimitError,
    VerificationError,
    check_qubits,
    parse_generator_spec,
)
from .verify import SELECTORS, CaseResult, SuiteReport, centralizer_case, run_selector


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); usage errors are exit 1
        raise UsageError(message)


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--json", dest="json_path", metavar="PATH",
                    help="write the JSON report to PATH ('-' for stdout)")
    sp.add_argument("--quiet", action="store_true", help="suppress per-case lines")


@cache  # parsing leaves the parser as it was, so one serves every main() call
def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="permlie", description="Exact Lie-algebra engine for permutation-equivariant qubit operators.")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("close", help="compute one Lie closure", description="Exact closure of a generator set.")
    c.add_argument("--n", type=int, required=True, help="qubit count")
    c.add_argument("--gens", required=True,
                   help="preset (G1, G1prime, G2, Gk:<k>) or 'kx,ky,kz; ...' list")
    c.add_argument("--method", default="columns", choices=["columns", "dense"],
                   help="'columns' (the default) brackets with seed columns only; "
                        "'dense' also runs the word-level oracle and compares dimensions")
    _add_common(c)
    c.set_defaults(func=cmd_close)

    v = sub.add_parser("verify", help="run a named verification suite")
    v.add_argument("selector", choices=sorted(SELECTORS), help="statement family to verify")
    v.add_argument("--n", type=int, help="single qubit count")
    v.add_argument("--n-range", metavar="LO..HI", help="inclusive range, e.g. 2..8")
    v.add_argument("--csv", dest="csv_path", metavar="PATH", help="flat per-case table")
    _add_common(v)
    v.set_defaults(func=cmd_verify)

    ce = sub.add_parser("center", help="verify the centralizer span, optionally emit tables")
    ce.add_argument("--n", type=int, required=True)
    ce.add_argument("--emit", default="none", choices=["C", "L", "none"],
                    help="include exact coefficient tables in the report")
    ce.add_argument("--mu", type=int, help="restrict --emit to one mu")
    _add_common(ce)
    ce.set_defaults(func=cmd_center)

    s = sub.add_parser("schur", help="list the spin sectors and check the exact sector blocks")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--gens", help="generators for --check-blocks "
                                  "(default G2, or G1prime at n = 1)")
    s.add_argument("--check-blocks", action="store_true",
                   help="check the exact sector blocks and certify the sector spans "
                        "of the closure of --gens")
    _add_common(s)
    s.set_defaults(func=cmd_schur)

    t = sub.add_parser("table", help="count the basis pairs, optionally cross-checked")
    t.add_argument("--n", type=int, required=True)
    t.add_argument("--compare", action="store_true",
                   help="bracket every pair and check it against the orbit expansion")
    _add_common(t)
    t.set_defaults(func=cmd_table)
    return p


def _emit(payload: dict, args, human_lines: list[str]) -> None:
    if args.json_path == "-":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    if args.json_path:
        with open(args.json_path, "w") as fh:
            fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if not args.quiet:
        for line in human_lines:
            print(line)


def _report(args, command: str, suite: SuiteReport, summary: str, **extra) -> int:
    """Emit a suite-shaped report; returns the exit code.

    The payload is the suite's JSON plus `command` and any extra fields.
    The human lines are one per case (failures only with --quiet), then
    summary.  Exit 0 when every case is ok, else 2.
    """
    lines = [
        f"[{'ok ' if c.ok else 'FAIL'}] {c.name} "
        + " ".join(f"{k}={v}" for k, v in sorted(c.params.items()))
        for c in suite.cases
        if not (args.quiet and c.ok)
    ]
    _emit({"command": command, **suite.to_jsonable(), **extra}, args, lines + [summary])
    return 0 if suite.ok else 2


def cmd_close(args) -> int:
    gens = parse_generator_spec(args.gens, args.n)
    if args.method == "dense":
        check_qubits(args.n, WORD_QUBIT_CAP, "word-level engine")
    run = lie_closure(gens)
    report = build_report(run)
    payload = {"command": "close", **report.to_jsonable()}
    ok = report.ok
    if args.method == "dense":
        drun = dense_closure([densify(g) for g in gens.members])
        agree = drun.dim == run.dim
        payload["dense_dim"] = drun.dim
        payload["engines_agree"] = agree
        ok = ok and agree
    line = (
        f"closure({gens.label}) @ n={args.n}: dim {report.dim}"
        f" / ambient {report.ambient.dim_u}"
        + (f", predicted {report.predicted}" if report.predicted is not None else "")
        + f"; universal={report.verdicts.universal} semi={report.verdicts.semi_universal}"
    )
    _emit(payload, args, [line])
    return 0 if ok else 2


def _parse_range(args) -> tuple[int | None, int | None]:
    if args.n is not None and args.n_range:
        raise UsageError("give --n or --n-range, not both")
    if args.n is not None:
        return args.n, args.n
    if args.n_range:
        parts = args.n_range.split("..")
        if len(parts) != 2:
            raise UsageError("--n-range wants LO..HI")
        try:
            return int(parts[0]), int(parts[1])
        except ValueError:
            raise UsageError("--n-range wants integers") from None
    return None, None


_CSV_DETAILS = ("dim", "predicted", "universal", "semi_universal", "threshold")


def _write_csv(path: str, cases: tuple[CaseResult, ...]) -> None:
    param_keys = sorted({k for c in cases for k in c.params})
    detail_keys = [k for k in _CSV_DETAILS if any(k in c.details for c in cases)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", *param_keys, *detail_keys, "ok"])
        for c in cases:
            row = [c.name]
            row += [c.params.get(k, "") for k in param_keys]
            row += [c.details.get(k, "") for k in detail_keys]
            row.append(c.ok)
            writer.writerow(row)


def cmd_verify(args) -> int:
    lo, hi = _parse_range(args)
    suite = run_selector(args.selector, lo, hi)
    if args.csv_path:
        _write_csv(args.csv_path, suite.cases)
    good = sum(1 for c in suite.cases if c.ok)
    return _report(args, "verify", suite,
                   f"verify {suite.selector}: {good}/{len(suite.cases)} cases ok")


def cmd_center(args) -> int:
    if args.mu is not None and args.emit == "none":
        raise UsageError("--mu needs --emit C or --emit L")
    if args.mu is not None and not 0 <= 2 * args.mu <= args.n:
        raise UsageError(f"need 0 <= 2*mu <= n, got mu={args.mu}, n={args.n}")
    case = centralizer_case(args.n)
    extra = {}
    if args.emit != "none":
        maker = make_C if args.emit == "C" else make_L
        mus = [args.mu] if args.mu is not None else list(range(args.n // 2 + 1))
        extra["emitted"] = {args.emit: {str(mu): maker(mu, args.n).to_jsonable() for mu in mus}}
    d = case.details
    summary = (
        f"center @ n={args.n}: dim {d['expected_dim']}, solve dim {d['solved_dim']}"
        + (", ok" if case.ok else ", FAIL")
    )
    return _report(args, "center", SuiteReport("prop1", (case,)), summary, **extra)


def cmd_schur(args) -> int:
    if args.gens is not None and not args.check_blocks:
        raise UsageError("--gens needs --check-blocks")
    check_qubits(args.n, SECTOR_CAP, "sector analysis")
    blocks = [[b.mu, b.d, b.m] for b in isotypic_table(args.n)]
    cases = [CaseResult("sector-table", {"n": args.n}, True, {"blocks": blocks})]
    if args.check_blocks:
        gens = (spanning_generators(args.n) if args.gens is None
                else parse_generator_spec(args.gens, args.n))
        run = lie_closure(gens)
        found, rep = sector_check(args.n, run.basis)
        # The spans and the trace rank add up to the closure dimension only
        # when every sector is full, so a closure that misses one is no fault.
        ok = rep is not None and (rep.consistent or not rep.controllable)
        cases.append(
            CaseResult("block-structure", {"n": args.n, "gens": gens.label}, ok,
                       {"rows_projected": run.dim, **found})
        )
    return _report(args, "schur", SuiteReport("schur", tuple(cases)),
                   f"schur @ n={args.n}: sectors {blocks}")


def cmd_table(args) -> int:
    table = StructureTable(args.n)
    pairs = comb(comb(args.n + 3, 3), 2)
    cases = [CaseResult("table-build", {"n": args.n}, True, {"entries": pairs})]
    if args.compare:
        bad = compare_tables(table)
        cases.append(
            CaseResult("method-agreement", {"n": args.n}, not bad,
                       {"mismatches": bad[:20], "mismatch_count": len(bad)})
        )
    suite = SuiteReport("table", tuple(cases))
    return _report(args, "table", suite, f"table @ n={args.n}: {len(cases)} checks, "
                   + ("all ok" if suite.ok else "FAILURES"))


def _stdout_to_devnull() -> None:
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # not backed by a file descriptor
        sys.stdout = open(os.devnull, "w")
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        print(f"permlie: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"permlie: {exc}", file=sys.stderr)
        return 1
    except (ConstraintError, DimensionMismatch) as exc:
        print(f"permlie: {exc}", file=sys.stderr)
        return 1
    except VerificationError as exc:
        print(f"permlie: verification failed: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"permlie: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # The reader closed stdout early (`| head`).  Send what is still
        # buffered to os.devnull, so the flush at exit cannot fail again.
        _stdout_to_devnull()
        return 1
    except OSError as exc:  # after BrokenPipeError, which is one
        print(f"permlie: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
