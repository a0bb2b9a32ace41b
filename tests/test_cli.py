"""End-to-end command-line behavior, exercised in process via main(argv)."""

import csv
import json
import os
import re
import shlex
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import jsonschema
import pytest

import permlie
from permlie import make_C, schur, structure, verify
from permlie.center import CENTER_CAP
from permlie.cli import _CSV_DETAILS, build_parser, main
from permlie.oracle import WORD_QUBIT_CAP
from permlie.schur import SECTOR_CAP
from permlie.structure import ORBIT_CAP
from permlie.symops import rank_triple
from reference import schema_path


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv, "--json", "-")
    return rc, json.loads(out), err


def load_schema(name):
    with open(schema_path(name)) as fh:
        return json.load(fh)


class TestClose:
    def test_two_body_preset(self, capsys):
        rc, payload, _ = run_json(capsys, "close", "--n", "4", "--gens", "G2")
        assert rc == 0
        assert payload["command"] == "close"
        assert payload["dim"] == 33 and payload["predicted"] == 33
        assert payload["verdicts"] == {"universal": False, "semi_universal": True}
        assert payload["exempt"] == [1]
        assert not {"constraint_residuals", "residuals_nonzero"} & payload.keys()
        jsonschema.validate(payload, load_schema("closure_report"))

    def test_single_field(self, capsys):
        rc, payload, _ = run_json(capsys, "close", "--n", "3", "--gens", "G1")
        assert rc == 0
        assert payload["dim"] == 1 and payload["label"] == "G1"

    def test_custom_generator_list(self, capsys):
        rc, payload, _ = run_json(
            capsys, "close", "--n", "5", "--gens", "1,0,0;0,1,0;0,0,2;0,0,3;0,0,4"
        )
        assert rc == 0
        assert payload["dim"] == 55
        assert payload["predicted"] is None and payload["matched"] is None
        assert payload["verdicts"]["universal"] is True
        jsonschema.validate(payload, load_schema("closure_report"))

    def test_dense_cross_check(self, capsys):
        rc, payload, _ = run_json(
            capsys, "close", "--n", "3", "--gens", "G2", "--method", "dense"
        )
        assert rc == 0
        assert payload["dense_dim"] == payload["dim"] == 19
        assert payload["engines_agree"] is True
        jsonschema.validate(payload, load_schema("closure_report"))

    def test_columns_is_the_default_method(self, capsys):
        rc, out, err = run(capsys, "close", "--n", "3", "--gens", "G2", "--method", "overlap")
        assert rc == 1 and out == "" and "invalid choice: 'overlap'" in err
        _, default, _ = run_json(capsys, "close", "--n", "3", "--gens", "G2")
        _, columns, _ = run_json(capsys, "close", "--n", "3", "--gens", "G2", "--method", "columns")
        default.pop("wall_time"), columns.pop("wall_time")
        assert default == columns and "dense_dim" not in default

    def test_human_line(self, capsys):
        rc, out, _ = run(capsys, "close", "--n", "4", "--gens", "G2")
        assert rc == 0
        assert out == ("closure(G2) @ n=4: dim 33 / ambient 35, predicted 33;"
                       " universal=False semi=True\n")

    def test_json_file_output(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        rc, out, _ = run(capsys, "close", "--n", "2", "--gens", "G2", "--json", str(path))
        assert rc == 0
        payload = json.loads(path.read_text())
        assert payload["dim"] == 9
        assert "dim 9" in out  # file mode still prints the summary line

    def test_deterministic_apart_from_timing(self, capsys):
        _, first, _ = run_json(capsys, "close", "--n", "3", "--gens", "Gk:3")
        _, second, _ = run_json(capsys, "close", "--n", "3", "--gens", "Gk:3")
        assert first.pop("wall_time") is not None
        second.pop("wall_time")
        assert first == second

    def test_one_member_closure_brackets_nothing_with_itself(self, capsys, monkeypatch):
        """The worklist brackets a lone seed with itself; that bracket is
        zero and builds no seed column, so n = 200 closes at once."""
        def no_column(s):
            raise AssertionError("seed column built")

        monkeypatch.setattr(structure, "_seed_column", no_column)
        rc, payload, _ = run_json(capsys, "close", "--n", "200", "--gens", "0,0,200")
        assert rc == 0 and payload.pop("wall_time") >= 0
        assert payload == {
            "ambient": {"dim_center": 101, "dim_su": 1373700, "dim_su_cless": 1373600,
                        "dim_u": 1373701},
            "command": "close", "dim": 1, "exempt": [100], "generators": ["1*(0,0,200)"],
            "iterations": 1, "k": None, "label": "custom", "matched": None, "n": 200,
            "pivots": ["0,0,200"], "predicted": None,
            "verdicts": {"semi_universal": False, "universal": False},
        }

    def test_commuting_z_type_members_build_no_column(self, capsys):
        """Two Z-type members commute, so their closure brackets to zero
        with no call to _seed_column; the payload is the one the built
        columns gave."""
        calls = structure._seed_column.cache_info()
        rc, payload, _ = run_json(capsys, "close", "--n", "60", "--gens", "0,0,60;0,0,59")
        after = structure._seed_column.cache_info()
        assert (after.hits, after.misses) == (calls.hits, calls.misses)
        assert rc == 0 and payload.pop("wall_time") >= 0
        assert payload == {
            "ambient": {"dim_center": 31, "dim_su": 39710, "dim_su_cless": 39680,
                        "dim_u": 39711},
            "command": "close", "dim": 2, "exempt": [30],
            "generators": ["1*(0,0,60)", "1*(0,0,59)"], "iterations": 4, "k": None,
            "label": "custom", "matched": None, "n": 60, "pivots": ["0,0,59", "0,0,60"],
            "predicted": None, "verdicts": {"semi_universal": False, "universal": False},
        }

    def test_bad_generator_specs(self, capsys):
        for gens in ("Gk:9", "potato", "1,2", "Gk:x"):
            rc, _, err = run(capsys, "close", "--n", "4", "--gens", gens)
            assert rc == 1, gens
            assert err.startswith("permlie:")

    @pytest.mark.parametrize("n, gens", [("0", "G1"), ("-1", "G1prime"), ("0", "G2"),
                                         ("0", "Gk:2"), ("0", "1,0,0"), ("-3", "Gk:x")])
    def test_nonpositive_qubit_count_is_a_usage_error(self, capsys, n, gens):
        """n < 1 is refused before any generator is built, whatever --gens is."""
        rc, out, err = run(capsys, "close", "--n", n, "--gens", gens, "--json", "-")
        assert (rc, out, err) == (1, "", "permlie: qubit count must be positive\n")

    def test_missing_argument_is_usage_error(self, capsys):
        rc, _, err = run(capsys, "close", "--gens", "G2")
        assert rc == 1 and "permlie:" in err

    def test_pairing_flag_is_gone(self, capsys):
        rc, _, err = run(capsys, "close", "--n", "4", "--gens", "G2", "--pairing", "all")
        assert rc == 1 and "unrecognized arguments: --pairing" in err

    def test_word_oracle_cap(self, capsys):
        rc, _, err = run(capsys, "close", "--n", "7", "--gens", "G1", "--method", "dense")
        assert rc == 3 and "permlie:" in err

    def test_word_oracle_cap_refuses_before_the_closure(self, capsys):
        start = time.perf_counter()
        rc, out, err = run(capsys, "close", "--n", "30", "--gens", "G2", "--method", "dense",
                           "--json", "-")
        assert rc == 3 and out == "" and f"capped at n <= {WORD_QUBIT_CAP}" in err
        assert time.perf_counter() - start < 1.0

    def test_trivial_closure_report_at_large_n(self):
        # The G1 closure holds one row; neither it nor its report may walk
        # the C(2003,3) triples of n = 2000.  Run as a process, with start-up.
        env = dict(os.environ, PYTHONPATH=str(Path(permlie.__file__).resolve().parent.parent))
        argv = ["close", "--n", "2000", "--gens", "G1", "--json", "-"]
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "permlie.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=10)
        assert time.perf_counter() - start < 10
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["dim"] == 1


class TestCachedParser:
    """main() builds its parser once per process: every call parses with the
    same parser, and no call leaves state that changes the next one."""

    GOOD = [("close", "--n", "4", "--gens", "G2"),
            ("verify", "cor1", "--n-range", "2..4", "--json", "-"),
            ("schur", "--n", "4", "--json", "-")]

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("argv", GOOD, ids=lambda a: a[0])
    def test_repeated_calls_print_the_same_bytes(self, capsys, argv):
        first, second = run(capsys, *argv), run(capsys, *argv)
        assert first == second and first[0] == 0 and first[1]

    @pytest.mark.parametrize("bad", [("close", "--n", "x", "--gens", "G2"), ("close", "--gens", "G2"),
                                     ("bogus",), ("verify", "cor1", "--n", "3", "--n-range", "2..4")])
    def test_a_usage_error_between_good_calls_changes_neither(self, capsys, bad):
        before = [run(capsys, *argv) for argv in self.GOOD]
        rc, out, err = run(capsys, *bad)
        assert rc == 1 and out == "" and err.startswith("permlie:")
        assert [run(capsys, *argv) for argv in self.GOOD] == before

    def test_help_exits_the_same_way_every_time(self, capsys):
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["close", "--help"])
            assert exc.value.code == 0
            texts.append(capsys.readouterr())
        assert texts[0] == texts[1] and "--gens" in texts[0].out and texts[0].err == ""
        assert run(capsys, *self.GOOD[0])[0] == 0


class TestReportFootprint:
    def test_a_closed_form_close_decodes_no_triple(self, capsys):
        """A G2 closure and its report read triple ranks without rank_triple,
        whose unbounded cache would otherwise keep every triple of the run."""
        before = rank_triple.cache_info().currsize
        rc, payload, _ = run_json(capsys, "close", "--n", "32", "--gens", "G2")
        assert rc == 0 and payload["iterations"] == 0
        assert rank_triple.cache_info().currsize == before


class TestVerify:
    def test_threshold_suite_small_range(self, capsys):
        rc, payload, _ = run_json(capsys, "verify", "cor1", "--n-range", "2..4")
        assert rc == 0 and payload["ok"] is True
        assert payload["command"] == "verify" and payload["selector"] == "cor1"
        assert payload["cases"] and all(c["ok"] for c in payload["cases"])
        jsonschema.validate(payload, load_schema("verify_report"))

    def test_single_n(self, capsys):
        rc, payload, _ = run_json(capsys, "verify", "prop1", "--n", "4")
        assert rc == 0
        assert all(c["params"]["n"] == 4 for c in payload["cases"])

    def test_summary_line_counts_cases(self, capsys):
        rc, out, _ = run(capsys, "verify", "lemma2", "--n-range", "4..5")
        assert rc == 0
        assert "verify lemma2:" in out and "cases ok" in out
        assert out.count("[ok ]") >= 2

    def test_quiet_silences_stdout(self, capsys):
        rc, out, _ = run(capsys, "verify", "lemma2", "--n-range", "4..5", "--quiet")
        assert rc == 0
        assert out == ""

    def test_csv_export(self, capsys, tmp_path):
        path = tmp_path / "cases.csv"
        rc, _, _ = run(capsys, "verify", "cor1", "--n-range", "2..3", "--csv", str(path))
        assert rc == 0
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        assert header[0] == "name" and header[-1] == "ok"
        assert body and all(r[-1] == "True" for r in body)

    def test_every_csv_detail_key_is_written(self, capsys, tmp_path):
        columns = set()
        for name, (lo, _, _) in verify.SELECTORS.items():
            path = tmp_path / f"{name}.csv"
            run(capsys, "verify", name, "--n", str(max(lo, 3)), "--csv", str(path), "--quiet")
            with open(path, newline="") as fh:
                columns.update(next(csv.reader(fh)))
        assert set(_CSV_DETAILS) - columns == set()

    def test_range_parsing_errors(self, capsys):
        for extra in (
            ["--n-range", "4-5"],
            ["--n-range", "a..b"],
            ["--n", "3", "--n-range", "2..4"],
        ):
            rc, _, err = run(capsys, "verify", "lemma2", *extra)
            assert rc == 1 and "permlie:" in err

    def test_unknown_selector(self, capsys):
        rc, _, err = run(capsys, "verify", "frobnicate", "--n", "3")
        assert rc == 1 and "permlie:" in err


class TestSuiteRanges:
    """A suite whose every case needs a capped engine refuses a range that
    ends past the cap, before any work, as the verbs do; no suite passes
    with its range silently clipped."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("prop1", "--n", str(CENTER_CAP + 1)),
            ("schur", "--n", str(SECTOR_CAP + 1)),
            ("oracle", "--n", str(WORD_QUBIT_CAP + 1)),
            ("oracle", "--n-range", f"2..{WORD_QUBIT_CAP + 1}"),
        ],
        ids=" ".join,
    )
    def test_capped_suites_refuse(self, capsys, argv):
        start = time.perf_counter()
        rc, out, err = run(capsys, "verify", *argv, "--json", "-")
        assert rc == 3 and out == "" and "capped at n <= " in err
        assert time.perf_counter() - start < 1.0

    def test_membership_suite_has_no_cap(self, capsys):
        rc, payload, _ = run_json(capsys, "verify", "thm4", "--n", "11")
        assert rc == 0 and payload["ok"] is True
        assert [(c["params"], c["ok"]) for c in payload["cases"]] == [({"n": 11}, True)]
        assert payload["cases"][0]["details"]["residuals_checked"] > 0

    def test_oracle_smoke_case_only_inside_the_range(self, capsys):
        _, payload, _ = run_json(capsys, "verify", "oracle", "--n-range", "4..5")
        assert [c["params"]["n"] for c in payload["cases"]] == [4, 5]

    def test_schur_suite_certifies_control_at_every_n(self, capsys):
        rc, payload, _ = run_json(capsys, "verify", "schur", "--n", "6")
        assert rc == 0
        (case,) = [c for c in payload["cases"] if c["name"] == "sector-decomposition"]
        control = case["details"]["subspace_control"]
        assert control["controllable"] is True and control["consistent"] is True


class TestSuiteFloors:
    """A range that starts below a suite's floor (its default lower end) is
    refused, not clipped to zero cases."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("thm1", "--n", "1"),
            ("cor1", "--n", "1"),
            ("oracle", "--n", "1"),
            ("noteF", "--n", "2"),
            ("thm1", "--n-range", "1..3"),
        ],
        ids=" ".join,
    )
    def test_below_the_floor_is_a_usage_error(self, capsys, argv):
        rc, out, err = run(capsys, "verify", *argv, "--json", "-")
        assert rc == 1 and out == ""
        assert f"{argv[0]} starts at n = " in err

    def test_the_floor_itself_runs(self, capsys):
        rc, payload, _ = run_json(capsys, "verify", "noteF", "--n", "3")
        assert rc == 0 and payload["cases"]


class TestIgnoredFlags:
    def test_mu_without_emit(self, capsys):
        rc, out, err = run(capsys, "center", "--n", "4", "--mu", "1")
        assert rc == 1 and out == ""
        assert "--mu needs --emit" in err


class TestUnwritablePaths:
    @pytest.mark.parametrize(
        "argv",
        [
            ("close", "--n", "3", "--gens", "G2", "--json", "{missing}/x.json"),
            ("verify", "lemma2", "--n", "3", "--csv", "{missing}/x.csv"),
            ("schur", "--n", "3", "--json", "{missing}/x.json"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_one_line_and_exit_1(self, capsys, tmp_path, argv):
        missing = tmp_path / "no-such-dir"
        rc, out, err = run(capsys, *(a.format(missing=missing) for a in argv))
        assert rc == 1 and out == ""
        assert err.startswith("permlie: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestCenter:
    def test_verification_and_emission(self, capsys):
        rc, payload, _ = run_json(capsys, "center", "--n", "6", "--emit", "C")
        assert rc == 0 and payload["ok"] is True
        assert payload["command"] == "center"
        assert sorted(payload["emitted"]["C"]) == ["0", "1", "2", "3"]
        assert payload["emitted"]["C"]["2"] == make_C(2, 6).to_jsonable()
        jsonschema.validate(payload, load_schema("verify_report"))

    def test_emit_single_mu(self, capsys):
        rc, payload, _ = run_json(capsys, "center", "--n", "5", "--emit", "L", "--mu", "1")
        assert rc == 0
        assert list(payload["emitted"]["L"]) == ["1"]

    def test_human_line(self, capsys):
        rc, out, _ = run(capsys, "center", "--n", "4")
        assert rc == 0
        assert "center @ n=4: dim 3, solve dim 3, ok" in out

    @pytest.mark.parametrize("emit", ["C", "L"])
    @pytest.mark.parametrize("mu", [-1, 40 // 2 + 1])
    def test_mu_out_of_range_refused_before_any_work(self, capsys, monkeypatch, emit, mu):
        def no_work(*args):
            raise AssertionError("the centralizer verification ran")

        monkeypatch.setattr(verify, "verify_center", no_work)
        rc, out, err = run(capsys, "center", "--n", "40", "--emit", emit, "--mu", str(mu))
        assert rc == 1 and out == ""
        assert f"got mu={mu}, n=40" in err

    @pytest.mark.parametrize("n", [CENTER_CAP + 1, 400])
    def test_resource_cap_exit_code(self, capsys, n):
        rc, out, err = run(capsys, "center", "--n", str(n), "--json", "-")
        assert rc == 3 and out == ""
        assert f"capped at n <= {CENTER_CAP}" in err


class TestSchur:
    def test_sector_table(self, capsys):
        rc, payload, _ = run_json(capsys, "schur", "--n", "4")
        assert rc == 0
        assert payload["cases"][0]["details"]["blocks"] == [[0, 1, 5], [1, 3, 3], [2, 2, 1]]
        jsonschema.validate(payload, load_schema("verify_report"))

    def test_block_check_with_closure(self, capsys):
        rc, payload, _ = run_json(capsys, "schur", "--n", "4", "--check-blocks", "--gens", "G2")
        assert rc == 0
        details = payload["cases"][1]["details"]
        assert details["rows_projected"] == 33
        assert details["block_pattern"] == "clean"
        assert details["subspace_control"]["consistent"] is True

    def test_block_check_certifies_up_to_the_build_cap(self, capsys):
        rc, payload, _ = run_json(capsys, "schur", "--n", "7", "--check-blocks")
        assert rc == 0 and payload["ok"]
        control = payload["cases"][1]["details"]["subspace_control"]
        assert control["controllable"] and control["consistent"]
        jsonschema.validate(payload, load_schema("verify_report"))

    @pytest.mark.parametrize("gens", ["G1", "G1prime"])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_uncontrollable_closure_with_clean_blocks_passes(self, capsys, n, gens):
        # the spans and the trace rank sum to the closure dimension only when
        # every sector is full; G1's one X lands in two sectors
        rc, payload, _ = run_json(capsys, "schur", "--n", str(n), "--check-blocks", "--gens", gens)
        assert rc == 0 and payload["ok"] is True
        details = payload["cases"][1]["details"]
        assert details["block_pattern"] == "clean"
        assert details["subspace_control"]["controllable"] is False

    def test_inconsistent_controllable_closure_fails(self, capsys, monkeypatch):
        certify = schur.certify_subspace_control
        monkeypatch.setattr(schur, "certify_subspace_control",
                            lambda n, basis: certify(n, basis)._replace(trace_rank=2))
        rc, payload, _ = run_json(capsys, "schur", "--n", "4", "--check-blocks")
        assert rc == 2 and payload["ok"] is False
        control = payload["cases"][1]["details"]["subspace_control"]
        assert control["controllable"] is True and control["consistent"] is False

    def test_emit_transform(self, capsys, tmp_path):
        """The float coupled basis is gone from the package, so is its flag."""
        path = tmp_path / "transform.json"
        rc, out, err = run(capsys, "schur", "--n", "3", "--emit-transform", str(path))
        assert rc == 1 and out == ""
        assert "unrecognized arguments: --emit-transform" in err
        assert not path.exists()

    def test_build_cap_exit_code(self, capsys):
        for extra in ((), ("--check-blocks",)):
            start = time.perf_counter()
            rc, out, err = run(capsys, "schur", "--n", str(SECTOR_CAP + 1), *extra, "--json", "-")
            assert rc == 3 and out == ""
            assert f"capped at n <= {SECTOR_CAP}" in err
            assert time.perf_counter() - start < 1.0

    def test_gens_without_check_blocks_is_a_usage_error(self, capsys):
        for gens in ("bogus", "G2"):
            rc, out, err = run(capsys, "schur", "--n", "4", "--gens", gens)
            assert rc == 1 and out == ""
            assert "--gens needs --check-blocks" in err

    @pytest.mark.parametrize(
        "argv,name",
        [
            (("schur", "--n", "4", "--check-blocks"), "block-structure"),
            (("verify", "schur", "--n", "4"), "sector-decomposition"),
        ],
        ids=["verb", "suite"],
    )
    def test_block_violation_is_a_failed_case(self, capsys, plant, argv, name):
        """One wrong entry of the exact block table breaks a sum rule."""
        plant(1, (0, 0, 1), 0)  # sector mu = 1, P_(0,0,1), entry (0, 0)
        rc, payload, _ = run_json(capsys, *argv)
        assert rc == 2 and payload["ok"] is False
        (case,) = [c for c in payload["cases"] if c["name"] == name]
        assert case["ok"] is False
        assert case["details"]["block_pattern"].startswith("trace sum rule fails at P_(0,0,1)")
        assert "subspace_control" not in case["details"]
        jsonschema.validate(payload, load_schema("verify_report"))


class TestTable:
    def test_build_both_and_compare(self, capsys):
        rc, payload, _ = run_json(capsys, "table", "--n", "3", "--compare")
        assert rc == 0
        names = [c["name"] for c in payload["cases"]]
        assert names == ["table-build", "method-agreement"]
        assert payload["cases"][0]["details"] == {"entries": 20 * 19 // 2}
        assert payload["cases"][1]["details"]["mismatch_count"] == 0
        jsonschema.validate(payload, load_schema("verify_report"))

    def test_method_both_rejected(self, capsys):
        rc, _, err = run(capsys, "table", "--n", "3", "--method", "both")
        assert rc == 1 and "unrecognized arguments: --method" in err

    @pytest.mark.parametrize("argv", [("--n", str(ORBIT_CAP + 1), "--compare")], ids=" ".join)
    def test_whole_table_caps_exit_code(self, capsys, argv):
        start = time.perf_counter()
        rc, out, err = run(capsys, "table", *argv, "--json", "-")
        assert rc == 3 and out == "" and "capped at n <= " in err
        assert time.perf_counter() - start < 1.0

    def test_plain_table_answers_at_once_at_any_n(self, capsys):
        # it counts the pairs of the C(n+3,3) basis elements and brackets none
        start = time.perf_counter()
        rc, payload, _ = run_json(capsys, "table", "--n", "200")
        assert rc == 0 and payload["ok"] is True
        assert payload["cases"] == [{"name": "table-build", "params": {"n": 200}, "ok": True,
                                     "details": {"entries": comb(comb(203, 3), 2)}}]
        assert time.perf_counter() - start < 1.0

    def test_zero_qubits_is_a_usage_error(self, capsys):
        rc, out, err = run(capsys, "table", "--n", "0", "--json", "-")
        assert rc == 1 and out == "" and "qubit count must be positive" in err


class TestOrbitMethodGone:
    """The orbit engine is a cross-check of `table --compare` only: no verb
    takes it as a bracket method (at n = 24 those routes ran for minutes)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("close", "--n", "24", "--gens", "G2", "--method", "orbit"),
            ("verify", "prop1", "--method", "orbit", "--n-range", "24..24"),
            ("table", "--n", "3", "--method", "orbit"),
        ],
        ids=" ".join,
    )
    def test_rejected_at_once(self, capsys, argv):
        start = time.perf_counter()
        rc, out, err = run(capsys, *argv, "--json", "-")
        assert rc == 1 and out == "" and err.startswith("permlie:")
        assert time.perf_counter() - start < 1.0


class TestNoDiskCache:
    """Structure tables live in memory only: no flag, file or variable."""

    def test_cache_flag_rejected(self, capsys, tmp_path):
        rc, _, err = run(capsys, "close", "--n", "3", "--gens", "G2", "--cache-dir", str(tmp_path))
        assert rc == 1 and "unrecognized arguments: --cache-dir" in err
        assert not os.listdir(tmp_path)

    def test_validate_rejected(self, capsys):
        rc, _, err = run(capsys, "table", "--n", "2", "--validate")
        assert rc == 1 and "unrecognized arguments: --validate" in err

    def test_env_variable_ignored(self, capsys, tmp_path, monkeypatch):
        # every PERMLIE_* variable, the old cache location among them, names
        # an empty directory; no run may write there
        class PermlieEnv(dict):
            def get(self, key, default=None):
                return str(tmp_path) if key.startswith("PERMLIE_") else super().get(key, default)

            def __getitem__(self, key):
                return self.get(key) if key.startswith("PERMLIE_") else super().__getitem__(key)

        monkeypatch.setattr(os, "environ", PermlieEnv(os.environ))
        rc, _, _ = run(capsys, "table", "--n", "3", "--quiet")
        assert rc == 0
        rc, payload, _ = run_json(capsys, "close", "--n", "3", "--gens", "G2")
        assert rc == 0 and payload["dim"] == 19
        assert not os.listdir(tmp_path)

    def test_table_build_details_are_entries_only(self, capsys):
        rc, payload, _ = run_json(capsys, "table", "--n", "2")
        assert rc == 0
        assert payload["cases"][0]["details"] == {"entries": 10 * 9 // 2}


class TestBrokenPipe:
    def test_closed_stdout_exits_quietly(self, capsys, monkeypatch):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        rc = main(["verify", "oracle", "--n-range", "2..3", "--json", "-"])
        assert rc == 1
        assert sys.stdout.name == os.devnull  # the flush at exit goes nowhere
        sys.stdout.close()
        assert capsys.readouterr().err == ""


class TestWrongDataDetection:
    def test_silenced_brackets_fail_closure(self, capsys, monkeypatch):
        """A bracket engine that returns zero everywhere is caught by the
        math.  G1prime is closed by the worklist (the sector ledger proves
        G2's closure with no bracket)."""
        monkeypatch.setattr(structure, "_seed_column", lambda s: ())
        rc, payload, _ = run_json(capsys, "close", "--n", "3", "--gens", "G1prime")
        assert rc == 2
        assert payload["dim"] == 2  # nothing commutes into existence any more
        assert payload["matched"] is False


def readme_blocks(lang: str) -> list[str]:
    """The fenced blocks of README.md in language lang, in order."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.findall(rf"^```{lang}\n(.*?)^```", text, flags=re.S | re.M)


def readme_commands() -> list[list[str]]:
    """Every `permlie ...` line of README.md's sh blocks, shell-split."""
    out = []
    for block in readme_blocks("sh"):
        for line in block.splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["permlie"]:
                out.append(argv[1:])
    return out


class TestReadmeExamples:
    def test_every_verb_is_shown(self):
        assert {argv[0] for argv in readme_commands()} == {
            "close", "verify", "center", "schur", "table",
        }

    @pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
    def test_example_parses(self, argv):
        build_parser().parse_args(argv)  # raises UsageError on a stale flag

    def test_python_blocks_run(self):
        """Each python block runs in a fresh interpreter on the source tree,
        so a library example that goes stale fails here."""
        blocks = readme_blocks("python")
        assert blocks
        src = str(Path(permlie.__file__).resolve().parent.parent)
        for block in blocks:
            proc = subprocess.run([sys.executable, "-c", block], env=dict(os.environ, PYTHONPATH=src),
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr


class TestSchemaResources:
    def test_bundled_names(self):
        for name in ("closure_report", "verify_report"):
            assert os.path.exists(schema_path(name))
        bundled = os.listdir(os.path.dirname(schema_path("closure_report")))
        assert sorted(bundled) == ["closure_report.schema.json", "verify_report.schema.json"]

    def test_closure_schema_lists_exactly_the_emitted_keys(self, capsys):
        """additionalProperties: false catches a payload key the schema
        lacks; this catches a schema entry no payload emits any more.  A
        semi-universal payload lists left_out, any other pivots, so the
        two payloads together emit every key."""
        schema = load_schema("closure_report")
        rc, payload, _ = run_json(capsys, "close", "--n", "3", "--gens", "G2", "--method", "dense")
        assert rc == 0
        report = permlie.build_report(permlie.lie_closure(permlie.preset_generators("G2", 3)))
        assert payload.keys() == report.to_jsonable().keys() | {"command", "dense_dim", "engines_agree"}
        rc, g1, _ = run_json(capsys, "close", "--n", "3", "--gens", "G1")
        assert rc == 0
        assert payload.keys() - g1.keys() == {"left_out", "dense_dim", "engines_agree"}
        assert g1.keys() - payload.keys() == {"pivots"}
        assert schema["properties"].keys() == payload.keys() | g1.keys()
        assert set(schema["required"]) <= payload.keys() & g1.keys()

    @pytest.mark.parametrize("gens, n", [("G2", 3), ("G1", 3), ("1,0,0;0,1,0;1,1,1", 4)])
    def test_schema_wants_left_out_exactly_when_semi_universal(self, capsys, gens, n):
        """The schema keys left_out xor pivots on verdicts.semi_universal: a
        payload with the other list, or with both, fails it."""
        schema = load_schema("closure_report")
        rc, payload, _ = run_json(capsys, "close", "--n", str(n), "--gens", gens)
        jsonschema.validate(payload, schema)
        key, other = ("left_out", "pivots") if payload["verdicts"]["semi_universal"] else (
            "pivots", "left_out")
        swapped = {**payload, other: payload.pop(key)}
        both = {**payload, key: swapped[other], other: swapped[other]}
        for bad in (swapped, both):
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(bad, schema)


STARTUP_PROBE = """
import sys
import permlie.cli
import permlie
assert "numpy" not in sys.modules, "numpy loaded at start-up"
assert permlie.isotypic_table(4)[0].m == 5
basis = permlie.lie_closure(permlie.preset_generators("G2", 4)).basis
assert permlie.certify_subspace_control(4, basis).controllable
assert "numpy" not in sys.modules, "numpy loaded by the sector layer"
try:
    permlie.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("unknown attribute resolved")
"""


class TestStartup:
    def test_numpy_is_never_loaded(self):
        src = str(Path(permlie.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", STARTUP_PROBE], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr

    def test_dataclasses_are_never_loaded(self):
        """Start-up stays free of dataclasses and of inspect, which it
        pulls in; both would be most of the cost of importing the CLI."""
        probe = "import sys{}; print(sorted({{'dataclasses', 'inspect'}} & set(sys.modules)))"
        bare = subprocess.run([sys.executable, "-c", probe.format("")],
                              capture_output=True, text=True, check=True)
        if bare.stdout.strip() != "[]":
            pytest.skip(f"a bare interpreter here already loads {bare.stdout.strip()}")
        src = str(Path(permlie.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", probe.format(", permlie.cli")],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]"
