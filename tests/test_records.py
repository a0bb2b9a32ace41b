"""Contracts of the runtime records and value types.

The records are NamedTuples and the value types (SymOpVector, GeneratorSet,
DenseOp) are __slots__ classes.  Every one of them refuses assignment; the
value types compare by value and refuse hash(), since their fields hold
dicts; report payloads keep their exact shape.
"""

import copy
import pickle

import pytest

from permlie import (
    DenseOp,
    GeneratorSet,
    SymOpVector,
    build_abc,
    build_report,
    dense_closure,
    densify,
    lie_closure,
    preset_generators,
    printed_commutators,
    run_selector,
    verify_center,
    verify_printed_commutators,
)
from permlie.verify import CaseResult, SuiteReport


def g2_closure(n):
    return lie_closure(preset_generators("G2", n))


def immutable_instances():
    """(instance, one of its fields) for every immutable type."""
    run = g2_closure(3)
    gens = run.gens
    report = build_report(run)
    return [
        (SymOpVector(3, {(1, 0, 0): 2}), "coeffs"),
        (gens, "members"),
        (densify(SymOpVector.unit((1, 0, 0), 2)), "coeffs"),
        (run, "iterations"),
        (report.verdicts, "universal"),
        (report, "dim"),
        (verify_center(2), "solved_dim"),
        (printed_commutators(3, 3)[0], "expected"),
        (build_abc(3, 3), "rank"),
        (verify_printed_commutators(3, 3), "ok"),
        (dense_closure([densify(g) for g in preset_generators("G2", 2).members]), "dim"),
        (CaseResult("case", {"n": 2}, True, {}), "details"),
        (SuiteReport("thm1", ()), "cases"),
    ]


IMMUTABLE = immutable_instances()


class TestImmutable:
    @pytest.mark.parametrize("obj, field", IMMUTABLE, ids=[type(o).__name__ for o, _ in IMMUTABLE])
    def test_assignment_refused(self, obj, field):
        before = getattr(obj, field)
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
        with pytest.raises(AttributeError):
            obj.extra = 1
        assert getattr(obj, field) is before

    def test_deletion_refused(self):
        v = SymOpVector.unit((0, 0, 1), 2)
        with pytest.raises(AttributeError):
            del v.coeffs
        assert v.coeffs == {(0, 0, 1): 1}


def value_pairs():
    """(a, b, c): a and b built apart with equal fields, c differing."""
    g2 = preset_generators("G2", 3)
    return [
        (SymOpVector(3, {(1, 0, 0): 2, (0, 1, 0): 0}), SymOpVector(3, {(1, 0, 0): 2}),
         SymOpVector(4, {(1, 0, 0): 2})),
        (g2, GeneratorSet(3, g2.members, "G2", k=2), GeneratorSet(3, g2.members)),
        (DenseOp(2, {1: 1}), DenseOp(2, {1: 1, 2: 0}), DenseOp(2, {1: 2})),
    ]


class TestValueTypes:
    @pytest.mark.parametrize("a, b, c", value_pairs(), ids=lambda o: type(o).__name__)
    def test_equal_by_value_and_unhashable(self, a, b, c):
        assert a == b and not a != b
        assert a != c
        for obj in (a, b, c):
            with pytest.raises(TypeError):
                hash(obj)

    @pytest.mark.parametrize("a, b, c", value_pairs(), ids=lambda o: type(o).__name__)
    def test_copy_pickle_and_repr_by_fields(self, a, b, c):
        assert copy.copy(a) == a
        assert copy.deepcopy(a) == a
        assert pickle.loads(pickle.dumps(a)) == a
        assert repr(a).startswith(f"{type(a).__name__}(n=")

    def test_defaults(self):
        assert SymOpVector(2).is_zero
        assert DenseOp(2).is_zero
        g = GeneratorSet(2, (SymOpVector.unit((1, 0, 0), 2),))
        assert (g.label, g.k) == ("custom", None)


# Every ladder suite's payload at n = 2..3, wall_time dropped: the case
# name, then (params, details) per case.
_PATTERN = {"pattern": {"0": True, "1": False}, "conserved": True}
_NK = ({"n": 2, "k": 2}, {"n": 3, "k": 2}, {"n": 3, "k": 3})
LADDER_PAYLOADS = {
    "thm1": ("g2-closure-dimension", [
        ({"n": 2}, {"dim": 9, "predicted": 9, "iterations": 0}),
        ({"n": 3}, {"dim": 19, "predicted": 19, "iterations": 0}),
    ]),
    "thm3": ("g2-central-projections", [({"n": 2}, _PATTERN), ({"n": 3}, _PATTERN)]),
    "thm4": ("g2-membership-residuals", [
        ({"n": 2}, {"residuals_checked": 9, "all_zero": True, "c1_reachable": True}),
        ({"n": 3}, {"residuals_checked": 19, "all_zero": True, "c1_reachable": True}),
    ]),
    "thm5": ("kbody-closure-dimension", [
        (p, {"dim": d, "predicted": d}) for p, d in zip(_NK, (9, 19, 19))
    ]),
    "thm6": ("kbody-central-projections", [(p, _PATTERN) for p in _NK]),
    "cor1": ("universality-threshold", [
        (p, {"dim": d, "predicted": d, "dim_su": d, "universal": True,
             "semi_universal": True, "threshold": True}) for p, d in zip(_NK, (9, 19, 19))
    ]),
}


class TestRecords:
    def test_case_details_given_are_kept(self):
        details = {"dim": 3}
        assert CaseResult("a", {"n": 2}, False, details).details is details
        assert CaseResult("a", {"n": 2}, False, details=details).details is details

    def test_closure_report_payload(self):
        run = g2_closure(3)
        payload = build_report(run).to_jsonable()
        assert isinstance(payload.pop("wall_time"), float)
        assert payload == {
            "ambient": {"dim_center": 2, "dim_su": 19, "dim_su_cless": 18, "dim_u": 20},
            "dim": 19,
            "exempt": [1],
            "generators": ["1*(1,0,0)", "1*(0,1,0)", "1*(0,0,2)"],
            "iterations": 0,
            "k": 2,
            "label": "G2",
            "matched": True,
            "n": 3,
            "left_out": ["0,0,0"],
            "predicted": 19,
            "verdicts": {"semi_universal": True, "universal": True},
        }

    @pytest.mark.parametrize("selector", sorted(LADDER_PAYLOADS))
    def test_suite_report_payload(self, selector):
        name, rows = LADDER_PAYLOADS[selector]
        payload = run_selector(selector, 2, 3).to_jsonable()
        for case in payload["cases"]:
            assert ("wall_time" in case["details"]) == (selector == "thm1")
            case["details"].pop("wall_time", None)
        assert payload == {
            "cases": [{"name": name, "ok": True, "params": params, "details": details}
                      for params, details in rows],
            "n_range": [2, 3],
            "ok": True,
            "selector": selector,
        }

    def test_verb_report_payload(self):
        verb = SuiteReport("table", (CaseResult("x", {"n": 2}, False, {"a": 1}),))
        assert verb.to_jsonable() == {
            "selector": "table",
            "ok": False,
            "cases": [{"name": "x", "params": {"n": 2}, "ok": False, "details": {"a": 1}}],
        }
