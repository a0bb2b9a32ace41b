"""Spans and counters around permlie's public functions, from outside.

`Tracer.install()` replaces public functions and methods of each permlie
module with wrappers that record a span (name, start, end, parent) and, where
a layer can waste work, a counter.  Spans are kept in flat arrays in memory
and shipped to the benchmark's parent process when the worker ends;
`layer_metrics` turns them into the per-layer metrics.  Nothing inside
`src/` is changed: module-level functions are rebound in every permlie module
that imported them, methods are rebound on their class.
"""

from __future__ import annotations

import base64
import functools
import os
import re
import statistics
import sys
import time
from array import array
from collections import Counter

# (module, attribute or Class.method, span name); the span name is also the
# prefix of the metrics read from it.
SPANS = (
    ("cli", "main", "cli.main"),
    ("structure", "StructureTable.bracket_vectors", "structure.bracket_vectors"),
    ("structure", "StructureTable.bracket", "structure.bracket"),
    ("structure", "bracket", "structure.bracket"),
    ("structure", "build_table", "structure.build_table"),
    ("structure", "load_table", "structure.cache_load"),
    ("structure", "StructureTable.save", "structure.cache_save"),
    ("structure", "compare_tables", "structure.compare_tables"),
    ("linalg", "SparseEchelon.insert", "linalg.insert"),
    ("closure", "lie_closure", "closure.lie_closure"),
    ("closure", "build_report", "closure.build_report"),
    ("closure", "membership_residual", "closure.membership_residual"),
    ("closure", "verdicts", "closure.verdicts"),
    ("center", "verify_center", "center.verify_center"),
    ("schur", "build_schur_transform", "schur.build_schur_transform"),
    ("schur", "block_project", "schur.block_project"),
    ("schur", "certify_subspace_control", "schur.certify_subspace_control"),
    ("oracle", "dense_closure", "oracle.dense_closure"),
    ("oracle", "densify", "oracle.densify"),
    ("erratum", "verify_printed_commutators", "erratum.verify_printed_commutators"),
    ("verify", "run_selector", "verify.run_selector"),
)


# Wall-clock fields are the only part of a report whose length changes from
# run to run; their digits are fixed before counting, so the count repeats.
_CLOCK_FIELD = re.compile(r'("wall_time": )[-+0-9.eE]+')


def report_bytes(text: str) -> int:
    return len(_CLOCK_FIELD.sub(r"\g<1>0", text).encode())


class Tracer:
    """Records spans of one worker process; spans of one job share `job`."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.job = array("H")
        self._stack = [-1]
        self._job_id = 0
        self.counts: Counter = Counter()
        self._tables: list = []
        self._runs: list = []
        self.job_counts: list[dict] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str, after=None):
        """`fn` recording one span per call; `after(result, args)` runs once
        the span has ended, to update counters."""
        nid = self._name_id(name)
        names, parents, starts, ends, jobs, stack = (
            self.name, self.parent, self.start, self.end, self.job, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(self._job_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return traced

    def install(self) -> None:
        import permlie.cli  # noqa: F401  (loads every permlie module)
        from permlie.structure import StructureTable
        from permlie.symops import SymOpVector

        mods = {k[len("permlie."):]: m for k, m in sys.modules.items()
                if k.startswith("permlie.") and m is not None}
        counts = self.counts

        def count(key, value=1):
            counts[key] += value

        def zero_bracket(result, args):
            if result.is_zero:
                count("structure.bracket_vectors.zero")

        def cache_hit(result, args):
            if result is not None:
                count("structure.cache_load_hits")

        def saved(result, args):
            count("structure.cache_save_bytes", os.path.getsize(args[1]))

        def grew(result, args):
            if result is not None:
                count("linalg.insert.grew")

        after = {
            "structure.bracket_vectors": zero_bracket,
            "structure.cache_load": cache_hit,
            "structure.cache_save": saved,
            "linalg.insert": grew,
            "closure.lie_closure": lambda result, args: self._runs.append(result),
        }
        # A function the program no longer has (the ROADMAP plans to delete
        # the cache layer, for one) is skipped; its metrics then read 0.
        for mod_name, attr, name in SPANS:
            owner = mods.get(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(owner, cls_name, None)
                attr = meth
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            traced = self.wrap(fn, name, after.get(name))
            if isinstance(owner, type):
                setattr(owner, attr, traced)
            else:
                self._rebind(mods, fn, traced)

        vec_init = SymOpVector.__init__

        def counted_init(obj, *args, **kwargs):
            counts["symops.vectors_built"] += 1
            vec_init(obj, *args, **kwargs)

        SymOpVector.__init__ = counted_init
        table_init = StructureTable.__init__

        def tracked_init(obj, *args, **kwargs):
            table_init(obj, *args, **kwargs)
            self._tables.append(obj)

        StructureTable.__init__ = tracked_init

    @staticmethod
    def _rebind(mods: dict, original, wrapper) -> None:
        for m in (*mods.values(), sys.modules["permlie"]):
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)

    def end_job(self, report: str) -> None:
        """Close the job's counters; final rows are read after its spans."""
        counts = dict(self.counts)  # before rows() builds vectors of its own
        counts["cli.report_bytes"] = report_bytes(report)
        counts["structure.pair_entries"] = sum(t.entry_count for t in self._tables)
        nnz = bits = 0
        for run in self._runs:
            counts["closure.iterations"] = counts.get("closure.iterations", 0) + run.iterations
            counts["closure.dim"] = counts.get("closure.dim", 0) + run.dim
            for row in run.basis.rows():
                nnz += len(row)
                for _, c in row.items():  # int or Fraction
                    bits = max(bits, abs(c.numerator).bit_length(), c.denominator.bit_length())
        counts["linalg.basis_nnz"] = nnz
        counts["linalg.coeff_bits_max"] = bits
        self.job_counts.append(counts)
        self.counts.clear()
        self._tables.clear()
        self._runs.clear()
        self._job_id += 1

    def export(self) -> dict:
        return {
            "names": self.names,
            "job_counts": self.job_counts,
            **{k: base64.b64encode(getattr(self, k).tobytes()).decode()
               for k in ("name", "parent", "start", "end", "job")},
        }


def _decode(data: dict, key: str, typecode: str) -> array:
    arr = array(typecode)
    arr.frombytes(base64.b64decode(data[key]))
    return arr


class SpanSet:
    """Spans of many worker processes, merged for analysis and output."""

    def __init__(self) -> None:
        self.name: list[str] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.job: list[int] = []
        self.job_counts: list[dict] = []
        self.import_s: list[float] = []

    def add(self, data: dict, import_s: float) -> None:
        base = len(self.start)
        job_base = len(self.job_counts)
        names = data["names"]
        self.name += [names[i] for i in _decode(data, "name", "H")]
        self.parent += [p + base if p >= 0 else -1 for p in _decode(data, "parent", "i")]
        self.start += _decode(data, "start", "d")
        self.end += _decode(data, "end", "d")
        self.job += [j + job_base for j in _decode(data, "job", "H")]
        self.job_counts += data["job_counts"]
        self.import_s.append(import_s)

    def to_jsonable(self) -> dict:
        return {"name": self.name, "parent": self.parent, "start": self.start,
                "end": self.end, "job": self.job, "job_counts": self.job_counts,
                "import_s": self.import_s}


# Metric name -> (span name, statistic).  "s" is the span's whole time, and
# "self_s" that time minus what its child spans cover.
SPAN_METRICS = {
    "cli.main.self_s": ("cli.main", "self_s"),
    "structure.bracket_vectors.calls": ("structure.bracket_vectors", "calls"),
    "structure.bracket_vectors.self_s": ("structure.bracket_vectors", "self_s"),
    "structure.bracket.calls": ("structure.bracket", "calls"),
    "structure.build_table.self_s": ("structure.build_table", "self_s"),
    "structure.cache_load_s": ("structure.cache_load", "s"),
    "structure.cache_save_s": ("structure.cache_save", "s"),
    "linalg.insert.calls": ("linalg.insert", "calls"),
    "linalg.insert.self_s": ("linalg.insert", "self_s"),
    "closure.lie_closure.self_s": ("closure.lie_closure", "self_s"),
    "closure.build_report.self_s": ("closure.build_report", "self_s"),
    "closure.membership_residual.calls": ("closure.membership_residual", "calls"),
    "closure.membership_residual.s": ("closure.membership_residual", "s"),
    "closure.verdicts.s": ("closure.verdicts", "s"),
    "center.verify_center.s": ("center.verify_center", "s"),
    "schur.build_schur_transform.s": ("schur.build_schur_transform", "s"),
    "schur.block_project.calls": ("schur.block_project", "calls"),
    "schur.block_project.s": ("schur.block_project", "s"),
    "schur.certify_subspace_control.s": ("schur.certify_subspace_control", "s"),
    "oracle.dense_closure.s": ("oracle.dense_closure", "s"),
    "oracle.densify.s": ("oracle.densify", "s"),
    "erratum.verify_printed_commutators.s": ("erratum.verify_printed_commutators", "s"),
    "verify.run_selector.self_s": ("verify.run_selector", "self_s"),
}

COUNT_METRICS = (
    "cli.report_bytes",
    "symops.vectors_built",
    "structure.bracket_vectors.zero",
    "structure.pair_entries",
    "structure.cache_load_hits",
    "structure.cache_save_bytes",
    "linalg.insert.grew",
    "linalg.basis_nnz",
    "closure.iterations",
    "closure.dim",
)

BRACKET_SPANS = ("structure.bracket", "structure.bracket_vectors")


def layer_metrics(spans: SpanSet, passes: int) -> dict[str, float]:
    """Per-layer metrics per pass of the job list.

    Sums are divided by `passes`, so counts repeat exactly between runs of
    any length; `cli.import_s` is the median import over worker processes and
    `linalg.coeff_bits_max` the largest coefficient seen.
    """
    n = len(spans.start)
    child = [0.0] * n
    under_center = [False] * n
    for i in range(n):
        p = spans.parent[i]
        if p >= 0:
            child[p] += spans.end[i] - spans.start[i]
            under_center[i] = under_center[p] or spans.name[p] == "center.verify_center"
    stats: dict[tuple[str, str], float] = Counter()
    center_brackets = 0
    for i in range(n):
        name = spans.name[i]
        dur = spans.end[i] - spans.start[i]
        stats[name, "calls"] += 1
        stats[name, "s"] += dur
        stats[name, "self_s"] += dur - child[i]
        if under_center[i] and name in BRACKET_SPANS:
            center_brackets += 1
    totals = Counter()
    for counts in spans.job_counts:
        totals.update({k: v for k, v in counts.items() if k != "linalg.coeff_bits_max"})
    out = {m: stats[key] / passes for m, key in SPAN_METRICS.items()}
    out.update({m: totals[m] / passes for m in COUNT_METRICS})
    out["center.brackets"] = center_brackets / passes
    out["cli.import_s"] = statistics.median(spans.import_s) if spans.import_s else 0.0
    out["linalg.coeff_bits_max"] = max(
        (c.get("linalg.coeff_bits_max", 0) for c in spans.job_counts), default=0)
    calls = out["linalg.insert.calls"]
    out["linalg.insert.useful_share"] = out["linalg.insert.grew"] / calls if calls else 0.0
    calls = out["structure.bracket_vectors.calls"]
    out["structure.bracket_vectors.zero_share"] = (
        out["structure.bracket_vectors.zero"] / calls if calls else 0.0)
    return out

