"""permlie benchmark: end-to-end metrics per workload, or per-layer with --trace 1.

    python3 permbench/run.py --workload kbody_ladder --seed 1 --seconds 45 --trace 0
    python3 permbench/run.py --workload all

Run from the root of a checkout; permlie is imported from its `src`.  A run
sets up five times (fresh interpreter importing permlie.cli, plus priming the
structure-table cache for verb_mix) and reports the median as `setup_s`.
It then runs whole passes of the workload's job list, one job at a time, in
an order the seed permutes, and stops at the pass boundary nearest to
--seconds (at least one pass).  Every report is checked against closed
forms.  The last line of output is one JSON object: correct, attempted,
failed, metrics.

Every process that runs permlie samples the host's speed while it runs
(`pace.py`), and the timing metrics are scaled to the fastest sample of the
run (`Scale`), so that the host's drift in speed does not show as a change
in permlie.

With --trace 1 the run makes one untraced pass, then traced passes, and
reports per-layer metrics per pass, plus the tracing overhead against the
untraced pass; the spans go to permbench/out/trace-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import pace
from tracing import SpanSet, layer_metrics
from workloads import PRIME_ARGV, WORKLOADS, Job, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
PACE = os.path.join(HERE, "pace.py")
SAMPLES = os.path.join(OUT, "pace-samples")
SETUP_REPEATS = 5


class BenchError(Exception):
    """The benchmark cannot run here (no program, or set-up failed)."""


def bench_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PERMLIE_CACHE_DIR", "PYTHONPATH")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def run_process(argv: list[str], env: dict) -> tuple[int, str, str, float, int]:
    """(exit code, stdout, stderr, wall seconds, peak RSS in KiB) of a child."""
    with tempfile.TemporaryFile(mode="w+", dir=OUT) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=err, text=True)
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return proc.returncode, out, err.read(), seconds, usage.ru_maxrss


class Run:
    def __init__(self, workload: Workload, root: str, seed: int, seconds: float):
        self.workload = workload
        self.env = bench_env(root)
        self.root = root
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.cache_dir = os.path.join(OUT, "cache")
        self.cache_env = dict(self.env, PERMLIE_CACHE_DIR=self.cache_dir)
        self.uses_cache = any(j.cache for j in workload.jobs(False))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def permlie(self, argv: list[str], env: dict) -> tuple[int, str, str, float, int, list]:
        """Run `permlie argv` as its own process, with the host-speed sampler."""
        if os.path.exists(SAMPLES):
            os.remove(SAMPLES)
        result = run_process([sys.executable, PACE, SAMPLES, *argv], env)
        samples = []
        if os.path.exists(SAMPLES):
            with open(SAMPLES) as fh:
                samples = [float(x) for x in fh.read().split()]
        return (*result, samples)

    def setup_once(self) -> dict:
        rc, out, err, _, _ = run_process([sys.executable, WORKER, "setup"], self.env)
        if rc != 0:
            raise BenchError(f"permlie.cli does not import from {self.root}/src:\n{err}")
        probe = json.loads(out)
        if self.uses_cache:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            os.makedirs(self.cache_dir)
            rc, _, err, _, _, samples = self.permlie(list(PRIME_ARGV), self.cache_env)
            if rc != 0:
                raise BenchError(f"priming the cache failed:\n{err}")
            probe["pace"] += samples
        return probe

    def setup(self) -> list[Job]:
        """Set up SETUP_REPEATS times; keep each time with its speed samples."""
        self.setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            probe = self.setup_once()
            seconds = time.perf_counter() - t0
            self.setups.append({"s": seconds, "pace": probe["pace"] or [pace.probe()]})
        return self.workload.jobs(probe["has_pairing"])

    def run_pass(self, jobs: list[Job], trace: bool, spans: SpanSet | None) -> dict:
        """One pass over `jobs` in a seed-permuted order, checked."""
        order = self.rng.sample(jobs, len(jobs))
        argvs = [list(j.argv) for j in order]
        flag = "1" if trace else "0"
        results = []
        rss = 0
        t0 = time.perf_counter()
        if self.workload.mode == "inproc":
            assert not any(j.cache for j in order), "in-process jobs run without the cache"
            rc, out, err, _, rss = run_process(
                [sys.executable, WORKER, "jobs", flag, json.dumps(argvs)], self.env)
            if rc != 0:
                raise BenchError(f"worker failed:\n{err}")
            data = json.loads(out)
            results = data["jobs"]
            if spans is not None:
                spans.add(data["trace"], data["import_s"])
        else:
            last = [pace.probe()]
            for job, argv in zip(order, argvs):
                env = self.cache_env if job.cache else self.env
                if trace:
                    rc, out, err, s, kib = run_process(
                        [sys.executable, WORKER, "jobs", "1", json.dumps([argv])], env)
                    if rc != 0:
                        raise BenchError(f"worker failed:\n{err}")
                    data = json.loads(out)
                    spans.add(data["trace"], data["import_s"])
                    results.append(data["jobs"][0])
                else:
                    rc, out, err, s, kib, samples = self.permlie(argv, env)
                    results.append({"rc": rc, "out": out, "err": err, "s": s, "pace": samples})
                # A job with no sample of its own takes the latest one.
                results[-1]["pace"] = results[-1]["pace"] or last
                last = results[-1]["pace"][-1:]
                rss = max(rss, kib)
        wall = time.perf_counter() - t0
        done = []
        for job, res in zip(order, results):
            self.attempted += 1
            ok = res["rc"] == 0
            done.append({"label": job.label, "s": res["s"], "pace": res["pace"], "ok": ok})
            if not ok:
                self.failed += 1
                print(f"FAILED (exit {res['rc']}) {job.label}\n{res['err'][-2000:]}", file=sys.stderr)
                continue
            try:
                problems = job.check(json.loads(res["out"]))
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                problems = [f"unreadable report: {exc!r}"]
            self.problems += [f"{job.label}: {p}" for p in problems]
        return {"wall": wall, "jobs": done, "rss_kib": rss}

    def passes(self, jobs: list[Job], trace: bool, spans: SpanSet | None = None) -> list[dict]:
        """Whole passes, ending at the pass boundary nearest to --seconds."""
        done = []
        t0 = time.perf_counter()
        while True:
            done.append(self.run_pass(jobs, trace, spans))
            elapsed = time.perf_counter() - t0
            if elapsed + elapsed / len(done) / 2 > self.seconds:
                return done


class Scale:
    """Times scaled to the fastest host speed the run saw.

    A timed piece of work (a set-up, a job) carries the host-speed samples
    taken while it ran (`pace.py`).  Its scaled time is its time times
    (fastest sample of the run) / (mean of its own samples): what it would
    have taken had the host run at its best speed throughout.
    """

    def __init__(self, *timed: list[dict]):
        self.best = min(p for items in timed for item in items for p in item["pace"])

    def factor(self, item: dict) -> float:
        return self.best / statistics.mean(item["pace"])

    def time(self, item: dict) -> float:
        return item["s"] * self.factor(item)

    def wall(self, p: dict) -> float:
        """A pass's wall time: its jobs scaled each by their own samples, and
        the rest (interpreter start, gaps between jobs) by the pass's mean
        factor."""
        jobs = p["jobs"]
        rest = p["wall"] - sum(j["s"] for j in jobs)
        return sum(map(self.time, jobs)) + rest * statistics.mean(map(self.factor, jobs))


def end_to_end(run: Run) -> dict:
    jobs = run.setup()
    done = run.passes(jobs, trace=False)
    scale = Scale(run.setups, *(p["jobs"] for p in done))
    times = [scale.time(j) for p in done for j in p["jobs"] if j["ok"]]
    wall = sum(map(scale.wall, done))
    with open(os.path.join(OUT, f"result-{run.workload.name}.json"), "w") as fh:
        json.dump({"workload": run.workload.name, "best_sample_s": scale.best,
                   "setups": run.setups, "passes": done}, fh)
    return {
        "setup_s": (statistics.median(map(scale.time, run.setups)), "s"),
        "jobs_per_s": (len(times) / wall, "jobs/s"),
        "job_p50_s": (statistics.median(times) if times else wall, "s"),
        "peak_rss_mb": (max(p["rss_kib"] for p in done) / 1024, "MB"),
    }


def per_layer(run: Run, seed: int) -> dict:
    jobs = run.setup()
    plain = run.run_pass(jobs, trace=False, spans=None)
    spans = SpanSet()
    done = run.passes(jobs, trace=True, spans=spans)
    metrics = layer_metrics(spans, len(done))
    scale = Scale(plain["jobs"], *(p["jobs"] for p in done))
    plain_wall = scale.wall(plain)
    traced_wall = sum(map(scale.wall, done)) / len(done)
    metrics["trace.overhead"] = traced_wall / plain_wall - 1
    metrics["trace.spans"] = len(spans.start) / len(done)
    path = os.path.join(OUT, f"trace-{run.workload.name}.json")
    with open(path, "w") as fh:
        json.dump({"workload": run.workload.name, "seed": seed, "passes": len(done),
                   "untraced_pass_s": plain_wall, "traced_pass_s": traced_wall,
                   "spans": spans.to_jsonable()}, fh)
    return {k: (v, _unit(k)) for k, v in metrics.items()}


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_share", ".overhead")):
        return "share"
    if name.endswith("_bits_max"):
        return "bits"
    return "count"


def run_workload(name: str, root: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(WORKLOADS[name], root, seed, seconds)
    metrics = per_layer(run, seed) if trace else end_to_end(run)
    for p in run.problems:
        print(f"WRONG {p}", file=sys.stderr)
    shown = "  ".join(f"{k}={v:.6g} {u}" for k, (v, u) in metrics.items())
    print(f"{name}: {shown}  attempted={run.attempted} failed={run.failed}")
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=45)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "permlie", "cli.py")):
        print("permbench: run from the root of a permlie checkout (no src/permlie here)",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    # One CPU for the benchmark and every process it starts: jobs run one at
    # a time anyway, and a pinned process does not migrate between CPUs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            result = run_workload(name, root, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result))
    except BenchError as exc:
        print(f"permbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
