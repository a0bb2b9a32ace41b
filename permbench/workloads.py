"""Job lists of the two workloads.

A job is one verb invocation: the argv given to `permlie` and the checker
for its JSON report.  Inputs are fixed by the paper's parameter ranges; the
seed only permutes job order within a pass.

- kbody_ladder runs its jobs through `permlie.cli.main` in one fresh
  interpreter per pass (`inproc`), so the closure engine dominates and no
  job reuses module caches left by an identical earlier job.
- verb_mix runs every job as its own `permlie` process (`process`), as a
  user at a shell would, so start-up and the numpy import count.  Its
  `cache` jobs read and write a structure-table cache that set-up primes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from checks import (
    check_center,
    check_close,
    check_lemma2,
    check_notef,
    check_oracle,
    check_prop1,
    check_schur,
    check_table_compare,
    check_thm1,
    check_verify_schur,
)

LADDER_MAX_N = 8
# Three, so that a pass has an odd number of jobs (31) and the median job
# time is one job's time, not the mean of two jobs on either side of a gap.
G2_LARGE_NS = (16, 20, 24)
CACHE_N = 8


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    check: Callable[[dict], list[str]]
    cache: bool = False  # run with $PERMLIE_CACHE_DIR set to the primed cache

    @property
    def label(self) -> str:
        return " ".join(self.argv[:-2])  # drop the trailing "--json -"


def _job(check, *argv: str, cache: bool = False) -> Job:
    return Job((*argv, "--json", "-"), check, cache)


def kbody_ladder(has_pairing: bool) -> list[Job]:
    ladder = [
        _job(check_close(n, k), "close", "--n", str(n), "--gens", f"Gk:{k}")
        for n in range(2, LADDER_MAX_N + 1)
        for k in range(2, n + 1)
    ]
    # G2 at large n stands in for the largest-n headline, where echelon
    # back-substitution and the report dominate.  The generator worklist is
    # asked for only while the CLI still offers a choice; once it is the
    # only worklist the flag is gone.
    pairing = ("--pairing", "generators") if has_pairing else ()
    large = [
        _job(check_close(n, 2), "close", "--n", str(n), "--gens", "G2", *pairing)
        for n in G2_LARGE_NS
    ]
    return ladder + large


def verb_mix(has_pairing: bool) -> list[Job]:
    # schur stays at n <= 6: at n = 8 --check-blocks takes about a minute.
    n = str(CACHE_N)
    return [
        _job(check_center(9), "center", "--n", "9"),
        _job(check_schur(6), "schur", "--n", "6", "--check-blocks"),
        _job(check_oracle(2, 5), "verify", "oracle", "--n-range", "2..5"),
        _job(check_close(5, 2, dense=True), "close", "--n", "5", "--gens", "G2", "--method", "dense"),
        _job(check_table_compare, "table", "--n", "6", "--compare"),
        _job(check_prop1(1, 8), "verify", "prop1"),
        _job(check_lemma2(1, 8), "verify", "lemma2"),
        _job(check_notef, "verify", "noteF"),
        _job(check_verify_schur(1, 6, control_max=5), "verify", "schur"),
        # The only jobs that load and save the structure-table disk cache.
        _job(check_close(CACHE_N, 2), "close", "--n", n, "--gens", "G2", cache=True),
        _job(check_center(CACHE_N), "center", "--n", n, cache=True),
        _job(check_thm1(CACHE_N, CACHE_N), "verify", "thm1", "--n", n, cache=True),
    ]


# The verb that fills the structure-table cache during set-up of verb_mix.
PRIME_ARGV = ("table", "--n", str(CACHE_N), "--quiet")


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "inproc" or "process"
    jobs: Callable[[bool], list[Job]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("kbody_ladder", "inproc", kbody_ladder),
        Workload("verb_mix", "process", verb_mix),
    )
}
