"""Host-speed sampler: a tiny fixed loop, timed every INTERVAL seconds.

The benchmark runs on shared hosts whose speed drifts by tens of percent
within seconds.  Every process that runs permlie for the benchmark starts
this sampler: every 25 ms a SIGALRM handler, in the same thread as permlie,
takes one `probe` (about 0.4 ms in all), so the samples tell how fast the
host ran that very stretch of work.  `run.Scale` turns them into scaled
times.

    python3 permbench/pace.py SAMPLES_FILE ARGS...
        run `permlie ARGS` (permlie.cli.main) in this process with the
        sampler on; at exit, write the samples (seconds, space-separated)
        to SAMPLES_FILE.
"""

from __future__ import annotations

import signal
import sys
import time

INTERVAL = 0.025
_samples: list[float] = []


def _loop() -> int:
    # Small-int arithmetic and dict traffic, as in permlie's sparse vectors.
    d: dict[int, int] = {}
    for i in range(1500):
        k = (i * 7919) % 509
        d[k] = d.get(k, 0) + i * i
    return len(d)


def probe() -> float:
    """Seconds for one `_loop`, now.  A first, untimed loop brings its code
    and data back into the CPU caches, so the sample does not depend on what
    the interrupted work left there."""
    _loop()
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


def _sample(signum, frame) -> None:
    _samples.append(probe())


def start() -> None:
    signal.signal(signal.SIGALRM, _sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0)


def take() -> list[float]:
    """The samples since the last take."""
    global _samples
    taken, _samples = _samples, []
    return taken


def main(argv: list[str]) -> int:
    path, args = argv[0], argv[1:]
    start()
    try:
        from permlie.cli import main as permlie_main

        return permlie_main(args)
    finally:
        stop()
        with open(path, "w") as fh:
            fh.write(" ".join(map(repr, take())))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
