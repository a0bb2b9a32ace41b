"""Fresh-interpreter worker of the benchmark.

    python3 permbench/worker.py setup
        import permlie.cli and probe the `close` flags; prints one JSON line.
    python3 permbench/worker.py jobs TRACE ARGV_LISTS_JSON
        run each argv through permlie.cli.main in this process, one at a
        time, capturing what it writes; with TRACE=1 the public functions are
        wrapped in spans first.  Prints one JSON line with the results.

Both start the host-speed sampler (`pace.py`) and return its samples.

permlie comes from PYTHONPATH, which the benchmark points at the checkout's
own `src`.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import sys
import time
import traceback

import pace


def _import_cli():
    t0 = time.perf_counter()
    import permlie.cli

    return permlie.cli, time.perf_counter() - t0


def setup() -> dict:
    pace.start()
    cli, import_s = _import_cli()
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        try:
            cli.main(["close", "--help"])
        except SystemExit:
            pass
    pace.stop()
    return {"import_s": import_s, "has_pairing": "--pairing" in text.getvalue(),
            "pace": pace.take()}


def run_jobs(trace: bool, argvs: list[list[str]]) -> dict:
    pace.start()
    cli, import_s = _import_cli()
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    gc.collect()
    last = pace.take()[-1:] or [pace.probe()]
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        last = pace.take()[-1:] or last
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except Exception:  # one broken job must not hide the others
                rc = -1
                err.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
        # A job too short for a sample of its own takes the latest one.
        samples = pace.take() or last
        last = samples[-1:]
        gc.collect()  # garbage of this job is not charged to the next one
        text = out.getvalue()
        if tracer is not None:
            tracer.end_job(text)
        results.append({"rc": rc, "out": text, "err": err.getvalue(), "s": seconds,
                        "pace": samples})
    pace.stop()
    return {"import_s": import_s, "jobs": results,
            "trace": tracer.export() if tracer is not None else None}


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"]:
        print(json.dumps(setup()))
        return 0
    if argv[:1] == ["jobs"] and len(argv) == 3:
        print(json.dumps(run_jobs(argv[1] == "1", json.loads(argv[2]))))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
