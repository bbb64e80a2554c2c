"""One fresh process that runs a list of spectheta CLI calls in turn.

Usage: python3 child.py JOB.json OUT.json

JOB.json holds {"calls": [argv, ...], "spans": path or null}; with a
spans path the calls are traced and the spans written there.  Each call's
exit code, stdout and exception are recorded on their own, so one crash
costs one item.  Times are perf_counter readings, which on Linux share
the system-wide monotonic clock with the parent that started this process.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def run_call(main, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    code = error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # the item fails; the next one still runs
        error = f"{type(exc).__name__}: {exc}"
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:],
            "error": error, "seconds": time.perf_counter() - t0}


def main(job_path: str, out_path: str):
    with open(job_path) as f:
        job = json.load(f)
    from spectheta.cli import main as cli_main

    tracer = None
    if job["spans"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    ready = time.perf_counter()
    results = [run_call(cli_main, argv) for argv in job["calls"]]
    end = time.perf_counter()
    record = {
        "ready": ready,
        "end": end,
        "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "results": results,
    }
    if tracer is not None:
        record["trace"] = tracer.dump(job["spans"])
    with open(out_path, "w") as f:
        json.dump(record, f)


if __name__ == "__main__":
    main(*sys.argv[1:])
