"""spectheta benchmark: the entry point that runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload search --seed 1 --seconds 35 --trace 0

Each measured repetition of a workload runs in a fresh single-threaded
child process (child.py), because the canonical-label lru_cache starts
cold for every CLI user.  Repetitions run one after another, pinned to one
CPU next to a low-priority speed probe (probe.py), and stop before one
would end after --seconds.  Every output is checked against the
independent oracles in oracles.py.  The last stdout line is one JSON
object: the end-to-end metrics with --trace 0, or with --trace 1 the
per-layer metrics of one traced repetition, timed against one untraced
repetition in the same run.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracles
import tracing
from corpus import category_counts, corpus_digest, make_corpus

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
# CPU seconds of one probe.py sample at nominal speed: the fast phase of the
# 2-core x86-64 VM this benchmark was defined on.  Times are scaled by
# NOMINAL_PROBE_S over the mean sample while they were taken: run_s over its
# repetition, setup_s over the whole run.
NOMINAL_PROBE_S = 1.3e-3
# Every run must end within 180 s; stop starting repetitions before this.
BUDGET_S = 165.0

WORKLOADS = ("search", "enumerate", "certify")
ENUMERATE_EDGES = 10
ENUMERATE_CLASSES = 4613  # OEIS A000664 at m = 10
SEARCH_ARGV = ["search", "--edges", "10", "--spec", "2,2,3", "--json"]

UNITS = {"run_s": "s", "items_per_s": "1/s", "setup_s": "s", "peak_rss_mib": "MiB",
         "ok_ratio": "ratio"}
UNITS.update((name, unit) for name, (unit, _) in tracing.PER_LAYER.items())


class Workload:
    """The CLI calls one repetition makes, and the oracle for their results."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.corpus = None
        self._enumerate_checks = {}
        if name == "search":
            self.calls = [SEARCH_ARGV]
        elif name == "enumerate":
            self.calls = [["enumerate", "--edges", str(ENUMERATE_EDGES)]]
        else:
            self.corpus = make_corpus(seed)
            self.calls = [["verify", it["graph6"], "--json"] for it in self.corpus]

    def evaluate(self, results) -> dict:
        """Item counts of one repetition.

        wrong counts items whose output contradicts an oracle; unexpected
        counts failed items other than the documented known defect.
        Either one makes the run incorrect.
        """
        if self.name == "certify":
            good = wrong = unexpected = 0
            errors = []
            for item, res in zip(self.corpus, results):
                problems = [res["error"]] if res["error"] is not None else \
                    oracles.check_certificate(item, res["code"], res["stdout"])
                if not problems:
                    good += 1
                    continue
                if res["error"] is None:
                    wrong += 1
                elif not item["known_defect"]:
                    unexpected += 1
                errors.append(f"{item['category']} {item['graph6'][:20]}: {'; '.join(problems)}")
            return tally(good, len(self.corpus), wrong, unexpected, errors)
        res = results[0]
        items = ENUMERATE_CLASSES if self.name == "enumerate" else \
            oracles.SEARCH_EXPECT["num_candidates"]
        if res["error"] is not None or res["code"] != 0:
            return tally(0, items, 0, items, [f"exit {res['code']}: {res['error'] or res['stderr']}"])
        if self.name == "search":
            errors = oracles.check_search(res["stdout"])
            return tally(0, items, items, 0, errors) if errors else tally(items, items)
        digest = hashlib.sha256(res["stdout"].encode()).hexdigest()
        if digest not in self._enumerate_checks:  # networkx runs once per distinct output
            self._enumerate_checks[digest] = oracles.check_enumerate(
                res["stdout"], ENUMERATE_EDGES, ENUMERATE_CLASSES)
        good, attempted, errors = self._enumerate_checks[digest]
        return tally(good, attempted, attempted - good, 0, errors[:5])


def tally(good, attempted, wrong=0, unexpected=0, errors=()) -> dict:
    return {"good": good, "attempted": attempted, "failed": attempted - good, "wrong": wrong,
            "unexpected": unexpected, "errors": list(errors)}


class ChildFailed(Exception):
    """A child process timed out or died; the run cannot be measured."""


class Runner:
    """Starts child processes from the checkout at root, one at a time."""

    def __init__(self, root: Path, workdir: Path, deadline: float):
        self.root = root
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
                        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

    def child(self, calls, traced=False):
        """(record, setup seconds, wall seconds) of one fresh child."""
        self.count += 1
        job = self.workdir / f"job{self.count}.json"
        out = self.workdir / f"out{self.count}.json"
        spans = self.workdir / f"spans{self.count}.npz" if traced else None
        job.write_text(json.dumps({"calls": calls, "spans": str(spans) if spans else None}))
        timeout = max(1.0, self.deadline - time.perf_counter())
        spawned = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(job), str(out)],
                                  cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"child still running after {timeout:.0f} s") from None
        wall = time.perf_counter() - spawned
        if proc.returncode != 0 or not out.exists():
            raise ChildFailed(f"child exited {proc.returncode}: {proc.stderr[-2000:]}")
        record = json.loads(out.read_text())
        if spans is not None:
            with np.load(spans) as data:
                record["spans"] = {k: data[k] for k in data.files}
        return record, record["ready"] - spawned, wall


def repetition(runner: Runner, workload: Workload, traced=False) -> dict:
    record, setup, wall = runner.child(workload.calls, traced)
    return {"setup_s": setup, "wall_s": wall, "tally": workload.evaluate(record["results"]),
            "ready": record["ready"], "end": record["end"],
            "wall_run_s": record["end"] - record["ready"], "rss_mib": record["rss_kib"] / 1024.0,
            "trace": record.get("trace"), "spans": record.get("spans")}


def speed_factor(samples, start=float("-inf"), end=float("inf")) -> float:
    """NOMINAL_PROBE_S over the mean probe chunk time between start and end."""
    inside = [cpu for t, cpu in samples if start <= t <= end]
    if not inside:
        raise ChildFailed("the speed probe got no CPU time during a repetition")
    return NOMINAL_PROBE_S / statistics.mean(inside)


def source_identity(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def machine_record(root: Path, args, workload: Workload) -> dict:
    rec = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": np.__version__, "platform": platform.platform(),
        **source_identity(root),
    }
    if workload.corpus is not None:
        rec["corpus_sha256"] = corpus_digest(workload.corpus)
        rec["corpus_counts"] = category_counts(workload.corpus)
    return rec


def end_to_end(reps, setups) -> dict:
    attempted = sum(r["tally"]["attempted"] for r in reps)
    failed = sum(r["tally"]["failed"] for r in reps)
    return {
        "run_s": statistics.median(r["run_s"] for r in reps),
        "items_per_s": statistics.median(r["tally"]["good"] / r["run_s"] for r in reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": statistics.median(r["rss_mib"] for r in reps),
        "ok_ratio": (attempted - failed) / attempted,
    }


def measure(args, runner: Runner, workload: Workload):
    """(repetitions, setup samples) of one run."""
    runner.child([])  # warm-up: byte-compile, fill the file cache
    if args.trace:
        return [repetition(runner, workload), repetition(runner, workload, traced=True)], []
    setups = [runner.child([])[1] for _ in range(SETUP_SAMPLES)]
    # Start a repetition only when it should end within --seconds (judged by
    # the previous one), so a run never overshoots by a whole repetition.
    reps = []
    loop_start = time.perf_counter()
    while True:
        reps.append(repetition(runner, workload))
        now = time.perf_counter()
        if now + reps[-1]["wall_s"] > min(loop_start + args.seconds, runner.deadline):
            break
    return reps, setups + [r["setup_s"] for r in reps]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    # Turn SIGTERM into SystemExit so the finally blocks stop the probe.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "spectheta" / "cli.py").is_file():
        sys.stderr.write(f"no spectheta sources under {root / 'src'}; run from the repository root\n")
        return 2
    workload = Workload(args.workload, args.seed)
    # The probe and every child inherit this single-CPU affinity.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = root / ".perfbench_run" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    probe_out = workdir / "probe.json"
    probe = subprocess.Popen([sys.executable, str(HERE / "probe.py"), str(probe_out)])
    try:
        try:
            reps, setups = measure(args, Runner(root, workdir, started + BUDGET_S), workload)
        finally:
            probe.terminate()
            probe.wait(timeout=30)
        samples = json.loads(probe_out.read_text())
        for rep in reps:
            rep["run_s"] = rep["wall_run_s"] * speed_factor(samples, rep["ready"], rep["end"])
        setups = [setup * speed_factor(samples) for setup in setups]
    except ChildFailed as exc:
        sys.stderr.write(f"no measurement: {exc}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    if args.trace:
        plain, traced = reps
        metrics = tracing.layer_metrics(traced["trace"], traced["spans"], traced["wall_run_s"])
        metrics["trace.run_s"] = traced["wall_run_s"]
        metrics["trace.overhead_ratio"] = traced["run_s"] / plain["run_s"]
        missing = traced["trace"]["missing"]
    else:
        metrics = end_to_end(reps, setups)
        missing = []

    attempted = sum(r["tally"]["attempted"] for r in reps)
    failed = sum(r["tally"]["failed"] for r in reps)
    correct = all(r["tally"]["wrong"] == 0 and r["tally"]["unexpected"] == 0 for r in reps)
    record = machine_record(root, args, workload)
    record.update(repetitions=len(reps), wall_run_s=[r["wall_run_s"] for r in reps],
                  run_s=[r["run_s"] for r in reps], missing_hooks=missing,
                  errors=sorted({e for r in reps for e in r["tally"]["errors"]}))
    print("record " + json.dumps(record))
    for name, value in metrics.items():
        print(f"{args.workload:>9}  {name:<24} {value:>16.6f} {UNITS[name]}")
    if not args.trace:
        print(f"{args.workload:>9}  {'error_ratio':<24} {failed / attempted:>16.6f} ratio")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
