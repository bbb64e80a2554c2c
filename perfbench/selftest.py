"""Tests of the benchmark itself.

Run from the repository root:  python3 perfbench/selftest.py

The file name keeps pytest from collecting these into the package's test
suite; they start child processes and take about half a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from corpus import CATEGORIES, category_counts, corpus_digest, make_corpus  # noqa: E402


def cli_stdout(argv):
    from spectheta.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


class ChildTest(unittest.TestCase):
    def setUp(self):
        self.workdir = ROOT / ".perfbench_run" / f"selftest-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.runner = run.Runner(ROOT, self.workdir, time.perf_counter() + 150)

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            self.workdir.parent.rmdir()
        except OSError:
            pass


class CorpusTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        self.assertEqual(corpus_digest(make_corpus(7)), corpus_digest(make_corpus(7)))
        self.assertNotEqual(corpus_digest(make_corpus(7)), corpus_digest(make_corpus(8)))

    def test_fixed_category_counts(self):
        counts = category_counts(make_corpus(3))
        self.assertEqual(counts, category_counts(make_corpus(4)))
        self.assertEqual(set(counts), set(CATEGORIES))
        self.assertEqual(counts["long_spine"], 1)

    def test_items_decode_to_their_graphs(self):
        for item in make_corpus(5):
            self.assertEqual(oracles.decode_graph6(item["graph6"]), (item["n"], item["edges"]))


class OracleTest(unittest.TestCase):
    def test_graph6_matches_package(self):
        from spectheta import book, to_graph6

        g = book(130)  # n = 132 takes the long header
        self.assertEqual(oracles.encode_graph6(g.n, g.edges()), to_graph6(g))

    def search_record(self):
        # K5 first, then five other 10-edge graphs in descending lambda.
        graphs = [
            (5, [(u, v) for u in range(5) for v in range(u + 1, 5)]),
            (6, [(0, v) for v in range(1, 6)] + [(v, v % 5 + 1) for v in range(1, 6)]),  # wheel
            (7, [(u, v) for u in range(2) for v in range(2, 7)]),  # K_{2,5}
            (6, [(u, v) for u in range(3) for v in range(3, 6)] + [(0, 1)]),  # K_{3,3} + e
            (7, [(0, 1)] + [(h, p) for p in range(2, 6) for h in (0, 1)] + [(5, 6)]),
            (11, [(0, v) for v in range(1, 11)]),  # star
        ]
        pairs = sorted(((oracles.spectral_radius(n, e), oracles.encode_graph6(n, e))
                        for n, e in graphs), reverse=True)
        return {"m": 10, "spec": [2, 2, 3], "best_graph6": pairs[0][1],
                "best_lambda": pairs[0][0], "num_candidates": 2100,
                "runner_ups": [{"graph6": g6, "lambda": lam} for lam, g6 in pairs[1:]]}

    def test_search_rejects_lambda_off_by_1e6(self):
        rec = self.search_record()
        self.assertEqual(oracles.check_search(json.dumps(rec)), [])
        rec["runner_ups"][2]["lambda"] += 1e-13  # last-bit drift is accepted
        self.assertEqual(oracles.check_search(json.dumps(rec)), [])
        rec["runner_ups"][2]["lambda"] += 1e-6
        self.assertTrue(oracles.check_search(json.dumps(rec)))

    def test_enumerate_rejects_dropped_and_duplicate_class(self):
        code, out = cli_stdout(["enumerate", "--edges", "6"])
        self.assertEqual(code, 0)
        lines = out.split()
        good, attempted, errors = oracles.check_enumerate(out, 6, 68)  # A000664
        self.assertEqual((good, attempted, errors), (68, 68, []))
        good, attempted, errors = oracles.check_enumerate("\n".join(lines[1:]), 6, 68)
        self.assertEqual((good, attempted), (67, 68))
        self.assertTrue(errors)
        # Replace one class by a relabelled copy of another.
        n, edges = oracles.decode_graph6(lines[10])
        swapped = oracles.encode_graph6(n, {(n - 1 - v, n - 1 - u) for u, v in edges})
        good, attempted, errors = oracles.check_enumerate(
            "\n".join(lines[:20] + [swapped] + lines[21:]), 6, 68)
        self.assertEqual((good, attempted), (67, 68))
        self.assertTrue(errors)

    def test_certificate_rejects_forged_witness_and_lambda(self):
        corpus = make_corpus(11)
        planted = next(it for it in corpus if it["category"] == "planted")
        code, out = cli_stdout(["verify", planted["graph6"], "--json"])
        self.assertEqual(oracles.check_certificate(planted, code, out), [])
        cert = json.loads(out)
        path = cert["witness"]["paths"][2]
        path[1] = next(v for v in range(planted["n"]) if v not in path)
        self.assertTrue(oracles.check_certificate(planted, code, json.dumps(cert)))

        spider = next(it for it in corpus if it["category"] == "spider")
        code, out = cli_stdout(["verify", spider["graph6"], "--json"])
        self.assertEqual(oracles.check_certificate(spider, code, out), [])
        cert = json.loads(out)
        cert["lambda"] += 1e-6
        self.assertTrue(oracles.check_certificate(spider, code, json.dumps(cert)))
        self.assertTrue(oracles.check_certificate(spider, 1 - code, out))


class RescaleTest(unittest.TestCase):
    def test_uses_probe_samples_inside_the_repetition(self):
        rep = {"ready": 10.0, "end": 20.0}
        slow = 2 * run.NOMINAL_PROBE_S
        samples = [(5.0, 9.9), (12.0, slow), (19.0, slow), (25.0, 9.9)]
        self.assertAlmostEqual(run.speed_factor(samples, rep["ready"], rep["end"]), 0.5)
        with self.assertRaises(run.ChildFailed):
            run.speed_factor([(30.0, slow)], rep["ready"], rep["end"])


class IsolationTest(ChildTest):
    def test_known_caterpillar_is_exactly_one_failed_item(self):
        corpus = make_corpus(2)
        picks = [next(it for it in corpus if it["category"] == c)
                 for c in ("spider", "long_spine", "planted")]
        workload = run.Workload("certify", 2)
        workload.corpus = picks
        workload.calls = [["verify", it["graph6"], "--json"] for it in picks]
        rep = run.repetition(self.runner, workload)
        tally = rep["tally"]
        self.assertEqual((tally["attempted"], tally["failed"], tally["good"]), (3, 1, 2))
        self.assertEqual((tally["wrong"], tally["unexpected"]), (0, 0))
        self.assertIn("ConvergenceError", tally["errors"][0])


class TraceTest(ChildTest):
    def test_self_times_add_up_to_traced_run(self):
        g6 = make_corpus(1)[-1]["graph6"]
        calls = [["search", "--edges", "6", "--spec", "2,2,3", "--json"],
                 ["enumerate", "--edges", "5"], ["verify", g6, "--json"], ["verify", "Bw"]]
        record, _, _ = self.runner.child(calls, traced=True)
        self.assertIsNotNone(record)
        run_s = record["end"] - record["ready"]
        metrics = tracing.layer_metrics(record["trace"], record["spans"], run_s)
        self.assertEqual(record["trace"]["missing"], [])
        total = sum(metrics[name] for name in tracing.SELF_TIMES)
        self.assertAlmostEqual(total, run_s, delta=1e-9 * run_s)
        self.assertGreaterEqual(min(metrics[name] for name in tracing.SELF_TIMES), -1e-9)
        self.assertEqual(metrics["enumeration.classes"], record_classes(record))
        self.assertEqual(metrics["verify.calls"], 2)
        # The planted theta stops after one search; free K3 is searched twice.
        self.assertEqual(metrics["verify.theta_per_cert"], 1.5)

    def test_self_times_of_nested_spans(self):
        parent = np.array([-1, 0, 1, 0, -1])
        dur = np.array([10.0, 4.0, 1.0, 3.0, 2.0])
        self.assertEqual(tracing.self_times(parent, dur).tolist(), [3.0, 3.0, 1.0, 3.0, 2.0])

    def test_missing_hook_leaves_metric_out(self):
        tracer = tracing.Tracer()
        tracer.install([("spectheta.cli", "no_such_function", "theta.contains", "theta"),
                        ("spectheta.no_such_module", "f", "spectral.radius", "spectral")])
        self.assertEqual(len(tracer.missing), 2)
        spans = {k: np.zeros(0, t) for k, t in (("name", np.int16), ("parent", np.int32),
                                                 ("start", float), ("end", float),
                                                 ("value", np.int64))}
        metrics = tracing.layer_metrics({"names": tracer.names, "cache": None}, spans, 1.0)
        self.assertNotIn("theta.calls", metrics)
        self.assertNotIn("spectral.calls", metrics)
        self.assertEqual(metrics["cli.self_s"], 1.0)


def record_classes(record):
    search = json.loads(record["results"][0]["stdout"])
    return search["num_candidates"] + len(record["results"][1]["stdout"].split())


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_lists_match_the_code(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]},
                         tracing.PER_LAYER)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         {k: v for k, v in run.UNITS.items() if k not in tracing.PER_LAYER})
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
