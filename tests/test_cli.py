import hashlib
import io
import json
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

from helpers import binary_tree

import spectheta
from spectheta import book, complete, complete_bipartite, to_graph6
from spectheta.cli import main


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_family_pipes_into_radius(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["family", "book", "--k", "28"])
    assert code == 0
    g6 = out.strip()
    code, out, _ = run_cli(capsys, ["radius"], stdin=g6 + "\n", monkeypatch=monkeypatch)
    assert code == 0
    assert out.split()[0] == "8.000000000"


def test_radius_argument_and_json(capsys):
    code, out, _ = run_cli(capsys, ["radius", to_graph6(book(3))])
    assert code == 0
    assert out.split()[0] == "3.000000000"
    code, out, _ = run_cli(capsys, ["radius", "--json", to_graph6(book(3))])
    data = json.loads(out)
    assert data["lambda"] == pytest.approx(3.0, abs=1e-9)
    assert len(data["perron"]) == 5


def test_free_exit_codes(capsys):
    code, out, _ = run_cli(capsys, ["free", "--spec", "2,2,3", to_graph6(complete_bipartite(2, 4))])
    assert code == 0 and out == ""
    code, out, _ = run_cli(capsys, ["free", "--spec", "2,2,3", to_graph6(complete(6))])
    assert code == 1
    witness = json.loads(out)
    assert set(witness) == {"hubs", "paths"}


def test_free_rejects_bad_spec(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["free", "--spec", "1,1,4", "Bw"])
    assert exc.value.code == 2


def test_enumerate_stream(capsys):
    from spectheta import canonical_label, from_graph6, path, star

    code, out, _ = run_cli(capsys, ["enumerate", "--edges", "3", "--connected"])
    assert code == 0
    got = {canonical_label(from_graph6(line)) for line in out.split()}
    want = {canonical_label(g) for g in (complete(3), path(4), star(4))}
    assert got == want


# m -> (line count, sha256) of the stdout of `enumerate --edges M`; m = 10 is
# the benchmark's `enumerate` workload.  The connected classes come first, in
# tree order, then the disjoint unions of smaller connected ones.
ENUMERATE_STDOUT_DIGESTS = {
    8: (497, "2774464426b92627d65aa9b990753a5c3a444362d45f3b3cead86c02ec050e9d"),
    10: (4613, "15f20b4b5272bb9e157cf032b55e26a6335a2324be3d2df106b04c1a1ad59ebb"),
    11: (15216, "fecdd334e73b61678209a52f25b632f22c5a5f2a27b67655c2ef2a284fa6f197"),
}


def test_enumerate_stream_bytes_pinned(capsys):
    # Any change to the representatives or their order changes these digests.
    for m, (lines, want) in ENUMERATE_STDOUT_DIGESTS.items():
        code, out, _ = run_cli(capsys, ["enumerate", "--edges", str(m)])
        assert code == 0
        assert len(out.splitlines()) == lines
        assert hashlib.sha256(out.encode()).hexdigest() == want, m


# The same for `enumerate --edges 10 --connected`: the connected classes in
# tree order, unchanged by how the disconnected ones are produced.
CONNECTED_STDOUT_DIGEST = (2322, "d9ed8085174f9568364a9e26e03537f6b5c77a31bcf7a302803db3a35a60c00a")


def test_enumerate_connected_stream_bytes_pinned(capsys):
    lines, want = CONNECTED_STDOUT_DIGEST
    code, out, _ = run_cli(capsys, ["enumerate", "--edges", "10", "--connected"])
    assert code == 0
    assert len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode()).hexdigest() == want


def test_enumerate_free_filter(capsys):
    # --free prunes inside the generator; its lines must be the unfiltered
    # stream's free lines, in the same order.
    from spectheta import ThetaSpec, contains_theta, from_graph6

    for m in range(1, 9):
        for connected in ([], ["--connected"]):
            _, out, _ = run_cli(capsys, ["enumerate", "--edges", str(m)] + connected)
            lines = out.splitlines()
            for text in ("2,2,3", "3,3,3", "1,2,2"):
                spec = ThetaSpec.parse(text)
                want = [g6 for g6 in lines if contains_theta(from_graph6(g6), spec) is None]
                argv = ["enumerate", "--edges", str(m), "--free", text] + connected
                code, out, _ = run_cli(capsys, argv)
                assert code == 0
                assert out.splitlines() == want
                if m >= spec.r + spec.p + spec.q:
                    assert len(want) < len(lines)


def test_budget_guard_exit_3(capsys):
    code, _, err = run_cli(capsys, ["enumerate", "--edges", "13"])
    assert code == 3
    assert "budget" in err


def test_budget_limit_flag(capsys, monkeypatch):
    for argv in (["enumerate", "--edges", "3"],
                 ["search", "--edges", "3", "--spec", "2,2,3"],
                 ["table", "--edges", "3"]):
        code, out, err = run_cli(capsys, argv + ["--limit", "2"])
        assert code == 3 and out == "" and "budget 2" in err
        code, out, _ = run_cli(capsys, argv + ["--limit", "3"])
        assert code == 0 and out
    # The budget is a flag only; the environment does not lower it.
    monkeypatch.setenv("SPECTHETA_EDGE_BUDGET", "2")
    code, out, _ = run_cli(capsys, ["enumerate", "--edges", "3"])
    assert code == 0 and out


def test_table_checks_budget_before_searching(capsys, monkeypatch):
    calls = []

    def spy(m, *args, **kwargs):
        calls.append(m)
        raise AssertionError(f"searched m={m} before the budget check")

    monkeypatch.setattr("spectheta.verify.extremal_search", spy)
    code, out, err = run_cli(capsys, ["table", "--edges", "3..13"])
    assert code == 3 and out == "" and "edge count 13" in err
    assert calls == []


def test_oversized_inputs_fail_before_allocating():
    # Each call runs in a child whose address space is capped at 512 MiB,
    # so an input that allocates without bound fails fast instead of
    # exhausting the machine.
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    src = os.path.dirname(os.path.dirname(spectheta.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    for argv, want in ((["family", "complete", "--n", "20000"], 2),
                       (["family", "book", "--k", "100000000"], 2),
                       (["table", "--edges", "1..100000000000"], 3),
                       (["enumerate", "--edges", "100000000", "--limit", "100000000",
                         "--connected"], 2),
                       (["search", "--edges", "100000000", "--limit", "100000000",
                         "--spec", "2,2,3"], 2)):
        proc = subprocess.run([sys.executable, "-m", "spectheta.cli"] + argv, env=env,
                              preexec_fn=cap, capture_output=True, text=True, timeout=60)
        assert proc.returncode == want, (argv, proc.stderr)
        assert proc.stdout == "" and proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr


def test_search_json_golden(capsys):
    code, out, _ = run_cli(capsys, ["search", "--edges", "3", "--spec", "2,2,3", "--json"])
    assert code == 0
    rec = json.loads(out)
    assert rec["best_graph6"] == "Bw"
    assert rec["best_lambda"] == pytest.approx(2.0, abs=1e-9)
    assert rec["num_candidates"] == 3
    assert rec["spec"] == [2, 2, 3]


# sha256 of the stdout of `search --edges M --spec S --json`, and of
# `table --edges 3..10 --json`, frozen from the search that
# labelled and solved every candidate and ran the full theta detector on
# every tree child.
SEARCH_STDOUT_DIGESTS = {
    (3, "2,2,3"): "e59e3d71098d90de8522f1f0a7c7a4158d8763bc5abe0f29a502fb53cafd5223",
    (4, "2,2,3"): "6666f468e817882f3be1efbddf4d2ae341bffeb979e4b6a75044fe968de4cfca",
    (5, "2,2,3"): "64b6b0048a5244a69a27407ff9a1965cdfc3193ce0b862e01e9c48aeeeebd0ef",
    (6, "2,2,3"): "275b1d9cc26265abbe3bf9ec838eec998d374d2af65440c91b4a1791d3db348e",
    (7, "2,2,3"): "b74b724fb9b002d6aa0eebe798aac9227e391b788331bc428921508d69547d24",
    (8, "2,2,3"): "8b045b05e45d243698c2a4aa54758706b51b225a48bb835878c647e82bf2cc88",
    (9, "2,2,3"): "43cad2c5a66b599fc430f37649c81f49048d70376b9f6686245a5c1b627b1e12",
    (10, "2,2,3"): "dcc731daf997d31644adacbf8f79c40e2213598476b006f48216d2a70b699e78",
    (11, "2,2,3"): "63eb6dd1e7801c219a27b4392540c5b4a12391ba7e066fc78e4edaf7c9bb229b",
    (10, "2,2,2"): "94481af84d96c987a343549bf0a965b1f0f460be38ea780686d7ab3b015b7a96",
    (10, "3,3,3"): "1f4787691571c14a45b10526c3f32f28c06079cd955cf8c78d0830804f30ca97",
    (10, "1,2,2"): "c5c8e204bce5e437ee5670d0c34c42a0b251126433a75fde286bfac45aebadea",
}
TABLE_STDOUT_DIGEST = "b68f4ba57c0fe876ea890d2ff6c76e8df91b93a1a7218de34b5451c615eb7375"


def test_search_and_table_stdout_pinned(capsys):
    for (m, spec), want in SEARCH_STDOUT_DIGESTS.items():
        code, out, _ = run_cli(capsys, ["search", "--edges", str(m), "--spec", spec, "--json"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == want, (m, spec)
    code, out, _ = run_cli(capsys, ["table", "--edges", "3..10", "--json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_STDOUT_DIGEST


def test_search_deterministic_across_runs_and_threads(capsys):
    outputs = []
    for argv in (
        ["search", "--edges", "6", "--spec", "2,2,3", "--json"],
        ["search", "--edges", "6", "--spec", "2,2,3", "--json"],
    ):
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    # the search is single-threaded; a thread count is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["search", "--edges", "6", "--spec", "2,2,3", "--threads", "4"])
    assert exc.value.code == 2


def test_table(capsys):
    code, out, _ = run_cli(capsys, ["table", "--edges", "3..4"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3  # header plus two rows
    assert lines[1].split()[0] == "3"
    code, out, _ = run_cli(capsys, ["table", "--edges", "3..4", "--json"])
    rows = json.loads(out)
    assert rows[0]["gap"] == pytest.approx(0.0, abs=1e-9)
    # The table is the (2,2,3) theorem's; asking it about a spec is a usage error.
    with pytest.raises(SystemExit) as exc:
        main(["table", "--edges", "3", "--spec", "2,2,3"])
    assert exc.value.code == 2


def test_verify_json_and_exit_codes(capsys):
    code, out, _ = run_cli(capsys, ["verify", to_graph6(book(28)), "--json"])
    assert code == 0
    cert = json.loads(out)
    assert cert["equality_case"]["iso_to_book"]
    code, _, _ = run_cli(capsys, ["verify", to_graph6(complete(6)), "--json"])
    assert code == 1
    # book(3) and K2 padded with isolated vertices are still books.
    for g6 in ("E}o?", "CG"):
        code, out, _ = run_cli(capsys, ["verify", g6, "--json"])
        assert code == 0 and json.loads(out)["equality_case"]["iso_to_book"], g6


def test_verify_answers_the_depth_six_binary_tree():
    # 127 vertices with |Aut| = 2^63.  A labeller that visits every leaf
    # tied with the least one never finishes; its own child process keeps
    # the hang out of the suite.
    src = os.path.dirname(os.path.dirname(spectheta.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "spectheta.cli", "verify",
                           to_graph6(binary_tree(6))],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "theta_free: true" in proc.stdout


def test_verify_human_mode(capsys):
    code, out, _ = run_cli(capsys, ["verify", to_graph6(book(3))])
    assert code == 0
    assert "theta_free: true" in out
    assert "checklist: 8/8 hold" in out


def test_bad_line_mid_stream(capsys, monkeypatch):
    # Lines before the bad one keep their output; the error goes to stderr
    # and the exit code is 2.
    code, out, err = run_cli(capsys, ["radius"], stdin="Bw\n~\n", monkeypatch=monkeypatch)
    assert code == 2
    assert out.splitlines()[0].split()[0] == "2.000000000" and len(out.splitlines()) == 1
    assert err == "error: truncated graph6 header\n"
    code, out, err = run_cli(capsys, ["verify", "--json"], stdin="Bw\n~\n",
                             monkeypatch=monkeypatch)
    assert code == 2
    assert json.loads(out)["graph6"] == "Bw"
    assert err == "error: truncated graph6 header\n"


def test_convergence_error_exits_2(capsys, monkeypatch):
    # An eigenpair that misses the residual target is an input the package
    # cannot answer: exit 2 with one error line, earlier lines keep output.
    exact = np.linalg.eigh

    def perturbed(a):
        w, v = exact(a)
        return (w + 1e-6, v) if a.shape[0] > 3 else (w, v)

    monkeypatch.setattr(np.linalg, "eigh", perturbed)
    stdin = "Bw\n" + to_graph6(book(3)) + "\n"
    code, out, err = run_cli(capsys, ["radius"], stdin=stdin, monkeypatch=monkeypatch)
    assert code == 2
    assert out.splitlines()[0].split()[0] == "2.000000000" and len(out.splitlines()) == 1
    assert err.startswith("error: eigenpair residual ") and err.count("\n") == 1
    code, out, err = run_cli(capsys, ["verify", "--json"], stdin=stdin, monkeypatch=monkeypatch)
    assert code == 2
    assert json.loads(out)["graph6"] == "Bw"
    assert err.startswith("error: eigenpair residual ") and err.count("\n") == 1


def test_closed_stdout_exits_2_without_traceback():
    # A reader that stops after one line (`| head -1`).  At m=9 the stream
    # is about 18 KB, so writes still follow the first 4 KB block when the
    # pipe is closed.
    src = os.path.dirname(os.path.dirname(spectheta.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "spectheta.cli", "enumerate", "--edges", "9"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert first.strip()
    assert b"Traceback" not in err


_CALLS_IN_ONE_PROCESS = """
import contextlib, io, json, sys
from spectheta.cli import _build_parser, main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps({"parsers": _build_parser.cache_info().misses, "results": results}))
"""


def test_calls_in_one_process_match_separate_processes():
    # The argument parser is built once per process and reused, as when a
    # caller runs `main` once per `verify` item: a usage error must leave
    # nothing behind for the calls after it.
    src = os.path.dirname(os.path.dirname(spectheta.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    calls = [["verify", "--bogus"],
             ["verify", to_graph6(book(3)), "--json"],
             ["search", "--edges", "6", "--spec", "2,2,3"]]
    proc = subprocess.run([sys.executable, "-c", _CALLS_IN_ONE_PROCESS, json.dumps(calls)],
                          env=env, capture_output=True, text=True, timeout=60, check=True)
    together = json.loads(proc.stdout)
    assert together["parsers"] == 1
    apart = []
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "spectheta.cli"] + argv, env=env,
                              capture_output=True, text=True, timeout=60)
        apart.append([proc.returncode, proc.stdout, proc.stderr])
    assert together["results"] == apart
    assert [code for code, _, _ in apart] == [2, 0, 0]


def test_nosal(capsys):
    code, out, _ = run_cli(capsys, ["nosal", to_graph6(complete_bipartite(2, 4))])
    assert code == 0
    assert "equality=(2,4)" in out
    code, out, _ = run_cli(capsys, ["nosal", "--json", to_graph6(complete_bipartite(2, 4))])
    data = json.loads(out)
    assert data["equality_structure"] == [2, 4]


def test_family_usage_error(capsys):
    for argv, message in ((["family", "book"], "family book needs --k"),
                          (["family", "complete_bipartite", "--s", "2"],
                           "family complete_bipartite needs --s and --t"),
                          (["family", "star"], "family star needs --n")):
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


def _rounded(value):
    # Floats to 9 decimals, so the pin survives last-bit eigensolver noise.
    if isinstance(value, float):
        return round(value, 9)
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    return value


def test_verify_output_pinned(capsys):
    # Any change to the certificate's keys, key order, values or human
    # lines changes these digests.
    from spectheta import Graph, cycle, path, star

    k4_pendant = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    graphs = [to_graph6(g) for g in (book(1), book(3), book(28), star(58), complete(6),
                                     cycle(6), path(5), k4_pendant, two_triangles)]
    graphs += ["?", "@"]
    json_codes, json_text, human_codes, human_text = [], [], [], []
    for g6 in graphs:
        code, out, _ = run_cli(capsys, ["verify", "--json", g6])
        json_codes.append(code)
        json_text.append(json.dumps(_rounded(json.loads(out)), indent=2))
        code, out, _ = run_cli(capsys, ["verify", g6])
        human_codes.append(code)
        human_text.append(out)
    assert json_codes == human_codes == [0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0]
    json_digest = hashlib.sha256("\n".join(json_text).encode()).hexdigest()
    human_digest = hashlib.sha256("".join(human_text).encode()).hexdigest()
    assert json_digest == "1125a094703be20d57668f9df7e63aec65699562975dda88e1b788f672753798"
    assert human_digest == "8a6cb0c09902834c7360f8b8c882b832df6f1df15408b613dc06922467e91192"
