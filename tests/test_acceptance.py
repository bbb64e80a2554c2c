"""Acceptance suite: every criterion as one test at its stated tolerance.

Each test prints one PASS line on success (visible with pytest -s or -rA);
a failing assertion marks the criterion FAIL.  Maximizer checklists for
small sizes are committed under artifacts/ as empirical data; the suite
recomputes them and compares, and writes nothing.
"""

import json
import math
import time
from pathlib import Path

from helpers import brute_force_class_key, labeled_graphs_with_edges, random_connected_graph

from spectheta import (
    ThetaSpec,
    book,
    bound_value,
    canonical_label,
    check_lemma_conclusions,
    check_nosal,
    contains_theta,
    count_connected_by_order,
    decompose,
    eigen_identity_check,
    enumerate_by_edges,
    enumerate_by_order,
    extremal_search,
    is_theta_free,
    oracle_contains_theta,
    spectral_radius,
    to_graph6,
    validate_witness,
)
from spectheta.cli import main

ARTIFACTS = Path(__file__).resolve().parent.parent / "artifacts"

SPEC_223 = ThetaSpec(2, 2, 3)


def _report(name, detail=""):
    print(f"ACCEPTANCE {name}: PASS {detail}".rstrip())


def test_c1_closed_form_on_book_family():
    # CPU time of this process, so that other processes cannot inflate it.
    start = time.process_time()
    worst = 0.0
    for k in range(1, 201):
        g = book(k)
        lam = spectral_radius(g).lam
        worst = max(worst, abs(lam - bound_value(2 * k + 1)))
        assert abs(lam - bound_value(2 * k + 1)) <= 1e-9, f"k={k}"
    lam28 = spectral_radius(book(28)).lam
    assert abs(lam28 - 8.0) <= 1e-9
    elapsed = time.process_time() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    _report("1 closed-form book family", f"(worst gap {worst:.2e}, {elapsed:.1f}s)")


def test_c2_detector_oracle_equivalence():
    start = time.time()
    specs = [ThetaSpec(2, 2, 2), ThetaSpec(2, 2, 3), ThetaSpec(1, 2, 2), ThetaSpec(1, 2, 3)]
    checked = 0
    class_count_n7 = 0
    for n in range(1, 8):
        for g in enumerate_by_order(n):
            if n == 7:
                class_count_n7 += 1
            for spec in specs:
                witness = contains_theta(g, spec)
                if witness is not None:
                    assert validate_witness(g, spec, witness)
                assert (witness is not None) == oracle_contains_theta(g, spec), (
                    f"disagreement on {to_graph6(g)} spec {spec}"
                )
                checked += 1
    assert class_count_n7 == 1044
    elapsed = time.time() - start
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    _report("2 detector-oracle equivalence", f"({checked} checks, {elapsed:.1f}s)")


def test_c3_theta_freeness_of_extremal_family():
    start = time.time()
    for k in range(1, 51):
        assert is_theta_free(book(k), SPEC_223), f"book({k})"
    base = book(4)
    pages = range(2, 6)
    cases = 0
    for a in pages:
        for b in pages:
            if a < b:
                g = base.with_edge(a, b)
                witness = contains_theta(g, SPEC_223)
                assert witness is not None
                assert validate_witness(g, SPEC_223, witness)
                cases += 1
    assert cases == 6
    elapsed = time.time() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _report("3 theta-freeness of books", f"({elapsed:.1f}s)")


def test_c4_enumerator_correctness():
    start = time.time()
    published = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
    for n in range(1, 8):
        assert count_connected_by_order(n) == published[n], f"n={n}"
    # independent labeled brute force for small orders
    from helpers import graphs_on

    for n in range(1, 6):
        oracle = {brute_force_class_key(g) for g in graphs_on(n) if g.is_connected()}
        assert count_connected_by_order(n) == len(oracle)
    # Edge enumeration against the all-labeled-graphs oracle, class for
    # class: every labeled graph with m edges and no isolated vertices is
    # generated and bucketed by canonical label.  The labeler itself is
    # validated against the all-permutations oracle in the canon tests; the
    # cross-check here targets the enumerator's completeness and
    # duplicate-freeness.
    for m in range(1, 6):
        oracle = {canonical_label(g) for g in labeled_graphs_with_edges(m)}
        mine = [canonical_label(g) for g in enumerate_by_edges(m)]
        assert len(mine) == len(set(mine)), f"duplicates at m={m}"
        assert set(mine) == oracle, f"class mismatch at m={m}"
    elapsed = time.time() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _report("4 enumerator correctness", f"({elapsed:.1f}s)")


def test_c5_nosal_suite():
    start = time.time()
    checked = 0
    equalities = 0
    for m in range(1, 10):
        sqrt_m = math.sqrt(m)
        for g in enumerate_by_edges(m):
            from spectheta.spectral import triangle_free

            if not triangle_free(g):
                continue
            if g.is_connected():
                report = check_nosal(g)
                assert report["satisfied"], f"violation at {to_graph6(g)}"
                if abs(report["lambda"] - sqrt_m) <= 1e-6:
                    equalities += 1
                    assert report["equality_structure"] is not None, to_graph6(g)
            else:
                lam = max(spectral_radius(g.induced(c)).lam for c in g.components())
                assert lam <= sqrt_m + 1e-9, f"violation at {to_graph6(g)}"
                # equality needs every edge in one component: impossible here
                assert abs(lam - sqrt_m) > 1e-6
            checked += 1
    assert equalities > 0
    _report("5 triangle-free bound suite", f"({checked} graphs, {equalities} equality cases, {time.time()-start:.1f}s)")


def test_c6_decomposition_identities():
    import random

    start = time.time()
    rng = random.Random(20260809)
    for _ in range(1000):
        g = random_connected_graph(rng, max_n=20)
        res = spectral_radius(g)
        rep = decompose(g, res)
        ledger = rep["ledger"]
        assert ledger["sizeU"] + ledger["eUplus"] + ledger["eUW"] + ledger["eW"] == g.m
        first, second = eigen_identity_check(g, res, rep["ustar"])
        assert first <= 1e-8 and second <= 1e-8, to_graph6(g)
    _report("6 decomposition identities", f"(1000 graphs, {time.time()-start:.1f}s)")


def test_c7_perron_properties():
    import random

    start = time.time()
    rng = random.Random(5)
    corpus = [book(k) for k in (1, 5, 28)] + [random_connected_graph(rng, max_n=18) for _ in range(200)]
    for g in corpus:
        assert float(spectral_radius(g).perron.min()) > 0, to_graph6(g)
    # strict lambda increase under any single edge addition, all connected n <= 6
    checked = 0
    for n in range(2, 7):
        for g in enumerate_by_order(n):
            if not g.is_connected():
                continue
            lam = spectral_radius(g).lam
            for u in range(n):
                for v in range(u + 1, n):
                    if not g.has_edge(u, v):
                        assert spectral_radius(g.with_edge(u, v)).lam > lam + 1e-10
                        checked += 1
    assert checked > 0
    _report("7 Perron properties", f"({checked} edge additions, {time.time()-start:.1f}s)")


def test_c8_lemma_checklist_on_maximizers():
    # The archive is committed; the test recomputes it and compares, and
    # writes nothing into the checkout.
    start = time.time()
    archived = json.loads((ARTIFACTS / "maximizer_checklists_m5_to_m11.json").read_text())
    assert [row["m"] for row in archived] == list(range(5, 12))
    for row in archived:
        m = row["m"]
        rec = extremal_search(m, SPEC_223)
        g = rec.best_graph
        res = spectral_radius(g)
        checklist = check_lemma_conclusions(g, decompose(g, res))
        assert rec.best_graph6 == row["best_graph6"], f"m={m}"
        assert rec.num_candidates == row["num_candidates"], f"m={m}"
        assert all(e["holds"] for e in checklist) == row["all_hold"], f"m={m}"
        assert checklist == row["entries"], f"m={m}"
        assert abs(rec.best_lambda - row["best_lambda"]) <= 1e-12, f"m={m}"
        assert abs(bound_value(m) - row["bound"]) <= 1e-12, f"m={m}"
    # hard pass: the book family satisfies every conclusion
    for k in range(1, 51):
        g = book(k)
        res = spectral_radius(g)
        checklist = check_lemma_conclusions(g, decompose(g, res))
        assert all(e["holds"] for e in checklist), f"book({k})"
    failing = [row["m"] for row in archived if not row["all_hold"]]
    elapsed = time.time() - start
    assert elapsed < 600.0, f"took {elapsed:.1f}s"
    _report(
        "8 checklist on maximizers",
        f"(matches artifacts/maximizer_checklists_m5_to_m11.json; small-m failures reported "
        f"for m={failing}; {elapsed:.1f}s)",
    )


def test_c9_determinism(capsys):
    start = time.time()
    outputs = []
    for argv in (
        ["search", "--edges", "9", "--spec", "2,2,3", "--json"],
        ["search", "--edges", "9", "--spec", "2,2,3", "--json"],
    ):
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out.encode())
    assert outputs[0] == outputs[1]
    with capsys.disabled():
        _report("9 determinism", f"({len(outputs[0])} bytes, {time.time()-start:.1f}s)")
