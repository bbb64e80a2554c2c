import hashlib
import json
import random

import pytest

from helpers import (
    oracle_has_long_cycle,
    oracle_is_book,
    random_connected_graph,
    random_permutation,
    relabeled,
)

from spectheta import (
    Graph,
    ThetaSpec,
    book,
    certificate_holds,
    check_lemma_conclusions,
    complete,
    cycle,
    decompose,
    enumerate_by_edges,
    enumerate_by_order,
    inequality_one_check,
    is_book,
    path,
    spectral_radius,
    star,
    star_plus_edge,
    to_graph6,
    verify_theorem_instance,
)
from spectheta.verify import classify_component, has_long_cycle


def _graphs_to_order_7():
    # Every class on 1..7 vertices, disconnected ones included: 1,252 graphs.
    return [g for n in range(1, 8) for g in enumerate_by_order(n)]


def _prepared(g):
    res = spectral_radius(g)
    return g, res, decompose(g, res)


def test_decompose_book3():
    g, res, rep = _prepared(book(3))
    assert rep["ustar"] == 0
    assert rep["components"] == [{"vertices": [1, 2, 3, 4], "class": "Star(3)"}]
    assert rep["ledger"] == {"sizeU": 4, "eUplus": 3, "eUW": 0, "eW": 0, "m": 7}


def test_decompose_star():
    g, res, rep = _prepared(star(7))
    assert rep["ustar"] == 0
    assert rep["components"] == []
    assert rep["ledger"] == {"sizeU": 6, "eUplus": 0, "eUW": 0, "eW": 0, "m": 6}


def test_decompose_c6_ledger_balances():
    g, res, rep = _prepared(cycle(6))
    assert rep["ustar"] == 0 and rep["components"] == []
    ledger = rep["ledger"]
    assert ledger["sizeU"] + ledger["eUplus"] + ledger["eUW"] + ledger["eW"] == ledger["m"] == 6


def test_decompose_partition_and_ledger_random():
    rng = random.Random(21)
    for _ in range(100):
        g = random_connected_graph(rng, max_n=16)
        res = spectral_radius(g)
        ustar = rng.randrange(g.n) if rng.random() < 0.5 else None
        rep = decompose(g, res, ustar)
        ledger = rep["ledger"]
        U = g.neighbors(rep["ustar"])
        W = [v for v in range(g.n) if v != rep["ustar"] and v not in U]
        U0 = [u for u in U if not set(g.neighbors(u)) & set(U)]
        Uplus = [u for u in U if u not in U0]
        assert ledger["sizeU"] + ledger["eUplus"] + ledger["eUW"] + ledger["eW"] == g.m
        assert ledger == {"sizeU": len(U), "eUplus": g.edge_count_between(Uplus, Uplus),
                          "eUW": g.edge_count_between(U, W),
                          "eW": g.edge_count_between(W, W), "m": g.m}
        # components partition U+, each connected inside U with no edge to another
        comps = [c["vertices"] for c in rep["components"]]
        assert sorted(v for c in comps for v in c) == Uplus
        for c in comps:
            assert g.induced(c).is_connected()
            others = [v for d in comps if d is not c for v in d]
            assert g.edge_count_between(c, others) == 0


def test_decompose_rejects_disconnected():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        decompose(g, None, 0)


def test_classify_component():
    assert classify_component(complete(2)) == "Star(1)"
    assert classify_component(path(3)) == "Star(2)"
    assert classify_component(star(5)) == "Star(4)"
    assert classify_component(star_plus_edge(4)) == "StarPlusEdge"
    assert classify_component(path(4)) == "Path(4)"
    assert classify_component(cycle(3)) == "Cycle(3)"
    assert classify_component(cycle(5)) == "Cycle(5)"
    assert classify_component(complete(4)) == "K4"
    assert classify_component(complete(4).without_edge(0, 1)) == "K4-e"
    assert classify_component(book(2)) == "K4-e"  # book(2) is K4 minus an edge
    assert classify_component(book(3)) == "Other"
    assert classify_component(star_plus_edge(5)) == "Other"


def test_has_long_cycle():
    assert not has_long_cycle(cycle(3))
    assert not has_long_cycle(star_plus_edge(4))  # triangle with a pendant
    assert not has_long_cycle(path(6))
    assert has_long_cycle(cycle(4))
    assert has_long_cycle(complete(4))
    assert has_long_cycle(complete(4).without_edge(0, 1))
    bowtie = Graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    assert not has_long_cycle(bowtie)
    pytest.importorskip("networkx")
    for g in _graphs_to_order_7():
        assert has_long_cycle(g) == oracle_has_long_cycle(g), to_graph6(g)


def test_checklist_on_books():
    for k in (1, 2, 5, 28):
        g = book(k)
        res = spectral_radius(g)
        checklist = check_lemma_conclusions(g, decompose(g, res))
        assert all(e["holds"] for e in checklist)
        assert len(checklist) == 8


def test_checklist_vacuous_on_star():
    g = star(6)
    res = spectral_radius(g)
    checklist = check_lemma_conclusions(g, decompose(g, res))
    assert all(e["holds"] for e in checklist)


def test_checklist_rejects_non_free_input():
    g = complete(6)
    res = spectral_radius(g)
    rep = decompose(g, res)
    with pytest.raises(ValueError):
        check_lemma_conclusions(g, rep)


def test_checklist_reports_failures_with_witnesses():
    # K4 plus a pendant vertex is (2,2,3)-free; its neighborhood subgraph
    # at the extremal vertex has a triangle component, which the checklist
    # must report rather than hide.
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)])
    res = spectral_radius(g)
    checklist = check_lemma_conclusions(g, decompose(g, res))
    by_id = {e["id"]: e for e in checklist}
    assert not by_id["no_triangle_component"]["holds"]
    assert by_id["no_triangle_component"]["witness"] is not None
    assert not all(e["holds"] for e in checklist)


def test_inequality_book28_threshold():
    g, res, rep = _prepared(book(28))
    out = inequality_one_check(g, rep, res)
    assert out["applicable"]
    assert out["slack"] >= -1e-8
    assert out["lhs"] == pytest.approx(27.0, abs=1e-7)
    assert out["rhs"] == pytest.approx(27.0, abs=1e-7)


def test_inequality_book3():
    g, res, rep = _prepared(book(3))
    out = inequality_one_check(g, rep, res)
    assert out["applicable"]  # lambda^2 - lambda = 6 = m - 1
    assert out["slack"] >= -1e-8


def test_inequality_not_applicable_on_p4():
    g, res, rep = _prepared(path(4))
    out = inequality_one_check(g, rep, res)
    assert not out["applicable"]


def test_inequality_consistent_with_raw_recomputation():
    rng = random.Random(33)
    for _ in range(40):
        g = random_connected_graph(rng, max_n=12)
        res = spectral_radius(g)
        rep = decompose(g, res)
        out = inequality_one_check(g, rep, res)
        x = res.perron
        ustar = rep["ustar"]
        xs = float(x[ustar])
        U = g.neighbors(ustar)
        W = [v for v in range(g.n) if v != ustar and v not in U]
        U0 = [u for u in U if not set(g.neighbors(u)) & set(U)]
        Uplus = [u for u in U if u not in U0]
        lhs = 0.0
        for u in Uplus:
            du = sum(1 for w in g.neighbors(u) if w in U)
            lhs += (du - 1) * float(x[u]) / xs
        for w in W:
            dw = sum(1 for z in g.neighbors(w) if z in U)
            lhs += dw * float(x[w]) / xs
        e_uplus = sum(1 for a, b in g.edges() if a in Uplus and b in Uplus)
        e_uw = sum(1 for a, b in g.edges() if (a in U) != (b in U) and ustar not in (a, b))
        e_w = sum(1 for a, b in g.edges() if a in W and b in W)
        rhs = e_uplus + e_uw + e_w + sum(float(x[u]) / xs for u in U0) - 1.0
        assert out["lhs"] == pytest.approx(lhs, abs=1e-10)
        assert out["rhs"] == pytest.approx(rhs, abs=1e-10)


def test_inequality_one_slack_is_lambda_identity():
    # By the two eigenvector identities and the ledger, slack = lambda^2 -
    # lambda - (m - 1) for any connected graph and any u*, so inequality (1)
    # is applicable exactly when lambda reaches the bound, and an applicable
    # slack is never negative beyond rounding.  Over the 1,017 connected
    # (2,2,3)-free classes with 1..9 edges.
    spec = ThetaSpec(2, 2, 3)
    graphs = [g for m in range(1, 10) for g in enumerate_by_edges(m, True, free=spec)]
    assert len(graphs) == 1017
    for g in graphs:
        cert = verify_theorem_instance(g)
        lam, ineq = cert["lambda"], cert["inequality1"]
        assert abs(ineq["slack"] - (lam * lam - lam - (g.m - 1))) <= 1e-12, to_graph6(g)
        assert ineq["applicable"] == (lam >= cert["bound"] - 1e-9), to_graph6(g)
        if ineq["applicable"]:
            assert ineq["slack"] >= -1e-9, to_graph6(g)


def test_is_book():
    assert is_book(book(1)) and is_book(book(2)) and is_book(book(10))
    assert is_book(complete(3))
    assert is_book(complete(2))  # the degenerate zero-page case
    assert not is_book(star(6))
    assert not is_book(cycle(5))
    assert not is_book(book(4).with_edge(2, 3))
    assert not is_book(complete(4))
    pytest.importorskip("networkx")
    for g in _graphs_to_order_7():
        assert is_book(g) == oracle_is_book(g), to_graph6(g)


def test_certificate_book28():
    cert = verify_theorem_instance(book(28))
    assert cert["theta_free"]
    assert cert["lambda"] == pytest.approx(8.0, abs=1e-9)
    assert cert["bound"] == pytest.approx(8.0, abs=1e-9)
    assert cert["equality_case"] == {"claimed": True, "iso_to_book": True}
    assert all(entry["holds"] for entry in cert["lemmas"])
    assert cert["ledger"]["m"] == 57
    json.dumps(cert)  # JSON-serializable throughout


def test_certificate_star57():
    cert = verify_theorem_instance(star(58))
    assert cert["theta_free"]
    assert cert["lambda"] == pytest.approx(57 ** 0.5, abs=1e-9)
    assert not cert["equality_case"]["claimed"]


def test_certificate_k6_not_free():
    cert = verify_theorem_instance(complete(6))
    assert not cert["theta_free"]
    assert cert["witness"] is not None
    assert cert["lambda"] is None and cert["ustar"] is None
    assert cert["equality_case"] == {"claimed": False, "iso_to_book": False}


def test_certificate_schema_keys():
    cert = verify_theorem_instance(book(3))
    assert list(cert.keys()) == [
        "graph6", "m", "lambda", "bound", "theta_free", "ustar", "ledger",
        "components", "lemmas", "inequality1", "equality_case",
    ]
    cert = verify_theorem_instance(complete(6))
    assert list(cert.keys()) == [
        "graph6", "m", "lambda", "bound", "theta_free", "witness", "ustar",
        "ledger", "components", "lemmas", "inequality1", "equality_case",
    ]


def test_certificate_equality_on_whole_book_family():
    for k in (1, 2, 7, 20):
        cert = verify_theorem_instance(book(k))
        assert cert["equality_case"] == {"claimed": True, "iso_to_book": True}


def test_certificate_disconnected_input():
    g = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    cert = verify_theorem_instance(g)
    assert cert["theta_free"]
    assert cert["lambda"] == pytest.approx(2.0, abs=1e-9)
    assert cert["ustar"] is None and cert["lemmas"] is None


def _free_connected_classes():
    # Every (2,2,3)-free connected class with m <= 9: 1,017 graphs.
    return [g for m in range(1, 10)
            for g in enumerate_by_edges(m, True, free=ThetaSpec(2, 2, 3))]


def _class_fields(cert):
    # The certificate fields that the isomorphism class alone decides.
    return (certificate_holds(cert), cert["theta_free"],
            [(e["id"], e["holds"]) for e in cert["lemmas"]], cert["equality_case"])


def test_certificate_structure_is_decompose_value():
    # The certificate prints what decompose returns, key for key.
    for m in range(1, 9):
        for g in enumerate_by_edges(m, True, free=ThetaSpec(2, 2, 3)):
            cert = verify_theorem_instance(g)
            expected = {k: cert[k] for k in ("ustar", "ledger", "components")}
            assert decompose(g, spectral_radius(g)) == expected, to_graph6(g)


def test_certificate_invariant_under_relabelling():
    # Perron ties must not let the labelling pick a different extremal vertex.
    rng = random.Random(2021)
    for g in _free_connected_classes():
        cert = verify_theorem_instance(g)
        for _ in range(2):
            other = verify_theorem_instance(relabeled(g, random_permutation(rng, g.n)))
            assert _class_fields(other) == _class_fields(cert), to_graph6(g)
            assert other["lambda"] == pytest.approx(cert["lambda"], abs=1e-9)


def test_certificate_verdict_ignores_isolated_vertices():
    for g in _free_connected_classes():
        cert = verify_theorem_instance(g)
        for k in (1, 2):
            padded = verify_theorem_instance(Graph(g.n + k, g.edges()))
            assert certificate_holds(padded) == certificate_holds(cert), (to_graph6(g), k)
            assert padded["equality_case"] == cert["equality_case"], (to_graph6(g), k)


def test_certificates_are_pinned():
    # sha256 of the concatenated `verify_theorem_instance` JSON of every class
    # with 1..9 edges in stream order, then K5 and K5 plus a pendant edge:
    # 2,265 certificates.  The component labels seen cover every named shape.
    k5 = complete(5)
    graphs = [g for m in range(1, 10) for g in enumerate_by_edges(m)]
    graphs += [k5, Graph(6, list(k5.edges()) + [(0, 5)])]
    digest = hashlib.sha256()
    shapes = set()
    for g in graphs:
        cert = verify_theorem_instance(g)
        digest.update(json.dumps(cert).encode())
        shapes.update(c["class"].split("(")[0] for c in cert["components"] or ())
    assert len(graphs) == 2265
    assert digest.hexdigest() == "e363799ca5f5f97921b811580bb0a79cdee3c1b86abf447206426f6d37fb086c"
    assert {"Star", "StarPlusEdge", "Path", "Cycle", "K4-e", "K4"} <= shapes
