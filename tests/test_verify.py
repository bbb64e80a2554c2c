import json
import random

import pytest

from helpers import oracle_has_long_cycle, oracle_is_book, random_connected_graph

from spectheta import (
    Graph,
    ThetaSpec,
    book,
    check_lemma_conclusions,
    complete,
    complete_bipartite,
    cycle,
    decompose,
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
    assert rep.ustar == 0
    assert rep.U == (1, 2, 3, 4)
    assert rep.W == ()
    assert rep.U0 == ()
    assert rep.Uplus == (1, 2, 3, 4)
    assert len(rep.components) == 1
    assert rep.components[0].cls.label() == "Star(3)"
    assert rep.ledger == {"sizeU": 4, "eUplus": 3, "eUW": 0, "eW": 0, "m": 7}


def test_decompose_star():
    g, res, rep = _prepared(star(7))
    assert rep.ustar == 0
    assert rep.U0 == rep.U and rep.Uplus == () and rep.W == ()
    assert rep.ledger == {"sizeU": 6, "eUplus": 0, "eUW": 0, "eW": 0, "m": 6}


def test_decompose_c6_ledger_balances():
    g, res, rep = _prepared(cycle(6))
    assert rep.U == (1, 5) and rep.W == (2, 3, 4)
    ledger = rep.ledger
    assert ledger["sizeU"] + ledger["eUplus"] + ledger["eUW"] + ledger["eW"] == ledger["m"] == 6


def test_decompose_partition_and_ledger_random():
    rng = random.Random(21)
    for _ in range(100):
        g = random_connected_graph(rng, max_n=16)
        res = spectral_radius(g)
        ustar = rng.randrange(g.n) if rng.random() < 0.5 else None
        rep = decompose(g, res, ustar)
        ledger = rep.ledger
        assert ledger["sizeU"] + ledger["eUplus"] + ledger["eUW"] + ledger["eW"] == g.m
        assert sorted((rep.ustar,) + rep.U + rep.W) == list(range(g.n))
        assert sorted(rep.U0 + rep.Uplus) == sorted(rep.U)
        # components partition U+, each connected inside U with no edge to another
        assert sorted(v for c in rep.components for v in c.vertices) == sorted(rep.Uplus)
        for c in rep.components:
            assert g.induced(c.vertices).is_connected()
            others = [v for d in rep.components if d is not c for v in d.vertices]
            assert g.edge_count_between(c.vertices, others) == 0


def test_decompose_rejects_disconnected():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        decompose(g, None, 0)


def test_classify_component():
    assert classify_component(complete(2)).label() == "Star(1)"
    assert classify_component(path(3)).label() == "Star(2)"
    assert classify_component(star(5)).label() == "Star(4)"
    assert classify_component(star_plus_edge(4)).label() == "StarPlusEdge"
    assert classify_component(path(4)).label() == "Path(4)"
    assert classify_component(cycle(3)).label() == "Cycle(3)"
    assert classify_component(cycle(5)).label() == "Cycle(5)"
    assert classify_component(complete(4)).label() == "K4"
    assert classify_component(complete(4).without_edge(0, 1)).label() == "K4-e"
    assert classify_component(book(2)).label() == "K4-e"  # book(2) is K4 minus an edge
    assert classify_component(book(3)).label() == "Other"


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
        assert checklist.all_hold
        assert len(checklist.entries) == 8


def test_checklist_vacuous_on_star():
    g = star(6)
    res = spectral_radius(g)
    checklist = check_lemma_conclusions(g, decompose(g, res))
    assert checklist.all_hold


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
    by_id = {e.id: e for e in checklist.entries}
    assert not by_id["no_triangle_component"].holds
    assert by_id["no_triangle_component"].witness is not None
    assert not checklist.all_hold


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
        xs = float(x[rep.ustar])
        lhs = 0.0
        for u in rep.Uplus:
            du = sum(1 for w in g.neighbors(u) if w in rep.U)
            lhs += (du - 1) * float(x[u]) / xs
        for w in rep.W:
            dw = sum(1 for z in g.neighbors(w) if z in rep.U)
            lhs += dw * float(x[w]) / xs
        e_uplus = sum(1 for a, b in g.edges() if a in rep.Uplus and b in rep.Uplus)
        e_uw = sum(1 for a, b in g.edges() if (a in rep.U) != (b in rep.U) and rep.ustar not in (a, b))
        e_w = sum(1 for a, b in g.edges() if a in rep.W and b in rep.W)
        rhs = e_uplus + e_uw + e_w + sum(float(x[u]) / xs for u in rep.U0) - 1.0
        assert out["lhs"] == pytest.approx(lhs, abs=1e-10)
        assert out["rhs"] == pytest.approx(rhs, abs=1e-10)


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


def test_certificate_nonfree_bipartite_spec():
    # K_{2,3} is the (2,2,2) theta itself
    cert = verify_theorem_instance(complete_bipartite(2, 3), ThetaSpec(2, 2, 2))
    assert not cert["theta_free"]
