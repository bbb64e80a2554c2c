import random

import pytest

from helpers import random_connected_graph, to_networkx

from spectheta import (
    Graph,
    ThetaSpec,
    book,
    complete,
    complete_bipartite,
    contains_theta,
    cycle,
    is_theta_free,
    oracle_contains_theta,
    path,
    star,
    theta_graph,
    validate_witness,
)


def test_spec_normalizes_and_validates():
    s = ThetaSpec(3, 1, 2)
    assert (s.r, s.p, s.q) == (1, 2, 3)
    assert s.order == 5 and s.size == 6
    assert ThetaSpec.parse("2,2,3") == ThetaSpec(2, 2, 3)
    with pytest.raises(ValueError):
        ThetaSpec(1, 1, 5)  # two length-1 paths would be a multi-edge
    with pytest.raises(ValueError):
        ThetaSpec(0, 2, 2)
    with pytest.raises(ValueError):
        ThetaSpec.parse("2,2")


def test_theta_graph_shape():
    t = theta_graph(ThetaSpec(2, 2, 3))
    assert t.n == 6 and t.m == 7
    assert t.degree(0) == 3 and t.degree(1) == 3


def test_k23_is_theta_222():
    w = contains_theta(complete_bipartite(2, 3), ThetaSpec(2, 2, 2))
    assert w is not None
    assert validate_witness(complete_bipartite(2, 3), ThetaSpec(2, 2, 2), w)
    # matches the direct K_{2,3} criterion: two vertices with >= 3 common neighbors
    assert {w.hub_a, w.hub_b} == {0, 1}


def test_negative_cases():
    assert contains_theta(cycle(5), ThetaSpec(2, 2, 3)) is None
    assert is_theta_free(star(10), ThetaSpec(1, 2, 2))
    assert not is_theta_free(complete(6), ThetaSpec(2, 2, 3))


def test_books_are_223_free():
    spec = ThetaSpec(2, 2, 3)
    for k in range(1, 13):
        assert is_theta_free(book(k), spec)


def test_book_plus_page_edge_contains_223():
    spec = ThetaSpec(2, 2, 3)
    g = book(4).with_edge(2, 3)
    w = contains_theta(g, spec)
    assert w is not None
    assert {w.hub_a, w.hub_b} == {0, 1}  # the original hubs
    assert validate_witness(g, spec, w)
    # the length-3 path runs through the new page-page edge
    assert len(w.paths[2]) == 4


def test_bipartite_hosts_are_223_free():
    spec = ThetaSpec(2, 2, 3)
    for g in (complete_bipartite(2, 4), complete_bipartite(3, 3), cycle(6), path(7)):
        assert is_theta_free(g, spec)
        if g.n <= 10:
            assert not oracle_contains_theta(g, spec)


def test_witness_json_shape():
    w = contains_theta(complete_bipartite(2, 3), ThetaSpec(2, 2, 2))
    data = w.to_json()
    assert set(data) == {"hubs", "paths"}
    assert len(data["paths"]) == 3
    assert all(p[0] == data["hubs"][0] and p[-1] == data["hubs"][1] for p in data["paths"])


def test_witnesses_are_deterministic():
    g = complete(7)
    spec = ThetaSpec(2, 2, 3)
    assert contains_theta(g, spec) == contains_theta(g, spec)


def test_monotone_under_edge_addition():
    rng = random.Random(11)
    spec = ThetaSpec(2, 2, 3)
    hits = 0
    for _ in range(60):
        g = random_connected_graph(rng, max_n=9)
        if contains_theta(g, spec) is None:
            continue
        hits += 1
        non_edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]
        for _ in range(min(3, len(non_edges))):
            u, v = rng.choice(non_edges)
            assert contains_theta(g.with_edge(u, v), spec) is not None
    assert hits >= 5


def test_every_positive_witness_validates():
    rng = random.Random(13)
    specs = [ThetaSpec(2, 2, 2), ThetaSpec(2, 2, 3), ThetaSpec(1, 2, 3), ThetaSpec(1, 3, 3)]
    for _ in range(80):
        g = random_connected_graph(rng, max_n=10)
        for spec in specs:
            w = contains_theta(g, spec)
            if w is not None:
                assert validate_witness(g, spec, w)


def test_detector_matches_oracle_on_six_vertices():
    from spectheta import enumerate_by_order

    specs = [ThetaSpec(2, 2, 2), ThetaSpec(2, 2, 3), ThetaSpec(1, 2, 2), ThetaSpec(1, 2, 3)]
    for g in enumerate_by_order(6):
        for spec in specs:
            assert (contains_theta(g, spec) is not None) == oracle_contains_theta(g, spec)


def test_theta_222_matches_direct_k23_search():
    # Containment of the (2,2,2) theta is the same as two vertices sharing
    # three or more neighbors.
    from spectheta import enumerate_by_order

    def has_k23(g):
        return any(
            (g.adj[u] & g.adj[v]).bit_count() >= 3
            for u in range(g.n)
            for v in range(u + 1, g.n)
        )

    spec = ThetaSpec(2, 2, 2)
    for g in enumerate_by_order(6):
        assert (contains_theta(g, spec) is not None) == has_k23(g)


def _tree_plus_chords(rng, n, extra):
    # A random spanning tree plus extra chords.
    edges = {tuple(sorted((v, rng.randrange(v)))) for v in range(1, n)}
    while len(edges) < n - 1 + extra:
        u, v = rng.sample(range(n), 2)
        edges.add(tuple(sorted((u, v))))
    return Graph(n, sorted(edges))


def test_detector_matches_networkx_on_larger_hosts():
    # Above the n <= 10 brute-force oracle: a monomorphism of the theta into
    # the host is exactly a theta subgraph.
    pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    rng = random.Random(23)
    hosts = [book(k) for k in range(9, 13)] + [complete_bipartite(2, t) for t in range(9, 13)]
    for _ in range(8):
        n = rng.randint(11, 14)
        hosts.append(_tree_plus_chords(rng, n, rng.randint(2, 8)))  # sparse
        hosts.append(_tree_plus_chords(rng, n, rng.randint(n, 3 * n)))  # dense

    for spec in (ThetaSpec(2, 2, 3), ThetaSpec(1, 2, 2), ThetaSpec(3, 3, 3)):
        pattern = to_networkx(theta_graph(spec))
        answers = set()
        for g in hosts:
            want = GraphMatcher(to_networkx(g), pattern).subgraph_is_monomorphic()
            assert (contains_theta(g, spec) is not None) == want
            answers.add(want)
        assert answers == {True, False}


def test_oracle_identity_embedding_and_guard():
    spec = ThetaSpec(2, 2, 3)
    assert oracle_contains_theta(theta_graph(spec), spec)
    with pytest.raises(ValueError):
        oracle_contains_theta(complete(11), spec)
