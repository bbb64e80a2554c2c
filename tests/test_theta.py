import hashlib
import json
import random

import pytest

from helpers import all_augmentations, random_connected_graph, to_networkx

from spectheta import (
    Graph,
    ThetaSpec,
    book,
    complete,
    complete_bipartite,
    contains_theta,
    cycle,
    enumerate_by_order,
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
    assert set(w["hubs"]) == {0, 1}


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
    assert set(w["hubs"]) == {0, 1}  # the original hubs
    assert validate_witness(g, spec, w)
    # the length-3 path runs through the new page-page edge
    assert len(w["paths"][2]) == 4


def test_bipartite_hosts_are_223_free():
    spec = ThetaSpec(2, 2, 3)
    for g in (complete_bipartite(2, 4), complete_bipartite(3, 3), cycle(6), path(7)):
        assert is_theta_free(g, spec)
        if g.n <= 10:
            assert not oracle_contains_theta(g, spec)


def test_witness_json_shape():
    w = contains_theta(complete_bipartite(2, 3), ThetaSpec(2, 2, 2))
    assert set(w) == {"hubs", "paths"}
    assert len(w["paths"]) == 3
    assert all(p[0] == w["hubs"][0] and p[-1] == w["hubs"][1] for p in w["paths"])


def test_validate_witness_rejects_broken_witnesses():
    spec = ThetaSpec(2, 2, 3)
    g = book(4).with_edge(2, 3)
    w = contains_theta(g, spec)
    assert w == {"hubs": [0, 1], "paths": [[0, 4, 1], [0, 5, 1], [0, 2, 3, 1]]}
    assert validate_witness(g, spec, w)
    p0, p1, p2 = w["paths"]
    broken = [
        {"hubs": [0, 0], "paths": [p0, p1, p2]},  # equal hubs
        {"hubs": [0, 1], "paths": [p0, p1]},  # only two paths
        {"hubs": [0, 1], "paths": [p0, p1, [0, 2, 1]]},  # the length-3 path one vertex short
        {"hubs": [0, 1], "paths": [[0, 2, 1], p1, [0, 4, 3, 1]]},  # 4-3 is not an edge
        {"hubs": [0, 1], "paths": [p0, p0, p2]},  # two paths share vertex 4
        {"hubs": [0, 1], "paths": [p0, p1, [0, 1, 3, 1]]},  # hub 1 as an internal vertex
    ]
    for b in broken:
        assert not validate_witness(g, spec, b), b


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


def test_new_vertex_children_of_free_parents_are_free():
    # The generation tree tests a child for the theta only when its added
    # edge joins two old vertices: a pendant or fresh edge gives its new
    # vertex degree one, so it lies on no theta.  Every such child of every
    # theta-free graph of order <= 6.
    specs = [ThetaSpec(*t) for t in ((2, 2, 3), (2, 2, 2), (1, 2, 2), (3, 3, 3), (2, 3, 3),
                                     (2, 2, 4))]
    parents = [g for n in range(1, 7) for g in enumerate_by_order(n)]
    cases = 0
    for spec in specs:
        for g in parents:
            if contains_theta(g, spec) is not None:
                continue
            for child, (a, b) in all_augmentations(g):
                if b >= g.n:
                    assert contains_theta(child, spec) is None, (spec, child.edges(), a, b)
                    cases += 1
    assert cases == 6_803


# sha256 of one line per (spec, graph), specs outermost: the first witness
# as JSON, or "-" for a free graph.  2,053 of the 3,738 lines are witnesses.
FIRST_WITNESS_DIGEST = "9b04aee9db8ce43b5b5affb1161b9f68f62aed564b6169b2fc73c4edb69c6c9c"


def test_first_witnesses_are_pinned():
    rng = random.Random(29)
    corpus = [random_connected_graph(rng, max_n=12) for _ in range(600)]
    corpus += [book(k) for k in range(1, 13)] + [complete_bipartite(2, t) for t in range(2, 13)]
    lines = []
    for r, p, q in ((2, 2, 3), (2, 2, 2), (1, 2, 2), (1, 2, 3), (3, 3, 3), (2, 3, 3)):
        for g in corpus:
            w = contains_theta(g, ThetaSpec(r, p, q))
            lines.append("-\n" if w is None else json.dumps(w) + "\n")
            assert w is None or json.loads(json.dumps(w)) == w
    assert sum(line != "-\n" for line in lines) == 2_053
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == FIRST_WITNESS_DIGEST
