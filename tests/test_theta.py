import hashlib
import json
import random
from itertools import permutations

import pytest

from helpers import (
    all_augmentations,
    random_connected_graph,
    random_permutation,
    relabeled,
    to_networkx,
)

from spectheta import (
    Graph,
    ThetaSpec,
    book,
    complete,
    complete_bipartite,
    contains_theta,
    cycle,
    enumerate_by_order,
    oracle_contains_theta,
    path,
    star,
    theta_graph,
    validate_witness,
)
from spectheta import theta


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
    assert contains_theta(star(10), ThetaSpec(1, 2, 2)) is None
    assert contains_theta(complete(6), ThetaSpec(2, 2, 3)) is not None


def test_books_are_223_free():
    spec = ThetaSpec(2, 2, 3)
    for k in range(1, 13):
        assert contains_theta(book(k), spec) is None


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
        assert contains_theta(g, spec) is None
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
        {"hubs": [0, 9], "paths": [[0, 4, 9], [0, 5, 9], [0, 2, 3, 9]]},  # 9 is past the host
        {"hubs": [0, -1], "paths": [[0, 4, -1], [0, 5, -1], [0, 2, 3, -1]]},  # a negative id
        {"hubs": [0, 1.0], "paths": [[0, 4, 1.0], [0, 5, 1.0], [0, 2, 3, 1.0]]},  # not an int
        {"hubs": [0, 1, 2], "paths": [p0, p1, p2]},  # three hubs
        {"hubs": [0, 1], "paths": [p0, p1, 7]},  # a path given as an int
        {"hubs": [0, 1]},  # no paths
        [[0, 1], [p0, p1, p2]],  # not a dict
        None,
    ]
    for b in broken:
        assert not validate_witness(g, spec, b), b


def test_paths_after_keeps_first_internal_vertices_past_it():
    g = complete(6)
    paths = theta._paths
    assert list(paths(g, 0, 1, 1, 0, 3)) == [()]
    assert list(paths(g, 0, 1, 2, 0, 3)) == [(4,), (5,)]
    assert list(paths(g, 0, 1, 3, 1 << 2, 3)) == [(4, 3), (4, 5), (5, 3), (5, 4)]
    assert list(paths(g, 0, 1, 4, 0, 4)) == [(5, 2, 3), (5, 2, 4), (5, 3, 2), (5, 3, 4),
                                             (5, 4, 2), (5, 4, 3)]
    assert list(paths(g, 0, 1, 2, 0, 5)) == []


def test_223_kernel_opens_no_bit_indices_generator(monkeypatch):
    # The (2,2,3) search on books and K2,t walks its length-2 and length-3
    # paths in flat bit loops; a generator per candidate made it slow.
    def refuse(mask):
        raise AssertionError("bit_indices on a length-2 or length-3 path")

    monkeypatch.setattr(theta, "bit_indices", refuse)
    spec = ThetaSpec(2, 2, 3)
    assert contains_theta(book(30), spec) is None
    assert contains_theta(complete_bipartite(2, 30), spec) is None
    assert contains_theta(book(30).with_edge(2, 3), spec) == {
        "hubs": [0, 1], "paths": [[0, 4, 1], [0, 5, 1], [0, 2, 3, 1]]}
    g = complete(6)
    assert list(theta._paths(g, 0, 1, 2, 0)) == [(2,), (3,), (4,), (5,)]
    assert list(theta._paths(g, 0, 1, 3, 1 << 4)) == list(permutations((2, 3, 5), 2))


def _dfs_paths(g, a, b, length, banned, after):
    # Reference: a plain depth-first search over neighbour lists and a set of
    # used vertices, in ascending neighbour order.
    out = []
    mid = []

    def walk(v):
        if len(mid) == length - 1:
            if g.has_edge(v, b):
                out.append(tuple(mid))
            return
        for w in g.neighbors(v):
            if (w in (a, b) or (banned >> w) & 1 or w in mid
                    or (not mid and w <= after)):
                continue
            mid.append(w)
            walk(w)
            mid.pop()

    walk(a)
    return out


def test_paths_match_dfs_reference_on_multiword_hosts():
    # Hosts of 70..130 vertices, so every mask spans several machine words;
    # the Hypothesis test of _paths stops at 8 vertices.
    rng = random.Random(30)
    found = high = 0
    for _ in range(12):
        n = rng.randint(70, 130)
        hubs = rng.sample(range(n), 6)
        edges = {(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < (0.3 if u in hubs or v in hubs else 0.04)}
        g = Graph(n, sorted(edges))
        for _ in range(6):
            a, b = rng.sample(hubs, 2)
            banned = sum(1 << v for v in range(n) if rng.random() < 0.2)
            after = rng.choice((-1, -1, rng.randrange(n)))
            for length in (3, 4, 5):
                got = list(theta._paths(g, a, b, length, banned, after))
                assert got == _dfs_paths(g, a, b, length, banned, after), (n, a, b, length)
                found += len(got)
                high += sum(max(mid) >= 64 for mid in got)
    assert found > 2_000 and high > 1_000, (found, high)


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


FIRST_WITNESS_SPECS = ((2, 2, 3), (2, 2, 2), (1, 2, 2), (1, 2, 3), (3, 3, 3), (2, 3, 3))


def _first_witness_corpus():
    rng = random.Random(29)
    corpus = [random_connected_graph(rng, max_n=12) for _ in range(600)]
    return corpus + [book(k) for k in range(1, 13)] + [complete_bipartite(2, t) for t in range(2, 13)]


def test_first_witnesses_are_pinned():
    corpus = _first_witness_corpus()
    lines = []
    for r, p, q in FIRST_WITNESS_SPECS:
        for g in corpus:
            w = contains_theta(g, ThetaSpec(r, p, q))
            lines.append("-\n" if w is None else json.dumps(w) + "\n")
            assert w is None or json.loads(json.dumps(w)) == w
    assert sum(line != "-\n" for line in lines) == 2_053
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == FIRST_WITNESS_DIGEST


def test_equal_length_paths_ascend_by_first_internal_vertex():
    # Swapping two paths of equal length gives another witness, so the
    # least one lists them in ascending order of first internal vertex.
    corpus = _first_witness_corpus()
    ordered = 0
    for r, p, q in FIRST_WITNESS_SPECS:
        for g in corpus:
            w = contains_theta(g, ThetaSpec(r, p, q))
            if w is None:
                continue
            first, second, third = w["paths"]
            if r == p:
                assert first[1] < second[1], (g.edges(), w)
                ordered += 1
            if p == q:
                assert second[1] < third[1], (g.edges(), w)
                ordered += 1
    assert ordered == 2_289


@pytest.mark.parametrize("k", [5, 20, 60])
@pytest.mark.parametrize("family", [book, lambda k: complete_bipartite(2, k)],
                         ids=["book", "k2t"])
def test_223_search_tries_each_pair_of_length_2_paths_once(monkeypatch, family, k):
    # One hub pair with k common neighbours: one call for the first path,
    # one per first path for the second, and one per unordered pair for the
    # third.  Trying both orders of each pair would take 1 + k**2 calls.
    calls = 0
    paths = theta._paths

    def counted(*args):
        nonlocal calls
        calls += 1
        return paths(*args)

    monkeypatch.setattr(theta, "_paths", counted)
    assert contains_theta(family(k), ThetaSpec(2, 2, 3)) is None
    assert calls == 1 + k + k * (k - 1) // 2


def _c4free_with_planted_theta(rng, n):
    # A random spanning tree, then random edges that close no 4-cycle, then
    # a (2,2,3) theta on six random vertices.
    nbrs = [set() for _ in range(n)]
    for v in range(1, n):
        u = rng.randrange(v)
        nbrs[u].add(v)
        nbrs[v].add(u)
    for _ in range(3 * n):
        u, v = rng.sample(range(n), 2)
        if v in nbrs[u] or any(nbrs[x] & (nbrs[v] - {u, x}) for x in nbrs[u]):
            continue
        nbrs[u].add(v)
        nbrs[v].add(u)
    a, b, x, y, z1, z2 = rng.sample(range(n), 6)
    theta = [(a, x), (x, b), (a, y), (y, b), (a, z1), (z1, z2), (z2, b)]
    edges = {(u, v) for u in range(n) for v in nbrs[u] if u < v}
    return Graph(n, sorted(edges | {(min(e), max(e)) for e in theta}))


# The same kind of digest over hosts past FIRST_WITNESS_DIGEST's n <= 12:
# books and K2,t with up to 30 pages, each also with one chord between two
# pages, a third of them relabelled, and twelve C4-free hosts on 36..44
# vertices with a planted theta.  365 of the 1,020 lines are witnesses.
LARGE_HOST_WITNESS_DIGEST = "2c30d88d931b610f85105c01240b2061bacdc5310514121e427efeab0bd34bed"


def test_first_witnesses_on_large_hosts_are_pinned():
    rng = random.Random(31)
    hosts = []
    for k in range(1, 31):
        for g in (book(k), complete_bipartite(2, k)):
            hosts.append(g)
            if k >= 2:
                x, y = rng.sample(range(2, k + 2), 2)
                hosts.append(g.with_edge(x, y))
    hosts += [relabeled(g, random_permutation(rng, g.n)) for g in hosts[::3]]
    hosts += [_c4free_with_planted_theta(rng, rng.randint(36, 44)) for _ in range(12)]
    lines = []
    for r, p, q in ((2, 2, 3), (2, 2, 2), (1, 2, 3), (3, 3, 3), (2, 3, 4), (2, 2, 4)):
        for g in hosts:
            w = contains_theta(g, ThetaSpec(r, p, q))
            lines.append("-\n" if w is None else json.dumps(w) + "\n")
    assert sum(line != "-\n" for line in lines) == 365
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == LARGE_HOST_WITNESS_DIGEST
