import hashlib
import json
import math
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import random

from helpers import (
    all_augmentations,
    brute_force_automorphisms,
    brute_force_class_key,
    delete_with_cleanup,
    graphs_on,
    labeled_graphs_with_edges,
    random_connected_graph,
    to_networkx,
)

from spectheta import (
    MAX_N,
    BudgetError,
    Graph,
    ThetaSpec,
    automorphism_generators,
    book,
    bound_value,
    canonical_form,
    canonical_label,
    complete,
    complete_minus_edge,
    contains_theta,
    enumerate_by_edges,
    enumerate_by_order,
    extremal_search,
    extremal_table,
    from_graph6,
    path,
    spectral_radius,
    star,
    to_graph6,
)
from spectheta import canon, enumeration
from spectheta.enumeration import (
    _augmentations,
    _children,
    _lambda_square_bound,
    _orbit,
    canonical_edge,
)

# Published counts of graphs with m edges and no isolated vertices, m = 1..11
# (OEIS A000664), and of the connected ones with 8 to 11 edges (A002905).
CLASSES_BY_EDGES = [1, 2, 5, 11, 26, 68, 177, 497, 1476, 4613, 15216]
CONNECTED_CLASSES_BY_EDGES = {8: 227, 9: 710, 10: 2322, 11: 8071}

# (m, connected only) -> (class count, sha256 of the sorted certificates),
# frozen from the tree that labelled every child before its deletion test.
CERTIFICATE_SET_DIGESTS = {
    (8, False): (497, "b27313236a7b78e7f502fc05ea5696702d621f51f55a7fe2054df8acc76ce587"),
    (9, True): (710, "e4235894fd39552989e633e64b4fac8a42cb4a549af2799c4c20013c398d62f4"),
    (10, False): (4613, "9ab9641e5f5b53b7a26b2fcd52d62141b49893acfc888cec85f5c5b436842715"),
}

# (spec, connected only) -> the same for enumerate_by_edges(9, connected,
# free=spec), frozen from the tree that ran the full theta detector on
# every accepted child.
FREE_CERTIFICATE_SET_DIGESTS = {
    ((2, 2, 3), True): (667, "01e972b47d13a25ef1880a049020175a649c52cd16214be9db3c991560fd3a73"),
    ((2, 2, 3), False): (1424, "d62853f5b1ac2cae7307e0dfb316a60d64af20ae65d59a49feb171cbc3301a9d"),
    ((2, 2, 2), True): (645, "f277f3055a38c7b9c9c9adbc76962777c677f10d6c4dc8fa45c4de82f6d29461"),
    ((2, 2, 2), False): (1381, "dd3169a66fdcf313bdf4ec5b232c27301d9e15f13cb363ef60cd797da647596b"),
    ((3, 3, 3), True): (709, "36648980c2ba8bbe986d0afab7e54002ba50e0f7d8ed7d87e8b973d5db120219"),
    ((3, 3, 3), False): (1475, "c08ca43017dabacfa8ab9ba4d25084a9e43ca4228b713a9a8a03c2c3eaed5df7"),
}


def test_tiny_levels_match_hand_enumeration():
    assert [canonical_label(g) for g in enumerate_by_edges(1)] == [canonical_label(complete(2))]
    got = {canonical_label(g) for g in enumerate_by_edges(2)}
    want = {canonical_label(path(3)), canonical_label(Graph(4, [(0, 1), (2, 3)]))}
    assert got == want
    got = {canonical_label(g) for g in enumerate_by_edges(3, True)}
    want = {canonical_label(h) for h in (complete(3), path(4), star(4))}
    assert got == want


def test_class_counts():
    for m, want in enumerate(CLASSES_BY_EDGES, start=1):
        assert sum(1 for _ in enumerate_by_edges(m)) == want
    for m, want in CONNECTED_CLASSES_BY_EDGES.items():
        assert sum(1 for _ in enumerate_by_edges(m, True)) == want


def test_certificate_sets_frozen():
    # The class set, not just its size, is the same as the frozen one.
    for (m, connected), (count, digest) in CERTIFICATE_SET_DIGESTS.items():
        certs = sorted(canonical_label(g) for g in enumerate_by_edges(m, connected))
        assert len(certs) == count
        assert hashlib.sha256(b"".join(certs)).hexdigest() == digest


def test_free_certificate_sets_frozen():
    # The theta prune keeps exactly the frozen free class sets.
    for (spec, connected), (count, digest) in FREE_CERTIFICATE_SET_DIGESTS.items():
        free = ThetaSpec(*spec)
        certs = sorted(canonical_label(g) for g in enumerate_by_edges(9, connected, free=free))
        assert len(certs) == count
        assert hashlib.sha256(b"".join(certs)).hexdigest() == digest


def _component_certificates(g):
    return tuple(sorted(canonical_label(g.induced(c)) for c in g.components()))


def test_disconnected_classes_are_unions_of_connected_ones():
    # The stream is the connected stream followed by one disconnected line
    # per multiset of smaller connected classes; under --free every
    # component of a disconnected line is free.
    spec = ThetaSpec(2, 2, 3)
    for m in range(1, 10):
        for free in (None, spec):
            lines = list(enumerate_by_edges(m, free=free))
            connected = list(enumerate_by_edges(m, True, free=free))
            assert lines[:len(connected)] == connected
            rest = lines[len(connected):]
            assert not any(g.is_connected() for g in rest)
            keys = {_component_certificates(g) for g in rest}
            assert len(keys) == len(rest)
            if free is None:
                assert len(rest) == CLASSES_BY_EDGES[m - 1] - len(connected)
            else:
                assert all(contains_theta(g.induced(c), spec) is None
                           for g in rest for c in g.components())


def test_pairwise_non_isomorphic_under_networkx():
    # Independent oracle for the dedupe: no two outputs with the same degree
    # sequence are isomorphic according to networkx.
    nx = pytest.importorskip("networkx")
    for m in range(1, 9):
        buckets = {}
        for g in enumerate_by_edges(m):
            h = nx.Graph(list(g.edges()))
            key = tuple(sorted(d for _, d in h.degree()))
            for other in buckets.setdefault(key, []):
                assert not nx.is_isomorphic(h, other)
            buckets[key].append(h)


def _carries_least_pair(child, edge):
    # The added edge's sorted degree pair is least, from the child's own degrees.
    deg = [row.bit_count() for row in child.adj]
    pairs = [tuple(sorted((deg[u], deg[v]))) for u, v in child.edges()]
    return tuple(sorted(deg[x] for x in edge)) == min(pairs)


def _degree_pair(g, edge):
    return tuple(sorted(g.degree(x) for x in edge))


def _image(perm, edge):
    # A vertex past the permutation (a new one) is fixed.
    a, b = (perm[x] if x < len(perm) else x for x in edge)
    return (a, b) if a < b else (b, a)


def test_augmentations_keep_first_member_of_each_orbit():
    for n in range(1, 7):
        for g in enumerate_by_order(n):
            auts = brute_force_automorphisms(g)
            # The first least-pair augmentation of each Aut(g)-orbit, in loop
            # order, with orbits taken over every automorphism.
            want = []
            claimed = set()
            for child, edge in all_augmentations(g):
                if _carries_least_pair(child, edge) and edge not in claimed:
                    claimed |= {_image(perm, edge) for perm in auts}
                    want.append((child, edge))
            got = list(_augmentations(g, MAX_N, MAX_N))
            assert [(a, b) for a, b, _, _ in got] == [edge for _, edge in want]
            counts = [child.component_count() for child, _ in want]
            assert [components for _, _, _, components in got] == counts
            for (child, edge), (_, _, sole, _) in zip(want, got):
                pair = _degree_pair(child, edge)
                assert sole == (sum(_degree_pair(child, e) == pair for e in child.edges()) == 1)
            for limit in range(1, g.component_count() + 2):
                kept = [t for t, count in zip(got, counts) if count <= limit]
                assert list(_augmentations(g, limit, MAX_N)) == kept
            # The order limit keeps only the non-edges at g.n; g.n + 1 adds the pendants.
            non_edges = [t for t in got if t[1] < g.n]
            pendants = [t for t in got if t[0] < g.n == t[1]]
            assert list(_augmentations(g, MAX_N, g.n)) == non_edges
            assert list(_augmentations(g, MAX_N, g.n + 1)) == non_edges + pendants


def test_augmentations_ask_for_generators_at_most_once(monkeypatch):
    # Aut(g) is asked for at most once per parent: never when at most one
    # non-fresh augmentation carries the least pair, and once when those
    # augmentations span two or more Aut(g)-orbits (taken by brute force).
    graphs = [g for n in range(1, 7) for g in enumerate_by_order(n)]
    calls = []

    def counted(g):
        calls.append(g)
        return automorphism_generators(g)

    monkeypatch.setattr(enumeration, "automorphism_generators", counted)
    cases = Counter()
    for g in graphs:
        auts = brute_force_automorphisms(g)
        least = [edge for child, edge in all_augmentations(g)
                 if edge[0] < g.n and _carries_least_pair(child, edge)]
        orbits = {frozenset(_image(perm, edge) for perm in auts) for edge in least}
        calls.clear()
        list(_augmentations(g, MAX_N, MAX_N))
        assert len(calls) <= 1
        if len(least) <= 1:
            assert not calls
            cases["at most one"] += 1
        elif len(orbits) >= 2:
            assert len(calls) == 1
            cases["several orbits"] += 1
        else:
            cases["one orbit"] += 1
    assert cases == {"at most one": 4, "several orbits": 181, "one orbit": 23}


def test_least_pair_filter_drops_only_rejected_children():
    # Reference tree step: label every child of the full loop and apply the
    # full deletion test, with neither the orbit cut nor the pair filter.
    for m in range(1, 8):
        for g in enumerate_by_edges(m):
            cert = canonical_label(g)
            kept = []
            for child, edge in all_augmentations(g):
                u, v = canonical_edge(child)
                accepted = canonical_label(delete_with_cleanup(child, u, v)) == cert
                if _carries_least_pair(child, edge):
                    kept.append((child, accepted))
                else:
                    assert not accepted
            seen = set()
            want = []
            for child, accepted in kept:
                ccert = canonical_label(child)
                if ccert not in seen:
                    seen.add(ccert)
                    if accepted:
                        want.append(child)
            assert list(_children(g, MAX_N, None, MAX_N)) == want


@pytest.mark.parametrize("m, max_order", [(9, MAX_N)] + [(n * (n - 1) // 2, n) for n in range(3, 8)])
def test_tied_children_kept_iff_the_labelled_test_accepts(monkeypatch, m, max_order):
    # Every tied child of the tree (its added edge shares the least degree
    # pair with another edge), in the walk of enumerate_by_edges(m) or
    # enumerate_by_order(max_order), is kept by `_children` iff its canonical
    # edge lies in the orbit of the added edge and the leaf bound does not
    # cut it.  The root partition may settle a connected child without that
    # label, never a disconnected one that the bound keeps.  The bound cuts
    # tied children of the edge walk and none of the order walk.
    labelled = set()

    def recorded(g):
        labelled.add(g)
        return canonical_edge(g)

    monkeypatch.setattr(enumeration, "canonical_edge", recorded)
    nodes = [g for g in enumeration._subtree(complete(2), m, None, max_order) if g.m < m]
    tied = cuts = 0
    for g in nodes:
        children = {edge: child for child, edge in all_augmentations(g)}
        edges = [(a, b) for a, b, sole, *_ in _augmentations(g, m - g.m, max_order) if not sole]
        labelled.clear()
        yielded = set(_children(g, m, None, max_order))
        for a, b in edges:
            child = children[a, b]
            edge = canonical_edge(child)
            accepted = edge == (a, b) or edge in _orbit(a, b, automorphism_generators(child))
            cut = (not child.is_connected()
                   and enumeration._edges_to_connect(child) > m - child.m)
            assert (child in yielded) == (accepted and not cut), (g, a, b)
            if not child.is_connected() and not cut:
                assert child in labelled, (g, a, b)
            tied += 1
            cuts += cut
    assert tied
    assert (cuts > 0) == (max_order == MAX_N)


def test_leaf_bound_cuts_only_dead_nodes(monkeypatch):
    # Walked with the component prune alone (the bound weakened back to
    # c - 1), no node that the leaf bound cuts has a connected descendant
    # with at most m edges, and the bounded walk is the rest of that tree.
    # At m=10 the bound cuts 669 of 4,226 nodes.  The (2,2,3)-pruned walk
    # of the search does not take the bound yet (see `_children`); there it
    # would cut 661 of 3,944 nodes, none of them live either.
    bound = enumeration._edges_to_connect
    spec = ThetaSpec(2, 2, 3)

    def walk(g, m, spec):
        # (nodes below and at g, nodes the bound cuts, whether one is connected)
        nodes, cut, live = 1, 0, g.is_connected()
        for child in _children(g, m, spec, MAX_N):
            below, below_cut, below_live = walk(child, m, spec)
            dead = not child.is_connected() and bound(child) > m - child.m
            assert not (dead and below_live), (m, child)
            nodes += below
            cut += below if dead else below_cut
            live = live or below_live
        return nodes, cut, live

    def bounded(m, spec):
        return sum(1 for _ in enumeration._subtree(complete(2), m, spec, MAX_N))

    walks = [(m, None) for m in range(1, 11)] + [(10, spec)]
    want = {w: bounded(*w) for w in walks}
    monkeypatch.setattr(enumeration, "_edges_to_connect", lambda g: g.component_count() - 1)
    counts = {}
    for m, s in walks:
        nodes, cut, _ = walk(complete(2), m, s)
        assert nodes == bounded(m, s), (m, s)
        counts[m, s] = nodes, nodes - cut
    assert all(counts[m, None][1] == want[m, None] for m in range(1, 11))
    assert counts[10, None] == (4226, 3557)
    assert counts[10, spec] == (3944, 3283) and want[10, spec] == 3944


def test_search_m10_root_partition_cuts_component_searches():
    # The root partition settles 1,075 of the 2,679 tied children, so the
    # m=10 search runs at most 1,800 component searches (2,724 without it).
    for cache in (canon._root_cells, canon._component_canonical, canon._canonical_pieces):
        cache.cache_clear()
    rec = extremal_search(10, ThetaSpec(2, 2, 3))
    assert rec.num_candidates == 2100
    assert canon._component_canonical.cache_info().misses <= 1800


def test_no_duplicates_and_basic_shape():
    for m in range(1, 7):
        certs = []
        for g in enumerate_by_edges(m):
            assert g.m == m
            assert g.min_degree() >= 1
            certs.append(canonical_label(g))
        assert len(certs) == len(set(certs))


def test_connected_only_filters():
    for m in range(1, 7):
        allc = {canonical_label(g) for g in enumerate_by_edges(m) if g.is_connected()}
        conn = {canonical_label(g) for g in enumerate_by_edges(m, True)}
        assert conn == allc


def test_matches_labeled_oracle_up_to_three_edges():
    # Fully independent brute force (min over all vertex permutations);
    # feasible only while 2m stays small.
    for m in range(1, 4):
        oracle = {brute_force_class_key(g) for g in labeled_graphs_with_edges(m)}
        mine = [brute_force_class_key(g) for g in enumerate_by_edges(m)]
        assert len(mine) == len(set(mine))
        assert set(mine) == oracle


def test_budget_guard():
    with pytest.raises(BudgetError):
        list(enumerate_by_edges(13))
    with pytest.raises(ValueError):
        list(enumerate_by_edges(0))
    # explicit override admits the request
    gen = enumerate_by_edges(13, budget=13)
    next(gen)


def test_bool_is_not_a_count():
    # True is an int to isinstance; as a count it would stand for 1.
    for flag in (True, False):
        with pytest.raises(ValueError):
            extremal_search(flag, ThetaSpec(2, 2, 3))
        with pytest.raises(ValueError):
            list(enumerate_by_edges(flag))
        with pytest.raises(ValueError):
            list(enumerate_by_order(flag))
        with pytest.raises(ValueError):
            bound_value(flag)


def test_enumerate_by_order_counts():
    # OEIS A000088.
    want = [1, 2, 4, 11, 34, 156, 1044]
    for n, count in enumerate(want, start=1):
        graphs = list(enumerate_by_order(n))
        assert len(graphs) == count
        assert all(g.n == n for g in graphs)
        certs = {canonical_label(g) for g in graphs}
        assert len(certs) == count
    with pytest.raises(BudgetError):
        list(enumerate_by_order(9))


def test_enumerate_by_order_stream_pinned():
    # The 12,346 classes on 8 vertices (A000088) as graph6 lines, frozen from
    # the tree that walked enumerate_by_order without the component prune.
    lines = "".join(to_graph6(g) + "\n" for g in enumerate_by_order(8))
    assert lines.count("\n") == 12346
    digest = hashlib.sha256(lines.encode()).hexdigest()
    assert digest == "957f5df2a526b69f3b77335f4d3ad2289a37b2c43400cc032884d2d2cfe54d51"


def test_deep_walk_does_not_recurse():
    # The first connected class with 400 edges lies 399 steps below the
    # root; the walk reaches it under a recursion limit of 300.
    src = os.path.dirname(os.path.dirname(enumeration.__file__))
    code = ("import sys; sys.setrecursionlimit(300); "
            "from spectheta import enumerate_by_edges; "
            "print(next(enumerate_by_edges(400, True, budget=400)).m)")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "400\n"


def test_connected_counts_small():
    # OEIS A001349.
    for n, want in enumerate([1, 1, 2, 6, 21, 112, 853], start=1):
        assert sum(g.is_connected() for g in enumerate_by_order(n)) == want


def test_connected_counts_against_mask_oracle():
    for n in range(1, 6):
        oracle = {brute_force_class_key(g) for g in graphs_on(n) if g.is_connected()}
        assert sum(g.is_connected() for g in enumerate_by_order(n)) == len(oracle)


def test_extremal_search_m3():
    rec = extremal_search(3, ThetaSpec(2, 2, 3))
    assert rec.best_lambda == pytest.approx(2.0, abs=1e-9)
    assert rec.best_graph6 == "Bw"
    assert rec.num_candidates == 3
    assert len(rec.runner_ups) == 2


def test_extremal_search_m5_dominates_k4_minus_e():
    rec = extremal_search(5, ThetaSpec(2, 2, 3))
    assert rec.best_lambda >= spectral_radius(complete_minus_edge(4)).lam - 1e-9


def test_extremal_search_m7_includes_book3():
    rec = extremal_search(7, ThetaSpec(2, 2, 3))
    assert rec.best_lambda >= 3.0 - 1e-9
    pool = [rec.best_graph6] + [g6 for g6, _ in rec.runner_ups]
    assert to_graph6(canonical_form(book(3))) in pool


def test_book_always_feasible_for_odd_m():
    spec = ThetaSpec(2, 2, 3)
    for m in (3, 5, 7, 9):
        rec = extremal_search(m, spec)
        assert rec.best_lambda >= spectral_radius(book((m - 1) // 2)).lam - 1e-9


def test_theta_prune_keeps_every_free_class():
    # The search prunes inside the generation tree; a post-filter over the
    # unpruned connected stream must find exactly as many free classes.
    spec = ThetaSpec(2, 2, 3)
    for m in range(1, 10):
        want = sum(1 for g in enumerate_by_edges(m, True) if contains_theta(g, spec) is None)
        assert extremal_search(m, spec).num_candidates == want


def test_runner_ups_ordered():
    # Every record is checked against oracles that share no code with the
    # search: numpy's eigvalsh for lambda, networkx for theta-freeness.
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    theta = nx.Graph([(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 5), (5, 1)])
    for m in range(3, 10):
        rec = extremal_search(m, ThetaSpec(2, 2, 3))
        best = from_graph6(rec.best_graph6)
        assert canonical_form(best) == best
        records = [(rec.best_graph6, rec.best_lambda)] + list(rec.runner_ups)
        lams = [lam for _, lam in records]
        assert all(a >= b - 1e-9 for a, b in zip(lams, lams[1:]))
        assert len({g6 for g6, _ in records}) == len(records)
        for g6, lam in records:
            g = from_graph6(g6)
            assert g.m == m and g.is_connected()
            want = np.linalg.eigvalsh(np.array(
                [[(row >> j) & 1 for j in range(g.n)] for row in g.adj], dtype=float))[-1]
            assert abs(lam - want) <= 1e-9 * max(1.0, lam)
            assert not GraphMatcher(to_networkx(g), theta).subgraph_is_monomorphic()


def test_search_top_six_matches_atlas_oracle():
    # A completeness oracle that shares no code with the search: networkx's
    # atlas of every graph on at most 7 vertices, its monomorphism matcher
    # for the (2,2,3) theta, its graph6 reader, and numpy's eigvalsh.  A
    # connected graph with m <= 6 edges has at most 7 vertices, so there the
    # atlas holds every class.  For larger m, Hong's bound (Linear Algebra
    # Appl. 108, 1988) gives lambda <= sqrt(2m - n + 1) for a connected
    # graph, so a class on 8 or more vertices has lambda <= sqrt(2m - 7);
    # once the sixth atlas lambda is above that, no such class can reach
    # the top six.
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    theta = nx.Graph([(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 5), (5, 1)])
    atlas = {m: [] for m in range(1, 10)}
    for h in nx.graph_atlas_g():
        m = h.number_of_edges()
        if (m in atlas and nx.is_connected(h)
                and not GraphMatcher(h, theta).subgraph_is_monomorphic()):
            atlas[m].append((float(np.linalg.eigvalsh(nx.to_numpy_array(h))[-1]), h))
    for m, free in atlas.items():
        free.sort(key=lambda entry: -entry[0])
        rec = extremal_search(m, ThetaSpec(2, 2, 3))
        records = [(rec.best_graph6, rec.best_lambda)] + list(rec.runner_ups)
        assert [lam for _, lam in records] == pytest.approx(
            [lam for lam, _ in free[:6]], abs=1e-9), m
        for g6, lam in records:
            g = nx.from_graph6_bytes(g6.encode())
            assert any(abs(a - lam) <= 1e-9 and nx.is_isomorphic(g, h) for a, h in free), g6
        if m <= 6:
            assert rec.num_candidates == len(free), m
        else:
            assert free[5][0] > math.sqrt(2 * m - 7), m
    assert [len(atlas[m]) for m in range(1, 7)] == [1, 1, 3, 5, 12, 30]


# networkx 3.5 changed its hashes of unlabelled graphs and says so; the
# hashes here only bucket graphs within one run.
@pytest.mark.filterwarnings("ignore:The hashes produced:UserWarning")
def test_search_m10_matches_one_vertex_extension_oracle():
    # The atlas oracle one vertex further, in networkx and numpy alone.  A
    # connected graph has a vertex that is not a cut vertex, so every
    # connected class on 8 vertices is a connected 7-vertex atlas graph plus
    # a new vertex joined to a nonempty subset of it.  By Hong's bound a
    # class with 10 edges on 9 or more vertices has lambda <= sqrt(12), so
    # once the sixth lambda found is above that, the top six is complete.
    nx = pytest.importorskip("networkx")
    from itertools import combinations
    from networkx.algorithms.isomorphism import GraphMatcher

    m = 10
    theta = nx.Graph([(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 5), (5, 1)])
    classes = [h for h in nx.graph_atlas_g()
               if h.number_of_edges() == m and nx.is_connected(h)]
    buckets = {}
    for h in nx.graph_atlas_g():
        if h.number_of_nodes() == 7 and nx.is_connected(h) and h.number_of_edges() < m:
            for subset in combinations(range(7), m - h.number_of_edges()):
                g = nx.Graph(h)
                g.add_edges_from((7, v) for v in subset)
                bucket = buckets.setdefault(nx.weisfeiler_lehman_graph_hash(g), [])
                if not any(nx.is_isomorphic(g, other) for other in bucket):
                    bucket.append(g)
    classes += [g for bucket in buckets.values() for g in bucket]
    assert len(classes) == sum(g.n <= 8 for g in enumerate_by_edges(m, True))
    free = sorted(((float(np.linalg.eigvalsh(nx.to_numpy_array(g))[-1]), g) for g in classes
                   if not GraphMatcher(g, theta).subgraph_is_monomorphic()),
                  key=lambda entry: -entry[0])
    assert free[5][0] > math.sqrt(12)
    rec = extremal_search(m, ThetaSpec(2, 2, 3))
    records = [(rec.best_graph6, rec.best_lambda)] + list(rec.runner_ups)
    assert [lam for _, lam in records] == pytest.approx([lam for lam, _ in free[:6]], abs=1e-9)
    for g6, lam in records:
        g = nx.from_graph6_bytes(g6.encode())
        assert any(abs(a - lam) <= 1e-9 and nx.is_isomorphic(g, h) for a, h in free), g6


def _dense_lambda(g):
    a = np.array([[(row >> j) & 1 for j in range(g.n)] for row in g.adj], dtype=float)
    return np.linalg.eigvalsh(a)[-1]


def test_lambda_square_bound_holds():
    # lambda^2 is at most the largest row sum of A^2, max_v sum_{u ~ v} d_u.
    rng = random.Random(12)
    graphs = [g for n in range(1, 8) for g in enumerate_by_order(n) if g.is_connected()]
    graphs += [random_connected_graph(rng, max_n=40) for _ in range(300)]
    for g in graphs:
        deg = [row.bit_count() for row in g.adj]
        want = max(sum(deg[u] for u in range(g.n) if g.has_edge(u, v)) for v in range(g.n))
        assert _lambda_square_bound(g) == want
        assert _dense_lambda(g) ** 2 <= want * (1 + 1e-12)


def test_extremal_search_m10_solves_few_leaves(monkeypatch):
    # Leaves whose bound cannot reach the held top six get neither a
    # canonical form nor an eigensolve; every leaf is still counted.
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(enumeration, "spectral_radius",
                        counted("spectral_radius", enumeration.spectral_radius))
    monkeypatch.setattr(enumeration, "canonical_form",
                        counted("canonical_form", enumeration.canonical_form))
    rec = extremal_search(10, ThetaSpec(2, 2, 3))
    assert rec.num_candidates == 2100
    assert 6 <= calls["spectral_radius"] <= 150
    assert 6 <= calls["canonical_form"] <= 150


def test_record_json_deterministic():
    a = json.dumps(extremal_search(6, ThetaSpec(2, 2, 3)).to_json(), indent=2)
    b = json.dumps(extremal_search(6, ThetaSpec(2, 2, 3)).to_json(), indent=2)
    assert a == b


def test_extremal_table():
    rows = extremal_table([3, 4])
    assert rows[0]["m"] == 3
    assert rows[0]["best_lambda"] == pytest.approx(2.0, abs=1e-9)
    assert rows[0]["bound"] == pytest.approx(2.0, abs=1e-9)
    assert rows[0]["gap"] == pytest.approx(0.0, abs=1e-9)
    assert rows[1]["bound"] == pytest.approx(bound_value(4), abs=1e-12)
