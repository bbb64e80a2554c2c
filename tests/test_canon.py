import hashlib
import random
from collections import defaultdict

import pytest

from helpers import (
    binary_tree,
    brute_force_automorphisms,
    brute_force_class_key,
    graphs_on,
    hypercube,
    random_permutation,
    relabeled,
    to_networkx,
    torus,
)

from spectheta import (
    Graph,
    automorphism_generators,
    book,
    canonical_edge,
    canonical_form,
    canonical_label,
    canonical_order,
    complete,
    complete_bipartite,
    cycle,
    enumerate_by_edges,
    enumerate_by_order,
    path,
    star,
)

# Number of graphs on n unlabeled vertices, n = 0..6.
GRAPH_COUNTS = [1, 1, 2, 4, 11, 34, 156]


def test_permutation_invariance_100_trials():
    rng = random.Random(7)
    corpus = [
        book(5),
        cycle(7),
        path(8),
        star(9),
        complete_bipartite(3, 3),
        Graph(8, [(0, 1), (2, 3), (4, 5), (6, 7)]),
        Graph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (5, 6)]),
    ]
    for g in corpus:
        want = canonical_label(g)
        seen = {want}
        for _ in range(100):
            h = relabeled(g, random_permutation(rng, g.n))
            seen.add(canonical_label(h))
        assert len(seen) == 1


def test_separates_nonisomorphic_pairs():
    assert canonical_label(path(4)) != canonical_label(star(4))
    assert canonical_label(cycle(6)) != canonical_label(Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]))


def test_class_counts_up_to_six_vertices():
    # Exactly the right number of distinct certificates across all labeled
    # graphs proves invariance and separation at once.
    for n in range(0, 7):
        certs = {canonical_label(g) for g in graphs_on(n)}
        assert len(certs) == GRAPH_COUNTS[n]


def test_agrees_with_all_permutations_oracle():
    # One certificate per brute-force class and vice versa, for n <= 5.
    for n in range(1, 6):
        cert_by_class = defaultdict(set)
        class_by_cert = defaultdict(set)
        for g in graphs_on(n):
            key = brute_force_class_key(g)
            cert = canonical_label(g)
            cert_by_class[key].add(cert)
            class_by_cert[cert].add(key)
        assert all(len(v) == 1 for v in cert_by_class.values())
        assert all(len(v) == 1 for v in class_by_cert.values())


def test_canonical_form_is_a_relabeling_fixed_point():
    rng = random.Random(3)
    for g in (book(4), cycle(9), Graph(9, [(0, 1), (2, 3), (3, 4), (2, 4), (5, 6), (7, 8)])):
        base = canonical_form(g)
        assert canonical_label(base) == canonical_label(g)
        for _ in range(20):
            h = relabeled(g, random_permutation(rng, g.n))
            assert canonical_form(h) == base


def test_canonical_order_is_a_permutation():
    g = book(6)
    order = canonical_order(g)
    assert sorted(order) == list(range(g.n))


def test_canonical_edge_is_orbit_stable():
    # Deleting the canonical edge gives the same class for any relabeling,
    # and the edge carries the least sorted endpoint-degree pair.
    rng = random.Random(5)
    triangle_with_fork = Graph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (3, 5)])
    for g in (book(4), path(6), cycle(5), Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)]),
              triangle_with_fork):
        u, v = canonical_edge(g)
        assert g.has_edge(u, v)
        pairs = [tuple(sorted((g.degree(x), g.degree(y)))) for x, y in g.edges()]
        assert tuple(sorted((g.degree(u), g.degree(v)))) == min(pairs)
        base = canonical_label(g.without_edge(u, v))
        for _ in range(20):
            h = relabeled(g, random_permutation(rng, g.n))
            x, y = canonical_edge(h)
            assert canonical_label(h.without_edge(x, y)) == base
    assert canonical_edge(Graph(3)) is None


def _group_order(g):
    # Size of the closure of the generators under composition, after
    # checking that each generator is an automorphism.
    gens = automorphism_generators(g)
    edges = set(g.edges())
    for perm in gens:
        assert sorted(perm) == list(range(g.n))
        assert {tuple(sorted((perm[u], perm[v]))) for u, v in edges} == edges
    seen = {tuple(range(g.n))}
    stack = list(seen)
    while stack:
        perm = stack.pop()
        for gen in gens:
            q = tuple(gen[v] for v in perm)
            if q not in seen:
                seen.add(q)
                stack.append(q)
    return len(seen)


def test_automorphism_generators_generate_the_group():
    # Every class on at most six vertices, 3K2 and 2K3 among them, against
    # the brute-force count over all vertex permutations.
    for n in range(1, 7):
        for g in enumerate_by_order(n):
            assert _group_order(g) == len(brute_force_automorphisms(g)), list(g.edges())


def test_automorphism_generators_on_larger_symmetric_graphs():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    petersen = Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                     + [(i, i + 5) for i in range(5)]
                     + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    disjoint = Graph(12, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                          (6, 7), (8, 9), (10, 11), (0, 6)])
    for g in (petersen, cycle(9), book(5), complete_bipartite(3, 4), complete(5), star(7),
              disjoint, hypercube(4), binary_tree(3), torus(5, 7)):
        h = to_networkx(g)
        want = sum(1 for _ in GraphMatcher(h, h).isomorphisms_iter())
        assert _group_order(g) == want


def test_labels_and_orders_are_pinned():
    # Every connected class with at most 8 edges, as the tree yields it, and
    # three graphs with large automorphism groups.  Any change to a
    # certificate byte or to the canonical order changes the digest.
    graphs = [g for m in range(1, 9) for g in enumerate_by_edges(m, True)]
    assert len(graphs) == 358
    digest = hashlib.sha256()
    for g in graphs + [hypercube(4), binary_tree(3), torus(5, 7)]:
        digest.update(canonical_label(g) + bytes(canonical_order(g)))
    assert digest.hexdigest() == "7e3ba173a2682b2b2f8f0aeb085b5ee925007f84bda5620940f1e65f3f8a87bb"
