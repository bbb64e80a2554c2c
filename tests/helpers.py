"""Shared test utilities: corpora, relabelings, and brute-force oracles."""

from __future__ import annotations

from itertools import combinations, permutations

from spectheta import Graph


def relabeled(g: Graph, perm) -> Graph:
    """Copy of g with vertex v renamed to perm[v]."""
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def to_networkx(g: Graph):
    """The same graph as a networkx.Graph on nodes 0..n-1."""
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def random_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def random_connected_graph(rng, max_n=20) -> Graph:
    """Random connected graph: a random spanning tree plus Bernoulli edges."""
    n = rng.randint(2, max_n)
    edges = set()
    order = random_permutation(rng, n)
    for i in range(1, n):
        a = order[rng.randrange(i)]
        edges.add(tuple(sorted((a, order[i]))))
    density = rng.uniform(0.05, 0.9)
    for u, v in combinations(range(n), 2):
        if rng.random() < density:
            edges.add((u, v))
    return Graph(n, sorted(edges))


def graphs_on(n: int):
    """All labeled graphs on exactly n vertices, one per edge subset."""
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1])


def brute_force_class_key(g: Graph):
    """Min adjacency encoding over all vertex permutations; an exact
    isomorphism-class key for tiny graphs."""
    best = None
    for perm in permutations(range(g.n)):
        code = 0
        for u, v in g.edges():
            a, b = sorted((perm[u], perm[v]))
            code |= 1 << (b * (b - 1) // 2 + a)
        if best is None or code < best:
            best = code
    return (g.n, best)


def labeled_graphs_with_edges(m: int):
    """All labeled graphs with exactly m edges and no isolated vertices,
    over every feasible order n in 2..2m."""
    for n in range(2, 2 * m + 1):
        pairs = list(combinations(range(n), 2))
        if len(pairs) < m:
            continue
        full = (1 << n) - 1
        for chosen in combinations(range(len(pairs)), m):
            cover = 0
            for i in chosen:
                u, v = pairs[i]
                cover |= (1 << u) | (1 << v)
            if cover == full:
                yield Graph(n, [pairs[i] for i in chosen])
