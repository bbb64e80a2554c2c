"""Shared test utilities: corpora, relabelings, and brute-force oracles."""

from __future__ import annotations

from itertools import combinations, permutations

from spectheta import Graph, ThetaSpec, book, complete, theta_graph
from spectheta.graphs import bit_indices, vertex_mask


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


def hypercube(d: int) -> Graph:
    """The d-cube: vertices 0..2^d - 1, adjacent when they differ in one bit."""
    return Graph(1 << d, [(v, v | (1 << i)) for v in range(1 << d) for i in range(d)
                          if not (v >> i) & 1])


def binary_tree(depth: int) -> Graph:
    """The complete binary tree of the given depth, vertex v under (v - 1) // 2."""
    n = (2 << depth) - 1
    return Graph(n, [(v, (v - 1) // 2) for v in range(1, n)])


def torus(a: int, b: int) -> Graph:
    """The a x b torus grid C_a x C_b, vertex (i, j) numbered i * b + j."""
    edges = []
    for i in range(a):
        for j in range(b):
            edges += [(i * b + j, (i + 1) % a * b + j), (i * b + j, i * b + (j + 1) % b)]
    return Graph(a * b, edges)


def oracle_has_long_cycle(g: Graph) -> bool:
    """networkx oracle: some biconnected block has four or more vertices."""
    import networkx as nx

    return any(len(b) >= 4 for b in nx.biconnected_components(to_networkx(g)))


def oracle_is_book(g: Graph) -> bool:
    """networkx oracle: isomorphic to book((m - 1) / 2), or to K2 when m = 1."""
    import networkx as nx

    if g.m % 2 == 0:
        return False
    k = (g.m - 1) // 2
    return nx.is_isomorphic(to_networkx(g), to_networkx(book(k) if k else complete(2)))


def oracle_triangle_free(g: Graph) -> bool:
    """networkx oracle: no vertex lies in a triangle."""
    import networkx as nx

    return not any(nx.triangles(to_networkx(g)).values())


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


def all_augmentations(g: Graph):
    """Every child of g with one more edge, and the added edge: each
    non-edge, each pendant to a new vertex, then the fresh disjoint edge."""
    n = g.n
    for u in range(n):
        for v in range(u + 1, n):
            if not g.has_edge(u, v):
                yield g.with_edge(u, v), (u, v)
    for u in range(n):
        yield Graph(n + 1, list(g.edges()) + [(u, n)]), (u, n)
    yield Graph(n + 2, list(g.edges()) + [(n, n + 1)]), (n, n + 1)


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


def brute_force_automorphisms(g: Graph):
    """Every vertex permutation that maps the edge set onto itself."""
    edges = set(g.edges())
    return [perm for perm in permutations(range(g.n))
            if all(tuple(sorted((perm[u], perm[v]))) in edges for u, v in edges)]


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


def delete_with_cleanup(g: Graph, u: int, v: int) -> Graph:
    """g without the edge (u, v) and without the vertices this isolates."""
    h = g.without_edge(u, v)
    keep = [w for w in range(h.n) if h.adj[w]]
    if len(keep) == h.n:
        return h
    return h.induced(keep)


ORACLE_MAX_VERTICES = 10


def oracle_contains_theta(g: Graph, spec: ThetaSpec) -> bool:
    """Decide containment by trying every injection of the theta vertices.

    Deliberately independent of the path-search detector; guarded to small
    hosts because the search is factorial.
    """
    if g.n > ORACLE_MAX_VERTICES:
        raise ValueError(f"oracle limited to hosts with n <= {ORACLE_MAX_VERTICES}, got n={g.n}")
    pattern = theta_graph(spec)
    if pattern.n > g.n or pattern.m > g.m:
        return False
    pat_adj = pattern.adj
    assign = [-1] * pattern.n

    def place(i, used):
        if i == pattern.n:
            return True
        earlier = pat_adj[i] & ((1 << i) - 1)
        for v in range(g.n):
            if (used >> v) & 1:
                continue
            row = g.adj[v]
            if all((row >> assign[j]) & 1 for j in bit_indices(earlier)):
                assign[i] = v
                if place(i + 1, used | (1 << v)):
                    return True
        return False

    return place(0, 0)


def min_degree(g: Graph) -> int:
    if g.n == 0:
        return 0
    return min(r.bit_count() for r in g.adj)


def edge_count_between(g: Graph, xs, ys) -> int:
    """Number of edges of g with one endpoint in xs and the other in ys.

    With xs == ys this is the edge count inside the set, each edge
    counted once.
    """
    xm = vertex_mask(xs)
    ym = vertex_mask(ys)
    for v in bit_indices(xm | ym):
        g._check_vertex(v)
    total = sum((g.adj[u] & ym).bit_count() for u in bit_indices(xm))
    both = xm & ym
    inner = sum((g.adj[u] & both).bit_count() for u in bit_indices(both)) // 2
    return total - inner
