"""Immutable simple graphs with bitset adjacency rows, plus the named families."""

from __future__ import annotations

MAX_N = 256


def bit_indices(mask: int):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _is_count(x) -> bool:
    # An int that is not a bool: True and False are ints to isinstance.
    return isinstance(x, int) and not isinstance(x, bool)


def _check_order(n) -> None:
    if not _is_count(n) or not 0 <= n <= MAX_N:
        raise ValueError(f"vertex count must lie in 0..{MAX_N}, got {n!r}")


def vertex_mask(vertices) -> int:
    """Bitmask with a bit set for every vertex id in the iterable."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _induced_rows(adj, order) -> list[int]:
    """Adjacency rows of the subgraph induced on order, a sequence of distinct
    vertices, with vertex order[i] renamed i."""
    pos = {v: i for i, v in enumerate(order)}
    keep = vertex_mask(order)
    rows = []
    for v in order:
        row = 0
        rest = adj[v] & keep
        while rest:
            low = rest & -rest
            row |= 1 << pos[low.bit_length() - 1]
            rest ^= low
        rows.append(row)
    return rows


class Graph:
    """Undirected simple graph on dense vertex ids 0..n-1.

    Each adjacency-matrix row is one int bitmask, so neighborhood algebra is
    branch-free set arithmetic.  Instances never mutate; derived graphs come
    from with_edge, without_edge and induced.
    """

    __slots__ = ("n", "adj", "m")

    def __init__(self, n: int, edges=()):
        _check_order(n)
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        object.__setattr__(self, "adj", tuple(rows))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", sum(r.bit_count() for r in rows) // 2)

    @classmethod
    def _from_rows(cls, rows) -> "Graph":
        # Fast path for internal construction; rows must already be symmetric
        # and loop-free.
        g = object.__new__(cls)
        object.__setattr__(g, "adj", tuple(rows))
        object.__setattr__(g, "n", len(rows))
        object.__setattr__(g, "m", sum(r.bit_count() for r in rows) // 2)
        return g

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"

    def _check_vertex(self, v):
        if not (_is_count(v) and 0 <= v < self.n):
            raise ValueError(f"vertex {v!r} out of range for n={self.n}")

    # -- queries ---------------------------------------------------------

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> list[int]:
        self._check_vertex(v)
        return list(bit_indices(self.adj[v]))

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool((self.adj[u] >> v) & 1)

    def edges(self):
        """Yield edges as (u, v) with u < v, lexicographically."""
        for u, row in enumerate(self.adj):
            rest = row >> (u + 1) << (u + 1)
            while rest:
                low = rest & -rest
                yield (u, low.bit_length() - 1)
                rest ^= low

    def _component_masks(self) -> list[int]:
        # One vertex bitmask per connected component, by smallest member.
        adj = self.adj
        out = []
        left = (1 << self.n) - 1
        while left:
            seen = left & -left
            frontier = seen
            while frontier:
                nxt = 0
                while frontier:
                    low = frontier & -frontier
                    nxt |= adj[low.bit_length() - 1]
                    frontier ^= low
                frontier = nxt & ~seen
                seen |= frontier
            out.append(seen)
            left &= ~seen
        return out

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, by smallest member."""
        return [list(bit_indices(mask)) for mask in self._component_masks()]

    def component_count(self) -> int:
        return len(self._component_masks())

    def is_connected(self) -> bool:
        """Whether there is exactly one component; the empty graph has none."""
        return len(self._component_masks()) == 1

    def induced(self, vertices) -> "Graph":
        """Subgraph induced by the vertex set, relabeled densely in sorted order."""
        vs = sorted(set(vertices))
        for v in vs:
            self._check_vertex(v)
        return Graph._from_rows(_induced_rows(self.adj, vs))

    # -- derived copies --------------------------------------------------

    def with_edge(self, u: int, v: int) -> "Graph":
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if (self.adj[u] >> v) & 1:
            raise ValueError(f"edge ({u}, {v}) already present")
        rows = list(self.adj)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph._from_rows(rows)

    def without_edge(self, u: int, v: int) -> "Graph":
        if not self.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) not present")
        rows = list(self.adj)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return Graph._from_rows(rows)


# -- named families -------------------------------------------------------
#
# Each builder checks its order with _check_order before it builds the edge
# list, which for an order far beyond MAX_N would exhaust memory first.


def _check_family_order(name: str, n, least: int) -> None:
    # The order check of the builders that take n: their least n, then MAX_N.
    if not _is_count(n) or n < least:
        raise ValueError(f"{name} needs n >= {least}, got {n!r}")
    _check_order(n)


def book(k: int) -> Graph:
    """Two adjacent hubs (vertices 0 and 1) joined to k independent pages."""
    if not _is_count(k) or k < 1:
        raise ValueError(f"book needs at least one page, got k={k!r}")
    _check_order(k + 2)
    edges = [(0, 1)]
    for p in range(2, k + 2):
        edges.append((0, p))
        edges.append((1, p))
    return Graph(k + 2, edges)


def star(n: int) -> Graph:
    """Star on n vertices: center 0 joined to n-1 leaves."""
    _check_family_order("star", n, 1)
    return Graph(n, [(0, v) for v in range(1, n)])


def star_plus_edge(n: int) -> Graph:
    """Star on n vertices with one extra edge between two leaves."""
    _check_family_order("star_plus_edge", n, 3)
    return Graph(n, [(0, v) for v in range(1, n)] + [(1, 2)])


def complete(n: int) -> Graph:
    _check_family_order("complete", n, 1)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_minus_edge(n: int) -> Graph:
    _check_family_order("complete_minus_edge", n, 2)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) != (0, 1)]
    return Graph(n, edges)


def complete_bipartite(s: int, t: int) -> Graph:
    if not (_is_count(s) and _is_count(t) and s >= 1 and t >= 1):
        raise ValueError(f"complete_bipartite needs s, t >= 1, got {s!r}, {t!r}")
    _check_order(s + t)
    return Graph(s + t, [(u, s + v) for u in range(s) for v in range(t)])


def path(n: int) -> Graph:
    _check_family_order("path", n, 1)
    return Graph(n, [(v, v + 1) for v in range(n - 1)])


def cycle(n: int) -> Graph:
    _check_family_order("cycle", n, 3)
    return Graph(n, [(v, (v + 1) % n) for v in range(n)])


FAMILIES = {
    "book": book,
    "star": star,
    "star_plus_edge": star_plus_edge,
    "complete": complete,
    "complete_minus_edge": complete_minus_edge,
    "complete_bipartite": complete_bipartite,
    "path": path,
    "cycle": cycle,
}


def family(name: str, *params: int) -> Graph:
    """Build a named family member, e.g. family("book", 3) or family("complete_bipartite", 2, 4)."""
    try:
        builder = FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}; choose from {sorted(FAMILIES)}") from None
    return builder(*params)
