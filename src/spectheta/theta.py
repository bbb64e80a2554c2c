"""Theta-subgraph detection with explicit witnesses, plus a brute-force oracle.

A theta graph with parameters (r, p, q) joins two hub vertices by three
internally disjoint paths of edge lengths r, p and q.  Detection uses
subgraph semantics: chords inside witness paths are allowed.

`contains_theta` is the one detector, used by `verify`, `free` and the
generation tree's prune.  It takes the vertices of degree >= 3 two at a
time, in lexicographic order, as hub pairs, and `_theta_between` searches
the three paths of one pair, each by ascending neighbour id.  The first
witness found is returned as the JSON value that `free` and `verify`
print: `{"hubs": [a, b], "paths": [[a, ..., b], [a, ..., b], [a, ..., b]]}`,
the paths of lengths r, p and q in that order.

The length-2 paths between two hubs are their common neighbours and are
interchangeable, so the search could count them instead of enumerating
them, which would make a `verify` of a book or a K2,t far faster.  A
benchmark `certify` repetition would then last a fraction of a second,
and the benchmark's speed probe cannot yet take a sample inside
repetitions that short.  Counting waits for that fix, and then changes
`_theta_between` alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, bit_indices

ORACLE_MAX_VERTICES = 10


@dataclass(frozen=True, order=True)
class ThetaSpec:
    """Validated path-length triple; normalized so q >= p >= r >= 1, p >= 2."""

    r: int
    p: int
    q: int

    def __post_init__(self):
        r, p, q = sorted((self.r, self.p, self.q))
        if r < 1 or p < 2:
            raise ValueError(
                f"path lengths must satisfy q >= p >= r >= 1 with p >= 2 "
                f"(at most one length-1 path keeps the graph simple), got {(self.r, self.p, self.q)}"
            )
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @classmethod
    def parse(cls, text: str) -> "ThetaSpec":
        """Parse 'R,P,Q' into a normalized spec."""
        parts = text.split(",")
        if len(parts) != 3:
            raise ValueError(f"expected three comma-separated lengths, got {text!r}")
        try:
            r, p, q = (int(part) for part in parts)
        except ValueError:
            raise ValueError(f"path lengths must be integers, got {text!r}") from None
        return cls(r, p, q)

    @property
    def order(self) -> int:
        """Vertex count of the theta graph itself."""
        return self.r + self.p + self.q - 1

    @property
    def size(self) -> int:
        """Edge count of the theta graph itself."""
        return self.r + self.p + self.q

    def __str__(self):
        return f"{self.r},{self.p},{self.q}"


def theta_graph(spec: ThetaSpec) -> Graph:
    """The theta graph itself: hubs 0 and 1, internal vertices numbered per path."""
    edges = []
    nxt = 2
    for length in (spec.r, spec.p, spec.q):
        prev = 0
        for _ in range(length - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, 1))
    return Graph(nxt, edges)


def validate_witness(g: Graph, spec: ThetaSpec, w: dict) -> bool:
    """Pure recheck of a witness against its host graph: hubs a != b and
    three paths from a to b of lengths r, p and q, along edges of g, whose
    internal vertices are distinct and avoid the hubs and the other paths.
    """
    (a, b), paths = w["hubs"], w["paths"]
    if a == b or len(paths) != 3:
        return False
    used = {a, b}
    for seq, length in zip(paths, (spec.r, spec.p, spec.q)):
        internals = set(seq[1:-1])
        if (len(seq) != length + 1 or seq[0] != a or seq[-1] != b
                or len(internals) != length - 1 or internals & used
                or not all(g.has_edge(u, v) for u, v in zip(seq, seq[1:]))):
            return False
        used |= internals
    return True


def _paths(g, a, b, length, banned_mask):
    # All simple a-b paths of the exact edge length whose internal vertices
    # avoid banned_mask; yields internal-vertex tuples, neighbors ascending.
    if length == 1:
        if g.has_edge(a, b):
            yield ()
        return
    banned = banned_mask | (1 << a) | (1 << b)
    adj = g.adj
    stack = []

    def extend(cur, banned):
        if len(stack) == length - 1:
            if (adj[cur] >> b) & 1:
                yield tuple(stack)
            return
        for w in bit_indices(adj[cur] & ~banned):
            stack.append(w)
            yield from extend(w, banned | (1 << w))
            stack.pop()

    yield from extend(a, banned)


def _theta_between(g, spec, a, b):
    for first in _paths(g, a, b, spec.r, 0):
        m1 = 0
        for v in first:
            m1 |= 1 << v
        for second in _paths(g, a, b, spec.p, m1):
            m2 = m1
            for v in second:
                m2 |= 1 << v
            for third in _paths(g, a, b, spec.q, m2):
                return {"hubs": [a, b],
                        "paths": [[a, *first, b], [a, *second, b], [a, *third, b]]}
    return None


def contains_theta(g: Graph, spec: ThetaSpec) -> dict | None:
    """First theta witness in deterministic order, as a `{"hubs", "paths"}`
    dict, or None.

    Hub pairs are scanned in increasing lexicographic order and paths by
    ascending neighbor id, so repeated runs return the same witness.  The
    hubs are the vertices of degree >= 3; a graph with fewer vertices or
    edges than the theta has none to test.
    """
    if g.n < spec.order or g.m < spec.size:
        return None
    hubs = [v for v in range(g.n) if g.adj[v].bit_count() >= 3]
    for i, a in enumerate(hubs):
        for b in hubs[i + 1:]:
            w = _theta_between(g, spec, a, b)
            if w is not None:
                if not validate_witness(g, spec, w):
                    raise RuntimeError(f"internal error: invalid witness {w} for {spec}")
                return w
    return None


def is_theta_free(g: Graph, spec: ThetaSpec) -> bool:
    return contains_theta(g, spec) is None


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
