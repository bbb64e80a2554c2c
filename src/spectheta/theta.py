"""Theta-subgraph detection with explicit witnesses, plus a brute-force oracle.

A theta graph with parameters (r, p, q) joins two hub vertices by three
internally disjoint paths of edge lengths r, p and q.  Detection uses
subgraph semantics: chords inside witness paths are allowed.

The generation tree asks a narrower yes/no question: g minus one edge is
theta-free, so does g hold a theta?  `_theta_through_edge` answers it from
the hub pairs a theta through that edge can have.  For each pair,
`_theta_by_counting` uses that the length-2 paths between two hubs are
their common neighbours and are interchangeable: it searches only the
other paths, then compares the number of common neighbours those paths
leave unused with the number of length-2 paths it needs.

`contains_theta`, which `verify` and `free` use, still searches every
path.  Counting could serve it too and make a `verify` of a book or a
K2,t far faster, but a benchmark `certify` repetition would then last a
fraction of a second, and the benchmark's speed probe cannot yet take a
sample inside repetitions that short.  It waits for that fix.
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


@dataclass(frozen=True)
class ThetaWitness:
    """Two hubs and three full hub-to-hub vertex sequences of lengths r, p, q."""

    hub_a: int
    hub_b: int
    paths: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]

    def to_json(self) -> dict:
        return {"hubs": [self.hub_a, self.hub_b], "paths": [list(p) for p in self.paths]}


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


def validate_witness(g: Graph, spec: ThetaSpec, w: ThetaWitness) -> bool:
    """Pure recheck of a witness against its host graph."""
    if w.hub_a == w.hub_b or len(w.paths) != 3:
        return False
    lengths = (spec.r, spec.p, spec.q)
    internal_union = 0
    for seq, length in zip(w.paths, lengths):
        if len(seq) != length + 1 or seq[0] != w.hub_a or seq[-1] != w.hub_b:
            return False
        if len(set(seq)) != len(seq):
            return False
        for a, b in zip(seq, seq[1:]):
            if not g.has_edge(a, b):
                return False
        internals = seq[1:-1]
        if w.hub_a in internals or w.hub_b in internals:
            return False
        imask = 0
        for v in internals:
            imask |= 1 << v
        if imask & internal_union:
            return False
        internal_union |= imask
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
                return ThetaWitness(
                    a, b, ((a, *first, b), (a, *second, b), (a, *third, b))
                )
    return None


def _theta_by_counting(g, spec, x, y):
    # Whether hubs x and y carry the theta.  The paths of length other than
    # two are searched; the length-2 paths are interchangeable common
    # neighbours, so they are counted among those the search left unused.
    common = g.adj[x] & g.adj[y]
    lengths = [length for length in (spec.r, spec.p, spec.q) if length != 2]
    twos = 3 - len(lengths)
    if common.bit_count() < twos:
        return False

    def rest(i, used):
        if i == len(lengths):
            return (common & ~used).bit_count() >= twos
        for inner in _paths(g, x, y, lengths[i], used):
            mask = used
            for v in inner:
                mask |= 1 << v
            if rest(i + 1, mask):
                return True
        return False

    return rest(0, 0)


def _theta_through_edge(g: Graph, spec: ThetaSpec, a: int, b: int) -> bool:
    """Whether g contains the theta, given that g minus its edge (a, b) does not.

    Every theta of g then runs through (a, b), so only the hub pairs such a
    theta can have are tested.  A degree-1 endpoint lies on no cycle, so
    pendant and fresh-edge additions never close one.  When q <= 3, every
    edge of a theta meets a hub except the middle edge of a length-3 path,
    so the hubs are a or b with any vertex, or one neighbour of a and one
    of b; longer paths leave every eligible pair.
    """
    adj = g.adj
    if adj[a].bit_count() < 2 or adj[b].bit_count() < 2:
        return False
    if g.n < spec.order or g.m < spec.size:
        return False
    eligible = [v for v in range(g.n) if adj[v].bit_count() >= 3]
    if spec.q <= 3:
        emask = 0
        for v in eligible:
            emask |= 1 << v
        hubs = [(x, y) for x in (a, b) if (emask >> x) & 1 for y in eligible if y != x]
        hubs += [(x, y) for x in bit_indices(adj[a] & emask)
                 for y in bit_indices(adj[b] & emask) if y != x]
    else:
        hubs = [(x, y) for i, x in enumerate(eligible) for y in eligible[i + 1:]]
    return any(_theta_by_counting(g, spec, x, y) for x, y in hubs)


def contains_theta(g: Graph, spec: ThetaSpec):
    """First theta witness in deterministic order, or None.

    Hub pairs are scanned in increasing lexicographic order and paths by
    ascending neighbor id, so repeated runs return the same witness.
    """
    if g.n < spec.order or g.m < spec.size:
        return None
    eligible = [v for v in range(g.n) if g.adj[v].bit_count() >= 3]
    if len(eligible) < 2:
        return None
    emask = 0
    for v in eligible:
        emask |= 1 << v
    for a in eligible:
        for b in bit_indices(emask >> (a + 1)):
            w = _theta_between(g, spec, a, a + 1 + b)
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
