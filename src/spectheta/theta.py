"""Theta-subgraph detection with explicit witnesses.

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

`_paths` yields the paths of one length in lexicographic order.  A
length-1 path is one bit test, and the length-2 paths are the bits of
adj[a] & adj[b] & free.  A length-3 path a-w-x-b is two nested
lowest-bit loops, over the bits w of adj[a] & free and then over the
bits x of adj[w] & adj[b] & free, so the (2,2,3) search opens no
generator per candidate.  A longer path takes its first internal vertex
and recurses for a path one edge shorter, down to those two loops.

The first witness found is the lexicographically least (first, second,
third) triple of the first hub pair that has one.  Swapping two paths of
equal length turns a witness into another, and two disjoint paths are
ordered by their first internal vertex alone, so the least witness has
first[0] < second[0] when r == p and second[0] < third[0] when p == q.
`_theta_between` passes that bound to `_paths` as `after` and so tries
each set of equal-length paths once: on a (2,2,3)-free book or K2,k, one
hub pair with k common neighbours, the `_paths` calls fall from 1 + k**2
to 1 + k + k(k-1)/2, and (2,2,2) tries up to 6x fewer triples.  On the
benchmark's `certify` corpus, whose books and K2,t are (2,2,3)-free,
this took a repetition from 1.38-1.48 s to 0.80-0.86 s (seeds 1-3), and
the flat length-2 and length-3 loops then took it from 0.77-0.90 s to
0.54-0.57 s (seeds 1-10), on a 2-core x86-64 VM, with every witness
unchanged.

The length-2 paths between two hubs are interchangeable, so the search
could count them instead of enumerating them.  That would take a
`certify` repetition from about 0.6 s to well under 0.3 s, and the
benchmark's speed probe cannot yet take a sample inside repetitions that
short (ROADMAP item 1).  Counting waits for that fix, and then changes
`_theta_between` alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, _is_count, bit_indices, vertex_mask


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
    A witness of any other shape, or one that names anything but a vertex
    of g, is rejected, not raised.
    """
    hubs, paths = (w.get("hubs"), w.get("paths")) if isinstance(w, dict) else (None, None)
    seqs = (list, tuple)
    if not (isinstance(hubs, seqs) and len(hubs) == 2 and isinstance(paths, seqs)
            and len(paths) == 3 and all(isinstance(seq, seqs) for seq in paths)):
        return False
    a, b = hubs
    named = [a, b, *(v for seq in paths for v in seq)]
    if a == b or not all(_is_count(v) and 0 <= v < g.n for v in named):
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


def _paths(g, a, b, length, banned_mask, after=-1, head=()):
    # All simple a-b paths of the exact edge length whose internal vertices
    # avoid banned_mask and whose first internal vertex is > after; yields
    # internal-vertex tuples in lexicographic order.  A path longer than 3
    # recurses on its first internal vertex w with head + (w,), and the
    # length-3 loops yield each tuple after head (see the module docstring).
    adj = g.adj
    if length == 1:
        if (adj[a] >> b) & 1:
            yield ()
        return
    free = ~(banned_mask | (1 << a) | (1 << b))
    ends = adj[b] & free  # candidates for the last internal vertex
    firsts = adj[a] & free & (-1 << (after + 1))  # candidates for the first
    if length == 2:
        both = firsts & ends
        while both:
            low = both & -both
            both ^= low
            yield (low.bit_length() - 1,)
        return
    if length > 3:
        for w in bit_indices(firsts):
            yield from _paths(g, w, b, length - 1, banned_mask | (1 << a), -1, (*head, w))
        return
    while firsts:
        low = firsts & -firsts
        firsts ^= low
        w = low.bit_length() - 1
        last = adj[w] & ends  # adj[w] has no bit w
        while last:
            tail = last & -last
            last ^= tail
            yield (*head, w, tail.bit_length() - 1)


def _theta_between(g, spec, a, b):
    # Swapping two paths of equal length turns a witness into another, so
    # the least witness has them in ascending order of first internal
    # vertex, and only that order is tried (see the module docstring).
    same_rp, same_pq = spec.r == spec.p, spec.p == spec.q
    for first in _paths(g, a, b, spec.r, 0):
        m1 = vertex_mask(first)
        for second in _paths(g, a, b, spec.p, m1, first[0] if same_rp else -1):
            m2 = m1 | vertex_mask(second)
            for third in _paths(g, a, b, spec.q, m2, second[0] if same_pq else -1):
                return {"hubs": [a, b],
                        "paths": [[a, *first, b], [a, *second, b], [a, *third, b]]}
    return None


def contains_theta(g: Graph, spec: ThetaSpec) -> dict | None:
    """First theta witness in deterministic order, as a `{"hubs", "paths"}`
    dict, or None.

    Hub pairs are scanned in increasing lexicographic order and paths by
    ascending neighbor id, so repeated runs return the same witness: the
    lexicographically least one, hub pair first, then the r-, p- and
    q-paths by internal vertex ids.  The hubs are the vertices of degree
    >= 3; a graph with fewer vertices or edges than the theta has none to
    test.
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
