"""Isomorph-free generation of graphs by edge count, and extremal search.

Generation uses canonical augmentation: level-k graphs (k edges, minimum
degree one) grow by one edge, either between existing vertices, to one new
vertex, or as a fresh disjoint edge.  The canonical edge of a graph is,
among the edges whose sorted endpoint-degree pair (min, max) is least, the
one in the least slot of the canonical form.  A child survives only when
deleting its canonical edge (dropping vertices this isolates) regenerates
the parent it came from, which makes every isomorphism class reachable
from exactly one parent class; children of a single parent are
deduplicated by certificate because equivalent augmentations of one parent
pass the same test.  A child whose canonical edge is the added edge is
accepted without a deletion label, because deleting that edge drops
exactly the new pendant or fresh-edge vertices and gives back the parent
row for row.  Memory stays bounded by one parent's child list per level.

The degree pair is checked before the child is built (McKay, "Isomorph-
free exhaustive generation", J. Algorithms 26, 1998): `_augmentations`
yields an added edge only if it carries the least pair of the child,
computed from the parent's degrees, because only the two endpoints gain
one.  This drops only children the deletion test would reject.  The added
edge (a, b) gives child - (a, b) = parent, and if child - c is isomorphic
to the parent for the canonical edge c, the two deletions leave equal
degree sequences, which forces pair(a, b) = pair(c).  Nor is a class lost:
if C - c is isomorphic to a kept parent P, the image of c is an
augmentation of P with the least pair, which the twin-reduced set below
reaches up to an automorphism of P, and that child passes the pair test
and the deletion test.

Each parent is augmented once per twin class (vertices with equal open or
closed neighborhoods): swapping two twins is an automorphism of the parent,
so a child whose endpoints are not the least members of their classes is
isomorphic to an earlier child that is, and no class is lost.  Component
counts of the children come from the parent's components, so a child that
the connected-only prune drops is never built either.

The same tree enumerates by order: walked with an order limit of n and no
edge limit short of the complete graph, every node is a class on at most n
vertices without isolated vertices, and padding it with isolated vertices
up to n gives each class on exactly n vertices once, after the edgeless one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cmp_to_key

from .canon import canonical_form, canonical_label, canonical_order, twin_classes
from .graph6 import to_graph6
from .graphs import MAX_N, Graph, bit_indices, complete
from .spectral import COMPARISON_TOL, bound_value, spectral_radius
from .theta import ThetaSpec, contains_theta

DEFAULT_EDGE_BUDGET = 12
ORDER_BUDGET = 8


class BudgetError(Exception):
    """Requested enumeration exceeds the configured guard."""


def _delete_with_cleanup(g: Graph, u: int, v: int) -> Graph:
    h = g.without_edge(u, v)
    keep = [w for w in range(h.n) if h.adj[w]]
    if len(keep) == h.n:
        return h
    return h.induced(keep)


def canonical_edge(g: Graph):
    """The canonical edge, in original ids: least degree pair, then least slot.

    Among the edges whose sorted endpoint-degree pair (min, max) is
    lexicographically least, returns the one occupying the least slot of
    the canonical form.  Both choices are isomorphism invariant, so the
    edge is unique per class up to automorphism.  Because the pair is
    read off the degrees alone, `_augmentations` can tell that an added
    edge is not canonical before the child is built.  Returns None on
    edgeless graphs.
    """
    if g.m == 0:
        return None
    adj = g.adj
    deg = [row.bit_count() for row in adj]

    def pair(u, v):
        return (deg[u], deg[v]) if deg[u] <= deg[v] else (deg[v], deg[u])

    least = min(pair(u, v) for u, v in g.edges())
    order = canonical_order(g)
    for j in range(1, g.n):
        v = order[j]
        for i in range(j):
            u = order[i]
            if (adj[v] >> u) & 1 and pair(u, v) == least:
                return (u, v) if u < v else (v, u)


def _augmentations(g: Graph, max_components: int, max_order: int):
    """The augmentations of g worth labelling, as (a, b, component count).

    Yields the added edge (a, b), with b the largest vertex of the child,
    in the order of the full augmentation loop: non-edges by (u, v),
    pendants by u, then the fresh disjoint edge.  An edge is kept only if
    each endpoint is the least member of its twin class (or the second
    least when both share a class), the child has at most max_components
    components and max_order vertices, and the added edge carries the
    least sorted degree pair of the child.  A skipped twin child is the
    image of an earlier kept child under a swap of twins, so every
    certificate that passes the pair test keeps its first child.

    Only a and b gain one degree, and a new vertex has degree one, so an
    edge of g can undercut the added edge only if its pair in g already
    does; the edges are sorted by pair once and scanned up to that point.
    """
    n = g.n
    adj = g.adj
    lead = 0
    second = {}
    for cls in twin_classes(adj, range(n)):
        lead |= 1 << cls[0]
        if len(cls) > 1:
            second[cls[0]] = 1 << cls[1]
    masks = g._component_masks()
    c = len(masks)
    comp = [0] * n
    for mask in masks:
        for v in bit_indices(mask):
            comp[v] = mask
    deg = [row.bit_count() for row in adj]
    edges = sorted(((min(deg[u], deg[v]), max(deg[u], deg[v])), u, v) for u, v in g.edges())

    def least(a, b):
        da = deg[a] + 1 if a < n else 1
        db = deg[b] + 1 if b < n else 1
        pair = (da, db) if da <= db else (db, da)
        for old, u, v in edges:
            if old >= pair:
                break
            du = deg[u] + (u == a or u == b)
            dv = deg[v] + (v == a or v == b)
            if ((du, dv) if du <= dv else (dv, du)) < pair:
                return False
        return True

    for u in bit_indices(lead):
        later = (lead | second.get(u, 0)) & ~adj[u] & ~((2 << u) - 1)
        for v in bit_indices(later):
            count = c if (comp[u] >> v) & 1 else c - 1
            if count <= max_components and least(u, v):
                yield u, v, count
    if n + 1 <= max_order and c <= max_components:
        for u in bit_indices(lead):
            if least(u, n):
                yield u, n, c
    # The fresh edge has the pair (1, 1), which no edge undercuts.
    if n + 2 <= max_order and c + 1 <= max_components:
        yield n, n + 1, c + 1


def _subtree(g: Graph, cert: bytes, components: int, m: int,
             connected_only: bool, prune_spec, max_order: int):
    # Every node, depth first, down to m edges: (graph, certificate, components).
    yield g, cert, components
    level = g.m
    if level == m:
        return
    # Each edge still to add merges at most two components.
    max_components = m - level if connected_only else MAX_N
    seen = set()
    for a, b, child_components in _augmentations(g, max_components, max_order):
        rows = list(g.adj) + [0] * (b + 1 - g.n)
        rows[a] |= 1 << b
        rows[b] |= 1 << a
        child = Graph._from_rows(rows)
        ccert = canonical_label(child).data
        if ccert in seen:
            continue
        seen.add(ccert)
        # Deleting the added edge itself gives back g row for row, whose
        # certificate is cert.
        u, v = canonical_edge(child)
        if (u, v) != (a, b) and canonical_label(_delete_with_cleanup(child, u, v)).data != cert:
            continue
        # Containment is the same for every member of a class, so the theta
        # check runs last, once per accepted class instead of once per child.
        if prune_spec is not None and contains_theta(child, prune_spec) is not None:
            continue
        yield from _subtree(child, ccert, child_components, m, connected_only, prune_spec,
                            max_order)


def _walk(m: int, connected_only: bool, prune_spec, max_order: int):
    root = complete(2)
    return _subtree(root, canonical_label(root).data, 1, m, connected_only, prune_spec,
                    max_order)


def _stream(m: int, connected_only: bool, prune_spec):
    # The classes with exactly m edges, connected ones only when asked.
    for g, cert, components in _walk(m, connected_only, prune_spec, MAX_N):
        if g.m == m and (not connected_only or components == 1):
            yield g, cert


def _check_edge_budget(m: int, budget: int):
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"edge count must be a positive integer, got {m!r}")
    if m > budget:
        raise BudgetError(
            f"edge count {m} exceeds the enumeration budget {budget}; "
            f"raise the budget explicitly to go further"
        )


def enumerate_by_edges(m: int, connected_only: bool = False, *,
                       free: ThetaSpec | None = None,
                       budget: int = DEFAULT_EDGE_BUDGET):
    """One representative per isomorphism class with m edges and no isolated vertices.

    The order n of the yielded graphs floats over every feasible value
    (2..2m).  With connected_only, only connected classes are yielded.
    With free, only classes free of that theta are yielded; subtrees rooted
    at a graph containing it are pruned, which loses no free class because
    containment is kept by adding edges and vertices.
    """
    _check_edge_budget(m, budget)
    return (g for g, _ in _stream(m, connected_only, free))


def enumerate_by_order(n: int):
    """One representative per isomorphism class on exactly n vertices.

    Isolated vertices are allowed here; this enumerator exists to
    cross-check detectors and counts on complete small-order corpora.  The
    edgeless graph comes first.  The rest is the edge tree walked with an
    order limit of n, each node padded with isolated vertices up to n.  No
    class is lost: a graph on n vertices is a graph with no isolated
    vertices on at most n vertices plus isolated vertices, and canonical
    deletion never raises the order, so the limit prunes no ancestor of a
    kept class.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"order must be a positive integer, got {n!r}")
    if n > ORDER_BUDGET:
        raise BudgetError(f"order {n} exceeds the enumeration budget {ORDER_BUDGET}")
    yield Graph(n)
    if n < 2:
        return
    for g, _, _ in _walk(n * (n - 1) // 2, False, None, n):
        yield Graph._from_rows(g.adj + (0,) * (n - g.n))


def count_connected_by_order(n: int) -> int:
    """Number of connected isomorphism classes on n vertices."""
    return sum(1 for g in enumerate_by_order(n) if g.is_connected())


def _rank(a, b):
    # Larger lambda first; ties within tolerance break toward smaller order,
    # then lexicographically least certificate.
    if a[0] > b[0] + COMPARISON_TOL:
        return -1
    if b[0] > a[0] + COMPARISON_TOL:
        return 1
    if a[1] != b[1]:
        return -1 if a[1] < b[1] else 1
    if a[2] != b[2]:
        return -1 if a[2] < b[2] else 1
    return 0


@dataclass
class ExtremalRecord:
    """Argmax of the spectral radius over the theta-free classes with m edges.

    best_graph is the canonical form of the argmax class.
    """

    m: int
    spec: ThetaSpec
    best_graph: Graph
    best_lambda: float
    num_candidates: int
    runner_ups: tuple[tuple[str, float], ...]

    @property
    def best_graph6(self) -> str:
        return to_graph6(self.best_graph)

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "spec": [self.spec.r, self.spec.p, self.spec.q],
            "best_graph6": self.best_graph6,
            "best_lambda": self.best_lambda,
            "num_candidates": self.num_candidates,
            "runner_ups": [
                {"graph6": g6, "lambda": lam} for g6, lam in self.runner_ups
            ],
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), indent=2)


def extremal_search(m: int, spec: ThetaSpec, *,
                    budget: int = DEFAULT_EDGE_BUDGET) -> ExtremalRecord:
    """Maximize the spectral radius over connected spec-free classes with m edges.

    The argmax over all spec-free classes is always connected, so only
    connected classes are searched.  Given a disconnected candidate, put
    the edges outside its best component back as pendant leaves on that
    component: the result is connected with m edges, a degree-1 vertex
    lies on no theta so it stays spec-free, and each added edge strictly
    raises the spectral radius of a connected graph.

    Subtrees of the generation tree rooted at a graph already containing
    the theta are pruned: containment is monotone under adding edges and
    vertices, so no spec-free descendant is lost.
    """
    _check_edge_budget(m, budget)
    entries = []
    for g, cert in _stream(m, True, spec):
        # The canonical form, not the tree's representative, so that the
        # record depends on the class set alone.
        h = canonical_form(g)
        entries.append((spectral_radius(h).lam, h.n, cert, h))
    if not entries:
        raise RuntimeError(f"no {spec}-free class with {m} edges; this cannot happen for m >= 1")
    entries.sort(key=cmp_to_key(_rank))
    best = entries[0]
    runner_ups = tuple((to_graph6(e[3]), e[0]) for e in entries[1:6])
    return ExtremalRecord(
        m=m,
        spec=spec,
        best_graph=best[3],
        best_lambda=best[0],
        num_candidates=len(entries),
        runner_ups=runner_ups,
    )


def extremal_table(m_list, spec: ThetaSpec, *,
                   budget: int = DEFAULT_EDGE_BUDGET) -> list[dict]:
    """Rows comparing the searched maximum against the closed-form bound.

    m_list is a sequence of edge counts; every one is checked against the
    budget before the first search, and the check stops at the first m
    that fails, so a huge range costs nothing.  The gap may be negative
    for small m; the closed form is only claimed from a much larger size
    onward, so small-m rows are empirical data.
    """
    for m in m_list:
        _check_edge_budget(m, budget)
    rows = []
    for m in m_list:
        rec = extremal_search(m, spec, budget=budget)
        bound = bound_value(m)
        rows.append(
            {
                "m": m,
                "best_lambda": rec.best_lambda,
                "bound": bound,
                "gap": bound - rec.best_lambda,
                "best_graph6": rec.best_graph6,
            }
        )
    return rows
