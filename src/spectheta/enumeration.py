"""Isomorph-free generation of graphs by edge count, and extremal search
over the classes free of any given theta.

Generation is McKay's canonical augmentation ("Isomorph-free exhaustive
generation", J. Algorithms 26, 1998).  Level-k graphs (k edges, minimum
degree one) grow by one edge: between existing vertices, to one new
vertex, or as a fresh disjoint edge.  The canonical edge of a graph is,
among the edges whose sorted endpoint-degree pair (min, max) is least,
the one in the least slot of the canonical form, so isomorphisms take
canonical edges to canonical edges up to automorphism.  Each parent P is
augmented once per orbit of Aut(P), and a child C = P + e is accepted iff
e lies in the Aut(C)-orbit of the canonical edge of C.  If the tree holds
one representative per class at level k, it then holds one at level k + 1:

- At least one.  Deleting the canonical edge c of a class C, and the
  vertices this isolates, leaves a class whose representative P is in the
  tree.  An isomorphism onto P takes c to an augmentation of P, the
  member of its orbit that P yields gives a child isomorphic to C whose
  added edge is an image of c, and that child is accepted.
- At most one.  Two accepted children C1 = P1 + e1 and C2 = P2 + e2 that
  are isomorphic have an isomorphism psi with psi(e1) = e2, because each
  added edge lies in the orbit of its canonical edge.  psi takes C1 - e1
  onto C2 - e2 and the new vertices (isolated there) onto new vertices,
  so P1 = P2 = P and psi restricted to P is an automorphism of P that
  takes e1 to e2: one orbit, and P yields one member of it.

`_augmentations` yields the member of each orbit first in its loop order.
It first filters the non-edges and pendants by the component limit, the
order limit and the degree pair below, none of which needs a label.  When
two or more pass, P is labelled once, and each that passed is yielded
unless it lies in the orbit of one yielded before it, walked under the
generators of Aut(P) that labelling leaves in the cache
(`canon.automorphism_generators`; `canon` shows that they generate the
whole group).  A parent with one augmentation left is never labelled.

The degree pair decides most acceptances before any label (the
invariant-first test of McKay's paper).  Only the two endpoints of e gain
a degree and a new vertex has degree one, so `_augmentations` reads the
pairs of the child from P's degrees.  An e without the least pair is not
in the orbit of the canonical edge, which has it, and is never built.  An
e that is the only edge with the least pair is the canonical edge, and
its child is accepted with no label.  A candidate often fails the pair
test at an edge of P with P's least pair L: such an edge keeps L in the
child unless an end of e is one of its ends.  So a candidate whose pair
is above L is dropped, before the pair test, unless its ends touch every
edge of P with pair L, which one bitmask per vertex tells.  A candidate
between two vertices that have edges always has a pair above L; an
edgeless P has no L and drops nothing here.

When another edge ties the pair, the root partition R of a connected
child C often decides: the equitable refinement of the one-cell
partition, from which `canon` starts every search (`canon._root_cells`).
Every leaf of that search refines R in place, so the canonical order
lists the cells of R in order, and of two edges, the one whose later end
lies in an earlier cell takes the earlier slot.  Give each edge with the least pair
the value J, the higher index of its ends' cells: the canonical edge has
the least J.  Every automorphism of C maps each cell of R onto itself, so
J is the same across an orbit.  So C is rejected when J(e) is above the
least J, and accepted when e is the only edge with the least pair and
the least J.  Otherwise, and for every disconnected child, whose
canonical order sorts its components instead, the child is labelled by
`canonical_edge`, and the orbit of e under the child's generators
decides.  No sibling is labelled for a duplicate check, and no deletion
is labelled.

Component counts of the children come from the parent's components, so a
child with more components than edges still to add, plus one, is never
built.  A disconnected child that is built is kept only if a connected
node with at most m edges can still lie below it, which a leaf bound
tells.  A join edge, one between two components, joins two vertices of
degree at least one, so its sorted degree pair in the child is at least
(2, 2), and a leaf of the child would carry a pair (1, d) below it: an
accepted join child has no leaf.  Before the first join, each added edge
stays inside a component or starts one.  An edge inside component i
removes at most two of its L_i leaves, a pendant edge removes no more
leaves than it adds, and a fresh edge starts a component with two
leaves.  At the first join only its two ends, in two components, may be
leaves.  So component i takes ceil(L_i / 2) edges before the first join,
or one fewer when L_i is odd and it keeps one leaf for the join, which
at most two components do, and c components take c - 1 joins.  A node
with c >= 2 components needs at least

    sum_i ceil(L_i / 2) - min(#odd L_i, 2) + c - 1

more edges (`_edges_to_connect`).  In a walk with no theta to avoid,
`_children` drops a disconnected child whose bound exceeds the edges
left, before any label.  At m = 10 that walk keeps 3,557 of the 4,226
nodes that c - 1 alone keeps, and every node it loses is disconnected
with no connected descendant.  The bound holds in a theta-pruned walk
too, where it would keep 3,283 of 3,944 nodes, but that walk keeps the
component prune alone for now (see `_children`).  Either way every node
with m edges is connected.

With a theta to avoid, a subtree is pruned at its first node that
contains it, which loses no free class because containment is kept by
adding edges and vertices.  A child is tested with `contains_theta` only
when its added edge joins two vertices of the parent.  Tree nodes have no
isolated vertices, so both ends of such an edge end with degree >= 2.  A
pendant or fresh edge gives its new vertex degree one, so the edge lies on
no cycle and hence on no theta, and the child of a free parent is free.

`_children` is one tree step: it builds each child that `_augmentations`
yields, applies the acceptance test and the theta prune, and yields the
survivors in augmentation order.  `_subtree` walks the tree in preorder
with a stack of `_children` iterators, so the depth of a walk is not
bounded by the interpreter's recursion limit.

`enumerate_by_edges` walks only this tree.  A graph with no isolated
vertices is fixed up to isomorphism by the multiset of the classes of its
components: an isomorphism maps components onto isomorphic components, and
isomorphisms between matched components combine into one between the
unions.  So the disconnected classes with m edges are exactly the
multisets of at least two connected classes whose edge counts add up to m,
and each is yielded once, as the disjoint union of the tree's
representatives, after the connected ones.  The tree with edge limit m
holds every connected class with fewer edges as well: a deletion raises
the component count by at most one, so the ancestor with j edges of a
connected class with k <= m edges has at most k - j + 1 <= m - j + 1
components, and its leaf bound is at most k - j <= m - j, so neither
prune cuts it.  With a theta to avoid, the
composition needs nothing more: a theta is connected, so it lies inside
one component, and a union is free iff each of its components is.

The same tree enumerates by order: walked with an order limit of n and the
edge limit n(n - 1)/2 of the complete graph, where the component prune
cuts nothing, every node is a class on at most n vertices without isolated
vertices, and padding it with isolated vertices up to n gives each class
on exactly n vertices once, after the edgeless one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canon import (_root_cells, automorphism_generators, canonical_form, canonical_label,
                    canonical_order)
from .graph6 import to_graph6
from .graphs import MAX_N, Graph, _is_count, complete
from .spectral import COMPARISON_TOL, spectral_radius
from .theta import ThetaSpec, contains_theta

DEFAULT_EDGE_BUDGET = 12
ORDER_BUDGET = 8
_TOP = 6  # the best class and five runner-ups


class BudgetError(Exception):
    """Requested enumeration exceeds the configured guard."""


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


def _orbit(a: int, b: int, gens) -> set:
    # The orbit of the vertex pair {a, b}, as sorted pairs, under the group
    # that gens generate; a vertex past the permutations (a new one) is fixed.
    seen = {(a, b)}
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        for perm in gens:
            x = perm[a]
            y = perm[b] if b < len(perm) else b
            pair = (x, y) if x < y else (y, x)
            if pair not in seen:
                seen.add(pair)
                stack.append(pair)
    return seen


def _root_verdict(g: Graph, a: int, b: int):
    # Whether the connected child g, whose added edge (a, b) carries the least
    # degree pair, is accepted, or None if its root partition cannot tell.
    # The value J of an edge is the higher index of its ends' root cells.
    cell = [0] * g.n
    for i, members in enumerate(_root_cells(g.adj)):
        for v in members:
            cell[v] = i
    deg = [row.bit_count() for row in g.adj]
    pair = (deg[a], deg[b]) if deg[a] <= deg[b] else (deg[b], deg[a])
    least = ties = None
    for u, v in g.edges():
        if (deg[u], deg[v]) == pair or (deg[v], deg[u]) == pair:
            j = max(cell[u], cell[v])
            if least is None or j < least:
                least, ties = j, 1
            elif j == least:
                ties += 1
    if max(cell[a], cell[b]) > least:
        return False
    return True if ties == 1 else None


def _augmentations(g: Graph, max_components: int, max_order: int):
    """One augmentation of g per Aut(g)-orbit worth building.

    Yields (a, b, sole, components): the added edge (a, b), with b the
    largest vertex of the child, whether the added edge is the only edge of
    the child with its degree pair, and the child's component count.  An
    orbit is kept only if the child has at most max_components components
    and max_order vertices and the added edge carries the least sorted
    degree pair of the child; all three are the same across an orbit.  Of each kept orbit, only the member first in
    the full augmentation loop is yielded (non-edges by (u, v), pendants
    by u, then the fresh disjoint edge), in that order.

    The non-edges and pendants are filtered first, with no label.  If two
    or more pass, g is labelled once, and each is dropped if it lies in
    the orbit of one yielded before it, under generators of Aut(g).  An
    orbit is walked only when a later augmentation passed, so a parent
    with one augmentation left is never labelled.

    Only a and b gain one degree, and a new vertex has degree one, so an
    edge of g can undercut or tie the added edge only if its pair in g
    already is at most the added edge's; the edges are sorted by pair once
    and scanned up to that point, after the cover prefilter of the module
    docstring has dropped what it can.
    """
    n = g.n
    adj = g.adj
    masks = g._component_masks()
    c = len(masks)
    comp = [0] * n
    for mask in masks:
        rest = mask
        while rest:
            low = rest & -rest
            comp[low.bit_length() - 1] = mask
            rest ^= low
    deg = [row.bit_count() for row in adj]
    edges = []
    for u, row in enumerate(adj):
        du = deg[u]
        rest = row >> (u + 1) << (u + 1)
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            edges.append(((du, deg[v]) if du <= deg[v] else (deg[v], du), u, v))
    edges.sort()

    def pair_test(a, b):
        # None if an edge of the child undercuts the pair of (a, b), else
        # whether no other edge ties it.
        da = deg[a] + 1 if a < n else 1
        db = deg[b] + 1 if b < n else 1
        pair = (da, db) if da <= db else (db, da)
        sole = True
        for old, u, v in edges:
            if old > pair:
                break
            du = deg[u] + (u == a or u == b)
            dv = deg[v] + (v == a or v == b)
            new = (du, dv) if du <= dv else (dv, du)
            if new < pair:
                return None
            if new == pair:
                sole = False
        return sole

    # An edge of g with the least pair L keeps L in the child unless a or b is
    # one of its ends, so a candidate whose pair is above L passes only if its
    # ends touch all of them.  cover[v] has one bit per such edge at v, and the
    # new vertex n touches none.  No vertex with an edge has a degree below
    # L[0], so a non-edge between two such vertices has a pair above L.
    cover = [0] * (n + 1)
    full = 0
    if edges:
        least = edges[0][0]
        for i, (old, u, v) in enumerate(edges):
            if old != least:
                break
            cover[u] |= 1 << i
            cover[v] |= 1 << i
            full |= 1 << i

    passed = []
    for u in range(n):
        left = full & ~cover[u]
        rest = ((1 << n) - (2 << u)) & ~adj[u]
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            k = c if comp[u] & low else c - 1
            if k <= max_components:
                if left & ~cover[v] and deg[u] and deg[v]:
                    continue
                sole = pair_test(u, v)
                if sole is not None:
                    passed.append((u, v, sole, k))
    if n + 1 <= max_order and c <= max_components:
        for u in range(n):
            if full & ~cover[u] and (1, deg[u] + 1) > least:
                continue
            sole = pair_test(u, n)
            if sole is not None:
                passed.append((u, n, sole, c))
    if len(passed) > 1:
        # automorphism_generators would label g itself.  Labelling it here
        # first puts that work under the `canon.label` span that
        # perfbench/tracing.py hooks on canonical_label.
        canonical_label(g)
        gens = automorphism_generators(g)
    claimed = set()
    for i, (a, b, sole, k) in enumerate(passed):
        if (a, b) not in claimed:
            yield a, b, sole, k
            if i + 1 < len(passed):
                claimed |= _orbit(a, b, gens)
    # The fresh edge is an orbit of its own, and no edge undercuts its pair (1, 1).
    if n + 2 <= max_order and c + 1 <= max_components:
        yield n, n + 1, pair_test(n, n + 1), c + 1


def _edges_to_connect(g: Graph) -> int:
    # The fewest edges a walk from g adds before it reaches a connected node:
    # sum ceil(L_i / 2) - min(#odd L_i, 2) + c - 1 over the leaf counts L_i of
    # its c components (the leaf bound of the module docstring).  Tree nodes
    # have no isolated vertices, so a one-bit row is a leaf.
    leaves = 0
    for v, row in enumerate(g.adj):
        if not row & (row - 1):
            leaves |= 1 << v
    masks = g._component_masks()
    need = len(masks) - 1
    odd = 0
    for mask in masks:
        k = (mask & leaves).bit_count()
        need += (k + 1) >> 1
        odd += k & 1
    return need - min(odd, 2)


def _children(g: Graph, m: int, prune_spec, max_order: int):
    # The accepted children of g in augmentation order, in a walk down to m
    # edges.  With no theta to avoid, a disconnected child is dropped, before
    # any label, when the edges still to add cannot join its components.  A
    # theta-pruned walk does not take the leaf bound yet: it would make a
    # `search` benchmark repetition at m=10 shorter than the interval at which
    # perfbench's speed probe samples, which fails the run (ROADMAP item 1).
    for a, b, sole, components in _augmentations(g, m - g.m, max_order):
        rows = list(g.adj) + [0] * (b + 1 - g.n)
        rows[a] |= 1 << b
        rows[b] |= 1 << a
        child = Graph._from_rows(rows)
        if (components > 1 and prune_spec is None
                and _edges_to_connect(child) > m - child.m):
            continue
        # An added edge alone with the least pair is the canonical edge.
        # Otherwise the root partition of a connected child may decide, and
        # if it does not, the child is labelled and kept iff an automorphism
        # of the child takes its canonical edge to the added edge.
        if not sole:
            accept = _root_verdict(child, a, b) if components == 1 else None
            if accept is None:
                edge = canonical_edge(child)
                accept = edge == (a, b) or edge in _orbit(a, b, automorphism_generators(child))
            if not accept:
                continue
        # g is theta-free (or it would have been pruned), and an added edge
        # with a new end lies on no cycle.
        if prune_spec is not None and b < g.n and contains_theta(child, prune_spec) is not None:
            continue
        yield child


def _subtree(g: Graph, m: int, prune_spec, max_order: int):
    # Every node, depth first in preorder, down to m edges.  The stack holds
    # one iterator of children per level, so the walk does not recurse.
    stack = [iter((g,))]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
            continue
        yield node
        if node.m < m:
            stack.append(_children(node, m, prune_spec, max_order))


def _multisets(total: int, largest, counts):
    # Every multiset of (size, index) pairs whose sizes add up to total, each
    # written once as a non-increasing tuple whose first pair is at most
    # largest; counts[k] is the number of indices of size k.
    if total == 0:
        yield ()
        return
    size, index = largest
    for k in range(min(size, total), 0, -1):
        for i in range(index + 1 if k == size else counts[k]):
            for rest in _multisets(total - k, (k, i), counts):
                yield ((k, i),) + rest


def _stream(m: int, connected_only: bool, prune_spec):
    # The classes with exactly m edges: the connected ones in tree order, then
    # unless connected_only the disjoint unions of smaller connected ones.
    smaller = [[] for _ in range(m)]
    for g in _subtree(complete(2), m, prune_spec, MAX_N):
        if g.m == m:
            yield g
        elif not connected_only and g.is_connected():
            smaller[g.m].append(g)
    if connected_only:
        return
    counts = [len(graphs) for graphs in smaller]
    # Parts of at most m - 1 edges make at least two components.
    for parts in _multisets(m, (m - 1, counts[m - 1] - 1), counts):
        rows = []
        for k, i in parts:
            shift = len(rows)
            rows += [row << shift for row in smaller[k][i].adj]
        yield Graph._from_rows(rows)


def _check_edge_budget(m: int, budget: int):
    if not _is_count(m) or m < 1:
        raise ValueError(f"edge count must be a positive integer, got {m!r}")
    if m > budget:
        raise BudgetError(
            f"edge count {m} exceeds the enumeration budget {budget}; "
            f"raise the budget explicitly to go further"
        )
    if m > MAX_N * (MAX_N - 1) // 2:
        raise ValueError(f"edge count {m} exceeds {MAX_N * (MAX_N - 1) // 2}, "
                         f"the most a graph on at most {MAX_N} vertices has")


def enumerate_by_edges(m: int, connected_only: bool = False, *,
                       free: ThetaSpec | None = None,
                       budget: int = DEFAULT_EDGE_BUDGET):
    """One representative per isomorphism class with m edges and no isolated vertices.

    The order n of the yielded graphs floats over every feasible value
    (2..2m).  The connected classes come first, in the order of the
    generation tree, and they are all that is yielded with connected_only.
    Then come the disconnected ones, each the disjoint union of one
    multiset of smaller connected classes, components by non-increasing
    edge count.  With free, only classes free of that theta are yielded;
    subtrees rooted at a graph containing it are pruned, which loses no
    free class because containment is kept by adding edges and vertices.
    """
    _check_edge_budget(m, budget)
    return _stream(m, connected_only, free)


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

    The leaf bound of the walk (see the module docstring), and so its
    component prune, cuts nothing either.  Take a node with k edges and c
    >= 2 components of n_1, ..., n_c >= 2 vertices, N = sum n_i <= n in
    all.  Its bound is at most sum (n_i - 1) + c - 1 = N - 1, as a
    component has at most n_i leaves and ceil(n_i / 2) <= n_i - 1.  No pair
    of vertices in two components is an edge, and there are
    sum_{i<j} n_i n_j = sum_i n_i (N - n_i) / 2 >= N of them, as each
    N - n_i >= 2.  So the edges left, n(n - 1)/2 - k, number at least N.
    """
    if not _is_count(n) or n < 1:
        raise ValueError(f"order must be a positive integer, got {n!r}")
    if n > ORDER_BUDGET:
        raise BudgetError(f"order {n} exceeds the enumeration budget {ORDER_BUDGET}")
    yield Graph(n)
    if n < 2:
        return
    for g in _subtree(complete(2), n * (n - 1) // 2, None, n):
        yield Graph._from_rows(g.adj + (0,) * (n - g.n))


def _lambda_square_bound(g: Graph) -> int:
    # The largest row sum of A^2, max_v sum_{u ~ v} d_u, which is at least
    # lambda^2: lambda^2 is the spectral radius of A^2, and that is at most
    # its largest row sum.
    deg = [row.bit_count() for row in g.adj]
    best = 0
    for row in g.adj:
        total = 0
        while row:
            low = row & -row
            total += deg[low.bit_length() - 1]
            row ^= low
        best = max(best, total)
    return best


def _rank(a, b):
    # Larger lambda first; ties within tolerance break toward the least
    # certificate, which begins with the order, so the smaller order wins.
    if a[0] > b[0] + COMPARISON_TOL:
        return -1
    if b[0] > a[0] + COMPARISON_TOL:
        return 1
    if a[1] != b[1]:
        return -1 if a[1] < b[1] else 1
    return 0


@dataclass
class ExtremalRecord:
    """Argmax of the spectral radius over the theta-free classes with m edges.

    best_graph6 is the graph6 of the canonical form of the argmax class, and
    each runner-up is a (graph6, lambda) pair of the same kind.
    """

    m: int
    spec: ThetaSpec
    best_graph6: str
    best_lambda: float
    num_candidates: int
    runner_ups: tuple[tuple[str, float], ...]

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

    Only a top six is held, in `_rank` order: each solved class goes in
    before the first held entry it ranks ahead of, and the seventh is cut.
    Every class counts in num_candidates, but once six are held a class g
    is skipped, with no label, no canonical form and no eigensolve, when

        B(g) = max_v sum_{u ~ v} d_u  <  (lam_min - 2 * COMPARISON_TOL)^2,

    where lam_min is the least lambda held.  B(g) is the largest row sum
    of A^2, which bounds its spectral radius lambda^2, and it is the same
    for every member of the class.  A skipped class cannot change the top
    six.  Its lambda as computed is within the solver's error, orders of
    magnitude below COMPARISON_TOL, of the exact value, and that is at
    most sqrt(B(g)) < lam_min - 2 * COMPARISON_TOL.  So every held lambda
    exceeds it by more than COMPARISON_TOL, `_rank` puts every held entry
    ahead of it by the lambda clause alone, and it would go in seventh
    and be cut: the held list, and so every later step, is the same as if
    it had been solved.  This uses only the comparisons of g with the held
    entries, not transitivity, which `_rank` lacks: its tolerance can chain
    lambdas each within 1e-9 of the next.  The six held are the first six
    of the full `_rank` order whenever that order is total on the
    candidates, as it is when lambdas within the tolerance of each other
    are equal up to rounding.
    """
    _check_edge_budget(m, budget)
    top = []
    skip_below = None
    count = 0
    for g in _stream(m, True, spec):
        count += 1
        if skip_below is not None and _lambda_square_bound(g) < skip_below:
            continue
        # The canonical form, not the tree's representative, so that the
        # record depends on the class set alone.
        h = canonical_form(g)
        entry = (spectral_radius(h).lam, canonical_label(g), h)
        i = 0
        while i < len(top) and _rank(entry, top[i]) >= 0:
            i += 1
        if i < _TOP:
            top.insert(i, entry)
            del top[_TOP:]
            if len(top) == _TOP:
                skip_below = (min(e[0] for e in top) - 2 * COMPARISON_TOL) ** 2
    if not top:
        raise RuntimeError(f"no {spec}-free class with {m} edges; this cannot happen for m >= 1")
    (best_graph6, best_lambda), *runner_ups = [(to_graph6(h), lam) for lam, _, h in top]
    return ExtremalRecord(m=m, spec=spec, best_graph6=best_graph6, best_lambda=best_lambda,
                          num_candidates=count, runner_ups=tuple(runner_ups))
