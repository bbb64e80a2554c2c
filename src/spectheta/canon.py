"""Canonical labeling by equitable refinement plus individualization search.

Each connected component is labeled on its own: the search explores all
vertex orderings compatible with the refined partition, keeps the
lexicographically least upper-triangle bit string, prunes branches whose
fixed prefix already exceeds the best string, and individualizes only one
representative per twin class (vertices with identical open or closed
neighborhoods are swapped by an automorphism, so the skipped branches
cannot improve the minimum).  The whole-graph certificate concatenates the
component certificates in sorted order, which makes disjoint unions of
many small components cheap instead of catastrophically symmetric.

The search also finds the automorphism group G of the component.  Two
leaves with the same bit string differ by an automorphism, so each
visited leaf that ties the final least string gives one, kept as a
permutation of canonical positions.  These ties and the twin swaps
generate G.  Refinement commutes with automorphisms, so G acts on the
leaves of the unpruned tree, and the leaves with the least string are
exactly the G-orbit of the best one, each reached by one element of G.
The bound prune never cuts an ancestor of such a leaf, whose prefix is at
most the best string's prefix.  The twin prune skips a branch x of a node
only for an earlier twin x0 in the same cell; swapping x0 and x fixes the
node's individualized vertices and so maps the skipped subtree onto the
visited one.  Up the tree by induction, every least leaf is the image of
a visited least leaf under a product of twin swaps, and every visited
least leaf is the image of the best leaf under a tie.  So the generated
group takes the best leaf to every least leaf, and is G.
`automorphism_generators` lifts the ties to original ids, adds a swap of
each two consecutive components with equal certificates, and rebuilds
the twin swaps from `twin_classes` instead of storing them.

Two bounded caches keep the generation tree from labelling twice what it
has labelled once.  `_canonical_pieces` is keyed on the whole `Graph` (its
vertex count and adjacency rows).  `_component_canonical` is keyed on one
component's local adjacency rows and its order k, so a child that keeps a
component of its parent row for row reuses that component's search.  Both
outputs, ties included, are pure functions of their keys, so neither cache
can change a certificate, an order or a generator.  The ties of a
component with no tied leaf are one shared empty tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graphs import Graph, bit_indices


@dataclass(frozen=True)
class CanonicalLabel:
    """Isomorphism-class certificate: equal data iff isomorphic graphs."""

    data: bytes


def _refine(adj, cells, work):
    # cells: ordered list of vertex lists; work: stack of splitter masks.
    # Fragments are ordered by neighbor count toward the splitter, which is
    # label-independent, so the final cell order is an isomorphism invariant.
    while work:
        smask = work.pop()
        out = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            buckets = {}
            for v in cell:
                buckets.setdefault((adj[v] & smask).bit_count(), []).append(v)
            if len(buckets) == 1:
                out.append(cell)
            else:
                for key in sorted(buckets):
                    frag = buckets[key]
                    out.append(frag)
                    fmask = 0
                    for v in frag:
                        fmask |= 1 << v
                    work.append(fmask)
        cells = out
    return cells


def twin_classes(adj, vertices) -> list[list[int]]:
    """Partition vertices into twin classes, members and classes in input order.

    Twins have equal open neighborhoods (non-adjacent) or equal closed
    neighborhoods (adjacent); swapping two twins is an automorphism.  A
    vertex cannot have twins of both kinds, so this is an equivalence.
    """
    classes = []
    for v in vertices:
        for cls in classes:
            u = cls[0]
            if adj[u] == adj[v] or (adj[u] ^ adj[v]) == ((1 << u) | (1 << v)):
                cls.append(v)
                break
        else:
            classes.append([v])
    return classes


@lru_cache(maxsize=65536)
def _component_canonical(adj: tuple[int, ...], k: int):
    """Least adjacency bit string over refinement-compatible orderings.

    adj holds the k local rows of one connected component.  Returns
    (bits, order, ties): bits is the upper triangle packed column-major
    into an int of k*(k-1)/2 bits, order maps canonical positions to local
    vertex ids, and ties holds one automorphism per other visited leaf
    that met the least string, as a permutation of canonical positions
    (the vertex at position i goes to position tie[i]).
    """
    total_bits = k * (k - 1) // 2
    best_bits = None
    best_order = None
    tied = []

    def descend(cells):
        nonlocal best_bits, best_order
        order = []
        for cell in cells:
            if len(cell) != 1:
                break
            order.append(cell[0])
        val = 0
        nbits = 0
        for j in range(1, len(order)):
            aj = adj[order[j]]
            col = 0
            for i in range(j):
                col = (col << 1) | ((aj >> order[i]) & 1)
            val = (val << j) | col
            nbits += j
        if best_bits is not None and nbits and val > (best_bits >> (total_bits - nbits)):
            return
        if len(order) == k:
            if best_bits is None or val < best_bits:
                best_bits = val
                best_order = tuple(order)
                tied.clear()
            elif val == best_bits:
                tied.append(order)
            return
        target = cells[len(order)]
        for cls in twin_classes(adj, target):
            v = cls[0]
            rest = [w for w in target if w != v]
            branch = cells[: len(order)] + [[v], rest] + cells[len(order) + 1:]
            descend(_refine(adj, branch, [1 << v]))

    descend(_refine(adj, [list(range(k))], [(1 << k) - 1]))
    if not tied:
        return best_bits, best_order, ()
    pos = [0] * k
    for i, v in enumerate(best_order):
        pos[v] = i
    return best_bits, best_order, tuple(tuple(pos[v] for v in leaf) for leaf in tied)


@lru_cache(maxsize=65536)
def _canonical_pieces(g: Graph):
    """Per-component (certificate, canonical original-vertex order, ties), sorted."""
    pieces = []
    for comp in g.components():
        k = len(comp)
        if k == g.n:
            # One component spans the graph, so its local rows are g's own.
            bits, order, ties = _component_canonical(g.adj, k)
        else:
            pos = {v: i for i, v in enumerate(comp)}
            local = [0] * k
            for i, v in enumerate(comp):
                row = 0
                for w in bit_indices(g.adj[v]):
                    row |= 1 << pos[w]
                local[i] = row
            bits, local_order, ties = _component_canonical(tuple(local), k)
            order = tuple(comp[i] for i in local_order)
        nbytes = (k * (k - 1) // 2 + 7) // 8
        cert = k.to_bytes(2, "big") + bits.to_bytes(nbytes, "big")
        pieces.append((cert, order, ties))
    pieces.sort(key=lambda piece: piece[0])
    return tuple(pieces)


def canonical_label(g: Graph) -> CanonicalLabel:
    data = g.n.to_bytes(2, "big") + b"".join(piece[0] for piece in _canonical_pieces(g))
    return CanonicalLabel(data)


def canonical_order(g: Graph) -> tuple[int, ...]:
    """Original vertex ids listed by canonical position."""
    order = []
    for _, comp_order, _ in _canonical_pieces(g):
        order.extend(comp_order)
    return tuple(order)


def canonical_form(g: Graph) -> Graph:
    """The canonically labeled copy; identical for all relabelings of g."""
    order = canonical_order(g)
    pos = {v: i for i, v in enumerate(order)}
    rows = [0] * g.n
    for v in range(g.n):
        row = 0
        for w in bit_indices(g.adj[v]):
            row |= 1 << pos[w]
        rows[pos[v]] = row
    return Graph._from_rows(rows)


def automorphism_generators(g: Graph) -> list[tuple[int, ...]]:
    """Generators of the automorphism group of g, each as the images of 0..n-1.

    They are the tied leaves of each component's search, lifted through
    its canonical order, a swap of each two consecutive components with
    equal certificates, and the transpositions of each twin class with its
    least member.  Ties are read from the cache that `canonical_label`,
    `canonical_order` and so `canonical_edge` fill, so after one of those
    on g this takes no labelling.
    """
    n = g.n
    gens = []
    previous = None
    for cert, order, ties in _canonical_pieces(g):
        for tie in ties:
            perm = list(range(n))
            for i, j in enumerate(tie):
                perm[order[i]] = order[j]
            gens.append(tuple(perm))
        if previous is not None and previous[0] == cert:
            perm = list(range(n))
            for u, v in zip(previous[1], order):
                perm[u] = v
                perm[v] = u
            gens.append(tuple(perm))
        previous = cert, order
    for cls in twin_classes(g.adj, range(n)):
        for v in cls[1:]:
            perm = list(range(n))
            perm[cls[0]] = v
            perm[v] = cls[0]
            gens.append(tuple(perm))
    return gens
