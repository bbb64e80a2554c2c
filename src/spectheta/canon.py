"""Canonical labeling by equitable refinement plus individualization search.

Each connected component is labeled on its own: the search explores the
vertex orderings compatible with the refined partition, keeps the first
leaf with the lexicographically least upper-triangle bit string, and
individualizes only one representative per twin class (vertices with
identical open or closed neighborhoods are swapped by an automorphism, so
the skipped branches cannot improve the minimum).  The whole-graph
certificate concatenates the component certificates in sorted order,
which makes disjoint unions of many small components cheap instead of
catastrophically symmetric.  The certificate is plain `bytes`: equal bytes
mean isomorphic graphs, and they sort and hash as bytes do.

The search also finds the automorphism group G of the component and
prunes with it (first-path automorphism pruning; McKay and Piperno,
"Practical graph isomorphism, II", J. Symb. Comput. 60, 2014).
Refinement commutes with automorphisms and splits cells in place, so G
acts on the nodes of the unpruned tree, and a vertex that is a singleton
at a node keeps its position in every leaf below it.  Two leaves with the
same bit string differ by an automorphism.  When a leaf L ties the best
leaf so far, B, the search records g: B -> L and returns to the node N
where the two individualized paths split, B below N's branch x and L
below its branch y.  g fixes every singleton of N, so it maps N to itself
and x's subtree onto y's.  Once a subtree is done, the best string is at
most the least string in it (by induction on the subtrees below), so B's
string is the least in x's subtree and hence in y's: the rest of y's
subtree cannot undercut B, and its least leaves are the images under g of
those below x.  The twin prune skips a branch x' of a node only for an
earlier twin x in the same cell; swapping x and x' fixes the node's
individualized vertices and so maps the skipped subtree onto the visited
one.  Every leaf the return skips comes after B and is no less than B,
so the first leaf with the least string is still visited, and bits and
order are those of the search without the return.  By induction up the
tree, every least leaf is the image of the final B under a product of
recorded automorphisms and twin swaps.  The least leaves are exactly the
G-orbit of B, each the image of B under one element of G, so these
permutations generate G.  A recorded g stays an automorphism when a later
leaf undercuts B, and the skips it justified rely on it, so every one is
kept.
`automorphism_generators` lifts them to original ids, adds a swap of each
two consecutive components with equal certificates, and rebuilds the
twin swaps from `twin_classes` instead of storing them.

Three bounded caches keep the generation tree from labelling twice what it
has labelled once.  `_canonical_pieces` is keyed on the whole `Graph` (its
vertex count and adjacency rows).  `_component_canonical` is keyed on one
component's local adjacency rows, so a child that keeps a component of its
parent row for row reuses that component's search.  `_root_cells`, the
refinement of the one-cell partition where every search starts, is keyed
on the same rows: the generation tree reads it to settle many children
without a label, and a child it leaves open refines only once.  Every
output, automorphisms included, is a pure function of its key, so no
cache can change a certificate, an order or a generator.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import Graph, _induced_rows


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
def _root_cells(adj: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The root partition: the equitable refinement of one cell of all vertices.

    Every leaf of `_component_canonical`'s search refines it in place, so
    the canonical order lists its cells in order, and every automorphism
    maps each of its cells onto itself.
    """
    k = len(adj)
    return tuple(map(tuple, _refine(adj, [list(range(k))], [(1 << k) - 1])))


@lru_cache(maxsize=65536)
def _component_canonical(adj: tuple[int, ...]):
    """Least adjacency bit string over refinement-compatible orderings.

    adj holds the k local rows of one connected component.  Returns
    (bits, order, auts): bits is the upper triangle packed column-major
    into an int of k*(k-1)/2 bits, order maps canonical positions to local
    vertex ids, and auts holds one automorphism per visited leaf that tied
    the best leaf of its time, as a permutation of local ids (aut[v] is
    the image of v).
    """
    k = len(adj)
    best_bits = best_order = best_path = None  # the least leaf so far
    auts = []

    def descend(cells, path):
        # None, or after a tie the depth of the node where the search resumes.
        nonlocal best_bits, best_order, best_path
        order = []
        for cell in cells:
            if len(cell) != 1:
                break
            order.append(cell[0])
        if len(order) == k:
            val = 0
            for j in range(1, k):
                aj = adj[order[j]]
                col = 0
                for i in range(j):
                    col = (col << 1) | ((aj >> order[i]) & 1)
                val = (val << j) | col
            if best_bits is None or val < best_bits:
                best_bits, best_order, best_path = val, order, path
            elif val == best_bits:
                aut = [0] * k
                for v, w in zip(best_order, order):
                    aut[v] = w
                auts.append(tuple(aut))
                depth = 0
                while path[depth] == best_path[depth]:
                    depth += 1
                return depth
            return None
        target = cells[len(order)]
        for cls in twin_classes(adj, target):
            v = cls[0]
            rest = [w for w in target if w != v]
            branch = cells[: len(order)] + [[v], rest] + cells[len(order) + 1:]
            depth = descend(_refine(adj, branch, [1 << v]), path + [v])
            if depth is not None and depth < len(path):
                return depth
        return None

    descend(list(_root_cells(adj)), [])
    return best_bits, tuple(best_order), tuple(auts)


@lru_cache(maxsize=65536)
def _canonical_pieces(g: Graph):
    """Per-component (certificate, canonical original-vertex order, automorphisms), sorted."""
    pieces = []
    for comp in g.components():
        k = len(comp)
        if k == g.n:
            # One component spans the graph, so its local rows are g's own.
            bits, order, auts = _component_canonical(g.adj)
        else:
            local = tuple(_induced_rows(g.adj, comp))
            bits, local_order, auts = _component_canonical(local)
            order = tuple(comp[i] for i in local_order)
        nbytes = (k * (k - 1) // 2 + 7) // 8
        cert = k.to_bytes(2, "big") + bits.to_bytes(nbytes, "big")
        pieces.append((cert, order, auts))
    pieces.sort(key=lambda piece: piece[0])
    return tuple(pieces)


def canonical_label(g: Graph) -> bytes:
    """The certificate of g's isomorphism class: equal bytes iff isomorphic graphs.

    Two bytes of vertex count, then each component's certificate (two bytes
    of order and its least bit string) in sorted order.
    """
    return g.n.to_bytes(2, "big") + b"".join(piece[0] for piece in _canonical_pieces(g))


def canonical_order(g: Graph) -> tuple[int, ...]:
    """Original vertex ids listed by canonical position."""
    order = []
    for _, comp_order, _ in _canonical_pieces(g):
        order.extend(comp_order)
    return tuple(order)


def canonical_form(g: Graph) -> Graph:
    """The canonically labeled copy; identical for all relabelings of g."""
    return Graph._from_rows(_induced_rows(g.adj, canonical_order(g)))


def automorphism_generators(g: Graph) -> list[tuple[int, ...]]:
    """Generators of the automorphism group of g, each as the images of 0..n-1.

    They are the automorphisms that each component's search records at its
    tied leaves, lifted to original ids, a swap of each two consecutive
    components with equal certificates, and the transpositions of each twin
    class with its least member.  The automorphisms are read from the cache
    that `canonical_label`, `canonical_order` and so `canonical_edge` fill,
    so after one of those on g this takes no labelling.
    """
    n = g.n
    gens = []
    previous = None
    for cert, order, auts in _canonical_pieces(g):
        comp = sorted(order)  # local id i is the component's i-th least vertex
        for aut in auts:
            perm = list(range(n))
            for v, w in zip(comp, aut):
                perm[v] = comp[w]
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
