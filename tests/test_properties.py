"""Property tests on random graphs: canonical labels, graph6, theta witnesses
and the counting structure checks."""

from itertools import combinations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from helpers import (  # noqa: E402
    oracle_has_long_cycle,
    oracle_is_book,
    oracle_triangle_free,
    relabeled,
    to_networkx,
)

from spectheta import (  # noqa: E402
    Graph,
    ThetaSpec,
    automorphism_generators,
    book,
    canonical_edge,
    canonical_form,
    canonical_label,
    contains_theta,
    complete,
    from_graph6,
    is_book,
    oracle_contains_theta,
    to_graph6,
    validate_witness,
)
from spectheta.canon import _canonical_pieces, _component_canonical  # noqa: E402
from spectheta.spectral import triangle_free  # noqa: E402
from spectheta.theta import _theta_through_edge  # noqa: E402
from spectheta.verify import has_long_cycle  # noqa: E402


@st.composite
def random_graphs(draw, min_n=0, max_n=10, min_edges=0):
    # A graph on min_n..max_n vertices with at least min_edges edges.
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    if not pairs:
        return Graph(n)
    edges = draw(st.lists(st.sampled_from(pairs), min_size=min_edges, unique=True))
    return Graph(n, edges)


@st.composite
def graphs_with_relabelling(draw):
    # A graph with at least one edge, and a permutation of its vertices.
    g = draw(random_graphs(min_n=2, max_n=10, min_edges=1))
    return g, draw(st.permutations(range(g.n)))


@settings(deadline=None)
@given(graphs_with_relabelling())
def test_canonical_label_invariant_under_relabelling(case):
    g, perm = case
    assert canonical_label(relabeled(g, perm)) == canonical_label(g)


@settings(deadline=None)
@given(graphs_with_relabelling())
def test_canonical_edge_least_pair_and_orbit_stable(case):
    g, perm = case
    u, v = canonical_edge(g)
    pairs = [tuple(sorted((g.degree(x), g.degree(y)))) for x, y in g.edges()]
    assert tuple(sorted((g.degree(u), g.degree(v)))) == min(pairs)
    h = relabeled(g, perm)
    x, y = canonical_edge(h)
    assert canonical_label(h.without_edge(x, y)) == canonical_label(g.without_edge(u, v))


def _vertex_orbits(g):
    # The orbits of the group the generators give, by union-find.
    root = list(range(g.n))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for perm in automorphism_generators(g):
        for v in range(g.n):
            root[find(v)] = find(perm[v])
    orbits = {}
    for v in range(g.n):
        orbits.setdefault(find(v), set()).add(v)
    return {frozenset(orbit) for orbit in orbits.values()}


@settings(deadline=None)
@given(graphs_with_relabelling())
def test_vertex_orbits_follow_relabelling(case):
    g, perm = case
    want = {frozenset(perm[v] for v in orbit) for orbit in _vertex_orbits(g)}
    assert _vertex_orbits(relabeled(g, perm)) == want


@settings(deadline=None)
@given(random_graphs(min_n=1, max_n=6), random_graphs(min_n=1, max_n=6), st.data())
def test_label_of_disjoint_union_independent_of_caches(first, second, data):
    # The union keeps each part's rows, so labelling the parts first leaves
    # its components in the per-component cache.
    union = Graph(first.n + second.n,
                  list(first.edges()) + [(u + first.n, v + first.n) for u, v in second.edges()])
    h = relabeled(union, data.draw(st.permutations(range(union.n))))
    canonical_label(first)
    canonical_label(second)
    want = canonical_label(union)
    warm = canonical_label(h), canonical_form(h)
    _canonical_pieces.cache_clear()
    _component_canonical.cache_clear()
    cold = canonical_label(h), canonical_form(h)
    assert warm == cold
    assert warm[0] == want
    assert warm[1] == canonical_form(union)


@settings(deadline=None)
@given(random_graphs(max_n=70))
@example(Graph(63))
@example(Graph(64, [(0, 63), (62, 63)]))
def test_graph6_round_trip_across_long_header(g):
    text = to_graph6(g)
    assert text[0] == ("~" if g.n > 62 else chr(g.n + 63))
    assert from_graph6(text) == g
    nx = pytest.importorskip("networkx")
    assert text.encode() == nx.to_graph6_bytes(to_networkx(g), header=False).strip()


@settings(deadline=None)
@given(random_graphs(max_n=8),
       st.sampled_from([ThetaSpec(2, 2, 3), ThetaSpec(1, 2, 2), ThetaSpec(3, 3, 3)]))
def test_theta_witness_valid_and_matches_oracle(g, spec):
    witness = contains_theta(g, spec)
    if witness is not None:
        assert validate_witness(g, spec, witness)
    assert (witness is not None) == oracle_contains_theta(g, spec)


@settings(deadline=None)
@given(random_graphs(min_n=2, max_n=8, min_edges=1), st.data(),
       st.sampled_from([ThetaSpec(2, 2, 3), ThetaSpec(2, 2, 2), ThetaSpec(1, 2, 2),
                        ThetaSpec(3, 3, 3), ThetaSpec(2, 2, 4)]))
def test_theta_through_edge_matches_oracle(g, data, spec):
    # Thin g minus one edge (a, b) to a theta-free parent by deleting a
    # witness edge at a time, then put (a, b) back.
    a, b = data.draw(st.sampled_from(list(g.edges())))
    parent = g.without_edge(a, b)
    while (w := contains_theta(parent, spec)) is not None:
        parent = parent.without_edge(*w.paths[0][:2])
    child = parent.with_edge(a, b)
    assert _theta_through_edge(child, spec, a, b) == oracle_contains_theta(child, spec)


@settings(deadline=None)
@given(random_graphs(max_n=12))
@example(book(9))
@example(complete(2))
@example(Graph(7, list(book(4).edges())))  # a book plus an isolated vertex
@example(Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]))
def test_structure_counts_match_networkx(g):
    pytest.importorskip("networkx")
    assert has_long_cycle(g) == oracle_has_long_cycle(g)
    assert is_book(g) == oracle_is_book(g)
    assert triangle_free(g) == oracle_triangle_free(g)
