"""Property tests on random graphs: canonical labels, graph6 and theta witnesses."""

from itertools import combinations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from helpers import relabeled, to_networkx  # noqa: E402

from spectheta import (  # noqa: E402
    Graph,
    ThetaSpec,
    canonical_edge,
    canonical_form,
    canonical_label,
    contains_theta,
    from_graph6,
    oracle_contains_theta,
    to_graph6,
    validate_witness,
)
from spectheta.canon import _canonical_pieces, _component_canonical  # noqa: E402


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
