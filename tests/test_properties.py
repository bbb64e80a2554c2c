"""Property tests on random graphs: canonical labels, graph6, theta witnesses
and the counting structure checks; and on random command lines, exit codes."""

import contextlib
import io
import sys
from itertools import combinations, permutations

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
    MAX_N,
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
from spectheta.cli import main  # noqa: E402
from spectheta.enumeration import _augmentations, _orbit  # noqa: E402
from spectheta.graphs import FAMILIES  # noqa: E402
from spectheta.spectral import triangle_free  # noqa: E402
from spectheta.theta import _paths  # noqa: E402
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


@st.composite
def graphs_with_vertex_lists(draw):
    # A graph and a list of its vertices, unsorted and with repeats.
    g = draw(random_graphs(min_n=1, max_n=10))
    return g, draw(st.lists(st.integers(min_value=0, max_value=g.n - 1), max_size=2 * g.n))


@settings(deadline=None)
@given(graphs_with_vertex_lists())
@example((book(3), [4, 1, 4, 2]))  # hub 0 stays outside, next to every kept vertex
def test_induced_matches_networkx_subgraph(case):
    nx = pytest.importorskip("networkx")
    g, vs = case
    keep = sorted(set(vs))
    want = nx.relabel_nodes(to_networkx(g).subgraph(keep), {v: i for i, v in enumerate(keep)})
    assert g.induced(vs) == Graph(len(keep), list(want.edges()))


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
@given(random_graphs(min_n=2, max_n=8), st.data(), st.integers(min_value=1, max_value=4))
def test_paths_match_brute_force_in_order(g, data, length):
    # Every ordered choice of distinct allowed internal vertices, in the
    # lexicographic order itertools.permutations gives on a sorted list,
    # kept when consecutive vertices are adjacent and the first internal
    # vertex, if any, is past `after`.
    a, b = data.draw(st.lists(st.integers(0, g.n - 1), min_size=2, max_size=2, unique=True))
    banned = data.draw(st.integers(min_value=0, max_value=(1 << g.n) - 1))
    after = data.draw(st.integers(min_value=-1, max_value=g.n))
    allowed = [v for v in range(g.n) if v not in (a, b) and not (banned >> v) & 1]
    want = [mid for mid in permutations(allowed, length - 1)
            if all(g.has_edge(u, v) for u, v in zip((a, *mid), (*mid, b)))
            and (not mid or mid[0] > after)]
    assert list(_paths(g, a, b, length, banned, after)) == want


def _least_witness(g, spec):
    # The lexicographically least witness, from every path of every length
    # between every hub pair: hub pair first, then the r-, p- and q-paths.
    hubs = [v for v in range(g.n) if g.degree(v) >= 3]
    for a, b in combinations(hubs, 2):
        others = [v for v in range(g.n) if v not in (a, b)]
        paths = {length: [mid for mid in permutations(others, length - 1)
                          if all(g.has_edge(u, v) for u, v in zip((a, *mid), (*mid, b)))]
                 for length in {spec.r, spec.p, spec.q}}
        triples = [(x, y, z) for x in paths[spec.r] for y in paths[spec.p]
                   for z in paths[spec.q] if len({*x, *y, *z}) == len(x) + len(y) + len(z)]
        if triples:
            x, y, z = min(triples)
            return {"hubs": [a, b], "paths": [[a, *x, b], [a, *y, b], [a, *z, b]]}
    return None


@settings(deadline=None)
@given(random_graphs(max_n=8),
       st.sampled_from([ThetaSpec(2, 2, 2), ThetaSpec(2, 2, 3), ThetaSpec(2, 3, 3),
                        ThetaSpec(3, 3, 3), ThetaSpec(1, 2, 2), ThetaSpec(1, 3, 3)]))
@example(complete(8), ThetaSpec(3, 3, 3))
@example(book(4).with_edge(2, 3), ThetaSpec(2, 2, 3))  # the q-path starts below the p-path
@example(Graph(7, [(0, 5), (5, 1), (0, 2), (2, 3), (3, 1), (0, 4), (4, 6), (6, 1)]),
         ThetaSpec(2, 3, 3))  # the p-path starts below the r-path
def test_theta_witness_is_the_least(g, spec):
    assert contains_theta(g, spec) == _least_witness(g, spec)


_small_ids = st.integers(min_value=-3, max_value=10)


@settings(deadline=None)
@given(random_graphs(max_n=8),
       st.sampled_from([ThetaSpec(2, 2, 3), ThetaSpec(1, 2, 2), ThetaSpec(2, 2, 2)]),
       st.lists(_small_ids, min_size=2, max_size=2),
       st.lists(st.lists(_small_ids, max_size=3), min_size=3, max_size=3),
       st.booleans())
@example(book(4).with_edge(2, 3), ThetaSpec(2, 2, 3), [0, 9], [[4], [5], [2, 3]], True)
def test_validate_witness_answers_any_small_int_witness(g, spec, hubs, mids, joined):
    # Vertices past the host or negative make a witness invalid, not an
    # error.  Paths run hub to hub when joined, so most reach the edge test.
    a, b = hubs
    paths = [[a, *mid, b] for mid in mids] if joined else mids
    assert isinstance(validate_witness(g, spec, {"hubs": hubs, "paths": paths}), bool)


@settings(deadline=None)
@given(random_graphs(min_n=1, max_n=8), st.data(),
       st.sampled_from([ThetaSpec(2, 2, 3), ThetaSpec(2, 2, 2), ThetaSpec(1, 2, 2),
                        ThetaSpec(3, 3, 3), ThetaSpec(2, 2, 4)]))
def test_pendant_child_of_free_parent_is_free(g, data, spec):
    # Thin g to a theta-free parent by deleting a witness edge at a time,
    # then hang a new vertex on one of its vertices: a degree-1 vertex lies
    # on no theta, so the child stays free.
    parent = g
    while (w := contains_theta(parent, spec)) is not None:
        parent = parent.without_edge(*w["paths"][0][:2])
    u = data.draw(st.integers(min_value=0, max_value=parent.n - 1))
    child = Graph(parent.n + 1, list(parent.edges()) + [(u, parent.n)])
    assert not oracle_contains_theta(child, spec)


def _reference_augmentations(g, max_components, max_order):
    # `_augmentations` with no prefilter: every candidate child is built and
    # kept when it meets the limits and its added edge carries its least
    # degree pair; then the first of each Aut(g)-orbit, then the fresh edge.
    n = g.n
    candidates = [(u, v) for u, v in combinations(range(n), 2) if not g.has_edge(u, v)]
    if n + 1 <= max_order:
        candidates += [(u, n) for u in range(n)]

    def tested(a, b):
        child = Graph(max(n, b + 1), list(g.edges()) + [(a, b)])
        pairs = [tuple(sorted((child.degree(u), child.degree(v)))) for u, v in child.edges()]
        pair = tuple(sorted((child.degree(a), child.degree(b))))
        if pair == min(pairs):
            return a, b, pairs.count(pair) == 1, child.component_count()
        return None

    passed = [t for t in (tested(a, b) for a, b in candidates)
              if t is not None and t[3] <= max_components]
    gens = automorphism_generators(g) if len(passed) > 1 else []
    out = []
    claimed = set()
    for a, b, sole, components in passed:
        if (a, b) not in claimed:
            out.append((a, b, sole, components))
            claimed |= _orbit(a, b, gens)
    if n + 2 <= max_order and g.component_count() + 1 <= max_components:
        out.append(tested(n, n + 1))
    return out


@settings(deadline=None)
@given(random_graphs(max_n=14), st.integers(min_value=0, max_value=16),
       st.integers(min_value=0, max_value=3) | st.just(MAX_N))
@example(Graph(0), 1, MAX_N)
@example(Graph(3), 4, 2)  # edgeless parent, as enumerate_by_order yields first
@example(Graph(7, list(book(4).edges())), 3, 2)  # a book plus an isolated vertex
def test_augmentations_match_unfiltered_reference(g, max_components, extra_order):
    max_order = g.n + extra_order if extra_order < MAX_N else MAX_N
    want = _reference_augmentations(g, max_components, max_order)
    assert list(_augmentations(g, max_components, max_order)) == want


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


@st.composite
def graph6_texts(draw):
    # A graph on at most 12 vertices with at most 8 edges, in the short or
    # the long header form, maybe behind the optional prefix; or that text
    # cut anywhere with up to two printable ASCII characters appended.
    n = draw(st.integers(min_value=0, max_value=12))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=8, unique=True)) if pairs else []
    text = to_graph6(Graph(n, edges))
    if draw(st.booleans()):
        text = "~??" + text
    if draw(st.booleans()):
        text = ">>graph6<<" + text
    if draw(st.booleans()):
        tail = draw(st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=2))
        text = text[:draw(st.integers(min_value=0, max_value=len(text)))] + tail
    return text


_NUMBERS = st.integers(min_value=-1, max_value=8) | st.sampled_from([13, 10**12])
_SPECS = (st.tuples(*[st.integers(min_value=1, max_value=4)] * 3).map(lambda t: "%d,%d,%d" % t)
          | st.text(max_size=6))


@st.composite
def cli_calls(draw):
    # argv for one subcommand and the stdin it reads.  Edge counts above 8
    # are 13 or 10^12 and no --limit reaches them, so every walk stops at
    # 8 edges or at the budget guard.
    command = draw(st.sampled_from(["radius", "free", "enumerate", "search", "table",
                                    "family", "verify", "nosal"]))
    argv = [command]
    stdin = ""

    def option(name, values, required=False):
        if required or draw(st.booleans()):
            argv.extend([name, str(draw(values))])

    if command in ("radius", "free", "verify", "nosal"):
        if command == "free":
            option("--spec", _SPECS, required=True)
        elif draw(st.booleans()):
            argv.append("--json")
        if draw(st.booleans()):
            argv.append(draw(graph6_texts()))
        else:
            stdin = "".join(text + "\n" for text in draw(st.lists(graph6_texts(), max_size=3)))
    elif command == "family":
        argv.append(draw(st.sampled_from(sorted(FAMILIES) + ["wheel"])))
        for name in ("--k", "--n", "--s", "--t"):
            option(name, st.integers(min_value=-1, max_value=12) | st.just(10**8))
    else:
        if command == "table":
            lo, hi = draw(_NUMBERS), draw(_NUMBERS)
            option("--edges", st.sampled_from([f"{lo}..{hi}", str(lo), "..", "x"]), required=True)
        else:
            option("--edges", _NUMBERS, required=True)
        if command == "enumerate":
            if draw(st.booleans()):
                argv.append("--connected")
            option("--free", _SPECS)
        if command == "search":
            option("--spec", _SPECS, required=True)
        if command != "enumerate" and draw(st.booleans()):
            argv.append("--json")
        option("--limit", st.integers(min_value=-1, max_value=8))
    return argv, stdin


@settings(deadline=None, max_examples=200)
@given(cli_calls())
def test_cli_exits_with_a_documented_code(call):
    argv, stdin = call
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                # argparse rejects a usage error with exit code 2.
                code = exc.code
    finally:
        sys.stdin = saved
    assert code in (0, 1, 2, 3), (argv, stdin, err.getvalue())
    assert "Traceback" not in err.getvalue()
