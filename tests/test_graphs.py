import pytest

from helpers import edge_count_between, graphs_on, min_degree

from spectheta import (
    Graph,
    book,
    complete,
    complete_bipartite,
    complete_minus_edge,
    cycle,
    family,
    path,
    star,
    star_plus_edge,
)


def test_construction_and_symmetry():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4 and g.m == 3
    for u in range(g.n):
        for v in range(g.n):
            assert g.has_edge(u, v) == g.has_edge(v, u)
    assert g.neighbors(1) == [0, 2]
    assert list(g.edges()) == [(0, 1), (1, 2), (2, 3)]


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(-1)
    with pytest.raises(ValueError):
        Graph(300)


@pytest.mark.parametrize("build", [
    Graph, book, star, star_plus_edge, complete, complete_minus_edge, path, cycle,
    lambda k: complete_bipartite(k, 2), lambda k: complete_bipartite(2, k),
])
def test_bool_is_not_a_count(build):
    # True is an int to isinstance; as an order or a page count it would
    # build the graph for 1.
    for flag in (True, False):
        with pytest.raises(ValueError):
            build(flag)


def test_graph_is_immutable_value_type():
    g = path(3)
    with pytest.raises(AttributeError):
        g.n = 5
    assert g == Graph(3, [(0, 1), (1, 2)])
    assert hash(g) == hash(Graph(3, [(1, 2), (0, 1)]))
    h = g.with_edge(0, 2)
    assert g.m == 2 and h.m == 3
    assert h.without_edge(0, 2) == g


def test_with_edge_validates():
    g = path(3)
    with pytest.raises(ValueError):
        g.with_edge(0, 1)
    with pytest.raises(ValueError):
        g.without_edge(0, 2)


def test_book_family():
    for k in (1, 3, 28):
        g = book(k)
        assert g.n == k + 2 and g.m == 2 * k + 1
        hubs = [v for v in range(g.n) if g.degree(v) == k + 1]
        assert len(hubs) == 2 or k == 1  # in the triangle all degrees tie
    assert book(1) == complete(3)
    g = book(3)
    assert sorted(g.degree(v) for v in range(g.n)) == [2, 2, 2, 4, 4]
    assert edge_count_between(g, [0, 1], [2, 3, 4]) == 6
    with pytest.raises(ValueError):
        book(0)


def test_named_families():
    assert star(5).m == 4
    assert star(5).degree(0) == 4
    g = cycle(5)
    assert all(g.degree(v) == 2 for v in range(5))
    assert complete_minus_edge(4).m == 5
    assert star_plus_edge(4).m == 4
    assert complete_bipartite(2, 3).m == 6
    assert path(6).m == 5
    assert family("book", 2) == book(2)
    assert family("complete_bipartite", 2, 3) == complete_bipartite(2, 3)
    with pytest.raises(ValueError):
        family("petersen")
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        star_plus_edge(2)


def test_connectivity_and_components():
    two_k2 = Graph(4, [(0, 1), (2, 3)])
    assert not two_k2.is_connected()
    assert two_k2.components() == [[0, 1], [2, 3]]
    assert two_k2.component_count() == 2
    assert book(4).is_connected()
    assert not Graph(0).is_connected()
    assert Graph(1).is_connected()

    def dfs_components(g):
        seen, out = set(), []
        for s in range(g.n):
            if s in seen:
                continue
            seen.add(s)
            stack, comp = [s], []
            while stack:
                u = stack.pop()
                comp.append(u)
                for v in range(g.n):
                    if g.has_edge(u, v) and v not in seen:
                        seen.add(v)
                        stack.append(v)
            out.append(sorted(comp))
        return out

    # every labelled graph on at most 5 vertices, the empty graph included
    for n in range(6):
        for g in graphs_on(n):
            want = dfs_components(g)
            assert g.components() == want
            assert g.component_count() == len(want)
            assert g.is_connected() == (len(want) == 1)


def test_induced():
    g = book(3)
    h = g.induced([1, 2, 3, 4])  # second hub plus pages: a star
    assert h.n == 4 and h.m == 3
    assert h.degree(0) == 3  # hub 1 relabels to 0
    with pytest.raises(ValueError):
        g.induced([0, 9])
    # True and False are ints to isinstance, not vertex ids
    for v in (9, True, False):
        with pytest.raises(ValueError):
            g.degree(v)
        with pytest.raises(ValueError):
            g.has_edge(2, v)


def test_edge_count_between():
    g = cycle(6)
    assert edge_count_between(g, [0, 1, 2], [0, 1, 2]) == 2
    assert edge_count_between(g, [0, 1, 2], [3, 4, 5]) == 2
    assert edge_count_between(g, range(6), range(6)) == 6
    # overlapping sets count each qualifying edge once
    assert edge_count_between(g, [0, 1], [1, 2]) == 2


def test_min_degree():
    assert min_degree(book(2)) == 2
    assert min_degree(path(4)) == 1
    assert min_degree(Graph(3)) == 0
