import random

import pytest

from helpers import graphs_on, random_connected_graph, to_networkx

from spectheta import Graph, book, complete, cycle, from_graph6, path, star, to_graph6


def test_reference_encodings():
    assert to_graph6(complete(2)) == "A_"
    assert to_graph6(complete(3)) == "Bw"
    assert to_graph6(Graph(1)) == "@"
    assert from_graph6("A_") == complete(2)
    assert from_graph6("Bw") == complete(3)
    assert from_graph6("@") == Graph(1)


def test_roundtrip_small_exhaustive():
    for n in range(0, 6):
        for g in graphs_on(n):
            assert from_graph6(to_graph6(g)) == g


def test_roundtrip_families_and_random():
    rng = random.Random(0)
    corpus = [book(5), star(12), cycle(11), path(12), complete(9)]
    for _ in range(50):
        corpus.append(random_connected_graph(rng, max_n=12))
    for g in corpus:
        assert from_graph6(to_graph6(g)) == g


def test_roundtrip_long_header():
    for n in (63, 64, 100, 200):
        g = path(n)
        s = to_graph6(g)
        assert s.startswith("~")
        assert from_graph6(s) == g


def test_optional_file_prefix():
    assert from_graph6(">>graph6<<Bw") == complete(3)


def test_malformed_inputs():
    with pytest.raises(ValueError):
        from_graph6("")
    with pytest.raises(ValueError):
        from_graph6("Bw\x01")
    with pytest.raises(ValueError):
        from_graph6("B")  # truncated payload
    with pytest.raises(ValueError):
        from_graph6("Bww")  # overlong payload
    with pytest.raises(ValueError):
        from_graph6("~~")  # unsupported 8-byte order form
    with pytest.raises(ValueError):
        from_graph6("~??")  # truncated long header


def test_order_budget():
    too_big = "~" + chr(63 + ((300 >> 12) & 63)) + chr(63 + ((300 >> 6) & 63)) + chr(63 + (300 & 63))
    with pytest.raises(ValueError, match="budget"):
        from_graph6(too_big)


def _graph6_corpus():
    rng = random.Random(7)
    corpus = [Graph(1), Graph(5), complete(6), book(4), path(63), cycle(100)]
    for _ in range(40):
        corpus.append(random_connected_graph(rng, max_n=20))
    for n in (63, 100):
        # Random sparse and dense graphs at the long-header orders.
        for p in (0.05, 0.5):
            corpus.append(Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                    if rng.random() < p]))
    return corpus


def test_graph6_matches_networkx():
    nx = pytest.importorskip("networkx")
    for g in _graph6_corpus():
        s = to_graph6(g)
        assert s == nx.to_graph6_bytes(to_networkx(g), header=False).decode().rstrip("\n")
        back = nx.from_graph6_bytes(s.encode())
        assert back.number_of_nodes() == g.n
        assert sorted(tuple(sorted(e)) for e in back.edges()) == sorted(g.edges())
        assert from_graph6(s) == g
