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
    # Each input fails with exactly this message, so a decoder rewrite keeps
    # the wording callers see on stderr.
    for text, message in (
        ("", "empty graph6 string"),
        (">>graph6<<", "empty graph6 string"),
        ("Bw\x01", "graph6 characters must lie in '?'..'~'"),
        ("B\u00ff", "graph6 characters must lie in '?'..'~'"),
        ("~~", "truncated graph6 header"),
        ("~??", "truncated graph6 header"),
        ("~~??????", "graph6 order beyond the supported range"),
        ("B", "truncated graph6 payload: got 0 bytes, need 1 for n=3"),
        ("Bww", "graph6 payload too long: got 2 bytes, need 1 for n=3"),
        ("~?@?" + "?" * 10, "truncated graph6 payload: got 10 bytes, need 336 for n=64"),
    ):
        with pytest.raises(ValueError) as info:
            from_graph6(text)
        assert str(info.value) == message, text


def _per_bit_edges(text: str):
    # Reference decoder: read the payload one bit at a time, column by
    # column of the upper triangle, and never look at the padding bits.
    vals = [ord(c) - 63 for c in text]
    if vals[0] == 63:
        n, body = (vals[1] << 12) | (vals[2] << 6) | vals[3], vals[4:]
    else:
        n, body = vals[0], vals[1:]
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            group, off = divmod(idx, 6)
            if (body[group] >> (5 - off)) & 1:
                edges.append((i, j))
            idx += 1
    return n, edges


def test_decoder_matches_per_bit_reference_with_padding_bits_set():
    rng = random.Random(30)
    orders = [0, 1, 2, 3, 4, 62, 63, 64, 65, 255, 256] + [rng.randint(2, 256) for _ in range(40)]
    padded = 0
    for n in orders:
        p = rng.choice((0.0, 0.02, 0.3, 0.9, 1.0))
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        text = to_graph6(g)
        assert text.startswith("~") == (n > 62)
        spare = -(n * (n - 1) // 2) % 6  # padding bits in the last byte
        if spare:
            last = (ord(text[-1]) - 63) | rng.randint(1, (1 << spare) - 1)
            assert chr(last + 63) != text[-1]
            text = text[:-1] + chr(last + 63)
            padded += 1
        h = from_graph6(text)
        n_ref, edges_ref = _per_bit_edges(text)
        assert (h.n, list(h.edges())) == (n_ref, sorted(edges_ref))
        assert h == g
    assert padded >= 20


def _per_bit_text(g):
    # Reference encoder: append the upper triangle one bit at a time, column
    # by column, and pad the last group of six with zeros.
    n = g.n
    head = chr(n + 63) if n <= 62 else "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    bits = "".join("1" if g.has_edge(i, j) else "0" for j in range(1, n) for i in range(j))
    bits += "0" * (-len(bits) % 6)
    return head + "".join(chr(int(bits[k:k + 6], 2) + 63) for k in range(0, len(bits), 6))


def test_encoder_matches_per_bit_reference():
    # Orders 0..23 end the triangle at every offset in a 24-bit group that
    # n(n - 1)/2 can reach; 61..65, 255 and 256 cross into the long header.
    rng = random.Random(31)
    orders = list(range(0, 24)) + [61, 62, 63, 64, 65, 255, 256]
    for n in orders:
        for p in (0.0, 0.1, 0.5, 1.0):
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
            assert to_graph6(g) == _per_bit_text(g), (n, p)


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
