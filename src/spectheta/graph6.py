"""graph6 text codec: 6-bit groups over the column-major upper triangle.

Orders up to 62 use the single header byte n+63; larger orders use the
'~' long form with three more 6-bit bytes.  Multi-graph files are one
graph6 string per line.
"""

from __future__ import annotations

import binascii

from .graphs import MAX_N, Graph

_OPTIONAL_PREFIX = ">>graph6<<"
# str.translate table: each payload character to its six bits.
_BITS = {63 + v: format(v, "06b") for v in range(64)}
# bytes.translate table: base64 spells a 6-bit group v as the v-th letter of
# its alphabet, and graph6 as the byte v + 63.
_FROM_BASE64 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/", bytes(range(63, 127)))


def to_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + chr(((n >> 12) & 63) + 63) + chr(((n >> 6) & 63) + 63) + chr((n & 63) + 63)
    # Payload bit j(j - 1)/2 + i, counted from the most significant, is the
    # pair (i, j) with i < j.  Only the edges' bits are set, in an int of whole
    # 24-bit groups, which base64 spells 6 bits to a letter; the letters past
    # the last 6-bit group that holds a pair are cut.
    nbits = n * (n - 1) // 2
    width = -(-nbits // 24) * 24
    acc = 0
    top = width
    for j, row in enumerate(g.adj):
        rest = row & ((1 << j) - 1)
        while rest:
            low = rest & -rest
            rest ^= low
            acc |= 1 << (top - low.bit_length())
        top -= j
    letters = binascii.b2a_base64(acc.to_bytes(width >> 3, "big"), newline=False)
    return head + letters[:(nbits + 5) // 6].translate(_FROM_BASE64).decode()


def from_graph6(text: str) -> Graph:
    if not isinstance(text, str):
        raise ValueError("graph6 input must be a string")
    s = text.strip()
    if s.startswith(_OPTIONAL_PREFIX):
        s = s[len(_OPTIONAL_PREFIX):]
    if not s:
        raise ValueError("empty graph6 string")
    if min(s) < "?" or max(s) > "~":
        raise ValueError("graph6 characters must lie in '?'..'~'")
    vals = [ord(c) - 63 for c in s[:4]]
    if vals[0] == 63:
        if len(vals) < 4:
            raise ValueError("truncated graph6 header")
        if vals[1] == 63:
            raise ValueError("graph6 order beyond the supported range")
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        body = s[4:]
    else:
        n = vals[0]
        body = s[1:]
    if n > MAX_N:
        raise ValueError(f"graph6 order {n} exceeds the {MAX_N}-vertex budget")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) < need:
        raise ValueError(f"truncated graph6 payload: got {len(body)} bytes, need {need} for n={n}")
    if len(body) > need:
        raise ValueError(f"graph6 payload too long: got {len(body)} bytes, need {need} for n={n}")
    # Spell the payload as a string of bits and visit its set bits alone; the
    # bits past nbits are padding and are not read.  Column j holds the bits
    # (0, j) .. (j - 1, j) and starts at bit start = j(j - 1)/2.
    bits = body.translate(_BITS)
    rows = [0] * n
    j = 1
    start = 0
    k = bits.find("1", 0, nbits)
    while k >= 0:
        while k >= start + j:
            start += j
            j += 1
        i = k - start
        rows[i] |= 1 << j
        rows[j] |= 1 << i
        k = bits.find("1", k + 1, nbits)
    return Graph._from_rows(rows)
