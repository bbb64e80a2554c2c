"""Output oracles that share no code with the package under test.

graph6 is decoded and encoded here from the format's definition, spectral
radii come from LAPACK through ``numpy.linalg.eigvalsh``, isomorphism from
networkx, and theta witnesses are rechecked edge by edge.  Floats are
compared within a relative tolerance, never by their bytes, because a
change of eigensolver may move the last bits on purpose.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict

import networkx as nx
import numpy as np

LAMBDA_RTOL = 1e-9
# Lengths of the (2,2,3) theta: two hubs joined by paths of 2, 2 and 3 edges.
THETA_LENGTHS = (2, 2, 3)


def encode_graph6(n: int, edges) -> str:
    """graph6 text for a simple graph on vertices 0..n-1 (n < 2**18)."""
    if n <= 62:
        out = [chr(63 + n)]
    else:
        out = ["~"] + [chr(63 + ((n >> s) & 63)) for s in (12, 6, 0)]
    present = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (i, j) in present else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k:k + 6]:
            val = (val << 1) | b
        out.append(chr(63 + val))
    return "".join(out)


def decode_graph6(text: str):
    """(n, frozenset of (u, v) with u < v); raises ValueError on malformed text."""
    s = text.strip()
    vals = [ord(c) - 63 for c in s]
    if not vals or any(not 0 <= v <= 63 for v in vals):
        raise ValueError(f"not graph6: {text!r}")
    if vals[0] == 63:
        if len(vals) < 4 or vals[1] == 63:
            raise ValueError(f"unsupported graph6 header: {text!r}")
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        body = vals[4:]
    else:
        n, body = vals[0], vals[1:]
    if len(body) != (n * (n - 1) // 2 + 5) // 6:
        raise ValueError(f"graph6 payload length does not match n={n}: {text!r}")
    edges = set()
    k = 0
    for j in range(1, n):
        for i in range(j):
            if (body[k // 6] >> (5 - k % 6)) & 1:
                edges.add((i, j))
            k += 1
    return n, frozenset(edges)


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def spectral_radius(n: int, edges) -> float:
    """Largest adjacency eigenvalue by LAPACK."""
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    return float(np.linalg.eigvalsh(a)[-1])


def lambda_matches(claimed, n: int, edges) -> bool:
    if not _number(claimed):
        return False
    true = spectral_radius(n, edges)
    return abs(claimed - true) <= LAMBDA_RTOL * max(1.0, abs(true))


def closed_form_bound(m: int) -> float:
    return (1.0 + math.sqrt(4 * m - 3)) / 2.0


def witness_valid(edges, witness) -> bool:
    """Recheck a theta witness: hubs, path lengths, edges, internal disjointness."""
    try:
        a, b = witness["hubs"]
        paths = [list(p) for p in witness["paths"]]
    except (KeyError, TypeError, ValueError):
        return False
    if a == b or len(paths) != 3:
        return False
    if sorted(len(p) - 1 for p in paths) != sorted(THETA_LENGTHS):
        return False
    used = set()
    for p in paths:
        if p[0] != a or p[-1] != b:
            return False
        inner = p[1:-1]
        if a in inner or b in inner or len(set(inner)) != len(inner) or used & set(inner):
            return False
        used |= set(inner)
        for u, v in zip(p, p[1:]):
            if (min(u, v), max(u, v)) not in edges:
                return False
    return True


# -- search ----------------------------------------------------------------

SEARCH_EXPECT = {"m": 10, "spec": [2, 2, 3], "best_graph6": "D~{", "num_candidates": 2100,
                 "best_lambda": 4.0, "runner_ups": 5}


def check_search(stdout: str, expect=SEARCH_EXPECT) -> list[str]:
    """Errors in one `search --json` record; empty when it is right."""
    try:
        rec = json.loads(stdout)
        pairs = [(rec["best_graph6"], rec["best_lambda"])]
        pairs += [(r["graph6"], r["lambda"]) for r in rec["runner_ups"]]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable record: {exc!r}"]
    errors = []
    for key in ("m", "spec", "best_graph6", "num_candidates"):
        if rec.get(key) != expect[key]:
            errors.append(f"{key}={rec.get(key)!r}, expected {expect[key]!r}")
    if len(pairs) - 1 != expect["runner_ups"]:
        errors.append(f"{len(pairs) - 1} runner-ups, expected {expect['runner_ups']}")
    lams = [lam for _, lam in pairs]
    if not all(_number(lam) for lam in lams):
        return errors + [f"non-numeric lambda in {lams!r}"]
    if not math.isclose(lams[0], expect["best_lambda"], rel_tol=LAMBDA_RTOL):
        errors.append(f"best_lambda={lams[0]!r}, expected {expect['best_lambda']}")
    for g6, lam in pairs:
        try:
            n, edges = decode_graph6(g6)
        except (ValueError, AttributeError) as exc:
            errors.append(f"{g6!r}: {exc}")
            continue
        if len(edges) != expect["m"]:
            errors.append(f"{g6} has {len(edges)} edges")
        if not lambda_matches(lam, n, edges):
            errors.append(f"{g6}: lambda {lam!r} disagrees with eigvalsh")
    if any(later > earlier + LAMBDA_RTOL * max(1.0, earlier) for earlier, later in zip(lams, lams[1:])):
        errors.append("runner-ups are not in descending lambda order")
    return errors


# -- enumerate -------------------------------------------------------------

def _invariant(n, edges):
    deg = [0] * n
    nbrs = defaultdict(list)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
        nbrs[u].append(v)
        nbrs[v].append(u)
    return (n, tuple(sorted((deg[v], tuple(sorted(deg[w] for w in nbrs[v]))) for v in range(n))))


def check_enumerate(stdout: str, m: int, expected: int):
    """(good, attempted, errors) for an `enumerate --edges m` stream.

    A line is good when it decodes to a graph with m edges and no isolated
    vertex and is not isomorphic to an earlier good line.  Attempted is the
    known class count, or the emitted count when more lines arrive, so a
    dropped or duplicated class is a failed item.
    """
    lines = stdout.split()
    errors = []
    buckets = defaultdict(list)
    good = 0
    for line in lines:
        try:
            n, edges = decode_graph6(line)
        except ValueError as exc:
            errors.append(str(exc))
            continue
        covered = {v for e in edges for v in e}
        if len(edges) != m or len(covered) != n:
            errors.append(f"{line}: {len(edges)} edges, {n - len(covered)} isolated vertices")
            continue
        g = nx.Graph(list(edges))
        bucket = buckets[_invariant(n, edges)]
        if any(nx.is_isomorphic(g, h) for h in bucket):
            errors.append(f"{line}: isomorphic to an earlier line")
            continue
        bucket.append(g)
        good += 1
    if len(lines) < expected:
        errors.append(f"{expected - len(lines)} classes missing")
    return good, max(expected, len(lines)), errors


# -- certify ---------------------------------------------------------------

def expected_exit_code(cert: dict) -> int:
    """The documented `verify` exit code for a certificate."""
    ok = cert["theta_free"]
    eq = cert["equality_case"]
    if ok and cert["lambda"] is not None and cert["bound"] is not None:
        ok = cert["lambda"] <= cert["bound"] + 1e-9 or eq["claimed"]
    if ok and eq["claimed"]:
        ok = eq["iso_to_book"]
    return 0 if ok else 1


def check_certificate(item: dict, code, stdout: str) -> list[str]:
    """Errors in one `verify --json` answer for a corpus item; empty when right."""
    n, edges = item["n"], item["edges"]
    try:
        cert = json.loads(stdout)
        graph = decode_graph6(cert["graph6"])
        free, lam, bound = cert["theta_free"], cert["lambda"], cert["bound"]
        claimed = cert["equality_case"]["claimed"]
        iso_to_book = cert["equality_case"]["iso_to_book"]
        want = expected_exit_code(cert)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"unreadable certificate: {exc!r}"]
    errors = []
    if graph != (n, edges):
        errors.append("certificate graph6 is not the input graph")
    if cert.get("m") != len(edges):
        errors.append(f"m={cert.get('m')!r}, expected {len(edges)}")
    if free != item["free"]:
        errors.append(f"theta_free={free!r}, built {'free' if item['free'] else 'with a theta'}")
    if not free:
        if not witness_valid(edges, cert.get("witness")):
            errors.append(f"invalid witness {cert.get('witness')!r}")
    elif not lambda_matches(lam, n, edges):
        errors.append(f"lambda {lam!r} disagrees with eigvalsh")
    if not _number(bound) or not math.isclose(bound, closed_form_bound(len(edges)),
                                              rel_tol=LAMBDA_RTOL):
        errors.append(f"bound {bound!r} is not (1 + sqrt(4m - 3)) / 2")
    if item["book"] and free and not (claimed and iso_to_book):
        errors.append("book without a confirmed equality case")
    if code != want:
        errors.append(f"exit code {code!r}, certificate implies {want}")
    return errors
