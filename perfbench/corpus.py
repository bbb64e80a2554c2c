"""Seeded graph6 corpus for the `certify` workload.

Every category has a fixed item count and fixed sizes, so the cost of a
pass depends on the seed only through vertex labels and the random parts
of the small graphs.  The seed picks leg positions, random trees, random
C4-free graphs and one vertex relabelling per item; the same seed gives a
byte-identical corpus.
"""

from __future__ import annotations

import hashlib
import random

from oracles import encode_graph6

# Why each category is in the corpus; the items it holds follow in GENERATORS.
CATEGORIES = {
    "book": "theta-free book(k): one hub pair with k pages makes contains_theta O(k^3), "
            "run twice per certificate; lambda meets the bound with equality",
    "k2t": "K_{2,t}: theta-free, the same cubic hub-pair cost without the hub edge",
    "path": "long paths: the spectral gap ~3pi^2/n^2 makes power iteration slow; "
            "n=256 takes the long graph6 header",
    "long_spine": "158-vertex caterpillar with gap ~6.5e-7: spectral_radius raises "
                  "ConvergenceError after 10^6 iterations (known defect, one per corpus)",
    "caterpillar": "long caterpillars with two close legs: trees whose iteration converges",
    "spider": "spiders with one hub of degree 5..8: trees with a wide spectral gap",
    "c4free": "random connected C4-free graphs: (2,2,3)-free with varied neighbourhoods "
              "for decompose and the lemma checklist",
    "planted": "C4-free hosts with a planted (2,2,3) theta: early exit and witness output",
}


def book(k):
    return k + 2, [(0, 1)] + [(h, p) for p in range(2, k + 2) for h in (0, 1)]


def k2t(t):
    return t + 2, [(u, 2 + v) for u in range(2) for v in range(t)]


def path(n):
    return n, [(v, v + 1) for v in range(n - 1)]


def caterpillar(spine, legs):
    _, edges = path(spine)
    return spine + len(legs), edges + [(p, spine + i) for i, p in enumerate(legs)]


def long_spine(rng):
    # A leg 24 steps from one end pins lambda_1 - lambda_2 near 6.5e-7 for any
    # second leg in 84..99; power iteration would need ~5e7 steps.
    return caterpillar(156, (24, rng.randint(84, 99)))


def close_legs(rng):
    spine = rng.randint(100, 150)
    first = rng.randint(20, spine - 26)
    return caterpillar(spine, (first, first + rng.randint(1, 5)))


def spider(rng):
    edges = []
    n = 1
    for _ in range(rng.randint(5, 8)):
        prev = 0
        for _ in range(rng.randint(5, 30)):
            edges.append((prev, n))
            prev = n
            n += 1
    return n, edges


def c4free(rng, n=48):
    """Random spanning tree, then random edges that close no 4-cycle."""
    nbrs = [set() for _ in range(n)]
    for v in range(1, n):
        u = rng.randrange(v)
        nbrs[u].add(v)
        nbrs[v].add(u)
    for _ in range(3 * n):
        u, v = rng.sample(range(n), 2)
        if v in nbrs[u]:
            continue
        # A new edge uv closes u-x-y-v-u exactly when some x ~ u meets some y ~ v.
        if any(nbrs[x] & (nbrs[v] - {u, x}) for x in nbrs[u]):
            continue
        nbrs[u].add(v)
        nbrs[v].add(u)
    return n, [(u, v) for u in range(n) for v in nbrs[u] if u < v]


def planted(rng):
    n, edges = c4free(rng, 40)
    a, b, x, y, z1, z2 = rng.sample(range(n), 6)
    theta = [(a, x), (x, b), (a, y), (y, b), (a, z1), (z1, z2), (z2, b)]
    return n, sorted({(min(u, v), max(u, v)) for u, v in edges + theta})


# (category, build function) in corpus order; each takes the seeded generator.
GENERATORS = (
    [("book", lambda rng, k=k: book(k)) for k in (60, 90, 120)]
    + [("k2t", lambda rng, t=t: k2t(t)) for t in (60, 100)]
    + [("path", lambda rng, n=n: path(n)) for n in (180, 256)]
    + [("long_spine", long_spine)]
    + [("caterpillar", close_legs)] * 3
    + [("spider", spider)] * 3
    + [("c4free", c4free)] * 6
    + [("planted", planted)] * 6
)


def make_corpus(seed: int) -> list[dict]:
    rng = random.Random(seed)
    items = []
    for category, build in GENERATORS:
        n, edges = build(rng)
        perm = list(range(n))
        rng.shuffle(perm)
        relabelled = frozenset((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)
        items.append({
            "category": category,
            "graph6": encode_graph6(n, relabelled),
            "n": n,
            "edges": relabelled,
            "free": category != "planted",
            "book": category == "book",
            "known_defect": category == "long_spine",
        })
    return items


def corpus_digest(items) -> str:
    text = "".join(f"{it['category']} {it['graph6']}\n" for it in items)
    return hashlib.sha256(text.encode()).hexdigest()


def category_counts(items) -> dict:
    counts = {}
    for it in items:
        counts[it["category"]] = counts.get(it["category"], 0) + 1
    return counts
