"""The one module that knows the theorem: among (2,2,3)-theta-free graphs
with m edges, lambda <= (1 + sqrt(4m - 3)) / 2, with equality only for the
book.  Here are its bound, the vertex u* that its lemmas are stated at, the
structure around u* (the ledger over U = N(u*) and W, the vertices outside
its closed ball, the components of U, the lemma checklist, inequality (1)
and the eigenvector identities), the certificate of one graph with its
verdict, and the table of searched maxima against the bound.  Only this
module builds U and W, in `_ball`.

The results are plain values, as the certificate prints them: the
decomposition is the certificate's `{"ustar", "ledger", "components"}`, a
component shape is a label string such as `Star(3)` or `K4-e`, the lemma
checklist is a list of `{"id", "description", "holds"}` dicts, with a
`"witness"` where a conclusion fails, and a theta witness is the
`{"hubs", "paths"}` dict of `contains_theta`.

Everything here is a report, not a proof: the checks evaluate structural
conclusions that are known to hold for the true spectral maximizer among
theta-free graphs of a given size.  Failures on other inputs are expected
and are recorded with witnesses, never raised.
"""

from __future__ import annotations

import math

from .canon import canonical_order, twin_classes
from .enumeration import DEFAULT_EDGE_BUDGET, _check_edge_budget, extremal_search
from .graph6 import to_graph6
from .graphs import Graph, bit_indices
from .spectral import COMPARISON_TOL, SpectralResult, spectral_radius
from .theta import ThetaSpec, contains_theta

_FREENESS_SPEC = ThetaSpec(2, 2, 3)


def bound_value(m: int) -> float:
    """The closed-form spectral bound (1 + sqrt(4m - 3)) / 2 for m edges."""
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"edge count must be a positive integer, got {m!r}")
    return (1.0 + math.sqrt(4 * m - 3)) / 2.0


def is_book(g: Graph) -> bool:
    """Whether g is two adjacent hubs joined to (m - 1)/2 independent pages.

    That is m = 2n - 3 with two vertices adjacent to all others: two such
    hubs already carry 2(n - 1) - 1 = 2n - 3 edges, so no other edge
    exists.  With n = 2 this is the zero-page book, K2.
    """
    return g.m == 2 * g.n - 3 and sum(r.bit_count() == g.n - 1 for r in g.adj) >= 2


def extremal_vertex(g: Graph, res: SpectralResult) -> int:
    """A vertex of largest Perron entry, chosen by the isomorphism class of g.

    The vertices within COMPARISON_TOL of the largest entry are tied.  If
    they form one twin class, an automorphism swaps any two of them, so the
    least id stands for all and no label is needed.  Otherwise the tied
    vertex first in `canonical_order(g)` is taken, which a relabelling of
    g moves along with the graph.
    """
    top = float(res.perron.max())
    tied = [v for v, val in enumerate(res.perron) if val >= top - COMPARISON_TOL]
    if len(twin_classes(g.adj, tied)) == 1:
        return tied[0]
    return next(v for v in canonical_order(g) if v in tied)


def classify_component(h: Graph) -> str:
    """The shape of a connected graph with at least one edge, as the label
    the certificate prints: `Star(k)` (k leaves), `StarPlusEdge`,
    `Path(n)` (n >= 4 vertices), `Cycle(n)`, `K4`, `K4-e` or `Other`.

    `StarPlusEdge` is only the paw, a star with three leaves plus an edge
    between two of them.  With four or more leaves, the cone over a star
    plus an edge holds a (2,2,3) theta (checked with `contains_theta` for
    4..7 leaves), so no such neighborhood component occurs in a free graph.
    """
    n, m = h.n, h.m
    degrees = sorted(h.degree(v) for v in range(n))
    if m == n - 1 and degrees[-1] == n - 1:
        return f"Star({n - 1})"
    if n == 4 and m == 4 and degrees == [1, 2, 2, 3]:
        return "StarPlusEdge"
    if m == n - 1 and degrees == [1, 1] + [2] * (n - 2):
        return f"Path({n})"
    if m == n and degrees == [2] * n:
        return f"Cycle({n})"
    if n == 4 and m == 6:
        return "K4"
    if n == 4 and m == 5 and degrees == [2, 2, 3, 3]:
        return "K4-e"
    return "Other"


def _ball(g: Graph, ustar: int) -> tuple[int, int]:
    # U = N(u*) and W, the vertices outside the closed ball, as bitmasks.
    umask = g.adj[ustar]
    return umask, ((1 << g.n) - 1) & ~umask & ~(1 << ustar)


def decompose(g: Graph, res: SpectralResult, ustar: int | None = None) -> dict:
    """The structure around u*, as the certificate's `{"ustar", "ledger",
    "components"}`.

    u* defaults to `extremal_vertex(g, res)`.  U is the neighbourhood of
    u*, W the vertices outside its closed neighbourhood, and U+ the
    vertices of U with a neighbour in U.  The ledger `{"sizeU", "eUplus",
    "eUW", "eW", "m"}` satisfies m = |U| + e(U+) + e(U, W) + e(W), since
    every edge at u* goes into U and an edge inside U lies inside U+.  The
    components are those of the subgraph on U+, each as `{"vertices",
    "class"}` with the label of `classify_component`.
    """
    if not g.is_connected():
        raise ValueError("decompose requires a connected graph")
    if ustar is None:
        ustar = extremal_vertex(g, res)
    g._check_vertex(ustar)
    umask, wmask = _ball(g, ustar)

    def ends(xmask, ymask):
        # Edge ends in xmask whose other end is in ymask.
        return sum((g.adj[v] & ymask).bit_count() for v in bit_indices(xmask))

    ledger = {"sizeU": umask.bit_count(), "eUplus": ends(umask, umask) // 2,
              "eUW": ends(umask, wmask), "eW": ends(wmask, wmask) // 2, "m": g.m}
    uplus = [u for u in bit_indices(umask) if g.adj[u] & umask]
    # Every U-neighbour of a U+ vertex is itself in U+, so the components of
    # the subgraph on U+ are the nontrivial components of the subgraph on U.
    components = []
    for comp in g.induced(uplus).components():
        verts = [uplus[i] for i in comp]
        components.append({"vertices": verts, "class": classify_component(g.induced(verts))})
    return {"ustar": ustar, "ledger": ledger, "components": components}


def eigen_identity_check(g: Graph, res: SpectralResult, ustar: int) -> tuple[float, float]:
    """Residuals of the first- and second-order eigenvector identities at ustar.

    With U = N(ustar) and W the vertices outside its closed ball, lambda
    x_ustar = sum_U x_u, and lambda^2 x_ustar = |U| x_ustar + sum_U d_U(u)
    x_u + sum_W d_U(w) x_w, where d_U counts neighbours in U: the walks of
    length one and two from ustar, split by where they end.  Both hold at
    any vertex of any connected graph up to eigensolver error.
    """
    g._check_vertex(ustar)
    lam, x = res.lam, res.perron
    xs = float(x[ustar])
    umask, wmask = _ball(g, ustar)
    first = abs(lam * xs - sum(float(x[u]) for u in bit_indices(umask)))
    rhs = umask.bit_count() * xs
    for v in bit_indices(umask | wmask):
        rhs += (g.adj[v] & umask).bit_count() * float(x[v])
    return first, abs(lam * lam * xs - rhs)


def has_long_cycle(h: Graph) -> bool:
    """Whether h contains a cycle of length at least four as a subgraph.

    h has no such cycle exactly when every edge lies in at most one
    triangle and the triangle count equals the cycle rank m - n + c.  If
    every cycle is a triangle, each block is an edge or a triangle, so the
    triangles are edge-disjoint and one per unit of cycle rank.
    Conversely, edge-disjoint triangles are independent in the cycle
    space, so with rank-many of them they span it: every cycle is a sum,
    hence a disjoint union, of whole triangles, and a cycle that contains
    a whole triangle is that triangle.
    """
    adj = h.adj
    tri = [(adj[u] & adj[v]).bit_count() for u, v in h.edges()]
    return max(tri, default=0) > 1 or sum(tri) // 3 != h.m - h.n + h.component_count()


def check_lemma_conclusions(g: Graph, report: dict) -> list[dict]:
    """Evaluate each maximizer-structure conclusion on this concrete graph.

    Returns the certificate's `lemmas` list: one `{"id", "description",
    "holds"}` dict per conclusion, with a `"witness"` key when it fails.

    Requires a connected graph that is free of the (2,2,3) theta; on
    feasible non-maximizers individual entries may fail, which is data,
    not an error.
    """
    if not g.is_connected():
        raise ValueError("checklist requires a connected graph")
    if contains_theta(g, _FREENESS_SPEC) is not None:
        raise ValueError("checklist requires a (2,2,3)-theta-free graph")
    return _lemma_checklist(g, report)


def _lemma_checklist(g: Graph, report: dict) -> list[dict]:
    # check_lemma_conclusions without its precondition checks, for callers
    # that already know g is connected and (2,2,3)-free.  Each entry is the
    # first witness against it, and it holds exactly when there is none.
    umask, wmask = _ball(g, report["ustar"])
    components = report["components"]

    def d_u(v):
        return (g.adj[v] & umask).bit_count()

    def w_neighbors(verts):
        rows = 0
        for v in verts:
            rows |= g.adj[v]
        return bit_indices(rows & wmask)

    def first_component(is_bad):
        return next(({"component": c["vertices"], "class": c["class"]}
                     for c in components if is_bad(c["class"])), None)

    long_cycle_comps = [c["vertices"] for c in components
                        if has_long_cycle(g.induced(c["vertices"]))]
    entries = (
        ("min_degree_outside_ball",
         "every vertex outside the closed neighborhood of the extremal vertex has degree >= 2",
         next(({"vertex": w, "degree": g.degree(w)} for w in bit_indices(wmask)
               if g.degree(w) < 2), None)),
        ("w_degree_cap_near_long_cycles",
         "outside neighbors of a neighborhood component that contains a cycle of "
         "length >= 4 send at most 2 edges into the neighborhood "
         "(vacuous when no such component exists)",
         next(({"component": verts, "w_vertex": w, "d_U": d_u(w)}
               for verts in long_cycle_comps for w in w_neighbors(verts) if d_u(w) > 2), None)),
        ("no_long_cycle_in_neighborhood",
         "no component of the neighborhood subgraph contains a cycle of length >= 4",
         next(({"component": verts} for verts in long_cycle_comps), None)),
        ("no_edges_outside_ball",
         "the set outside the closed neighborhood of the extremal vertex spans no edge",
         next(({"edge": [u, v]} for u in bit_indices(wmask)
               for v in bit_indices(g.adj[u] & wmask)), None)),
        ("no_star_plus_edge_component",
         "no neighborhood component is a star with one extra edge",
         first_component(lambda cls: cls == "StarPlusEdge")),
        ("no_triangle_component",
         "no neighborhood component is a triangle",
         first_component(lambda cls: cls == "Cycle(3)")),
        ("no_long_path_component",
         "no neighborhood component is a path on >= 4 vertices",
         first_component(lambda cls: cls.startswith("Path("))),
        ("neighborhood_components_all_stars",
         "every nontrivial component of the neighborhood subgraph is a star",
         first_component(lambda cls: not cls.startswith("Star("))),
    )
    return [{"id": entry_id, "description": text, "holds": witness is None}
            | ({} if witness is None else {"witness": witness})
            for entry_id, text, witness in entries]


def inequality_one_check(g: Graph, report: dict, res: SpectralResult) -> dict:
    """Evaluate the weighted edge-budget inequality around the extremal vertex.

    Applicable when lambda^2 - lambda >= m - 1, that is when lambda is at
    or above the bound; the true maximizer satisfies lhs >= rhs there.
    Both sides are reported for any input.  The inequality is an identity
    in disguise: with x scaled so that x_u* = 1, lhs = lambda^2 - |U| -
    sum_U+ x_u by the two eigenvector identities, and rhs = m - |U| - 1 +
    sum_U0 x_u by the ledger, so slack = lhs - rhs = lambda^2 - lambda -
    (m - 1) for any connected graph and any u*, up to rounding.  An
    applicable slack is never negative beyond rounding.
    """
    lam = res.lam
    x = res.perron
    xs = float(x[report["ustar"]])
    umask, wmask = _ball(g, report["ustar"])
    lhs = 0.0
    u0 = []
    for u in bit_indices(umask):
        du = (g.adj[u] & umask).bit_count()
        if du:
            lhs += (du - 1) * float(x[u]) / xs
        else:
            u0.append(u)
    for w in bit_indices(wmask):
        dw = (g.adj[w] & umask).bit_count()
        lhs += dw * float(x[w]) / xs
    ledger = report["ledger"]
    rhs = (ledger["eUplus"] + ledger["eUW"] + ledger["eW"]
           + sum(float(x[u]) / xs for u in u0) - 1.0)
    return {
        "applicable": lam * lam - lam >= g.m - 1 - COMPARISON_TOL,
        "lhs": lhs,
        "rhs": rhs,
        "slack": lhs - rhs,
    }


def verify_theorem_instance(g: Graph) -> dict:
    """Full certificate of the theorem for the (2,2,3) theta: freeness,
    spectral radius against the closed-form bound, and the structure
    checks, with every skip recorded as null.

    The structure keys and the lemma checklist are filled only for
    connected (2,2,3)-free graphs.  Isolated vertices change neither m nor
    lambda, so the book test of the equality case ignores them.
    """
    witness = contains_theta(g, _FREENESS_SPEC)
    free = witness is None
    connected = free and g.is_connected()
    lam = None
    if connected:
        res = spectral_radius(g)
        lam = res.lam
        report = decompose(g, res)
    elif free:
        lam = max((spectral_radius(g.induced(c)).lam for c in g.components()), default=None)
    bound = bound_value(g.m) if g.m >= 1 else None
    cert: dict = {"graph6": to_graph6(g), "m": g.m, "lambda": lam, "bound": bound,
                  "theta_free": free}
    if not free:
        cert["witness"] = witness
    if connected:
        cert |= report
        cert["lemmas"] = _lemma_checklist(g, report)
        cert["inequality1"] = inequality_one_check(g, report, res)
    else:
        cert |= dict.fromkeys(("ustar", "ledger", "components", "lemmas", "inequality1"))
    claimed = lam is not None and bound is not None and abs(lam - bound) <= COMPARISON_TOL
    iso_to_book = claimed and is_book(g.induced(v for v in range(g.n) if g.adj[v]))
    cert["equality_case"] = {"claimed": claimed, "iso_to_book": iso_to_book}
    return cert


def certificate_holds(cert: dict) -> bool:
    """Whether a certificate agrees with the theorem: the graph is
    (2,2,3)-free, lambda is within COMPARISON_TOL of the bound or below it
    (a null one is not checked), and only a book claims equality.
    """
    lam, bound, eq = cert["lambda"], cert["bound"], cert["equality_case"]
    return (cert["theta_free"]
            and (lam is None or bound is None or lam <= bound + COMPARISON_TOL)
            and (not eq["claimed"] or eq["iso_to_book"]))


def extremal_table(m_list, *, budget: int = DEFAULT_EDGE_BUDGET) -> list[dict]:
    """Rows comparing the searched (2,2,3)-free maximum against the bound.

    m_list is a sequence of edge counts; every one is checked against the
    budget before the first search, and the check stops at the first m
    that fails, so a huge range costs nothing.  The gap may be negative
    for small m; the closed form is only claimed from a much larger size
    onward, so small-m rows are empirical data.
    """
    for m in m_list:
        _check_edge_budget(m, budget)
    rows = []
    for m in m_list:
        rec = extremal_search(m, _FREENESS_SPEC, budget=budget)
        bound = bound_value(m)
        rows.append(
            {
                "m": m,
                "best_lambda": rec.best_lambda,
                "bound": bound,
                "gap": bound - rec.best_lambda,
                "best_graph6": rec.best_graph6,
            }
        )
    return rows
