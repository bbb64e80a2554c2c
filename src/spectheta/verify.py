"""Neighborhood decomposition of a concrete graph and executable structure checks.

Everything here is a report, not a proof: the checks evaluate structural
conclusions that are known to hold for the true spectral maximizer among
theta-free graphs of a given size.  Failures on other inputs are expected
and are recorded with witnesses, never raised.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph6 import to_graph6
from .graphs import Graph, bit_indices, vertex_mask
from .spectral import (
    COMPARISON_TOL,
    SpectralResult,
    bound_value,
    extremal_vertex,
    spectral_radius,
)
from .theta import ThetaSpec, contains_theta

_FREENESS_SPEC = ThetaSpec(2, 2, 3)


@dataclass(frozen=True)
class ComponentClass:
    """Exact shape of one nontrivial neighborhood component."""

    kind: str  # star, star_plus_edge, path, cycle, k4, k4_minus_e, other
    size: int | None = None

    def label(self) -> str:
        if self.kind == "star":
            return f"Star({self.size})"
        if self.kind == "path":
            return f"Path({self.size})"
        if self.kind == "cycle":
            return f"Cycle({self.size})"
        return {"star_plus_edge": "StarPlusEdge", "k4": "K4", "k4_minus_e": "K4-e", "other": "Other"}[self.kind]


def classify_component(h: Graph) -> ComponentClass:
    """Match a connected graph with at least one edge against the named shapes."""
    n, m = h.n, h.m
    degrees = sorted(h.degree(v) for v in range(n))
    if m == n - 1 and degrees[-1] == n - 1:
        return ComponentClass("star", n - 1)
    if n == 4 and m == 4 and degrees == [1, 2, 2, 3]:
        return ComponentClass("star_plus_edge")
    if m == n - 1 and degrees == [1, 1] + [2] * (n - 2):
        return ComponentClass("path", n)
    if m == n and degrees == [2] * n:
        return ComponentClass("cycle", n)
    if n == 4 and m == 6:
        return ComponentClass("k4")
    if n == 4 and m == 5 and degrees == [2, 2, 3, 3]:
        return ComponentClass("k4_minus_e")
    return ComponentClass("other")


@dataclass(frozen=True)
class ComponentReport:
    vertices: tuple[int, ...]
    cls: ComponentClass
    w_neighbors: tuple[int, ...]


@dataclass(frozen=True)
class DecompositionReport:
    """Vertex partition around the extremal vertex with the edge-count ledger.

    U is the neighborhood of ustar, W everything outside the closed
    neighborhood; U0/Uplus split U by isolation inside the induced
    subgraph on U.  The ledger satisfies m = |U| + e(Uplus) + e(U, W) + e(W).
    """

    ustar: int
    U: tuple[int, ...]
    W: tuple[int, ...]
    U0: tuple[int, ...]
    Uplus: tuple[int, ...]
    components: tuple[ComponentReport, ...]
    ledger: dict


def decompose(g: Graph, res: SpectralResult, ustar: int | None = None) -> DecompositionReport:
    if not g.is_connected():
        raise ValueError("decompose requires a connected graph")
    if ustar is None:
        ustar = extremal_vertex(res)
    g._check_vertex(ustar)
    umask = g.adj[ustar]
    wmask = ((1 << g.n) - 1) & ~umask & ~(1 << ustar)
    u0 = [u for u in bit_indices(umask) if not g.adj[u] & umask]
    uplus = [u for u in bit_indices(umask) if g.adj[u] & umask]
    components = []
    # Every U-neighbour of a U+ vertex is itself in U+, so the components of
    # the subgraph on U+ are the nontrivial components of the subgraph on U.
    for comp in g.induced(uplus).components():
        verts = tuple(uplus[i] for i in comp)
        wn = 0
        for v in verts:
            wn |= g.adj[v] & wmask
        components.append(
            ComponentReport(verts, classify_component(g.induced(verts)), tuple(bit_indices(wn)))
        )
    u_list = list(bit_indices(umask))
    w_list = list(bit_indices(wmask))
    ledger = {
        "sizeU": len(u_list),
        "eUplus": g.edge_count_between(uplus, uplus),
        "eUW": g.edge_count_between(u_list, w_list),
        "eW": g.edge_count_between(w_list, w_list),
        "m": g.m,
    }
    return DecompositionReport(
        ustar=ustar,
        U=tuple(u_list),
        W=tuple(w_list),
        U0=tuple(u0),
        Uplus=tuple(uplus),
        components=tuple(components),
        ledger=ledger,
    )


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


@dataclass(frozen=True)
class ChecklistEntry:
    id: str
    description: str
    holds: bool
    witness: object = None

    def to_json(self) -> dict:
        out = {"id": self.id, "description": self.description, "holds": self.holds}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass(frozen=True)
class LemmaChecklist:
    entries: tuple[ChecklistEntry, ...]

    @property
    def all_hold(self) -> bool:
        return all(e.holds for e in self.entries)

    def to_json(self) -> list:
        return [e.to_json() for e in self.entries]


def check_lemma_conclusions(g: Graph, report: DecompositionReport) -> LemmaChecklist:
    """Evaluate each maximizer-structure conclusion on this concrete graph.

    Requires a connected graph that is free of the (2,2,3) theta; on
    feasible non-maximizers individual entries may fail, which is data,
    not an error.
    """
    if not g.is_connected():
        raise ValueError("checklist requires a connected graph")
    if contains_theta(g, _FREENESS_SPEC) is not None:
        raise ValueError("checklist requires a (2,2,3)-theta-free graph")
    return _lemma_checklist(g, report)


def _lemma_checklist(g: Graph, report: DecompositionReport) -> LemmaChecklist:
    # check_lemma_conclusions without its precondition checks, for callers
    # that already know g is connected and (2,2,3)-free.  Each entry is the
    # first witness against it, and it holds exactly when there is none.
    umask = vertex_mask(report.U)
    wmask = vertex_mask(report.W)

    def d_u(v):
        return (g.adj[v] & umask).bit_count()

    def first_component(is_bad):
        return next(({"component": list(c.vertices), "class": c.cls.label()}
                     for c in report.components if is_bad(c.cls)), None)

    long_cycle_comps = [c for c in report.components
                        if has_long_cycle(g.induced(c.vertices))]
    entries = (
        ("min_degree_outside_ball",
         "every vertex outside the closed neighborhood of the extremal vertex has degree >= 2",
         next(({"vertex": w, "degree": g.degree(w)} for w in report.W if g.degree(w) < 2),
              None)),
        ("w_degree_cap_near_long_cycles",
         "outside neighbors of a neighborhood component that contains a cycle of "
         "length >= 4 send at most 2 edges into the neighborhood "
         "(vacuous when no such component exists)",
         next(({"component": list(c.vertices), "w_vertex": w, "d_U": d_u(w)}
               for c in long_cycle_comps for w in c.w_neighbors if d_u(w) > 2), None)),
        ("no_long_cycle_in_neighborhood",
         "no component of the neighborhood subgraph contains a cycle of length >= 4",
         next(({"component": list(c.vertices)} for c in long_cycle_comps), None)),
        ("no_edges_outside_ball",
         "the set outside the closed neighborhood of the extremal vertex spans no edge",
         next(({"edge": [u, v]} for u in report.W for v in bit_indices(g.adj[u] & wmask)),
              None)),
        ("no_star_plus_edge_component",
         "no neighborhood component is a star with one extra edge",
         first_component(lambda cls: cls.kind == "star_plus_edge")),
        ("no_triangle_component",
         "no neighborhood component is a triangle",
         first_component(lambda cls: cls == ComponentClass("cycle", 3))),
        ("no_long_path_component",
         "no neighborhood component is a path on >= 4 vertices",
         first_component(lambda cls: cls.kind == "path")),
        ("neighborhood_components_all_stars",
         "every nontrivial component of the neighborhood subgraph is a star",
         first_component(lambda cls: cls.kind != "star")),
    )
    return LemmaChecklist(tuple(ChecklistEntry(entry_id, text, witness is None, witness)
                                for entry_id, text, witness in entries))


def inequality_one_check(g: Graph, report: DecompositionReport,
                         res: SpectralResult) -> dict:
    """Evaluate the weighted edge-budget inequality around the extremal vertex.

    Applicable when lambda^2 - lambda >= m - 1; the true maximizer
    satisfies lhs >= rhs, so slack = lhs - rhs is nonnegative there.  Both
    sides are reported for any input.
    """
    lam = res.lam
    x = res.perron
    xs = float(x[report.ustar])
    umask = vertex_mask(report.U)
    lhs = 0.0
    for u in report.Uplus:
        du = (g.adj[u] & umask).bit_count()
        lhs += (du - 1) * float(x[u]) / xs
    for w in report.W:
        dw = (g.adj[w] & umask).bit_count()
        lhs += dw * float(x[w]) / xs
    rhs = (report.ledger["eUplus"] + report.ledger["eUW"] + report.ledger["eW"]
           + sum(float(x[u]) / xs for u in report.U0) - 1.0)
    return {
        "applicable": lam * lam - lam >= g.m - 1 - COMPARISON_TOL,
        "lhs": lhs,
        "rhs": rhs,
        "slack": lhs - rhs,
    }


def is_book(g: Graph) -> bool:
    """Whether g is two adjacent hubs joined to (m - 1)/2 independent pages.

    That is m = 2n - 3 with two vertices adjacent to all others: two such
    hubs already carry 2(n - 1) - 1 = 2n - 3 edges, so no other edge
    exists.  With n = 2 this is the zero-page book, K2.
    """
    return g.m == 2 * g.n - 3 and sum(r.bit_count() == g.n - 1 for r in g.adj) >= 2


def verify_theorem_instance(g: Graph, spec: ThetaSpec = _FREENESS_SPEC) -> dict:
    """Full certificate: freeness, spectral radius against the closed-form
    bound, and the structure checks, with every skip recorded as null.

    The structure keys are filled only for connected spec-free graphs, and
    the lemma checklist only when such a graph is also (2,2,3)-free,
    whatever spec the freeness test uses.
    """
    witness = contains_theta(g, spec)
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
        cert["witness"] = witness.to_json()
    cert["ustar"] = report.ustar if connected else None
    cert["ledger"] = report.ledger if connected else None
    cert["components"] = [
        {"vertices": list(c.vertices), "class": c.cls.label()} for c in report.components
    ] if connected else None
    # The lemmas are stated for (2,2,3)-free graphs; under that spec the
    # freeness search above has already answered.
    free_223 = connected and (spec == _FREENESS_SPEC or contains_theta(g, _FREENESS_SPEC) is None)
    cert["lemmas"] = _lemma_checklist(g, report).to_json() if free_223 else None
    cert["inequality1"] = inequality_one_check(g, report, res) if connected else None
    claimed = lam is not None and bound is not None and abs(lam - bound) <= COMPARISON_TOL
    cert["equality_case"] = {"claimed": claimed, "iso_to_book": claimed and is_book(g)}
    return cert
