"""Spectral radius, the Nosal check and the eigenvector identities.

One dense symmetric eigensolve (LAPACK through `numpy.linalg.eigh`) gives
every eigenpair of the adjacency matrix at once; the largest eigenvalue is
the spectral radius and its eigenvector, taken entrywise in absolute value,
is the Perron vector.  The cost depends on the order only, not on the
spectral gap, so a long tree whose top two eigenvalues nearly coincide is
solved as fast as any graph of its order.  The residual |Ax - lambda x| is
measured on the returned pair, and a pair that misses the target raises
ConvergenceError instead of being reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, bit_indices

CONVERGENCE_TOL = 1e-12
COMPARISON_TOL = 1e-9
EQUALITY_TOL = 1e-6


class ConvergenceError(RuntimeError):
    """The eigenpair found misses the residual target."""


@dataclass
class SpectralResult:
    lam: float
    perron: np.ndarray
    residual: float
    iterations: int

    def to_json(self) -> dict:
        return {
            "lambda": self.lam,
            "residual": self.residual,
            "iterations": self.iterations,
            "perron": [float(x) for x in self.perron],
        }


def adjacency_matrix(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for u in range(g.n):
        for v in bit_indices(g.adj[u]):
            a[u, v] = 1.0
    return a


def spectral_radius(g: Graph) -> SpectralResult:
    """Largest adjacency eigenvalue and unit Perron vector of a connected graph.

    `iterations` is always 0: the solve is direct, and the field stays in
    the result and its JSON so their shape does not change.
    """
    if g.n < 1:
        raise ValueError("spectral radius needs at least one vertex")
    if not g.is_connected():
        raise ValueError("spectral radius requires a connected graph")
    a = adjacency_matrix(g)
    w, v = np.linalg.eigh(a)
    lam = float(w[-1])
    x = np.abs(v[:, -1])
    residual = float(np.max(np.abs(a @ x - lam * x)))
    if residual > CONVERGENCE_TOL * max(1.0, lam):
        raise ConvergenceError(
            f"eigenpair residual {residual:.3e} misses the target (n={g.n}, m={g.m})"
        )
    return SpectralResult(lam, x, residual, 0)


def triangle_free(g: Graph) -> bool:
    """Whether no edge has a common neighbour of its two ends."""
    return not any(g.adj[u] & g.adj[v] for u, v in g.edges())


def _complete_bipartite_parts(g: Graph):
    # Sorted part sizes when the connected graph g is complete bipartite,
    # else None.  The parts can only be B = N(0) and A = the rest, and every
    # vertex must be adjacent to exactly the other part.
    b = g.adj[0]
    a = ((1 << g.n) - 1) & ~b
    for v in range(g.n):
        if g.adj[v] != (b if (a >> v) & 1 else a):
            return None
    return tuple(sorted((a.bit_count(), b.bit_count())))


def check_nosal(g: Graph) -> dict:
    """Triangle-free bound report: lambda against sqrt(m), with the equality structure.

    For a triangle-free connected graph the spectral radius is at most
    sqrt(m), with equality exactly for complete bipartite graphs; the
    report flags any violation of either part.
    """
    if not g.is_connected():
        raise ValueError("check_nosal requires a connected graph")
    res = spectral_radius(g)
    tri_free = triangle_free(g)
    sqrt_m = math.sqrt(g.m)
    report = {
        "triangle_free": tri_free,
        "lambda": res.lam,
        "sqrt_m": sqrt_m,
        "satisfied": True,
        "equality_structure": None,
    }
    if tri_free:
        ok = res.lam <= sqrt_m + COMPARISON_TOL
        if ok and g.m >= 1 and abs(res.lam - sqrt_m) <= EQUALITY_TOL:
            parts = _complete_bipartite_parts(g)
            if parts is None:
                ok = False
            else:
                report["equality_structure"] = parts
        report["satisfied"] = ok
    return report


def eigen_identity_check(g: Graph, res: SpectralResult, ustar: int) -> tuple[float, float]:
    """Residuals of the first- and second-order eigenvector identities at ustar.

    Both identities decompose the neighborhood of ustar: the walk count of
    length one equals the sum over neighbors, and the walk count of length
    two splits over the neighborhood's internal degrees and the outside
    vertices' degrees into the neighborhood.  They hold for any vertex of
    any connected graph up to eigensolver error.
    """
    g._check_vertex(ustar)
    lam = res.lam
    x = res.perron
    umask = g.adj[ustar]
    first = abs(lam * float(x[ustar]) - sum(float(x[u]) for u in bit_indices(umask)))
    rhs = umask.bit_count() * float(x[ustar])
    for u in bit_indices(umask):
        du = (g.adj[u] & umask).bit_count()
        if du:
            rhs += du * float(x[u])
    wmask = ((1 << g.n) - 1) & ~umask & ~(1 << ustar)
    for w in bit_indices(wmask):
        dw = (g.adj[w] & umask).bit_count()
        if dw:
            rhs += dw * float(x[w])
    second = abs(lam * lam * float(x[ustar]) - rhs)
    return first, second
