import math
import random

import numpy as np
import pytest

from helpers import random_connected_graph

from spectheta import (
    ConvergenceError,
    Graph,
    book,
    bound_value,
    check_nosal,
    complete,
    complete_bipartite,
    cycle,
    eigen_identity_check,
    extremal_vertex,
    path,
    spectral_radius,
    star,
)
from spectheta.spectral import _complete_bipartite_parts

GOLDEN_RATIO = (1 + math.sqrt(5)) / 2


def test_small_exact_values():
    assert spectral_radius(complete(2)).lam == pytest.approx(1.0, abs=1e-11)
    assert spectral_radius(star(5)).lam == pytest.approx(2.0, abs=1e-11)
    assert spectral_radius(book(3)).lam == pytest.approx(3.0, abs=1e-11)
    assert spectral_radius(path(4)).lam == pytest.approx(GOLDEN_RATIO, abs=1e-11)


def test_threshold_book():
    res = spectral_radius(book(28))
    assert book(28).m == 57
    assert res.lam == pytest.approx(8.0, abs=1e-9)


def test_result_contract():
    g = cycle(9)
    res = spectral_radius(g)
    assert res.residual <= 1e-12 * max(1.0, res.lam)
    assert abs(float(np.linalg.norm(res.perron)) - 1.0) <= 1e-12
    assert float(res.perron.min()) > 0
    a = np.zeros((g.n, g.n))
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1.0
    assert float(np.max(np.abs(a @ res.perron - res.lam * res.perron))) <= 1e-11


def test_closed_forms_at_256_vertices():
    cases = (
        (path(256), 2 * math.cos(math.pi / 257)),
        (cycle(256), 2.0),
        (complete_bipartite(128, 128), 128.0),
        (star(256), math.sqrt(255)),
    )
    for g, want in cases:
        res = spectral_radius(g)
        assert res.lam == pytest.approx(want, rel=1e-12, abs=0)
        assert res.residual <= 1e-12 * res.lam
        assert float(res.perron.min()) > 0


def test_tiny_spectral_gap_tree():
    # Caterpillar: a 156-vertex spine with legs at spine vertices 24 and 90.
    # Its two top eigenvalues differ by about 6.5e-7, so power iteration would
    # need ~5e7 steps; a direct solve must not care.  A strictly positive
    # eigenvector of a connected graph belongs to its largest eigenvalue, so
    # the residual and the sign check together pin lambda.
    spine = 156
    edges = [(v, v + 1) for v in range(spine - 1)] + [(24, spine), (90, spine + 1)]
    g = Graph(spine + 2, edges)
    res = spectral_radius(g)
    assert res.iterations == 0
    assert res.residual <= 1e-12 * res.lam
    assert abs(float(np.linalg.norm(res.perron)) - 1.0) <= 1e-12
    assert float(res.perron.min()) > 0
    assert 2.0 < res.lam < 2.1


def test_residual_guard_raises(monkeypatch):
    exact = np.linalg.eigh

    def perturbed(a):
        w, v = exact(a)
        return w + 1e-6, v

    monkeypatch.setattr(np.linalg, "eigh", perturbed)
    with pytest.raises(ConvergenceError):
        spectral_radius(cycle(9))


def test_matches_dense_eigensolver():
    rng = random.Random(2)
    for _ in range(25):
        g = random_connected_graph(rng, max_n=14)
        a = np.zeros((g.n, g.n))
        for u, v in g.edges():
            a[u, v] = a[v, u] = 1.0
        want = float(np.linalg.eigvalsh(a)[-1])
        assert spectral_radius(g).lam == pytest.approx(want, abs=1e-9)


def test_rejects_disconnected_and_empty():
    with pytest.raises(ValueError):
        spectral_radius(Graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(ValueError):
        spectral_radius(Graph(0))


def test_extremal_vertex():
    g = star(6)
    assert extremal_vertex(g, spectral_radius(g)) == 0
    g = book(3)
    assert extremal_vertex(g, spectral_radius(g)) == 0  # the tied hubs are twins: least id
    g = cycle(6)
    assert extremal_vertex(g, spectral_radius(g)) == 0  # all tie, no twins: canonical order


def test_bound_value():
    assert bound_value(57) == pytest.approx(8.0, abs=1e-12)
    assert bound_value(3) == pytest.approx(2.0, abs=1e-12)
    assert bound_value(7) == pytest.approx(3.0, abs=1e-12)
    assert bound_value(4) == pytest.approx((1 + math.sqrt(13)) / 2, abs=1e-12)
    with pytest.raises(ValueError):
        bound_value(0)


def test_bound_matches_book_lambda():
    for k in (1, 2, 3, 10, 40, 127, 254):
        g = book(k)
        assert spectral_radius(g).lam == pytest.approx(bound_value(g.m), abs=1e-9)


def test_nosal_equality_case():
    report = check_nosal(complete_bipartite(2, 4))
    assert report["triangle_free"] and report["satisfied"]
    assert report["equality_structure"] == (2, 4)
    assert report["lambda"] == pytest.approx(math.sqrt(8), abs=1e-9)


def test_complete_bipartite_parts():
    for s in range(1, 5):
        for t in range(1, 5):
            assert _complete_bipartite_parts(complete_bipartite(s, t)) == tuple(sorted((s, t)))
    for g in (path(4), cycle(6), book(2)):
        assert _complete_bipartite_parts(g) is None


def test_nosal_strict_cases():
    report = check_nosal(cycle(5))
    assert report["satisfied"] and report["equality_structure"] is None
    assert report["lambda"] == pytest.approx(2.0, abs=1e-9)
    report = check_nosal(path(4))
    assert report["satisfied"]
    assert report["lambda"] == pytest.approx(GOLDEN_RATIO, abs=1e-9)
    report = check_nosal(book(2))  # has triangles: bound not claimed
    assert not report["triangle_free"] and report["satisfied"]


def test_eigen_identities_on_named_graphs():
    for g, ustar in ((book(3), 0), (star(7), 0)):
        res = spectral_radius(g)
        first, second = eigen_identity_check(g, res, ustar)
        assert first <= 1e-10 and second <= 1e-10


def test_eigen_identities_random_and_any_vertex():
    rng = random.Random(4)
    for _ in range(30):
        g = random_connected_graph(rng, max_n=10)
        res = spectral_radius(g)
        for ustar in (0, rng.randrange(g.n)):
            first, second = eigen_identity_check(g, res, ustar)
            assert first <= 1e-8 and second <= 1e-8


def test_strict_monotonicity_spot_check():
    g = path(5)
    lam = spectral_radius(g).lam
    assert spectral_radius(g.with_edge(0, 4)).lam > lam + 1e-10
