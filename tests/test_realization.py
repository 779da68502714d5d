import dataclasses

import numpy as np
import pytest

from eulertube.embeddings import TubularEmbedding, reference_embedding
from eulertube.errors import (
    DecompositionFailure,
    DomainMargin,
    HypothesisFailure,
    NotInDomain,
)
from eulertube import realization
from eulertube.metrics import christoffel, euclidean_metric
from eulertube.numerics import DifferentiableMap, solve_inverse
from eulertube.realization import (
    ComparisonMap,
    build_chi,
    correction_eta,
    curve_length,
    gauss_legendre,
    isometry_geodesic_check,
    point_case_metric,
    pullback_metric,
    verify_main_diagram,
)
from eulertube.scenarios import (
    BACKGROUNDS,
    BUILTIN_SCENARIOS,
    SUBMANIFOLDS,
    _build_psi,
    _diagram_samples,
    _interior_grid,
)
from eulertube.submanifolds import (
    NormalFrame,
    ParametrizedSubmanifold,
    normal_space_basis,
    tubular_radius_estimate,
)


def x_axis_r2():
    chart = DifferentiableMap(1, 2, lambda U: np.concatenate([U, 0.0 * U], axis=1))
    return ParametrizedSubmanifold(chart)


def unit_circle():
    chart = DifferentiableMap(
        1,
        2,
        lambda U: np.concatenate([np.cos(U), np.sin(U)], axis=1),
        jac=lambda U: np.stack([-np.sin(U), np.cos(U)], axis=1),
    )
    return ParametrizedSubmanifold(chart, -1.4, 1.4)


def u_grid(lo, hi, n):
    return np.linspace(lo, hi, n)[:, None]


def eye_lanes(X, scale=1.0):
    """scale times the identity matrix, once per lane of X."""
    return np.tile(scale * np.eye(X.shape[1]), (len(X), 1, 1))


def ring_domain(X):
    """0.2 < |x| < 1.8 on lanes."""
    r = np.linalg.norm(X, axis=1)
    return (0.2 < r) & (r < 1.8)


def identity_chart(target):
    """A comparison map with the identity as chart and preimage, so chi is
    ``target`` itself and the chart stencil is the ambient stencil."""
    n = target.domain_dim
    chart = DifferentiableMap(n, n, lambda X: X.copy(), jac=eye_lanes)
    return ComparisonMap(chart=chart, target=target, preimage=lambda x: x)


def circle_psi(g, N, delta):
    """Curved circle embedding with a tangential quadratic term."""
    eps = 0.1

    def pieces(UC):
        th, c = UC[:, 0], UC[:, 1:]
        r = np.stack([np.cos(th), np.sin(th)], axis=1)
        t = np.stack([-np.sin(th), np.cos(th)], axis=1)
        return c, r, t

    def fn(UC):
        c, r, t = pieces(UC)
        return (1.0 + c) * r + eps * c * c * t

    def jac(UC):
        c, r, t = pieces(UC)
        return np.stack([(1.0 + c) * t - eps * c * c * r, r + 2 * eps * c * t], axis=2)

    return TubularEmbedding(
        map=DifferentiableMap(2, 2, fn, jac=jac),
        frame=NormalFrame(g, N),
        delta=delta,
        seed_grid=u_grid(-1.2, 1.2, 15),
    )


class TestBuildChi:
    def test_phi_over_itself_is_identity(self):
        g = euclidean_metric(2)
        N = unit_circle()
        frame = NormalFrame(g, N)
        phi = reference_embedding(frame, 0.4)
        chi = build_chi(TubularEmbedding(phi, frame, 0.4, u_grid(-1.2, 1.2, 15)), phi)
        X = np.array([[1.1, 0.2], [0.8, 0.5], [1.05, -0.3]])
        assert np.max(np.linalg.norm(chi(X) - X, axis=1)) <= 1e-9

    def test_fixes_base_points(self):
        g = euclidean_metric(2)
        N = unit_circle()
        delta = 0.4
        psi = circle_psi(g, N, delta)
        phi = reference_embedding(NormalFrame(g, N), delta)
        chi = build_chi(psi, phi)
        P = N.point(u_grid(-1.0, 1.0, 7))
        assert np.max(np.linalg.norm(chi(P) - P, axis=1)) <= 1e-8

    def test_straightens_curved_fibers(self):
        g = euclidean_metric(2)
        N = unit_circle()
        delta = 0.4
        psi = circle_psi(g, N, delta)
        phi = reference_embedding(NormalFrame(g, N), delta)
        chi = build_chi(psi, phi)
        theta, s = 0.6, 0.25
        x = psi(np.array([[theta]]), np.array([[s]]))
        expected = (1 + s) * np.array([np.cos(theta), np.sin(theta)])
        assert np.linalg.norm(chi(x)[0] - expected) <= 1e-8


class TestCorrectionEta:
    def test_identity_chi_has_zero_eta(self):
        g = euclidean_metric(2)
        N = x_axis_r2()
        chi = DifferentiableMap(2, 2, lambda X: X.copy())
        eta = correction_eta(chi, NormalFrame(g, N), np.array([[0.3]]))
        assert eta.shape == (1, 1, 1)
        assert np.max(np.abs(eta)) <= 1e-9

    def test_shear_hand_oracle(self):
        # chi(x, y) = (x + a y, y): d(chi) e2 = e2 + a e1, at every base point
        a = 0.7
        g = euclidean_metric(2)
        N = x_axis_r2()
        chi = DifferentiableMap(2, 2, lambda X: np.stack([X[:, 0] + a * X[:, 1], X[:, 1]], axis=1))
        U = np.array([[0.0], [0.5], [-1.0]])
        eta = correction_eta(chi, NormalFrame(g, N), U)
        # the tangent correction J eta c of the normal vector e2, c = 1
        for J, e in zip(N.tangent_basis(U), eta):
            assert np.allclose(J @ e @ [1.0], [a, 0.0], atol=1e-8)

    def test_normal_stretch_rejected(self):
        g = euclidean_metric(2)
        N = x_axis_r2()
        chi = DifferentiableMap(2, 2, lambda X: np.stack([X[:, 0], 2.0 * X[:, 1]], axis=1))
        with pytest.raises(DecompositionFailure):
            correction_eta(chi, NormalFrame(g, N), np.array([[0.0]]))


class TestPullbackMetric:
    def test_identity_gives_reference(self):
        g_ref = euclidean_metric(2)
        chi = identity_chart(DifferentiableMap(2, 2, lambda X: X.copy(), jac=eye_lanes))
        g = pullback_metric(chi, g_ref)
        assert np.allclose(g.matrix(np.array([[0.3, -0.8]]))[0], np.eye(2), atol=1e-12)

    def test_linear_map_congruence(self):
        A = np.array([[1.0, 0.5], [0.0, 2.0]])
        g_ref = euclidean_metric(2)
        chi = identity_chart(
            DifferentiableMap(2, 2, lambda X: X @ A.T, jac=lambda X: np.tile(A, (len(X), 1, 1)))
        )
        g = pullback_metric(chi, g_ref)
        assert np.allclose(g.matrix(np.zeros((1, 2)))[0], A.T @ A, atol=1e-12)

    def test_curve_lengths_preserved(self):
        g_ref = euclidean_metric(2)
        fn = lambda X: X + 0.05 * np.stack([X[:, 1] ** 2, X[:, 0] ** 2], axis=1)
        chi = identity_chart(DifferentiableMap(2, 2, fn))
        g = pullback_metric(chi, g_ref)
        # t is the column of quadrature nodes; one curve, whose points are rows
        curve = lambda t: np.hstack([0.2 + 0.5 * t, -0.1 + 0.3 * t * t])[None]
        dcurve = lambda t: np.hstack([np.full_like(t, 0.5), 0.6 * t])[None]
        h = 1e-6
        img = lambda t: chi(curve(t)[0])[None]
        dimg = lambda t: (img(t + h) - img(t - h)) / (2 * h)
        la = curve_length(g, curve, dcurve)
        lb = curve_length(g_ref, img, dimg)
        assert la.shape == (1,)
        assert la[0] == pytest.approx(lb[0], rel=1e-6)


@pytest.mark.parametrize("order", range(1, 41))
def test_golub_welsch_rule_matches_leggauss(order):
    nodes, weights = gauss_legendre(order)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(order)
    assert np.max(np.abs(nodes - ref_nodes)) <= 1e-14
    assert np.max(np.abs(weights - ref_weights)) <= 1e-14


class TestDiagramAndIsometry:
    def make_pipeline(self):
        g_ref = euclidean_metric(2)
        N = unit_circle()
        delta = 0.4
        psi = circle_psi(g_ref, N, delta)
        phi = reference_embedding(NormalFrame(g_ref, N), delta)
        chi = build_chi(psi, phi, domain=ring_domain)
        g = pullback_metric(chi, g_ref)
        return g_ref, N, psi, chi, g

    def test_diagram_small_sample(self):
        _, _, psi, _, g = self.make_pipeline()
        U = np.repeat([[-0.5], [0.2], [0.9]], 3, axis=0)
        C = np.tile([[-0.12], [0.1], [0.3]], (3, 1))
        residuals = verify_main_diagram(psi.frame, psi.map, g, U, C, exp_tol=1e-9)
        assert residuals.shape == (9,)
        assert np.max(residuals) <= 1e-5
        # the samples are lanes: each residual is the one it gets alone
        for i in range(len(U)):
            alone = verify_main_diagram(
                psi.frame, psi.map, g, U[i : i + 1], C[i : i + 1], exp_tol=1e-9
            )
            assert alone.tobytes() == residuals[i : i + 1].tobytes()

    def test_sample_beyond_radius_exits(self):
        _, _, psi, _, g = self.make_pipeline()
        with pytest.raises(NotInDomain):
            verify_main_diagram(psi.frame, psi.map, g, np.array([[0.0]]), np.array([[1.5]]))

    def test_identity_chi_zero_residual(self):
        g_ref = euclidean_metric(2)
        N = x_axis_r2()
        chi = DifferentiableMap(2, 2, lambda X: X.copy(), jac=eye_lanes)
        r = isometry_geodesic_check(
            chi, g_ref, g_ref, N, np.array([[0.2]]), np.array([[0.0, 0.3]])
        )
        assert r.shape == (1,)
        assert r[0] <= 1e-10

    def test_curved_case_small_residual(self):
        g_ref, N, psi, chi, g = self.make_pipeline()
        u = np.array([[0.3]])
        B = normal_space_basis(g, N, u)
        r = isometry_geodesic_check(chi, g, g_ref, N, u, 0.2 * B[:, :, 0], exp_tol=1e-9)
        assert r[0] <= 1e-5

    def test_isometry_lanes_equal_single_base_points(self):
        g_ref, N, psi, chi, g = self.make_pipeline()
        us = np.array([[-0.4], [0.3], [0.8]])
        V = 0.2 * normal_space_basis(g, N, us)[:, :, 0]
        worst = isometry_geodesic_check(chi, g, g_ref, N, us, V, exp_tol=1e-9)
        assert worst.shape == (3,)
        for u, v, w in zip(us, V, worst):
            alone = isometry_geodesic_check(chi, g, g_ref, N, u[None], v[None], exp_tol=1e-9)
            assert alone.tobytes() == w.tobytes()


def point_2d_jacobian(V):
    """The jacobian of v + 0.1 (v0^2, 0) on lanes."""
    J = eye_lanes(V)
    J[:, 0, 0] = 1.0 + 0.2 * V[:, 0]
    return J


class TestPointCase:
    def test_identity_embedding(self):
        psi = DifferentiableMap(2, 2, lambda V: V.copy(), jac=eye_lanes)
        g, worst = point_case_metric(psi, np.array([[0.3, 0.4], [-0.5, 0.1]]))
        assert worst <= 1e-10
        assert np.allclose(g.matrix(np.array([[0.2, 0.7]]))[0], np.eye(2), atol=1e-9)

    def test_quadratic_embedding(self):
        psi = DifferentiableMap(
            2,
            2,
            lambda V: V + 0.1 * np.stack([V[:, 0] ** 2, 0.0 * V[:, 0]], axis=1),
            jac=point_2d_jacobian,
        )
        vs = np.array([[0.6, 0.2], [-0.4, 0.7], [0.1, -0.9]])
        _, worst = point_case_metric(psi, vs)
        assert worst <= 1e-6

    def test_scaled_differential_rejected(self):
        psi = DifferentiableMap(2, 2, lambda V: 2.0 * V, jac=lambda V: eye_lanes(V, 2.0))
        with pytest.raises(HypothesisFailure):
            point_case_metric(psi, np.array([[0.1, 0.1]]))


def point_2d_psi():
    """The point-2d scenario's embedding."""
    return DifferentiableMap(
        2,
        2,
        lambda V: np.stack([V[:, 0] + 0.1 * V[:, 0] ** 2, V[:, 1]], axis=1),
        jac=point_2d_jacobian,
    )


POINT_CASE_SAMPLES = np.array([[0.3, 0.2], [-0.5, 0.4], [0.7, -0.6]])


class TestPointCaseIsAPullback:
    def test_metric_is_flat_metric_pulled_back_by_psi_inverse(self):
        psi = point_2d_psi()
        g, _ = point_case_metric(psi, np.zeros((0, 2)))
        for y in POINT_CASE_SAMPLES[:, None]:
            x = solve_inverse(psi, y, y - psi(np.zeros((1, 2))), tol=1e-13)
            A = np.linalg.inv(psi.jacobian(x)[0])
            assert g.matrix(y)[0].tobytes() == (A.T @ A).tobytes()

    def test_christoffel_matches_ambient_stencil(self):
        g, _ = point_case_metric(point_2d_psi(), np.zeros((0, 2)))
        ambient = dataclasses.replace(g, christoffel_fn=None, fd_step=5e-4)
        for y in POINT_CASE_SAMPLES[:, None]:
            assert np.max(np.abs(christoffel(g, y) - christoffel(ambient, y))) <= 1e-7

    def test_one_newton_solve_per_christoffel_evaluation(self, monkeypatch):
        g, _ = point_case_metric(point_2d_psi(), np.zeros((0, 2)))
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return solve_inverse(*args, **kwargs)

        monkeypatch.setattr(realization, "solve_inverse", counted)
        christoffel(g, POINT_CASE_SAMPLES[:1])
        assert len(calls) == 1


def scenario_pipeline(name):
    """psi, chi, the pullback metric and the diagram samples of a built-in
    tube scenario, assembled as its pipeline does."""
    scn = BUILTIN_SCENARIOS[name]
    gt = BACKGROUNDS[scn.background]()
    N = SUBMANIFOLDS[scn.submanifold]()
    grid = _interior_grid(N, scn.sample("grid"))
    frame = NormalFrame(gt, N)
    delta = tubular_radius_estimate(frame, grid, scn.delta0)
    psi = _build_psi(scn, frame, delta)
    chi = build_chi(psi, reference_embedding(frame, delta))
    g = pullback_metric(chi, gt)
    return psi, chi, g, psi(*_diagram_samples(scn, psi))


class TestChartStencilChristoffel:
    @pytest.mark.parametrize("name", ["circle", "helix"])
    def test_chi_and_metric_carry_no_history(self, name):
        _, chi, g, points = scenario_pipeline(name)
        x = points[:1]
        cold = (chi(x), g.matrix(x), christoffel(g, x))
        _, chi, g, points = scenario_pipeline(name)
        for y in points[:100, None]:
            chi(y)
            g.matrix(y)
        chi(x + 0.01)
        g.matrix(x + 0.01)
        christoffel(g, x + 0.01)
        warm = (chi(x), g.matrix(x), christoffel(g, x))
        for a, b in zip(cold, warm):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("name", ["circle", "helix", "sphere-equator"])
    def test_matches_ambient_stencil(self, name):
        _, _, g, points = scenario_pipeline(name)
        ambient = dataclasses.replace(g, christoffel_fn=None, fd_step=1e-3)
        X = points[::23]
        assert np.max(np.abs(christoffel(g, X) - christoffel(ambient, X))) <= 1e-5

    def test_flat_slice_is_exactly_flat(self):
        _, _, g, points = scenario_pipeline("flat-slice")
        assert not np.any(christoffel(g, points[::17]))

    def test_stencil_outside_chart_domain(self):
        psi, _, g, _ = scenario_pipeline("circle")
        u = np.array([[0.2]])
        # psi's domain is |c| < 1.2 delta; the stencil reaches 1e-3 further
        x = psi(u, np.array([[1.2 * psi.delta - 5e-4]]))
        g.matrix(x)
        with pytest.raises(DomainMargin):
            christoffel(g, x)
