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
    RadiusFunction,
    normal_space_basis,
    tubular_radius_estimate,
)


def x_axis_r2():
    chart = DifferentiableMap(1, 2, lambda U: np.concatenate([U, 0.0 * U], axis=1))
    return ParametrizedSubmanifold(1, 2, chart, name="x-axis")


def unit_circle():
    chart = DifferentiableMap(
        1,
        2,
        lambda U: np.concatenate([np.cos(U), np.sin(U)], axis=1),
        jac=lambda U: np.stack([-np.sin(U), np.cos(U)], axis=1),
    )
    return ParametrizedSubmanifold(
        1, 2, chart, param_domain=lambda U: (-1.4 < U[:, 0]) & (U[:, 0] < 1.4), name="circle"
    )


def const_radius(value):
    return RadiusFunction(fn=lambda u: value, grid=[np.zeros(1)])


def u_grid(lo, hi, n):
    return [np.array([v]) for v in np.linspace(lo, hi, n)]


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

    psi = TubularEmbedding(
        map=DifferentiableMap(2, 2, fn, jac=jac),
        frame=NormalFrame(g, N),
        delta=delta,
    )
    psi.build_seed_table(u_grid(-1.2, 1.2, 15))
    return psi


class TestBuildChi:
    def test_phi_over_itself_is_identity(self):
        g = euclidean_metric(2)
        N = unit_circle()
        phi = reference_embedding(NormalFrame(g, N), const_radius(0.4))
        phi.build_seed_table(u_grid(-1.2, 1.2, 15))
        chi = build_chi(phi, phi)
        for x in ([1.1, 0.2], [0.8, 0.5], [1.05, -0.3]):
            x = np.array(x)
            assert np.linalg.norm(chi(x) - x) <= 1e-9

    def test_fixes_base_points(self):
        g = euclidean_metric(2)
        N = unit_circle()
        delta = const_radius(0.4)
        psi = circle_psi(g, N, delta)
        phi = reference_embedding(NormalFrame(g, N), delta)
        chi = build_chi(psi, phi)
        for u in u_grid(-1.0, 1.0, 7):
            p = N.point(u)
            assert np.linalg.norm(chi(p) - p) <= 1e-8

    def test_straightens_curved_fibers(self):
        g = euclidean_metric(2)
        N = unit_circle()
        delta = const_radius(0.4)
        psi = circle_psi(g, N, delta)
        phi = reference_embedding(NormalFrame(g, N), delta)
        chi = build_chi(psi, phi)
        theta, s = 0.6, 0.25
        x = psi(np.array([theta]), np.array([s]))
        expected = (1 + s) * np.array([np.cos(theta), np.sin(theta)])
        assert np.linalg.norm(chi(x) - expected) <= 1e-8


class TestCorrectionEta:
    def test_identity_chi_has_zero_eta(self):
        g = euclidean_metric(2)
        N = x_axis_r2()
        chi = DifferentiableMap(2, 2, lambda X: X.copy())
        corr = correction_eta(chi, g, N, np.array([0.3]))
        assert np.max(np.abs(corr.eta)) <= 1e-9

    def test_shear_hand_oracle(self):
        # chi(x, y) = (x + a y, y): d(chi) e2 = e2 + a e1
        a = 0.7
        g = euclidean_metric(2)
        N = x_axis_r2()
        chi = DifferentiableMap(2, 2, lambda X: np.stack([X[:, 0] + a * X[:, 1], X[:, 1]], axis=1))
        corr = correction_eta(chi, g, N, np.array([0.0]))
        assert np.allclose(corr.apply(np.array([0.0, 1.0])), [a, 0.0], atol=1e-8)

    def test_normal_stretch_rejected(self):
        g = euclidean_metric(2)
        N = x_axis_r2()
        chi = DifferentiableMap(2, 2, lambda X: np.stack([X[:, 0], 2.0 * X[:, 1]], axis=1))
        with pytest.raises(DecompositionFailure):
            correction_eta(chi, g, N, np.array([0.0]))


class TestPullbackMetric:
    def test_identity_gives_reference(self):
        g_ref = euclidean_metric(2)
        chi = identity_chart(DifferentiableMap(2, 2, lambda X: X.copy(), jac=eye_lanes))
        g = pullback_metric(chi, g_ref)
        assert np.allclose(g.matrix(np.array([0.3, -0.8])), np.eye(2), atol=1e-12)

    def test_linear_map_congruence(self):
        A = np.array([[1.0, 0.5], [0.0, 2.0]])
        g_ref = euclidean_metric(2)
        chi = identity_chart(
            DifferentiableMap(2, 2, lambda X: X @ A.T, jac=lambda X: np.tile(A, (len(X), 1, 1)))
        )
        g = pullback_metric(chi, g_ref)
        assert np.allclose(g.matrix(np.zeros(2)), A.T @ A, atol=1e-12)

    def test_curve_lengths_preserved(self):
        g_ref = euclidean_metric(2)
        fn = lambda X: X + 0.05 * np.stack([X[:, 1] ** 2, X[:, 0] ** 2], axis=1)
        chi = identity_chart(DifferentiableMap(2, 2, fn))
        g = pullback_metric(chi, g_ref)
        # t is the column of quadrature nodes; rows are points of the curve
        curve = lambda t: np.hstack([0.2 + 0.5 * t, -0.1 + 0.3 * t * t])
        dcurve = lambda t: np.hstack([np.full_like(t, 0.5), 0.6 * t])
        h = 1e-6
        img = lambda t: chi(curve(t))
        dimg = lambda t: (img(t + h) - img(t - h)) / (2 * h)
        la = curve_length(g, curve, dcurve)
        lb = curve_length(g_ref, img, dimg)
        assert la == pytest.approx(lb, rel=1e-6)


class TestDiagramAndIsometry:
    def make_pipeline(self):
        g_ref = euclidean_metric(2)
        N = unit_circle()
        delta = const_radius(0.4)
        psi = circle_psi(g_ref, N, delta)
        phi = reference_embedding(NormalFrame(g_ref, N), delta)
        chi = build_chi(psi, phi, domain=ring_domain)
        g = pullback_metric(chi, g_ref)
        return g_ref, N, psi, chi, g

    def test_diagram_small_sample(self):
        _, _, psi, _, g = self.make_pipeline()
        samples = [
            (np.array([u]), np.array([c]))
            for u in (-0.5, 0.2, 0.9)
            for c in (-0.12, 0.1, 0.3)
        ]
        rep = verify_main_diagram(psi, g, samples, exp_tol=1e-9)
        assert rep.sample_count == 9
        assert rep.max_residual <= 1e-5
        # the samples are lanes: each residual is the one it gets alone
        alone = [verify_main_diagram(psi, g, [s], exp_tol=1e-9).max_residual for s in samples]
        assert rep.max_residual == max(alone)

    def test_sample_beyond_radius_exits(self):
        _, _, psi, _, g = self.make_pipeline()
        with pytest.raises(NotInDomain):
            verify_main_diagram(psi, g, [(np.array([0.0]), np.array([1.5]))])

    def test_identity_chi_zero_residual(self):
        g_ref = euclidean_metric(2)
        N = x_axis_r2()
        chi = DifferentiableMap(2, 2, lambda X: X.copy(), jac=eye_lanes)
        r = isometry_geodesic_check(
            chi, g_ref, g_ref, N, np.array([0.2]), np.array([0.0, 0.3])
        )
        assert r <= 1e-10

    def test_curved_case_small_residual(self):
        g_ref, N, psi, chi, g = self.make_pipeline()
        u = np.array([0.3])
        B = normal_space_basis(g, N, u)
        r = isometry_geodesic_check(chi, g, g_ref, N, u, 0.2 * B[:, 0], exp_tol=1e-9)
        assert r <= 1e-5

    def test_isometry_lanes_equal_single_base_points(self):
        g_ref, N, psi, chi, g = self.make_pipeline()
        us = np.array([[-0.4], [0.3], [0.8]])
        V = 0.2 * normal_space_basis(g, N, us)[:, :, 0]
        worst = isometry_geodesic_check(chi, g, g_ref, N, us, V, exp_tol=1e-9)
        assert worst.shape == (3,)
        for u, v, w in zip(us, V, worst):
            assert isometry_geodesic_check(chi, g, g_ref, N, u, v, exp_tol=1e-9) == w


def point_2d_jacobian(V):
    """The jacobian of v + 0.1 (v0^2, 0) on lanes."""
    J = eye_lanes(V)
    J[:, 0, 0] = 1.0 + 0.2 * V[:, 0]
    return J


class TestPointCase:
    def test_identity_embedding(self):
        psi = DifferentiableMap(2, 2, lambda V: V.copy(), jac=eye_lanes)
        g, worst = point_case_metric(psi, [np.array([0.3, 0.4]), np.array([-0.5, 0.1])])
        assert worst <= 1e-10
        assert np.allclose(g.matrix(np.array([0.2, 0.7])), np.eye(2), atol=1e-9)

    def test_quadratic_embedding(self):
        psi = DifferentiableMap(
            2,
            2,
            lambda V: V + 0.1 * np.stack([V[:, 0] ** 2, 0.0 * V[:, 0]], axis=1),
            jac=point_2d_jacobian,
        )
        vs = [np.array([0.6, 0.2]), np.array([-0.4, 0.7]), np.array([0.1, -0.9])]
        _, worst = point_case_metric(psi, vs)
        assert worst <= 1e-6

    def test_scaled_differential_rejected(self):
        psi = DifferentiableMap(2, 2, lambda V: 2.0 * V, jac=lambda V: eye_lanes(V, 2.0))
        with pytest.raises(HypothesisFailure):
            point_case_metric(psi, [np.array([0.1, 0.1])])


def point_2d_psi():
    """The point-2d scenario's embedding."""
    return DifferentiableMap(
        2,
        2,
        lambda V: np.stack([V[:, 0] + 0.1 * V[:, 0] ** 2, V[:, 1]], axis=1),
        jac=point_2d_jacobian,
    )


POINT_CASE_SAMPLES = [np.array([0.3, 0.2]), np.array([-0.5, 0.4]), np.array([0.7, -0.6])]


class TestPointCaseIsAPullback:
    def test_metric_is_flat_metric_pulled_back_by_psi_inverse(self):
        psi = point_2d_psi()
        g, _ = point_case_metric(psi, [])
        for y in POINT_CASE_SAMPLES:
            x = solve_inverse(psi, y, y - psi(np.zeros(2)), tol=1e-13)
            A = np.linalg.inv(psi.jacobian(x))
            assert g.matrix(y).tobytes() == (A.T @ A).tobytes()

    def test_christoffel_matches_ambient_stencil(self):
        g, _ = point_case_metric(point_2d_psi(), [])
        ambient = dataclasses.replace(g, christoffel_fn=None)
        for y in POINT_CASE_SAMPLES:
            assert np.max(np.abs(christoffel(g, y) - christoffel(ambient, y))) <= 1e-7

    def test_one_newton_solve_per_christoffel_evaluation(self, monkeypatch):
        g, _ = point_case_metric(point_2d_psi(), [])
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return solve_inverse(*args, **kwargs)

        monkeypatch.setattr(realization, "solve_inverse", counted)
        christoffel(g, POINT_CASE_SAMPLES[0])
        assert len(calls) == 1


def scenario_pipeline(name):
    """psi, chi, the pullback metric and the diagram samples of a built-in
    tube scenario, assembled as its pipeline does."""
    scn = BUILTIN_SCENARIOS[name]
    gt = BACKGROUNDS[scn.background]()
    N, lo, hi = SUBMANIFOLDS[scn.submanifold]()
    grid = _interior_grid(lo, hi, scn.sample("grid"))
    delta = tubular_radius_estimate(gt, N, grid, scn.delta0)
    frame = NormalFrame(gt, N)
    psi = _build_psi(scn, frame, delta)
    psi.build_seed_table(_interior_grid(lo, hi, 15, margin=0.08))
    chi = build_chi(psi, reference_embedding(frame, delta))
    g = pullback_metric(chi, gt)
    points = [psi(u, c) for u, c in _diagram_samples(scn, psi, lo, hi)]
    return psi, chi, g, points


class TestChartStencilChristoffel:
    @pytest.mark.parametrize("name", ["circle", "helix"])
    def test_chi_and_metric_carry_no_history(self, name):
        _, chi, g, points = scenario_pipeline(name)
        x = points[0]
        cold = (chi(x), g.matrix(x), christoffel(g, x))
        _, chi, g, points = scenario_pipeline(name)
        for y in points[:100]:
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
        ambient = dataclasses.replace(g, christoffel_fn=None)
        for x in points[::23]:
            gamma = christoffel(g, x)
            assert np.max(np.abs(gamma - christoffel(ambient, x))) <= 1e-5

    def test_flat_slice_is_exactly_flat(self):
        _, _, g, points = scenario_pipeline("flat-slice")
        for x in points[::17]:
            assert not np.any(christoffel(g, x))

    def test_stencil_outside_chart_domain(self):
        psi, _, g, _ = scenario_pipeline("circle")
        u = np.array([0.2])
        # psi's domain is |c| < 1.2 delta; the stencil reaches 1e-3 further
        x = psi(u, np.array([1.2 * psi.delta(u) - 5e-4]))
        g.matrix(x)
        with pytest.raises(DomainMargin):
            christoffel(g, x)
