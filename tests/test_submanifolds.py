from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulertube.errors import NoValidRadius, RankDeficient
from eulertube.metrics import (
    MetricField,
    euclidean_metric,
    exp_map,
    polar_metric,
    sphere_chart_metric,
)
from eulertube.numerics import DifferentiableMap
from eulertube.scenarios import BACKGROUNDS, BUILTIN_SCENARIOS, SUBMANIFOLDS, _interior_grid
from eulertube import submanifolds
from eulertube.submanifolds import (
    NormalFrame,
    ParametrizedSubmanifold,
    fiber_axis_samples,
    normal_exponential,
    normal_representative,
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
    return ParametrizedSubmanifold(chart)


def test_x_axis_normal_basis():
    basis = normal_space_basis(euclidean_metric(2), x_axis_r2(), np.array([[0.7]]))
    assert basis.shape == (1, 2, 1)
    assert np.allclose(basis[0, :, 0], [0.0, 1.0], atol=1e-12)


def test_circle_normal_is_radial():
    g = euclidean_metric(2)
    N = unit_circle()
    for theta in (0.0, 0.9, -1.1):
        B = normal_space_basis(g, N, np.array([[theta]]))
        assert np.allclose(B[0, :, 0], [np.cos(theta), np.sin(theta)], atol=1e-10)
    # past cos(theta) = 0 the deterministic convention flips the sign
    B = normal_space_basis(g, N, np.array([[2.5]]))
    assert np.allclose(B[0, :, 0], [-np.cos(2.5), -np.sin(2.5)], atol=1e-10)


def test_basis_orthonormal_under_skew_metric():
    G = np.array([[2.0, 0.3], [0.3, 1.0]])
    g = MetricField(dim=2, matrix_fn=lambda X: G + np.zeros((len(X), 1, 1)))
    N = x_axis_r2()
    B = normal_space_basis(g, N, np.array([[0.2]]))[0]
    J = N.tangent_basis(np.array([[0.2]]))[0]
    assert abs(B[:, 0] @ G @ B[:, 0] - 1.0) <= 1e-10
    assert abs(B[:, 0] @ G @ J[:, 0]) <= 1e-10


def test_rank_deficient_chart():
    chart = DifferentiableMap(1, 2, lambda U: np.concatenate([U**2, 0.0 * U], axis=1))
    N = ParametrizedSubmanifold(chart)
    with pytest.raises(RankDeficient):
        normal_space_basis(euclidean_metric(2), N, np.array([[0.0]]))


def test_frame_smooth_along_circle():
    g = euclidean_metric(2)
    N = unit_circle()
    h = 1e-3
    for theta in np.linspace(-1.2, 1.2, 25):
        d = (
            normal_space_basis(g, N, np.array([[theta + h]]))
            - normal_space_basis(g, N, np.array([[theta - h]]))
        ) / (2 * h)
        assert np.linalg.norm(d) <= 2.0  # bounded, in particular no sign flip


def skew_constant_metric(n):
    G = np.eye(n) + 0.3 * (np.eye(n, k=1) + np.eye(n, k=-1))
    return MetricField(dim=n, matrix_fn=lambda X: G + np.zeros((len(X), 1, 1)))


def skew_varying_metric_3d():
    def G(X):
        out = np.zeros((len(X), 3, 3))
        out[:, 0, 0] = 2.0 + np.sin(X[:, 0])
        out[:, 0, 1] = out[:, 1, 0] = 0.3 * X[:, 1]
        out[:, 1, 1] = 1.0 + X[:, 2] ** 2
        out[:, 1, 2] = out[:, 2, 1] = 0.2 * np.cos(X[:, 0])
        out[:, 0, 2] = out[:, 2, 0] = 0.1
        out[:, 2, 2] = 1.5
        return out

    return MetricField(dim=3, matrix_fn=G)


def polar_curve():
    chart = DifferentiableMap(
        1,
        2,
        lambda U: np.concatenate([1.0 + 0.3 * np.sin(U), U], axis=1),
        jac=lambda U: np.stack([0.3 * np.cos(U), 1.0 + 0.0 * U], axis=1),
    )
    return ParametrizedSubmanifold(chart, -1.2, 1.2)


def graph_surface():
    """z = 0.3 x^2 + 0.2 x y - 0.1 y^2 over the whole (x, y) plane: k = 2
    inside R^3.

    The frame's first vector flips sign where dz/dx = 0, so the samples
    (v, -0.6 v) stay at v > 0 (``GRAPH_SWEEP``)."""

    def fn(U):
        x, y = U[:, 0], U[:, 1]
        return np.stack([x, y, 0.3 * x**2 + 0.2 * x * y - 0.1 * y**2], axis=1)

    def jac(U):
        x, y = U[:, 0], U[:, 1]
        J = np.zeros((len(U), 3, 2))
        J[:, 0, 0] = J[:, 1, 1] = 1.0
        J[:, 2, 0] = 0.6 * x + 0.2 * y
        J[:, 2, 1] = 0.2 * x - 0.2 * y
        return J

    chart = DifferentiableMap(2, 3, fn, jac=jac)
    return ParametrizedSubmanifold(chart)


GRAPH_SWEEP = (0.1, 1.0)


# every built-in tube submanifold with its background, then metrics whose
# matrix is not the identity (constant and varying) so the dG term counts,
# and a surface for k > 1
FRAME_CASES = {
    "line-3d": (BACKGROUNDS["euclidean-3d"], SUBMANIFOLDS["line-3d"]),
    "circle-arc": (BACKGROUNDS["euclidean-2d"], SUBMANIFOLDS["circle-arc"]),
    "circle-full": (BACKGROUNDS["euclidean-2d"], SUBMANIFOLDS["circle-full"]),
    "helix-arc": (BACKGROUNDS["euclidean-3d"], SUBMANIFOLDS["helix-arc"]),
    "sphere-equator-arc": (BACKGROUNDS["sphere-chart"], SUBMANIFOLDS["sphere-equator-arc"]),
    "circle-arc-skew": (lambda: skew_constant_metric(2), SUBMANIFOLDS["circle-arc"]),
    "helix-arc-skew": (lambda: skew_constant_metric(3), SUBMANIFOLDS["helix-arc"]),
    "helix-arc-varying": (skew_varying_metric_3d, SUBMANIFOLDS["helix-arc"]),
    "polar": (polar_metric, polar_curve),
    "graph-surface": (BACKGROUNDS["euclidean-3d"], graph_surface),
    "graph-surface-varying": (skew_varying_metric_3d, graph_surface),
}


def test_frame_derivative_of_the_circle_is_its_closed_form():
    # the normal of the unit circle is r(u) = (cos u, sin u) while cos u > 0,
    # so dB/du is the unit tangent (-sin u, cos u) and dJ/du is -r(u)
    g = BACKGROUNDS["euclidean-2d"]()
    N = SUBMANIFOLDS["circle-arc"]()
    u = np.linspace(N.lo + 0.05, N.hi - 0.05, 9)[:, None]
    fp = NormalFrame(g, N).derivative(u)
    assert np.array_equal(fp.B, normal_space_basis(g, N, u))
    r = np.concatenate([np.cos(u), np.sin(u)], axis=1)
    t = np.concatenate([-np.sin(u), np.cos(u)], axis=1)
    assert np.allclose(fp.B[:, :, 0], r, rtol=0.0, atol=1e-15)
    assert np.max(np.abs(fp.dB[:, 0, :, 0] - t)) <= 1e-10
    assert np.max(np.abs(fp.dJ[:, 0, :, 0] + r)) <= 1e-10


@pytest.mark.parametrize("case", sorted(FRAME_CASES))
def test_frame_derivative_matches_fd_of_frame(case):
    """dB is a central difference of the frame at the step ``_FRAME_DU``,
    so it is checked against what does not share that step: a difference
    of the frame at a step 100 times as long, within its O(h^2)
    truncation, and the derivative of each condition that fixes B:
    J^T G B = 0, B^T G B = I and, from Gram-Schmidt, b_j^T G e_s = 0 for
    the projector column s that gave an earlier vector.  Together the
    conditions fix dB, and each differentiated one must vanish to O(h^2)
    of the frame's step; dG comes from the metric alone."""
    make_g, make_N = FRAME_CASES[case]
    g = make_g()
    N = make_N()
    k = N.param_dim
    lo, hi = GRAPH_SWEEP if k == 2 else (N.lo, N.hi)
    v = np.linspace(lo + 0.05, hi - 0.05, 9)
    U = np.stack([v, -0.6 * v], axis=1)[:, :k]
    fp = NormalFrame(g, N).derivative(U)
    assert np.array_equal(fp.B, normal_space_basis(g, N, U))
    kept = submanifolds._normal_frame(g, N, U)[4]
    J, B, G = fp.J, fp.B, fp.G
    m = B.shape[2]
    bound = 20.0 * submanifolds._FRAME_DU**2
    T = lambda M: np.swapaxes(M, 1, 2)
    for i in range(k):
        h = np.zeros(k)
        h[i] = 1e-5
        dG = (g.matrix(N.point(U + h)) - g.matrix(N.point(U - h))) / 2e-5
        dJ, dB = fp.dJ[:, i], fp.dB[:, i]
        fd = (normal_space_basis(g, N, U + 100 * h) - normal_space_basis(g, N, U - 100 * h)) / 2e-3
        assert np.max(np.abs(dB - fd)) <= 1e4 * bound  # O(h^2) at the step 100 h
        tangent = T(dJ) @ G @ B + T(J) @ dG @ B + T(J) @ G @ dB
        unit = T(dB) @ G @ B + T(B) @ dG @ B + T(B) @ G @ dB
        assert np.max(np.abs(tangent)) <= bound
        assert np.max(np.abs(unit)) <= bound
        dBG = T(dB) @ G + T(B) @ dG
        for lane, cols in zip(dBG, kept):
            s = np.flatnonzero(cols)
            for j in range(m):
                assert np.all(np.abs(lane[j, s[:j]]) <= bound)


def test_frame_memo_carries_no_history():
    g = skew_varying_metric_3d()
    N = SUBMANIFOLDS["helix-arc"]()
    u = np.array([[0.37]])
    cold = NormalFrame(g, N).derivative(u)
    warm_frame = NormalFrame(g, N)
    for v in np.linspace(N.lo, N.hi, 100):
        warm_frame.derivative(np.array([[v]]))
    warm = warm_frame.derivative(u)
    assert warm.B.tobytes() == cold.B.tobytes()
    assert warm.dB.tobytes() == cold.dB.tobytes()
    assert warm.dJ.tobytes() == cold.dJ.tobytes()


def test_frame_memo_stays_bounded():
    g = euclidean_metric(3)
    N = SUBMANIFOLDS["helix-arc"]()
    frame = NormalFrame(g, N)
    for v in np.linspace(N.lo, N.hi, 500):
        frame.at(np.array([[v]]))
        frame.derivative(np.array([[-v]]))
    assert len(frame._memo) <= submanifolds._FRAME_MEMO


def test_a_point_frame_keys_its_memo_on_the_lane_count():
    # every batch of a point's (B, 0) lanes has the same empty bytes, so a
    # memo keyed on bytes alone gave a five-lane call the one-lane entry
    N = ParametrizedSubmanifold(DifferentiableMap(0, 2, lambda U: np.zeros((len(U), 2))))
    frame = NormalFrame(euclidean_metric(2), N)
    assert frame.at(np.zeros((1, 0))).B.shape == (1, 2, 2)
    assert frame.at(np.zeros((5, 0))).B.tolist() == [np.eye(2).tolist()] * 5
    # a point's jet has nothing to differentiate along: empty dJ and dB
    jet = frame.derivative(np.zeros((3, 0)))
    assert jet.B.shape == (3, 2, 2)
    assert jet.dJ.shape == (3, 0, 2, 0) and jet.dB.shape == (3, 0, 2, 2)
    D = normal_exponential(frame).jacobian(np.zeros((3, 2)))
    assert D.tolist() == [np.eye(2).tolist()] * 3


def test_a_frame_build_evaluates_the_chart_once():
    # the frame's p and J are the ones its normal basis was built from
    g = euclidean_metric(3)
    N = SUBMANIFOLDS["helix-arc"]()
    calls = []

    def counted(kind, f):
        def g_(U):
            calls.append(kind)
            return f(U)

        return g_

    chart = replace(N.chart, fn=counted("point", N.chart.fn), jac=counted("tangent", N.chart.jac))
    N = replace(N, chart=chart)
    U = np.linspace(N.lo, N.hi, 5)[:, None]
    fp = NormalFrame(g, N).at(U)
    assert sorted(calls) == ["point", "tangent"]
    assert fp.p.tobytes() == N.point(U).tobytes()
    assert fp.J.tobytes() == N.tangent_basis(U).tobytes()


def test_a_frame_derivative_is_one_build_of_its_jet():
    # one chart, one chart-jacobian and one metric evaluation per call, on
    # 2k + 1 lanes for each distinct base point: a stencil's repeated base
    # points are built once, and each lane gets what it gets alone
    g = skew_varying_metric_3d()
    calls = []

    def counted(kind, f):
        def call(X):
            calls.append((kind, len(X)))
            return f(X)

        return call

    for make_N, k in ((SUBMANIFOLDS["helix-arc"], 1), (graph_surface, 2)):
        N = make_N()
        chart = replace(
            N.chart, fn=counted("point", N.chart.fn), jac=counted("tangent", N.chart.jac)
        )
        N = replace(N, chart=chart)
        frame = NormalFrame(replace(g, matrix_fn=counted("metric", g.matrix_fn)), N)
        distinct = np.stack([np.linspace(0.15, 0.85, 5), np.linspace(0.6, 0.2, 5)], axis=1)[:, :k]
        U = distinct[[0, 3, 1, 3, 4, 0, 2, 2, 1, 4]]
        calls.clear()
        fp = frame.derivative(U)
        lanes = (2 * k + 1) * len(distinct)
        assert sorted(calls) == [("metric", lanes), ("point", lanes), ("tangent", lanes)]
        # the jet serves the frame and its derivative on these lanes again
        calls.clear()
        assert frame.at(U) is fp and frame.derivative(U) is fp
        assert calls == []
        one = NormalFrame(g, make_N())
        for i in range(len(U)):
            alone = one.derivative(U[i : i + 1])
            for field in ("p", "J", "B", "G", "dJ", "dB"):
                assert getattr(alone, field).tobytes() == getattr(fp, field)[i : i + 1].tobytes()


def test_a_jet_across_a_switch_of_projector_columns_fails_closed():
    # on (u, u^2 / 2) the first projector column is zero at u = 0, so the
    # frame there comes from e2, and from e1 at u = +-h: a central
    # difference across the switch would be of order 1/h
    chart = DifferentiableMap(
        1,
        2,
        lambda U: np.concatenate([U, 0.5 * U * U], axis=1),
        jac=lambda U: np.stack([np.ones_like(U), U], axis=1),
    )
    N = ParametrizedSubmanifold(chart)
    g = euclidean_metric(2)
    h = submanifolds._FRAME_DU
    kept = submanifolds._normal_frame(g, N, np.array([[0.0], [h], [-h]]))[4]
    assert kept.tolist() == [[False, True], [True, False], [True, False]]
    frame = NormalFrame(g, N)
    assert np.array_equal(frame.at(np.array([[0.0]])).B[0], [[0.0], [1.0]])
    with pytest.raises(RankDeficient, match=r"u=\[0\.\]"):
        frame.derivative(np.array([[0.5], [0.0]]))
    assert frame.derivative(np.array([[0.5]])).dB.shape == (1, 1, 2, 1)


def test_a_jet_across_a_flip_of_a_frame_vector_fails_closed():
    # past u = pi/2 the circle's first projector column cos(u) r(u) changes
    # sign, and so does the vector it gives, between lanes that all keep it
    g = euclidean_metric(2)
    N = SUBMANIFOLDS["circle-full"]()
    u = np.pi / 2 + 0.5 * submanifolds._FRAME_DU
    h = submanifolds._FRAME_DU
    kept = submanifolds._normal_frame(g, N, np.array([[u], [u + h], [u - h]]))[4]
    assert kept[:, 0].all()
    with pytest.raises(RankDeficient, match="torn"):
        NormalFrame(g, N).derivative(np.array([[u]]))


def frame_point(N, u):
    """The frame point of N at the base points u under the flat metric."""
    return NormalFrame(euclidean_metric(N.ambient_dim), N).at(np.array(u, dtype=float))


class TestNormalRepresentative:
    def test_already_normal_unchanged(self):
        g = euclidean_metric(2)
        w = normal_representative(g, frame_point(x_axis_r2(), [[0.3]]), np.array([[0.0, 2.0]]))
        assert np.allclose(w[0], [0.0, 2.0], atol=1e-12)

    def test_tangent_killed(self):
        g = euclidean_metric(2)
        theta = 0.4
        tangent = np.array([[-np.sin(theta), np.cos(theta)]])
        w = normal_representative(g, frame_point(unit_circle(), [[theta]]), tangent)
        assert np.linalg.norm(w) <= 1e-12

    def test_circle_projection_oracle(self):
        g = euclidean_metric(2)
        w = normal_representative(g, frame_point(unit_circle(), [[0.0]]), np.array([[1.0, 1.0]]))
        assert np.allclose(w[0], [1.0, 0.0], atol=1e-12)

    def test_idempotent(self):
        # g is not the metric the frame was built under
        G = np.array([[2.0, 0.3], [0.3, 1.0]])
        g = MetricField(dim=2, matrix_fn=lambda X: G + np.zeros((len(X), 1, 1)))
        fp = frame_point(unit_circle(), [[0.7]])
        once = normal_representative(g, fp, np.array([[0.4, -1.2]]))
        twice = normal_representative(g, fp, once)
        assert np.linalg.norm(once - twice) <= 1e-12

    @given(st.floats(-2.0, 2.0))
    @settings(max_examples=25, deadline=None)
    def test_tangent_shift_invariance(self, scale):
        g = euclidean_metric(2)
        fp = frame_point(unit_circle(), [[0.9]])
        a = np.array([[0.5, 0.1]])
        tangent = scale * fp.J[:, :, 0]
        w1 = normal_representative(g, fp, a)
        w2 = normal_representative(g, fp, a + tangent)
        assert np.linalg.norm(w1 - w2) <= 1e-10


class TestNormalExponential:
    # (u, c) with c the frame coordinates: the x-axis frame is e_2 and the
    # circle's is radial for |theta| < pi/2
    def test_x_axis(self):
        g = euclidean_metric(2)
        N = x_axis_r2()
        chart = normal_exponential(NormalFrame(g, N))
        assert np.allclose(chart(np.array([[0.7, 0.4]]))[0], [0.7, 0.4], atol=1e-10)

    def test_circle_radial(self):
        g = euclidean_metric(2)
        N = unit_circle()
        theta, s = 0.5, 0.3
        chart = normal_exponential(NormalFrame(g, N))
        expected = (1 + s) * np.array([np.cos(theta), np.sin(theta)])
        assert np.allclose(chart(np.array([[theta, s]]))[0], expected, atol=1e-10)

    def test_zero_vector_is_base_point(self):
        g = euclidean_metric(2)
        N = unit_circle()
        chart = normal_exponential(NormalFrame(g, N))
        assert np.allclose(chart(np.array([[1.0, 0.0]])), N.point(np.array([[1.0]])))


def test_normal_exponential_is_exp_off_a_euclidean_background():
    # g = diag(1, 1 + x0^2) has analytic symbols that vanish at the origin,
    # p(u = 0) of the x0-axis, and nowhere else on it; the chart must still
    # follow its curved geodesics, not p + B c
    def gamma(X):
        out = np.zeros((len(X), 2, 2, 2))
        out[:, 0, 1, 1] = -X[:, 0]
        out[:, 1, 0, 1] = out[:, 1, 1, 0] = X[:, 0] / (1.0 + X[:, 0] ** 2)
        return out

    def matrix(X):
        G = np.zeros((len(X), 2, 2))
        G[:, 0, 0] = 1.0
        G[:, 1, 1] = 1.0 + X[:, 0] ** 2
        return G

    g = MetricField(dim=2, matrix_fn=matrix, christoffel_fn=gamma)
    N = x_axis_r2()
    assert not np.any(gamma(N.point(np.zeros((1, 1)))))
    chart = normal_exponential(NormalFrame(g, N))
    u, c = np.array([[0.5]]), np.array([[0.3]])
    expected = exp_map(g, N.point(u), normal_space_basis(g, N, u) @ c[0], tol=1e-11)
    assert np.max(np.abs(chart(np.concatenate([u, c], axis=1)) - expected)) <= 1e-10
    assert np.allclose(expected, [[0.51802, 0.26704]], atol=1e-5)


@pytest.mark.parametrize("case", ["circle-arc", "helix-arc", "sphere-equator-arc"])
def test_normal_exponential_is_exp_of_frame_vector(case):
    make_g, make_N = FRAME_CASES[case]
    g = make_g()
    N = make_N()
    chart = normal_exponential(NormalFrame(g, N))
    m = N.ambient_dim - N.param_dim
    for i, v in enumerate(np.linspace(N.lo + 0.1, N.hi - 0.1, 5)):
        u = np.array([[v]])
        c = 0.3 * np.cos(i + np.arange(m))[None]
        expected = exp_map(g, N.point(u), normal_space_basis(g, N, u) @ c[0], tol=1e-11)
        assert chart(np.concatenate([u, c], axis=1)).tobytes() == expected.tobytes()


TUBE_RADII = {"flat-slice": 1.0, "circle": 0.5, "helix": 0.8, "sphere-equator": 1.5}


def builtin_radius(name, grid_size):
    scn = BUILTIN_SCENARIOS[name]
    g = BACKGROUNDS[scn.background]()
    N = SUBMANIFOLDS[scn.submanifold]()
    return NormalFrame(g, N), _interior_grid(N, grid_size), scn.delta0


class TestTubularRadius:
    @pytest.mark.parametrize("grid_size", [8, 9, 10])
    def test_builtin_radii(self, grid_size):
        for name, radius in TUBE_RADII.items():
            frame, grid, delta0 = builtin_radius(name, grid_size)
            delta = tubular_radius_estimate(frame, grid, delta0)
            assert type(delta) is float and delta == radius, name

    @pytest.mark.parametrize("name", ["circle", "helix", "sphere-equator"])
    def test_at_most_three_frames_per_grid_point_and_candidate(self, name, monkeypatch):
        # the chart's jacobian on a curved background differences u, so it
        # needs frames at u and u +- h; a flat one needs only the frame at u
        frame, grid, delta0 = builtin_radius(name, 9)
        builds = []

        build = submanifolds._normal_frame

        def counted(*args):
            builds.append(1)
            return build(*args)

        monkeypatch.setattr(submanifolds, "_normal_frame", counted)
        delta = tubular_radius_estimate(frame, grid, delta0)
        candidates = 1 + round(np.log2(delta0 / delta))
        assert 0 < len(builds) <= 3 * len(grid) * candidates

    def test_x_axis_keeps_full_radius(self):
        g = euclidean_metric(2)
        N = x_axis_r2()
        grid = np.linspace(-1.0, 1.0, 7)[:, None]
        delta = tubular_radius_estimate(NormalFrame(g, N), grid, 10.0)
        assert delta == pytest.approx(10.0)

    def test_circle_respects_focal_point(self):
        g = euclidean_metric(2)
        N = unit_circle()
        grid = np.linspace(-1.0, 1.0, 7)[:, None]
        delta = tubular_radius_estimate(NormalFrame(g, N), grid, 2.0)
        assert 0.0 < delta < 1.0

    def test_sphere_equator_respects_poles(self):
        g = sphere_chart_metric()
        chart = DifferentiableMap(
            1, 2, lambda U: np.concatenate([np.pi / 2 + 0.0 * U, U], axis=1),
            jac=lambda U: np.stack([0.0 * U, 1.0 + 0.0 * U], axis=1),
        )
        N = ParametrizedSubmanifold(chart)
        grid = np.linspace(0.5, 2.4, 7)[:, None]
        delta = tubular_radius_estimate(NormalFrame(g, N), grid, 3.0)
        assert 0.0 < delta < np.pi / 2

    def test_helix_radius_stops_before_focal_distance(self):
        # the helix's focal distance is 1 + pitch^2 = 1.09; past it the tube
        # chart folds while its sampled condition number stays small
        g = BACKGROUNDS["euclidean-3d"]()
        N = SUBMANIFOLDS["helix-arc"]()
        grid = np.linspace(N.lo + 0.24, N.hi - 0.24, 3)[:, None]
        delta = tubular_radius_estimate(NormalFrame(g, N), grid, 2.0)
        assert 0.0 < delta < 1.09


@pytest.mark.parametrize("name", sorted(SUBMANIFOLDS))
def test_interval_mask_is_the_open_interval(name):
    # the built-in curves' domains were (lo < u) & (u < hi) on the column
    N = SUBMANIFOLDS[name]()
    lo, hi = N.lo, N.hi
    U = np.array(
        [lo - 1.0, np.nextafter(lo, -np.inf), lo, np.nextafter(lo, np.inf), 0.5 * (lo + hi),
         np.nextafter(hi, -np.inf), hi, np.nextafter(hi, np.inf), hi + 1.0, np.nan]
    )[:, None]
    mask = N.in_param_domain(U)
    assert mask.tolist() == ((lo < U[:, 0]) & (U[:, 0] < hi)).tolist()
    assert mask.tolist() == [False] * 3 + [True] * 3 + [False] * 4


def test_an_unbounded_submanifold_takes_every_finite_parameter():
    N = x_axis_r2()
    assert (N.param_dim, N.ambient_dim) == (N.chart.domain_dim, N.chart.codomain_dim) == (1, 2)
    U = np.array([[-1e300], [0.0], [1e300], [np.inf], [np.nan]])
    assert N.in_param_domain(U).tolist() == [True, True, True, False, False]
    # a point has no parameter, so its one lane is inside
    point = ParametrizedSubmanifold(DifferentiableMap(0, 2, lambda U: np.zeros((len(U), 2))))
    assert point.in_param_domain(np.zeros((1, 0))).tolist() == [True]


def radius_loop_rows(m, delta):
    """The fiber samples of the radius certification as its nested loops
    built them."""
    cs = []
    for j in range(m):
        for sign in (1.0, -1.0):
            for frac in submanifolds._RADIUS_FRACTIONS:
                c = np.zeros(m)
                c[j] = sign * frac * delta
                cs.append(c)
    return np.array(cs)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("delta", [0.75, 1.0 / 3.0, 1.0e6])
def test_fiber_axis_samples_are_the_radius_rows(m, delta):
    # bytes, so a -0.0 off the axis would show
    rows = fiber_axis_samples(m, submanifolds._RADIUS_FRACTIONS, delta)
    assert rows.tobytes() == radius_loop_rows(m, delta).tobytes()


def test_radius_certification_builds_no_frame(monkeypatch):
    frame, grid, delta0 = builtin_radius("helix", 9)
    built = []
    init = NormalFrame.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(NormalFrame, "__init__", counted)
    assert tubular_radius_estimate(frame, grid, delta0) == TUBE_RADII["helix"]
    assert built == []
    # it sampled the frame it was given
    assert len(frame._memo) > 0


@pytest.mark.parametrize("block", [1, 7, 64, 500])
def test_radius_compares_every_pair_of_samples_whatever_the_block(block, monkeypatch):
    # a circle parametrized past a full turn: the fiber samples at u and
    # u + 2 pi have the same images from preimages 2 pi apart, so no radius
    # is certified; without the last base point the grid spans less than a
    # turn and the radius is delta0.  The 9 base points give 72 samples,
    # so the colliding pairs lie in different blocks of 64
    monkeypatch.setattr(submanifolds, "_RADIUS_PAIR_BLOCK", block)
    N = ParametrizedSubmanifold(unit_circle().chart, -3.5, 3.5)
    frame = NormalFrame(euclidean_metric(2), N)
    grid = np.linspace(-3.0, -3.0 + 2.0 * np.pi, 9)[:, None]
    with pytest.raises(NoValidRadius):
        tubular_radius_estimate(frame, grid, 0.8)
    assert tubular_radius_estimate(frame, grid[:-1], 0.8) == 0.8
