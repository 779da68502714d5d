import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulertube.errors import RankDeficient
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
    normal_exponential,
    normal_representative,
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
    return ParametrizedSubmanifold(1, 2, chart, name="circle")


def test_x_axis_normal_basis():
    basis = normal_space_basis(euclidean_metric(2), x_axis_r2(), np.array([0.7]))
    assert basis.shape[1] == 1
    assert np.allclose(basis[:, 0], [0.0, 1.0], atol=1e-12)


def test_circle_normal_is_radial():
    g = euclidean_metric(2)
    N = unit_circle()
    for theta in (0.0, 0.9, -1.1):
        B = normal_space_basis(g, N, np.array([theta]))
        assert np.allclose(B[:, 0], [np.cos(theta), np.sin(theta)], atol=1e-10)
    # past cos(theta) = 0 the deterministic convention flips the sign
    B = normal_space_basis(g, N, np.array([2.5]))
    assert np.allclose(B[:, 0], [-np.cos(2.5), -np.sin(2.5)], atol=1e-10)


def test_basis_orthonormal_under_skew_metric():
    G = np.array([[2.0, 0.3], [0.3, 1.0]])
    g = MetricField(dim=2, matrix_fn=lambda X: G + np.zeros((len(X), 1, 1)))
    N = x_axis_r2()
    B = normal_space_basis(g, N, np.array([0.2]))
    J = N.tangent_basis(np.array([0.2]))
    assert abs(B[:, 0] @ G @ B[:, 0] - 1.0) <= 1e-10
    assert abs(B[:, 0] @ G @ J[:, 0]) <= 1e-10


def test_rank_deficient_chart():
    chart = DifferentiableMap(1, 2, lambda U: np.concatenate([U**2, 0.0 * U], axis=1))
    N = ParametrizedSubmanifold(1, 2, chart)
    with pytest.raises(RankDeficient):
        normal_space_basis(euclidean_metric(2), N, np.array([0.0]))


def test_frame_smooth_along_circle():
    g = euclidean_metric(2)
    N = unit_circle()
    h = 1e-3
    for theta in np.linspace(-1.2, 1.2, 25):
        d = (
            normal_space_basis(g, N, np.array([theta + h]))
            - normal_space_basis(g, N, np.array([theta - h]))
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
    return ParametrizedSubmanifold(1, 2, chart, name="polar-curve"), -1.2, 1.2


def graph_surface():
    """z = 0.3 x^2 + 0.2 x y - 0.1 y^2 over (x, y): k = 2 inside R^3.

    The frame's first vector flips sign where dz/dx = 0, so the samples
    (v, -0.6 v) stay at v > 0."""

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
    return ParametrizedSubmanifold(2, 3, chart, name="graph"), 0.1, 1.0


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


@pytest.mark.parametrize("case", sorted(FRAME_CASES))
def test_frame_derivative_matches_fd_of_frame(case):
    make_g, make_N = FRAME_CASES[case]
    g = make_g()
    N, lo, hi = make_N()
    frame = NormalFrame(g, N)
    k = N.param_dim
    for v in np.linspace(lo + 0.05, hi - 0.05, 9):
        u = np.array([v, -0.6 * v])[:k]
        fp = frame.derivative(u)
        assert np.array_equal(fp.B, normal_space_basis(g, N, u))
        for i in range(k):
            h = np.zeros(k)
            h[i] = 1e-5
            fd = (normal_space_basis(g, N, u + h) - normal_space_basis(g, N, u - h)) / 2e-5
            assert np.max(np.abs(fp.dB[i] - fd)) <= 1e-7


def test_frame_memo_carries_no_history():
    g = skew_varying_metric_3d()
    N, lo, hi = SUBMANIFOLDS["helix-arc"]()
    u = np.array([0.37])
    cold = NormalFrame(g, N).derivative(u)
    warm_frame = NormalFrame(g, N)
    for v in np.linspace(lo, hi, 100):
        warm_frame.derivative(np.array([v]))
    warm = warm_frame.derivative(u)
    assert warm.B.tobytes() == cold.B.tobytes()
    assert warm.dB.tobytes() == cold.dB.tobytes()
    assert warm.dJ.tobytes() == cold.dJ.tobytes()


def test_frame_memo_stays_bounded():
    g = euclidean_metric(3)
    N, lo, hi = SUBMANIFOLDS["helix-arc"]()
    frame = NormalFrame(g, N)
    for v in np.linspace(lo, hi, 500):
        frame.at(np.array([v]))
        frame.derivative(np.array([-v]))
    assert len(frame._memo) <= submanifolds._FRAME_MEMO


class TestNormalRepresentative:
    def test_already_normal_unchanged(self):
        g = euclidean_metric(2)
        N = x_axis_r2()
        w = normal_representative(g, N, np.array([0.3]), np.array([0.0, 2.0]))
        assert np.allclose(w, [0.0, 2.0], atol=1e-12)

    def test_tangent_killed(self):
        g = euclidean_metric(2)
        N = unit_circle()
        theta = 0.4
        tangent = np.array([-np.sin(theta), np.cos(theta)])
        w = normal_representative(g, N, np.array([theta]), tangent)
        assert np.linalg.norm(w) <= 1e-12

    def test_circle_projection_oracle(self):
        g = euclidean_metric(2)
        N = unit_circle()
        w = normal_representative(g, N, np.array([0.0]), np.array([1.0, 1.0]))
        assert np.allclose(w, [1.0, 0.0], atol=1e-12)

    def test_idempotent(self):
        G = np.array([[2.0, 0.3], [0.3, 1.0]])
        g = MetricField(dim=2, matrix_fn=lambda X: G + np.zeros((len(X), 1, 1)))
        N = unit_circle()
        once = normal_representative(g, N, np.array([0.7]), np.array([0.4, -1.2]))
        twice = normal_representative(g, N, np.array([0.7]), once)
        assert np.linalg.norm(once - twice) <= 1e-12

    @given(st.floats(-2.0, 2.0))
    @settings(max_examples=25, deadline=None)
    def test_tangent_shift_invariance(self, scale):
        g = euclidean_metric(2)
        N = unit_circle()
        u = np.array([0.9])
        a = np.array([0.5, 0.1])
        tangent = scale * N.tangent_basis(u)[:, 0]
        w1 = normal_representative(g, N, u, a)
        w2 = normal_representative(g, N, u, a + tangent)
        assert np.linalg.norm(w1 - w2) <= 1e-10


class TestNormalExponential:
    # (u, c) with c the frame coordinates: the x-axis frame is e_2 and the
    # circle's is radial for |theta| < pi/2
    def test_x_axis(self):
        g = euclidean_metric(2)
        N = x_axis_r2()
        chart = normal_exponential(NormalFrame(g, N))
        assert np.allclose(chart(np.array([0.7, 0.4])), [0.7, 0.4], atol=1e-10)

    def test_circle_radial(self):
        g = euclidean_metric(2)
        N = unit_circle()
        theta, s = 0.5, 0.3
        chart = normal_exponential(NormalFrame(g, N))
        expected = (1 + s) * np.array([np.cos(theta), np.sin(theta)])
        assert np.allclose(chart(np.array([theta, s])), expected, atol=1e-10)

    def test_zero_vector_is_base_point(self):
        g = euclidean_metric(2)
        N = unit_circle()
        chart = normal_exponential(NormalFrame(g, N))
        assert np.allclose(chart(np.array([1.0, 0.0])), N.point(np.array([1.0])))


@pytest.mark.parametrize("case", ["circle-arc", "helix-arc", "sphere-equator-arc"])
def test_normal_exponential_is_exp_of_frame_vector(case):
    make_g, make_N = FRAME_CASES[case]
    g = make_g()
    N, lo, hi = make_N()
    chart = normal_exponential(NormalFrame(g, N))
    m = N.ambient_dim - N.param_dim
    for i, v in enumerate(np.linspace(lo + 0.1, hi - 0.1, 5)):
        u = np.array([v])
        c = 0.3 * np.cos(i + np.arange(m))
        expected = exp_map(g, N.point(u), normal_space_basis(g, N, u) @ c, tol=1e-11)
        assert chart(np.concatenate([u, c])).tobytes() == expected.tobytes()


TUBE_RADII = {"flat-slice": 1.0, "circle": 0.5, "helix": 0.8, "sphere-equator": 1.5}


def builtin_radius(name, grid_size):
    scn = BUILTIN_SCENARIOS[name]
    g = BACKGROUNDS[scn.background]()
    N, lo, hi = SUBMANIFOLDS[scn.submanifold]()
    grid = _interior_grid(lo, hi, grid_size)
    return g, N, grid, scn.delta0


class TestTubularRadius:
    @pytest.mark.parametrize("grid_size", [8, 9, 10])
    def test_builtin_radii(self, grid_size):
        for name, radius in TUBE_RADII.items():
            g, N, grid, delta0 = builtin_radius(name, grid_size)
            assert tubular_radius_estimate(g, N, grid, delta0)(grid[0]) == radius, name

    @pytest.mark.parametrize("name", ["circle", "helix", "sphere-equator"])
    def test_at_most_three_frames_per_grid_point_and_candidate(self, name, monkeypatch):
        # the chart's jacobian on a curved background differences u, so it
        # needs frames at u and u +- h; a flat one needs only the frame at u
        g, N, grid, delta0 = builtin_radius(name, 9)
        builds = []

        def counted(*args):
            builds.append(1)
            return normal_space_basis(*args)

        monkeypatch.setattr(submanifolds, "normal_space_basis", counted)
        delta = tubular_radius_estimate(g, N, grid, delta0)(grid[0])
        candidates = 1 + round(np.log2(delta0 / delta))
        assert 0 < len(builds) <= 3 * len(grid) * candidates

    def test_x_axis_keeps_full_radius(self):
        g = euclidean_metric(2)
        N = x_axis_r2()
        grid = [np.array([u]) for u in np.linspace(-1.0, 1.0, 7)]
        delta = tubular_radius_estimate(g, N, grid, 10.0)
        assert delta(np.array([0.0])) == pytest.approx(10.0)

    def test_circle_respects_focal_point(self):
        g = euclidean_metric(2)
        N = unit_circle()
        grid = [np.array([u]) for u in np.linspace(-1.0, 1.0, 7)]
        delta = tubular_radius_estimate(g, N, grid, 2.0)
        assert 0.0 < delta(np.array([0.0])) < 1.0

    def test_sphere_equator_respects_poles(self):
        g = sphere_chart_metric()
        chart = DifferentiableMap(
            1, 2, lambda U: np.concatenate([np.pi / 2 + 0.0 * U, U], axis=1),
            jac=lambda U: np.stack([0.0 * U, 1.0 + 0.0 * U], axis=1),
        )
        N = ParametrizedSubmanifold(1, 2, chart, name="equator")
        grid = [np.array([u]) for u in np.linspace(0.5, 2.4, 7)]
        delta = tubular_radius_estimate(g, N, grid, 3.0)
        assert 0.0 < delta(np.array([1.0])) < np.pi / 2

    def test_helix_radius_stops_before_focal_distance(self):
        # the helix's focal distance is 1 + pitch^2 = 1.09; past it the tube
        # chart folds while its sampled condition number stays small
        g = BACKGROUNDS["euclidean-3d"]()
        N, lo, hi = SUBMANIFOLDS["helix-arc"]()
        grid = [np.array([u]) for u in np.linspace(lo + 0.24, hi - 0.24, 3)]
        delta = tubular_radius_estimate(g, N, grid, 2.0)
        assert 0.0 < delta(grid[0]) < 1.09
