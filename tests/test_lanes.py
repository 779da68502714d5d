"""Lanes: a leading axis of independent problems through Newton inversion,
the Dormand-Prince integrator, the normal frame and flow reconstruction.

Every lane's result must be bit-identical alone and inside a batch, and a
scalar call is a batch of one."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulertube.embeddings import reference_embedding
from eulertube.errors import NotInDomain, SingularJacobian
from eulertube.eulerlike import pushforward_field, reconstruct_embedding
from eulertube.metrics import euclidean_metric, geodesic, sphere_chart_metric
from eulertube.numerics import DifferentiableMap, jacobian, ode_integrate, solve_inverse
from eulertube.realization import build_chi, pullback_metric
from eulertube.scenarios import (
    BACKGROUNDS,
    BUILTIN_SCENARIOS,
    SUBMANIFOLDS,
    _build_psi,
    _interior_grid,
)
from eulertube.submanifolds import (
    NormalFrame,
    normal_exponential,
    normal_space_basis,
    tubular_radius_estimate,
)


def quadratic_map():
    """x + 0.05 (x1^2, x0 x1) on lanes."""

    def fn(X):
        return X + 0.05 * np.stack([X[:, 1] ** 2, X[:, 0] * X[:, 1]], axis=1)

    def jac(X):
        J = np.zeros((len(X), 2, 2))
        J[:, 0, 0] = 1.0
        J[:, 0, 1] = 0.1 * X[:, 1]
        J[:, 1, 0] = 0.05 * X[:, 1]
        J[:, 1, 1] = 1.0 + 0.05 * X[:, 0]
        return J

    return DifferentiableMap(2, 2, fn, jac=jac, lanes=True)


class TestSolveInverseLanes:
    @given(st.integers(1, 60), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_each_lane_equals_its_solo_solve(self, lanes, seed):
        f = quadratic_map()
        rng = np.random.default_rng(seed)
        target = rng.uniform(-0.8, 0.8, size=(lanes, 2))
        y = f(target)
        x = solve_inverse(f, y, np.zeros((lanes, 2)))
        assert x.shape == (lanes, 2)
        assert np.all(np.sqrt(np.sum((f(x) - y) ** 2, axis=1)) <= 1e-12)
        for i in range(lanes):
            assert solve_inverse(f, y[i], np.zeros(2)).tobytes() == x[i].tobytes()

    def test_lane_alone_and_in_a_batch_of_54(self):
        f = quadratic_map()
        rng = np.random.default_rng(54)
        y = f(rng.uniform(-0.8, 0.8, size=(54, 2)))
        x0 = rng.uniform(-0.2, 0.2, size=(54, 2))
        batch = solve_inverse(f, y, x0)
        for i in (0, 17, 53):
            alone = solve_inverse(f, y[i : i + 1], x0[i : i + 1])
            assert alone.tobytes() == batch[i : i + 1].tobytes()

    def test_a_map_without_lanes_is_looped(self):
        f = quadratic_map()
        looped = DifferentiableMap(2, 2, lambda x: f(x), jac=lambda x: f.jacobian(x))
        y = f(np.array([[0.3, -0.2], [0.5, 0.7], [-0.6, 0.1]]))
        assert solve_inverse(looped, y, np.zeros((3, 2))).tobytes() == (
            solve_inverse(f, y, np.zeros((3, 2))).tobytes()
        )

    @pytest.mark.parametrize("eps, raises", [(2.5e-13, True), (4e-10, False)])
    def test_condition_guard(self, eps, raises):
        # the 1-norm condition number of [[1, 1], [1, 1 + eps]] is about 4 / eps
        A = np.array([[1.0, 1.0], [1.0, 1.0 + eps]])
        f = DifferentiableMap(2, 2, lambda x: A @ x, jac=lambda x: A)
        y = A @ np.array([0.3, -0.2])
        if raises:
            with pytest.raises(SingularJacobian):
                solve_inverse(f, y, np.zeros(2))
        else:
            x = solve_inverse(f, y, np.zeros(2))
            assert np.linalg.norm(A @ x - y) <= 1e-12


def oscillator(Y):
    """A lane field: the harmonic oscillator (y0, y1) -> (y1, -y0)."""
    return np.stack([Y[:, 1], -Y[:, 0]], axis=1)


def lane_history(traj, i):
    """Lane i's own accepted times and states in a lane trajectory."""
    t = traj.times[:, i]
    moved = np.concatenate([[True], np.diff(t) > 0])
    return t[moved], traj.states[moved, i]


class TestOdeIntegrateLanes:
    def test_lane_alone_and_in_a_batch_of_54(self):
        rng = np.random.default_rng(7)
        y0 = rng.uniform(-1.0, 1.0, size=(54, 2))
        t_end = rng.uniform(0.0, 4.0, size=54)
        t_end[5] = 0.0
        inside = lambda Y: np.sum(Y * Y, axis=1) < 1.2  # noqa: E731
        batch = ode_integrate(oscillator, y0, t_end, 1e-9, domain=inside)
        assert batch.times.shape[1] == 54 and batch.exited.shape == (54,)
        assert batch.exited.any() and not batch.exited.all()
        for i in (0, 5, 31, 53):
            alone = ode_integrate(oscillator, y0[i : i + 1], t_end[i : i + 1], 1e-9, domain=inside)
            assert alone.final_state.tobytes() == batch.final_state[i : i + 1].tobytes()
            assert alone.exited[0] == batch.exited[i]
            t, states = lane_history(batch, i)
            assert t.tobytes() == alone.times[:, 0].tobytes()
            assert states.tobytes() == alone.states[:, 0].tobytes()

    def test_scalar_call_is_a_batch_of_one(self):
        field = lambda y: np.array([y[1], -y[0]])  # noqa: E731
        one = ode_integrate(field, np.array([1.0, 0.0]), 2.0, 1e-10)
        lanes = ode_integrate(oscillator, np.array([[1.0, 0.0]]), 2.0, 1e-10)
        assert one.times.tobytes() == lanes.times[:, 0].tobytes()
        assert one.states.tobytes() == lanes.states[:, 0].tobytes()
        assert one.exited is False

    def test_a_failing_lane_does_not_affect_the_others(self):
        # the field cannot be evaluated past y0 = 1: that lane halves its
        # step down to the floor and exits; the batch raises and is
        # re-evaluated lane by lane
        def field(Y):
            if np.any(Y[:, 0] > 1.0):
                raise NotInDomain("outside the field's region")
            return np.ones_like(Y)

        y0 = np.array([[0.0, 0.0], [-5.0, 0.0]])
        batch = ode_integrate(field, y0, 3.0, 1e-10)
        assert batch.exited.tolist() == [True, False]
        assert 1.0 - 1e-9 < batch.final_state[0, 0] <= 1.0
        alone = ode_integrate(field, y0[1:], 3.0, 1e-10)
        assert alone.final_state.tobytes() == batch.final_state[1:].tobytes()


class TestGeodesicContract:
    @given(
        st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
        st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
        st.floats(0.1, 2.0),
    )
    @settings(max_examples=15, deadline=None)
    def test_euclidean_integrator_matches_closed_form(self, p, v, t):
        g = BACKGROUNDS["euclidean-3d"]()
        p, v = np.array(p), np.array(v)
        traj = geodesic(g, p, v, t, tol=1e-10, use_closed_form=False)
        x, w = g.geodesic_fn(p, v, t)
        assert np.max(np.abs(traj.points[-1] - x)) <= 1e-8
        assert np.max(np.abs(traj.velocities[-1] - w)) <= 1e-8

    @given(
        st.floats(0.9, 2.2),
        st.floats(0.9, 2.0),
        st.floats(-0.5, 0.5),
        st.floats(-0.5, 0.5),
    )
    @settings(max_examples=15, deadline=None)
    def test_sphere_chart_integrator_matches_closed_form(self, theta, phi, a, b):
        g = sphere_chart_metric()
        p, v = np.array([theta, phi]), np.array([a, b])
        traj = geodesic(g, p, v, 1.0, tol=1e-10, use_closed_form=False)
        assert not traj.exited
        x, w = g.geodesic_fn(p, v, 1.0)
        assert np.max(np.abs(traj.points[-1] - x)) <= 1e-7
        assert np.max(np.abs(traj.velocities[-1] - w)) <= 1e-6


FRAME_CASES = ["circle-arc", "helix-arc", "line-3d", "sphere-equator-arc"]
BACKGROUND_OF = {
    "circle-arc": "euclidean-2d",
    "helix-arc": "euclidean-3d",
    "line-3d": "euclidean-3d",
    "sphere-equator-arc": "sphere-chart",
}


class TestFrameLanes:
    @pytest.mark.parametrize("name", FRAME_CASES)
    def test_lanes_equal_single_points(self, name):
        g = BACKGROUNDS[BACKGROUND_OF[name]]()
        N, lo, hi = SUBMANIFOLDS[name]()
        us = np.linspace(lo + 0.05, hi - 0.05, 11)[:, None]
        lanes = NormalFrame(g, N).derivative(us)
        for i, u in enumerate(us):
            one = NormalFrame(g, N).derivative(u)
            for field in ("p", "B", "J", "dJ", "dB"):
                assert getattr(one, field).tobytes() == getattr(lanes, field)[i].tobytes()

    def test_lanes_that_skip_a_column_beside_lanes_that_do_not(self):
        # at u = pi/2 the circle's tangent is -e0, so the first projector
        # column vanishes and Gram-Schmidt skips it
        g = euclidean_metric(2)
        N, _, _ = SUBMANIFOLDS["circle-full"]()
        us = np.array([[0.3], [np.pi / 2], [-1.0]])
        B = normal_space_basis(g, N, us)
        assert np.allclose(B[1, :, 0], [0.0, 1.0], atol=1e-12)
        for i, u in enumerate(us):
            assert normal_space_basis(g, N, u).tobytes() == B[i].tobytes()

    def test_fd_jacobian_on_lanes_equals_per_point(self):
        f = DifferentiableMap(2, 2, lambda x: np.array([np.sin(x[0]) * x[1], x[0] ** 2]))
        X = np.array([[0.3, -0.2], [1.1, 0.4]])
        J = jacobian(f, X)
        for i, x in enumerate(X):
            assert jacobian(f, x).tobytes() == J[i].tobytes()


def helix_pipeline():
    scn = BUILTIN_SCENARIOS["helix"]
    gt = BACKGROUNDS[scn.background]()
    N, lo, hi = SUBMANIFOLDS[scn.submanifold]()
    grid = _interior_grid(lo, hi, scn.sample("grid"))
    delta = tubular_radius_estimate(gt, N, grid, scn.delta0)
    frame = NormalFrame(gt, N)
    psi = _build_psi(scn, frame, delta)
    psi.build_seed_table(_interior_grid(lo, hi, 15, margin=0.08))
    return psi, reference_embedding(frame, delta), lo, hi


class TestReconstructionLanes:
    def test_six_points_equal_their_single_point_results(self):
        psi, phi, lo, hi = helix_pipeline()
        X = pushforward_field(psi)
        us = np.linspace(lo + 0.25 * (hi - lo), hi - 0.25 * (hi - lo), 6)[:, None]
        angles = np.linspace(0.0, 2.0 * np.pi, 6, endpoint=False)
        cs = 0.5 * psi.delta(us[0]) * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        t_seq = tuple(2.0**-i for i in range(1, 10))
        # 6 points x 9 schedule times: one integration of 54 lanes
        batch = reconstruct_embedding(X, phi, us, cs, t_seq=t_seq, tol=1e-4, flow_tol=1e-9)
        for u, c, rec in zip(us, cs, batch):
            one = reconstruct_embedding(X, phi, u, c, t_seq=t_seq, tol=1e-4, flow_tol=1e-9)
            assert one.tobytes() == rec.tobytes()
            assert np.linalg.norm(rec - psi(u, c)) <= 1e-4

    def test_domain_test_reuses_the_batch_preimages(self, monkeypatch):
        psi, _, _, _ = helix_pipeline()
        calls = []
        invert = type(psi).invert

        def counted(self, x, tol=1e-12):
            calls.append(len(np.atleast_2d(x)))
            return invert(self, x, tol=tol)

        monkeypatch.setattr(type(psi), "invert", counted)
        X = pushforward_field(psi)
        points = psi.map(np.array([[0.1, 0.2, 0.1], [-0.3, 0.1, -0.2], [0.4, -0.1, 0.0]]))
        X(points)
        assert X.contains(points[1:]).all()
        assert calls == [3]
        X.contains(points + 0.01)
        assert calls == [3, 3]


@pytest.mark.parametrize("name", ["flat-slice", "circle", "helix", "sphere-equator"])
def test_builtin_maps_and_metrics_take_lanes(name):
    # a map or metric without lanes=True is looped lane by lane: the same
    # numbers at a per-lane cost, which no built-in one should pay
    scn = BUILTIN_SCENARIOS[name]
    gt = BACKGROUNDS[scn.background]()
    N, lo, hi = SUBMANIFOLDS[scn.submanifold]()
    delta = tubular_radius_estimate(gt, N, _interior_grid(lo, hi, 3), scn.delta0)
    frame = NormalFrame(gt, N)
    psi = _build_psi(scn, frame, delta)
    phi = reference_embedding(frame, delta)
    maps = [N.chart, psi.map, phi.map, normal_exponential(frame), pushforward_field(psi)]
    assert all(f.lanes for f in maps)
    assert gt.lanes and pullback_metric(build_chi(psi, phi), gt).lanes
