"""Lanes: a leading axis of independent problems through Newton inversion,
the Dormand-Prince integrator, the normal frame, flow reconstruction,
Christoffel symbols, geodesics, the exponential map and the per-grid and
per-curve checks.

Every lane's result must be bit-identical alone (a batch of one) and
inside a batch."""

import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulertube import embeddings, submanifolds
from eulertube.embeddings import TubularEmbedding, reference_embedding, validate_embedding
from eulertube.errors import DomainMargin, FlowExit, NotInDomain, SingularJacobian
from eulertube.eulerlike import is_euler_like, pushforward_field, reconstruct_embedding
from eulertube.metrics import (
    christoffel,
    euclidean_metric,
    exp_map,
    geodesic,
    polar_metric,
    sphere_chart_metric,
)
from eulertube.numerics import DifferentiableMap, _field_on, jacobian, ode_integrate, solve_inverse
from eulertube.realization import ComparisonMap, build_chi, curve_length, pullback_metric
from eulertube.scenarios import (
    BACKGROUNDS,
    BUILTIN_SCENARIOS,
    SUBMANIFOLDS,
    _build_psi,
    _image_box,
    _interior_grid,
)
from eulertube.submanifolds import NormalFrame, normal_space_basis, tubular_radius_estimate


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

    return DifferentiableMap(2, 2, fn, jac=jac)


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
            alone = solve_inverse(f, y[i : i + 1], np.zeros((1, 2)))
            assert alone.tobytes() == x[i : i + 1].tobytes()

    def test_lane_alone_and_in_a_batch_of_54(self):
        f = quadratic_map()
        rng = np.random.default_rng(54)
        y = f(rng.uniform(-0.8, 0.8, size=(54, 2)))
        x0 = rng.uniform(-0.2, 0.2, size=(54, 2))
        batch = solve_inverse(f, y, x0)
        for i in (0, 17, 53):
            alone = solve_inverse(f, y[i : i + 1], x0[i : i + 1])
            assert alone.tobytes() == batch[i : i + 1].tobytes()

    @pytest.mark.parametrize("eps, raises", [(2.5e-13, True), (4e-10, False)])
    def test_condition_guard(self, eps, raises):
        # the 1-norm condition number of [[1, 1], [1, 1 + eps]] is about 4 / eps
        A = np.array([[1.0, 1.0], [1.0, 1.0 + eps]])
        f = DifferentiableMap(2, 2, lambda X: X @ A.T, jac=lambda X: np.tile(A, (len(X), 1, 1)))
        y = (A @ np.array([0.3, -0.2]))[None]
        if raises:
            with pytest.raises(SingularJacobian):
                solve_inverse(f, y, np.zeros((1, 2)))
        else:
            x = solve_inverse(f, y, np.zeros((1, 2)))
            assert np.linalg.norm(A @ x[0] - y[0]) <= 1e-12


def oscillator(Y):
    """A lane field: the harmonic oscillator (y0, y1) -> (y1, -y0)."""
    return np.stack([Y[:, 1], -Y[:, 0]], axis=1)


def oscillator_in_disc(Y):
    """The oscillator where |y|^2 < 1.2, NaN (undefined) elsewhere."""
    return np.where((np.sum(Y * Y, axis=1) < 1.2)[:, None], oscillator(Y), np.nan)


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
        batch = ode_integrate(oscillator_in_disc, y0, t_end, 1e-9)
        assert batch.times.shape[1] == 54 and batch.exited.shape == (54,)
        assert batch.exited.any() and not batch.exited.all()
        for i in (0, 5, 31, 53):
            alone = ode_integrate(oscillator_in_disc, y0[i : i + 1], t_end[i : i + 1], 1e-9)
            assert alone.final_state.tobytes() == batch.final_state[i : i + 1].tobytes()
            assert alone.exited[0] == batch.exited[i]
            t, states = lane_history(batch, i)
            assert t.tobytes() == alone.times[:, 0].tobytes()
            assert states.tobytes() == alone.states[:, 0].tobytes()

    def test_a_lane_starting_where_the_field_is_undefined_exits_there(self):
        # lane 1 starts outside the disc (the field is NaN there) and lane 2
        # at a NaN state: both exit at t = 0, and the field never sees a
        # non-finite state or either lane again
        seen = []

        def field(Y):
            seen.append(Y.copy())
            return oscillator_in_disc(Y)

        y0 = np.array([[0.5, 0.0], [1.0, 1.0], [np.nan, 0.0], [0.0, -0.7]])
        batch = ode_integrate(field, y0, 2.0, 1e-9)
        assert batch.exited.tolist() == [False, True, True, False]
        assert not batch.times[:, 1:3].any()
        assert batch.final_state[1:3].tobytes() == y0[1:3].tobytes()
        assert len(seen[0]) == 3 and all(len(Y) == 2 for Y in seen[1:])
        assert all(np.isfinite(Y).all() for Y in seen)
        for i in (0, 3):
            alone = ode_integrate(oscillator_in_disc, y0[i : i + 1], 2.0, 1e-9)
            assert alone.final_state.tobytes() == batch.final_state[i : i + 1].tobytes()
            t, states = lane_history(batch, i)
            assert t.tobytes() == alone.times[:, 0].tobytes()
            assert states.tobytes() == alone.states[:, 0].tobytes()

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
        p, v = np.array([p]), np.array([v])
        traj = geodesic(g, p, v, t, tol=1e-10)
        x = g.exp_fn(p, t * v)
        assert np.max(np.abs(traj.points[-1] - x)) <= 1e-8

    @given(
        st.floats(0.9, 2.2),
        st.floats(0.9, 2.0),
        st.floats(-0.5, 0.5),
        st.floats(-0.5, 0.5),
    )
    @settings(max_examples=15, deadline=None)
    def test_sphere_chart_integrator_matches_closed_form(self, theta, phi, a, b):
        g = sphere_chart_metric()
        p, v = np.array([[theta, phi]]), np.array([[a, b]])
        traj = geodesic(g, p, v, 1.0, tol=1e-10)
        assert not traj.exited[0]
        x = g.exp_fn(p, v)
        assert np.max(np.abs(traj.points[-1] - x)) <= 1e-7


ZERO, EXIT = 3, 7  # the lanes below with zero velocity and leaving the domain


def lane_data(lo, hi, speed, exit_velocity, count=61, seed=61):
    """``count`` points uniform in the box [lo, hi], velocities uniform in
    [-speed, speed], lane ZERO at rest and lane EXIT leaving the domain."""
    rng = np.random.default_rng(seed)
    P = rng.uniform(lo, hi, size=(count, 2))
    V = rng.uniform(-speed, speed, size=(count, 2))
    V[ZERO] = 0.0
    V[EXIT] = exit_velocity
    return P, V


@functools.lru_cache(maxsize=None)
def certified_radius(name):
    """A built-in tube scenario's background metric, submanifold, radius
    grid and certified radius, as its pipeline builds them.  The radius
    search is the costly step, so tests share it."""
    scn = BUILTIN_SCENARIOS[name]
    gt = BACKGROUNDS[scn.background]()
    N = SUBMANIFOLDS[scn.submanifold]()
    grid = _interior_grid(N, scn.sample("grid"))
    return gt, N, grid, tubular_radius_estimate(NormalFrame(gt, N), grid, scn.delta0)


def tube_pipeline(name):
    """psi of a built-in tube scenario on its certified radius, with the
    pipeline's seed table, on a new frame whose memo no other test has
    filled, and the pieces it is built from."""
    gt, N, grid, delta = certified_radius(name)
    frame = NormalFrame(gt, N)
    psi = _build_psi(BUILTIN_SCENARIOS[name], frame, delta)
    return psi, frame, gt, delta, grid


def circle_pullback_case():
    """The circle scenario's pullback metric on chi's box domain, as its
    pipeline builds them, at points psi(u, c) of the tube."""
    psi, frame, gt, delta, _ = tube_pipeline("circle")
    dom = _image_box(psi, 0.3 * delta)
    g = pullback_metric(build_chi(psi, reference_embedding(frame, delta), domain=dom), gt)
    N = psi.N
    UC, V = lane_data([N.lo + 0.3, -0.3 * delta], [N.hi - 0.3, 0.3 * delta], 0.1, [3.0, 3.0])
    return g, psi.map(UC), V


LANE_CASES = {
    "circle-pullback": circle_pullback_case,
    # closed-form geodesics and analytic Christoffel symbols
    "sphere-chart": lambda: (sphere_chart_metric(), *lane_data([1.0, 1.0], [2.1, 1.9], 0.2, [0.0, 3.0])),
    # integrated geodesics and finite-difference Christoffel symbols
    "polar": lambda: (polar_metric(), *lane_data([1.0, -1.0], [2.0, 1.0], 0.3, [-3.0, 0.0])),
}


class TestGeodesicLanes:
    @pytest.mark.parametrize("name", LANE_CASES)
    def test_geodesic_lane_alone_and_in_a_batch_of_61(self, name):
        g, P, V = LANE_CASES[name]()
        batch = geodesic(g, P, V, 1.0, tol=1e-9)
        assert batch.exited.tolist() == [i == EXIT for i in range(len(P))]
        for i in (0, ZERO, EXIT, len(P) - 1):
            alone = geodesic(g, P[i : i + 1], V[i : i + 1], 1.0, tol=1e-9)
            t, states = lane_history(batch, i)
            assert alone.exited[0] == batch.exited[i]
            assert alone.times[:, 0].tobytes() == t.tobytes()
            assert alone.states[:, 0].tobytes() == states.tobytes()

    @pytest.mark.parametrize("name", LANE_CASES)
    def test_exp_map_lane_alone_and_in_a_batch_of_60(self, name):
        g, P, V = LANE_CASES[name]()
        # one lane leaving the domain fails the batch, as it fails alone
        with pytest.raises(NotInDomain):
            exp_map(g, P, V, tol=1e-9)
        with pytest.raises(NotInDomain):
            exp_map(g, P[EXIT : EXIT + 1], V[EXIT : EXIT + 1], tol=1e-9)
        P, V = np.delete(P, EXIT, axis=0), np.delete(V, EXIT, axis=0)
        batch = exp_map(g, P, V, tol=1e-9)
        assert batch.shape == (60, 2)
        assert batch[ZERO].tobytes() == P[ZERO].tobytes()
        for i in (0, ZERO, 30, len(P) - 1):
            alone = exp_map(g, P[i : i + 1], V[i : i + 1], tol=1e-9)
            assert alone.tobytes() == batch[i : i + 1].tobytes()

    @pytest.mark.parametrize("name", LANE_CASES)
    def test_christoffel_lanes_equal_single_points(self, name):
        g, P, _ = LANE_CASES[name]()
        gamma = christoffel(g, P)
        assert gamma.shape == (len(P), 2, 2, 2)
        for i in range(0, len(P), 6):
            assert christoffel(g, P[i : i + 1]).tobytes() == gamma[i : i + 1].tobytes()

    def test_sphere_chart_closed_form_on_lanes_matches_integration(self):
        g, P, V = LANE_CASES["sphere-chart"]()
        P, V = np.delete(P, EXIT, axis=0), np.delete(V, EXIT, axis=0)
        x = g.exp_fn(P, V)
        assert x[ZERO].tobytes() == P[ZERO].tobytes()
        traj = geodesic(g, P, V, 1.0, tol=1e-12)
        assert not traj.exited.any()
        assert np.max(np.abs(traj.points[-1] - x)) <= 1e-9


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
        N = SUBMANIFOLDS[name]()
        us = np.linspace(N.lo + 0.05, N.hi - 0.05, 11)[:, None]
        lanes = NormalFrame(g, N).derivative(us)
        for i in range(len(us)):
            one = NormalFrame(g, N).derivative(us[i : i + 1])
            for field in ("p", "B", "J", "dJ", "dB"):
                assert getattr(one, field).tobytes() == getattr(lanes, field)[i : i + 1].tobytes()

    def test_lanes_that_skip_a_column_beside_lanes_that_do_not(self):
        # at u = pi/2 the circle's tangent is -e0, so the first projector
        # column vanishes and Gram-Schmidt skips it
        g = euclidean_metric(2)
        N = SUBMANIFOLDS["circle-full"]()
        us = np.array([[0.3], [np.pi / 2], [-1.0]])
        B = normal_space_basis(g, N, us)
        assert np.allclose(B[1, :, 0], [0.0, 1.0], atol=1e-12)
        for i in range(len(us)):
            assert normal_space_basis(g, N, us[i : i + 1]).tobytes() == B[i : i + 1].tobytes()

    def test_fd_jacobian_on_lanes_equals_per_point(self):
        f = DifferentiableMap(
            2, 2, lambda X: np.stack([np.sin(X[:, 0]) * X[:, 1], X[:, 0] ** 2], axis=1)
        )
        X = np.array([[0.3, -0.2], [1.1, 0.4]])
        J = jacobian(f, X)
        for i in range(len(X)):
            assert jacobian(f, X[i : i + 1]).tobytes() == J[i : i + 1].tobytes()


def helix_pipeline():
    psi, frame, _, delta, _ = tube_pipeline("helix")
    return psi, reference_embedding(frame, delta)


class TestReconstructionLanes:
    def test_six_points_equal_their_single_point_results(self):
        psi, phi = helix_pipeline()
        X = pushforward_field(psi)
        lo, hi = psi.N.lo, psi.N.hi
        us = np.linspace(lo + 0.25 * (hi - lo), hi - 0.25 * (hi - lo), 6)[:, None]
        angles = np.linspace(0.0, 2.0 * np.pi, 6, endpoint=False)
        cs = 0.5 * psi.delta * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        # 6 points x 6 schedule times: one integration of 36 lanes
        batch = reconstruct_embedding(X, phi, us, cs, tol=1e-4, flow_tol=1e-9)
        for i in range(len(us)):
            u, c = us[i : i + 1], cs[i : i + 1]
            one = reconstruct_embedding(X, phi, u, c, tol=1e-4, flow_tol=1e-9)
            assert one.tobytes() == batch[i : i + 1].tobytes()
            assert np.linalg.norm(batch[i] - psi(u, c)[0]) <= 1e-4

    @pytest.mark.parametrize("name", ["helix", "circle"])
    def test_point_takes_at_most_100_field_evaluations(self, name):
        # the scenario's flows on its default schedule 2^-1 ... 2^-6 at
        # flow_tol 1e-9 take the 8th-order pair under PI step control: 85
        # evaluations (7 passes of 12 and the first k1) on helix and circle,
        # where nine halvings under I control took 157 and 145
        psi, frame, _, delta, _ = tube_pipeline(name)
        phi = reference_embedding(frame, delta)
        X = pushforward_field(psi)
        calls = []

        def fn(Y):
            calls.append(len(Y))
            return X.fn(Y)

        u = np.array([[0.5 * (psi.N.lo + psi.N.hi)]])
        c = 0.5 * delta * np.eye(psi.fiber_dim)[:1]
        rec = reconstruct_embedding(replace(X, fn=fn), phi, u, c, tol=1e-4, flow_tol=1e-9)
        assert np.linalg.norm(rec[0] - psi(u, c)[0]) <= 1e-4
        assert len(calls) <= 100

    def test_circle_reconstruction_is_fourth_order(self):
        # at flow_tol 1e-13 the flow error stays below the truncation, so
        # halving t_min divides the error by 2^4 with three Richardson levels
        # (2.65e-8, 1.76e-9, 1.20e-10), where two levels gave 2^3
        psi, frame, _, delta, _ = tube_pipeline("circle")
        phi = reference_embedding(frame, delta)
        X = pushforward_field(psi)
        u = np.array([[0.5 * (psi.N.lo + psi.N.hi)]])
        c = np.array([[0.5 * delta]])
        errs = []
        for last in (5, 6, 7):
            t_seq = 2.0 ** -np.arange(1, last + 1)
            rec = reconstruct_embedding(X, phi, u, c, t_seq=t_seq, tol=1e-4, flow_tol=1e-13)
            errs.append(np.linalg.norm(rec[0] - psi(u, c)[0]))
        orders = np.log2(np.array(errs[:-1]) / errs[1:])
        assert np.all(orders >= 3.5), orders

    def test_pushforward_is_nan_exactly_past_the_margin(self):
        # the 9 finite lanes of straddle_helix lie on the segment from
        # psi(u, 0) to psi(u, 1.5 delta e_1); the field is undefined where
        # the preimage has |c| >= 1.05 delta, on the last three
        psi, points = straddle_helix()
        points = points[:-1]
        X = pushforward_field(psi)
        V = X(points)
        UC = psi.invert(points)
        radius = np.sqrt((UC[:, 1:] ** 2).sum(axis=1)) / psi.delta
        past = radius >= 1.05
        assert past.tolist() == (1.5 * np.linspace(0.0, 1.0, 9) >= 1.05).tolist()
        assert np.isnan(V[past]).all() and np.isfinite(V[~past]).all()
        for i in range(len(points)):
            assert X(points[i : i + 1]).tobytes() == V[i : i + 1].tobytes()

    def test_field_on_evaluates_each_defined_lane_once(self, monkeypatch):
        # the NaN lane of straddle_helix is never evaluated, so psi is
        # inverted once, on the 9 others; the lanes past the margin leave ok
        psi, points = straddle_helix()
        calls = []
        invert = type(psi).invert

        def counted(self, x):
            calls.append(len(x))
            return invert(self, x)

        monkeypatch.setattr(type(psi), "invert", counted)
        X = pushforward_field(psi)
        ok = np.ones(len(points), bool)
        V = _field_on(X, points, ok)
        assert calls == [9]
        assert ok.tolist() == np.isfinite(V).all(axis=1).tolist()
        assert ok[:6].all() and not ok[6:].any()

    def test_a_flow_past_the_margin_exits(self):
        # c = 1.1 delta: every flow of the circle's reconstruction reaches
        # |c| = 1.05 delta, where the pushforward field is undefined
        psi, frame, _, delta, _ = tube_pipeline("circle")
        u = np.array([[0.5 * (psi.N.lo + psi.N.hi)]])
        c = np.array([[1.1 * delta]])
        phi = reference_embedding(frame, delta)
        with pytest.raises(FlowExit, match="t=0.5"):
            reconstruct_embedding(
                pushforward_field(psi), phi, u, c, t_seq=2.0 ** -np.arange(1, 6), flow_tol=1e-7
            )


def straddle_helix():
    """The helix embedding and 10 lanes straddling its tube, the last one
    NaN: psi inverts the 9 others, and fails on the NaN lane."""
    psi, frame, _, delta, _ = tube_pipeline("helix")
    u = 0.5 * (psi.N.lo + psi.N.hi)
    mid = np.array([[u, 0.0, 0.0]])
    far = mid + np.array([[0.0, 1.5 * delta, 0.0]])
    return psi, straddle(psi.map(mid)[0], psi.map(far)[0])


def straddle(inside, *outside, count=9):
    """Lanes on the segments from a point inside a domain to each point
    outside it, and a NaN lane last."""
    s = np.linspace(0.0, 1.0, count)[:, None]
    inside = np.asarray(inside, dtype=float)
    segments = [(1.0 - s) * inside + s * np.asarray(out, dtype=float) for out in outside]
    return np.concatenate([*segments, np.full((1, len(inside)), np.nan)])


def assert_lane_mask(domain, X):
    """domain takes the lanes X and gives a (B,) bool mask, with lanes on
    both sides of the boundary, that is its batch-of-one answer lane by
    lane."""
    mask = domain(X)
    assert isinstance(mask, np.ndarray) and mask.dtype == bool and mask.shape == (len(X),)
    assert mask.any() and not mask.all()
    assert not mask[-1]  # NaN is outside
    for i in range(len(X)):
        one = domain(X[i : i + 1])
        assert one.shape == (1,) and one[0] == mask[i]


class TestLaneOnlyCallables:
    """A chi preimage takes lanes only."""

    def test_comparison_map_preimage(self):
        f = quadratic_map()
        seen = []

        def preimage(X):
            seen.append(X.shape)
            return solve_inverse(f, X, np.zeros_like(X))

        chi = ComparisonMap(chart=f, target=f, preimage=preimage)
        X = np.array([[0.1, 0.2], [-0.3, 0.4]])
        Y, D = chi(X), chi.jacobian(X)
        for i in range(len(X)):
            assert chi(X[i : i + 1]).tobytes() == Y[i : i + 1].tobytes()
            assert chi.jacobian(X[i : i + 1]).tobytes() == D[i : i + 1].tobytes()
        assert all(len(shape) == 2 for shape in seen)


class TestBuiltinDomainsTakeLanes:
    def test_backgrounds(self):
        for name, far in (("euclidean-2d", [2e6, 0.0]), ("euclidean-3d", [0.0, 0.0, -2e6])):
            assert_lane_mask(BACKGROUNDS[name]().domain, straddle(np.zeros(len(far)), far))
        # every bound of the sphere chart, (0.05, pi - 0.05) x (0.05, 2.9)
        X = straddle([1.5, 1.5], [3.2, 1.5], [0.0, 1.5], [1.5, 3.0], [1.5, 0.0])
        assert_lane_mask(BACKGROUNDS["sphere-chart"]().domain, X)

    def test_polar(self):
        assert_lane_mask(polar_metric().domain, straddle([1.0, 0.3], [-1.0, 0.3]))

    @pytest.mark.parametrize("name", sorted(SUBMANIFOLDS))
    def test_submanifold_parameters(self, name):
        N = SUBMANIFOLDS[name]()
        lo, hi = N.lo, N.hi
        assert_lane_mask(N.in_param_domain, straddle([0.5 * (lo + hi)], [lo - 0.5], [hi + 0.5]))

    @pytest.mark.parametrize("name", ["flat-slice", "circle", "helix", "sphere-equator"])
    def test_tube_maps_and_chi_box(self, name):
        psi, frame, _, delta, _ = tube_pipeline(name)
        phi = reference_embedding(frame, delta)
        lo, hi = psi.N.lo, psi.N.hi
        u = 0.5 * (lo + hi)
        m = psi.fiber_dim
        mid = np.concatenate([[u], np.zeros(m)])
        # beyond either end of the base interval, and past the fiber
        # radius: 1.2 delta for psi, delta for phi
        far = [mid + np.eye(m + 1)[1] * 2.0 * delta, [lo - 0.5, *np.zeros(m)], [hi + 0.5, *np.zeros(m)]]
        assert_lane_mask(psi.map.domain, straddle(mid, *far))
        assert_lane_mask(phi.domain, straddle(mid, *far))
        box = _image_box(psi, 0.3 * delta)
        center = psi.seed_images.mean(axis=1)
        axes = 10.0 * np.eye(len(center))
        assert_lane_mask(box, straddle(center, *(center + axes), *(center - axes)))


def nearest_seed(psi, X):
    """The nearest seed by a (B, #seeds, n) difference: the reference for
    ``TubularEmbedding.invert``'s search."""
    d = psi.seed_images.T - X[:, None, :]
    return np.argmin(np.sqrt((d * d).sum(axis=-1)), axis=1)


def tube_points(psi, draws):
    """Frame coordinates (u, c) inside the certified tube, |c| < 0.7 delta,
    from draws (a, b, c) in [0, 1]^3."""
    a, b, c = np.array(draws, dtype=float).T
    lo, hi = psi.N.lo, psi.N.hi
    U = (lo + (0.1 + 0.8 * a) * (hi - lo))[:, None]
    radius = 0.7 * psi.delta * b
    if psi.fiber_dim == 1:
        C = np.where(c < 0.5, -radius, radius)[:, None]
    else:
        C = radius[:, None] * np.stack([np.cos(2.0 * np.pi * c), np.sin(2.0 * np.pi * c)], axis=1)
    return np.concatenate([U, C], axis=1)


unit = st.floats(0.0, 1.0)


class TestInvertContract:
    @pytest.mark.parametrize("name", ["helix", "circle"])
    @given(draws=st.lists(st.tuples(unit, unit, unit), min_size=1, max_size=12))
    @settings(max_examples=20, deadline=None)
    def test_round_trip_and_each_lane_equals_its_solo_solve(self, name, draws):
        psi = tube_pipeline(name)[0]
        UC = tube_points(psi, draws)
        X = psi.map(UC)
        batch = psi.invert(X)
        assert np.max(np.abs(batch - UC)) <= 1e-10
        seeds = psi.seeds[nearest_seed(psi, X)]
        for i in range(len(X)):
            solo = psi.invert(X[i : i + 1])
            assert solo.tobytes() == batch[i : i + 1].tobytes()
            # the table's stored image and inverse start the iterates of a
            # cold solve from the same seed
            cold = solve_inverse(psi.map, X[i : i + 1], seeds[i : i + 1])
            assert cold.tobytes() == solo.tobytes()


class TestSeedSearch:
    @pytest.mark.parametrize("name", ["helix", "circle"])
    def test_invert_starts_from_the_broadcast_nearest_seed(self, name, monkeypatch):
        psi = tube_pipeline(name)[0]
        starts = []

        def first_seed(f, y, x0, **kwargs):
            starts.append(x0)
            return x0

        monkeypatch.setattr(embeddings, "solve_inverse", first_seed)
        images = psi.seed_images.T
        rng = np.random.default_rng(7)
        lo, hi = images.min(axis=0), images.max(axis=0)
        # random targets, the seed images themselves, and midpoints of
        # seed pairs, where two distances tie up to rounding
        pairs = rng.integers(0, len(images), size=(40, 2))
        targets = [
            rng.uniform(lo, hi, size=(B, len(lo))) for B in (1, 7, 64)
        ] + [images, 0.5 * (images[pairs[:, 0]] + images[pairs[:, 1]])]
        for X in targets:
            psi.invert(X)
            assert starts[-1].tobytes() == psi.seeds[nearest_seed(psi, X)].tobytes()


def count_work(monkeypatch, psi):
    """Record psi's value and jacobian calls from here on, as (kind, lanes,
    the lanes of every frame build the call made)."""
    calls, builds = [], []
    build = submanifolds._normal_frame

    def counted_build(*args):
        builds.append(args[-1].copy())
        return build(*args)

    def counted(kind, f):
        def call(UC):
            start = len(builds)
            out = f(UC)
            calls.append((kind, UC.copy(), builds[start:]))
            return out

        return call

    value, jacobian_ = counted("value", psi.map.fn), counted("jacobian", psi.map.jac)
    psi.map = replace(psi.map, fn=value, jac=jacobian_)
    monkeypatch.setattr(submanifolds, "_normal_frame", counted_build)
    return calls


class TestNewtonWork:
    def helix_targets(self, psi):
        """Eight tube points and, last, a seed's own image, which is solved
        before the first step."""
        rng = np.random.default_rng(3)
        UC = tube_points(psi, rng.uniform(0.0, 1.0, size=(8, 3)))
        return np.concatenate([psi.map(UC), psi.seed_images[:, [40]].T])

    def test_invert_evaluates_nothing_for_its_first_step(self, monkeypatch):
        psi, _ = helix_pipeline()
        X = self.helix_targets(psi)
        start = psi.seeds[nearest_seed(psi, X)]
        calls = count_work(monkeypatch, psi)
        uc = psi.invert(X)
        assert uc[-1].tobytes() == start[-1].tobytes()
        values = [(x, b) for kind, x, b in calls if kind == "value"]
        jacobians = [b for kind, _, b in calls if kind == "jacobian"]
        # the seed table holds psi and the inverse jacobian at the seeds
        assert calls[0][0] == "value"
        assert not any(np.array_equal(x, start) for _, x, _ in calls)
        # the batch stays fixed, so every call sees every lane, converged
        # ones included; each value call builds the jet of its lanes, in
        # their own order, and the jacobian after it builds nothing: one
        # frame build per iterate
        assert all(len(x) == len(X) for _, x, _ in calls)
        assert len(values) >= 2 and len(jacobians) == len(values) - 1
        h = submanifolds._FRAME_DU
        for x, b in values:
            u = x[:, :1]
            assert len(b) == 1 and b[0].tobytes() == np.concatenate([u, u + h, u - h]).tobytes()
        assert not any(jacobians)
        assert np.array_equal(values[-1][0], uc)

    def test_pushforward_builds_no_frame_at_its_solution(self, monkeypatch):
        psi, _ = helix_pipeline()
        X = self.helix_targets(psi)
        field = pushforward_field(psi)
        calls = count_work(monkeypatch, psi)
        field(X)
        values = [x for kind, x, _ in calls if kind == "value"]
        # the last call is the jacobian at the solution, on the lanes of
        # the last value call, whose jet it reuses
        kind, x, builds = calls[-1]
        assert kind == "jacobian" and np.array_equal(x, values[-1]) and not builds
        assert all(len(b) == (kind == "value") for kind, _, b in calls)

    def test_fd_stencil_outside_the_domain_at_a_converged_lane(self):
        # the first lane starts on its solution, h / 2 inside the domain's
        # edge: its jacobian stencil leaves the domain, but no step needs it
        f = DifferentiableMap(
            2, 2, lambda X: X + 0.05 * X * X, domain=lambda X: X[:, 0] < 1.0
        )
        edge = np.array([1.0 - 0.5 * f.fd_step, 0.2])
        y = f(np.array([edge, [0.5, -0.3]]))
        x0 = np.array([edge, [0.0, 0.0]])
        x = solve_inverse(f, y, x0)
        assert x[0].tobytes() == edge.tobytes()
        assert np.linalg.norm(f(x[1:]) - y[1:]) <= 1e-12
        assert solve_inverse(f, y[1:], x0[1:]).tobytes() == x[1:].tobytes()
        # a live lane there still needs its jacobian
        with pytest.raises(DomainMargin):
            solve_inverse(f, f(np.array([[0.9, 0.2]])), edge[None])

    def test_a_singular_seed_fails_only_the_inversions_that_start_from_it(self):
        def fn(X):
            return np.stack([(X[:, 0] - 0.5) ** 3, X[:, 1]], axis=1)

        def jac(X):
            J = np.zeros((len(X), 2, 2))
            J[:, 0, 0] = 3.0 * (X[:, 0] - 0.5) ** 2
            J[:, 1, 1] = 1.0
            return J

        f = DifferentiableMap(2, 2, fn, jac=jac)
        N = SUBMANIFOLDS["circle-arc"]()
        # seeds (u, c) at u = 0, 1/4, ..., 1, five fiber points c each in
        # ascending order: the jacobian is singular at u = 1/2 only, on the
        # seeds 10 to 14, and (1/2, 0) is seed 12
        psi = TubularEmbedding(
            map=f,
            frame=NormalFrame(euclidean_metric(2), N),
            delta=1.0,
            seed_grid=np.linspace(0.0, 1.0, 5)[:, None],
        )
        assert psi.seeds[12].tolist() == [0.5, 0.0]
        assert np.isnan(psi.seed_inverses[10:15]).all()
        assert np.isfinite(np.delete(psi.seed_inverses, np.s_[10:15], axis=0)).all()
        y = f(np.array([[0.05, 0.1], [0.27, 0.1], [0.55, 0.1], [0.8, 0.1], [0.97, 0.1]]))
        assert nearest_seed(psi, y).tolist() == [2, 7, 12, 17, 22]
        good = [0, 1, 3, 4]
        assert np.max(np.abs(f(psi.invert(y[good])) - y[good])) <= 1e-12
        with pytest.raises(SingularJacobian):
            psi.invert(y[2:3])
        with pytest.raises(SingularJacobian):
            psi.invert(y)


class TestCheckLanes:
    def test_curve_length_of_k_curves_equals_k_single_calls(self):
        g, P, _ = circle_pullback_case()
        rng = np.random.default_rng(5)
        K = 5
        X0 = P[:K, None]
        A = 0.05 * rng.standard_normal((K, 1, 2))
        B = 0.02 * rng.standard_normal((K, 1, 2))
        lengths = curve_length(g, lambda t: X0 + t * A + t * t * B, lambda t: A + 2.0 * t * B)
        assert lengths.shape == (K,)
        for k in range(K):
            x0, a, b = X0[k : k + 1], A[k : k + 1], B[k : k + 1]
            one = curve_length(g, lambda t: x0 + t * a + t * t * b, lambda t: a + 2.0 * t * b)
            assert one.tobytes() == lengths[k : k + 1].tobytes()

    @pytest.mark.parametrize("name", ["helix", "circle"])
    def test_grid_checks_equal_their_per_point_results(self, name):
        psi, frame, _, _, _ = tube_pipeline(name)
        grid = _interior_grid(psi.N, 9)
        field = pushforward_field(psi)
        ok, res = is_euler_like(field, frame, grid)
        assert ok
        lanes = [grid[i : i + 1] for i in range(len(grid))]
        assert res == max(is_euler_like(field, frame, u)[1] for u in lanes)
        worst = validate_embedding(frame, psi.map, grid)
        assert worst == max(validate_embedding(frame, psi.map, u) for u in lanes)
