import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulertube import numerics
from eulertube.errors import (
    DomainMargin,
    NoConvergence,
    SingularJacobian,
    StepUnderflow,
)
from eulertube.metrics import MetricField, christoffel, euclidean_metric
from eulertube.numerics import (
    _DOP853,
    _DP54,
    DifferentiableMap,
    Trajectory,
    _rk_step,
    central_difference,
    central_stencil,
    jacobian,
    ode_integrate,
    solve_inverse,
)
from eulertube.realization import ComparisonMap, pullback_metric


class TestJacobian:
    def test_linear_map(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        f = DifferentiableMap(2, 3, lambda X: X @ A.T)
        for x in (np.zeros(2), np.array([1.0, -2.0]), np.array([0.3, 7.0])):
            assert np.allclose(jacobian(f, x[None])[0], A, atol=1e-9)

    def test_identity(self):
        f = DifferentiableMap(3, 3, lambda x: x)
        assert np.allclose(f.jacobian(np.array([[1.0, 2.0, 3.0]]))[0], np.eye(3), atol=1e-10)

    def test_quadratic_hand_oracle(self):
        # f(x1, x2) = (x1^2, x1 x2), jacobian at (1, 2) worked out by hand
        f = DifferentiableMap(2, 2, lambda X: np.stack([X[:, 0] ** 2, X[:, 0] * X[:, 1]], axis=1))
        J = f.jacobian(np.array([[1.0, 2.0]]))[0]
        assert np.allclose(J, [[2.0, 0.0], [2.0, 1.0]], atol=1e-9)

    def test_analytic_matches_fd_on_sample(self):
        def fn(X):
            x0, x1 = X[:, 0], X[:, 1]
            return np.stack([np.sin(x0) * x1, x0**2 + np.cos(x1)], axis=1)

        def jac(X):
            x0, x1 = X[:, 0], X[:, 1]
            J = np.empty((len(X), 2, 2))
            J[:, 0, 0] = np.cos(x0) * x1
            J[:, 0, 1] = np.sin(x0)
            J[:, 1, 0] = 2.0 * x0
            J[:, 1, 1] = -np.sin(x1)
            return J

        fa = DifferentiableMap(2, 2, fn, jac=jac)
        ffd = DifferentiableMap(2, 2, fn)
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(100):
            x = rng.uniform(-1.5, 1.5, size=2)
            Ja, Jf = fa.jacobian(x[None])[0], ffd.jacobian(x[None])[0]
            worst = max(worst, np.max(np.abs(Ja - Jf)) / max(1.0, np.max(np.abs(Ja))))
        assert worst <= 1e-6

    def test_domain_margin(self):
        f = DifferentiableMap(1, 1, lambda X: X, domain=lambda X: np.abs(X[:, 0]) < 1.0)
        with pytest.raises(DomainMargin):
            f.jacobian(np.array([[1.0 - 1e-7]]))


def inside(X):
    """The domain x_1 < 1 of the stencil tests."""
    return X[:, 1] < 1.0


class TestCentralStencil:
    def test_layout_is_lane_major_plus_before_minus(self):
        h = 0.25
        S = central_stencil(np.zeros((2, 3)), h)
        # each lane's x + h e_i for every i, then x - h e_i, exactly
        expected = np.concatenate([h * np.eye(3), -h * np.eye(3)])
        assert S.shape == (2, 6, 3)
        assert np.array_equal(S[0], expected) and np.array_equal(S[1], expected)
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        S = central_stencil(X, h)
        assert np.array_equal(S[1], [[3.25, 4.0], [3.0, 4.25], [2.75, 4.0], [3.0, 3.75]])
        # the derivative along e_i is row i of the difference
        dF = central_difference(S @ np.array([[2.0], [-1.0]]), h)
        assert np.allclose(dF[:, :, 0], [[2.0, -1.0], [2.0, -1.0]])
        # zero-dimensional lanes, a point frame's, have an empty stencil
        assert central_stencil(np.zeros((4, 0)), h).shape == (4, 0, 0)

    @staticmethod
    def _fd_jacobian():
        f = DifferentiableMap(2, 1, lambda X: X[:, :1] * X[:, 1:], domain=inside, fd_step=1e-3)
        return lambda X: jacobian(f, X)

    @staticmethod
    def _ambient_christoffel():
        g = MetricField(dim=2, matrix_fn=lambda X: np.eye(2) * (1.0 + X[:, 1:, None] ** 2),
                        domain=inside, fd_step=1e-3)
        return lambda X: christoffel(g, X)

    @staticmethod
    def _pullback_christoffel():
        eye = lambda X: np.broadcast_to(np.eye(2), (len(X), 2, 2)).copy()  # noqa: E731
        chart = DifferentiableMap(2, 2, lambda X: X.copy(), jac=eye, domain=inside)
        target = DifferentiableMap(2, 2, lambda X: X.copy(), jac=eye)
        chi = ComparisonMap(chart=chart, target=target, preimage=lambda X: X.copy())
        return pullback_metric(chi, euclidean_metric(2), fd_step=1e-3).christoffel_fn

    @pytest.mark.parametrize("build", ["_fd_jacobian", "_ambient_christoffel", "_pullback_christoffel"])
    def test_stencil_point_outside_the_domain_names_its_coordinate(self, build):
        stencil_fd = getattr(self, build)()
        stencil_fd(np.array([[0.5, 0.5]]))
        # the second lane's x_1 + h e_1 leaves the domain x_1 < 1
        with pytest.raises(DomainMargin, match="stencil point outside domain at coordinate 1"):
            stencil_fd(np.array([[0.5, 0.5], [0.2, 1.0 - 5e-4]]))


class TestOdeIntegrate:
    def test_constant_solution(self):
        traj = ode_integrate(lambda Y: np.zeros_like(Y), np.array([[1.0, 2.0]]), 5.0, 1e-10)
        assert np.allclose(traj.final_state[0], [1.0, 2.0])
        assert not traj.exited[0]

    def test_exponential_growth(self):
        traj = ode_integrate(lambda y: y, np.array([[1.0]]), 1.0, 1e-10)
        assert abs(traj.final_state[0, 0] - np.e) <= 1e-8

    @pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
    def test_global_error_tracks_tolerance(self, tol):
        traj = ode_integrate(lambda y: y, np.array([[1.0]]), 1.0, tol)
        assert abs(traj.final_state[0, 0] - np.e) <= 100 * tol

    def test_harmonic_oscillator_period(self):
        field = lambda Y: np.stack([Y[:, 1], -Y[:, 0]], axis=1)
        traj = ode_integrate(field, np.array([[1.0, 0.0]]), 2 * np.pi, 1e-10)
        assert np.linalg.norm(traj.final_state[0] - [1.0, 0.0]) <= 1e-7

    def test_domain_exit_sets_flag(self):
        # constant rightward drift, a field undefined (NaN) off the unit ball
        def field(Y):
            inside = np.linalg.norm(Y, axis=1) < 1.0
            return np.where(inside[:, None], np.array([1.0, 0.0]) + 0.0 * Y, np.nan)

        traj = ode_integrate(field, np.zeros((1, 2)), 5.0, 1e-9)
        assert traj.exited[0]
        assert np.linalg.norm(traj.final_state[0]) < 1.0
        assert np.linalg.norm(traj.final_state[0]) > 1.0 - 1e-6

    def test_zero_horizon_evaluates_nothing(self):
        def field(Y):
            raise AssertionError("the field was evaluated")

        traj = ode_integrate(field, np.array([[1.0], [2.0]]), 0.0, 1e-8)
        assert traj.final_state.tolist() == [[1.0], [2.0]] and not traj.exited.any()

    def test_blowup_raises_step_underflow(self):
        # y' = y^2 from 1.5 blows up at t = 2/3 < 1
        with pytest.raises(StepUnderflow):
            ode_integrate(lambda y: y**2, np.array([[1.5]]), 1.0, 1e-10)

    def test_times_strictly_increasing(self):
        traj = ode_integrate(lambda y: -y, np.array([[2.0]]), 3.0, 1e-8)
        assert np.all(np.diff(traj.times[:, 0]) > 0)

    def test_subnormal_error_estimate_warns_nothing(self):
        # y' = y from a subnormal start: the first step's error estimate is
        # subnormal, so tol / err overflows; the step grows by the capped 5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = ode_integrate(lambda y: y, np.array([[1e-310]]), 1.0, 1e-3)
        assert len(traj.times) == 2
        assert traj.final_state[0, 0] == pytest.approx(np.e * 1e-310, rel=1e-4)


PAIRS = {"DOP853": _DOP853, "DP54": _DP54}


class TestRungeKuttaPairs:
    @pytest.mark.parametrize("name, least", [("DOP853", 256.0), ("DP54", 32.0)])
    def test_local_error_falls_with_the_order(self, name, least):
        # one step of y' = y: an order-p pair errs O(h^(p+1)), so halving h
        # divides the error by about 2^9 (DOP853) or 2^6 (DP5(4))
        errors = []
        for h in (0.5, 0.25):
            y = np.array([[1.0]])
            y_new, _, _ = _rk_step(lambda Y: Y, y, np.array([h]), y, np.ones(1, bool), PAIRS[name])
            errors.append(abs(y_new[0, 0] - math.exp(h)))
        assert errors[0] / errors[1] > least

    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_weights_and_error_weights_sum(self, name):
        pair = PAIRS[name]
        assert abs(math.fsum(pair.b) - 1.0) <= 1e-15
        for e in (pair.e, pair.e3):
            if e is not None:
                assert abs(math.fsum(e)) <= 1e-15

    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_stage_nodes_lie_in_the_step(self, name):
        # each row sum is the stage's time within the step, in [0, 1]
        for row in PAIRS[name].a:
            assert -1e-15 <= math.fsum(row) <= 1.0 + 1e-15

    @pytest.mark.parametrize("tol, per_pass", [(1e-7, 6), (1e-9, 12)])
    def test_field_calls_per_pass_follow_the_tolerance(self, tol, per_pass, monkeypatch):
        calls = []

        def field(Y):
            calls.append(len(Y))
            return -Y

        # three passes, then the step budget runs out
        monkeypatch.setattr(numerics, "_MAX_STEPS", 3)
        with pytest.raises(StepUnderflow):
            ode_integrate(field, np.array([[1.0]]), 100.0, tol)
        assert len(calls) == 1 + 3 * per_pass


def test_import_loads_no_undeclared_dependency():
    # the package declares numpy and mpmath (click and PyYAML serve only the
    # CLI), and mpmath loads on the first high-precision evaluation; an
    # import of scipy alone would more than double a run's memory
    probe = (
        "import sys; before = set(sys.modules); import eulertube.scenarios; "
        "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    ).stdout.split()
    third_party = {m for m in out if m not in sys.stdlib_module_names}
    assert third_party <= {"eulertube", "numpy"}


class TestTrajectory:
    def test_split_views(self):
        states = np.array([[[0.0, 0.0, 1.0, 2.0]], [[1.0, 1.0, 1.0, 2.0]]])
        traj = Trajectory(np.array([[0.0], [1.0]]), states, exited=np.zeros(1, bool))
        assert traj.points.shape == (2, 1, 2)
        assert np.allclose(traj.velocities[0, 0], [1.0, 2.0])

    def test_rejects_nonmonotone_times(self):
        # a row that advances no lane, and one that moves a lane back
        for times in ([[0.0], [0.0]], [[0.0, 0.0], [1.0, -1.0]]):
            times = np.array(times)
            states, exited = np.zeros(times.shape + (2,)), np.zeros(times.shape[1], bool)
            with pytest.raises(ValueError):
                Trajectory(times, states, exited=exited)


class TestSolveInverse:
    def test_identity(self):
        f = DifferentiableMap(2, 2, lambda x: x)
        x = solve_inverse(f, np.array([[3.0, 4.0]]), np.zeros((1, 2)))
        assert np.allclose(x[0], [3.0, 4.0])

    def test_linear_scaling(self):
        f = DifferentiableMap(2, 2, lambda x: 2.0 * x)
        x = solve_inverse(f, np.array([[2.0, 2.0]]), np.zeros((1, 2)))
        assert np.allclose(x[0], [1.0, 1.0])

    def test_quadratic_embedding_round_trip(self):
        f = DifferentiableMap(
            2, 2, lambda X: X + 0.1 * np.stack([X[:, 0] ** 2, 0.0 * X[:, 0]], axis=1)
        )
        target = np.array([[0.3, 0.5]])
        x = solve_inverse(f, f(target), np.zeros((1, 2)))
        assert np.linalg.norm(x - target) <= 1e-10

    @given(
        st.floats(-0.8, 0.8),
        st.floats(-0.8, 0.8),
    )
    @settings(max_examples=30, deadline=None)
    def test_residual_contract(self, a, b):
        f = DifferentiableMap(
            2, 2, lambda X: X + 0.05 * np.stack([X[:, 1] ** 2, X[:, 0] * X[:, 1]], axis=1)
        )
        y = f(np.array([[a, b]]))
        x = solve_inverse(f, y, np.zeros((1, 2)), tol=1e-12)
        assert np.linalg.norm(f(x) - y) <= 1e-12

    def test_a_target_far_from_the_origin_converges_to_its_ulps(self):
        # at |y| ~ 1e6 the values of f lie 1.2e-10 apart, so no x meets an
        # absolute 1e-12; each lane's bound is max(tol, 16 eps |y|), and the
        # lane near the origin keeps tol itself
        def fn(X):
            x0, x1 = X[:, 0], X[:, 1]
            return np.stack([3.0 * x0 + 0.2 * x1, x1 + 0.1 * np.sin(x0)], axis=1)

        f = DifferentiableMap(2, 2, fn)
        y = np.array([[1.0e6 + 0.3, -7.0e5 + 0.7], [0.3, 0.5]])
        x = solve_inverse(f, y, np.zeros((2, 2)), tol=1e-12)
        residual = np.linalg.norm(f(x) - y, axis=1)
        assert residual[0] <= 16.0 * np.finfo(float).eps * np.linalg.norm(y[0])
        assert residual[1] <= 1e-12

    def test_singular_jacobian(self):
        f = DifferentiableMap(
            1, 1, lambda X: X**2, jac=lambda X: (2.0 * X)[:, :, None]
        )
        with pytest.raises((SingularJacobian, NoConvergence)):
            solve_inverse(f, np.array([[4.0]]), np.array([[0.0]]))
