import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulertube.errors import (
    DomainMargin,
    NoConvergence,
    SingularJacobian,
    StepUnderflow,
)
from eulertube.numerics import (
    DifferentiableMap,
    Trajectory,
    jacobian,
    ode_integrate,
    solve_inverse,
)


class TestJacobian:
    def test_linear_map(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        f = DifferentiableMap(2, 3, lambda X: X @ A.T)
        for x in (np.zeros(2), np.array([1.0, -2.0]), np.array([0.3, 7.0])):
            assert np.allclose(jacobian(f, x), A, atol=1e-9)

    def test_identity(self):
        f = DifferentiableMap(3, 3, lambda x: x)
        assert np.allclose(f.jacobian(np.array([1.0, 2.0, 3.0])), np.eye(3), atol=1e-10)

    def test_quadratic_hand_oracle(self):
        # f(x1, x2) = (x1^2, x1 x2), jacobian at (1, 2) worked out by hand
        f = DifferentiableMap(2, 2, lambda X: np.stack([X[:, 0] ** 2, X[:, 0] * X[:, 1]], axis=1))
        J = f.jacobian(np.array([1.0, 2.0]))
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
            Ja, Jf = fa.jacobian(x), ffd.jacobian(x)
            worst = max(worst, np.max(np.abs(Ja - Jf)) / max(1.0, np.max(np.abs(Ja))))
        assert worst <= 1e-6

    def test_domain_margin(self):
        f = DifferentiableMap(1, 1, lambda X: X, domain=lambda X: np.abs(X[:, 0]) < 1.0)
        with pytest.raises(DomainMargin):
            f.jacobian(np.array([1.0 - 1e-7]))


class TestOdeIntegrate:
    def test_constant_solution(self):
        traj = ode_integrate(lambda Y: np.zeros_like(Y), np.array([1.0, 2.0]), 5.0, 1e-10)
        assert np.allclose(traj.final_state, [1.0, 2.0])
        assert not traj.exited

    def test_exponential_growth(self):
        traj = ode_integrate(lambda y: y, np.array([1.0]), 1.0, 1e-10)
        assert abs(traj.final_state[0] - np.e) <= 1e-8

    @pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
    def test_global_error_tracks_tolerance(self, tol):
        traj = ode_integrate(lambda y: y, np.array([1.0]), 1.0, tol)
        assert abs(traj.final_state[0] - np.e) <= 100 * tol

    def test_harmonic_oscillator_period(self):
        field = lambda Y: np.stack([Y[:, 1], -Y[:, 0]], axis=1)
        traj = ode_integrate(field, np.array([1.0, 0.0]), 2 * np.pi, 1e-10)
        assert np.linalg.norm(traj.final_state - [1.0, 0.0]) <= 1e-7

    def test_domain_exit_sets_flag(self):
        # constant rightward drift out of the unit ball
        traj = ode_integrate(
            lambda Y: np.array([1.0, 0.0]) + 0.0 * Y,
            np.zeros(2),
            5.0,
            1e-9,
            domain=lambda Y: np.linalg.norm(Y, axis=1) < 1.0,
        )
        assert traj.exited
        assert np.linalg.norm(traj.final_state) < 1.0
        assert np.linalg.norm(traj.final_state) > 1.0 - 1e-6

    def test_blowup_raises_step_underflow(self):
        # y' = y^2 from 1.5 blows up at t = 2/3 < 1
        with pytest.raises(StepUnderflow):
            ode_integrate(lambda y: y**2, np.array([1.5]), 1.0, 1e-10)

    def test_times_strictly_increasing(self):
        traj = ode_integrate(lambda y: -y, np.array([2.0]), 3.0, 1e-8)
        assert np.all(np.diff(traj.times) > 0)

    def test_subnormal_error_estimate_warns_nothing(self):
        # y' = y from a subnormal start: the first step's error estimate is
        # subnormal, so tol / err overflows; the step grows by the capped 5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = ode_integrate(lambda y: y, np.array([1e-310]), 1.0, 1e-3)
        assert len(traj.times) == 2
        assert traj.final_state[0] == pytest.approx(np.e * 1e-310, rel=1e-4)


class TestTrajectory:
    def test_split_views(self):
        states = np.array([[0.0, 0.0, 1.0, 2.0], [1.0, 1.0, 1.0, 2.0]])
        traj = Trajectory(np.array([0.0, 1.0]), states, 1e-9)
        assert traj.points.shape == (2, 2)
        assert np.allclose(traj.velocities[0], [1.0, 2.0])

    def test_rejects_nonmonotone_times(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.0]), np.zeros((2, 2)), 1e-9)


class TestSolveInverse:
    def test_identity(self):
        f = DifferentiableMap(2, 2, lambda x: x)
        x = solve_inverse(f, np.array([3.0, 4.0]), np.zeros(2))
        assert np.allclose(x, [3.0, 4.0])

    def test_linear_scaling(self):
        f = DifferentiableMap(2, 2, lambda x: 2.0 * x)
        assert np.allclose(solve_inverse(f, np.array([2.0, 2.0]), np.zeros(2)), [1.0, 1.0])

    def test_quadratic_embedding_round_trip(self):
        f = DifferentiableMap(
            2, 2, lambda X: X + 0.1 * np.stack([X[:, 0] ** 2, 0.0 * X[:, 0]], axis=1)
        )
        target = np.array([0.3, 0.5])
        x = solve_inverse(f, f(target), np.zeros(2))
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
        y = f(np.array([a, b]))
        x = solve_inverse(f, y, np.zeros(2), tol=1e-12)
        assert np.linalg.norm(f(x) - y) <= 1e-12

    def test_singular_jacobian(self):
        f = DifferentiableMap(
            1, 1, lambda X: X**2, jac=lambda X: (2.0 * X)[:, :, None]
        )
        with pytest.raises((SingularJacobian, NoConvergence)):
            solve_inverse(f, np.array([4.0]), np.array([0.0]))
