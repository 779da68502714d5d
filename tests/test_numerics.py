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
        f = DifferentiableMap(2, 3, lambda x: A @ x)
        for x in (np.zeros(2), np.array([1.0, -2.0]), np.array([0.3, 7.0])):
            assert np.allclose(jacobian(f, x), A, atol=1e-9)

    def test_identity(self):
        f = DifferentiableMap(3, 3, lambda x: x)
        assert np.allclose(f.jacobian(np.array([1.0, 2.0, 3.0])), np.eye(3), atol=1e-10)

    def test_quadratic_hand_oracle(self):
        # f(x1, x2) = (x1^2, x1 x2), jacobian at (1, 2) worked out by hand
        f = DifferentiableMap(2, 2, lambda x: np.array([x[0] ** 2, x[0] * x[1]]))
        J = f.jacobian(np.array([1.0, 2.0]))
        assert np.allclose(J, [[2.0, 0.0], [2.0, 1.0]], atol=1e-9)

    def test_analytic_matches_fd_on_sample(self):
        def fn(x):
            return np.array([np.sin(x[0]) * x[1], x[0] ** 2 + np.cos(x[1])])

        def jac(x):
            return np.array(
                [
                    [np.cos(x[0]) * x[1], np.sin(x[0])],
                    [2.0 * x[0], -np.sin(x[1])],
                ]
            )

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
        f = DifferentiableMap(1, 1, lambda x: x, domain=lambda x: abs(x[0]) < 1.0)
        with pytest.raises(DomainMargin):
            f.jacobian(np.array([1.0 - 1e-7]))


class TestOdeIntegrate:
    def test_constant_solution(self):
        traj = ode_integrate(lambda y: np.zeros(2), np.array([1.0, 2.0]), 5.0, 1e-10)
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
        field = lambda y: np.array([y[1], -y[0]])
        traj = ode_integrate(field, np.array([1.0, 0.0]), 2 * np.pi, 1e-10)
        assert np.linalg.norm(traj.final_state - [1.0, 0.0]) <= 1e-7

    def test_domain_exit_sets_flag(self):
        # constant rightward drift out of the unit ball
        traj = ode_integrate(
            lambda y: np.array([1.0, 0.0]),
            np.zeros(2),
            5.0,
            1e-9,
            domain=lambda y: np.linalg.norm(y) < 1.0,
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
        f = DifferentiableMap(2, 2, lambda x: x + 0.1 * np.array([x[0] ** 2, 0.0]))
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
            2, 2, lambda x: x + 0.05 * np.array([x[1] ** 2, x[0] * x[1]])
        )
        y = f(np.array([a, b]))
        x = solve_inverse(f, y, np.zeros(2), tol=1e-12)
        assert np.linalg.norm(f(x) - y) <= 1e-12

    def test_singular_jacobian(self):
        f = DifferentiableMap(
            1, 1, lambda x: x**2, jac=lambda x: np.array([[2.0 * x[0]]])
        )
        with pytest.raises((SingularJacobian, NoConvergence)):
            solve_inverse(f, np.array([4.0]), np.array([0.0]))
