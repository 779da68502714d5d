import dataclasses

import numpy as np
import pytest

from eulertube.embeddings import TubularEmbedding
from eulertube.errors import EulertubeError, NoConvergence
from eulertube.eulerlike import (
    _quotient_action,
    is_euler_like,
    pushforward_euler,
    pushforward_field,
    reconstruct_embedding,
    vanishes_on_N,
)
from eulertube.metrics import euclidean_metric
from eulertube.numerics import DifferentiableMap
from eulertube.submanifolds import NormalFrame, ParametrizedSubmanifold

ORIGIN = np.zeros((1, 0))  # the one base point of a point submanifold, as lanes


class NotVanishing(EulertubeError):
    """Vector field does not vanish on the submanifold at the query point."""


def euler_field(C):
    """The radial fiber field on lanes of fiber coordinates: returns the
    coordinates themselves."""
    return np.array(C, dtype=float)


def linear_approximation(X: DifferentiableMap, frame: NormalFrame, U):
    """Quotient action of the jacobian A of X at p(u) on the normal classes,
    on lanes of base points U (B, k): the induced matrices (B, m, m) in the
    normal frame B of ``frame``, orthonormal under its metric G.

    The class of a normal frame vector b is sent to the class of A b; with
    a G-orthonormal frame the class coordinates are B^T G A b.  Raises
    NotVanishing at the lane of largest |X(p(u))| if that exceeds the
    vanishing tolerance.
    """
    fp = frame.at(U)
    ok, worst, i = vanishes_on_N(X, fp.p)
    if not ok:
        raise NotVanishing(f"|X(p(u))| = {worst:.3e} at u={U[i]}")
    return _quotient_action(X, fp)


def origin_r2():
    """The single-point submanifold {0} in the plane (k = 0)."""
    chart = DifferentiableMap(0, 2, lambda U: np.zeros((len(U), 2)))
    return ParametrizedSubmanifold(chart)


def x_axis_r2():
    chart = DifferentiableMap(1, 2, lambda U: np.concatenate([U, 0.0 * U], axis=1))
    return ParametrizedSubmanifold(chart)


def quadratic(V):
    """v + 0.1 (v0^2, 0) on lanes."""
    return V + 0.1 * np.stack([V[:, 0] ** 2, 0.0 * V[:, 0]], axis=1)


def oracle(fn, n=2):
    return DifferentiableMap(n, n, fn)


def embedding_over(N, fn, delta=1.5, jac=None):
    """The embedding fn over N, its seed table at the parameter origin."""
    g = euclidean_metric(N.ambient_dim)
    return TubularEmbedding(
        map=DifferentiableMap(N.ambient_dim, N.ambient_dim, fn, jac=jac),
        frame=NormalFrame(g, N),
        delta=delta,
        seed_grid=np.zeros((1, N.param_dim)),
    )


class TestEulerField:
    def test_returns_fiber_coordinates(self):
        assert np.allclose(euler_field(np.array([[1.0, 2.0]])), [[1.0, 2.0]])

    def test_vanishes_at_origin(self):
        assert not np.any(euler_field(np.zeros((1, 3))))

    def test_linear(self):
        x = np.array([[0.3, -0.7]])
        assert np.allclose(euler_field(2.5 * x), 2.5 * euler_field(x))


class TestVanishesOnN:
    def test_euler_field_on_origin(self):
        ok, res, _ = vanishes_on_N(oracle(euler_field), origin_r2().point(ORIGIN))
        assert ok and res == 0.0

    def test_constant_field_fails(self):
        ok, res, _ = vanishes_on_N(
            oracle(lambda X: np.tile([1.0, 0.0], (len(X), 1))), origin_r2().point(ORIGIN)
        )
        assert not ok
        assert res == pytest.approx(1.0)

    def test_a_nan_fails_at_any_lane(self):
        # a NaN value is no vanishing, wherever its lane is in the batch
        P = x_axis_r2().point(np.array([[0.0], [1.0], [2.0]]))
        X = oracle(lambda Y: np.where(Y[:, :1] == 1.0, np.nan, 0.0) * Y)
        ok, res, lane = vanishes_on_N(X, P)
        assert not ok and np.isnan(res) and lane == 1
        frame = NormalFrame(euclidean_metric(2), x_axis_r2())
        with pytest.raises(NotVanishing, match=r"at u=\[1\.\]"):
            linear_approximation(X, frame, np.array([[0.0], [1.0]]))


class TestLinearApproximation:
    def test_euler_is_its_own_approximation(self):
        g = euclidean_metric(2)
        induced = linear_approximation(oracle(euler_field), NormalFrame(g, origin_r2()), ORIGIN)
        assert np.allclose(induced[0], np.eye(2), atol=1e-9)

    def test_doubled_euler(self):
        g = euclidean_metric(2)
        induced = linear_approximation(oracle(lambda x: 2.0 * x), NormalFrame(g, origin_r2()), ORIGIN)
        assert np.allclose(induced[0], 2.0 * np.eye(2), atol=1e-9)

    def test_quadratic_perturbation_invisible(self):
        g = euclidean_metric(2)
        fn = lambda X: X + np.stack([0.3 * X[:, 1] ** 2, 0.2 * X[:, 0] * X[:, 1]], axis=1)
        induced = linear_approximation(oracle(fn), NormalFrame(g, origin_r2()), ORIGIN)
        assert np.max(np.abs(induced[0] - np.eye(2))) <= 1e-6

    def test_nonvanishing_rejected(self):
        g = euclidean_metric(2)
        with pytest.raises(NotVanishing, match=r"at u=\[\]"):
            linear_approximation(oracle(lambda x: x + 1.0), NormalFrame(g, origin_r2()), ORIGIN)


class TestIsEulerLike:
    def test_euler_accepted(self):
        g = euclidean_metric(2)
        ok, res = is_euler_like(oracle(euler_field), NormalFrame(g, origin_r2()), ORIGIN)
        assert ok and res <= 1e-9

    def test_field_evaluated_once_on_the_grid(self):
        # the vanishing test's values decide; the quotient action takes only
        # the jacobian, whose stencil points are the field's other calls
        grid = np.array([[-0.5], [0.0], [0.7]])
        seen = []

        def fn(X):
            seen.append(X.copy())
            return np.concatenate([0.0 * X[:, :1], X[:, 1:]], axis=1)

        ok, res = is_euler_like(oracle(fn), NormalFrame(euclidean_metric(2), x_axis_r2()), grid)
        assert ok and res <= 1e-9
        on_grid = [X for X in seen if X.shape == (3, 2) and np.array_equal(X[:, 1], np.zeros(3))]
        assert len(on_grid) == 1

    def test_doubled_euler_rejected(self):
        g = euclidean_metric(2)
        ok, res = is_euler_like(oracle(lambda x: 2.0 * x), NormalFrame(g, origin_r2()), ORIGIN)
        assert not ok
        assert res == pytest.approx(1.0, abs=1e-8)


class TestPushforwardEuler:
    def test_identity_slice(self):
        psi = embedding_over(x_axis_r2(), lambda uc: uc.copy())
        v = pushforward_euler(psi, np.array([[0.4]]), np.array([[0.7]]))
        assert np.allclose(v[0], [0.0, 0.7], atol=1e-9)

    def test_zero_on_zero_section(self):
        psi = embedding_over(x_axis_r2(), lambda uc: uc.copy())
        assert np.linalg.norm(pushforward_euler(psi, np.array([[0.4]]), np.zeros((1, 1)))) <= 1e-12

    def test_one_fiber_hand_value(self):
        # psi(u, w) = (u, w + 0.1 w^2): fiber slot carries w (1 + 0.2 w)
        psi = embedding_over(
            x_axis_r2(), lambda UC: np.stack([UC[:, 0], UC[:, 1] + 0.1 * UC[:, 1] ** 2], axis=1)
        )
        v = pushforward_euler(psi, np.array([[0.0]]), np.array([[0.5]]))[0]
        assert v[1] == pytest.approx(0.55, abs=1e-8)
        assert v[0] == pytest.approx(0.0, abs=1e-9)


class TestReconstruction:
    def identity_chart(self):
        return oracle(lambda v: v.copy())

    def test_euler_flow_reconstructs_identity(self):
        X = oracle(euler_field)
        psi0 = self.identity_chart()
        w = np.array([[0.3, 0.4]])
        rec = reconstruct_embedding(X, psi0, ORIGIN, w)
        assert np.linalg.norm(rec - w) <= 1e-6

    def test_a_schedule_too_short_to_extrapolate_is_rejected(self):
        # three Richardson levels and the gap between the last two
        # extrapolants need five schedule times; fewer fail before any flow
        X, psi0, w = oracle(euler_field), self.identity_chart(), np.array([[0.3, 0.4]])
        with pytest.raises(ValueError, match="at least 5 schedule times"):
            reconstruct_embedding(X, psi0, ORIGIN, w, t_seq=(0.5, 0.25, 0.125))

    def test_quadratic_embedding_round_trip(self):
        psi = embedding_over(origin_r2(), quadratic)
        X = pushforward_field(psi)
        psi0 = self.identity_chart()
        for w in ([[0.5, 0.0]], [[-0.3, 0.4]], [[0.1, -0.45]]):
            w = np.array(w)
            rec = reconstruct_embedding(X, psi0, ORIGIN, w)
            assert np.linalg.norm(rec - psi(ORIGIN, w)) <= 1e-4

    def test_doubled_euler_diverges(self):
        X = oracle(lambda x: 2.0 * x)
        psi0 = self.identity_chart()
        with pytest.raises(NoConvergence):
            reconstruct_embedding(X, psi0, ORIGIN, np.array([[0.3, 0.1]]))

    def test_one_point_not_cauchy_fails_the_batch(self):
        # the Euler field on the half-plane x0 < 0 and twice it on x0 > 0;
        # radial flows keep to their half-plane, so only the second of
        # three points diverges, and it fails the batch by its index
        X = oracle(lambda x: np.where(x[:, :1] < 0.0, 1.0, 2.0) * x)
        w = np.array([[-0.3, 0.1], [0.3, 0.1], [-0.2, -0.2]])
        with pytest.raises(NoConvergence, match="point 1 not Cauchy"):
            reconstruct_embedding(X, self.identity_chart(), np.zeros((3, 0)), w)
        rec = reconstruct_embedding(X, self.identity_chart(), np.zeros((2, 0)), w[[0, 2]])
        assert np.max(np.abs(rec - w[[0, 2]])) <= 1e-6

    def test_one_inversion_per_field_call(self, monkeypatch):
        psi = embedding_over(origin_r2(), quadratic)
        inverted, evaluated = [], []
        invert = TubularEmbedding.invert

        def counted(self, x):
            inverted.append(len(x))
            return invert(self, x)

        monkeypatch.setattr(TubularEmbedding, "invert", counted)
        X = pushforward_field(psi)

        def fn(Y):
            evaluated.append(len(Y))
            return X.fn(Y)

        w = np.array([[-0.3, 0.4]])
        rec = reconstruct_embedding(dataclasses.replace(X, fn=fn), self.identity_chart(), ORIGIN, w)
        assert np.linalg.norm(rec - psi(ORIGIN, w)) <= 1e-4
        assert len(evaluated) > 1 and inverted == evaluated

    def test_a_defect_in_psi_escapes_a_flow(self):
        # only the package's own errors mean "undefined here"; a TypeError
        # in psi's map is a defect and must surface through the integrator
        psi = embedding_over(origin_r2(), quadratic)

        def broken(V):
            raise TypeError("map defect")

        psi.map = dataclasses.replace(psi.map, fn=broken)
        X = pushforward_field(psi)
        with pytest.raises(TypeError):
            reconstruct_embedding(X, self.identity_chart(), ORIGIN, np.array([[0.3, -0.2]]))

    def test_pushforward_passes_euler_like(self):
        psi = embedding_over(origin_r2(), quadratic)
        X = pushforward_field(psi)
        g = euclidean_metric(2)
        ok, res = is_euler_like(X, NormalFrame(g, origin_r2()), ORIGIN)
        assert ok
        assert res <= 1e-5
