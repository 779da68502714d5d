import dataclasses

import numpy as np
import pytest

from eulertube.embeddings import TubularEmbedding
from eulertube.errors import NoConvergence, NotVanishing
from eulertube.eulerlike import (
    euler_field,
    is_euler_like,
    linear_approximation,
    pushforward_euler,
    pushforward_field,
    reconstruct_embedding,
    vanishes_on_N,
)
from eulertube.metrics import euclidean_metric
from eulertube.numerics import DifferentiableMap
from eulertube.submanifolds import NormalFrame, ParametrizedSubmanifold, RadiusFunction


def origin_r2():
    """The single-point submanifold {0} in the plane (k = 0)."""
    chart = DifferentiableMap(0, 2, lambda U: np.zeros((len(U), 2)))
    return ParametrizedSubmanifold(0, 2, chart, name="origin")


def x_axis_r2():
    chart = DifferentiableMap(1, 2, lambda U: np.concatenate([U, 0.0 * U], axis=1))
    return ParametrizedSubmanifold(1, 2, chart, name="x-axis")


def quadratic(V):
    """v + 0.1 (v0^2, 0) on lanes."""
    return V + 0.1 * np.stack([V[:, 0] ** 2, 0.0 * V[:, 0]], axis=1)


def oracle(fn, n=2):
    return DifferentiableMap(n, n, fn)


def embedding_over(N, fn, delta=1.5, jac=None):
    g = euclidean_metric(N.ambient_dim)
    psi = TubularEmbedding(
        map=DifferentiableMap(N.ambient_dim, N.ambient_dim, fn, jac=jac),
        frame=NormalFrame(g, N),
        delta=RadiusFunction(fn=lambda u: delta, grid=[np.zeros(max(N.param_dim, 1))]),
    )
    return psi


class TestEulerField:
    def test_returns_fiber_coordinates(self):
        assert np.allclose(euler_field(np.array([1.0, 2.0])), [1.0, 2.0])

    def test_vanishes_at_origin(self):
        assert not np.any(euler_field(np.zeros(3)))

    def test_linear(self):
        x = np.array([0.3, -0.7])
        assert np.allclose(euler_field(2.5 * x), 2.5 * euler_field(x))


class TestVanishesOnN:
    def test_euler_field_on_origin(self):
        ok, res = vanishes_on_N(oracle(euler_field), origin_r2(), [np.zeros(0)])
        assert ok and res == 0.0

    def test_constant_field_fails(self):
        ok, res = vanishes_on_N(
            oracle(lambda X: np.tile([1.0, 0.0], (len(X), 1))), origin_r2(), [np.zeros(0)]
        )
        assert not ok
        assert res == pytest.approx(1.0)


class TestLinearApproximation:
    def test_euler_is_its_own_approximation(self):
        g = euclidean_metric(2)
        lin = linear_approximation(oracle(euler_field), g, origin_r2(), np.zeros(0))
        assert np.allclose(lin.induced, np.eye(2), atol=1e-9)

    def test_doubled_euler(self):
        g = euclidean_metric(2)
        lin = linear_approximation(
            oracle(lambda x: 2.0 * x), g, origin_r2(), np.zeros(0)
        )
        assert np.allclose(lin.induced, 2.0 * np.eye(2), atol=1e-9)

    def test_quadratic_perturbation_invisible(self):
        g = euclidean_metric(2)
        fn = lambda X: X + np.stack([0.3 * X[:, 1] ** 2, 0.2 * X[:, 0] * X[:, 1]], axis=1)
        lin = linear_approximation(oracle(fn), g, origin_r2(), np.zeros(0))
        assert np.max(np.abs(lin.induced - np.eye(2))) <= 1e-6

    def test_nonvanishing_rejected(self):
        g = euclidean_metric(2)
        with pytest.raises(NotVanishing):
            linear_approximation(
                oracle(lambda x: x + 1.0), g, origin_r2(), np.zeros(0)
            )


class TestIsEulerLike:
    def test_euler_accepted(self):
        g = euclidean_metric(2)
        ok, res = is_euler_like(oracle(euler_field), g, origin_r2(), [np.zeros(0)])
        assert ok and res <= 1e-9

    def test_doubled_euler_rejected(self):
        g = euclidean_metric(2)
        ok, res = is_euler_like(
            oracle(lambda x: 2.0 * x), g, origin_r2(), [np.zeros(0)]
        )
        assert not ok
        assert res == pytest.approx(1.0, abs=1e-8)


class TestPushforwardEuler:
    def test_identity_slice(self):
        psi = embedding_over(x_axis_r2(), lambda uc: uc.copy())
        v = pushforward_euler(psi, np.array([0.4]), np.array([0.7]))
        assert np.allclose(v, [0.0, 0.7], atol=1e-9)

    def test_zero_on_zero_section(self):
        psi = embedding_over(x_axis_r2(), lambda uc: uc.copy())
        assert np.linalg.norm(pushforward_euler(psi, np.array([0.4]), np.zeros(1))) <= 1e-12

    def test_one_fiber_hand_value(self):
        # psi(u, w) = (u, w + 0.1 w^2): fiber slot carries w (1 + 0.2 w)
        psi = embedding_over(
            x_axis_r2(), lambda UC: np.stack([UC[:, 0], UC[:, 1] + 0.1 * UC[:, 1] ** 2], axis=1)
        )
        v = pushforward_euler(psi, np.array([0.0]), np.array([0.5]))
        assert v[1] == pytest.approx(0.55, abs=1e-8)
        assert v[0] == pytest.approx(0.0, abs=1e-9)


class TestReconstruction:
    def identity_embedding(self):
        return embedding_over(origin_r2(), lambda v: v.copy())

    def test_euler_flow_reconstructs_identity(self):
        X = oracle(euler_field)
        psi0 = self.identity_embedding()
        w = np.array([0.3, 0.4])
        rec = reconstruct_embedding(X, psi0, np.zeros(0), w)
        assert np.linalg.norm(rec - w) <= 1e-6

    def test_quadratic_embedding_round_trip(self):
        psi = embedding_over(origin_r2(), quadratic)
        psi.build_seed_table(
            [np.zeros(0)], c_fractions=(0.0, 0.2, 0.4, 0.6)
        )
        X = pushforward_field(psi)
        psi0 = self.identity_embedding()
        for w in (np.array([0.5, 0.0]), np.array([-0.3, 0.4]), np.array([0.1, -0.45])):
            rec = reconstruct_embedding(X, psi0, np.zeros(0), w)
            assert np.linalg.norm(rec - psi(np.zeros(0), w)) <= 1e-4

    def test_doubled_euler_diverges(self):
        X = oracle(lambda x: 2.0 * x)
        psi0 = self.identity_embedding()
        with pytest.raises(NoConvergence):
            reconstruct_embedding(X, psi0, np.zeros(0), np.array([0.3, 0.1]))

    def test_domain_test_reuses_the_field_preimage(self, monkeypatch):
        psi = embedding_over(origin_r2(), quadratic)
        psi.build_seed_table([np.zeros(0)], c_fractions=(0.0, 0.2, 0.4, 0.6))
        calls = []
        invert = TubularEmbedding.invert

        def counted(self, x, tol=1e-12):
            calls.append(x)
            return invert(self, x, tol=tol)

        monkeypatch.setattr(TubularEmbedding, "invert", counted)
        X = pushforward_field(psi)
        x = np.array([0.3, -0.2])
        X(x)
        assert X.contains(x.copy())
        assert len(calls) == 1
        X.contains(x + 0.01)
        assert len(calls) == 2

    def test_a_defect_in_psi_raises_from_the_domain_test(self):
        # only the package's own errors mean "outside the domain"; a
        # TypeError in psi's map is a defect and must surface
        psi = embedding_over(origin_r2(), quadratic)
        psi.build_seed_table([np.zeros(0)], c_fractions=(0.0, 0.2, 0.4, 0.6))

        def broken(V):
            raise TypeError("map defect")

        psi.map = dataclasses.replace(psi.map, fn=broken)
        X = pushforward_field(psi)
        with pytest.raises(TypeError):
            X.contains(np.array([0.3, -0.2]))

    def test_pushforward_passes_euler_like(self):
        psi = embedding_over(origin_r2(), quadratic)
        psi.build_seed_table([np.zeros(0)], c_fractions=(0.0, 0.2, 0.4, 0.6))
        X = pushforward_field(psi)
        g = euclidean_metric(2)
        ok, res = is_euler_like(X, g, origin_r2(), [np.zeros(0)])
        assert ok
        assert res <= 1e-5
