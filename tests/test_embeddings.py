import numpy as np
import pytest

from eulertube.embeddings import (
    TubularEmbedding,
    reference_embedding,
    validate_embedding,
)
from eulertube.errors import NotInDomain
from eulertube.metrics import euclidean_metric
from eulertube.numerics import DifferentiableMap
from eulertube.scenarios import SUBMANIFOLDS
from eulertube.submanifolds import NormalFrame, ParametrizedSubmanifold


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
    return ParametrizedSubmanifold(chart, -1.4, 1.4)


def u_grid(lo, hi, n):
    return np.linspace(lo, hi, n)[:, None]


class TestReferenceEmbedding:
    def test_flat_slice_is_identity(self):
        g = euclidean_metric(2)
        phi = reference_embedding(NormalFrame(g, x_axis_r2()), 2.0)
        assert np.allclose(phi(np.array([[0.7]]), np.array([[0.4]]))[0], [0.7, 0.4], atol=1e-12)

    def test_circle_fibers_are_radial(self):
        g = euclidean_metric(2)
        phi = reference_embedding(NormalFrame(g, unit_circle()), 0.5)
        theta, s = 0.3, 0.2
        expected = (1 + s) * np.array([np.cos(theta), np.sin(theta)])
        assert np.allclose(phi(np.array([[theta]]), np.array([[s]]))[0], expected, atol=1e-10)

    def test_zero_section(self):
        g = euclidean_metric(2)
        N = unit_circle()
        phi = reference_embedding(NormalFrame(g, N), 0.5)
        for u in u_grid(-1.0, 1.0, 5):
            assert np.allclose(phi(u[None], np.zeros((1, 1))), N.point(u[None]), atol=1e-12)

    def test_validates(self):
        g = euclidean_metric(2)
        phi = reference_embedding(NormalFrame(g, unit_circle()), 0.5)
        assert validate_embedding(phi, u_grid(-1.0, 1.0, 7)) <= 1e-6


class TestValidateEmbedding:
    def test_rejects_scaled_fiber(self):
        g = euclidean_metric(2)
        N = x_axis_r2()
        bad_map = DifferentiableMap(2, 2, lambda UC: np.stack([UC[:, 0], 2.0 * UC[:, 1]], axis=1))
        psi = TubularEmbedding(
            map=bad_map,
            frame=NormalFrame(g, N),
            delta=1.0,
        )
        with pytest.raises(NotInDomain):
            validate_embedding(psi, u_grid(-1.0, 1.0, 3))

    def test_rejects_shifted_zero_section(self):
        g = euclidean_metric(2)
        N = x_axis_r2()
        bad_map = DifferentiableMap(2, 2, lambda UC: np.stack([UC[:, 0], UC[:, 1] + 0.1], axis=1))
        psi = TubularEmbedding(
            map=bad_map,
            frame=NormalFrame(g, N),
            delta=1.0,
        )
        with pytest.raises(NotInDomain):
            validate_embedding(psi, u_grid(-1.0, 1.0, 3))


class TestInversion:
    def test_round_trip(self):
        g = euclidean_metric(2)
        N = x_axis_r2()
        fn = lambda UC: np.stack([UC[:, 0] + 0.1 * UC[:, 1] ** 2, UC[:, 1]], axis=1)
        psi = TubularEmbedding(
            map=DifferentiableMap(2, 2, fn),
            frame=NormalFrame(g, N),
            delta=1.0,
        )
        psi.build_seed_table(u_grid(-1.0, 1.0, 9))
        uc = np.array([[0.37, -0.52]])
        x = psi.map(uc)
        assert np.linalg.norm(psi.invert(x) - uc) <= 1e-10

    def test_requires_seed_table(self):
        g = euclidean_metric(2)
        N = x_axis_r2()
        psi = TubularEmbedding(
            map=DifferentiableMap(2, 2, lambda uc: uc),
            frame=NormalFrame(g, N),
            delta=1.0,
        )
        with pytest.raises(RuntimeError):
            psi.invert(np.zeros((1, 2)))


def seed_loop_table(U, m, delta, c_fractions=(0.0, 0.35, 0.7)):
    """The seeds of ``build_seed_table`` as its nested loops built them."""
    seeds = []
    for u in U:
        for j in range(m):
            for frac in c_fractions:
                for sign in (1.0, -1.0):
                    c = np.zeros(m)
                    c[j] = sign * frac * delta
                    seeds.append(np.concatenate([u, c]))
    return np.array(sorted({tuple(np.round(s, 12)) for s in seeds}))


@pytest.mark.parametrize("name, n", [("circle-arc", 2), ("helix-arc", 3)])
def test_seed_table_is_the_loop_seed_set(name, n):
    N = SUBMANIFOLDS[name]()
    psi = reference_embedding(NormalFrame(euclidean_metric(n), N), 0.4)
    U = u_grid(N.lo + 0.1, N.hi - 0.1, 15)
    psi.build_seed_table(U)
    # bytes, so the zero fiber point keeps the +0.0 the loops gave it
    assert psi.seeds.tobytes() == seed_loop_table(U, n - 1, 0.4).tobytes()
