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
        assert np.allclose(phi(np.array([[0.7, 0.4]]))[0], [0.7, 0.4], atol=1e-12)

    def test_circle_fibers_are_radial(self):
        g = euclidean_metric(2)
        phi = reference_embedding(NormalFrame(g, unit_circle()), 0.5)
        theta, s = 0.3, 0.2
        expected = (1 + s) * np.array([np.cos(theta), np.sin(theta)])
        assert np.allclose(phi(np.array([[theta, s]]))[0], expected, atol=1e-10)

    def test_zero_section(self):
        g = euclidean_metric(2)
        N = unit_circle()
        phi = reference_embedding(NormalFrame(g, N), 0.5)
        for u in u_grid(-1.0, 1.0, 5):
            assert np.allclose(phi(np.array([[u[0], 0.0]])), N.point(u[None]), atol=1e-12)

    def test_validates(self):
        frame = NormalFrame(euclidean_metric(2), unit_circle())
        phi = reference_embedding(frame, 0.5)
        assert validate_embedding(frame, phi, u_grid(-1.0, 1.0, 7)) <= 1e-6

    def test_is_a_chart_on_the_tube(self):
        # phi is the map itself, with no seed table, defined exactly where
        # the base point is in N's interval and |c| < delta
        phi = reference_embedding(NormalFrame(euclidean_metric(3), SUBMANIFOLDS["helix-arc"]()), 0.4)
        assert isinstance(phi, DifferentiableMap)
        UC = np.array(
            [
                [0.3, 0.0, 0.0],
                [0.3, 0.2, -0.3],
                [0.3, 0.0, 0.39],
                [0.3, 0.0, 0.4],
                [0.3, 0.3, 0.3],
                [1.3, 0.0, 0.0],
            ]
        )
        assert phi.contains(UC).tolist() == [True, True, True, False, False, False]


class TestValidateEmbedding:
    def test_rejects_scaled_fiber(self):
        g = euclidean_metric(2)
        N = x_axis_r2()
        bad_map = DifferentiableMap(2, 2, lambda UC: np.stack([UC[:, 0], 2.0 * UC[:, 1]], axis=1))
        with pytest.raises(NotInDomain):
            validate_embedding(NormalFrame(g, N), bad_map, u_grid(-1.0, 1.0, 3))

    def test_rejects_shifted_zero_section(self):
        g = euclidean_metric(2)
        N = x_axis_r2()
        bad_map = DifferentiableMap(2, 2, lambda UC: np.stack([UC[:, 0], UC[:, 1] + 0.1], axis=1))
        with pytest.raises(NotInDomain):
            validate_embedding(NormalFrame(g, N), bad_map, u_grid(-1.0, 1.0, 3))


class TestInversion:
    def test_round_trip(self):
        g = euclidean_metric(2)
        N = x_axis_r2()
        fn = lambda UC: np.stack([UC[:, 0] + 0.1 * UC[:, 1] ** 2, UC[:, 1]], axis=1)
        psi = TubularEmbedding(
            map=DifferentiableMap(2, 2, fn),
            frame=NormalFrame(g, N),
            delta=1.0,
            seed_grid=u_grid(-1.0, 1.0, 9),
        )
        uc = np.array([[0.37, -0.52]])
        x = psi.map(uc)
        assert np.linalg.norm(psi.invert(x) - uc) <= 1e-10

    def test_inverts_right_after_construction(self):
        # the seed table is built with the embedding: a seed's own image
        # inverts to the seed itself, and any other point by Newton
        g = euclidean_metric(2)
        N = x_axis_r2()
        psi = TubularEmbedding(
            map=DifferentiableMap(2, 2, lambda uc: uc + 0.05 * uc**2),
            frame=NormalFrame(g, N),
            delta=1.0,
            seed_grid=u_grid(-1.0, 1.0, 3),
        )
        assert psi.seeds.shape == (15, 2) and psi.seed_images.shape == (2, 15)
        assert psi.invert(psi.seed_images[:, [4]].T).tobytes() == psi.seeds[4:5].tobytes()
        uc = np.array([[0.2, -0.1], [-0.6, 0.5]])
        assert np.max(np.abs(psi.invert(psi.map(uc)) - uc)) <= 1e-12


def seed_loop_table(U, m, delta, c_fractions=(0.0, 0.35, 0.7)):
    """The seeds of a ``TubularEmbedding``'s table as nested loops build them."""
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
    frame = NormalFrame(euclidean_metric(n), N)
    U = u_grid(N.lo + 0.1, N.hi - 0.1, 15)
    psi = TubularEmbedding(reference_embedding(frame, 0.4), frame, 0.4, U)
    # bytes, so the zero fiber point keeps the +0.0 the loops gave it
    assert psi.seeds.tobytes() == seed_loop_table(U, n - 1, 0.4).tobytes()
