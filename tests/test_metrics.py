from dataclasses import replace

import numpy as np
import pytest

from eulertube.errors import NotInDomain, SingularMetric
from eulertube.metrics import (
    MetricField,
    christoffel,
    euclidean_metric,
    exp_map,
    geodesic,
    sphere_chart_metric,
    validate_metric,
)
from metric_helpers import exp_differential_at_zero, polar_metric, velocity_in_domain


def wide_sphere():
    return sphere_chart_metric(theta_bounds=(0.05, np.pi - 0.05), phi_bounds=(-3.1, 3.1))


class TestChristoffel:
    def test_euclidean_all_zero(self):
        g = euclidean_metric(3)
        assert not np.any(christoffel(g, np.array([[0.7, -1.0, 2.0]])))

    def test_polar_hand_oracle(self):
        # diag(1, r^2): Gamma^r_thth = -r, Gamma^th_{r th} = 1/r, rest zero
        g = polar_metric()
        for r in (0.5, 1.0, 2.3):
            gam = christoffel(g, np.array([[r, 0.4]]))[0]
            assert gam[0, 1, 1] == pytest.approx(-r, abs=1e-6)
            assert gam[1, 0, 1] == pytest.approx(1.0 / r, abs=1e-6)
            assert gam[1, 1, 0] == pytest.approx(1.0 / r, abs=1e-6)
            mask = np.ones((2, 2, 2), dtype=bool)
            mask[0, 1, 1] = mask[1, 0, 1] = mask[1, 1, 0] = False
            assert np.max(np.abs(gam[mask])) <= 1e-6

    def test_lower_index_symmetry(self):
        g = polar_metric()
        gam = christoffel(g, np.array([[1.7, -0.2]]))
        assert np.max(np.abs(gam - np.transpose(gam, (0, 1, 3, 2)))) <= 1e-10

    def test_analytic_sphere_matches_fd(self):
        ga = wide_sphere()
        gfd = MetricField(dim=2, matrix_fn=ga.matrix_fn, domain=ga.domain)
        x = np.array([[1.1, 0.3]])
        assert np.allclose(christoffel(ga, x), christoffel(gfd, x), atol=1e-6)


class TestValidateMetric:
    def test_accepts_spd(self):
        g = polar_metric()
        assert validate_metric(g, np.array([[1.0, 0.0], [2.0, 1.0]])) <= 1e-12

    def test_rejects_asymmetric(self):
        G = np.array([[1.0, 0.1], [0.0, 1.0]])
        g = MetricField(dim=2, matrix_fn=lambda X: G + np.zeros((len(X), 1, 1)))
        with pytest.raises(SingularMetric):
            validate_metric(g, np.zeros((1, 2)))

    def test_rejects_indefinite(self):
        g = MetricField(dim=2, matrix_fn=lambda X: np.diag([1.0, -1.0]) + np.zeros((len(X), 1, 1)))
        with pytest.raises(SingularMetric):
            validate_metric(g, np.zeros((1, 2)))


class TestGeodesic:
    def test_euclidean_straight_line(self):
        g = euclidean_metric(2)
        traj = geodesic(g, np.zeros((1, 2)), np.array([[1.0, 1.0]]), 2.0)
        assert np.allclose(traj.points[-1, 0], [2.0, 2.0], atol=1e-9)

    def test_sphere_equator_stays_on_equator(self):
        g = wide_sphere()
        traj = geodesic(g, np.array([[np.pi / 2, 0.0]]), np.array([[0.0, 1.0]]), 1.0)
        assert np.linalg.norm(traj.points[-1, 0] - [np.pi / 2, 1.0]) <= 1e-7

    def test_closed_form_agrees_with_integrator(self):
        # the analytic great-circle route and the Christoffel ODE route must
        # land on the same endpoint (keeps the shortcut honest)
        g = wide_sphere()
        p, v = np.array([[1.0, 1.0]]), np.array([[0.3, 0.2]])
        x = g.exp_fn(p, v)
        traj = geodesic(g, p, v, 1.0, tol=1e-11)
        assert np.linalg.norm(x - traj.points[-1]) <= 1e-7

    def test_integrates_past_a_closed_form(self):
        # geodesic never consults exp_fn; exp_map does
        def wrong(P, V):
            return P + 2.0 * V

        g = replace(euclidean_metric(2), exp_fn=wrong)
        p, v = np.array([[0.5, 0.0]]), np.array([[1.0, -1.0]])
        traj = geodesic(g, p, v, 1.0)
        assert len(traj.times) > 1
        assert np.allclose(traj.points[-1], p + v, atol=1e-12)
        assert np.allclose(exp_map(g, p, v), p + 2.0 * v)

    def test_speed_conserved(self):
        g = polar_metric()
        p, v = np.array([[1.0, 0.2]]), np.array([0.3, 0.5])
        traj = geodesic(g, p, v[None], 1.0, tol=1e-10)
        s0 = np.sqrt(v @ g.matrix(p)[0] @ v)
        for x, vel in zip(traj.points[:, 0], traj.velocities[:, 0]):
            assert np.sqrt(vel @ g.matrix(x[None])[0] @ vel) == pytest.approx(s0, rel=1e-6)


class TestExpMap:
    def test_euclidean_translation(self):
        g = euclidean_metric(3)
        p, v = np.array([[1.0, 0.0, -1.0]]), np.array([[0.5, 2.0, 0.25]])
        assert np.allclose(exp_map(g, p, v), p + v, atol=1e-9)

    def test_zero_vector(self):
        g = polar_metric()
        p = np.array([[1.5, 0.3]])
        assert np.array_equal(exp_map(g, p, np.zeros((1, 2))), p)

    @pytest.mark.parametrize("t", [0.25, 0.5, 0.75])
    def test_rescaling_identity(self, t):
        g = polar_metric()
        p, v = np.array([[1.2, 0.1]]), np.array([[0.2, 0.4]])
        lhs = exp_map(g, p, t * v, tol=1e-11)
        rhs = geodesic(g, p, v, t, tol=1e-11).points[-1]
        assert np.linalg.norm(lhs - rhs) <= 1e-8


# great circles from (theta, phi) that leave the chart box: a meridian that
# wraps a full turn but 0.1 through the south pole, one over the north pole,
# and, in the wide box, ones that pass a pole at colatitude 0.03 from it,
# the equator round the back and a short arc across phi = 3.1.  Every
# endpoint but the default box's over-the-pole one lies back inside the box
WRAPPED_ARCS = {
    "meridian-wrap": (sphere_chart_metric, [np.pi / 2, 1.0], [2.0 * np.pi - 0.1, 0.0]),
    "over-the-pole": (sphere_chart_metric, [0.5, 1.0], [-1.0, 0.0]),
    "wide-meridian-wrap": (wide_sphere, [np.pi / 2, 1.0], [2.0 * np.pi - 0.1, 0.0]),
    "wide-over-the-pole": (wide_sphere, [0.5, 1.0], [-1.0, 0.0]),
    "wide-near-the-pole": (wide_sphere, [0.5, 0.0], [-1.0, 0.13]),
    "wide-near-the-south-pole": (wide_sphere, [np.pi - 0.5, 0.0], [1.0, 0.13]),
    "wide-equator-wrap": (wide_sphere, [np.pi / 2, 0.0], [0.0, 2.0 * np.pi - 0.2]),
    "wide-phi-edge": (wide_sphere, [1.4, 3.0], [0.0, 0.3]),
}


class TestSphereChartArcs:
    @pytest.mark.parametrize("name", WRAPPED_ARCS)
    def test_an_arc_that_leaves_the_box_raises(self, name):
        metric, p, v = WRAPPED_ARCS[name]
        g, p, v = metric(), np.array([p]), np.array([v])
        assert not np.isfinite(g.exp_fn(p, v)).all()
        with pytest.raises(NotInDomain):
            exp_map(g, p, v)
        # the integrated branch agrees
        assert geodesic(g, p, v, 1.0, tol=1e-9).exited[0]

    def test_a_leaving_lane_is_nan_alone(self):
        # the other lanes of a batch, near the box edge or not, keep the
        # values they have alone
        g = wide_sphere()
        P = np.array([[np.pi / 2, 1.0], [np.pi / 2, 1.0], [0.2, 3.0], [1.0, -3.0]])
        V = np.array([[2.0 * np.pi - 0.1, 0.0], [1.4, 0.0], [-0.1, 0.05], [0.3, -0.05]])
        x = g.exp_fn(P, V)
        assert np.isnan(x[0]).all() and np.isfinite(x[1:]).all()
        for i in range(1, len(P)):
            assert g.exp_fn(P[i : i + 1], V[i : i + 1]).tobytes() == x[i : i + 1].tobytes()
        traj = geodesic(g, P[1:], V[1:], 1.0, tol=1e-11)
        assert not traj.exited.any()
        assert np.max(np.abs(traj.points[-1] - x[1:])) <= 1e-7


class TestExpDifferentialAtZero:
    def test_euclidean_identity(self):
        g = euclidean_metric(2)
        assert np.allclose(exp_differential_at_zero(g, np.zeros((1, 2)))[0], np.eye(2), atol=1e-10)

    def test_sphere_identity(self):
        g = wide_sphere()
        D = exp_differential_at_zero(g, np.array([[np.pi / 2, 1.0]]))
        assert np.max(np.abs(D - np.eye(2))) <= 1e-5

    def test_polar_identity(self):
        g = polar_metric()
        D = exp_differential_at_zero(g, np.array([[1.0, 0.0]]))
        assert np.max(np.abs(D - np.eye(2))) <= 1e-5


class TestDomainPolicy:
    def test_exit_toward_singular_axis_rejected(self):
        # one lane leaves toward r = 0, the other stays inside
        g = polar_metric()
        P = np.array([[1.0, 0.0], [1.0, 0.0]])
        V = np.array([[-1.2, 0.0], [0.5, 0.7]])
        assert velocity_in_domain(g, P, V).tolist() == [False, True]

    def test_star_shaped_acceptance(self):
        g = polar_metric()
        t = np.array([1.0, 0.25, 0.5, 0.75])[:, None]
        assert velocity_in_domain(g, np.tile([1.0, 0.0], (4, 1)), t * [0.5, 0.7]).all()

    def test_a_lane_starting_outside_leaves_the_others_alone(self):
        # the first lane starts off the half-plane r > 0, where the geodesic
        # field is undefined: it exits at its start, and the other lane is
        # what it is in a batch of one
        g = polar_metric()
        P = np.array([[-0.5, 0.3], [1.0, 0.2]])
        V = np.array([[0.1, 0.1], [0.2, 0.1]])
        assert velocity_in_domain(g, P, V).tolist() == [False, True]
        batch = geodesic(g, P, V, 1.0, 1e-9)
        alone = geodesic(g, P[1:], V[1:], 1.0, 1e-9)
        assert batch.exited.tolist() == [True, False] and not batch.times[:, 0].any()
        assert batch.final_state[1:].tobytes() == alone.final_state.tobytes()

    def test_a_package_error_of_the_batch_reads_outside(self):
        def matrix_fn(X):
            raise SingularMetric("no metric here")

        g = MetricField(dim=2, matrix_fn=matrix_fn)
        P, V = np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([[0.5, 0.7], [0.1, 0.0]])
        assert velocity_in_domain(g, P, V).tolist() == [False, False]

    def test_a_defect_in_the_metric_raises(self):
        # only the package's own errors mean "outside the domain"; a
        # TypeError is a defect and must surface
        def matrix_fn(X):
            raise TypeError("matrix_fn defect")

        g = MetricField(dim=2, matrix_fn=matrix_fn)
        with pytest.raises(TypeError):
            velocity_in_domain(g, np.array([[1.0, 0.0]]), np.array([[0.5, 0.7]]))
