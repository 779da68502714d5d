"""A test background and two properties of the exponential map that only
the tests read: the polar metric, d exp_0 by a central difference, and
membership of a velocity in the exponential map's domain."""

import numpy as np

from eulertube.errors import DomainMargin, StepUnderflow
from eulertube.metrics import MetricField, _diag2, exp_map, geodesic
from eulertube.numerics import central_difference, central_stencil


def polar_metric(domain=None) -> MetricField:
    """diag(1, r^2) on the half-plane r > 0; no analytic shortcuts on purpose."""
    if domain is None:
        domain = lambda X: X[:, 0] > 1e-3  # noqa: E731
    return MetricField(
        dim=2,
        matrix_fn=lambda X: _diag2(1.0, X[:, 0] ** 2),
        domain=domain,
    )


# central-difference step and geodesic tolerance of exp_differential_at_zero:
# a relatively large step keeps the integrator noise amplification below the
# truncation error; both are well under the 1e-5 identity tolerance
_EXP_DIFF_STEP = 1e-3
_EXP_DIFF_TOL = 1e-10


def exp_differential_at_zero(g: MetricField, P):
    """Finite-difference jacobians (B, n, n) of v -> exp_p(v) at v = 0 for
    the lanes P (B, n), on the lane-major ``central_stencil`` of v = 0: the
    2n geodesics of every lane are lanes of one exponential map."""
    nl, n = P.shape
    if not np.all(g.contains(P)):
        raise DomainMargin("base point outside metric domain")
    V = central_stencil(np.zeros((nl, n)), _EXP_DIFF_STEP).reshape(nl * 2 * n, n)
    X = exp_map(g, np.repeat(P, 2 * n, axis=0), V, _EXP_DIFF_TOL).reshape(nl, 2 * n, n)
    return np.swapaxes(central_difference(X, _EXP_DIFF_STEP), 1, 2)


_VELOCITY_TOL = 1e-9  # geodesic tolerance of velocity_in_domain


def velocity_in_domain(g: MetricField, P, V):
    """Operational membership test for the exponential map's domain, on
    lanes P, V (B, n): a (B,) mask, False where the geodesic exits before
    parameter 1, that is, where the geodesic field becomes undefined (off
    the metric domain, or a lane's own evaluation failing, at its start
    too).  That is decided lane by lane, but a step size collapsing in some
    lane is the batch's: every lane then reads outside, and a lane tested
    alone tells which one failed.
    """
    try:
        traj = geodesic(g, P, V, 1.0, _VELOCITY_TOL)
    except StepUnderflow:
        return np.zeros(len(P), bool)
    return ~traj.exited
