"""Metric fields, Christoffel symbols, geodesics and the exponential map."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainMargin, NotInDomain, SingularMetric
from .numerics import Array, Trajectory, on_lanes, ode_integrate


@dataclass(frozen=True)
class MetricField:
    """A smooth symmetric-positive-definite matrix field on an open region.

    ``christoffel_fn`` and ``geodesic_fn`` are optional shortcuts: analytic
    formulas for standard background metrics, or, for a pullback metric,
    its chart-stencil finite difference (``realization.pullback_metric``).
    When present they are cross-checked against the ambient
    finite-difference / integration routes by the test suite.
    ``geodesic_fn(p, v, t)`` must return the exact ``(point, velocity)`` of
    the geodesic with initial data (p, v) at parameter t.  ``matrix`` takes
    one point (n,) or lanes (B, n); with ``lanes=True`` ``matrix_fn`` takes
    lanes and returns (B, n, n), otherwise it is called once per lane (the
    standard metrics below take either).  ``domain`` takes one point.
    """

    dim: int
    matrix_fn: Callable[[Array], Array]
    domain: Optional[Callable[[Array], bool]] = None
    name: str = ""
    fd_step: float = 1e-5
    christoffel_fn: Optional[Callable[[Array], Array]] = None
    geodesic_fn: Optional[Callable[[Array, Array, float], tuple]] = None
    lanes: bool = False

    def matrix(self, x) -> Array:
        return on_lanes(self.matrix_fn, self.lanes, x)

    def contains(self, x) -> bool:
        return self.domain is None or bool(self.domain(np.asarray(x, dtype=float)))


def validate_metric(g: MetricField, points, sym_tol: float = 1e-12) -> float:
    """Spot-check symmetry and positive definiteness on sample points.

    Returns the largest symmetry defect seen; raises SingularMetric if any
    sample matrix fails to be positive definite.
    """
    worst = 0.0
    for x in points:
        G = g.matrix(x)
        asym = float(np.max(np.abs(G - G.T)))
        worst = max(worst, asym)
        if asym > sym_tol:
            raise SingularMetric(f"metric not symmetric at {x} (defect {asym:.3e})")
        if np.min(np.linalg.eigvalsh(0.5 * (G + G.T))) <= 0.0:
            raise SingularMetric(f"metric not positive definite at {x}")
    return worst


def christoffel(g: MetricField, x) -> Array:
    """Levi-Civita symbols Gamma^k_ij at x, shape (n, n, n), symmetric in (i, j)."""
    x = np.asarray(x, dtype=float)
    if g.christoffel_fn is not None:
        return np.asarray(g.christoffel_fn(x), dtype=float)
    n = g.dim
    h = g.fd_step
    steps = h * np.eye(n)
    # the metric at x and at x +- h e_l, one lane each
    stencil = np.concatenate([x[None], x + steps, x - steps])
    if g.domain is not None and not all(g.contains(s) for s in stencil[1:]):
        raise DomainMargin("metric stencil outside domain")
    G = g.matrix(stencil)
    dg = (G[1 : n + 1] - G[n + 1 :]) / (2.0 * h)  # dg[l, i, j] = d_l g_ij
    return levi_civita(G[0], dg, x)


def levi_civita(G: Array, dg: Array, x) -> Array:
    """Gamma^k_ij from the metric G at x and its first derivatives
    dg[l, i, j] = d_l g_ij."""
    n = G.shape[0]
    # T[l, i, j] = d_i g_jl + d_j g_il - d_l g_ij
    T = (
        np.transpose(dg, (2, 0, 1))
        + np.transpose(dg, (2, 1, 0))
        - dg
    )
    try:
        gamma = 0.5 * np.linalg.solve(G, T.reshape(n, n * n)).reshape(n, n, n)
    except np.linalg.LinAlgError as exc:
        raise SingularMetric(f"metric inversion failed at {x}") from exc
    return gamma


def geodesic_rhs(g: MetricField, state: Array) -> Array:
    n = g.dim
    x, v = state[:n], state[n:]
    gamma = christoffel(g, x)
    acc = -np.einsum("kij,i,j->k", gamma, v, v)
    return np.concatenate([v, acc])


def geodesic(
    g: MetricField,
    p,
    v,
    t_end: float,
    tol: float = 1e-10,
    use_closed_form: bool = True,
    closed_form_samples: int = 33,
) -> Trajectory:
    """Integrate the geodesic with x(0)=p, x'(0)=v up to parameter t_end.

    The trajectory is truncated with ``exited=True`` if it leaves the metric
    domain.  If the metric carries an exact geodesic formula it is used
    (sampled on a fixed grid) unless ``use_closed_form=False``.
    """
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    n = g.dim
    if g.geodesic_fn is not None and use_closed_form:
        ts = np.linspace(0.0, t_end, closed_form_samples) if t_end > 0 else np.array([0.0])
        times = [0.0]
        states = [np.concatenate([p, v])]
        exited = False
        for t in ts[1:]:
            x_t, v_t = g.geodesic_fn(p, v, float(t))
            x_t = np.asarray(x_t, dtype=float)
            if not np.all(np.isfinite(x_t)) or not g.contains(x_t):
                exited = True
                break
            times.append(float(t))
            states.append(np.concatenate([x_t, np.asarray(v_t, dtype=float)]))
        return Trajectory(np.array(times), np.array(states), tol, exited=exited)

    y0 = np.concatenate([p, v])
    domain = None
    if g.domain is not None:
        domain = lambda s: g.contains(s[:n])  # noqa: E731
    return ode_integrate(lambda s: geodesic_rhs(g, s), y0, t_end, tol, domain=domain)


def exp_map(g: MetricField, p, v, tol: float = 1e-10, use_closed_form: bool = True) -> Array:
    """exp_p(v): the geodesic endpoint at parameter 1.

    Raises NotInDomain if the geodesic exits the metric domain before t=1.
    """
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    if not np.any(v):
        return p.copy()
    if g.geodesic_fn is not None and use_closed_form:
        x1, _ = g.geodesic_fn(p, v, 1.0)
        x1 = np.asarray(x1, dtype=float)
        if not np.all(np.isfinite(x1)) or not g.contains(x1):
            raise NotInDomain("geodesic endpoint outside domain")
        return x1
    traj = geodesic(g, p, v, 1.0, tol, use_closed_form=use_closed_form)
    if traj.exited:
        raise NotInDomain("geodesic exited domain before parameter 1")
    return traj.points[-1]


def exp_differential_at_zero(
    g: MetricField, p, step: float = 1e-3, tol: float = 1e-10
) -> Array:
    """Finite-difference jacobian of v -> exp_p(v) at v = 0.

    A relatively large step keeps the integrator noise amplification below
    the truncation error; both are well under the 1e-5 identity tolerance.
    """
    p = np.asarray(p, dtype=float)
    n = g.dim
    if g.domain is not None and not g.contains(p):
        raise DomainMargin("base point outside metric domain")
    J = np.empty((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = step
        J[:, i] = (exp_map(g, p, e, tol) - exp_map(g, p, -e, tol)) / (2.0 * step)
    return J


def velocity_in_domain(g: MetricField, p, v, tol: float = 1e-9) -> bool:
    """Operational membership test for the exponential map's domain at p."""
    try:
        traj = geodesic(g, p, v, 1.0, tol)
    except Exception:
        return False
    return not traj.exited


# Standard background metrics -------------------------------------------------


def euclidean_metric(n: int, domain=None, name: str = "euclidean") -> MetricField:
    eye = np.eye(n)
    zeros = np.zeros((n, n, n))
    return MetricField(
        dim=n,
        matrix_fn=lambda x: eye + np.zeros(x.shape[:-1] + (1, 1)),
        domain=domain,
        name=name,
        christoffel_fn=lambda x: zeros,
        geodesic_fn=lambda p, v, t: (p + t * v, v),
        lanes=True,
    )


def _diag2(a, b: Array) -> Array:
    """diag(a, b) for every entry of b: one matrix or lanes of them."""
    out = np.zeros(np.shape(b) + (2, 2))
    out[..., 0, 0] = a
    out[..., 1, 1] = b
    return out


def polar_metric(domain=None) -> MetricField:
    """diag(1, r^2) on the half-plane r > 0; no analytic shortcuts on purpose."""
    if domain is None:
        domain = lambda x: x[0] > 1e-3  # noqa: E731
    return MetricField(
        dim=2,
        matrix_fn=lambda x: _diag2(1.0, x[..., 0] ** 2),
        domain=domain,
        name="polar",
        lanes=True,
    )


def _sphere_chart_geodesic(p, v, t):
    """Exact great-circle geodesic in colatitude/longitude coordinates."""
    theta, phi = p
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    x0 = np.array([st * cp, st * sp, ct])
    e_theta = np.array([ct * cp, ct * sp, -st])
    e_phi = np.array([-sp, cp, 0.0])
    xdot = v[0] * e_theta + v[1] * st * e_phi
    omega = np.linalg.norm(xdot)
    if omega == 0.0:
        return np.asarray(p, float).copy(), np.asarray(v, float).copy()
    c, s = np.cos(omega * t), np.sin(omega * t)
    x = c * x0 + s * xdot / omega
    xd = omega * (-s * x0 + c * xdot / omega)
    theta_t = np.arccos(np.clip(x[2], -1.0, 1.0))
    phi_t = np.arctan2(x[1], x[0])
    st_t = np.sin(theta_t)
    theta_dot = -xd[2] / st_t
    phi_dot = (x[0] * xd[1] - x[1] * xd[0]) / (x[0] ** 2 + x[1] ** 2)
    return np.array([theta_t, phi_t]), np.array([theta_dot, phi_dot])


def sphere_chart_metric(
    theta_bounds=(0.05, np.pi - 0.05),
    phi_bounds=(0.05, 2.9),
    use_closed_form: bool = True,
) -> MetricField:
    """Round-sphere chart metric diag(1, sin^2 theta) in (theta, phi)."""

    def in_domain(x):
        return (
            theta_bounds[0] < x[0] < theta_bounds[1]
            and phi_bounds[0] < x[1] < phi_bounds[1]
        )

    def gamma(x):
        theta = x[0]
        st, ct = np.sin(theta), np.cos(theta)
        out = np.zeros((2, 2, 2))
        out[0, 1, 1] = -st * ct
        out[1, 0, 1] = out[1, 1, 0] = ct / st
        return out

    return MetricField(
        dim=2,
        matrix_fn=lambda x: _diag2(1.0, np.sin(x[..., 0]) ** 2),
        domain=in_domain,
        name="sphere-chart",
        christoffel_fn=gamma,
        geodesic_fn=_sphere_chart_geodesic if use_closed_form else None,
        lanes=True,
    )
