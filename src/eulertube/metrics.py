"""Metric fields, Christoffel symbols, geodesics and the exponential map."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainMargin, EulertubeError, NotInDomain, SingularMetric
from .numerics import Array, Trajectory, as_lanes, ode_integrate


@dataclass(frozen=True)
class MetricField:
    """A smooth symmetric-positive-definite matrix field on an open region.

    Every callable takes lanes, a stack of independent points (B, n), and
    returns per-lane results: ``matrix_fn`` the matrices (B, n, n) and
    ``domain`` a (B,) bool mask.  ``matrix`` and ``contains`` also take one
    point (n,), as a batch of one.  ``christoffel_fn`` and ``geodesic_fn``
    are optional shortcuts: analytic formulas for standard background
    metrics, or, for a pullback metric, its chart-stencil finite difference
    (``realization.pullback_metric``).  When present they are cross-checked
    against the ambient finite-difference / integration routes by the test
    suite.  ``christoffel_fn`` maps points (B, n) to symbols (B, n, n, n),
    and ``geodesic_fn(P, V, t)`` returns the exact ``(points, velocities)``
    (B, n) at parameter t of the geodesics with initial data (P, V), a
    zero-velocity lane returning its (p, v).
    """

    dim: int
    matrix_fn: Callable[[Array], Array]
    domain: Optional[Callable[[Array], Array]] = None
    name: str = ""
    fd_step: float = 1e-5
    christoffel_fn: Optional[Callable[[Array], Array]] = None
    geodesic_fn: Optional[Callable[[Array, Array, float], tuple]] = None

    def matrix(self, x) -> Array:
        X, single = as_lanes(x, self.dim)
        G = np.asarray(self.matrix_fn(X), dtype=float)
        return G[0] if single else G

    def contains(self, x):
        """Domain membership: a bool at one point, a (B,) mask on lanes."""
        X, single = as_lanes(x, self.dim)
        inside = np.ones(len(X), bool) if self.domain is None else np.asarray(self.domain(X), bool)
        return bool(inside[0]) if single else inside


def validate_metric(g: MetricField, points, sym_tol: float = 1e-12) -> float:
    """Spot-check symmetry and positive definiteness on sample points,
    evaluated as one lane batch.

    Returns the largest symmetry defect seen; raises SingularMetric at the
    first sample matrix that is not symmetric or not positive definite.
    """
    X = np.asarray(points, dtype=float).reshape(len(points), g.dim)
    if len(X) == 0:
        return 0.0
    G = g.matrix(X)
    Gt = np.swapaxes(G, 1, 2)
    asym = np.max(np.abs(G - Gt), axis=(1, 2))
    lowest = np.linalg.eigvalsh(0.5 * (G + Gt))[:, 0]
    for x, defect, low in zip(X, asym, lowest):
        if defect > sym_tol:
            raise SingularMetric(f"metric not symmetric at {x} (defect {defect:.3e})")
        if low <= 0.0:
            raise SingularMetric(f"metric not positive definite at {x}")
    return float(np.max(asym))


def christoffel(g: MetricField, x) -> Array:
    """Levi-Civita symbols Gamma^k_ij, symmetric in (i, j): (n, n, n) at one
    point x (n,), (B, n, n, n) on lanes (B, n).

    Without an analytic ``christoffel_fn`` they are a central difference of
    g, with the stencils of all lanes in one evaluation of g; raises
    DomainMargin if a stencil point of some lane leaves g's domain.
    """
    X, single = as_lanes(x, g.dim)
    if g.christoffel_fn is not None:
        gamma = np.asarray(g.christoffel_fn(X), dtype=float)
    else:
        n = g.dim
        h = g.fd_step
        steps = h * np.eye(n)
        # every lane's x and x +- h e_l: 2n + 1 stencil points a lane
        S = np.concatenate([X[:, None], X[:, None] + steps, X[:, None] - steps], axis=1)
        if g.domain is not None and not np.all(g.contains(S[:, 1:].reshape(-1, n))):
            raise DomainMargin("metric stencil outside domain")
        G = g.matrix(S.reshape(-1, n)).reshape(len(X), 2 * n + 1, n, n)
        dg = (G[:, 1 : n + 1] - G[:, n + 1 :]) / (2.0 * h)  # dg[b, l, i, j] = d_l g_ij
        gamma = levi_civita(G[:, 0], dg, X)
    return gamma[0] if single else gamma


def levi_civita(G: Array, dg: Array, x) -> Array:
    """Gamma^k_ij (B, n, n, n) from the metrics G (B, n, n) at the lanes x
    and their first derivatives dg[b, l, i, j] = d_l g_ij, by one stacked
    solve."""
    nl, n = G.shape[:2]
    # T[b, l, i, j] = d_i g_jl + d_j g_il - d_l g_ij
    T = np.transpose(dg, (0, 3, 1, 2)) + np.transpose(dg, (0, 3, 2, 1)) - dg
    try:
        gamma = 0.5 * np.linalg.solve(G, T.reshape(nl, n, n * n)).reshape(nl, n, n, n)
    except np.linalg.LinAlgError as exc:
        raise SingularMetric(f"metric inversion failed at {x}") from exc
    return gamma


def geodesic_rhs(g: MetricField, state) -> Array:
    """The geodesic equation as a first-order field on states (point,
    velocity): one state (2n,) or lanes (B, 2n)."""
    n = g.dim
    S, single = as_lanes(state, 2 * n)
    X, V = S[:, :n], S[:, n:]
    gamma = christoffel(g, X)
    # acc_k = -Gamma^k_ij v_i v_j, as two stacked products a lane
    acc = -((gamma @ V[:, None, :, None])[..., 0] @ V[:, :, None])[..., 0]
    out = np.concatenate([V, acc], axis=1)
    return out[0] if single else out


def _point_velocity_lanes(n: int, p, v):
    """(P, V) as lanes (B, n), p broadcast against v, and whether both were
    one point."""
    P, p_single = as_lanes(p, n)
    V, v_single = as_lanes(v, n)
    P, V = (np.array(a) for a in np.broadcast_arrays(P, V))
    return P, V, p_single and v_single


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

    p and v are one point and velocity (n,) or lanes (B, n), a single p
    serving every lane; lanes give a lane ``Trajectory`` from one
    integration.  A lane that leaves the metric domain stops there with
    ``exited`` set.  If the metric carries an exact geodesic formula it is
    used (sampled on a fixed grid) unless ``use_closed_form=False``.
    """
    n = g.dim
    P, V, single = _point_velocity_lanes(n, p, v)
    if g.geodesic_fn is not None and use_closed_form:
        traj = _sampled_closed_form(g, P, V, t_end, tol, closed_form_samples)
    else:
        domain = None
        if g.domain is not None:
            domain = lambda S: g.contains(S[:, :n])  # noqa: E731
        y0 = np.concatenate([P, V], axis=1)
        traj = ode_integrate(lambda S: geodesic_rhs(g, S), y0, t_end, tol, domain=domain)
    if single:
        return Trajectory(traj.times[:, 0], traj.states[:, 0], tol, exited=bool(traj.exited[0]))
    return traj


def _reached(g: MetricField, X: Array) -> Array:
    """The lanes of closed-form points X (B, n) that are finite and in g's
    domain."""
    ok = np.isfinite(X).all(axis=1)
    ok[ok] = g.contains(X[ok])
    return ok


def _sampled_closed_form(
    g: MetricField, P: Array, V: Array, t_end: float, tol: float, samples: int
) -> Trajectory:
    """The lanes' closed-form geodesics at ``samples`` equally spaced
    parameters, as a lane Trajectory; a lane stops before its first sample
    that is not finite or leaves the domain."""
    ts = np.linspace(0.0, t_end, samples) if t_end > 0 else np.array([0.0])
    state = np.concatenate([P, V], axis=1)
    t_now = np.zeros(len(P))
    exited = np.zeros(len(P), dtype=bool)
    times, states = [t_now.copy()], [state.copy()]
    for t in ts[1:]:
        live = np.flatnonzero(~exited)
        if len(live) == 0:
            break
        x_t, v_t = g.geodesic_fn(P[live], V[live], float(t))
        x_t = np.asarray(x_t, dtype=float)
        ok = _reached(g, x_t)
        exited[live[~ok]] = True
        if np.count_nonzero(ok):
            moved = live[ok]
            t_now[moved] = t
            state[moved] = np.concatenate([x_t[ok], np.asarray(v_t, dtype=float)[ok]], axis=1)
            times.append(t_now.copy())
            states.append(state.copy())
    return Trajectory(np.array(times), np.array(states), tol, exited=exited)


def exp_map(g: MetricField, p, v, tol: float = 1e-10, use_closed_form: bool = True) -> Array:
    """exp_p(v), the geodesic endpoint at parameter 1: (n,) for one point
    and velocity, (B, n) on lanes (a single p serving every lane), all
    lanes in one integration.  A zero-velocity lane gives its p.

    Raises NotInDomain if some lane's geodesic exits the metric domain
    before t=1.
    """
    P, V, single = _point_velocity_lanes(g.dim, p, v)
    out = P.copy()
    moving = V.any(axis=1)
    if np.count_nonzero(moving):
        Pm, Vm = P[moving], V[moving]
        if g.geodesic_fn is not None and use_closed_form:
            x1 = np.asarray(g.geodesic_fn(Pm, Vm, 1.0)[0], dtype=float)
            if not np.all(_reached(g, x1)):
                raise NotInDomain("geodesic endpoint outside domain")
        else:
            traj = geodesic(g, Pm, Vm, 1.0, tol, use_closed_form=use_closed_form)
            if np.any(traj.exited):
                raise NotInDomain("geodesic exited domain before parameter 1")
            x1 = traj.points[-1]
        out[moving] = x1
    return out[0] if single else out


def exp_differential_at_zero(
    g: MetricField, p, step: float = 1e-3, tol: float = 1e-10
) -> Array:
    """Finite-difference jacobian of v -> exp_p(v) at v = 0, its 2n
    geodesics as lanes of one exponential map.

    A relatively large step keeps the integrator noise amplification below
    the truncation error; both are well under the 1e-5 identity tolerance.
    """
    p = np.asarray(p, dtype=float)
    n = g.dim
    if g.domain is not None and not g.contains(p):
        raise DomainMargin("base point outside metric domain")
    E = step * np.eye(n)
    X = exp_map(g, p, np.concatenate([E, -E]), tol)
    return ((X[:n] - X[n:]) / (2.0 * step)).T


def velocity_in_domain(g: MetricField, p, v, tol: float = 1e-9) -> bool:
    """Operational membership test for the exponential map's domain at p:
    a geodesic that exits, or fails with an EulertubeError, is outside."""
    try:
        traj = geodesic(g, p, v, 1.0, tol)
    except EulertubeError:
        return False
    return not traj.exited


# Standard background metrics -------------------------------------------------


def euclidean_metric(n: int, domain=None, name: str = "euclidean") -> MetricField:
    eye = np.eye(n)
    return MetricField(
        dim=n,
        matrix_fn=lambda X: eye + np.zeros((len(X), 1, 1)),
        domain=domain,
        name=name,
        christoffel_fn=lambda X: np.zeros((len(X), n, n, n)),
        geodesic_fn=lambda p, v, t: (p + t * v, v),
    )


def _diag2(a, b: Array) -> Array:
    """diag(a, b) for every lane of b (B,): matrices (B, 2, 2)."""
    out = np.zeros(np.shape(b) + (2, 2))
    out[..., 0, 0] = a
    out[..., 1, 1] = b
    return out


def polar_metric(domain=None) -> MetricField:
    """diag(1, r^2) on the half-plane r > 0; no analytic shortcuts on purpose."""
    if domain is None:
        domain = lambda X: X[:, 0] > 1e-3  # noqa: E731
    return MetricField(
        dim=2,
        matrix_fn=lambda X: _diag2(1.0, X[:, 0] ** 2),
        domain=domain,
        name="polar",
    )


def _sphere_chart_geodesic(P, V, t):
    """Exact great-circle geodesics in colatitude/longitude coordinates, on
    lanes P, V (B, 2); a lane with zero velocity keeps its (p, v)."""
    X, W = np.array(P, dtype=float), np.array(V, dtype=float)
    theta, phi = P[:, 0], P[:, 1]
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    x0 = np.stack([st * cp, st * sp, ct], axis=1)
    e_theta = np.stack([ct * cp, ct * sp, -st], axis=1)
    e_phi = np.stack([-sp, cp, np.zeros_like(sp)], axis=1)
    xdot = V[:, :1] * e_theta + (V[:, 1] * st)[:, None] * e_phi
    omega = np.sqrt(xdot[:, 0] ** 2 + xdot[:, 1] ** 2 + xdot[:, 2] ** 2)
    m = omega > 0.0
    if np.count_nonzero(m):
        x0, xdot, w = x0[m], xdot[m], omega[m][:, None]
        c, s = np.cos(w * t), np.sin(w * t)
        x = c * x0 + s * xdot / w
        xd = w * (-s * x0 + c * xdot / w)
        theta_t = np.arccos(np.clip(x[:, 2], -1.0, 1.0))
        X[m, 0] = theta_t
        X[m, 1] = np.arctan2(x[:, 1], x[:, 0])
        W[m, 0] = -xd[:, 2] / np.sin(theta_t)
        W[m, 1] = (x[:, 0] * xd[:, 1] - x[:, 1] * xd[:, 0]) / (x[:, 0] ** 2 + x[:, 1] ** 2)
    return X, W


def sphere_chart_metric(
    theta_bounds=(0.05, np.pi - 0.05),
    phi_bounds=(0.05, 2.9),
    use_closed_form: bool = True,
) -> MetricField:
    """Round-sphere chart metric diag(1, sin^2 theta) in (theta, phi)."""

    def in_domain(X):
        theta, phi = X[:, 0], X[:, 1]
        return (
            (theta_bounds[0] < theta) & (theta < theta_bounds[1])
            & (phi_bounds[0] < phi) & (phi < phi_bounds[1])
        )

    def gamma(X):
        st, ct = np.sin(X[:, 0]), np.cos(X[:, 0])
        out = np.zeros((len(X), 2, 2, 2))
        out[:, 0, 1, 1] = -st * ct
        out[:, 1, 0, 1] = out[:, 1, 1, 0] = ct / st
        return out

    return MetricField(
        dim=2,
        matrix_fn=lambda X: _diag2(1.0, np.sin(X[:, 0]) ** 2),
        domain=in_domain,
        name="sphere-chart",
        christoffel_fn=gamma,
        geodesic_fn=_sphere_chart_geodesic if use_closed_form else None,
    )
