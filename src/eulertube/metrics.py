"""Metric fields, Christoffel symbols, geodesics and the exponential map."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NotInDomain, SingularMetric
from .numerics import (
    Array, Trajectory, central_difference, central_stencil, domain_mask, ode_integrate,
)


@dataclass(frozen=True)
class MetricField:
    """A smooth symmetric-positive-definite matrix field on an open region.

    Every callable and method takes lanes, a stack of independent points
    (B, n), and returns per-lane results: ``matrix_fn`` and ``matrix`` the
    matrices (B, n, n), ``domain`` and ``contains`` a (B,) bool mask.
    ``christoffel_fn`` and ``exp_fn``
    are optional shortcuts: analytic formulas for standard background
    metrics, or, for a pullback metric, its chart-stencil finite difference
    (``realization.pullback_metric``).  When present they are cross-checked
    against the ambient finite-difference / integration routes by the test
    suite.  ``christoffel_fn`` maps points (B, n) to symbols (B, n, n, n),
    and ``exp_fn(P, V)`` returns the exact exp_p(v) (B, n) of the lanes
    (P, V): p on a zero-velocity lane, and NaN on a lane whose geodesic
    leaves the domain before parameter 1 with its endpoint back inside.
    """

    dim: int
    matrix_fn: Callable[[Array], Array]
    domain: Optional[Callable[[Array], Array]] = None
    fd_step: float = 1e-5
    christoffel_fn: Optional[Callable[[Array], Array]] = None
    exp_fn: Optional[Callable[[Array, Array], Array]] = None

    def matrix(self, X: Array) -> Array:
        return np.asarray(self.matrix_fn(X), dtype=float)

    def contains(self, X: Array) -> Array:
        return domain_mask(self.domain, X)


_SYM_TOL = 1e-10  # largest |g_ij - g_ji| that validate_metric accepts


def validate_metric(g: MetricField, X: Array) -> float:
    """Spot-check symmetry and positive definiteness on the sample points X
    (B, n), evaluated as one lane batch.

    Returns the largest symmetry defect seen; raises SingularMetric at the
    first sample matrix that is not symmetric or not positive definite.
    """
    if len(X) == 0:
        return 0.0
    G = g.matrix(X)
    Gt = np.swapaxes(G, 1, 2)
    asym = np.max(np.abs(G - Gt), axis=(1, 2))
    lowest = np.linalg.eigvalsh(0.5 * (G + Gt))[:, 0]
    for x, defect, low in zip(X, asym, lowest):
        if defect > _SYM_TOL:
            raise SingularMetric(f"metric not symmetric at {x} (defect {defect:.3e})")
        if low <= 0.0:
            raise SingularMetric(f"metric not positive definite at {x}")
    return float(np.max(asym))


def christoffel(g: MetricField, X: Array) -> Array:
    """Levi-Civita symbols Gamma^k_ij, symmetric in (i, j), on lanes X
    (B, n): (B, n, n, n).

    Without an analytic ``christoffel_fn`` they are a central difference of
    g on ``numerics.central_stencil``, the lanes X and then their
    lane-major stencils in one evaluation of g; raises DomainMargin if a
    stencil point of some lane leaves g's domain.
    """
    if g.christoffel_fn is not None:
        return np.asarray(g.christoffel_fn(X), dtype=float)
    nl, n = X.shape
    S = central_stencil(X, g.fd_step, g.domain).reshape(nl * 2 * n, n)
    G = g.matrix(np.concatenate([X, S]))
    dg = central_difference(G[nl:].reshape(nl, 2 * n, n, n), g.fd_step)  # d_l g_ij
    return levi_civita(G[:nl], dg, X)


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


def geodesic_rhs(g: MetricField, S: Array) -> Array:
    """The geodesic equation as a first-order field on lanes of states
    (point, velocity), (B, 2n)."""
    n = g.dim
    X, V = S[:, :n], S[:, n:]
    gamma = christoffel(g, X)
    # acc_k = -Gamma^k_ij v_i v_j, as two stacked products a lane
    acc = -((gamma @ V[:, None, :, None])[..., 0] @ V[:, :, None])[..., 0]
    return np.concatenate([V, acc], axis=1)


def geodesic(g: MetricField, P: Array, V: Array, t_end: float, tol: float = 1e-10) -> Trajectory:
    """Integrate the geodesics with x(0) = P, x'(0) = V, lanes (B, n), up
    to parameter t_end, as one lane ``Trajectory``; a metric's closed-form
    ``exp_fn`` is not consulted here (``exp_map`` takes it).

    The geodesic field is NaN off the metric domain (its Christoffel
    symbols are taken on the lanes inside only), so a lane that leaves the
    domain stops there with ``exited`` set.
    """
    n = g.dim

    def field(S):
        inside = g.contains(S[:, :n])
        out = np.full(S.shape, np.nan)
        if np.count_nonzero(inside):
            out[inside] = geodesic_rhs(g, S[inside])
        return out

    return ode_integrate(field, np.concatenate([P, V], axis=1), t_end, tol)


def exp_map(g: MetricField, P: Array, V: Array, tol: float = 1e-10) -> Array:
    """exp_p(v) on lanes P, V (B, n), the geodesic endpoints at parameter 1:
    the metric's closed-form ``exp_fn`` where it has one, else the moving
    lanes in one integration.  A zero-velocity lane gives its p.

    Raises NotInDomain if some lane's geodesic exits the metric domain
    before t=1.
    """
    if g.exp_fn is not None:
        x1 = np.asarray(g.exp_fn(P, V), dtype=float)
        if not (np.isfinite(x1).all() and np.all(g.contains(x1))):
            raise NotInDomain("geodesic left the domain before parameter 1")
        return x1
    out = np.array(P, dtype=float)
    moving = V.any(axis=1)
    if np.count_nonzero(moving):
        traj = geodesic(g, P[moving], V[moving], 1.0, tol)
        if np.any(traj.exited):
            raise NotInDomain("geodesic exited domain before parameter 1")
        out[moving] = traj.points[-1]
    return out


# Standard background metrics -------------------------------------------------


def zero_christoffel(X: Array) -> Array:
    """The Christoffel symbols (B, n, n, n) of a constant metric on lanes X
    (B, n): all zero.  ``euclidean_metric`` is the one metric that carries
    it, so ``g.christoffel_fn is zero_christoffel`` tells a flat background
    from what the metric is, not from a sample of its symbols."""
    n = X.shape[1]
    return np.zeros((len(X), n, n, n))


def identity_matrix(X: Array) -> Array:
    """The identity matrices (B, n, n) on lanes X (B, n).  ``euclidean_metric``
    is the one metric that carries it, so ``g.matrix_fn is identity_matrix``
    tells a product with G that it may be skipped; a constant metric that
    is not the identity is flat too, so ``zero_christoffel`` cannot."""
    return np.eye(X.shape[1]) + np.zeros((len(X), 1, 1))


def euclidean_metric(n: int, domain=None) -> MetricField:
    """The flat metric on a convex ``domain`` of R^n, where exp_p(v) = p + v."""
    return MetricField(
        dim=n,
        matrix_fn=identity_matrix,
        domain=domain,
        christoffel_fn=zero_christoffel,
        exp_fn=lambda P, V: P + V,
    )


def _diag2(a, b: Array) -> Array:
    """diag(a, b) for every lane of b (B,): matrices (B, 2, 2)."""
    out = np.zeros(np.shape(b) + (2, 2))
    out[..., 0, 0] = a
    out[..., 1, 1] = b
    return out


def _arc_leaves(P, V, w, phi_end, lo, hi) -> Array:
    """Whether the great arcs from the lanes P with velocities V and lengths
    w leave the box lo < (theta, phi) < hi, less than a turn in phi, before
    they end at phi_end.  An arc's z(s) = R cos(s - alpha) peaks at s =
    alpha (mod 2 pi); off the poles phi moves one way, the sign of v_phi,
    and gains pi on each half turn as the arc length does, so it ends
    within pi of phi0 +- w."""
    z0, uz = np.cos(P[:, 0]), -V[:, 0] * np.sin(P[:, 0]) / w
    R, alpha = np.hypot(z0, uz), np.arctan2(uz, z0)
    turns = np.round((phi_end - P[:, 1] - np.copysign(w, V[:, 1])) / (2.0 * np.pi))
    end = phi_end - 2.0 * np.pi * turns
    return (
        ((np.mod(alpha, 2.0 * np.pi) <= w) & (R >= np.cos(lo[0])))
        | ((np.mod(alpha + np.pi, 2.0 * np.pi) <= w) & (R >= -np.cos(hi[0])))
        | (end <= lo[1]) | (end >= hi[1])
    )


def sphere_chart_metric(theta_bounds=(0.05, np.pi - 0.05), phi_bounds=(0.05, 2.9)) -> MetricField:
    """Round-sphere chart metric diag(1, sin^2 theta) in (theta, phi)."""
    lo, hi = np.transpose([theta_bounds, phi_bounds])  # (theta, phi) corners

    def in_domain(X):
        return (lo[0] < X[:, 0]) & (X[:, 0] < hi[0]) & (lo[1] < X[:, 1]) & (X[:, 1] < hi[1])

    def gamma(X):
        st, ct = np.sin(X[:, 0]), np.cos(X[:, 0])
        out = np.zeros((len(X), 2, 2, 2))
        out[:, 0, 1, 1] = -st * ct
        out[:, 1, 0, 1] = out[:, 1, 1, 0] = ct / st
        return out

    def exp_fn(P, V):
        """Great-circle exp_p(v): p at rest, NaN if the arc leaves the box."""
        X = np.array(P, dtype=float)
        if not V.any():  # a batch at rest, such as phi's on N, costs no trigonometry
            return X
        st, ct = np.sin(P[:, 0]), np.cos(P[:, 0])
        sp, cp = np.sin(P[:, 1]), np.cos(P[:, 1])
        x0 = np.stack([st * cp, st * sp, ct], axis=1)
        e_theta = np.stack([ct * cp, ct * sp, -st], axis=1)
        e_phi = np.stack([-sp, cp, np.zeros_like(sp)], axis=1)
        xdot = V[:, :1] * e_theta + (V[:, 1] * st)[:, None] * e_phi
        omega = np.sqrt(xdot[:, 0] ** 2 + xdot[:, 1] ** 2 + xdot[:, 2] ** 2)
        m = omega > 0.0
        w = omega[m][:, None]
        x = np.cos(w) * x0[m] + np.sin(w) * xdot[m] / w
        X[m, 0] = np.arccos(np.clip(x[:, 2], -1.0, 1.0))
        X[m, 1] = np.arctan2(x[:, 1], x[:, 0])
        # only an arc that may reach the box edge is followed: theta moves at most
        # omega, and phi inside the box st^2 |v_phi| / (st - omega)^2 (Clairaut)
        gap = np.minimum(P - lo, hi - P)
        turning = st * st * np.abs(V[:, 1]) > gap[:, 1] * np.maximum(st - omega, 0.0) ** 2
        near = np.flatnonzero(m & ((omega >= gap[:, 0]) | turning))
        if len(near):
            X[near[_arc_leaves(P[near], V[near], omega[near], X[near, 1], lo, hi)]] = np.nan
        return X

    return MetricField(
        dim=2,
        matrix_fn=lambda X: _diag2(1.0, np.sin(X[:, 0]) ** 2),
        domain=in_domain,
        christoffel_fn=gamma,
        exp_fn=exp_fn,
    )
