"""Differentiable-map oracles, finite differences, Newton inversion and an
adaptive Dormand-Prince integrator.

Everything here works on small dense double-precision arrays (ambient
dimension <= 6); all functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    DomainMargin,
    EulertubeError,
    NoConvergence,
    SingularJacobian,
    StepUnderflow,
)

Array = np.ndarray


@dataclass(frozen=True)
class DifferentiableMap:
    """A smooth map with an evaluation oracle and optional analytic jacobian.

    If no analytic jacobian is supplied, ``jacobian`` falls back to central
    per-coordinate finite differences with step ``fd_step``.
    """

    domain_dim: int
    codomain_dim: int
    fn: Callable[[Array], Array]
    jac: Optional[Callable[[Array], Array]] = None
    fd_step: float = 1e-5
    domain: Optional[Callable[[Array], bool]] = None

    def __call__(self, x) -> Array:
        x = np.asarray(x, dtype=float)
        return np.asarray(self.fn(x), dtype=float)

    def jacobian(self, x) -> Array:
        return jacobian(self, x)

    def contains(self, x) -> bool:
        return self.domain is None or bool(self.domain(np.asarray(x, dtype=float)))


def jacobian(f: DifferentiableMap, x) -> Array:
    """Jacobian of ``f`` at ``x``: analytic if supplied, else central FD.

    Raises DomainMargin if any stencil point falls outside ``f.domain``.
    """
    x = np.asarray(x, dtype=float)
    if f.jac is not None:
        return np.asarray(f.jac(x), dtype=float)
    h = f.fd_step
    if f.domain is not None:
        for i in range(f.domain_dim):
            for s in (-h, h):
                xs = x.copy()
                xs[i] += s
                if not f.domain(xs):
                    raise DomainMargin(
                        f"stencil point outside domain at coordinate {i}"
                    )
    J = np.empty((f.codomain_dim, f.domain_dim))
    for i in range(f.domain_dim):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        J[:, i] = (f(xp) - f(xm)) / (2.0 * h)
    return J


@dataclass
class Trajectory:
    """Time-stamped states of an integrated ODE.

    For geodesic/flow problems the state is the concatenation (point,
    velocity); the ``points``/``velocities`` views split it in half.
    """

    times: Array
    states: Array
    tolerance_used: float
    exited: bool = False

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if len(self.times) != len(self.states):
            raise ValueError("times and states length mismatch")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")

    @property
    def final_state(self) -> Array:
        return self.states[-1]

    @property
    def points(self) -> Array:
        n = self.states.shape[1] // 2
        return self.states[:, :n]

    @property
    def velocities(self) -> Array:
        n = self.states.shape[1] // 2
        return self.states[:, n:]

    def sample(self, t: float) -> Array:
        """Linear interpolation between stored states (diagnostics only)."""
        i = int(np.searchsorted(self.times, t, side="right")) - 1
        i = min(max(i, 0), len(self.times) - 2)
        t0, t1 = self.times[i], self.times[i + 1]
        w = (t - t0) / (t1 - t0)
        return (1.0 - w) * self.states[i] + w * self.states[i + 1]


# Dormand-Prince 5(4) tableau (FSAL).
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)


def _dp_step(f, y, h, k1):
    """One Dormand-Prince step; returns (y_new, error_estimate, k_last)."""
    k = [k1]
    for row in _DP_A[1:]:
        yi = y + h * sum(a * ki for a, ki in zip(row, k))
        k.append(f(yi))
    y_new = y + h * sum(b * ki for b, ki in zip(_DP_B, k) if b != 0.0)
    err = h * sum(e * ki for e, ki in zip(_DP_E, k) if e != 0.0)
    return y_new, float(np.max(np.abs(err))), k[-1]


def ode_integrate(
    field,
    y0,
    t_end: float,
    tol: float,
    domain: Optional[Callable[[Array], bool]] = None,
    max_steps: int = 100_000,
) -> Trajectory:
    """Adaptive order-4/5 integration of dy/dt = field(y) from t=0 to t_end.

    Per-step local error estimate is kept below ``tol`` (max norm).  If a
    ``domain`` predicate is given and the state leaves it, the partial
    trajectory is returned with ``exited=True``; the step is bisected first
    so the final stored state sits just inside the boundary.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    y = np.asarray(y0, dtype=float).copy()
    if t_end == 0.0:
        return Trajectory(np.array([0.0]), np.array([y]), tol)
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")

    times = [0.0]
    states = [y.copy()]
    exited = False
    t = 0.0
    h = t_end
    h_min = 1e-14 * abs(t_end)
    k1 = np.asarray(field(y), dtype=float)
    steps = 0
    while t < t_end * (1.0 - 1e-15):
        steps += 1
        if steps > max_steps:
            raise StepUnderflow("step budget exhausted")
        h = min(h, t_end - t)
        try:
            y_new, err, k_last = _dp_step(field, y, h, k1)
        except EulertubeError:
            # a trial stage point left the region where the field is
            # evaluable; operationally this is a domain boundary
            if h < 1e-12 * abs(t_end):
                exited = True
                break
            h *= 0.5
            continue
        if not np.all(np.isfinite(y_new)):
            err = np.inf
        if err > tol:
            h *= max(0.2, 0.9 * (tol / err) ** 0.2) if np.isfinite(err) else 0.2
            if h < h_min:
                raise StepUnderflow("step size collapsed during error control")
            continue
        if domain is not None and not domain(y_new):
            if h < 1e-12 * abs(t_end):
                exited = True
                break
            h *= 0.5
            continue
        t += h
        y = y_new
        k1 = k_last
        times.append(t)
        states.append(y.copy())
        if err == 0.0:
            h *= 5.0
        else:
            h *= min(5.0, max(0.2, 0.9 * (tol / err) ** 0.2))
    return Trajectory(np.array(times), np.array(states), tol, exited=exited)


def solve_inverse(
    f: DifferentiableMap,
    y,
    x0,
    tol: float = 1e-12,
    max_iter: int = 50,
    cond_limit: float = 1e12,
    max_halvings: int = 10,
) -> Array:
    """Solve f(x) = y by damped Newton iteration starting from ``x0``."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x0, dtype=float).copy()
    r = f(x) - y
    rnorm = float(np.linalg.norm(r))
    for _ in range(max_iter):
        if rnorm <= tol:
            return x
        J = f.jacobian(x)
        if not np.all(np.isfinite(J)) or np.linalg.cond(J) > cond_limit:
            raise SingularJacobian("jacobian condition estimate too large")
        dx = np.linalg.solve(J, -r)
        step = 1.0
        for _ in range(max_halvings + 1):
            x_new = x + step * dx
            r_new = f(x_new) - y
            if np.linalg.norm(r_new) < rnorm:
                break
            step *= 0.5
        x, r = x_new, r_new
        rnorm = float(np.linalg.norm(r))
    if rnorm <= tol:
        return x
    raise NoConvergence(f"Newton residual {rnorm:.3e} above tol {tol:.3e}")
