"""Differentiable-map oracles, finite differences, Newton inversion and an
adaptive Dormand-Prince integrator.

Everything here works on small dense double-precision arrays (ambient
dimension <= 6); all functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    DomainMargin,
    EulertubeError,
    NoConvergence,
    SingularJacobian,
    StepUnderflow,
)

Array = np.ndarray


def as_lanes(x, d: int):
    """x as lanes (B, d), and whether it was one point: a scalar or a (d,)
    array is a batch of one."""
    x = np.asarray(x, dtype=float)
    if x.ndim <= 1:
        return x.reshape(1, d), True
    return x, False


def on_lanes(fn: Callable, lanes: bool, x) -> Array:
    """``fn`` at one point x (d,) or on lanes (B, d).  A function that takes
    lanes gets one call (a point as a batch of one); any other gets one
    call per lane, stacked.  Either way lane b's result depends on x[b]
    only."""
    x = np.asarray(x, dtype=float)
    if x.ndim <= 1:
        return np.asarray(fn(x[None]), dtype=float)[0] if lanes else np.asarray(fn(x), dtype=float)
    if lanes:
        return np.asarray(fn(x), dtype=float)
    return np.array([np.asarray(fn(point), dtype=float) for point in x])


def lanes_in(predicate: Optional[Callable], lanes: bool, x, d: int):
    """A domain predicate at one point x (d,), as a bool, or on lanes
    (B, d), as a (B,) mask; no predicate admits everything."""
    X, single = as_lanes(x, d)
    if predicate is None:
        inside = np.ones(len(X), dtype=bool)
    elif lanes:
        inside = np.asarray(predicate(X), dtype=bool) | np.zeros(len(X), dtype=bool)
    else:
        inside = np.array([bool(predicate(point)) for point in X], dtype=bool)
    return bool(inside[0]) if single else inside


@dataclass(frozen=True)
class DifferentiableMap:
    """A smooth map with an evaluation oracle and optional analytic jacobian.

    A map is evaluated at one point x of shape (d,) or on lanes, a stack of
    independent points of shape (B, d).  With ``lanes=True``, ``fn``, ``jac``
    and ``domain`` take lanes: (B, d) -> (B, c), (B, c, d) and a (B,) mask;
    otherwise they take one point and lanes are looped.  If no analytic
    jacobian is supplied, ``jacobian`` falls back to central per-coordinate
    finite differences with step ``fd_step``.
    """

    domain_dim: int
    codomain_dim: int
    fn: Callable[[Array], Array]
    jac: Optional[Callable[[Array], Array]] = None
    fd_step: float = 1e-5
    domain: Optional[Callable[[Array], bool]] = None
    lanes: bool = False

    def __call__(self, x) -> Array:
        return on_lanes(self.fn, self.lanes, x)

    def jacobian(self, x) -> Array:
        return jacobian(self, x)

    def contains(self, x):
        """Domain membership: a bool at one point, a (B,) mask on lanes."""
        return lanes_in(self.domain, self.lanes, x, self.domain_dim)


def jacobian(f: DifferentiableMap, x) -> Array:
    """Jacobian of ``f`` at ``x`` (d,) or on lanes (B, d): analytic if
    supplied, else central FD with every stencil point of every lane in one
    evaluation of ``f``.

    Raises DomainMargin if any stencil point falls outside ``f.domain``.
    """
    X, single = as_lanes(x, f.domain_dim)
    if f.jac is not None:
        J = on_lanes(f.jac, f.lanes, X)
    else:
        h = f.fd_step
        d = f.domain_dim
        steps = h * np.eye(d)
        # S[s, b, i] = X[b] + h e_i (s = 0) or X[b] - h e_i (s = 1)
        S = np.stack([X[:, None, :] + steps, X[:, None, :] - steps]).reshape(2 * len(X) * d, d)
        if f.domain is not None:
            outside = ~lanes_in(f.domain, f.lanes, S, d)
            if outside.any():
                i = int(np.flatnonzero(outside)[0]) % d
                raise DomainMargin(f"stencil point outside domain at coordinate {i}")
        F = on_lanes(f.fn, f.lanes, S) if len(S) else np.empty((0, f.codomain_dim))
        F = F.reshape(2, len(X), d, f.codomain_dim)
        J = np.transpose((F[0] - F[1]) / (2.0 * h), (0, 2, 1))
    return J[0] if single else J


@dataclass
class Trajectory:
    """Time-stamped states of an integrated ODE.

    For one initial state, ``times`` is (T,) and ``states`` (T, d).  For
    lanes, ``times`` is (T, B), ``states`` (T, B, d) and ``exited`` (B,):
    row r holds every lane after the r-th loop pass in which some lane
    accepted a step, and a lane that did not move in that pass repeats its
    previous time and state.  For geodesic/flow problems the state is the
    concatenation (point, velocity); the ``points``/``velocities`` views
    split it in half.
    """

    times: Array
    states: Array
    tolerance_used: float
    exited: object = False

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if len(self.times) != len(self.states):
            raise ValueError("times and states length mismatch")
        steps = np.diff(self.times, axis=0)
        if np.any(steps < 0) or (self.times.ndim == 1 and np.any(steps == 0)):
            raise ValueError("times must be strictly increasing")

    @property
    def final_state(self) -> Array:
        return self.states[-1]

    @property
    def points(self) -> Array:
        n = self.states.shape[-1] // 2
        return self.states[..., :n]

    @property
    def velocities(self) -> Array:
        n = self.states.shape[-1] // 2
        return self.states[..., n:]


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


def _field_on(f, Y: Array, ok: Array) -> Array:
    """f on each lane of Y where ``ok`` holds, one lane at a time, NaN
    elsewhere; a lane whose evaluation raises an EulertubeError is cleared
    from ``ok`` (in place).  So which lanes fail, and every other lane's
    value, is what each lane gives on its own."""
    out = np.full(Y.shape, np.nan)
    for i in np.flatnonzero(ok):
        try:
            out[i] = f(Y[i : i + 1])[0]
        except EulertubeError:
            ok[i] = False
    return out


def _dp_step(f, y, h, k1, ok):
    """One Dormand-Prince step on lanes with steps h (B,); returns (y_new,
    error_estimate, k_last).  Once a batch evaluation raises, the step's
    remaining stages go lane by lane, and failing lanes leave ``ok``."""
    h = h[:, None]
    k = [k1]
    batch = True
    for row in _DP_A[1:]:
        yi = y + h * sum(a * ki for a, ki in zip(row, k))
        if batch:
            try:
                k.append(np.asarray(f(yi), dtype=float))
                continue
            except EulertubeError:
                batch = False
        k.append(_field_on(f, yi, ok))
    y_new = y + h * sum(b * ki for b, ki in zip(_DP_B, k) if b != 0.0)
    err = h * sum(e * ki for e, ki in zip(_DP_E, k) if e != 0.0)
    return y_new, np.max(np.abs(err), axis=1), k[-1]


def ode_integrate(
    field,
    y0,
    t_end,
    tol: float,
    domain: Optional[Callable[[Array], bool]] = None,
    max_steps: int = 100_000,
) -> Trajectory:
    """Adaptive order-4/5 integration of dy/dt = field(y) from t=0 to t_end.

    ``y0`` is one state (d,) with a scalar ``t_end``, or lanes (B, d) with
    ``t_end`` scalar or (B,); on lanes ``field`` maps (B', d) to (B', d) and
    ``domain`` returns a (B',) mask, for any subset of lanes.  Every lane
    keeps its own step size, error control, step budget and retirement, so
    a lane's result does not depend on the others.  Per-step local error
    is kept below ``tol`` (max norm).  If a ``domain`` predicate is given
    and the state leaves it, the lane stops with ``exited=True``; its step
    is bisected first so the final stored state sits just inside the
    boundary.  A lane whose field evaluation fails halves its step, and
    exits once the step is below its floor.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    y0 = np.asarray(y0, dtype=float)
    single = y0.ndim == 1
    y = np.atleast_2d(y0).copy()
    t_end = np.broadcast_to(np.asarray(t_end, dtype=float), y.shape[:1]).copy()
    if np.any(t_end < 0):
        raise ValueError("t_end must be nonnegative")
    if single:
        f = lambda Y: np.asarray(field(Y[0]), dtype=float)[None]  # noqa: E731
        inside = None if domain is None else lambda Y: np.array([bool(domain(Y[0]))])
    else:
        f, inside = field, domain

    # the arrays below hold the lanes still running, whose indices are
    # ``live``; t_all and y_all hold every lane
    t_all = np.zeros(len(y))
    y_all = y
    exited = np.zeros(len(y), dtype=bool)
    live = np.flatnonzero(t_end > 0.0)
    y = y_all[live]
    t = t_all[live]
    t_end = t_end[live]
    t_stop = t_end * (1.0 - 1e-15)
    h = t_end
    h_min = 1e-14 * np.abs(h)
    h_exit = 1e-12 * np.abs(h)
    steps = np.zeros(len(live), dtype=int)
    k1 = f(y) if len(live) else y
    times = [t_all.copy()]
    states = [y_all.copy()]
    while len(live):
        steps += 1
        if np.count_nonzero(steps > max_steps):
            raise StepUnderflow("step budget exhausted")
        h = np.minimum(h, t_end - t)
        ok = np.ones(len(live), dtype=bool)
        y_new, err, k_last = _dp_step(f, y, h, k1, ok)
        # ~ok: a trial stage point left the region where the field is
        # evaluable; operationally this is a domain boundary
        err = np.where(np.isfinite(y_new).all(axis=1), err, np.inf)
        reject = ok & (err > tol)
        # tol / err overflows to inf for a subnormal err; growth is capped
        # at 5 below, so inf is the right ratio there
        with np.errstate(over="ignore"):
            ratio = np.divide(tol, err, out=np.full(len(live), np.inf), where=err > 0.0)
        shrink = np.where(err < np.inf, np.maximum(0.2, 0.9 * ratio**0.2), 0.2)
        accept = ok & ~reject
        if inside is not None and np.count_nonzero(accept):
            if np.count_nonzero(accept) == len(live):
                accept = np.asarray(inside(y_new), dtype=bool).copy()
            else:
                accept[accept] = np.asarray(inside(y_new[accept]), dtype=bool)
        failed = ~accept & ~reject
        stop = failed & (h < h_exit)
        grow = np.where(err == 0.0, 5.0, np.minimum(5.0, shrink))
        h_next = h * np.where(accept, grow, np.where(reject, shrink, 0.5))
        if np.count_nonzero(reject & (h_next < h_min)):
            raise StepUnderflow("step size collapsed during error control")
        if np.count_nonzero(accept):
            t = t + np.where(accept, h, 0.0)
            y = np.where(accept[:, None], y_new, y)
            k1 = np.where(accept[:, None], k_last, k1)
            t_all[live] = t
            y_all[live] = y
            times.append(t_all.copy())
            states.append(y_all.copy())
        h = h_next
        done = stop | (accept & ~(t < t_stop))
        if np.count_nonzero(done):
            exited[live[stop]] = True
            keep = ~done
            live, y, t, t_end, t_stop, h, h_min, h_exit, steps, k1 = (
                a[keep] for a in (live, y, t, t_end, t_stop, h, h_min, h_exit, steps, k1)
            )
    if single:
        return Trajectory(np.array(times)[:, 0], np.array(states)[:, 0], tol, exited=bool(exited[0]))
    return Trajectory(np.array(times), np.array(states), tol, exited=exited)


def _norm(R: Array) -> Array:
    """Euclidean norm of each lane of R (B, d)."""
    return np.sqrt(np.add.reduce(R * R, axis=1))


def _guarded_inverse(J: Array, cond_limit: float) -> Array:
    """Explicit inverses of the stacked square matrices J (B, n, n).

    Raises SingularJacobian when some lane is exactly singular, non-finite
    or has 1-norm condition number ||J||_1 ||J^-1||_1 above
    ``cond_limit``.  One stacked LAPACK inverse and four reductions, where
    an SVD-based condition number costs 15 us a matrix.
    """
    try:
        J_inv = np.linalg.inv(J)
    except np.linalg.LinAlgError:
        raise SingularJacobian("jacobian exactly singular") from None
    norm1 = np.abs(np.concatenate([J, J_inv])).sum(axis=1).max(axis=1)
    # NaN fails the comparison
    if np.count_nonzero(norm1[: len(J)] * norm1[len(J) :] <= cond_limit) < len(J):
        raise SingularJacobian("jacobian condition estimate too large")
    return J_inv


def solve_inverse(
    f: DifferentiableMap,
    y,
    x0,
    tol: float = 1e-12,
    max_iter: int = 50,
    cond_limit: float = 1e12,
    max_halvings: int = 10,
) -> Array:
    """Solve f(x) = y by damped Newton iteration starting from ``x0``.

    ``y`` and ``x0`` are one problem (d,) or lanes (B, d) of independent
    problems.  Every lane has its own convergence test, condition guard
    and backtracking line search, and leaves the iteration once converged,
    so its result is the one it gets alone.  The Newton step applies the
    explicit inverse of the jacobian that the guard computes.  Raises
    SingularJacobian when some lane's jacobian is non-finite, exactly
    singular or has 1-norm condition number above ``cond_limit``, and
    NoConvergence when some lane misses ``tol`` after ``max_iter``
    iterations.
    """
    y = np.asarray(y, dtype=float)
    single = y.ndim == 1
    y = np.atleast_2d(y)
    x = np.atleast_2d(np.asarray(x0, dtype=float)).copy()
    out = x  # converged lanes are written back here
    idx = np.arange(len(x))  # lanes still iterating, and their x, r, |r|
    r = f(x) - y
    rn = _norm(r)
    for iteration in range(max_iter + 1):
        done = rn <= tol
        if np.count_nonzero(done):
            out[idx[done]] = x[done]
            live = ~done
            idx, x, y, r, rn = idx[live], x[live], y[live], r[live], rn[live]
        if len(idx) == 0 or iteration == max_iter:
            break
        # one explicit inverse a lane serves the guard and the step
        J_inv = _guarded_inverse(f.jacobian(x), cond_limit)
        dx = -(J_inv @ r[:, :, None])[:, :, 0]
        x_new = x + dx
        r_new = f(x_new) - y
        rn_new = _norm(r_new)
        # backtrack, lane by lane, where the full step does not decrease |r|
        search = (~(rn_new < rn)).nonzero()[0]
        step = 1.0
        for _ in range(max_halvings):
            if len(search) == 0:
                break
            step *= 0.5
            xs = x[search] + step * dx[search]
            rs = f(xs) - y[search]
            rns = _norm(rs)
            x_new[search], r_new[search], rn_new[search] = xs, rs, rns
            search = search[~(rns < rn[search])]
        x, r, rn = x_new, r_new, rn_new
    if len(idx):
        raise NoConvergence(f"Newton residual {float(np.max(rn)):.3e} above tol {tol:.3e}")
    return out[0] if single else out
