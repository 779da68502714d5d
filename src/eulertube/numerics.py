"""Differentiable-map oracles, finite differences, Newton inversion and an
adaptive Dormand-Prince integrator.

Everything here works on small dense double-precision arrays (ambient
dimension <= 6) as lanes, a leading axis (B, d) of independent points
with one result per lane; all functions are pure.
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


def domain_mask(domain: Optional[Callable[[Array], Array]], X: Array) -> Array:
    """The (B,) bool mask of an optional lane domain at the lanes X; no
    domain contains every lane."""
    return np.ones(len(X), bool) if domain is None else np.asarray(domain(X), bool)


@dataclass(frozen=True)
class DifferentiableMap:
    """A smooth map with an evaluation oracle and optional analytic jacobian.

    ``fn``, ``jac`` and ``domain``, like the map, its jacobian and
    ``contains``, take lanes, a stack of independent points (B, d), and
    return per-lane results: (B, c), (B, c, d) and a (B,) bool mask.  If no
    analytic jacobian is supplied, ``jacobian`` falls back to central
    per-coordinate finite differences with step ``fd_step``.
    """

    domain_dim: int
    codomain_dim: int
    fn: Callable[[Array], Array]
    jac: Optional[Callable[[Array], Array]] = None
    fd_step: float = 1e-5
    domain: Optional[Callable[[Array], Array]] = None

    def __call__(self, X: Array) -> Array:
        return np.asarray(self.fn(X), dtype=float)

    def jacobian(self, X: Array) -> Array:
        return jacobian(self, X)

    def contains(self, X: Array) -> Array:
        return domain_mask(self.domain, X)


def jacobian(f: DifferentiableMap, X: Array) -> Array:
    """Jacobians (B, c, d) of ``f`` on lanes X (B, d): analytic if supplied,
    else central FD with every stencil point of every lane in one
    evaluation of ``f``.

    Raises DomainMargin if any stencil point falls outside ``f.domain``.
    """
    if f.jac is not None:
        return np.asarray(f.jac(X), dtype=float)
    h = f.fd_step
    d = f.domain_dim
    steps = h * np.eye(d)
    # S[s, b, i] = X[b] + h e_i (s = 0) or X[b] - h e_i (s = 1)
    S = np.stack([X[:, None, :] + steps, X[:, None, :] - steps]).reshape(2 * len(X) * d, d)
    if f.domain is not None:
        outside = ~f.contains(S)
        if outside.any():
            i = int(np.flatnonzero(outside)[0]) % d
            raise DomainMargin(f"stencil point outside domain at coordinate {i}")
    F = f(S) if len(S) else np.empty((0, f.codomain_dim))
    F = F.reshape(2, len(X), d, f.codomain_dim)
    return np.transpose((F[0] - F[1]) / (2.0 * h), (0, 2, 1))


@dataclass
class Trajectory:
    """Time-stamped states of integrated lanes: ``times`` (T, B), ``states``
    (T, B, d) and ``exited`` (B,).  Row r holds every lane after the r-th
    loop pass in which some lane accepted a step, and a lane that did not
    move in that pass repeats its previous time and state.  For
    geodesic/flow problems the state is the concatenation (point,
    velocity); the ``points``/``velocities`` views split it in half.
    """

    times: Array
    states: Array
    tolerance_used: float
    exited: Array

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if len(self.times) != len(self.states):
            raise ValueError("times and states length mismatch")
        steps = np.diff(self.times, axis=0)
        if np.any(steps < 0) or not np.all(np.any(steps > 0, axis=1)):
            raise ValueError("each row of times must advance some lane and move none back")

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
    domain: Optional[Callable[[Array], Array]] = None,
    max_steps: int = 100_000,
) -> Trajectory:
    """Adaptive order-4/5 integration of dy/dt = field(y) from t=0 to t_end.

    ``field`` and ``domain`` take lanes: ``field`` maps states (B', d) to
    (B', d) and ``domain`` returns a (B',) bool mask, for any subset of
    lanes.  ``y0`` is lanes (B, d) with ``t_end`` scalar or (B,).  Every
    lane keeps its own step size,
    error control, step budget and retirement, so a lane's result does not
    depend on the others.  Per-step local error is kept below ``tol`` (max
    norm).  If a ``domain`` predicate is given and the state leaves it, the
    lane stops with ``exited=True``; its step is bisected first so the
    final stored state sits just inside the boundary.  A lane whose field
    evaluation fails halves its step, and exits once the step is below its
    floor.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    y = np.array(y0, dtype=float)
    t_end = np.broadcast_to(np.asarray(t_end, dtype=float), y.shape[:1]).copy()
    if np.any(t_end < 0):
        raise ValueError("t_end must be nonnegative")

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
    k1 = np.asarray(field(y), dtype=float) if len(live) else y
    times = [t_all.copy()]
    states = [y_all.copy()]
    while len(live):
        steps += 1
        if np.count_nonzero(steps > max_steps):
            raise StepUnderflow("step budget exhausted")
        h = np.minimum(h, t_end - t)
        ok = np.ones(len(live), dtype=bool)
        y_new, err, k_last = _dp_step(field, y, h, k1, ok)
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
        if domain is not None and np.count_nonzero(accept):
            if np.count_nonzero(accept) == len(live):
                accept = np.asarray(domain(y_new), dtype=bool).copy()
            else:
                accept[accept] = np.asarray(domain(y_new[accept]), dtype=bool)
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
    return Trajectory(np.array(times), np.array(states), tol, exited=exited)


def _norm(R: Array) -> Array:
    """Euclidean norm of each lane of R (B, d)."""
    return np.sqrt(np.add.reduce(R * R, axis=1))


COND_LIMIT = 1e12  # largest 1-norm condition number of a Newton jacobian


def guarded_inverse(J: Array) -> Array:
    """Explicit inverses of the stacked square matrices J (B, n, n), NaN on
    every lane that fails the guard: exactly singular, non-finite, or 1-norm
    condition number ||J||_1 ||J^-1||_1 above COND_LIMIT.

    One stacked LAPACK inverse and four reductions, where an SVD-based
    condition number costs 15 us a matrix; a batch with an exactly
    singular lane is inverted lane by lane.
    """
    try:
        J_inv = np.linalg.inv(J)
    except np.linalg.LinAlgError:
        J_inv = np.array([_inverse_or_nan(M) for M in J]).reshape(J.shape)
    norm1 = np.abs(np.concatenate([J, J_inv])).sum(axis=1).max(axis=1)
    # NaN fails the comparison
    ok = norm1[: len(J)] * norm1[len(J) :] <= COND_LIMIT
    if np.count_nonzero(ok) < len(J):
        J_inv[~ok] = np.nan
    return J_inv


def _inverse_or_nan(M: Array) -> Array:
    try:
        return np.linalg.inv(M)
    except np.linalg.LinAlgError:
        return np.full(M.shape, np.nan)


def _jacobian_on(f: DifferentiableMap, x: Array, live: Array) -> Array:
    """f's jacobian on the whole batch x, so that it sees the lanes of the
    value call before it; if that raises (a finite-difference stencil may
    leave the domain at a converged lane), on the ``live`` lanes only, NaN
    on the others."""
    try:
        return f.jacobian(x)
    except EulertubeError:
        if np.count_nonzero(live) == len(x):
            raise
    J = np.full((len(x), f.codomain_dim, f.domain_dim), np.nan)
    J[live] = f.jacobian(x[live])
    return J


def solve_inverse(
    f: DifferentiableMap,
    y,
    x0,
    tol: float = 1e-12,
    max_iter: int = 50,
    max_halvings: int = 10,
    fx0=None,
    jac_inv0=None,
) -> Array:
    """Solve f(x) = y by damped Newton iteration starting from ``x0``.

    ``y`` and ``x0`` are lanes (B, d) of independent problems.  Every lane has its own convergence test, condition guard
    and backtracking line search.  The batch stays fixed: a converged lane
    is frozen, so f and its jacobian are evaluated on every lane, while the
    guard, the step and the line search act on the live lanes only.  So a
    lane's result is the one it gets alone, a frozen lane never makes the
    solve raise, and the solution is the last batch f was evaluated on
    (unless the last step backtracked).  The Newton step applies the
    explicit inverse of ``guarded_inverse``.  ``fx0`` and ``jac_inv0``,
    when given, are f(x0) and ``guarded_inverse(Df(x0))``,
    which a caller starting from a table of points may hold already; the
    first iteration then evaluates neither f nor its jacobian.  Raises
    SingularJacobian when some live lane's jacobian fails the guard, and
    NoConvergence when some lane misses ``tol`` after ``max_iter``
    iterations.
    """
    y = np.asarray(y, dtype=float)
    x = np.array(x0, dtype=float)
    d = x.shape[1]
    r = (f(x) if fx0 is None else np.reshape(fx0, y.shape)) - y
    rn = _norm(r)
    live = ~(rn <= tol)
    J_inv = None if jac_inv0 is None else np.reshape(jac_inv0, (len(x), d, d))
    for _ in range(max_iter):
        if np.count_nonzero(live) == 0:
            break
        if J_inv is None:
            J_inv = guarded_inverse(_jacobian_on(f, x, live))
        if np.count_nonzero(live & np.isnan(J_inv[:, 0, 0])):
            raise SingularJacobian(
                f"jacobian singular or its condition estimate above {COND_LIMIT:.1e}"
            )
        # a frozen lane's step, NaN where its jacobian failed, is discarded
        dx = -(J_inv @ r[:, :, None])[:, :, 0]
        x_new = np.where(live[:, None], x + dx, x)
        r_new = f(x_new) - y
        rn_new = _norm(r_new)
        # backtrack, lane by lane, where the full step does not decrease |r|
        search = (live & ~(rn_new < rn)).nonzero()[0]
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
        live &= ~(rn <= tol)
        J_inv = None
    if np.count_nonzero(live):
        raise NoConvergence(f"Newton residual {float(np.max(rn[live])):.3e} above tol {tol:.3e}")
    return x
