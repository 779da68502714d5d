"""Differentiable-map oracles, finite differences, Newton inversion and an
adaptive Dormand-Prince integrator.

Everything here works on small dense double-precision arrays (ambient
dimension <= 6) as lanes, a leading axis (B, d) of independent points
with one result per lane; all functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Tuple

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


class _Pair(NamedTuple):
    """An explicit Runge-Kutta pair whose last stage row equals its weights
    b, so that the last stage is f(y_new) and serves as the next step's
    first (first-same-as-last)."""

    a: Tuple[Tuple[float, ...], ...]  # stage rows from the second stage on
    b: Array
    e: Array  # weights of the error estimate (DOP853: the 5th-order one)
    e3: Optional[Array]  # DOP853's 3rd-order estimate; None for one estimate
    exponent: float  # of tol / err in the step-size factor


_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP54 = _Pair(
    a=_DP_A,
    b=np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0]),
    e=np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]),
    e3=None,
    exponent=0.2,
)

# DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.10), constants
# as in scipy/integrate/_ivp/dop853_coefficients.py (BSD-3-Clause).
_DOP_A = (
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (
        2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
        9.24834003261792003115737966543e-1,
    ),
    (
        3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
        1.25467687566822425016691814123e-1,
    ),
    (
        3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
        6.02165389804559606850219397283e-2, -1.7578125e-2,
    ),
    (
        3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
        1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
        8.27378916381402288758473766002e-3,
    ),
    (
        6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
        -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
        2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1,
    ),
    (
        4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
        -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
        1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
        -2.03312017085086261358222928593e-2,
    ),
    (
        -9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
        1.09143734899672957818500254654, -8.14978701074692612513997267357,
        -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
        2.49360555267965238987089396762, -3.0467644718982195003823669022,
    ),
    (
        2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
        -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
        2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
        -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
        6.43392746015763530355970484046e-1,
    ),
    (
        5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
        4.45031289275240888144113950566, 1.89151789931450038304281599044,
        -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
        -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
        4.47106157277725905176885569043e-2,
    ),
)
_DOP_B = np.array(_DOP_A[-1])
_DOP853 = _Pair(
    a=_DOP_A,
    b=_DOP_B,
    e=np.array([
        0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
        -0.1225156446376204440720569753e1, -0.4957589496572501915214079952,
        0.1664377182454986536961530415e1, -0.3503288487499736816886487290,
        0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
        -0.2235530786388629525884427845e-1,
    ]),
    e3=_DOP_B - np.array([
        0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        0.733846688281611857341361741547, 0.0, 0.0, 0.220588235294117647058823529412e-1,
    ]),
    exponent=1 / 8,
)

# Tolerances below this take DOP853, the others DP5(4); neither pair alone
# does.  Measured on the built-in scenarios under PI control: at flow_tol
# 1e-9 DP5(4) needs 6-7 times the accepted steps of DOP853 (the
# reconstructions 41-54 against 7-8), each stage a Newton inversion of psi,
# while at exp_tol 1e-7 the diagram's short geodesics come out less
# accurate with DOP853 (sphere-equator's worst 1.61e-7 -> 2.49e-7).
_HIGH_ORDER_BELOW = 1e-8

# PI control of accepted steps (Gustafsson, ACM TOMS 17, 1991; Hairer,
# Norsett & Wanner I, sec. II.4), exponents in units of the pair's 1/q.
# A reconstruction flow's error roughly doubles each step, which I control
# (1, 0) meets with rejected steps.  On the schedule 2^-1 ... 2^-6 a seed-0
# benchmark cycle's reconstructions take, PI / I, helix 85 / 109, flat-slice
# 97 / 109, circle 85 / 121 and sphere-equator 109 / 121 field calls; under I
# the default rows read 2.33e-8, 1.56e-8, 2.18e-8 and 2.20e-8 in that order.
_PI_ALPHA = 0.7
_PI_BETA = 0.4
_PI_FLOOR = 1e-4  # least last-accepted err / tol that PI control weighs

_MAX_STEPS = 100_000  # loop passes an integration may take before StepUnderflow


def _field_on(f, Y: Array, ok: Array) -> Array:
    """f on the lanes of Y where ``ok`` holds, NaN on the others: one batch
    evaluation, and lane by lane where that batch raises an EulertubeError.
    ``ok`` is cleared (in place) where the field is undefined: a lane whose
    state or value is not finite, or whose own evaluation raises.  So which
    lanes fail, and every other lane's value, is what each lane gives on
    its own."""
    ok &= np.isfinite(Y).all(axis=1)
    n = np.count_nonzero(ok)
    out = np.full(Y.shape, np.nan)
    if n:
        try:
            out[ok] = f(Y[ok])
        except EulertubeError:
            # a batch of one lane has answered for that lane already
            for i in np.flatnonzero(ok) if n > 1 else ():
                try:
                    out[i] = f(Y[i : i + 1])[0]
                except EulertubeError:
                    pass
    ok &= np.isfinite(out).all(axis=1)
    return out


def _rk_step(f, y, h, k1, ok, pair: _Pair):
    """One step of ``pair`` on lanes with steps h (B,); returns (y_new,
    error_estimate, k_last).  A lane where the field is undefined at some
    stage leaves ``ok``."""
    h = h[:, None]
    k = [k1]
    for row in pair.a:
        yi = y + h * sum(a * ki for a, ki in zip(row, k))
        k.append(_field_on(f, yi, ok))
    y_new = y + h * sum(b * ki for b, ki in zip(pair.b, k) if b != 0.0)
    err = h * sum(e * ki for e, ki in zip(pair.e, k) if e != 0.0)
    err = np.max(np.abs(err), axis=1)
    if pair.e3 is not None:
        # Hairer's DOP853 estimate e5^2 / sqrt(e5^2 + 0.01 e3^2) in the max
        # norm, through hypot so that no square overflows; a zero or
        # non-finite e5 stands as it is
        err3 = h * sum(e * ki for e, ki in zip(pair.e3, k) if e != 0.0)
        scale = np.hypot(err, 0.1 * np.max(np.abs(err3), axis=1))
        err = err * np.divide(
            err, scale, out=np.ones_like(err), where=(scale > 0.0) & (scale < np.inf)
        )
    return y_new, err, k[-1]


def ode_integrate(field, y0, t_end, tol: float) -> Trajectory:
    """Adaptive Runge-Kutta integration of dy/dt = field(y) from t=0 to t_end.

    ``field`` takes lanes, mapping states (B', d) to (B', d) for any subset
    of lanes.  ``y0`` is lanes (B, d) with ``t_end`` scalar or (B,).  Every
    lane keeps its own step size, error control and retirement, and its
    step floors are fractions of its own t_end, so a lane's result does not
    depend on the others.  The step budget is a count of loop passes, one
    for the batch: every lane still running has taken each pass, and
    StepUnderflow is raised once the count passes ``_MAX_STEPS``.  Per-step
    local error is kept below ``tol`` (max norm), by the Dormand-Prince
    pair that suits ``tol``: DOP853, 8th order, below 1e-8, where it needs
    about a sixth of the steps, and DP5(4) otherwise, where one step of
    the 8th-order pair errs more.  A rejected step shrinks by
    0.9 (tol/err)^(1/q), q the pair's order (at least by 0.2); an accepted
    one is resized by PI control, 0.9 (tol/err)^(0.7/q) (err_prev/tol)^(0.4/q)
    (at most 5), with err_prev the lane's last accepted error (tol before
    its first), floored at 1e-4 tol.  The second factor stops the step from
    growing back to a size that is rejected when the error rises from step
    to step.
    One rule decides where a lane stops with ``exited=True``: where its
    field is undefined, that is, a value is not finite or the evaluation of
    that lane alone raises an EulertubeError.  A lane undefined at its
    start exits there; one that meets such a point in a step halves the
    step, and exits once it is below its floor, so the final stored state
    sits just before the boundary.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    pair = _DOP853 if tol < _HIGH_ORDER_BELOW else _DP54
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
    ok = np.ones(len(live), dtype=bool)
    k1 = _field_on(field, y_all[live], ok)
    exited[live[~ok]] = True
    live, k1 = live[ok], k1[ok]
    y = y_all[live]
    t = t_all[live]
    t_end = t_end[live]
    h = t_end
    # PI control weighs prev, err / tol of the lane's last accepted step
    alpha, beta = _PI_ALPHA * pair.exponent, _PI_BETA * pair.exponent
    prev = np.ones(len(live))
    times = [t_all.copy()]
    states = [y_all.copy()]
    passes = 0
    while len(live):
        passes += 1
        if passes > _MAX_STEPS:
            raise StepUnderflow("step budget exhausted")
        h = np.minimum(h, t_end - t)
        ok = np.ones(len(live), dtype=bool)
        y_new, err, k_last = _rk_step(field, y, h, k1, ok, pair)
        # ~ok: the field is undefined at a stage point, the last of which
        # is y_new; the lane halves its step toward that boundary
        err = np.where(np.isfinite(y_new).all(axis=1), err, np.inf)
        reject = ok & (err > tol)
        # tol / err overflows to inf for a subnormal err; growth is capped
        # at 5 below, so inf is the right ratio there
        with np.errstate(over="ignore"):
            ratio = np.divide(tol, err, out=np.full(len(live), np.inf), where=err > 0.0)
        shrink = np.where(err < np.inf, np.maximum(0.2, 0.9 * ratio**pair.exponent), 0.2)
        accept = ok & ~reject
        stop = ~ok & (h < 1e-12 * t_end)
        grow = np.minimum(5.0, 0.9 * ratio**alpha * prev**beta)
        prev = np.where(accept, np.maximum(err / tol, _PI_FLOOR), prev)
        h_next = h * np.where(accept, grow, np.where(reject, shrink, 0.5))
        if np.count_nonzero(reject & (h_next < 1e-14 * t_end)):
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
        done = stop | (accept & ~(t < t_end * (1.0 - 1e-15)))
        if np.count_nonzero(done):
            exited[live[stop]] = True
            keep = ~done
            live, y, t, t_end, h, k1, prev = (a[keep] for a in (live, y, t, t_end, h, k1, prev))
    return Trajectory(np.array(times), np.array(states), exited=exited)


def _norm(R: Array) -> Array:
    """Euclidean norm of each lane of R (B, d)."""
    return np.sqrt(np.add.reduce(R * R, axis=1))


COND_LIMIT = 1e12  # largest 1-norm condition number of a Newton jacobian
_NEWTON_MAX_ITER = 50  # Newton iterations before NoConvergence
_NEWTON_MAX_HALVINGS = 10  # step halvings of the line search an iteration
# a lane's Newton bound is at least 16 ulps of |y|: f(x) rounds to a few ulps
# of y at best, so far from the origin no x meets an absolute tol
_ULPS_OF_Y = 16.0 * np.finfo(float).eps


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
    NoConvergence when some lane misses its bound after
    ``_NEWTON_MAX_ITER`` iterations.  A lane's bound on |f(x) - y| is
    max(tol, 16 eps |y|), tol itself where |y| is small (below about 280
    at tol 1e-12), and relative beyond, where f(x) rounds to a few units
    in the last place of |y| at best.
    """
    y = np.asarray(y, dtype=float)
    x = np.array(x0, dtype=float)
    d = x.shape[1]
    bound = np.maximum(tol, _ULPS_OF_Y * _norm(y))
    r = (f(x) if fx0 is None else np.reshape(fx0, y.shape)) - y
    rn = _norm(r)
    live = ~(rn <= bound)
    J_inv = None if jac_inv0 is None else np.reshape(jac_inv0, (len(x), d, d))
    for _ in range(_NEWTON_MAX_ITER):
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
        for _ in range(_NEWTON_MAX_HALVINGS):
            if len(search) == 0:
                break
            step *= 0.5
            xs = x[search] + step * dx[search]
            rs = f(xs) - y[search]
            rns = _norm(rs)
            x_new[search], r_new[search], rn_new[search] = xs, rs, rns
            search = search[~(rns < rn[search])]
        x, r, rn = x_new, r_new, rn_new
        live &= ~(rn <= bound)
        J_inv = None
    if np.count_nonzero(live):
        raise NoConvergence(f"Newton residual {float(np.max(rn[live])):.3e} above tol {tol:.3e}")
    return x
