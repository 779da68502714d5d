"""Gluing profiles on lanes and the fiberwise diffeomorphism that extends
maps defined near the zero section of a vector bundle to the whole bundle.

The profiles (rho, eta, sigma and, with it, its closed-form derivative
sigma') take floats as lanes, a float array of any shape with one
float as a batch of one, or one mpmath number; high-precision input is
honored throughout, which is what makes the inverse-profile round trip
verifiable to 1e-12 even at arguments of order 10^3 (the composition is too
ill-conditioned near the interval ends for double precision).  The inverse
takes lanes of targets: the double-precision seeds of all of them come from
lane Newton steps in double followed by a walk of one ulp a pass to the
adjacent doubles that bracket each root, about ten lane passes whatever the
batch, and each target then needs only Newton steps at high precision: the
seed is good to about 1e-16, and each step squares the error.  On the
plateau |t| >= 3/4, where rho == 1, an mpf argument skips the bump's
exponentials.  The bundle maps take lanes of base points and fiber vectors
and invert the profile for all of them at once.

mpmath is imported by the high-precision paths only (an mpf argument, or
sigma_inverse's Newton polish), so float lanes never load it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import DomainError, NoConvergence
from .numerics import Array

_HALF = 0.5
_PLATEAU = 0.75  # rho == 1 for |t| >= 3/4
_EDGE = 1 - 2.0**-53  # the last double below 1


def _is_mp(t) -> bool:
    # no mpf exists before mpmath is imported
    mp = sys.modules.get("mpmath")
    return mp is not None and isinstance(t, mp.mpf)


def _sqrt(t):
    if _is_mp(t):
        import mpmath as mp

        return mp.sqrt(t)
    return np.sqrt(t)


def _open_interval(t):
    """t as lanes (a float array) or as one mpf, once every |t| < 1."""
    if _is_mp(t):
        outside = abs(t) >= 1
    else:
        t = np.asarray(t, dtype=float)
        outside = (np.abs(t) >= 1).any()
    if outside:
        raise DomainError(f"|t| = {np.max(abs(t))} not < 1")
    return t


def _bump(x):
    """The smoothstep S built from exp(-1/x) and its derivative, as (S, S'):
    S is 0 for x <= 0, 1 for x >= 1, strictly increasing between, flat to
    infinite order at both ends.

    An mpf x is one point; anything else is lanes, and the exponentials are
    evaluated on the lanes inside (0, 1) only (a NaN lane counts as inside
    and stays NaN).
    """
    if _is_mp(x):
        import mpmath as mp

        if x <= 0 or x >= 1:
            return (mp.mpf(1) if x >= 1 else mp.mpf(0)), mp.mpf(0)
        return _bump_inside(x, mp.exp(-1 / x), mp.exp(-1 / (1 - x)))
    x = np.asarray(x, dtype=float)
    S = np.where(x >= 1, 1.0, 0.0)
    dS = np.zeros(x.shape)
    inside = ~((x <= 0) | (x >= 1))
    if inside.any():
        xi = x[inside]
        S[inside], dS[inside] = _bump_inside(xi, np.exp(-1 / xi), np.exp(-1 / (1 - xi)))
    return S[()], dS[()]


def _bump_inside(x, a, b):
    """S = a / (a+b) and S' = a b (1/x^2 + 1/(1-x)^2) / (a+b)^2 on (0, 1),
    from a = exp(-1/x) and b = exp(-1/(1-x))."""
    return a / (a + b), a * b * (1 / (x * x) + 1 / ((1 - x) * (1 - x))) / ((a + b) * (a + b))


def rho(t):
    """Smooth even plateau function: 0 on [-1/2, 1/2], 1 for |t| >= 3/4,
    strictly increasing in between."""
    return _rho(_open_interval(t))


def eta(t):
    """rho(t)/sqrt(1 - t^2) + 1: the even positive profile with eta == 1 on
    [-1/2, 1/2]."""
    return _eta(_open_interval(t))


def sigma(t):
    """eta(t) * t: odd diffeomorphism from (-1, 1) onto the line with
    sigma(t) = t on [-1/2, 1/2] and derivative >= 1 everywhere."""
    t = _open_interval(t)
    return _eta(t) * t


# rho and eta on a t already checked to lie in (-1, 1): sigma checks once,
# not once a layer (a check costs a few numpy calls a lane batch)
def _rho(t):
    return _step(t)[0]


def _step(t):
    """The bump step at 4(|t| - 1/2) and its derivative, (S, S').  One mpf t
    on the plateau |t| >= 3/4 skips the exponentials and gives (1, None), S'
    being 0 there: (|t| - 1/2) * 4 is exact for |t| in [1/2, 1], so it is
    >= 1 exactly when |t| >= 3/4, and the values stay bitwise the bump's."""
    if _is_mp(t) and abs(t) >= _PLATEAU:
        import mpmath as mp

        return mp.mpf(1), None
    return _bump((abs(t) - _HALF) * 4)


def _eta(t):
    return _rho(t) / _sqrt(1 - t * t) + 1


def _sigma_and_prime(t):
    """(sigma(t), sigma'(t)) from one evaluation of the bump step's two
    exponentials and of sqrt(1 - t^2); sigma(t) is bitwise ``sigma``'s.

    sigma' = eta + t eta' with eta' = rho'/sqrt(u) + rho t/u^(3/2),
    u = 1 - t^2 and t rho'(t) = 4 |t| S'(4(|t| - 1/2)) for the bump step S,
    which collects to 1 + rho/u^(3/2) + 4 |t| S'/sqrt(u).
    """
    t = _open_interval(t)
    S, dS = _step(t)
    u = 1 - t * t
    root = _sqrt(u)
    slope = 1 + S / (u * root)
    if dS is not None:
        slope = slope + 4 * abs(t) * dS / root
    return (S / root + 1) * t, slope


_SIGMA_EDGE = float(sigma(_EDGE))
_SIGMA_PLATEAU = float(sigma(_PLATEAU))
_BUMP_START = (_PLATEAU - _HALF) / (_SIGMA_PLATEAU - _HALF)  # t's secant over the bump


def sigma_inverse(s, dps: int = 50):
    """Inverse of sigma for one target or lanes of targets (a sequence or a
    1-d array): double-precision seeds for all targets at once, each then
    polished by Newton with the closed-form sigma' at ``dps`` digits.

    Returns s identically where |s| <= 1/2.  The seeds are the adjacent
    doubles that bracket each root in double: lane Newton steps (in
    w = t / sqrt(1 - t^2) on the plateau, in t on the bump) come within a
    few ulps, then a walk of one ulp a pass over the targets still open
    finds the pair; past the last double below 1 a target's bracket goes on
    at ``dps`` digits and its end is the seed.  Newton stops once
    |sigma(t) - |s|| < 10^(8 - dps) max(1, |s|), or once its step is a few
    units in the last digit: beyond |s| ~ 3e4 at 50 digits no dps-digit t
    meets that tolerance.  A step leaving the bracket that the residual signs narrow
    from (1/2, 1) is replaced by the bracket's midpoint.

    Each result's type matches its target's; a float result is the double
    nearest the inverse and lies in (-1, 1) for every finite s.  Raises
    DomainError for a non-finite target and for an mpf target whose inverse
    lies too close to 1 for ``dps`` digits: when Newton stops on its step
    size with sigma(t) missing |s| by more than both the residual tolerance
    and a relative 2^-52, an mpf result would be worse than a double and
    than the tolerance ``dps`` asks for.
    """
    import mpmath as mp

    S = np.asarray(s)
    if S.dtype != object:
        S = S.astype(float)
    lanes = S.reshape(-1)
    out = lanes.copy()
    far = [i for i, x in enumerate(lanes) if not abs(x) <= _HALF]
    for i in far:
        if not mp.isfinite(lanes[i]):
            raise DomainError(f"sigma inverse of {lanes[i]} is undefined")
    with mp.workdps(dps):
        targets = [abs(mp.mpf(lanes[i])) for i in far]
        lo, hi = _double_seeds(np.array([float(x) for x in targets]))
        # the constants of every target's Newton, made once a call
        consts = (mp.mpf(10) ** (-dps + 8), 4 * mp.eps, mp.mpf(_HALF), mp.mpf(1))
        for j, i in enumerate(far):
            out[i] = _newton(lanes[i], targets[j], lo[j], hi[j], dps, consts)
    return out.reshape(S.shape)[()]


def _double_seeds(approx: Array) -> Tuple[Array, Array]:
    """Brackets lo < t <= hi of the inverses of the targets approx (B,),
    all > 1/2: the adjacent doubles with sigma(lo) <= approx < sigma(hi)
    in double, the pair a bisection finds while double sigma is
    nondecreasing.  On the plateau it is, every operation of it being a
    correctly rounded monotone one; on the bump no decrease between
    adjacent doubles has been seen.  Newton steps in double come within a few units in the last place
    of the root, then a walk of one ulp a pass finds the pair; each pass
    evaluates sigma once on the targets still open.  A target at or past
    sigma(1 - 2^-53) gets (1 - 2^-53, 1), the last doubles below and at 1.
    """
    approx = np.asarray(approx, dtype=float)
    lo, hi = np.full(len(approx), _EDGE), np.ones(len(approx))
    near = np.flatnonzero(approx < _SIGMA_EDGE)
    s = approx[near]
    t = _newton_seeds(s)
    up = ~(sigma(t) > s)  # the pair lies above t
    end = np.where(up, 1.0, 0.0)
    nxt = t.copy()
    open_ = np.arange(len(s))
    while len(open_):
        nxt[open_] = np.nextafter(t[open_], end[open_])
        walking = open_[(sigma(nxt[open_]) > s[open_]) != up[open_]]
        t[walking] = nxt[walking]
        open_ = walking
    lo[near], hi[near] = np.where(up, t, nxt), np.where(up, nxt, t)
    return lo, hi


def _newton_seeds(s: Array) -> Array:
    """Doubles within a few ulps of the inverses of the targets
    1/2 < s < sigma(1 - 2^-53), each lane stepped by Newton until its step
    is about an ulp.  On the plateau (s >= sigma(3/4)) the steps work in
    w = t / sqrt(1 - t^2), where sigma = w + w / sqrt(1 + w^2) is well
    conditioned and w lies in (s - 1, s); on the bump they work in t on
    [1/2, 3/4] with the closed-form sigma'.  A step leaving the bracket
    that the residual signs narrow is replaced by its midpoint.
    """
    flat = s >= _SIGMA_PLATEAU
    x = np.where(flat, s - 1, _HALF + (s - _HALF) * _BUMP_START)
    lo, hi = np.where(flat, s - 1, _HALF), np.where(flat, s, _PLATEAU)
    open_ = np.arange(len(s))
    while len(open_):
        xo, fo = x[open_], flat[open_]
        value, slope = np.empty(len(xo)), np.empty(len(xo))
        if fo.any():
            value[fo], slope[fo] = _plateau_sigma_in_w(xo[fo])
        if not fo.all():
            value[~fo], slope[~fo] = _sigma_and_prime(xo[~fo])
        r = value - s[open_]
        above = r > 0
        hi[open_[above]] = xo[above]
        lo[open_[~above]] = xo[~above]
        step = r / slope
        nx = xo - step
        miss = ~((lo[open_] <= nx) & (nx <= hi[open_]))
        nx[miss] = (lo[open_[miss]] + hi[open_[miss]]) / 2
        x[open_] = nx
        open_ = open_[~(np.abs(step) <= 2.0**-51 * xo)]
    return np.minimum(np.where(flat, x / np.sqrt(1 + x * x), x), _EDGE)


def _plateau_sigma_in_w(w: Array) -> Tuple[Array, Array]:
    """sigma and dsigma/dw on lanes of w = t / sqrt(1 - t^2) on the plateau."""
    q = np.sqrt(1 + w * w)
    return w + w / q, 1 + 1 / (q * q * q)


def _newton(s, target, lo: float, hi: float, dps: int, consts):
    """The inverse of one target s (|s| = target > 1/2, at ``dps`` digits)
    from its double bracket (lo, hi], in s's type; ``consts`` holds
    10^(8 - dps), 4 eps and the mpf 1/2 and 1 at ``dps`` digits."""
    import mpmath as mp

    rel_tol, step_tol, half, one = consts

    was_float = not _is_mp(s)
    if hi == 1:
        # the double bracket reached 1: a float target's inverse rounds to
        # the last double below 1, an mpf one's bracket goes on
        if was_float:
            return math.copysign(lo, s)
        hi = 1 - (1 - mp.mpf(lo)) / 2
        while hi < 1 and not sigma(hi) > target:
            hi = 1 - (1 - hi) / 2
    t, lo, hi = mp.mpf(hi), half, one
    if t == 1:
        raise DomainError(f"sigma inverse of {s} is not representable at {dps} digits")
    res_tol = rel_tol * max(one, target)
    for _ in range(30):
        value, slope = _sigma_and_prime(t)
        r = value - target
        if abs(r) < res_tol:
            break
        if r > 0:
            hi = t
        else:
            lo = t
        step = r / slope
        t = t - step
        if abs(step) <= step_tol:
            # too close to 1 for dps digits to resolve 1 - t, sigma(t)
            # can miss |s| by more than both the residual tolerance and a
            # double's rounding; such a t is no inverse
            miss_tol = max(res_tol, target * 2.0**-52)
            if not was_float and abs(sigma(t) - target) > miss_tol:
                raise DomainError(f"sigma inverse of {s} is not representable at {dps} digits")
            break
        if not lo < t < hi:
            t = (lo + hi) / 2
    else:
        raise NoConvergence(f"sigma inverse of {s}: no convergence at {dps} digits")
    if was_float:
        return math.copysign(float(t), s)
    return t if s > 0 else -t


def tau(s, dps: int = 50):
    """Even positive profile with sigma_inverse(s) = tau(s) * s and
    tau == 1 on [-1/2, 1/2]; tau(s) * |s| < 1 always.  Takes one mpf or
    floats as lanes."""
    if _is_mp(s):
        import mpmath as mp

        return mp.mpf(1) if abs(s) <= _HALF else sigma_inverse(s, dps=dps) / s
    s = np.asarray(s, dtype=float)
    q = np.ones(s.shape)
    far = ~(np.abs(s) <= _HALF)
    if far.any():
        q[far] = sigma_inverse(s[far], dps=dps) / s[far]
    # the quotient of the last double below 1 by |s| can round up
    return np.where(q * np.abs(s) >= 1, np.nextafter(q, 0.0), q)[()]


@dataclass(frozen=True)
class BundleRegion:
    """The radius-delta tube W of a vector bundle with a fiberwise inner
    product over a coordinate base; its half-radius core W' is where the
    fiberwise diffeomorphism is the identity.

    ``bundle_metric`` and ``delta`` take lanes of base points p (B, d) and
    return (B, r, r) SPD matrices and (B,) radii, r the fiber rank; so do
    this module's bundle maps, with fiber vectors v (B, r).
    """

    bundle_metric: Callable[[Array], Array]
    delta: Callable[[Array], Array]

    def fiber_norm(self, P: Array, V: Array) -> Array:
        """|v|_g on lanes, (B,)."""
        Gv = (V[:, None, :] @ np.asarray(self.bundle_metric(P), dtype=float))[:, 0]
        return np.sqrt((Gv[:, None, :] @ V[:, :, None])[:, 0, 0])


def bundle_diffeo(region: BundleRegion, P: Array, V: Array) -> Tuple[Array, Array]:
    """Fiberwise diffeomorphism from the tube W onto the whole bundle:
    scales v by eta(|v|/delta(p)).  Identity on the half-radius core W'."""
    t = region.fiber_norm(P, V) / region.delta(P)
    if np.any(t >= 1.0):
        raise DomainError(f"|v|_g = {np.max(t):.6f} * delta(p) not inside the tube")
    return P, eta(t)[:, None] * V


def bundle_diffeo_inverse(region: BundleRegion, P: Array, V: Array) -> Tuple[Array, Array]:
    """Inverse fiberwise diffeomorphism: scales v' by tau(|v'|/delta(p)).

    Beyond |v'| ~ 1e8 delta(p) the image lies within rounding of the tube's
    boundary; on such lanes the scale then steps down by units in the last
    place until the image is strictly inside, i.e. in the domain of
    bundle_diffeo.
    """
    delta = region.delta(P)
    scale = tau(region.fiber_norm(P, V) / delta)
    edge = np.flatnonzero(region.fiber_norm(P, scale[:, None] * V) / delta >= 1.0)
    while len(edge):
        scale[edge] = np.nextafter(scale[edge], 0.0)
        norm = region.fiber_norm(P[edge], scale[edge, None] * V[edge])
        edge = edge[norm / delta[edge] >= 1.0]
    return P, scale[:, None] * V


def extend_map(F: Callable[[Array, Array], Array], region: BundleRegion):
    """Extend a map F on lanes (p (B, d), v (B, r) -> (B, ...)),
    defined on an open set containing the closed tube W, to the whole
    bundle by composing with the inverse fiberwise diffeomorphism.  The
    extension takes lanes too.

    The extension agrees with F exactly (bitwise) on the half-radius core,
    where the diffeomorphism is the identity.
    """
    return lambda P, V: F(*bundle_diffeo_inverse(region, P, V))
