"""Scalar gluing profiles and the fiberwise diffeomorphism that extends
maps defined near the zero section of a vector bundle to the whole bundle.

The scalar profiles, and the closed-form derivative sigma_prime, accept
either floats or mpmath numbers; high-precision input is honored
throughout, which is what makes the inverse-profile round trip verifiable
to 1e-12 even at arguments of order 10^3 (the composition is too
ill-conditioned near the interval ends for double precision).  The inverse
takes a double-precision seed and needs only Newton steps at high
precision: the seed is good to about 1e-16, and each step squares the
error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import mpmath as mp
import numpy as np

from .errors import DomainError, NoConvergence
from .numerics import Array, DifferentiableMap

_HALF = 0.5


def _is_mp(t) -> bool:
    return isinstance(t, mp.mpf)


def _exp(t):
    return mp.exp(t) if _is_mp(t) else math.exp(t)


def _sqrt(t):
    return mp.sqrt(t) if _is_mp(t) else math.sqrt(t)


def _zero_like(t):
    return mp.mpf(0) if _is_mp(t) else 0.0


def _one_like(t):
    return mp.mpf(1) if _is_mp(t) else 1.0


def _bump_step(x):
    """Standard smoothstep built from exp(-1/x): 0 for x<=0, 1 for x>=1,
    strictly increasing between, flat to infinite order at both ends."""
    if x <= 0:
        return _zero_like(x)
    if x >= 1:
        return _one_like(x)
    a = _exp(-1 / x)
    b = _exp(-1 / (1 - x))
    return a / (a + b)


def phi_stereo(t):
    """t / sqrt(1 - t^2): increasing bijection from (-1, 1) onto the line."""
    if abs(t) >= 1:
        raise DomainError(f"|t| = {abs(t)} not < 1")
    return t / _sqrt(1 - t * t)


def rho(t):
    """Smooth even plateau function: 0 on [-1/2, 1/2], 1 for |t| >= 3/4,
    strictly increasing in between."""
    if abs(t) >= 1:
        raise DomainError(f"|t| = {abs(t)} not < 1")
    return _bump_step((abs(t) - _HALF) * 4)


def eta(t):
    """rho(t)/sqrt(1 - t^2) + 1: the even positive profile with eta == 1 on
    [-1/2, 1/2]."""
    if abs(t) >= 1:
        raise DomainError(f"|t| = {abs(t)} not < 1")
    return rho(t) / _sqrt(1 - t * t) + 1


def sigma(t):
    """eta(t) * t: odd diffeomorphism from (-1, 1) onto the line with
    sigma(t) = t on [-1/2, 1/2] and derivative >= 1 everywhere."""
    if abs(t) >= 1:
        raise DomainError(f"|t| = {abs(t)} not < 1")
    return eta(t) * t


def _bump_step_prime(x):
    """Derivative of _bump_step: a b (1/x^2 + 1/(1-x)^2) / (a+b)^2 with
    a = exp(-1/x), b = exp(-1/(1-x)) on (0, 1), and 0 elsewhere."""
    if x <= 0 or x >= 1:
        return _zero_like(x)
    a = _exp(-1 / x)
    b = _exp(-1 / (1 - x))
    return a * b * (1 / (x * x) + 1 / ((1 - x) * (1 - x))) / ((a + b) * (a + b))


def sigma_prime(t):
    """Closed-form derivative of sigma, >= 1 everywhere.

    eta + t eta' with eta' = rho'/sqrt(u) + rho t/u^(3/2), u = 1 - t^2 and
    t rho'(t) = 4 |t| S'(4(|t| - 1/2)) for the bump step S, which collects
    to 1 + rho/u^(3/2) + 4 |t| S'/sqrt(u).
    """
    if abs(t) >= 1:
        raise DomainError(f"|t| = {abs(t)} not < 1")
    u = 1 - t * t
    root = _sqrt(u)
    return 1 + rho(t) / (u * root) + 4 * abs(t) * _bump_step_prime((abs(t) - _HALF) * 4) / root


def sigma_inverse(s, dps: int = 50):
    """Inverse of sigma: a double-precision seed polished by Newton with
    the closed-form sigma' at ``dps`` digits.

    Returns s identically for |s| <= 1/2.  The seed brackets the root
    between points 1 - 2^-k and bisects in double down to adjacent doubles;
    past the last double below 1 the bracket goes on at ``dps`` digits and
    its end is the seed.  Newton stops once |sigma(t) - |s|| <
    10^(8 - dps) max(1, |s|), or once its step is a few units in the last
    digit: beyond |s| ~ 3e4 at 50 digits no dps-digit t meets that
    tolerance.  A step leaving the bracket that the residual signs narrow
    from (1/2, 1) is replaced by the bracket's midpoint.

    The return type matches the input type; a float result is the double
    nearest the inverse and lies in (-1, 1) for every finite s.  Raises
    DomainError for a non-finite s and for an mpf s whose inverse lies
    too close to 1 for ``dps`` digits: when Newton stops on its step size
    with sigma(t) missing |s| by more than both the residual tolerance and
    a relative 2^-52, an mpf result would be worse than a double and than
    the tolerance ``dps`` asks for.
    """
    if abs(s) <= _HALF:
        return s
    if not mp.isfinite(s):
        raise DomainError(f"sigma inverse of {s} is undefined")
    was_float = not _is_mp(s)
    with mp.workdps(dps):
        target = abs(mp.mpf(s))
        approx = float(target)

        def above(t):
            # sigma(t) > |s| in t's own precision
            return sigma(t) > (target if _is_mp(t) else approx)

        lo, hi = _HALF, 1 - 2.0**-4
        while not above(hi):
            lo, hi = hi, 1 - (1 - hi) / 2
            if hi == 1 and not _is_mp(lo):
                if was_float:
                    return math.copysign(lo, s)
                hi = 1 - (1 - mp.mpf(lo)) / 2
            if hi == 1:
                break
        while lo < (mid := float((lo + hi) / 2)) < hi:
            if above(mid):
                hi = mid
            else:
                lo = mid

        t, lo, hi = mp.mpf(hi), mp.mpf(_HALF), mp.mpf(1)
        if t == 1:
            raise DomainError(f"sigma inverse of {s} is not representable at {dps} digits")
        res_tol = mp.mpf(10) ** (-dps + 8) * max(mp.mpf(1), target)
        for _ in range(30):
            r = sigma(t) - target
            if abs(r) < res_tol:
                break
            if r > 0:
                hi = t
            else:
                lo = t
            step = r / sigma_prime(t)
            t = t - step
            if abs(step) <= 4 * mp.eps:
                # too close to 1 for dps digits to resolve 1 - t, sigma(t)
                # can miss |s| by more than both the residual tolerance and a
                # double's rounding; such a t is no inverse
                miss_tol = max(res_tol, target * 2.0**-52)
                if not was_float and abs(sigma(t) - target) > miss_tol:
                    raise DomainError(
                        f"sigma inverse of {s} is not representable at {dps} digits"
                    )
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
    tau == 1 on [-1/2, 1/2]; tau(s) * |s| < 1 always."""
    if abs(s) <= _HALF:
        return _one_like(s)
    q = sigma_inverse(s, dps=dps) / s
    if not _is_mp(s) and q * abs(s) >= 1:
        # the quotient of the last double below 1 by |s| can round up
        q = math.nextafter(q, 0.0)
    return q


@dataclass(frozen=True)
class BundleRegion:
    """The radius-delta tube W (and its half-radius core W') of a vector
    bundle with a fiberwise inner product over a coordinate base."""

    base_dim: int
    rank: int
    bundle_metric: Callable[[Array], Array]  # p -> (rank, rank) SPD matrix
    delta: Callable[[Array], float]

    def fiber_norm(self, p, v) -> float:
        v = np.asarray(v, dtype=float)
        return float(np.sqrt(v @ np.asarray(self.bundle_metric(p), float) @ v))

    def in_W_prime(self, p, v) -> bool:
        return self.fiber_norm(p, v) < 0.5 * float(self.delta(p))


def bundle_diffeo(region: BundleRegion, p, v) -> Tuple[Array, Array]:
    """Fiberwise diffeomorphism from the tube W onto the whole bundle:
    scales v by eta(|v|/delta(p)).  Identity on the half-radius core W'."""
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    t = region.fiber_norm(p, v) / float(region.delta(p))
    if t >= 1.0:
        raise DomainError(f"|v|_g = {t:.6f} * delta(p) not inside the tube")
    return p, float(eta(t)) * v


def bundle_diffeo_inverse(region: BundleRegion, p, v_prime) -> Tuple[Array, Array]:
    """Inverse fiberwise diffeomorphism: scales v' by tau(|v'|/delta(p)).

    Beyond |v'| ~ 1e8 delta(p) the image lies within rounding of the tube's
    boundary; the scale then steps down by units in the last place until
    the image is strictly inside, i.e. in the domain of bundle_diffeo.
    """
    p = np.asarray(p, dtype=float)
    v_prime = np.asarray(v_prime, dtype=float)
    delta = float(region.delta(p))
    scale = float(tau(region.fiber_norm(p, v_prime) / delta))
    while region.fiber_norm(p, scale * v_prime) / delta >= 1.0:
        scale = math.nextafter(scale, 0.0)
    return p, scale * v_prime


def extend_map(F: Callable[[Array, Array], Array], region: BundleRegion):
    """Extend a map defined on an open set containing the closed tube W to
    the whole bundle by composing with the inverse fiberwise diffeomorphism.

    The extension agrees with F exactly (bitwise) on the half-radius core,
    where the diffeomorphism is the identity.
    """

    def F_tilde(p, v):
        p_back, v_back = bundle_diffeo_inverse(region, p, v)
        return F(p_back, v_back)

    return F_tilde
