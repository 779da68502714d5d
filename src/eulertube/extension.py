"""Scalar gluing profiles and the fiberwise diffeomorphism that extends
maps defined near the zero section of a vector bundle to the whole bundle.

The scalar profiles accept either floats or mpmath numbers; high-precision
input is honored throughout, which is what makes the inverse-profile round
trip verifiable to 1e-12 even at arguments of order 10^3 (the composition
is too ill-conditioned near the interval ends for double precision).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import mpmath as mp
import numpy as np

from .errors import DomainError
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


def sigma_inverse(s, dps: int = 50):
    """Inverse of sigma by bracketing bisection with Newton polish.

    Returns s identically for |s| <= 1/2.  Internally solved in mpmath at
    ``dps`` digits; the return type matches the input type.
    """
    if abs(s) <= _HALF:
        return s
    was_float = not _is_mp(s)
    with mp.workdps(dps):
        sm = mp.mpf(s)
        sign = 1 if sm > 0 else -1
        target = abs(sm)

        def f(t):
            return sigma(t) - target

        lo = mp.mpf(_HALF)
        hi = 1 - mp.mpf(2) ** -4
        for _ in range(200):
            if f(hi) > 0:
                break
            lo = hi
            hi = 1 - (1 - hi) / 4
        else:
            raise DomainError("failed to bracket sigma inverse")
        lo0, hi0 = lo, hi
        for _ in range(40):
            mid = (lo + hi) / 2
            if f(mid) > 0:
                hi = mid
            else:
                lo = mid
        t = (lo + hi) / 2
        # Newton polish until the forward residual is negligible at this
        # precision (bisection alone leaves an s-residual amplified by the
        # huge slope of sigma near 1).
        res_tol = mp.mpf(10) ** (-dps + 8) * max(mp.mpf(1), target)
        for _ in range(30):
            r = f(t)
            if abs(r) < res_tol:
                break
            t = t - r / mp.diff(sigma, t)
            if t <= lo0:
                t = lo0 + (hi0 - lo0) / 4
            elif t >= hi0:
                t = hi0 - (hi0 - lo0) / 4
        t = sign * t
    return float(t) if was_float else t


def tau(s, dps: int = 50):
    """Even positive profile with sigma_inverse(s) = tau(s) * s and
    tau == 1 on [-1/2, 1/2]; tau(s) * |s| < 1 always."""
    if abs(s) <= _HALF:
        return _one_like(s)
    return sigma_inverse(s, dps=dps) / s


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
    """Inverse fiberwise diffeomorphism: scales v' by tau(|v'|/delta(p))."""
    p = np.asarray(p, dtype=float)
    v_prime = np.asarray(v_prime, dtype=float)
    s = region.fiber_norm(p, v_prime) / float(region.delta(p))
    return p, float(tau(s)) * v_prime


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
