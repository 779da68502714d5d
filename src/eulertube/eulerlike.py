"""Euler fields on bundles, the linear-approximation test, pushforwards and
flow-based reconstruction of the generating embedding."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .embeddings import TubularEmbedding
from .errors import FlowExit, NoConvergence, NotVanishing
from .metrics import MetricField
from .numerics import Array, DifferentiableMap, ode_integrate
from .submanifolds import ParametrizedSubmanifold, normal_space_basis


@dataclass(frozen=True)
class LinearApproximation:
    """Jacobian of a field vanishing on N, and its induced quotient action
    expressed in a reference normal frame."""

    u: Array
    A: Array
    induced: Array


def euler_field(x) -> Array:
    """The radial fiber field: returns the fiber coordinates themselves."""
    return np.asarray(x, dtype=float).copy()


def vanishes_on_N(
    X: DifferentiableMap,
    N: ParametrizedSubmanifold,
    grid,
    tol: float = 1e-8,
) -> Tuple[bool, float]:
    """True iff max_u |X(p(u))| over the grid is below tol."""
    worst = 0.0
    for u in grid:
        worst = max(worst, float(np.linalg.norm(X(N.point(u)))))
    return worst <= tol, worst


def linear_approximation(
    X: DifferentiableMap,
    g_ref: MetricField,
    N: ParametrizedSubmanifold,
    u,
    tol_vanish: float = 1e-6,
) -> LinearApproximation:
    """Quotient action of the jacobian of X at p(u) on the normal classes.

    The class of a normal frame vector b is sent to the class of A b; with
    a g_ref-orthonormal frame the class coordinates are B^T G A b.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    p = N.point(u)
    r = float(np.linalg.norm(X(p)))
    if r > tol_vanish:
        raise NotVanishing(f"|X(p(u))| = {r:.3e} at u={u}")
    A = X.jacobian(p)
    B = normal_space_basis(g_ref, N, u)
    G = g_ref.matrix(p)
    induced = B.T @ G @ A @ B
    return LinearApproximation(u=u, A=A, induced=induced)


def is_euler_like(
    X: DifferentiableMap,
    g_ref: MetricField,
    N: ParametrizedSubmanifold,
    grid,
    tol: float = 1e-5,
    tol_vanish: float = 1e-6,
) -> Tuple[bool, float]:
    """True iff X vanishes on N and its induced quotient action is the
    identity on every grid point; returns (verdict, max residual)."""
    ok, vres = vanishes_on_N(X, N, grid, tol=tol_vanish)
    if not ok:
        return False, vres
    worst = 0.0
    for u in grid:
        lin = linear_approximation(X, g_ref, N, u, tol_vanish=tol_vanish)
        m = lin.induced.shape[0]
        worst = max(worst, float(np.max(np.abs(lin.induced - np.eye(m)))))
    return worst <= tol, worst


def pushforward_euler(psi: TubularEmbedding, u, c) -> Array:
    """d(psi) at (u, c) applied to the fiber vector c (the Euler field)."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    c = np.atleast_1d(np.asarray(c, dtype=float))
    J = psi.map.jacobian(np.concatenate([u, c]))
    fiber = np.concatenate([np.zeros(psi.N.param_dim), c])
    return J @ fiber


def pushforward_field(
    psi: TubularEmbedding,
    invert_tol: float = 1e-12,
    domain_margin: float = 1.05,
) -> DifferentiableMap:
    """The pushforward Euler field as an ambient-coordinate oracle.

    Each evaluation inverts psi numerically at the query point and applies
    the jacobian to the fiber coordinates there.  The domain test reuses
    the last preimage when it is asked about the same point: the
    Dormand-Prince step is first-same-as-last, so the accepted state it
    tests is the stage point the field was just evaluated at.  A cold
    inversion is a pure function of x, so this one-entry memo is too.
    """
    k = psi.N.param_dim
    last = {}  # x.tobytes() -> preimage, at most one entry

    def preimage(x):
        key = x.tobytes()
        if key not in last:
            uc = psi.invert(x, tol=invert_tol)
            last.clear()
            last[key] = uc
        return last[key]

    def fn(x):
        uc = preimage(x)
        return pushforward_euler(psi, uc[:k], uc[k:])

    def in_domain(x):
        try:
            uc = preimage(np.asarray(x, dtype=float))
        except Exception:
            return False
        if psi.delta is None:
            return True
        u, c = uc[:k], uc[k:]
        return float(np.linalg.norm(c)) < domain_margin * psi.delta(u)

    n = psi.N.ambient_dim
    return DifferentiableMap(domain_dim=n, codomain_dim=n, fn=fn, domain=in_domain)


def _default_t_seq() -> Sequence[float]:
    return tuple(2.0**-i for i in range(1, 13))


def reconstruct_embedding(
    X: DifferentiableMap,
    psi0: TubularEmbedding,
    u,
    c,
    t_seq: Optional[Sequence[float]] = None,
    tol: float = 1e-6,
    flow_tol: float = 1e-11,
) -> Array:
    """Recover psi(u, c) for the unique embedding with pushforward field X.

    For each t the reference point psi0(u, t c) is transported by the flow
    of X for time -ln t; the iterates converge linearly in t and are
    Richardson-extrapolated.  Raises NoConvergence if the iterates are not
    Cauchy or the last two extrapolants disagree beyond tol, and FlowExit
    if the flow leaves the field's domain.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if t_seq is None:
        t_seq = _default_t_seq()
    ts = sorted(t_seq, reverse=True)
    if len(ts) < 3:
        raise ValueError("need at least three schedule times")
    raw = []
    for t in ts:
        y0 = psi0(u, t * c)
        traj = ode_integrate(
            lambda y: X(y), y0, -np.log(t), flow_tol, domain=X.domain
        )
        if traj.exited:
            raise FlowExit(f"flow left the domain at schedule time t={t}")
        raw.append(traj.final_state)
    diffs = [float(np.linalg.norm(b - a)) for a, b in zip(raw, raw[1:])]
    noise_floor = max(1e-8, 100.0 * flow_tol)
    for d_prev, d_next in zip(diffs, diffs[1:]):
        if d_prev > noise_floor and d_next > 0.75 * d_prev:
            raise NoConvergence(
                f"iterates not Cauchy (successive gaps {d_prev:.3e} -> {d_next:.3e})"
            )
    # first-order then second-order Richardson in t (schedule ratio 2)
    e1 = [2.0 * b - a for a, b in zip(raw, raw[1:])]
    e2 = [(4.0 * b - a) / 3.0 for a, b in zip(e1, e1[1:])]
    gap = float(np.linalg.norm(e2[-1] - e2[-2]))
    if gap > tol:
        raise NoConvergence(f"extrapolants differ by {gap:.3e} > tol {tol:.3e}")
    return e2[-1]
