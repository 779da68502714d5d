"""Euler fields on bundles, the linear-approximation test, pushforwards and
flow-based reconstruction of the generating embedding."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .embeddings import TubularEmbedding
from .errors import EulertubeError, FlowExit, NoConvergence, NotVanishing
from .metrics import MetricField
from .numerics import Array, DifferentiableMap, as_lanes, ode_integrate
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


def _grid_lanes(grid, k: int) -> Array:
    """A grid of base points (a sequence of (k,) parameters) as lanes (G, k)."""
    return np.asarray(grid, dtype=float).reshape(len(grid), k)


def vanishes_on_N(
    X: DifferentiableMap,
    N: ParametrizedSubmanifold,
    grid,
    tol: float = 1e-8,
) -> Tuple[bool, float]:
    """True iff max_u |X(p(u))| over the grid is below tol; X is evaluated
    on the whole grid as one lane batch."""
    P = N.point(_grid_lanes(grid, N.param_dim))
    worst = max((float(np.linalg.norm(v)) for v in X(P)), default=0.0)
    return worst <= tol, worst


def linear_approximation(
    X: DifferentiableMap,
    g_ref: MetricField,
    N: ParametrizedSubmanifold,
    u,
    tol_vanish: float = 1e-6,
) -> LinearApproximation:
    """Quotient action of the jacobian of X at p(u) on the normal classes,
    at one base point u (k,) or lanes u (B, k), each field then with a
    leading lane axis.

    The class of a normal frame vector b is sent to the class of A b; with
    a g_ref-orthonormal frame the class coordinates are B^T G A b.  Raises
    NotVanishing at the first lane where |X(p(u))| exceeds tol_vanish.
    """
    U, single = as_lanes(u, N.param_dim)
    P = N.point(U)
    for u_b, v in zip(U, X(P)):
        r = float(np.linalg.norm(v))
        if r > tol_vanish:
            raise NotVanishing(f"|X(p(u))| = {r:.3e} at u={u_b}")
    A = X.jacobian(P)
    B = normal_space_basis(g_ref, N, U)
    induced = np.swapaxes(B, 1, 2) @ g_ref.matrix(P) @ A @ B
    if single:
        return LinearApproximation(u=U[0], A=A[0], induced=induced[0])
    return LinearApproximation(u=U, A=A, induced=induced)


def is_euler_like(
    X: DifferentiableMap,
    g_ref: MetricField,
    N: ParametrizedSubmanifold,
    grid,
    tol: float = 1e-5,
    tol_vanish: float = 1e-6,
) -> Tuple[bool, float]:
    """True iff X vanishes on N and its induced quotient action is the
    identity on every grid point; returns (verdict, max residual).  The
    grid is one lane batch."""
    ok, vres = vanishes_on_N(X, N, grid, tol=tol_vanish)
    if not ok:
        return False, vres
    lin = linear_approximation(X, g_ref, N, _grid_lanes(grid, N.param_dim), tol_vanish=tol_vanish)
    m = lin.induced.shape[-1]
    worst = float(np.max(np.abs(lin.induced - np.eye(m)), initial=0.0))
    return worst <= tol, worst


def pushforward_euler(psi: TubularEmbedding, u, c) -> Array:
    """d(psi) at (u, c) applied to the fiber vector c (the Euler field), at
    one point or on lanes u (B, k), c (B, m)."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    c = np.atleast_1d(np.asarray(c, dtype=float))
    J = psi.map.jacobian(np.concatenate([u, c], axis=-1))
    fiber = np.concatenate([np.zeros_like(u), c], axis=-1)
    return (J @ fiber[..., None])[..., 0]


def pushforward_field(
    psi: TubularEmbedding,
    invert_tol: float = 1e-12,
    domain_margin: float = 1.05,
) -> DifferentiableMap:
    """The pushforward Euler field as an ambient-coordinate oracle on lanes.

    Each evaluation inverts psi numerically at the query points (one lane
    Newton solve) and applies the jacobian to the fiber coordinates there;
    the solve's last value call was at those preimages, so the jacobian
    finds their normal frame in the frame memo.
    The domain test reuses the preimages of the last inversion for the
    points it is asked about again: the Dormand-Prince step is
    first-same-as-last, so the accepted states it tests are stage points
    the field was just evaluated at.  A lane's cold inversion is a pure
    function of its point, so this memo is too.  A lane whose inversion
    fails with an EulertubeError is outside the domain; any other exception
    is a defect and propagates.
    """
    k = psi.N.param_dim
    n = psi.N.ambient_dim
    last = {}  # x.tobytes() -> preimage, for the lanes of the last call

    def preimages(X):
        nonlocal last
        keys = [x.tobytes() for x in X]
        found = {key: last[key] for key in keys if key in last}
        new = [i for i, key in enumerate(keys) if key not in found]
        if new:
            found.update(zip([keys[i] for i in new], psi.invert(X[new], tol=invert_tol)))
        last = found
        return np.array([found[key] for key in keys])

    def fn(X):
        UC = preimages(X)
        return pushforward_euler(psi, UC[:, :k], UC[:, k:])

    def in_domain(X):
        try:
            UC = preimages(X)
        except EulertubeError:
            # some lane's inversion failed: the lanes answer one at a time
            if len(X) == 1:
                return np.zeros(1, bool)
            return np.array([in_domain(X[i : i + 1])[0] for i in range(len(X))])
        if psi.delta is None:
            return np.ones(len(X), dtype=bool)
        u, c = UC[:, :k], UC[:, k:]
        return np.sqrt((c * c).sum(axis=1)) < domain_margin * psi.delta(u)

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
    """Recover psi(u, c) for the unique embedding with pushforward field X,
    at one point (u (k,), c (m,)) or at P points (u (P, k), c (P, m)).

    For each t the reference point psi0(u, t c) is transported by the flow
    of X for time -ln t; the iterates converge linearly in t and are
    Richardson-extrapolated.  All P x len(t_seq) flows are lanes of one
    integration.  Raises NoConvergence if some point's iterates are not
    Cauchy or its last two extrapolants disagree beyond tol, and FlowExit
    if a flow leaves the field's domain.
    """
    c = np.asarray(c, dtype=float)
    single = c.ndim <= 1
    c = np.atleast_1d(c).reshape(-1, psi0.fiber_dim)
    u = np.asarray(u, dtype=float).reshape(len(c), psi0.N.param_dim)
    if t_seq is None:
        t_seq = _default_t_seq()
    ts = np.array(sorted(t_seq, reverse=True))
    if len(ts) < 3:
        raise ValueError("need at least three schedule times")
    # lane (point i, schedule time j) is row i * len(ts) + j
    U = np.repeat(u, len(ts), axis=0)
    C = (ts[None, :, None] * c[:, None, :]).reshape(len(U), -1)
    domain = None if X.domain is None else X.contains
    traj = ode_integrate(X, psi0(U, C), np.tile(-np.log(ts), len(c)), flow_tol, domain=domain)
    if traj.exited.any():
        t = ts[int(np.flatnonzero(traj.exited)[0]) % len(ts)]
        raise FlowExit(f"flow left the domain at schedule time t={t}")
    raw = traj.final_state.reshape(len(c), len(ts), -1)
    out = np.array([_extrapolate(iterates, tol, flow_tol) for iterates in raw])
    return out[0] if single else out


def _extrapolate(raw: Array, tol: float, flow_tol: float) -> Array:
    """The Cauchy test and Richardson extrapolation of one point's flow
    iterates raw[j] (schedule times halving)."""
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
