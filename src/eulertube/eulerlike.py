"""The Euler-like test, the pushforward of the Euler field through an
embedding, and flow-based reconstruction of the generating embedding."""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .embeddings import TubularEmbedding, fiber_norm
from .errors import FlowExit, NoConvergence
from .numerics import Array, DifferentiableMap, ode_integrate
from .submanifolds import FramePoint, NormalFrame


_VANISH_TOL = 1e-6  # largest |X(p(u))| of a field that vanishes on N


def vanishes_on_N(X: DifferentiableMap, P: Array) -> Tuple[bool, float, int]:
    """True iff max |X(p)| over the points P (B, n) of N is at most
    ``_VANISH_TOL``, with that maximum and the first lane reaching it (0 for
    no lanes); X is evaluated on all of P as one lane batch."""
    r = np.append(np.linalg.norm(X(P), axis=1), 0.0)  # the 0 for no lanes
    i = int(np.argmax(r))
    return bool(r[i] <= _VANISH_TOL), float(r[i]), i


def _quotient_action(X: DifferentiableMap, fp: FramePoint) -> Array:
    """The quotient action of the jacobian A of X at the frame point's
    lanes on the normal classes: the induced matrices (B, m, m) in its
    normal frame B, orthonormal under its metric G, whose class coordinates
    of A b are B^T G A b.  X itself is not evaluated."""
    A = X.jacobian(fp.p)
    return np.swapaxes(fp.B, 1, 2) @ fp.G @ A @ fp.B


def is_euler_like(
    X: DifferentiableMap, frame: NormalFrame, grid: Array, tol: float = 1e-5
) -> Tuple[bool, float]:
    """True iff X vanishes on the frame's submanifold N and its induced
    quotient action in the frame is the identity on every point of the
    grid (G, k); returns (verdict, max residual).  The grid is one lane
    batch, and X is evaluated on it once: the vanishing test's values
    decide, and the quotient action takes only X's jacobian."""
    fp = frame.at(grid)
    ok, vres, _ = vanishes_on_N(X, fp.p)
    if not ok:
        return False, vres
    induced = _quotient_action(X, fp)
    m = induced.shape[-1]
    worst = float(np.max(np.abs(induced - np.eye(m)), initial=0.0))
    return worst <= tol, worst


def pushforward_euler(psi: TubularEmbedding, U: Array, C: Array) -> Array:
    """d(psi) at (u, c) applied to the fiber vector c (the Euler field), on
    lanes U (B, k), C (B, m)."""
    J = psi.map.jacobian(np.concatenate([U, C], axis=1))
    fiber = np.concatenate([np.zeros_like(U), C], axis=1)
    return (J @ fiber[:, :, None])[:, :, 0]


# the pushforward field is defined where |c| is below this multiple of the
# certified radius delta
_DOMAIN_MARGIN = 1.05
# the field's jacobian step as a fraction of delta, below the default 1e-5:
# from delta0 3e-6 down, a 1e-5 stencil at p(u) reached past the margin (NaN)
_FIELD_STEP_PER_DELTA = 0.1


def pushforward_field(psi: TubularEmbedding) -> DifferentiableMap:
    """The pushforward Euler field as an ambient-coordinate oracle on lanes.

    Each evaluation inverts psi numerically at the query points (one lane
    Newton solve) and applies the jacobian to the fiber coordinates there;
    the solve's last value call was at those preimages, so the jacobian of
    a map whose value reads the frame jet (the helix embedding) finds it as
    the frame's last build.  The field is NaN on a lane
    whose preimage has |c| >= ``_DOMAIN_MARGIN`` delta, so a flow stops
    there.  An inversion that fails with an EulertubeError fails the
    evaluation, which the integrator then makes lane by lane; any other
    exception is a defect and propagates.
    """
    k = psi.N.param_dim
    n = psi.N.ambient_dim

    def fn(X):
        UC = psi.invert(X)
        U, C = UC[:, :k], UC[:, k:]
        out = pushforward_euler(psi, U, C)
        out[~(fiber_norm(C) < _DOMAIN_MARGIN * psi.delta)] = np.nan
        return out

    return DifferentiableMap(n, n, fn, fd_step=min(1e-5, _FIELD_STEP_PER_DELTA * psi.delta))


# The reconstruction schedule t = 2^-1 ... 2^-6.  Three Richardson levels
# leave truncation O(t_min^4), while the flow for time ln(1/t) expands
# flow error by 1/t_min; at flow_tol 1e-9 nine halvings with two levels
# sat past that optimum (circle 1.75e-7, helix 2.57e-7), and six halvings
# with three levels give 2.0e-8 and 3.1e-8 on a horizon of 4.16 instead of
# 6.24 (the helix stage's field evaluations 157 -> 109, 97 with PI step
# control).
_T_SEQ = tuple(2.0**-i for i in range(1, 7))
_RICHARDSON_LEVELS = 3
# each level takes one iterate, and the last two extrapolants are compared
_MIN_TIMES = _RICHARDSON_LEVELS + 2


def reconstruct_embedding(
    X: DifferentiableMap,
    phi: DifferentiableMap,
    U: Array,
    C: Array,
    t_seq: Sequence[float] = _T_SEQ,
    tol: float = 1e-6,
    flow_tol: float = 1e-11,
) -> Array:
    """Recover psi(u, c) for the unique embedding with pushforward field X
    at P points, lanes U (P, k), C (P, m), from the reference chart phi.

    For each t the reference point phi(u, t c) is transported by the flow
    of X for time -ln t; the iterates converge linearly in t and are
    Richardson-extrapolated to third order, so with halving times the
    truncation left is O(t_min^4), while flow error grows like
    flow_tol / t_min.  The default schedule ``_T_SEQ`` (2^-1 ... 2^-6)
    balances the two at flow_tol 1e-9.  All P x len(t_seq) flows are lanes
    of one integration, and all P limits one extrapolation.  Raises
    ValueError for a schedule of fewer than ``_MIN_TIMES`` (5) times,
    NoConvergence if some point's iterates are not Cauchy or its last two
    extrapolants disagree beyond tol, and FlowExit if a flow reaches a
    point where X is undefined (a value that is not finite, or an
    evaluation of that lane alone that fails).
    """
    ts = np.array(sorted(t_seq, reverse=True))
    if len(ts) < _MIN_TIMES:
        raise ValueError(
            f"need at least {_MIN_TIMES} schedule times for {_RICHARDSON_LEVELS} "
            f"Richardson levels, got {len(ts)}"
        )
    # lane (point i, schedule time j) is row i * len(ts) + j
    U_t = np.repeat(U, len(ts), axis=0)
    C_t = (ts[None, :, None] * C[:, None, :]).reshape(len(U_t), -1)
    start = phi(np.concatenate([U_t, C_t], axis=1))
    traj = ode_integrate(X, start, np.tile(-np.log(ts), len(C)), flow_tol)
    if traj.exited.any():
        t = ts[int(np.flatnonzero(traj.exited)[0]) % len(ts)]
        raise FlowExit(f"flow left the domain at schedule time t={t}")
    return _extrapolate(traj.final_state.reshape(len(C), len(ts), -1), tol, flow_tol)


def _extrapolate(raw: Array, tol: float, flow_tol: float) -> Array:
    """The Cauchy test and Richardson extrapolation of P points' flow
    iterates raw (P, T, n) at T halving schedule times: levels of order 1,
    2 and 3 in t, e_l[j] = (2^l e_{l-1}[j+1] - e_{l-1}[j]) / (2^l - 1), and
    the gap between the last two third-level extrapolants against tol.
    Returns the limits (P, n); the first point that fails raises
    NoConvergence."""
    diffs = np.linalg.norm(np.diff(raw, axis=1), axis=2)
    d_prev, d_next = diffs[:, :-1], diffs[:, 1:]
    torn = (d_prev > max(1e-8, 100.0 * flow_tol)) & (d_next > 0.75 * d_prev)
    e = raw
    for level in range(1, _RICHARDSON_LEVELS + 1):
        w = 2.0**level
        e = (w * e[:, 1:] - e[:, :-1]) / (w - 1.0)
    gap = np.linalg.norm(e[:, -1] - e[:, -2], axis=1)
    bad = np.flatnonzero(torn.any(axis=1) | (gap > tol))
    if len(bad):
        i = bad[0]
        if torn[i].any():
            j = np.flatnonzero(torn[i])[0]
            raise NoConvergence(
                f"iterates of point {i} not Cauchy (successive gaps "
                f"{d_prev[i, j]:.3e} -> {d_next[i, j]:.3e})"
            )
        raise NoConvergence(f"extrapolants of point {i} differ by {gap[i]:.3e} > tol {tol:.3e}")
    return e[:, -1]
