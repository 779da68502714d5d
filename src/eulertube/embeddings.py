"""Tubular neighborhood embeddings in normal-frame coordinates (u, c)."""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import NotInDomain
from .numerics import Array, DifferentiableMap, guarded_inverse, solve_inverse
from .submanifolds import (
    NormalFrame,
    ParametrizedSubmanifold,
    fiber_axis_samples,
    normal_exponential,
)

# Newton tolerance of TubularEmbedding.invert, which serves the comparison
# map's preimage and the pushforward field
_INVERT_TOL = 1e-12
# The seed table's fiber samples, in units of delta, at every seed base
# point.  From seeds at 0, 0.35 and 0.7 the helix's Newton residuals ran
# 1e-1, 2e-3, 2e-6, ~1e-12, the third straddling _INVERT_TOL, so 73 of a
# helix-frame cycle's 122 inversions took a fourth value call (each a frame
# jet); they lie in the inner gap 0 < |c| < 0.35 delta, where the
# reconstruction's flows start.  A seed at 0.175 takes the mean from 3.52 to
# 3.02 value calls (planar-tubes 2.005 -> 1.905); a 29-point fiber grid,
# off-axis seeds or a seed at 0.55 instead stayed at 3.52.  The extremes,
# and so chi's image box, are unchanged.
_SEED_FRACTIONS = (0.0, 0.175, 0.35, 0.7)


@dataclass
class TubularEmbedding:
    """A smooth injective map (u, c) -> ambient point, with c the coordinates
    of a normal vector in the deterministic background-metric frame, and
    its inverse.

    ``frame`` is the normal frame of N that c refers to; ``delta``, the
    certified radius, bounds |c| on the tube, the same at every base point.
    Construction builds ``invert``'s seed table at the base points
    ``seed_grid`` (G, k): seeds (u, c), c at the signed ``_SEED_FRACTIONS``
    of delta on each fiber axis, their images and guarded jacobian inverses,
    so the first Newton step evaluates nothing.  Evaluation and inversion
    take lanes (a leading axis of independent points).
    """

    map: DifferentiableMap
    frame: NormalFrame
    delta: float
    seed_grid: InitVar[Array]
    seeds: Array = field(init=False)  # (#seeds, k+m)
    seed_images: Array = field(init=False)  # (n, #seeds): image of seed s in column s
    seed_inverses: Array = field(init=False)  # (#seeds, k+m, n), NaN where the guard fails

    def __post_init__(self, U: Array):
        cs = fiber_axis_samples(self.fiber_dim, _SEED_FRACTIONS, self.delta)
        seeds = np.concatenate([np.repeat(U, len(cs), axis=0), np.tile(cs, (len(U), 1))], axis=1)
        self.seeds = np.array(sorted({tuple(np.round(s, 12)) for s in seeds}))
        self.seed_images = np.ascontiguousarray(self.map(self.seeds).T)
        self.seed_inverses = guarded_inverse(self.map.jacobian(self.seeds))

    @property
    def N(self) -> ParametrizedSubmanifold:
        return self.frame.N

    @property
    def fiber_dim(self) -> int:
        return self.N.ambient_dim - self.N.param_dim

    def __call__(self, U: Array, C: Array) -> Array:
        return self.map(np.concatenate([U, C], axis=1))

    def invert(self, X: Array) -> Array:
        """Solve psi(u, c) = x by Newton on lanes X (B, n), each lane from
        its own nearest table seed.  A seed whose jacobian fails the guard
        makes only the inversions that start from it raise
        SingularJacobian."""
        # squared distances (B, #seeds) summed over the n coordinates in
        # index order: a (B, #seeds, n) difference reduced over its short
        # last axis costs several times more
        dist2 = 0.0
        for images, x in zip(self.seed_images, X.T):
            d = images - x[:, None]
            dist2 = dist2 + d * d
        i = np.argmin(np.sqrt(dist2), axis=1)
        return solve_inverse(
            self.map, X, self.seeds[i], tol=_INVERT_TOL,
            fx0=self.seed_images[:, i].T, jac_inv0=self.seed_inverses[i],
        )


_ZERO_SECTION_TOL = 1e-10  # largest |psi(u, 0) - p(u)| validate_embedding accepts
_FIBER_FRAME_TOL = 1e-6  # largest entry of its fiber block minus the identity


def validate_embedding(frame: NormalFrame, psi: DifferentiableMap, U: Array) -> float:
    """Check the tubular-embedding invariants of the chart psi (u, c) -> x
    on a parameter grid U (G, k) of the frame's submanifold.

    Verifies that the zero section lands on N and that the fiber block of
    the jacobian, expressed in the normal frame, is the identity.  The
    grid is one lane batch; the first grid point that fails raises
    NotInDomain.  Returns the worst residual seen.
    """
    fp = frame.at(U)
    k, m = fp.J.shape[2], fp.B.shape[2]
    zero = np.concatenate([U, np.zeros((len(U), m))], axis=1)
    r0 = [float(np.linalg.norm(d)) for d in psi(zero) - fp.p]
    F = psi.jacobian(zero)[:, :, k:]
    induced = np.swapaxes(fp.B, 1, 2) @ fp.G @ F
    r1 = np.max(np.abs(induced - np.eye(m)), axis=(1, 2))
    for u, zero_r, frame_r in zip(U, r0, r1):
        if zero_r > _ZERO_SECTION_TOL:
            raise NotInDomain(f"zero section misses N at u={u} (residual {zero_r:.3e})")
        if frame_r > _FIBER_FRAME_TOL:
            raise NotInDomain(
                f"fiber differential not the identity at u={u} (residual {frame_r:.3e})"
            )
    return max([0.0, *r0, *r1.tolist()])


def fiber_norm(C: Array) -> Array:
    """|c| on lanes of fiber coordinates C (B, m)."""
    return np.sqrt((C * C).sum(axis=1))


def tube_domain(N: ParametrizedSubmanifold, radius: float) -> Callable[[Array], Array]:
    """The lane mask of the tube |c| < radius over N's parameter domain, on
    frame coordinates (B, k + m)."""
    k = N.param_dim
    return lambda UC: N.in_param_domain(UC[:, :k]) & (fiber_norm(UC[:, k:]) < radius)


def reference_embedding(frame: NormalFrame, delta: float) -> DifferentiableMap:
    """The normal-exponential chart of the frame's metric,
    ``submanifolds.normal_exponential`` restricted to the tube |c| < delta.

    Its fiber differential on the zero section is the identity because the
    exponential map's differential at zero is.
    """
    return replace(normal_exponential(frame), domain=tube_domain(frame.N, delta))
