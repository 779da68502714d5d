"""Tubular neighborhood embeddings in normal-frame coordinates (u, c)."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import NotInDomain
from .numerics import Array, DifferentiableMap, guarded_inverse, solve_inverse
from .submanifolds import (
    NormalFrame,
    ParametrizedSubmanifold,
    RadiusFunction,
    normal_exponential,
)


@dataclass
class TubularEmbedding:
    """A smooth injective map (u, c) -> ambient point, with c the coordinates
    of a normal vector in the deterministic background-metric frame.

    ``frame`` is the normal frame of N that c refers to; ``delta`` bounds
    |c| on the certified tube.  Inversion is Newton iteration seeded from
    the nearest entry of a precomputed table of seeds, their images and
    the guarded inverses of the jacobian there, so the first Newton step
    evaluates nothing.  Evaluation and inversion take one point or lanes
    (a leading axis of independent points).
    """

    map: DifferentiableMap
    frame: NormalFrame
    delta: Optional[RadiusFunction] = None
    seeds: Optional[Array] = None  # (#seeds, k+m)
    seed_images: Optional[Array] = None  # (#seeds, n)
    seed_inverses: Optional[Array] = None  # (#seeds, k+m, n), NaN where the guard fails

    @property
    def N(self) -> ParametrizedSubmanifold:
        return self.frame.N

    @property
    def fiber_dim(self) -> int:
        return self.N.ambient_dim - self.N.param_dim

    def __call__(self, u, c) -> Array:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        c = np.atleast_1d(np.asarray(c, dtype=float))
        return self.map(np.concatenate([u, c], axis=-1))

    def build_seed_table(self, u_grid, c_fractions=(0.0, 0.35, 0.7)) -> None:
        k, m = self.N.param_dim, self.fiber_dim
        seeds = []
        for u in u_grid:
            u = np.atleast_1d(np.asarray(u, dtype=float))
            d = self.delta(u) if self.delta is not None else 1.0
            for j in range(m):
                for frac in c_fractions:
                    for sign in (1.0, -1.0):
                        c = np.zeros(m)
                        c[j] = sign * frac * d
                        seeds.append(np.concatenate([u, c]))
        uniq = {tuple(np.round(s, 12)) for s in seeds}
        seeds = [np.array(s) for s in sorted(uniq)]
        self.seeds = np.array(seeds)
        self.seed_images = self.map(self.seeds)
        self.seed_inverses = guarded_inverse(self.map.jacobian(self.seeds))

    def invert(self, x, tol: float = 1e-12) -> Array:
        """Solve psi(u, c) = x by Newton from the nearest table seed, for
        one point x (n,) or lanes (B, n), each from its own nearest seed.
        A seed whose jacobian fails the guard makes only the inversions
        that start from it raise SingularJacobian."""
        x = np.asarray(x, dtype=float)
        if self.seeds is None:
            raise RuntimeError("seed table not built; call build_seed_table first")
        d = self.seed_images - x[..., None, :]
        i = np.argmin(np.sqrt((d * d).sum(axis=-1)), axis=-1)
        return solve_inverse(
            self.map, x, self.seeds[i], tol=tol,
            fx0=self.seed_images[i], jac_inv0=self.seed_inverses[i],
        )


def validate_embedding(
    psi: TubularEmbedding,
    u_grid,
    zero_tol: float = 1e-10,
    frame_tol: float = 1e-6,
) -> float:
    """Check the tubular-embedding invariants on a parameter grid.

    Verifies that the zero section lands on N and that the fiber block of
    the jacobian, expressed in the embedding's normal frame, is the
    identity.  The grid is one lane batch; the first grid point that fails
    raises NotInDomain.  Returns the worst residual seen.
    """
    k, m = psi.N.param_dim, psi.fiber_dim
    U = np.asarray(u_grid, dtype=float).reshape(len(u_grid), k)
    fp = psi.frame.at(U)
    zero = np.concatenate([U, np.zeros((len(U), m))], axis=1)
    r0 = [float(np.linalg.norm(d)) for d in psi.map(zero) - fp.p]
    F = psi.map.jacobian(zero)[:, :, k:]
    induced = np.swapaxes(fp.B, 1, 2) @ psi.frame.g.matrix(fp.p) @ F
    r1 = np.max(np.abs(induced - np.eye(m)), axis=(1, 2))
    for u, zero_r, frame_r in zip(U, r0, r1):
        if zero_r > zero_tol:
            raise NotInDomain(f"zero section misses N at u={u} (residual {zero_r:.3e})")
        if frame_r > frame_tol:
            raise NotInDomain(
                f"fiber differential not the identity at u={u} (residual {frame_r:.3e})"
            )
    return max([0.0, *r0, *r1.tolist()])


def reference_embedding(frame: NormalFrame, delta: RadiusFunction) -> TubularEmbedding:
    """The normal-exponential embedding of the frame's metric: the chart of
    ``submanifolds.normal_exponential`` on the tube |c| < delta(u).

    Its fiber differential on the zero section is the identity because the
    exponential map's differential at zero is.
    """
    N = frame.N
    k = N.param_dim

    def in_domain(UC):
        u, c = UC[:, :k], UC[:, k:]
        return N.in_param_domain(u) & (np.sqrt((c * c).sum(axis=1)) < delta(u))

    chart = replace(normal_exponential(frame), domain=in_domain)
    return TubularEmbedding(map=chart, frame=frame, delta=delta)
