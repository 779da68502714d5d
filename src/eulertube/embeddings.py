"""Tubular neighborhood embeddings in normal-frame coordinates (u, c)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NotInDomain
from .metrics import exp_map
from .numerics import Array, DifferentiableMap, solve_inverse
from .submanifolds import NormalFrame, ParametrizedSubmanifold, RadiusFunction


@dataclass
class TubularEmbedding:
    """A smooth injective map (u, c) -> ambient point, with c the coordinates
    of a normal vector in the deterministic background-metric frame.

    ``frame`` is the normal frame of N that c refers to; ``delta`` bounds
    |c| on the certified tube.  Inversion is Newton iteration seeded from
    the nearest entry of a precomputed forward table.
    """

    map: DifferentiableMap
    frame: NormalFrame
    delta: Optional[RadiusFunction] = None
    seeds: Optional[Array] = None  # (#seeds, k+m)
    seed_images: Optional[Array] = None  # (#seeds, n)

    @property
    def N(self) -> ParametrizedSubmanifold:
        return self.frame.N

    @property
    def fiber_dim(self) -> int:
        return self.N.ambient_dim - self.N.param_dim

    def __call__(self, u, c) -> Array:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        c = np.atleast_1d(np.asarray(c, dtype=float))
        return self.map(np.concatenate([u, c]))

    def call_uc(self, uc) -> Array:
        return self.map(uc)

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
        self.seed_images = np.array([self.map(s) for s in seeds])

    def invert(self, x, tol: float = 1e-12) -> Array:
        """Solve psi(u, c) = x by Newton from the nearest table seed."""
        x = np.asarray(x, dtype=float)
        if self.seeds is None:
            raise RuntimeError("seed table not built; call build_seed_table first")
        i = int(np.argmin(np.linalg.norm(self.seed_images - x, axis=1)))
        return solve_inverse(self.map, x, self.seeds[i], tol=tol)


def validate_embedding(
    psi: TubularEmbedding,
    u_grid,
    zero_tol: float = 1e-10,
    frame_tol: float = 1e-6,
) -> float:
    """Check the tubular-embedding invariants on a parameter grid.

    Verifies that the zero section lands on N and that the fiber block of
    the jacobian, expressed in the embedding's normal frame, is the
    identity.
    Returns the worst residual seen.
    """
    k, m = psi.N.param_dim, psi.fiber_dim
    worst = 0.0
    for u in u_grid:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        fp = psi.frame.at(u)
        r0 = float(np.linalg.norm(psi(u, np.zeros(m)) - fp.p))
        if r0 > zero_tol:
            raise NotInDomain(f"zero section misses N at u={u} (residual {r0:.3e})")
        J = psi.map.jacobian(np.concatenate([u, np.zeros(m)]))
        F = J[:, k:]
        induced = fp.B.T @ psi.frame.g.matrix(fp.p) @ F
        r1 = float(np.max(np.abs(induced - np.eye(m))))
        if r1 > frame_tol:
            raise NotInDomain(
                f"fiber differential not the identity at u={u} (residual {r1:.3e})"
            )
        worst = max(worst, r0, r1)
    return worst


def reference_embedding(
    frame: NormalFrame,
    delta: RadiusFunction,
    exp_tol: float = 1e-11,
    fd_step: float = 1e-6,
) -> TubularEmbedding:
    """The normal-exponential embedding of the frame's metric.

    Maps (u, c) to exp at p(u) of the normal vector with frame coordinates
    c; its fiber differential on the zero section is the identity because
    the exponential map's differential at zero is.
    """
    g_ref, N = frame.g, frame.N
    k = N.param_dim
    n = N.ambient_dim
    m = n - k

    flat = False
    if g_ref.christoffel_fn is not None:
        probe = N.point(np.zeros(k))
        flat = not np.any(g_ref.christoffel_fn(probe))

    if flat:
        # straight-fiber form p(u) + B(u) c, with the jacobian assembled
        # from the chart jacobian and the frame derivative
        def fn(uc):
            fp = frame.at(uc[:k])
            return fp.p + fp.B @ uc[k:]

        def jac(uc):
            c = uc[k:]
            fp = frame.derivative(uc[:k])
            J = np.empty((n, k + m))
            J[:, :k] = fp.J + (fp.dB @ c).T
            J[:, k:] = fp.B
            return J

    else:
        def fn(uc):
            fp = frame.at(uc[:k])
            return exp_map(g_ref, fp.p, fp.B @ uc[k:], tol=exp_tol)

        jac = None

    def in_domain(uc):
        u, c = uc[:k], uc[k:]
        if not N.in_param_domain(u):
            return False
        return float(np.linalg.norm(c)) < delta(u)

    m_ = DifferentiableMap(
        domain_dim=k + m, codomain_dim=n, fn=fn, jac=jac, fd_step=fd_step, domain=in_domain
    )
    return TubularEmbedding(map=m_, frame=frame, delta=delta)
