"""Parametrized submanifolds, normal spaces, the normal exponential map and
tubular-radius certification."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .errors import NotInDomain, NoValidRadius, RankDeficient
from .metrics import MetricField, exp_map
from .numerics import Array, DifferentiableMap

_RANK_TOL = 1e-8


@dataclass(frozen=True)
class ParametrizedSubmanifold:
    """A full-rank injective parametrization u -> p(u) of N inside R^n."""

    param_dim: int
    ambient_dim: int
    chart: DifferentiableMap
    param_domain: Optional[Callable[[Array], bool]] = None
    name: str = ""

    def point(self, u) -> Array:
        return self.chart(np.atleast_1d(np.asarray(u, dtype=float)))

    def tangent_basis(self, u) -> Array:
        """Columns span T_pN; shape (n, k)."""
        return self.chart.jacobian(np.atleast_1d(np.asarray(u, dtype=float)))

    def in_param_domain(self, u) -> bool:
        if self.param_domain is None:
            return True
        return bool(self.param_domain(np.atleast_1d(np.asarray(u, dtype=float))))


@dataclass(frozen=True)
class RadiusFunction:
    """Sampled positive tube radius u -> delta(u)."""

    fn: Callable[[Array], float]
    grid: Sequence

    def __call__(self, u) -> float:
        return float(self.fn(np.atleast_1d(np.asarray(u, dtype=float))))


def _tangent_projection_pieces(g: MetricField, N: ParametrizedSubmanifold, u):
    p = N.point(u)
    J = N.tangent_basis(u)
    if N.param_dim > 0:
        # smallest singular value; a curve's is the length of its one column
        if N.param_dim == 1:
            smin = float(np.sqrt(J[:, 0] @ J[:, 0]))
        else:
            smin = np.linalg.svd(J, compute_uv=False)[-1]
        if smin <= _RANK_TOL:
            raise RankDeficient(f"tangent basis rank-deficient at u={u}")
    G = g.matrix(p)
    return p, J, G


def _small_inv(M: Array) -> Array:
    """Inverse of a k x k matrix, k <= n <= 3.  np.linalg.inv costs ~10 us a
    call, about a quarter of a frame build; a 1 x 1 inverse is a reciprocal."""
    return np.reciprocal(M) if M.shape == (1, 1) else np.linalg.inv(M)


def _normal_projector(J: Array, G: Array) -> Array:
    """P = I - J (J^T G J)^-1 J^T G, the G-orthogonal projection onto the
    normal space (kills tangents)."""
    P = np.eye(J.shape[0])
    if J.shape[1] == 0:
        return P
    JtG = J.T @ G
    return P - J @ (_small_inv(JtG @ J) @ JtG)


def normal_space_basis(g: MetricField, N: ParametrizedSubmanifold, u) -> Array:
    """Deterministic g-orthonormal basis of the normal space at p(u), as the
    columns of an (n, n-k) matrix.

    Standard ambient basis vectors are projected onto the normal space (the
    columns of the projector) and orthonormalized in index order; near-zero
    projections are skipped.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    p, J, G = _tangent_projection_pieces(g, N, u)
    P = _normal_projector(J, G)
    n, k = N.ambient_dim, N.param_dim
    basis: List[Array] = []
    for i in range(n):
        if len(basis) == n - k:
            break
        q = P[:, i]
        for b in basis:
            q = q - (b @ G @ q) * b
        nrm = float(np.sqrt(max(q @ G @ q, 0.0)))
        if nrm < _RANK_TOL:
            continue
        basis.append(q / nrm)
    if len(basis) != n - k:
        raise RankDeficient(f"could not build a normal basis at u={u}")
    return np.column_stack(basis)


_FRAME_MEMO = 32  # base points a NormalFrame remembers
_FRAME_DU = 1e-5  # central-difference step of dJ/du and dG/du


@dataclass
class FramePoint:
    """The frame at one base point: p(u) and B(u), the matrix of
    ``normal_space_basis``; J(u), dJ/du and dB/du once requested."""

    u: Array
    p: Array
    B: Array  # (n, n-k)
    J: Optional[Array] = None  # (n, k), columns span T_pN
    dJ: Optional[Array] = None  # dJ[i] = dJ/du_i, (k, n, k)
    dB: Optional[Array] = None  # dB[i] = dB/du_i, (k, n, n-k)


class NormalFrame:
    """The normal frame of N under the metric g, one build per base point.

    ``at(u)`` gives p and the frame B of ``normal_space_basis``,
    ``tangent(u)`` adds J and ``derivative(u)`` adds dJ/du and dB/du.  dB
    comes from the chain rule through the tangent projection and
    Gram-Schmidt of ``normal_space_basis``, so no frame is built at a
    shifted point; only dJ and dG are central differences of the chart
    jacobian and the metric.  The last ``_FRAME_MEMO`` base points are
    remembered under the exact bytes of u, so a result never depends on
    what was evaluated before it.
    """

    def __init__(self, g: MetricField, N: ParametrizedSubmanifold):
        self.g = g
        self.N = N
        m = N.ambient_dim - N.param_dim
        self._strict_lower = np.tri(m, m, -1)
        self._memo: Dict[bytes, FramePoint] = {}

    def at(self, u) -> FramePoint:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        key = u.tobytes()
        fp = self._memo.get(key)
        if fp is None:
            B = normal_space_basis(self.g, self.N, u)
            fp = FramePoint(u=u.copy(), p=self.N.point(u), B=B)
            if len(self._memo) >= _FRAME_MEMO:
                del self._memo[next(iter(self._memo))]
            self._memo[key] = fp
        return fp

    def tangent(self, u) -> FramePoint:
        fp = self.at(u)
        if fp.J is None:
            fp.J = self.N.tangent_basis(fp.u)
        return fp

    def derivative(self, u) -> FramePoint:
        fp = self.tangent(u)
        if fp.dB is None:
            fp.dJ, fp.dB = self._chain_rule(fp)
        return fp

    def _chain_rule(self, fp: FramePoint):
        """dJ/du and dB/du through the steps of normal_space_basis.

        Write dB = J alpha + B W.  Differentiating J^T G B = 0 gives
        alpha = -M^-1 (dJ^T G B + J^T dG B) with M = J^T G J, and
        B^T G B = I gives sym(W) = -B^T dG B / 2.  Gram-Schmidt of the kept
        projector columns s gives B R = P_s = (I - J A)_s with R upper
        triangular and A = M^-1 J^T G; this fixes the strictly lower part
        of W to that of -(B^T G dJ) C with C = A_s R^-1.  In
        B = I_s R^-1 - J C (I_s: columns s of the identity) the k rows r
        outside s of I_s R^-1 are zero, so C = -J_r^-1 B_r.
        """
        g, N = self.g, self.N
        u, J, B = fp.u, fp.J, fp.B
        n, k = J.shape
        m = B.shape[1]
        dJ = np.empty((k, n, k))
        dB = np.empty((k, n, m))
        if k == 0:
            return dJ, dB
        G = g.matrix(fp.p)
        BG = B.T @ G  # equals B^T G P; G is symmetric, so G B = BG^T
        # Gram-Schmidt kept column i as the (j+1)-th vector iff its residual
        # norm, which is BG[j, i], cleared the rank bound
        s: List[int] = []
        for i in range(n):
            if len(s) < m and BG[len(s), i] >= _RANK_TOL:
                s.append(i)
        r = [i for i in range(n) if i not in s]
        M_inv = _small_inv(J.T @ G @ J)
        C = -_small_inv(J[r]) @ B[r]
        for i in range(k):
            up = u.copy()
            um = u.copy()
            up[i] += _FRAME_DU
            um[i] -= _FRAME_DU
            dJ[i] = (N.tangent_basis(up) - N.tangent_basis(um)) / (2.0 * _FRAME_DU)
            dGB = (g.matrix(N.point(up)) - g.matrix(N.point(um))) @ B / (2.0 * _FRAME_DU)
            alpha = -M_inv @ (dJ[i].T @ BG.T + J.T @ dGB)
            S = -0.5 * (B.T @ dGB)
            L = (-(BG @ dJ[i]) @ C - S) * self._strict_lower
            dB[i] = J @ alpha + B @ (S + L - L.T)
        return dJ, dB


def normal_representative(g: MetricField, N: ParametrizedSubmanifold, u, a) -> Array:
    """g-orthogonal projection of an ambient vector onto the normal space.

    Two ambient vectors differing by a tangent vector map to the same
    result, so this realizes the canonical isomorphism from the quotient
    normal bundle onto the metric normal bundle.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    _, J, G = _tangent_projection_pieces(g, N, u)
    return _normal_projector(J, G) @ np.asarray(a, dtype=float)


_EXP_TOL = 1e-11  # geodesic tolerance of the normal exponential chart
_EXP_FD_STEP = 1e-6  # its jacobian's central-difference step off a flat background


def normal_exponential(frame: NormalFrame) -> DifferentiableMap:
    """The normal exponential map (u, c) -> exp at p(u) of B(u) c, with c
    the coordinates of a normal vector in the frame B.

    On a flat background (analytic Christoffel symbols that vanish) the
    geodesics are straight, so the map is p(u) + B(u) c and its jacobian
    [J + dB c | B] comes from the chart jacobian and the frame derivative;
    otherwise each value integrates a geodesic and the jacobian is a
    central finite difference.  The map has no domain; callers restrict it.
    """
    g, N = frame.g, frame.N
    k, n = N.param_dim, N.ambient_dim
    flat = g.christoffel_fn is not None and not np.any(g.christoffel_fn(N.point(np.zeros(k))))

    if flat:
        def fn(uc):
            fp = frame.at(uc[:k])
            return fp.p + fp.B @ uc[k:]

        def jac(uc):
            fp = frame.derivative(uc[:k])
            return np.hstack([fp.J + (fp.dB @ uc[k:]).T, fp.B])

    else:
        def fn(uc):
            fp = frame.at(uc[:k])
            return exp_map(g, fp.p, fp.B @ uc[k:], tol=_EXP_TOL)

        jac = None

    return DifferentiableMap(domain_dim=n, codomain_dim=n, fn=fn, jac=jac, fd_step=_EXP_FD_STEP)


_RADIUS_COND_LIMIT = 1e6  # largest metric-weighted condition number of the chart
_RADIUS_INJ_TOL = 1e-8  # images of separated preimages must stay this far apart
_RADIUS_FRACTIONS = (0.25, 0.5, 0.75, 1.0)  # fiber samples, in units of delta
_RADIUS_MAX_HALVINGS = 20


def _radius_candidate_ok(
    frame: NormalFrame, chart: DifferentiableMap, grid, delta: float
) -> bool:
    g = frame.g
    preimages = []
    images = []
    for u in grid:
        fp = frame.tangent(u)
        u = fp.u
        m = fp.B.shape[1]
        # orientation of the tube chart on the zero section, where its
        # jacobian is [J | B]; a sign change along a fiber means the chart
        # folded through a focal point, however well conditioned the
        # sampled jacobians are
        det0 = np.linalg.det(np.column_stack([fp.J, fp.B]))
        for j in range(m):
            for sign in (1.0, -1.0):
                for frac in _RADIUS_FRACTIONS:
                    c = np.zeros(m)
                    c[j] = sign * frac * delta
                    uc = np.concatenate([u, c])
                    try:
                        img = chart(uc)
                        Jmat = chart.jacobian(uc)
                    except NotInDomain:
                        return False
                    # metric-weighted condition estimate of the tube chart
                    G = g.matrix(img)
                    w, V = np.linalg.eigh(0.5 * (G + G.T))
                    W = V @ np.diag(np.sqrt(np.maximum(w, 0.0))) @ V.T
                    sv = np.linalg.svd(W @ Jmat, compute_uv=False)
                    if sv[-1] <= 0.0 or sv[0] / sv[-1] >= _RADIUS_COND_LIMIT:
                        return False
                    if np.linalg.det(Jmat) * det0 <= 0.0:
                        return False
                    preimages.append(uc)
                    images.append(img)
    # sampled injectivity: well-separated preimages must stay separated
    pre = np.array(preimages)
    img = np.array(images)
    if len(pre) > 1:
        mesh = 0.0
        us = np.array([np.atleast_1d(np.asarray(u, float)) for u in grid])
        if len(us) > 1:
            mesh = max(mesh, float(np.max(np.linalg.norm(np.diff(us, axis=0), axis=1))))
        fr = sorted(_RADIUS_FRACTIONS)
        gaps = [fr[0]] + [b - a for a, b in zip(fr, fr[1:])]
        mesh = max(mesh, delta * max(gaps))
        for i in range(len(pre)):
            d_pre = np.linalg.norm(pre[i + 1 :] - pre[i], axis=1)
            d_img = np.linalg.norm(img[i + 1 :] - img[i], axis=1)
            bad = (d_pre > 2.0 * mesh) & (d_img < _RADIUS_INJ_TOL)
            if np.any(bad):
                return False
    return True


def tubular_radius_estimate(
    g: MetricField, N: ParametrizedSubmanifold, grid, delta0: float
) -> RadiusFunction:
    """Largest delta0 * 2^-m certified on the sampled closed tube.

    Certification samples the normal exponential chart of one frame along
    each fiber.  It checks a metric-weighted condition estimate of the
    chart jacobian, that its determinant keeps the sign it has on the zero
    section (so no sampled fiber crosses a focal point), and sampled
    injectivity; the boundary fraction 1.0 is included so focal
    degeneracies at radius exactly delta are rejected.
    """
    if delta0 <= 0:
        raise ValueError("delta0 must be positive")
    frame = NormalFrame(g, N)
    chart = normal_exponential(frame)
    for m in range(_RADIUS_MAX_HALVINGS + 1):
        delta = delta0 * 2.0**-m
        if _radius_candidate_ok(frame, chart, grid, delta):
            return RadiusFunction(fn=lambda u, d=delta: d, grid=list(grid))
    raise NoValidRadius(
        f"no certified radius above {delta0 * 2.0 ** -_RADIUS_MAX_HALVINGS:.3e}"
    )
