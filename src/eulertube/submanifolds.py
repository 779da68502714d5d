"""Parametrized submanifolds, normal spaces, the normal exponential map and
tubular-radius certification."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from .errors import NotInDomain, NoValidRadius, RankDeficient
from .metrics import MetricField, exp_map
from .numerics import Array, DifferentiableMap, as_lanes

_RANK_TOL = 1e-8


@dataclass(frozen=True)
class ParametrizedSubmanifold:
    """A full-rank injective parametrization u -> p(u) of N inside R^n.

    ``param_domain``, like the chart's callables, takes lanes of parameters
    (B, k) and returns a (B,) bool mask.  ``point``, ``tangent_basis`` and
    ``in_param_domain`` take one parameter (k,) or lanes (B, k).
    """

    param_dim: int
    ambient_dim: int
    chart: DifferentiableMap
    param_domain: Optional[Callable[[Array], Array]] = None
    name: str = ""

    def point(self, u) -> Array:
        return self.chart(np.atleast_1d(np.asarray(u, dtype=float)))

    def tangent_basis(self, u) -> Array:
        """Columns span T_pN; shape (n, k), or (B, n, k) on lanes."""
        return self.chart.jacobian(np.atleast_1d(np.asarray(u, dtype=float)))

    def in_param_domain(self, u):
        """A bool for one parameter, a (B,) mask on lanes."""
        U, single = as_lanes(u, self.param_dim)
        domain = self.param_domain
        inside = np.ones(len(U), bool) if domain is None else np.asarray(domain(U), bool)
        return bool(inside[0]) if single else inside


@dataclass(frozen=True)
class RadiusFunction:
    """Sampled positive tube radius u -> delta(u).

    ``fn`` takes one parameter (k,) or lanes (B, k) and returns a number
    or one per lane; ``delta(u)`` is a float for one parameter and a (B,)
    array on lanes.
    """

    fn: Callable[[Array], float]
    grid: Sequence

    def __call__(self, u):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        d = np.asarray(self.fn(u), dtype=float)
        return float(d) if u.ndim == 1 else d + np.zeros(len(u))


def _tangent_projection_pieces(g: MetricField, N: ParametrizedSubmanifold, U: Array):
    """p, J and G on the lanes U (B, k)."""
    p = N.point(U)
    J = N.tangent_basis(U)
    if N.param_dim > 0:
        # smallest singular value; a curve's is the length of its one column
        if N.param_dim == 1:
            smin = np.sqrt((_T(J) @ J)[:, 0, 0])
        else:
            smin = np.linalg.svd(J, compute_uv=False)[:, -1]
        if np.count_nonzero(smin <= _RANK_TOL):
            raise RankDeficient(f"tangent basis rank-deficient at u={U[smin <= _RANK_TOL][0]}")
    G = g.matrix(p)
    return p, J, G


def _T(M: Array) -> Array:
    """Transpose of each matrix in a stack."""
    return M.transpose(0, 2, 1)


def _small_inv(M: Array) -> Array:
    """Inverses of stacked k x k matrices, k <= n <= 3.  np.linalg.inv costs
    ~10 us a call; a 1 x 1 inverse is a reciprocal."""
    return np.reciprocal(M) if M.shape[-2:] == (1, 1) else np.linalg.inv(M)


def _normal_projector(J: Array, G: Array) -> Array:
    """P = I - J (J^T G J)^-1 J^T G on lanes, the G-orthogonal projection
    onto the normal space (kills tangents)."""
    I = np.eye(J.shape[1])
    if J.shape[2] == 0:
        return I + 0.0 * G
    JtG = _T(J) @ G
    return I - J @ (_small_inv(JtG @ J) @ JtG)


def _g_norm(q: Array, G: Array) -> Array:
    """|q|_G on lanes q (B, n), with a negative rounding clipped to 0."""
    return np.sqrt(np.maximum((q[:, None, :] @ G @ q[:, :, None])[:, 0, 0], 0.0))


def normal_space_basis(g: MetricField, N: ParametrizedSubmanifold, u) -> Array:
    """Deterministic g-orthonormal basis of the normal space at p(u), as the
    columns of an (n, n-k) matrix; (B, n, n-k) on lanes u (B, k).

    Standard ambient basis vectors are projected onto the normal space (the
    columns of the projector) and orthonormalized in index order; near-zero
    projections are skipped.  Every lane makes its own choices.
    """
    U, single = as_lanes(u, N.param_dim)
    p, J, G = _tangent_projection_pieces(g, N, U)
    P = _normal_projector(J, G)
    m = N.ambient_dim - N.param_dim
    kept, vecs = _gram_schmidt(P, G, m)
    # no lane keeps more than m, so nl * m kept means every lane has m
    if np.count_nonzero(kept) < len(U) * m:
        short = np.count_nonzero(kept, axis=1) < m
        raise RankDeficient(f"could not build a normal basis at u={U[short][0]}")
    # each lane's m kept vectors, in index order, as columns; contiguous,
    # since a stacked product over a transposed view may round differently
    basis = np.ascontiguousarray(_T(vecs[kept].reshape(len(U), m, N.ambient_dim)))
    return basis[0] if single else basis


def _gram_schmidt(P: Array, G: Array, m: int):
    """Modified Gram-Schmidt of the projector columns on lanes, under G.

    Goes through the columns in index order, skipping those whose residual
    is below the rank bound, until a lane has m vectors.  Returns a (B, n)
    mask of the kept columns and their orthonormalized vectors as rows
    (B, n, n), a skipped one zero; projecting out a zero vector leaves a
    column unchanged, so every lane gets the vectors it gets alone.  Stops
    once every lane has m.
    """
    nl, n, _ = P.shape
    vecs = np.zeros((nl, n, n))
    kept = np.zeros((nl, n), dtype=bool)
    for i in range(n):
        q = P[:, :, i]
        for j in range(i):
            b = vecs[:, j]
            q = q - ((b[:, None, :] @ G) @ q[:, :, None])[:, 0] * b
        nrm = _g_norm(q, G)
        keep = nrm >= _RANK_TOL
        if i >= m:  # a lane with m vectors takes no more
            keep &= np.count_nonzero(kept, axis=1) < m
        np.divide(q, nrm[:, None], out=vecs[:, i], where=keep[:, None])
        kept[:, i] = keep
        if i + 1 >= m and np.count_nonzero(kept) == nl * m:
            break
    return kept, vecs


# calls a NormalFrame remembers; one call can hold thousands of lanes (a
# Christoffel stencil's), so more entries mostly hold memory
_FRAME_MEMO = 8
_FRAME_DU = 1e-5  # central-difference step of dJ/du and dG/du


@dataclass
class FramePoint:
    """The frame at one base point, or at lanes of base points (a leading
    lane axis on every field): p(u) and B(u), the matrix of
    ``normal_space_basis``; J(u), dJ/du and dB/du once requested."""

    u: Array
    p: Array
    B: Array  # (n, n-k)
    J: Optional[Array] = None  # (n, k), columns span T_pN
    dJ: Optional[Array] = None  # dJ[i] = dJ/du_i, (k, n, k)
    dB: Optional[Array] = None  # dB[i] = dB/du_i, (k, n, n-k)

    def lane(self, b: int) -> "FramePoint":
        return FramePoint(*(None if a is None else a[b] for a in vars(self).values()))


class NormalFrame:
    """The normal frame of N under the metric g.

    ``at(u)`` gives p and the frame B of ``normal_space_basis``,
    ``tangent(u)`` adds J and ``derivative(u)`` adds dJ/du and dB/du, for
    one base point u (k,) or lanes (B, k).  dB comes from the chain rule
    through the tangent projection and Gram-Schmidt of
    ``normal_space_basis``, so no frame is built at a shifted point; only
    dJ and dG are central differences of the chart jacobian and the
    metric.  The last ``_FRAME_MEMO`` calls are remembered under the exact
    bytes of their lanes, and a result never depends on what was evaluated
    before it.  ``numerics.solve_inverse`` keeps its batch fixed (a
    converged lane is frozen, not dropped), so every Newton iterate's
    jacobian is asked for at the lanes of the value call before it and
    finds its frame here: one frame build an iterate.  So does a jacobian
    taken at the solution, such as the pushforward field's.
    """

    def __init__(self, g: MetricField, N: ParametrizedSubmanifold):
        self.g = g
        self.N = N
        k, m = N.param_dim, N.ambient_dim - N.param_dim
        self._strict_lower = np.tri(m, m, -1)
        # the parameter steps +h e_i, then -h e_i, of the chain rule
        self._shifts = _FRAME_DU * np.concatenate([np.eye(k), -np.eye(k)])
        self._memo: Dict[bytes, FramePoint] = {}

    def at(self, u) -> FramePoint:
        return self._frame(u, depth=0)

    def tangent(self, u) -> FramePoint:
        return self._frame(u, depth=1)

    def derivative(self, u) -> FramePoint:
        return self._frame(u, depth=2)

    def _frame(self, u, depth: int) -> FramePoint:
        """The memo entry of u's lanes, filled up to J (depth 1) or dB
        (depth 2); one lane's view for one point."""
        U, single = as_lanes(u, self.N.param_dim)
        key = U.tobytes()
        fp = self._memo.get(key)
        if fp is None:
            B = normal_space_basis(self.g, self.N, U)
            fp = FramePoint(u=U.copy(), p=self.N.point(U), B=B)
            if len(self._memo) >= _FRAME_MEMO:
                del self._memo[next(iter(self._memo))]
            self._memo[key] = fp
        if depth >= 1 and fp.J is None:
            fp.J = self.N.tangent_basis(fp.u)
        if depth == 2 and fp.dB is None:
            fp.dJ, fp.dB = self._chain_rule(fp)
        return fp.lane(0) if single else fp

    def _chain_rule(self, fp: FramePoint):
        """dJ/du and dB/du on lanes, through the steps of normal_space_basis.

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
        U, J, B = fp.u, fp.J, fp.B
        nl, n, k = J.shape
        m = B.shape[2]
        dJ = np.empty((nl, k, n, k))
        dB = np.empty((nl, k, n, m))
        if k == 0:
            return dJ, dB
        G = g.matrix(fp.p)
        BG = _T(B) @ G  # equals B^T G P; G is symmetric, so G B = BG^T
        # Gram-Schmidt kept column s_j as the (j+1)-th vector: BG[j, s_j] is
        # its residual norm, at least the rank bound, and BG[j, i] for i < s_j
        # is below it (earlier columns lie in the span of earlier vectors up
        # to a residual below the bound)
        s = np.argmax(BG >= _RANK_TOL, axis=2)
        rest = np.ones((nl, n), dtype=bool)
        rest[np.arange(nl)[:, None], s] = False
        r = np.nonzero(rest)[1].reshape(nl, k)  # rows outside s
        JB_r = np.concatenate([J, B], axis=2)[np.arange(nl)[:, None], r]
        M_inv = _small_inv(_T(J) @ G @ J)
        C = -_small_inv(JB_r[:, :, :k]) @ JB_r[:, :, k:]
        # the chart's jacobian and the metric at u +- h e_i, all in one batch
        U2 = (U[:, None, :] + self._shifts).reshape(nl * 2 * k, k)
        J2 = N.tangent_basis(U2).reshape(nl, 2 * k, n, k)
        G2 = g.matrix(N.point(U2)).reshape(nl, 2 * k, n, n)
        for i in range(k):
            dJ[:, i] = (J2[:, i] - J2[:, k + i]) / (2.0 * _FRAME_DU)
            dGB = (G2[:, i] - G2[:, k + i]) @ B / (2.0 * _FRAME_DU)
            alpha = -M_inv @ (_T(dJ[:, i]) @ _T(BG) + _T(J) @ dGB)
            S = -0.5 * (_T(B) @ dGB)
            L = (-(BG @ dJ[:, i]) @ C - S) * self._strict_lower
            dB[:, i] = J @ alpha + B @ (S + L - _T(L))
        return dJ, dB


def normal_representative(g: MetricField, N: ParametrizedSubmanifold, u, a) -> Array:
    """g-orthogonal projection of an ambient vector onto the normal space,
    for one base point u (k,) and vector a (n,), or lanes u (B, k) and
    a (B, n).

    Two ambient vectors differing by a tangent vector map to the same
    result, so this realizes the canonical isomorphism from the quotient
    normal bundle onto the metric normal bundle.
    """
    U, single = as_lanes(u, N.param_dim)
    _, J, G = _tangent_projection_pieces(g, N, U)
    a = np.asarray(a, dtype=float).reshape(len(U), N.ambient_dim, 1)
    lam = (_normal_projector(J, G) @ a)[:, :, 0]
    return lam[0] if single else lam


_EXP_TOL = 1e-11  # geodesic tolerance of the normal exponential chart
_EXP_FD_STEP = 1e-6  # its jacobian's central-difference step off a flat background


def normal_exponential(frame: NormalFrame) -> DifferentiableMap:
    """The normal exponential map (u, c) -> exp at p(u) of B(u) c, with c
    the coordinates of a normal vector in the frame B.

    On a flat background (analytic Christoffel symbols that vanish) the
    geodesics are straight, so the map is p(u) + B(u) c and its jacobian
    [J + dB c | B] comes from the chart jacobian and the frame derivative;
    otherwise each value is an exponential map and the jacobian is a
    central finite difference.  Both take lanes: the frames of all lanes
    (and, for the finite difference, of all stencil points) are one build,
    and their geodesics are lanes of one exponential map.  The map has no
    domain; callers restrict it.
    """
    g, N = frame.g, frame.N
    k, n = N.param_dim, N.ambient_dim
    flat = g.christoffel_fn is not None and not np.any(g.christoffel_fn(N.point(np.zeros((1, k)))))

    if flat:
        def fn(UC):
            fp = frame.at(UC[:, :k])
            return fp.p + (fp.B @ UC[:, k:, None])[:, :, 0]

        def jac(UC):
            fp = frame.derivative(UC[:, :k])
            return np.concatenate([fp.J + _T((fp.dB @ UC[:, None, k:, None])[..., 0]), fp.B], axis=2)

        return DifferentiableMap(domain_dim=n, codomain_dim=n, fn=fn, jac=jac)

    def fn(UC):
        fp = frame.at(UC[:, :k])
        return exp_map(g, fp.p, (fp.B @ UC[:, k:, None])[:, :, 0], tol=_EXP_TOL)

    return DifferentiableMap(domain_dim=n, codomain_dim=n, fn=fn, fd_step=_EXP_FD_STEP)


_RADIUS_COND_LIMIT = 1e6  # largest metric-weighted condition number of the chart
_RADIUS_INJ_TOL = 1e-8  # images of separated preimages must stay this far apart
_RADIUS_FRACTIONS = (0.25, 0.5, 0.75, 1.0)  # fiber samples, in units of delta
_RADIUS_MAX_HALVINGS = 20


def _radius_candidate_ok(
    frame: NormalFrame, chart: DifferentiableMap, grid, delta: float
) -> bool:
    g = frame.g
    us = np.array([np.atleast_1d(np.asarray(u, float)) for u in grid])
    fp = frame.tangent(us)
    m = fp.B.shape[2]
    # orientation of the tube chart on the zero section, where its
    # jacobian is [J | B]; a sign change along a fiber means the chart
    # folded through a focal point, however well conditioned the sampled
    # jacobians are
    det0 = np.linalg.det(np.concatenate([fp.J, fp.B], axis=2))
    cs = []
    for j in range(m):
        for sign in (1.0, -1.0):
            for frac in _RADIUS_FRACTIONS:
                c = np.zeros(m)
                c[j] = sign * frac * delta
                cs.append(c)
    # every fiber sample of every grid point is one lane
    pre = np.concatenate([np.repeat(us, len(cs), axis=0), np.tile(cs, (len(us), 1))], axis=1)
    try:
        img = chart(pre)
        Jmat = chart.jacobian(pre)
    except NotInDomain:
        return False
    # metric-weighted condition estimate of the tube chart
    G = g.matrix(img)
    w, V = np.linalg.eigh(0.5 * (G + np.swapaxes(G, 1, 2)))
    W = (V * np.sqrt(np.maximum(w, 0.0))[:, None, :]) @ np.swapaxes(V, 1, 2)
    sv = np.linalg.svd(W @ Jmat, compute_uv=False)
    if np.any(sv[:, -1] <= 0.0) or np.any(sv[:, 0] / sv[:, -1] >= _RADIUS_COND_LIMIT):
        return False
    if np.any(np.linalg.det(Jmat) * np.repeat(det0, len(cs)) <= 0.0):
        return False
    # sampled injectivity: well-separated preimages must stay separated
    if len(pre) > 1:
        mesh = 0.0
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
