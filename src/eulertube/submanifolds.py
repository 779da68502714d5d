"""Parametrized submanifolds, normal spaces, the normal exponential map and
tubular-radius certification."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import NotInDomain, NoValidRadius, RankDeficient
from .metrics import MetricField, exp_map, identity_matrix, zero_christoffel
from .numerics import Array, DifferentiableMap, central_difference, central_stencil

_RANK_TOL = 1e-8


@dataclass(frozen=True)
class ParametrizedSubmanifold:
    """A full-rank injective parametrization u -> p(u) of N inside R^n, on
    the open box lo < u_i < hi of parameters.

    k and n are the chart's ``domain_dim`` and ``codomain_dim``.  The
    chart's callables and every method take lanes of parameters (B, k);
    ``in_param_domain`` returns a (B,) bool mask, False on a lane with a
    NaN coordinate whatever the bounds.
    """

    chart: DifferentiableMap
    lo: float = -math.inf
    hi: float = math.inf

    @property
    def param_dim(self) -> int:
        return self.chart.domain_dim

    @property
    def ambient_dim(self) -> int:
        return self.chart.codomain_dim

    def point(self, U: Array) -> Array:
        return self.chart(U)

    def tangent_basis(self, U: Array) -> Array:
        """(B, n, k); the columns of each lane span T_pN."""
        return self.chart.jacobian(U)

    def in_param_domain(self, U: Array) -> Array:
        return np.all((self.lo < U) & (U < self.hi), axis=1)


def _T(M: Array) -> Array:
    """Transpose of each matrix in a stack."""
    return M.transpose(0, 2, 1)


def _small_inv(M: Array) -> Array:
    """Inverses of stacked k x k matrices, k <= n <= 3.  np.linalg.inv costs
    ~10 us a call; a 1 x 1 inverse is a reciprocal."""
    return np.reciprocal(M) if M.shape[-2:] == (1, 1) else np.linalg.inv(M)


def _normal_projector(J: Array, G: Optional[Array]) -> Array:
    """P = I - J M^-1 J^T G with M = J^T G J on lanes, the G-orthogonal
    projection onto the normal space (kills tangents); G None is the
    identity, and J^T G is then a contiguous J^T, as the product gives it."""
    JtG = np.ascontiguousarray(_T(J)) if G is None else _T(J) @ G
    return np.eye(J.shape[1]) - J @ (_small_inv(JtG @ J) @ JtG)


def _times_G(rows: Array, G: Optional[Array]) -> Array:
    """The row vectors rows (B, 1, n) times G, or themselves when G is None
    (the identity)."""
    return rows if G is None else rows @ G


def _g_norm(q: Array, G: Optional[Array]) -> Array:
    """|q|_G on lanes q (B, n), with a negative rounding clipped to 0."""
    return np.sqrt(np.maximum((_times_G(q[:, None, :], G) @ q[:, :, None])[:, 0, 0], 0.0))


def normal_space_basis(g: MetricField, N: ParametrizedSubmanifold, U: Array) -> Array:
    """Deterministic g-orthonormal bases of the normal spaces at p(u) for
    the lanes U (B, k), as the columns of (B, n, n-k) matrices.

    Standard ambient basis vectors are projected onto the normal space (the
    columns of the projector) and orthonormalized in index order; near-zero
    projections are skipped.  Every lane makes its own choices.
    """
    return _normal_frame(g, N, U)[2]


def _normal_frame(g: MetricField, N: ParametrizedSubmanifold, U: Array):
    """p, J, the basis of ``normal_space_basis``, G and the (B, n) mask of
    the projector columns the basis was built from, on the lanes U, from
    one chart evaluation, one chart jacobian and one metric evaluation."""
    p, J = N.point(U), N.tangent_basis(U)
    # least singular value (inf for a point); a curve's is its column's length
    if N.param_dim == 1:
        smin = np.sqrt((_T(J) @ J)[:, 0, 0])
    else:
        smin = np.min(np.linalg.svd(J, compute_uv=False), axis=1, initial=np.inf)
    if np.count_nonzero(smin <= _RANK_TOL):
        raise RankDeficient(f"tangent basis rank-deficient at u={U[smin <= _RANK_TOL][0]}")
    G = g.matrix(p)
    m = N.ambient_dim - N.param_dim
    # products with the identity are exact, so skipping them changes no bit
    GP = None if g.matrix_fn is identity_matrix else G
    kept, vecs = _gram_schmidt(_normal_projector(J, GP), GP, m)
    # no lane keeps more than m, so nl * m kept means every lane has m
    if np.count_nonzero(kept) < len(U) * m:
        short = np.count_nonzero(kept, axis=1) < m
        raise RankDeficient(f"could not build a normal basis at u={U[short][0]}")
    # each lane's m kept vectors, in index order, as columns; contiguous,
    # since a stacked product over a transposed view may round differently
    basis = np.ascontiguousarray(_T(vecs[kept].reshape(len(U), m, N.ambient_dim)))
    return p, J, basis, G, kept


def _gram_schmidt(P: Array, G: Optional[Array], m: int):
    """Modified Gram-Schmidt of the projector columns on lanes, under G
    (None for the identity).

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
            q = q - (_times_G(b[:, None, :], G) @ q[:, :, None])[:, 0] * b
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
# Step h of the frame jet's central differences, whose error is the
# truncation h^2 |d^3B/du^3| / 6 plus B's rounding eps |B| / h; the two
# balance near h = (3 eps)^(1/3) = 9e-6.  On the unit circle in the plane,
# where |B| = |d^3B/du^3| = 1, dB is within 2.4e-11 of its closed form.
_FRAME_DU = 1e-5


@dataclass
class FramePoint:
    """The frame on lanes of base points u (B, k): p(u), the chart jacobian
    J(u), B(u), the matrix of ``normal_space_basis``, and the metric G at
    p(u) that built it; dJ/du and dB/du on a jet."""

    p: Array
    J: Array  # (B, n, k), columns span T_pN
    B: Array  # (B, n, n-k)
    G: Array  # (B, n, n)
    dJ: Optional[Array] = None  # dJ[:, i] = dJ/du_i, (B, k, n, k)
    dB: Optional[Array] = None  # dB[:, i] = dB/du_i, (B, k, n, n-k)


class NormalFrame:
    """The normal frame of N under the metric g.

    On lanes of base points U (B, k), ``at(U)`` builds p, J, G and the
    frame B of ``normal_space_basis`` from one chart evaluation, one chart
    jacobian and one metric evaluation; ``derivative(U)`` adds dJ/du and
    dB/du as central differences of one such build on the jet of U: each
    distinct base point u, then their lane-major stencils u + h e_i, u - h e_i
    of ``numerics.central_stencil``.  A jet across a discontinuity of the
    frame (other projector columns, or a vector of the other sign, at a
    stencil lane) raises RankDeficient.  The last
    ``_FRAME_MEMO`` calls are remembered under the lane count and bytes of
    their lanes, a jet serving ``at`` too; a result never depends on what
    was evaluated before it.  ``numerics.solve_inverse`` keeps its batch
    fixed, so a map reading the jet in its value finds it again at the
    jacobian of every Newton iterate and of the solution: one build each.
    """

    def __init__(self, g: MetricField, N: ParametrizedSubmanifold):
        self.g = g
        self.N = N
        self._memo: Dict[Tuple[int, bytes], FramePoint] = {}

    def _remember(self, key: Tuple[int, bytes], fp: FramePoint) -> FramePoint:
        if key not in self._memo and len(self._memo) >= _FRAME_MEMO:
            del self._memo[next(iter(self._memo))]
        self._memo[key] = fp
        return fp

    def at(self, U: Array) -> FramePoint:
        """The memo entry of U's lanes, built on a miss."""
        key = (len(U), U.tobytes())
        fp = self._memo.get(key)
        if fp is None:
            fp = self._remember(key, FramePoint(*_normal_frame(self.g, self.N, U)[:4]))
        return fp

    def derivative(self, U: Array) -> FramePoint:
        """The memo entry of U's lanes with dJ and dB, a jet built unless
        the entry has them."""
        key = (len(U), U.tobytes())
        fp = self._memo.get(key)
        if fp is None or fp.dB is None:
            fp = self._remember(key, self._jet(U))
        return fp

    def _jet(self, U: Array) -> FramePoint:
        nl, k = U.shape
        # the distinct base points, told apart by the bytes of their rows:
        # a batch of distinct lanes (a Newton batch) is built as it is, with
        # no sort, and a stencil's repeated base points are built once; a
        # point's lanes (k = 0) are one base point, with an empty stencil
        void = np.dtype((np.void, U.itemsize * k))
        rows = np.ascontiguousarray(U).view(void).ravel().tolist() if k else [b""] * nl
        base, ids = U, None
        if len(set(rows)) < nl:
            index: Dict[bytes, int] = {}
            ids = np.array([index.setdefault(r, len(index)) for r in rows])
            lane = np.empty(len(index), dtype=int)
            lane[ids] = np.arange(nl)
            base = U[lane]
        nb = len(base)
        S = central_stencil(base, _FRAME_DU).reshape(nb * 2 * k, k)
        p, J, B, G, kept = _normal_frame(self.g, self.N, np.concatenate([base, S]))
        # each base point's stencil lanes, lane-major
        Js, Bs, kept_s = (X[nb:].reshape(nb, 2 * k, *X.shape[1:]) for X in (J, B, kept))
        # a difference across a switch of projector columns, or across a
        # column whose projection passes through zero between u - h and
        # u + h so that its vector flips, is of order 1/h, not a derivative
        switch = kept_s != kept[:nb, None]
        flip = (Bs[:, :k] * Bs[:, k:]).sum(axis=2) <= 0.0
        if np.count_nonzero(switch) or np.count_nonzero(flip):
            torn = np.any(switch, axis=(1, 2)) | np.any(flip, axis=(1, 2))
            raise RankDeficient(f"normal frame torn within {_FRAME_DU:g} of u={base[torn][0]}")
        dJ, dB = central_difference(Js, _FRAME_DU), central_difference(Bs, _FRAME_DU)
        centre = [p[:nb], J[:nb], B[:nb], G[:nb]]
        if ids is None:  # copies, or the memo would keep the stencil lanes alive
            return FramePoint(*(f.copy() for f in centre), dJ, dB)
        return FramePoint(*(f[ids] for f in centre + [dJ, dB]))


def normal_representative(g: MetricField, fp: FramePoint, A: Array) -> Array:
    """g-orthogonal projections of the ambient vectors A (B, n) onto the
    normal spaces of N at the frame point's lanes, from its tangent basis J
    and g at its points p; g need not be the metric the frame was built on.

    Two ambient vectors differing by a tangent vector map to the same
    result, so this realizes the canonical isomorphism from the quotient
    normal bundle onto the metric normal bundle.
    """
    return (_normal_projector(fp.J, g.matrix(fp.p)) @ A[:, :, None])[:, :, 0]


_EXP_TOL = 1e-11  # geodesic tolerance of the normal exponential chart
_EXP_FD_STEP = 1e-6  # its jacobian's central-difference step off a flat background


def normal_exponential(frame: NormalFrame) -> DifferentiableMap:
    """The normal exponential map (u, c) -> exp at p(u) of B(u) c, with c
    the coordinates of a normal vector in the frame B.

    On a Euclidean background (``metrics.euclidean_metric``, recognised by
    its ``zero_christoffel``) the geodesics are straight, so the map is
    p(u) + B(u) c and its jacobian [J + dB c | B] comes from the chart
    jacobian and the frame derivative; on any other metric, however small
    its symbols at some point, each value is an exponential map and the
    jacobian is a central finite difference.  Both take lanes: the frames of all lanes
    (and, for the finite difference, of all stencil points) are one build,
    and their geodesics are lanes of one exponential map.  The map has no
    domain; callers restrict it.
    """
    g, N = frame.g, frame.N
    k, n = N.param_dim, N.ambient_dim
    if g.christoffel_fn is zero_christoffel:
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
# samples whose pairs are compared at once; the grid comes from the user,
# so the pair arrays stay O(block x samples)
_RADIUS_PAIR_BLOCK = 64


def fiber_axis_samples(m: int, fractions, delta: float) -> Array:
    """The fiber points c = sign * frac * delta * e_j as rows (2 m F, m): axis
    by axis, + before -, each sign over the F ``fractions`` in order.  Every
    entry off the axis is +0.0."""
    signed = np.array([1.0, -1.0])[:, None] * np.asarray(fractions, dtype=float) * delta
    C = np.zeros((m,) + signed.shape + (m,))
    C[np.arange(m), ..., np.arange(m)] = signed
    return C.reshape(-1, m)


def _radius_candidate_ok(
    frame: NormalFrame, chart: DifferentiableMap, us: Array, delta: float
) -> bool:
    g = frame.g
    fp = frame.at(us)
    # orientation of the tube chart on the zero section, where its
    # jacobian is [J | B]; a sign change along a fiber means the chart
    # folded through a focal point, however well conditioned the sampled
    # jacobians are
    det0 = np.linalg.det(np.concatenate([fp.J, fp.B], axis=2))
    cs = fiber_axis_samples(fp.B.shape[2], _RADIUS_FRACTIONS, delta)
    # every fiber sample of every grid point is one lane
    pre = np.concatenate([np.repeat(us, len(cs), axis=0), np.tile(cs, (len(us), 1))], axis=1)
    try:
        img = chart(pre)
        # a flat chart p + B c leaves the background's domain without
        # raising, where exp_map on a curved one raises NotInDomain
        if not np.all(g.contains(img)):
            return False
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
    # sampled injectivity: preimages more than twice the mesh apart (the
    # widest step between base points or fiber samples) must stay apart
    fiber_mesh = delta * np.max(np.diff([0.0, *sorted(_RADIUS_FRACTIONS)]))
    mesh = np.max(np.linalg.norm(np.diff(us, axis=0), axis=1), initial=fiber_mesh)
    # a block of samples i against every j > i0; a pair j <= i in the block
    # is one compared the other way round, or a sample with itself (d_pre 0)
    for i0 in range(0, len(pre), _RADIUS_PAIR_BLOCK):
        rows = slice(i0, i0 + _RADIUS_PAIR_BLOCK)
        d_pre = np.linalg.norm(pre[None, i0 + 1 :] - pre[rows, None], axis=2)
        d_img = np.linalg.norm(img[None, i0 + 1 :] - img[rows, None], axis=2)
        if np.any((d_pre > 2.0 * mesh) & (d_img < _RADIUS_INJ_TOL)):
            return False
    return True


def tubular_radius_estimate(frame: NormalFrame, grid: Array, delta0: float) -> float:
    """Largest delta0 * 2^-m certified on the sampled closed tube over the
    grid of base points (G, k): one radius for every base point.

    Certification samples ``normal_exponential(frame)`` along each fiber,
    on the frame that the run's embeddings are built on, so the radius is
    certified for the chart they use.  It checks that every sampled image
    lies in the background metric's domain, a metric-weighted condition
    estimate of the chart jacobian, that its determinant keeps
    the sign it has on the zero section (so no sampled fiber crosses a
    focal point), and sampled injectivity; the boundary fraction 1.0 is
    included so focal degeneracies at radius exactly delta are rejected.
    """
    if delta0 <= 0:
        raise ValueError("delta0 must be positive")
    chart = normal_exponential(frame)
    for m in range(_RADIUS_MAX_HALVINGS + 1):
        delta = delta0 * 2.0**-m
        if _radius_candidate_ok(frame, chart, grid, delta):
            return delta
    raise NoValidRadius(
        f"no certified radius above {delta0 * 2.0 ** -_RADIUS_MAX_HALVINGS:.3e}"
    )
