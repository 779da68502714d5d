"""Realizing an embedding by the normal exponential map of a constructed
metric: the comparison diffeomorphism, the pullback metric, and the
commutative-diagram / isometry verifications."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .embeddings import TubularEmbedding
from .errors import (
    DecompositionFailure,
    DomainMargin,
    HypothesisFailure,
    NotInDomain,
)
from .metrics import MetricField, euclidean_metric, exp_map, geodesic, levi_civita
from .numerics import Array, DifferentiableMap, solve_inverse
from .submanifolds import NormalFrame, ParametrizedSubmanifold, normal_representative


@dataclass(frozen=True)
class ComparisonMap:
    """The comparison map chi = phi o psi^{-1} on the image of psi.

    ``chart`` is psi's map (u, c) -> x and ``target`` phi's map
    (u, c) -> y on the same frame coordinates; ``preimage`` solves
    chart(uc) = x.  ``preimage`` is a pure function of x, so chi(x) does not
    depend on what was evaluated before.  ``preimage``, ``domain``, chi and
    its jacobian take lanes (B, n): ``preimage`` returns (B, k+m) and
    ``domain`` a (B,) bool mask.
    """

    chart: DifferentiableMap
    target: DifferentiableMap
    preimage: Callable[[Array], Array]
    domain: Optional[Callable[[Array], Array]] = None

    @property
    def domain_dim(self) -> int:
        return self.chart.codomain_dim

    def __call__(self, X: Array) -> Array:
        return self.target(self.preimage(X))

    def jacobian(self, X: Array) -> Array:
        """Dchi(x) by the chain rule, Dphi(uc) Dpsi(uc)^{-1} at the preimage
        uc, which avoids nesting Newton solves inside finite differences."""
        UC = self.preimage(X)
        return self.target.jacobian(UC) @ np.linalg.inv(self.chart.jacobian(UC))


def build_chi(
    psi: TubularEmbedding,
    phi: DifferentiableMap,
    domain: Optional[Callable[[Array], Array]] = None,
) -> ComparisonMap:
    """The comparison map chi = phi o psi^{-1} for the chart phi on psi's
    frame coordinates; each evaluation inverts psi by a Newton solve from
    its seed table, one lane per point."""
    return ComparisonMap(chart=psi.map, target=phi, preimage=psi.invert, domain=domain)


def correction_eta(
    chi: DifferentiableMap, frame: NormalFrame, U: Array, tol: float = 1e-6
) -> Array:
    """Decompose d(chi) at p(u) on the frame's normal vectors B as identity
    plus a tangent-valued part, d(chi) B = B + J eta, on lanes of base
    points U (B, k): returns eta (B, k, n-k), normal-frame coordinates to
    tangent-frame coordinates.  Raises DecompositionFailure at the first
    lane whose non-tangent residual of some frame vector exceeds tol.
    """
    fp = frame.at(U)
    D = chi.jacobian(fp.p)
    k = frame.N.param_dim
    coef = np.linalg.solve(np.concatenate([fp.J, fp.B], axis=2), D @ fp.B - fp.B)
    normal = np.linalg.norm(coef[:, k:], axis=1)
    bad = np.flatnonzero((normal > tol).any(axis=1))
    if len(bad):
        raise DecompositionFailure(
            f"normal residual {np.max(normal[bad[0]]):.3e} above {tol:.1e} at u={U[bad[0]]}"
        )
    return coef[:, :k]


def pullback_metric(
    chi: ComparisonMap,
    g_ref: MetricField,
    fd_step: float = 1e-3,
) -> MetricField:
    """The metric making chi an isometry onto its image:
    g(x) = Dchi(x)^T gref(chi(x)) Dchi(x), evaluated at the one preimage uc
    of x with Dchi = Dphi(uc) Dpsi(uc)^{-1}.

    ``matrix`` and the Christoffel symbols take lanes, one inversion batch
    for all of them.  The Christoffel symbols difference g along psi's
    chart: g at every lane's uc and chart stencil points uc +- fd_step e_j
    is one batch of forward evaluations of psi and phi with no inversion,
    and d_l g = sum_j A[j, l] d_{uc_j} g with A = Dpsi(uc)^{-1} turns chart
    derivatives into ambient ones.  This is a finite difference of g,
    independent of how chi enters the diagram check; the comparatively
    large step balances truncation against the rounding of the jacobians.
    Raises DomainMargin if a stencil point of some lane leaves psi's
    domain.
    """
    chart, target = chi.chart, chi.target

    def matrix_at(UC, A=None):
        """g at the chart lanes UC (B, n), with A = Dpsi(UC)^-1 if known."""
        if A is None:
            A = np.linalg.inv(chart.jacobian(UC))
        D = target.jacobian(UC) @ A
        return np.swapaxes(D, 1, 2) @ g_ref.matrix(target(UC)) @ D

    def matrix(X):
        return matrix_at(chi.preimage(X))

    def gamma(X):
        UC = chi.preimage(X)
        nl, n = UC.shape
        steps = fd_step * np.eye(n)
        # every lane's uc and its chart stencil uc +- h e_j: 2n + 1 lanes a point
        S = np.concatenate([UC[:, None], UC[:, None] + steps, UC[:, None] - steps], axis=1)
        if not np.all(chart.contains(S[:, 1:].reshape(-1, n))):
            raise DomainMargin("chart stencil point outside the embedding's domain")
        S = S.reshape(-1, n)
        A = np.linalg.inv(chart.jacobian(S))
        G = matrix_at(S, A).reshape(nl, 2 * n + 1, n, n)
        dg_chart = (G[:, 1 : n + 1] - G[:, n + 1 :]) / (2.0 * fd_step)  # d_{uc_j} g
        # d_l g = sum_j A[j, l] d_{uc_j} g with A at the lane's own uc
        A0t = np.swapaxes(A.reshape(nl, 2 * n + 1, n, n)[:, 0], 1, 2)
        dg = (A0t @ dg_chart.reshape(nl, n, n * n)).reshape(nl, n, n, n)
        return levi_civita(G[:, 0], dg, X)

    return MetricField(
        dim=chi.domain_dim,
        matrix_fn=matrix,
        domain=chi.domain,
        christoffel_fn=gamma,
    )


def verify_main_diagram(
    frame: NormalFrame, psi: DifferentiableMap, g: MetricField, U: Array, C: Array,
    exp_tol: float = 1e-9,
) -> Array:
    """Check that the normal exponential map of the constructed metric sends
    the g-normal representative of each frame class back onto the chart
    psi (u, c) -> x; returns the residual of each sample (S,).

    The samples are frame coordinates (u, c) inside the certified tube, as
    lanes U (S, k), C (S, m): one frame build, one normal projection and
    one exponential map for all of them.
    """
    fp = frame.at(U)
    lam = normal_representative(g, frame.N, U, (fp.B @ C[:, :, None])[:, :, 0])
    y = exp_map(g, fp.p, lam, tol=exp_tol)
    return np.linalg.norm(y - psi(np.concatenate([U, C], axis=1)), axis=1)


_ISOMETRY_TS = np.array([0.25, 0.5, 0.75, 1.0])  # geodesic parameters compared


def isometry_geodesic_check(
    chi: DifferentiableMap,
    g: MetricField,
    g_ref: MetricField,
    N: ParametrizedSubmanifold,
    U: Array,
    V: Array,
    exp_tol: float = 1e-9,
) -> Array:
    """Max over t of |exp_ref(t (v + eta(v))) - chi(exp_g(t v))| for the
    g-normal vectors V (B, n) at p(u) of the base points U (B, k), one per
    lane (B,).

    Every pair (u, t) is a lane of one exponential map on g and one on
    g_ref, and chi is evaluated once on all of them.
    """
    p = N.point(U)
    corrected = (chi.jacobian(p) @ V[:, :, None])[:, :, 0]  # v + eta(v), as nu(chi) = id
    # lane b * T + i: base point b at parameter t_i
    T = len(_ISOMETRY_TS)
    t = np.tile(_ISOMETRY_TS, len(U))[:, None]
    p = np.repeat(p, T, axis=0)
    lhs = exp_map(g_ref, p, t * np.repeat(corrected, T, axis=0), tol=exp_tol)
    rhs = chi(exp_map(g, p, t * np.repeat(V, T, axis=0), tol=exp_tol))
    return np.max(np.linalg.norm(lhs - rhs, axis=1).reshape(len(U), T), axis=1)


def gauss_legendre(order: int) -> Tuple[Array, Array]:
    """Nodes (ascending) and weights of the ``order``-point Gauss-Legendre
    rule on [-1, 1], by Golub-Welsch: the nodes are the eigenvalues of the
    Jacobi matrix of the Legendre recurrence, whose off-diagonal entries
    are k / sqrt(4k^2 - 1), and each weight is 2 v0^2 for the first
    component v0 of the node's unit eigenvector.  (numpy.polynomial's
    leggauss gives the same rule to a few ulps but costs a run 1.5 MB of
    imports.)"""
    k = np.arange(1.0, order)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vectors = np.linalg.eigh(np.diag(beta, -1) + np.diag(beta, 1))
    return nodes, 2.0 * vectors[0] ** 2


_LENGTH_ORDER = 24  # Gauss-Legendre nodes of curve_length


def curve_length(g: MetricField, curve, dcurve) -> Array:
    """Gauss-Legendre quadrature of the g-lengths of K curves parametrized
    over [0, 1].

    ``curve`` and ``dcurve`` are called once, with the column of quadrature
    nodes t (``_LENGTH_ORDER``, 1), and return the points and velocities of
    every curve at the nodes, (K, ``_LENGTH_ORDER``, n); g is evaluated at
    all of those nodes as one lane batch.  Returns the K lengths, each
    summed node by node in order.
    """
    nodes, weights = gauss_legendre(_LENGTH_ORDER)
    t = (0.5 * nodes + 0.5)[:, None]
    V = np.asarray(dcurve(t), dtype=float)
    V = V.reshape(-1, V.shape[2])
    P = np.asarray(curve(t), dtype=float).reshape(V.shape)
    speed = np.sqrt((V[:, None, :] @ g.matrix(P) @ V[:, :, None])[:, 0, 0])
    speed = speed.reshape(-1, _LENGTH_ORDER)
    total = np.zeros(len(speed))
    for w, s in zip(weights, speed.T):
        total += w * s
    return 0.5 * total


_POINT_TRAJ_TOL = 1e-10  # geodesic tolerance of the trajectory check
_POINT_HYPOTHESIS_TOL = 1e-6  # largest entry of Dpsi(0) - I accepted
_POINT_INVERT_TOL = 1e-13  # Newton tolerance of psi^-1


def point_case_metric(psi: DifferentiableMap, V: Array) -> Tuple[MetricField, float]:
    """Single-point construction: the flat metric pulled back by psi^-1, so
    the exponential map at psi(0) reproduces psi itself.

    This is ``pullback_metric`` of the comparison map with psi as chart and
    the identity as target, so g(y) = A^T A with A = Dpsi(psi^-1(y))^-1 and
    one Newton solve (seeded at y - psi(0)) per evaluation of g or of its
    Christoffel symbols.  Verifies exp(v) = psi(v) and gamma_v(t) = psi(t v)
    for the sample vectors V (S, n) along the trajectories, integrated as
    lanes of one geodesic call; returns (metric, max residual).
    """
    n = psi.domain_dim
    zero = np.zeros((1, n))
    p = psi(zero)
    D0 = psi.jacobian(zero)
    if float(np.max(np.abs(D0 - np.eye(n)))) > _POINT_HYPOTHESIS_TOL:
        raise HypothesisFailure("differential of psi at 0 is not the identity")

    eye = np.eye(n)[None]
    identity = DifferentiableMap(n, n, fn=lambda X: X, jac=lambda X: eye.repeat(len(X), axis=0))
    chi = ComparisonMap(
        chart=psi,
        target=identity,
        preimage=lambda y: solve_inverse(psi, y, y - p, tol=_POINT_INVERT_TOL),
    )
    g = pullback_metric(chi, euclidean_metric(n), fd_step=5e-4)
    if len(V) == 0:
        return g, 0.0
    # the samples are lanes of one integration
    traj = geodesic(g, np.repeat(p, len(V), axis=0), V, 1.0, _POINT_TRAJ_TOL)
    if np.any(traj.exited):
        raise NotInDomain("point-case geodesic left the domain")
    # psi(t v) at every row of every lane in one call; a lane's repeated
    # rows after it finished repeat its last residual
    expected = psi((traj.times[:, :, None] * V).reshape(-1, n))
    worst = np.max(np.linalg.norm(traj.points.reshape(-1, n) - expected, axis=1))
    return g, float(worst)
