"""Realizing an embedding by the normal exponential map of a constructed
metric: the comparison diffeomorphism, the pullback metric, and the
commutative-diagram / isometry verifications."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .embeddings import TubularEmbedding
from .errors import (
    DecompositionFailure,
    DomainMargin,
    HypothesisFailure,
    NotInDomain,
)
from .metrics import MetricField, euclidean_metric, exp_map, geodesic, levi_civita
from .numerics import Array, DifferentiableMap, as_lanes, solve_inverse
from .submanifolds import (
    ParametrizedSubmanifold,
    normal_representative,
    normal_space_basis,
)


@dataclass(frozen=True)
class CorrectionMap:
    """Tangent-valued correction of the comparison map's differential on the
    normal space: d(chi) v = v + J @ (eta @ c) for v with frame coordinates c."""

    u: Array
    eta: Array  # (k, n-k): normal-frame coords -> tangent-frame coords
    tangent_basis: Array  # (n, k)
    frame: Array  # (n, n-k)

    def apply(self, v) -> Array:
        """Tangent correction for an ambient normal vector v (frame span)."""
        c = np.linalg.lstsq(self.frame, np.asarray(v, float), rcond=None)[0]
        return self.tangent_basis @ (self.eta @ c)


@dataclass(frozen=True)
class ComparisonMap:
    """The comparison map chi = phi o psi^{-1} on the image of psi.

    ``chart`` is psi's map (u, c) -> x and ``target`` phi's map
    (u, c) -> y on the same frame coordinates; ``preimage`` solves
    chart(uc) = x.  ``preimage`` is a pure function of x, so chi(x) does not
    depend on what was evaluated before.  ``preimage`` takes lanes (B, n)
    and returns (B, k+m); ``domain`` takes lanes and returns a (B,) bool
    mask.  chi and its jacobian take lanes or one point (n,), as a batch of
    one.
    """

    chart: DifferentiableMap
    target: DifferentiableMap
    preimage: Callable[[Array], Array]
    domain: Optional[Callable[[Array], Array]] = None

    @property
    def domain_dim(self) -> int:
        return self.chart.codomain_dim

    def __call__(self, x) -> Array:
        X, single = as_lanes(x, self.domain_dim)
        Y = self.target(self.preimage(X))
        return Y[0] if single else Y

    def jacobian(self, x) -> Array:
        """Dchi(x) by the chain rule, Dphi(uc) Dpsi(uc)^{-1} at the preimage
        uc, which avoids nesting Newton solves inside finite differences."""
        X, single = as_lanes(x, self.domain_dim)
        UC = self.preimage(X)
        D = self.target.jacobian(UC) @ np.linalg.inv(self.chart.jacobian(UC))
        return D[0] if single else D


def build_chi(
    psi: TubularEmbedding,
    phi: TubularEmbedding,
    invert_tol: float = 1e-12,
    domain: Optional[Callable[[Array], Array]] = None,
) -> ComparisonMap:
    """The comparison map chi = phi o psi^{-1}; each evaluation inverts psi
    by a Newton solve from its seed table, one lane per point."""
    return ComparisonMap(
        chart=psi.map,
        target=phi.map,
        preimage=lambda x: psi.invert(x, tol=invert_tol),
        domain=domain,
    )


def correction_eta(
    chi: DifferentiableMap,
    g_ref: MetricField,
    N: ParametrizedSubmanifold,
    u,
    tol: float = 1e-6,
) -> CorrectionMap:
    """Decompose d(chi) at p(u) on normal frame vectors as identity plus a
    tangent-valued part; the non-tangent residual must vanish within tol."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    p = N.point(u)
    D = chi.jacobian(p)
    J = N.tangent_basis(u)
    B = normal_space_basis(g_ref, N, u)
    k, m = J.shape[1], B.shape[1]
    basis = np.column_stack([J, B])
    eta = np.empty((k, m))
    for j in range(m):
        v = B[:, j]
        r = D @ v - v
        coef = np.linalg.solve(basis, r)
        if float(np.linalg.norm(coef[k:])) > tol:
            raise DecompositionFailure(
                f"normal residual {np.linalg.norm(coef[k:]):.3e} above {tol:.1e} at u={u}"
            )
        eta[:, j] = coef[:k]
    return CorrectionMap(u=u, eta=eta, tangent_basis=J, frame=B)


def pullback_metric(
    chi: ComparisonMap,
    g_ref: MetricField,
    name: str = "pullback",
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
        name=name,
        fd_step=fd_step,
        christoffel_fn=gamma,
    )


@dataclass(frozen=True)
class DiagramReport:
    """Residuals of the commutative-diagram check over a sample set."""

    sample_count: int
    max_residual: float
    mean_residual: float


def verify_main_diagram(
    psi: TubularEmbedding,
    g: MetricField,
    samples: Sequence[Tuple[Array, Array]],
    exp_tol: float = 1e-9,
) -> DiagramReport:
    """Check that the normal exponential map of the constructed metric sends
    the g-normal representative of each frame class back onto psi.

    ``samples`` is a sequence of (u, c) frame coordinates inside the
    certified tube.  The samples are lanes: one frame build, one normal
    projection and one exponential map for all of them.
    """
    U = np.array([np.atleast_1d(np.asarray(u, dtype=float)) for u, _ in samples])
    C = np.array([np.atleast_1d(np.asarray(c, dtype=float)) for _, c in samples])
    fp = psi.frame.at(U)
    lam = normal_representative(g, psi.N, U, (fp.B @ C[:, :, None])[:, :, 0])
    y = exp_map(g, fp.p, lam, tol=exp_tol)
    residuals = np.linalg.norm(y - psi.map(np.concatenate([U, C], axis=1)), axis=1)
    return DiagramReport(
        sample_count=len(residuals),
        max_residual=float(np.max(residuals)),
        mean_residual=float(np.mean(residuals)),
    )


def isometry_geodesic_check(
    chi: DifferentiableMap,
    g: MetricField,
    g_ref: MetricField,
    N: ParametrizedSubmanifold,
    u,
    v_normal,
    t_samples=(0.25, 0.5, 0.75, 1.0),
    exp_tol: float = 1e-9,
):
    """Max over t of |exp_ref(t (v + eta(v))) - chi(exp_g(t v))| for a
    g-normal vector v at p(u): a float for one base point u (k,) and v
    (n,), a (B,) array for lanes u (B, k) and v (B, n).

    Every pair (u, t) is a lane of one exponential map on g and one on
    g_ref, and chi is evaluated once on all of them.
    """
    U, single = as_lanes(u, N.param_dim)
    V = np.asarray(v_normal, dtype=float).reshape(len(U), N.ambient_dim)
    p = N.point(U)
    corrected = (chi.jacobian(p) @ V[:, :, None])[:, :, 0]  # v + eta(v), as nu(chi) = id
    # lane b * T + i: base point b at parameter t_i
    T = len(t_samples)
    t = np.tile(np.asarray(t_samples, dtype=float), len(U))[:, None]
    p = np.repeat(p, T, axis=0)
    lhs = exp_map(g_ref, p, t * np.repeat(corrected, T, axis=0), tol=exp_tol)
    rhs = chi(exp_map(g, p, t * np.repeat(V, T, axis=0), tol=exp_tol))
    worst = np.max(np.linalg.norm(lhs - rhs, axis=1).reshape(len(U), T), axis=1)
    return float(worst[0]) if single else worst


def curve_length(g: MetricField, curve, dcurve, t0=0.0, t1=1.0, order: int = 24):
    """Gauss-Legendre quadrature of the g-lengths of K parametrized curves.

    ``curve`` and ``dcurve`` are called once, with the column of quadrature
    nodes t (order, 1), and return the points and velocities of every
    curve at the nodes, (K, order, n); g is evaluated at all K x order
    nodes as one lane batch.  Returns the K lengths, each summed node by
    node in order; a curve given as rows (order, n) gives a float.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    t = (0.5 * (t1 - t0) * nodes + 0.5 * (t0 + t1))[:, None]
    V = np.asarray(dcurve(t), dtype=float)
    single = V.ndim == 2
    V = V.reshape(-1, V.shape[-1])
    P = np.asarray(curve(t), dtype=float).reshape(V.shape)
    speed = np.sqrt((V[:, None, :] @ g.matrix(P) @ V[:, :, None])[:, 0, 0]).reshape(-1, order)
    total = np.zeros(len(speed))
    for w, s in zip(weights, speed.T):
        total += w * s
    lengths = 0.5 * (t1 - t0) * total
    return float(lengths[0]) if single else lengths


_POINT_TRAJ_TOL = 1e-10  # geodesic tolerance of the trajectory check
_POINT_HYPOTHESIS_TOL = 1e-6  # largest entry of Dpsi(0) - I accepted
_POINT_INVERT_TOL = 1e-13  # Newton tolerance of psi^-1


def point_case_metric(psi: DifferentiableMap, sample_vectors) -> Tuple[MetricField, float]:
    """Single-point construction: the flat metric pulled back by psi^-1, so
    the exponential map at psi(0) reproduces psi itself.

    This is ``pullback_metric`` of the comparison map with psi as chart and
    the identity as target, so g(y) = A^T A with A = Dpsi(psi^-1(y))^-1 and
    one Newton solve (seeded at y - psi(0)) per evaluation of g or of its
    Christoffel symbols.  Verifies exp(v) = psi(v) and gamma_v(t) = psi(t v)
    along the trajectories, integrated as lanes of one geodesic call;
    returns (metric, max residual).
    """
    n = psi.domain_dim
    zero = np.zeros(n)
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
    g = pullback_metric(chi, euclidean_metric(n), name="point-case", fd_step=5e-4)
    V = np.array(sample_vectors, dtype=float).reshape(-1, n)
    if len(V) == 0:
        return g, 0.0
    # the samples are lanes of one integration
    traj = geodesic(g, p, V, 1.0, _POINT_TRAJ_TOL)
    if np.any(traj.exited):
        raise NotInDomain("point-case geodesic left the domain")
    # psi(t v) at every row of every lane in one call; a lane's repeated
    # rows after it finished repeat its last residual
    expected = psi((traj.times[:, :, None] * V).reshape(-1, n))
    worst = np.max(np.linalg.norm(traj.points.reshape(-1, n) - expected, axis=1))
    return g, float(worst)
