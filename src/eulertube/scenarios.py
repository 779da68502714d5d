"""Built-in scenarios and the end-to-end verification pipeline."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import extension as ext
from .embeddings import (
    TubularEmbedding,
    reference_embedding,
    validate_embedding,
)
from .errors import ConfigError
from .eulerlike import is_euler_like, pushforward_field, reconstruct_embedding
from .metrics import (
    MetricField,
    euclidean_metric,
    sphere_chart_metric,
    validate_metric,
)
from .numerics import Array, DifferentiableMap
from .realization import (
    ComparisonMap,
    build_chi,
    curve_length,
    isometry_geodesic_check,
    point_case_metric,
    pullback_metric,
    verify_main_diagram,
)
from .reports import ResidualReport
from .submanifolds import (
    NormalFrame,
    ParametrizedSubmanifold,
    RadiusFunction,
    normal_space_basis,
    tubular_radius_estimate,
)

# ---------------------------------------------------------------------------
# registries


def _box_domain(n: int, half: float):
    return lambda X: np.max(np.abs(X), axis=1) < half


BACKGROUNDS: Dict[str, Callable[[], MetricField]] = {
    "euclidean-2d": lambda: euclidean_metric(2, domain=_box_domain(2, 1e6)),
    "euclidean-3d": lambda: euclidean_metric(3, domain=_box_domain(3, 1e6)),
    "sphere-chart": lambda: sphere_chart_metric(),
}


def _curve(name: str, n: int, lo: float, hi: float, fn, jac):
    """A curve u -> p(u) in R^n on lo < u < hi, from lane formulas of the
    parameter column t (B, 1): fn(t) gives the points (B, n), jac(t) the
    tangents (B, n)."""
    chart = DifferentiableMap(1, n, fn, jac=lambda U: jac(U)[:, :, None])
    N = ParametrizedSubmanifold(
        1, n, chart, param_domain=lambda U: (lo < U[:, 0]) & (U[:, 0] < hi), name=name
    )
    return N, lo, hi


def _columns(*cols):
    return np.concatenate(cols, axis=1)


def _line_3d() -> Tuple[ParametrizedSubmanifold, float, float]:
    return _curve(
        "line-3d",
        3,
        -1.5,
        1.5,
        lambda t: _columns(t, 0.0 * t, 0.0 * t),
        lambda t: _columns(1.0 + 0.0 * t, 0.0 * t, 0.0 * t),
    )


def _circle(name: str, lo: float, hi: float):
    return _curve(
        name,
        2,
        lo,
        hi,
        lambda t: _columns(np.cos(t), np.sin(t)),
        lambda t: _columns(-np.sin(t), np.cos(t)),
    )


def _circle_arc() -> Tuple[ParametrizedSubmanifold, float, float]:
    return _circle("circle-arc", -1.25, 1.25)


def _circle_full() -> Tuple[ParametrizedSubmanifold, float, float]:
    return _circle("circle-full", -np.pi, np.pi)


_HELIX_PITCH = 0.3


def _helix_arc() -> Tuple[ParametrizedSubmanifold, float, float]:
    a = _HELIX_PITCH
    return _curve(
        "helix-arc",
        3,
        -1.2,
        1.2,
        lambda t: _columns(np.cos(t), np.sin(t), a * t),
        lambda t: _columns(-np.sin(t), np.cos(t), np.full_like(t, a)),
    )


def _sphere_equator_arc() -> Tuple[ParametrizedSubmanifold, float, float]:
    return _curve(
        "sphere-equator-arc",
        2,
        0.4,
        2.55,
        lambda t: _columns(np.full_like(t, np.pi / 2), t),
        lambda t: _columns(0.0 * t, 1.0 + 0.0 * t),
    )


SUBMANIFOLDS: Dict[str, Callable[[], Tuple[ParametrizedSubmanifold, float, float]]] = {
    "line-3d": _line_3d,
    "circle-arc": _circle_arc,
    "circle-full": _circle_full,
    "helix-arc": _helix_arc,
    "sphere-equator-arc": _sphere_equator_arc,
}


# Embedding factories build lane formulas: fn(UC) maps (B, k + m) frame
# coordinates to (B, n) points and jac(UC) to (B, n, k + m) jacobians.


def _embedding_slice_affine(frame, delta):
    a, b = 0.2, -0.1
    J = np.array([[[1.0, a, b], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]])

    def fn(UC):
        u, c1, c2 = UC[:, :1], UC[:, 1:2], UC[:, 2:]
        return _columns(u + a * c1 + b * c2, c1, c2)

    return fn, lambda UC: J.repeat(len(UC), axis=0)


def _embedding_circle_quadratic(frame, delta):
    eps = 0.1

    def pieces(UC):
        th, c = UC[:, :1], UC[:, 1:]
        cos, sin = np.cos(th), np.sin(th)
        return c, _columns(cos, sin), _columns(-sin, cos)

    def fn(UC):
        c, r, t = pieces(UC)
        return (1.0 + c) * r + eps * c * c * t

    def jac(UC):
        c, r, t = pieces(UC)
        d_th = (1.0 + c) * t + eps * c * c * (-r)
        d_c = r + 2.0 * eps * c * t
        return np.concatenate([d_th[:, :, None], d_c[:, :, None]], axis=2)

    return fn, jac


def _embedding_helix_quadratic(frame, delta):
    eps = 0.05
    dq_dc = np.array([2.0 * eps, -eps])

    def pieces(fp, UC):
        """c, the quadratic q(c) and the unit tangent t / |t|, on lanes."""
        c = UC[:, 1:]
        tan = fp.J[:, :, 0]
        nt = np.sqrt((tan[:, None, :] @ tan[:, :, None])[:, 0])
        return c, eps * (c[:, :1] ** 2 - 0.5 * c[:, 1:] ** 2), tan, nt, tan / nt

    def fn(UC):
        fp = frame.tangent(UC[:, :1])
        c, q, _, _, that = pieces(fp, UC)
        return fp.p + (fp.B @ c[:, :, None])[:, :, 0] + q * that

    def jac(UC):
        fp = frame.derivative(UC[:, :1])
        c, q, tan, nt, that = pieces(fp, UC)
        dtan = fp.dJ[:, 0, :, 0]
        dthat = (dtan - that * (that[:, None, :] @ dtan[:, :, None])[:, 0]) / nt
        d_u = tan + (fp.dB[:, 0] @ c[:, :, None])[:, :, 0] + q * dthat
        d_c = fp.B + that[:, :, None] * (c * dq_dc)[:, None, :]
        return np.concatenate([d_u[:, :, None], d_c], axis=2)

    return fn, jac


def _embedding_sphere_shear(frame, delta):
    eps = 0.1

    def fn(UC):
        u, c = UC[:, :1], UC[:, 1:]
        return _columns(np.pi / 2 + c, u + eps * c * c)

    def jac(UC):
        J = np.zeros((len(UC), 2, 2))
        J[:, 0, 1] = 1.0
        J[:, 1, 0] = 1.0
        J[:, 1, 1] = 2.0 * eps * UC[:, 1]
        return J

    return fn, jac


# name -> ((k, n) of the submanifold it is written for,
#          factory(frame, delta) -> (fn, jac), lane formulas in (u, c))
EMBEDDINGS: Dict[str, Tuple[Tuple[int, int], Callable]] = {
    "slice-affine": ((1, 3), _embedding_slice_affine),
    "circle-quadratic": ((1, 2), _embedding_circle_quadratic),
    "helix-quadratic": ((1, 3), _embedding_helix_quadratic),
    "sphere-shear": ((1, 2), _embedding_sphere_shear),
}


# ---------------------------------------------------------------------------
# scenario description


_DEFAULT_SAMPLES = {
    "grid": 9,
    "diagram_u": 20,
    "diagram_c": 10,
    "isometry": 4,
    "reconstruction": 6,
    "curves": 20,
}

_DEFAULT_TOLERANCES = {
    "radius": None,  # filled with delta0
    "embedding": 1e-6,
    "chi": 1e-8,
    "pullback": 1e-6,
    "diagram": 1e-5,
    "isometry": 1e-5,
    "euler-like": 1e-5,
    "reconstruction": 1e-4,
    "point-case": 1e-6,
    "appendix-sigma": 1e-9,
    "appendix-roundtrip": 1e-12,
    "appendix-bundle": 1e-12,
}


@dataclass(frozen=True)
class Scenario:
    """A named, fully reproducible verification configuration."""

    name: str
    kind: str = "tube"  # tube | point | appendix
    background: str = ""
    submanifold: str = ""
    embedding: str = ""
    delta0: float = 1.0
    samples: Dict[str, int] = field(default_factory=dict)
    tolerances: Dict[str, float] = field(default_factory=dict)

    def sample(self, key: str) -> int:
        return int(self.samples.get(key, _DEFAULT_SAMPLES[key]))

    def tolerance(self, stage: str) -> float:
        v = self.tolerances.get(stage, _DEFAULT_TOLERANCES.get(stage))
        if v is None:
            v = self.delta0
        return float(v)


BUILTIN_SCENARIOS: Dict[str, Scenario] = {
    "point-2d": Scenario(name="point-2d", kind="point"),
    "flat-slice": Scenario(
        name="flat-slice",
        background="euclidean-3d",
        submanifold="line-3d",
        embedding="slice-affine",
        delta0=1.0,
        tolerances={"diagram": 1e-9, "chi": 1e-9, "isometry": 1e-8},
        samples={"diagram_u": 10, "diagram_c": 20},
    ),
    "circle": Scenario(
        name="circle",
        background="euclidean-2d",
        submanifold="circle-arc",
        embedding="circle-quadratic",
        delta0=2.0,
    ),
    "helix": Scenario(
        name="helix",
        background="euclidean-3d",
        submanifold="helix-arc",
        embedding="helix-quadratic",
        delta0=0.8,
        samples={"diagram_u": 7, "diagram_c": 30},
    ),
    "sphere-equator": Scenario(
        name="sphere-equator",
        background="sphere-chart",
        submanifold="sphere-equator-arc",
        embedding="sphere-shear",
        delta0=3.0,
    ),
    "appendix": Scenario(name="appendix", kind="appendix"),
}


_CONFIG_KEYS = {"scenario", "background", "submanifold", "embedding", "delta0", "samples", "tolerances"}
_SAMPLE_KEYS = set(_DEFAULT_SAMPLES)
_TOL_KEYS = set(_DEFAULT_TOLERANCES)


def scenario_from_config(config: Dict) -> Scenario:
    """Build a scenario from a configuration mapping (strict keys)."""
    if not isinstance(config, dict):
        raise ConfigError("config root must be a mapping")
    unknown = set(config) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config key: {sorted(unknown)[0]}")
    name = config.get("scenario")
    if name is None:
        raise ConfigError("missing required field: scenario")
    if name not in BUILTIN_SCENARIOS:
        raise ConfigError(f"unknown scenario name in field 'scenario': {name!r}")
    scn = BUILTIN_SCENARIOS[name]
    updates = {}
    for key in ("background", "submanifold", "embedding"):
        if key in config:
            registry = {
                "background": BACKGROUNDS,
                "submanifold": SUBMANIFOLDS,
                "embedding": EMBEDDINGS,
            }[key]
            if config[key] not in registry:
                raise ConfigError(f"unknown {key} name in field '{key}': {config[key]!r}")
            updates[key] = config[key]
    if "delta0" in config:
        updates["delta0"] = _positive(config["delta0"], "delta0", float)
    if "samples" in config:
        s = _mapping(config["samples"], "samples", _SAMPLE_KEYS)
        s = {k: _positive(v, f"samples.{k}", int) for k, v in s.items()}
        updates["samples"] = {**scn.samples, **s}
    if "tolerances" in config:
        t = _mapping(config["tolerances"], "tolerances", _TOL_KEYS)
        t = {k: _positive(v, f"tolerances.{k}", float) for k, v in t.items()}
        updates["tolerances"] = {**scn.tolerances, **t}
    scn = replace(scn, **updates)
    if scn.kind == "tube":
        _check_dimensions(scn)
    return scn


def _mapping(value, field: str, keys) -> Dict:
    """A config section that must be a mapping with known keys."""
    if not isinstance(value, dict):
        raise ConfigError(f"field '{field}' must be a mapping")
    bad = set(value) - keys
    if bad:
        raise ConfigError(f"unknown {field} key: {sorted(bad, key=str)[0]}")
    return value


def _positive(value, field: str, kind):
    """A finite positive number of the given kind (int or float).  A boolean
    is not a number here, and an int field takes no fractional part."""
    if isinstance(value, (bool, np.bool_)):
        raise ConfigError(f"field '{field}' must be a number, got {value!r}")
    try:
        v = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"field '{field}' must be a finite number, got {value!r}") from None
    if not (math.isfinite(v) and v > 0):
        raise ConfigError(f"field '{field}' must be positive and finite, got {value!r}")
    if kind is int:
        if not v.is_integer():
            raise ConfigError(f"field '{field}' must be a whole number, got {value!r}")
        return int(v)
    return v


def _check_dimensions(scn: Scenario) -> None:
    """Reject a background, submanifold and embedding that do not fit."""
    n_bg = BACKGROUNDS[scn.background]().dim
    N = SUBMANIFOLDS[scn.submanifold]()[0]
    k_emb, n_emb = EMBEDDINGS[scn.embedding][0]
    if N.ambient_dim != n_bg:
        raise ConfigError(
            f"submanifold {scn.submanifold!r} lies in dimension {N.ambient_dim}, "
            f"background {scn.background!r} has dimension {n_bg}"
        )
    if (N.param_dim, N.ambient_dim) != (k_emb, n_emb):
        raise ConfigError(
            f"embedding {scn.embedding!r} is written for a {k_emb}-dimensional "
            f"submanifold of dimension {n_emb}, submanifold {scn.submanifold!r} "
            f"is {N.param_dim}-dimensional in dimension {N.ambient_dim}"
        )


# ---------------------------------------------------------------------------
# pipeline helpers


def _interior_grid(lo: float, hi: float, count: int, margin: float = 0.1):
    span = hi - lo
    return [np.array([v]) for v in np.linspace(lo + margin * span, hi - margin * span, count)]


def _build_psi(scn: Scenario, frame: NormalFrame, delta: RadiusFunction) -> TubularEmbedding:
    fn, jac = EMBEDDINGS[scn.embedding][1](frame, delta)
    N = frame.N
    k = N.param_dim
    m = N.ambient_dim - k

    def in_domain(UC):
        u, c = UC[:, :k], UC[:, k:]
        return N.in_param_domain(u) & (np.sqrt((c * c).sum(axis=1)) < 1.2 * delta(u))

    psi_map = DifferentiableMap(
        domain_dim=k + m,
        codomain_dim=N.ambient_dim,
        fn=fn,
        jac=jac,
        fd_step=1e-6,
        domain=in_domain,
    )
    return TubularEmbedding(map=psi_map, frame=frame, delta=delta)


def _image_box(psi: TubularEmbedding, margin: float):
    """The box around psi's seed images, widened by ``margin`` on every
    side, as a lane mask."""
    lo = np.min(psi.seed_images, axis=0) - margin
    hi = np.max(psi.seed_images, axis=0) + margin
    return lambda X: np.all(X > lo, axis=1) & np.all(X < hi, axis=1)


def _fiber_directions(m: int, count: int) -> List[Array]:
    """Deterministic unit directions in the fiber: signed axes for m = 1,
    a uniform angle fan for m = 2."""
    if m == 1:
        return [np.array([1.0]), np.array([-1.0])]
    dirs = []
    for i in range(count):
        a = 2.0 * np.pi * i / count
        dirs.append(np.array([np.cos(a), np.sin(a)]))
    return dirs


def _diagram_samples(scn: Scenario, psi: TubularEmbedding, lo: float, hi: float):
    m = psi.fiber_dim
    n_u = scn.sample("diagram_u")
    n_c = scn.sample("diagram_c")
    us = _interior_grid(lo, hi, n_u, margin=0.12)
    samples = []
    if m == 1:
        half = max(1, n_c // 2)
        fracs = np.linspace(0.08, 0.72, half)
        cs = [np.array([s * f]) for f in fracs for s in (1.0, -1.0)]
    else:
        n_dir = max(4, -(-n_c // 3))
        fracs = (0.25, 0.5, 0.72)
        cs = [f * d for d in _fiber_directions(m, n_dir) for f in fracs]
    for u in us:
        d = psi.delta(u)
        for c in cs:
            samples.append((u, d * c))
    return samples


def _stage(reports, scn, stage, fn, tol, count_hint=1):
    """Run one pipeline stage, capturing failures as failed reports.

    Any exception fails the stage closed, not only the package's own
    errors: a defect in a stage helper becomes a failed row, never a
    traceback out of ``run_scenario``.
    """
    t0 = time.perf_counter()
    try:
        max_r, mean_r, count = fn()
    except Exception:
        reports.append(
            ResidualReport(
                scenario=scn.name,
                stage=stage,
                sample_count=count_hint,
                max_residual=float("inf"),
                mean_residual=float("inf"),
                tolerance=tol,
                passed=False,
                runtime_ms=(time.perf_counter() - t0) * 1e3,
            )
        )
        return None
    rep = ResidualReport(
        scenario=scn.name,
        stage=stage,
        sample_count=count,
        max_residual=max_r,
        mean_residual=mean_r,
        tolerance=tol,
        passed=max_r <= tol,
        runtime_ms=(time.perf_counter() - t0) * 1e3,
    )
    reports.append(rep)
    return rep


# ---------------------------------------------------------------------------
# stage pipelines


def _run_tube_scenario(scn: Scenario) -> List[ResidualReport]:
    reports: List[ResidualReport] = []
    gt = BACKGROUNDS[scn.background]()
    N, lo, hi = SUBMANIFOLDS[scn.submanifold]()
    grid = _interior_grid(lo, hi, scn.sample("grid"))
    frame = NormalFrame(gt, N)
    state: Dict[str, object] = {}

    def stage_radius():
        delta = tubular_radius_estimate(gt, N, grid, scn.delta0)
        state["delta"] = delta
        d = delta(grid[0])
        return d, d, len(grid)

    if _stage(reports, scn, "radius", stage_radius, scn.tolerance("radius")) is None:
        return reports
    delta: RadiusFunction = state["delta"]

    def stage_embedding():
        psi = _build_psi(scn, frame, delta)
        psi.build_seed_table(_interior_grid(lo, hi, 15, margin=0.08))
        state["psi"] = psi
        r = validate_embedding(psi, grid)
        return r, r, len(grid)

    if _stage(reports, scn, "embedding", stage_embedding, scn.tolerance("embedding")) is None:
        return reports
    psi: TubularEmbedding = state["psi"]

    def stage_chi():
        phi = reference_embedding(frame, delta)
        chi = build_chi(psi, phi, domain=_image_box(psi, 0.3 * delta(grid[0])))
        state["phi"] = phi
        state["chi"] = chi
        P = N.point(np.array(grid))
        rs = [float(np.linalg.norm(d)) for d in chi(P) - P]
        return max(rs), float(np.mean(rs)), len(rs)

    if _stage(reports, scn, "chi", stage_chi, scn.tolerance("chi")) is None:
        return reports
    chi: ComparisonMap = state["chi"]
    phi: TubularEmbedding = state["phi"]

    def stage_pullback():
        g = pullback_metric(chi, gt, name=f"{scn.name}-pullback")
        spot = [psi(u, 0.3 * delta(u) * _fiber_directions(psi.fiber_dim, 4)[0]) for u in grid]
        validate_metric(g, spot, sym_tol=1e-10)
        state["g"] = g
        rng = np.random.default_rng(20240 + len(scn.name))
        n = N.ambient_dim
        h = 1e-6
        # every curve's draws first, in the order of a curve at a time
        U0, C0, A, B = [], [], [], []
        for _ in range(scn.sample("curves")):
            u0 = np.array([rng.uniform(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo))])
            U0.append(u0)
            C0.append(0.35 * delta(u0) * _unit(rng.standard_normal(psi.fiber_dim)))
            A.append(0.15 * delta(u0) * _unit(rng.standard_normal(n)))
            B.append(0.05 * delta(u0) * _unit(rng.standard_normal(n)))
        X0 = psi(np.array(U0), np.array(C0))[:, None]
        A, B = np.array(A)[:, None], np.array(B)[:, None]
        # t is the column of quadrature nodes and a curve's points are rows,
        # so each call below is one lane batch over every node of every
        # curve: g at the nodes, chi at the nodes and at nodes +- h
        curve = lambda t: X0 + t * A + t * t * B
        dcurve = lambda t: A + 2.0 * t * B
        len_g = curve_length(g, curve, dcurve)
        img = lambda t: chi(curve(t).reshape(-1, n)).reshape(len(X0), -1, n)
        dimg = lambda t: (img(t + h) - img(t - h)) / (2.0 * h)
        len_ref = curve_length(gt, img, dimg)
        rel_errors = np.abs(len_g - len_ref) / len_ref
        return float(np.max(rel_errors)), float(np.mean(rel_errors)), len(rel_errors)

    if _stage(reports, scn, "pullback", stage_pullback, scn.tolerance("pullback")) is None:
        return reports
    g: MetricField = state["g"]

    # geodesic accuracy two orders below the stage tolerance keeps the
    # integrator noise out of the residuals without paying for digits the
    # comparison cannot see
    exp_tol = min(1e-7, 1e-2 * scn.tolerance("diagram"))

    def stage_diagram():
        samples = _diagram_samples(scn, psi, lo, hi)
        rep = verify_main_diagram(psi, g, samples, exp_tol=exp_tol)
        return rep.max_residual, rep.mean_residual, rep.sample_count

    _stage(reports, scn, "diagram", stage_diagram, scn.tolerance("diagram"))

    def stage_isometry():
        us = np.array(_interior_grid(lo, hi, scn.sample("isometry"), margin=0.2))
        v = 0.5 * delta(us)[:, None] * normal_space_basis(g, N, us)[:, :, 0]
        worst = isometry_geodesic_check(chi, g, gt, N, us, v, exp_tol=exp_tol)
        return float(np.max(worst)), float(np.mean(worst)), len(worst)

    _stage(reports, scn, "isometry", stage_isometry, scn.tolerance("isometry"))

    def stage_euler_like():
        X = pushforward_field(psi)
        state["X"] = X
        ok, res = is_euler_like(X, gt, N, grid, tol=scn.tolerance("euler-like"))
        return res, res, len(grid)

    _stage(reports, scn, "euler-like", stage_euler_like, scn.tolerance("euler-like"))

    def stage_reconstruction():
        X = state.get("X") or pushforward_field(psi)
        us = _interior_grid(lo, hi, scn.sample("reconstruction"), margin=0.25)
        dirs = _fiber_directions(psi.fiber_dim, 4)
        cs = [0.5 * delta(u) * dirs[i % max(1, psi.fiber_dim * 2)] for i, u in enumerate(us)]
        # every point's flows are lanes of one integration
        rec = reconstruct_embedding(
            X, phi, np.array(us), np.array(cs),
            t_seq=tuple(2.0**-i for i in range(1, 10)),
            tol=scn.tolerance("reconstruction"),
            flow_tol=1e-9,
        )
        residuals = [float(np.linalg.norm(r - psi(u, c))) for r, u, c in zip(rec, us, cs)]
        return max(residuals), float(np.mean(residuals)), len(residuals)

    _stage(reports, scn, "reconstruction", stage_reconstruction, scn.tolerance("reconstruction"))
    return reports


def _unit(v: Array) -> Array:
    return v / np.linalg.norm(v)


def _run_point_scenario(scn: Scenario) -> List[ResidualReport]:
    reports: List[ResidualReport] = []

    def stage_point_case():
        def fn(V):
            out = V.copy()
            out[:, 0] += 0.1 * V[:, 0] ** 2
            return out

        def jac(V):
            J = np.zeros((len(V), 2, 2))
            J[:, 0, 0] = 1.0 + 0.2 * V[:, 0]
            J[:, 1, 1] = 1.0
            return J

        psi = DifferentiableMap(2, 2, fn, jac=jac)
        rng = np.random.default_rng(7)
        count = 100
        vs = []
        for i in range(count):
            a = 2.0 * np.pi * i / count
            r = 0.25 + 0.75 * ((i * 37) % count) / count
            vs.append(r * np.array([np.cos(a), np.sin(a)]))
        _, worst = point_case_metric(psi, vs)
        return worst, worst, count

    _stage(reports, scn, "point-case", stage_point_case, scn.tolerance("point-case"))
    return reports


def _run_appendix_scenario(scn: Scenario) -> List[ResidualReport]:
    import mpmath as mp

    reports: List[ResidualReport] = []

    def stage_sigma():
        ts = np.linspace(-1 + 1e-6, 1 - 1e-6, 10_000)
        h = 1e-6
        worst = 0.0
        for t in ts:
            tt = min(max(t, -1 + 2 * h), 1 - 2 * h)
            d = (ext.sigma(tt + h) - ext.sigma(tt - h)) / (2 * h)
            worst = max(worst, 1.0 - d)
        return max(worst, 0.0), max(worst, 0.0), len(ts)

    _stage(reports, scn, "appendix-sigma", stage_sigma, scn.tolerance("appendix-sigma"))

    def stage_roundtrip():
        # both directions at 50 digits: the forward profile has slope ~1e9
        # near the interval end, so double precision cannot close the loop
        with mp.workdps(50):
            ss = [mp.mpf(v) for v in np.linspace(-1000.0, 1000.0, 201)]
            rs = [
                abs(ext.sigma(ext.sigma_inverse(s)) - s) if abs(s) > 0.5 else mp.mpf(0)
                for s in ss
            ]
            rs = [float(r) for r in rs]
        return max(rs), float(np.mean(rs)), len(rs)

    _stage(reports, scn, "appendix-roundtrip", stage_roundtrip, scn.tolerance("appendix-roundtrip"))

    def stage_bundle():
        region = ext.BundleRegion(
            base_dim=2,
            rank=2,
            bundle_metric=lambda p: np.diag([1.0 + p[0] ** 2, 2.0]),
            delta=lambda p: 0.5 + 0.1 * np.sin(p[0]),
        )
        F = lambda p, v: p + np.sin(v)
        F_t = ext.extend_map(F, region)
        worst = 0.0
        ps = [np.array([a, b]) for a in (-0.4, 0.3) for b in (-0.2, 0.5)]
        for p in ps:
            d = region.delta(p)
            for frac, direction in ((0.3, np.array([1.0, 0.4])), (0.95, np.array([-0.6, 1.0]))):
                v = direction / region.fiber_norm(p, direction) * frac * d
                pb, vb = ext.bundle_diffeo(region, p, v)
                pr, vr = ext.bundle_diffeo_inverse(region, pb, vb)
                worst = max(worst, float(np.max(np.abs(vr - v))))
                if frac < 0.5:
                    # identity on the core and bitwise extension agreement
                    if not np.array_equal(vb, v) or not np.array_equal(F_t(p, v), F(p, v)):
                        worst = max(worst, 1.0)
        return worst, worst, len(ps) * 2

    _stage(reports, scn, "appendix-bundle", stage_bundle, scn.tolerance("appendix-bundle"))
    return reports


def run_scenario(config) -> List[ResidualReport]:
    """Execute all verification stages for a scenario.

    ``config`` may be a scenario name, a Scenario, or a configuration
    mapping.  Stage errors are captured as failed reports, not crashes.
    """
    if isinstance(config, Scenario):
        scn = config
    elif isinstance(config, str):
        if config not in BUILTIN_SCENARIOS:
            raise ConfigError(f"unknown scenario name in field 'scenario': {config!r}")
        scn = BUILTIN_SCENARIOS[config]
    else:
        scn = scenario_from_config(config)
    if scn.kind == "point":
        return _run_point_scenario(scn)
    if scn.kind == "appendix":
        return _run_appendix_scenario(scn)
    # a Scenario built in code has not been through scenario_from_config
    _check_dimensions(scn)
    return _run_tube_scenario(scn)


def default_suite() -> List[str]:
    return list(BUILTIN_SCENARIOS)


# Which pipeline stage exercises each verified identity; the test suite
# checks that every stage named here shows up in the default suite's output.
COVERAGE_MANIFEST = {
    "radial-fiber-field": ("flat-slice", "euler-like"),
    "linear-approximation-identity": ("circle", "euler-like"),
    "flow-reconstruction": ("helix", "reconstruction"),
    "normal-exponential-diagram": ("sphere-equator", "diagram"),
    "pullback-isometry": ("circle", "isometry"),
    "curve-length-preservation": ("helix", "pullback"),
    "comparison-map-on-base": ("flat-slice", "chi"),
    "tube-radius-certification": ("circle", "radius"),
    "zero-section-frame-identity": ("sphere-equator", "embedding"),
    "single-point-geodesics": ("point-2d", "point-case"),
    "profile-derivative-bound": ("appendix", "appendix-sigma"),
    "profile-inverse-roundtrip": ("appendix", "appendix-roundtrip"),
    "fiberwise-diffeo-extension": ("appendix", "appendix-bundle"),
}
