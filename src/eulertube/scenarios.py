"""Built-in scenarios and the end-to-end verification pipeline."""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import extension as ext
from .embeddings import (
    TubularEmbedding,
    reference_embedding,
    tube_domain,
    validate_embedding,
)
from .errors import ConfigError, DegenerateSample, NotEulerLike
from .eulerlike import is_euler_like, pushforward_field, reconstruct_embedding
from .metrics import (
    MetricField,
    euclidean_metric,
    sphere_chart_metric,
    validate_metric,
)
from .numerics import Array, DifferentiableMap, central_difference, central_stencil
from .realization import (
    ComparisonMap,
    curve_length,
    isometry_geodesic_check,
    point_case_metric,
    pullback_metric,
    verify_main_diagram,
)
from .reports import ResidualReport
from .submanifolds import (
    NormalFrame, ParametrizedSubmanifold, fiber_axis_samples, normal_space_basis,
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


def _curve(n: int, lo: float, hi: float, fn, jac) -> ParametrizedSubmanifold:
    """A curve u -> p(u) in R^n on lo < u < hi, from lane formulas of the
    parameter column t (B, 1): fn(t) gives the points (B, n), jac(t) the
    tangents (B, n)."""
    chart = DifferentiableMap(1, n, fn, jac=lambda U: jac(U)[:, :, None])
    return ParametrizedSubmanifold(chart, lo, hi)


def _columns(*cols):
    return np.concatenate(cols, axis=1)


def _line_3d() -> ParametrizedSubmanifold:
    return _curve(
        3,
        -1.5,
        1.5,
        lambda t: _columns(t, 0.0 * t, 0.0 * t),
        lambda t: _columns(1.0 + 0.0 * t, 0.0 * t, 0.0 * t),
    )


def _circle(lo: float, hi: float) -> ParametrizedSubmanifold:
    return _curve(
        2,
        lo,
        hi,
        lambda t: _columns(np.cos(t), np.sin(t)),
        lambda t: _columns(-np.sin(t), np.cos(t)),
    )


_HELIX_PITCH = 0.3


def _helix_arc() -> ParametrizedSubmanifold:
    a = _HELIX_PITCH
    return _curve(
        3,
        -1.2,
        1.2,
        lambda t: _columns(np.cos(t), np.sin(t), a * t),
        lambda t: _columns(-np.sin(t), np.cos(t), np.full_like(t, a)),
    )


def _sphere_equator_arc() -> ParametrizedSubmanifold:
    return _curve(
        2,
        0.4,
        2.55,
        lambda t: _columns(np.full_like(t, np.pi / 2), t),
        lambda t: _columns(0.0 * t, 1.0 + 0.0 * t),
    )


SUBMANIFOLDS: Dict[str, Callable[[], ParametrizedSubmanifold]] = {
    "line-3d": _line_3d,
    "circle-arc": lambda: _circle(-1.25, 1.25),
    "circle-full": lambda: _circle(-np.pi, np.pi),
    "helix-arc": _helix_arc,
    "sphere-equator-arc": _sphere_equator_arc,
}


# Embedding factories build lane formulas: fn(UC) maps (B, k + m) frame
# coordinates to (B, n) points and jac(UC) to (B, n, k + m) jacobians.


def _embedding_slice_affine(frame):
    a, b = 0.2, -0.1
    J = np.array([[[1.0, a, b], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]])

    def fn(UC):
        u, c1, c2 = UC[:, :1], UC[:, 1:2], UC[:, 2:]
        return _columns(u + a * c1 + b * c2, c1, c2)

    return fn, lambda UC: J.repeat(len(UC), axis=0)


def _embedding_circle_quadratic(frame):
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


def _embedding_helix_quadratic(frame):
    eps = 0.05
    dq_dc = np.array([2.0 * eps, -eps])

    def pieces(fp, UC):
        """c, the quadratic q(c) and the unit tangent t / |t|, on lanes."""
        c = UC[:, 1:]
        tan = fp.J[:, :, 0]
        nt = np.sqrt((tan[:, None, :] @ tan[:, :, None])[:, 0])
        return c, eps * (c[:, :1] ** 2 - 0.5 * c[:, 1:] ** 2), tan, nt, tan / nt

    # the value reads the jet too, so a Newton iterate's jacobian reuses its build
    def fn(UC):
        fp = frame.derivative(UC[:, :1])
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


def _embedding_sphere_shear(frame):
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
#          factory(frame) -> (fn, jac), lane formulas in (u, c))
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

# the stages each kind of scenario runs, with their default tolerances; a
# config's tolerances may name only the stages of its scenario's kind.  The
# radius row takes none: it reports the certified delta <= delta0 against
# delta0, so no tolerance of it would gate a later stage
_DEFAULT_TOLERANCES = {
    "tube": {
        "embedding": 1e-6,
        "chi": 1e-8,
        "pullback": 1e-6,
        "diagram": 1e-5,
        "isometry": 1e-5,
        "euler-like": 1e-5,
        "reconstruction": 1e-4,
    },
    "point": {"point-case": 1e-6},
    "appendix": {
        "appendix-sigma": 1e-9,
        "appendix-roundtrip": 1e-12,
        "appendix-bundle": 1e-12,
    },
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
        """A stage's tolerance; the radius row's is delta0, never a config's."""
        if stage == "radius":
            return float(self.delta0)
        return float(self.tolerances.get(stage, _DEFAULT_TOLERANCES[self.kind][stage]))


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


# the keys only the tube pipeline reads; a point or appendix scenario rejects them
_TUBE_KEYS = ("background", "submanifold", "embedding", "delta0", "samples")
_CONFIG_KEYS = {"scenario", "tolerances", *_TUBE_KEYS}
_SAMPLE_KEYS = set(_DEFAULT_SAMPLES)


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
    if scn.kind != "tube":
        for key in _TUBE_KEYS:
            if key in config:
                raise ConfigError(
                    f"field '{key}' applies to tube scenarios only, not to {scn.kind} "
                    f"scenario {name!r}"
                )
    updates = {}
    for key, registry in (
        ("background", BACKGROUNDS), ("submanifold", SUBMANIFOLDS), ("embedding", EMBEDDINGS)
    ):
        if key in config:
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
        t = _mapping(config["tolerances"], "tolerances", set(_DEFAULT_TOLERANCES[scn.kind]))
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
    N = SUBMANIFOLDS[scn.submanifold]()
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


def _interior_grid(N: ParametrizedSubmanifold, count: int, margin: float = 0.1) -> Array:
    """``count`` equally spaced base points of a curve N inside its interval
    (lo, hi), a ``margin`` of its length from either end, as lanes
    (count, 1)."""
    span = N.hi - N.lo
    return np.linspace(N.lo + margin * span, N.hi - margin * span, count)[:, None]


_SEED_GRID = (15, 0.08)  # the count and margin of psi's seed base points


def _build_psi(scn: Scenario, frame: NormalFrame, delta: float) -> TubularEmbedding:
    fn, jac = EMBEDDINGS[scn.embedding][1](frame)
    n = frame.N.ambient_dim
    psi_map = DifferentiableMap(
        domain_dim=n, codomain_dim=n, fn=fn, jac=jac, domain=tube_domain(frame.N, 1.2 * delta)
    )
    return TubularEmbedding(psi_map, frame, delta, _interior_grid(frame.N, *_SEED_GRID))


def _image_box(psi, margin: float):
    """The box around psi's chart values at the seed base points and the
    fiber points 0 and +-0.7 delta on each axis, the seed table's extremes,
    widened by ``margin`` on every side, as a lane mask."""
    U = _interior_grid(psi.N, *_SEED_GRID)
    cs = fiber_axis_samples(psi.fiber_dim, (0.0, 0.7), psi.delta)
    X = psi(np.repeat(U, len(cs), axis=0), np.tile(cs, (len(U), 1)))
    lo, hi = np.min(X, axis=0) - margin, np.max(X, axis=0) + margin
    return lambda X: np.all(X > lo, axis=1) & np.all(X < hi, axis=1)


def _fiber_directions(m: int, count: int) -> Array:
    """Deterministic unit directions in the fiber, as rows: signed axes for
    m = 1, a uniform angle fan of ``count`` for m = 2."""
    if m == 1:
        return np.array([[1.0], [-1.0]])
    a = 2.0 * np.pi * np.arange(count) / count
    return np.stack([np.cos(a), np.sin(a)], axis=1)


def _diagram_samples(scn: Scenario, psi: TubularEmbedding):
    """The diagram's frame coordinates as lanes U (S, k), C (S, m): every
    fiber sample at every base point, base point by base point."""
    m = psi.fiber_dim
    n_c = scn.sample("diagram_c")
    us = _interior_grid(psi.N, scn.sample("diagram_u"), margin=0.12)
    if m == 1:
        fracs = np.linspace(0.08, 0.72, max(1, n_c // 2))
        cs = np.stack([fracs, -fracs], axis=1).reshape(-1, 1)
    else:
        fracs = np.array([0.25, 0.5, 0.72])
        dirs = _fiber_directions(m, max(4, -(-n_c // 3)))
        cs = (fracs[None, :, None] * dirs[:, None, :]).reshape(-1, m)
    U = np.repeat(us, len(cs), axis=0)
    C = np.tile(psi.delta * cs, (len(us), 1))
    return U, C


def _stage(reports, scn, stage, fn):
    """Run one pipeline stage and append its report row; return what the
    stage built, or None when it failed.

    ``fn`` returns what it built and its residuals, one a sample; the row
    gives their count, maximum and mean against the scenario's tolerance
    for the stage.  The mean is kept within the residuals' range, which
    rounding can leave, so a stage that gives its worst residual for
    every sample reports it as the mean too.  Any exception fails the
    stage closed, not only the package's own errors: a defect in a stage
    helper becomes a failed row of one sample, never a traceback out of
    ``run_scenario``, and the row keeps the exception's class and message.
    """
    t0 = time.perf_counter()
    error = ""
    try:
        built, residuals = fn()
        r = np.asarray(residuals, dtype=float)
        count, max_r = len(r), float(np.max(r))
        mean_r = float(np.clip(np.mean(r), np.min(r), max_r))
    except Exception as exc:
        built, count, max_r, mean_r = None, 1, math.inf, math.inf
        error = f"{type(exc).__name__}: {exc}"
    reports.append(
        ResidualReport(
            scenario=scn.name,
            stage=stage,
            sample_count=count,
            max_residual=max_r,
            mean_residual=mean_r,
            tolerance=scn.tolerance(stage),
            runtime_ms=(time.perf_counter() - t0) * 1e3,
            error=error,
        )
    )
    return built


# ---------------------------------------------------------------------------
# stage pipelines


# Steps that scale with delta where a built-in tube's fixed one would not
# resolve a small tube.  The pullback Christoffel step is at most 1e-2 delta:
# at delta0 1e-3 a 1e-3 stencil spanned the tube, and the diagram ran 11 s to
# fail NotInDomain.  The pullback curves' step h in [1e-6, 1e-3] keeps h delta
# >= 1e-7: at h = 1e-6 rounding left 2.4e-16 / (h delta) in the reference
# lengths, 2.9e-6 at delta0 1e-4.  Below delta 1e-7 no h in the curves' [0, 1]
# reaches that; h stays 1e-6, and a vanishing radius's lengths round to 0
_GAMMA_STEP_PER_DELTA = 1e-2
_CURVE_STEP_TIMES_DELTA = 1e-7


def _registered_source(scn: Scenario, reports) -> Optional[TubularEmbedding]:
    """A registered embedding's source: the radius and embedding stages on
    N's normal frame in the background; returns psi, or None on a failure."""
    gt = BACKGROUNDS[scn.background]()
    N = SUBMANIFOLDS[scn.submanifold]()
    grid = _interior_grid(N, scn.sample("grid"))
    frame = NormalFrame(gt, N)

    def stage_radius():
        delta = tubular_radius_estimate(frame, grid, scn.delta0)
        return delta, np.full(len(grid), delta)

    def stage_embedding():
        psi = _build_psi(scn, frame, delta)
        return psi, np.full(len(grid), validate_embedding(frame, psi.map, grid))

    delta = _stage(reports, scn, "radius", stage_radius)
    return None if delta is None else _stage(reports, scn, "embedding", stage_embedding)


def _run_shared_stages(scn: Scenario, psi, reports) -> None:
    """The stages after any embedding source.  They read from psi only its
    chart ``map`` (u, c) -> x, ``invert``, ``frame`` and ``delta``, and N,
    ``fiber_dim`` and psi(U, C), which derive from those; a stage that
    fails before the diagram ends the run."""
    frame, delta, N, gt = psi.frame, psi.delta, psi.N, psi.frame.g
    grid = _interior_grid(N, scn.sample("grid"))

    def stage_chi():
        phi = reference_embedding(frame, delta)
        box = _image_box(psi, 0.3 * delta)
        chi = ComparisonMap(chart=psi.map, target=phi, preimage=psi.invert, domain=box)
        P = frame.at(grid).p
        return (phi, chi), [float(np.linalg.norm(d)) for d in chi(P) - P]

    maps = _stage(reports, scn, "chi", stage_chi)
    if maps is None:
        return
    phi, chi = maps

    def stage_pullback():
        g = pullback_metric(chi, gt, fd_step=min(1e-3, _GAMMA_STEP_PER_DELTA * delta))
        spot = np.tile(0.3 * delta * _fiber_directions(psi.fiber_dim, 4)[0], (len(grid), 1))
        validate_metric(g, psi(grid, spot))
        # the stdlib generator: numpy.random would cost a tube run 6 MB
        rng = random.Random(20240 + len(scn.name))
        normal = lambda dim: _unit(np.array([rng.gauss(0.0, 1.0) for _ in range(dim)]))
        n = N.ambient_dim
        h = _CURVE_STEP_TIMES_DELTA / delta
        h = min(1e-3, max(1e-6, h)) if h <= 1.0 else 1e-6
        # every curve's draws first, in the order of a curve at a time
        U0, C0, A, B = [], [], [], []
        for _ in range(scn.sample("curves")):
            U0.append([rng.uniform(N.lo + 0.2 * (N.hi - N.lo), N.hi - 0.2 * (N.hi - N.lo))])
            C0.append(normal(psi.fiber_dim))
            A.append(normal(n))
            B.append(normal(n))
        X0 = psi(np.array(U0), 0.35 * delta * np.array(C0))[:, None]
        A, B = (0.15 * delta * np.array(A))[:, None], (0.05 * delta * np.array(B))[:, None]
        # t is the column of quadrature nodes and a curve's points are rows,
        # so each call below is one lane batch over every node of every
        # curve: g at the nodes, chi at the nodes and at nodes +- h
        curve = lambda t: X0 + t * A + t * t * B
        dcurve = lambda t: A + 2.0 * t * B
        len_g = curve_length(g, curve, dcurve)
        img = lambda t: chi(curve(t).reshape(-1, n)).reshape(len(X0), -1, n)
        dimg = lambda t: central_difference(
            img(central_stencil(t, h).reshape(-1, 1)).reshape(-1, 2, n), h
        ).reshape(len(X0), -1, n)
        len_ref = curve_length(gt, img, dimg)
        if not np.all(np.isfinite(len_ref) & (len_ref > 0.0)):
            raise DegenerateSample(
                f"reference curve length {np.min(len_ref):.3e} at radius {delta:.3e}"
            )
        return g, np.abs(len_g - len_ref) / len_ref

    g = _stage(reports, scn, "pullback", stage_pullback)
    if g is None:
        return

    # geodesic accuracy two orders below the stage tolerance keeps the
    # integrator noise out of the residuals without paying for digits the
    # comparison cannot see
    exp_tol = min(1e-7, 1e-2 * scn.tolerance("diagram"))

    def stage_diagram():
        U, C = _diagram_samples(scn, psi)
        return None, verify_main_diagram(frame, psi.map, g, U, C, exp_tol=exp_tol)

    _stage(reports, scn, "diagram", stage_diagram)

    def stage_isometry():
        us = _interior_grid(N, scn.sample("isometry"), margin=0.2)
        # a g-normal vector at each base point: g is not the run frame's metric
        v = 0.5 * delta * normal_space_basis(g, N, us)[:, :, 0]
        return None, isometry_geodesic_check(chi, g, gt, N.point(us), v, exp_tol=exp_tol)

    _stage(reports, scn, "isometry", stage_isometry)

    X = pushforward_field(psi)

    def stage_euler_like():
        ok, res = is_euler_like(X, frame, grid, tol=scn.tolerance("euler-like"))
        if not ok:
            raise NotEulerLike(f"pushforward field fails the Euler-like test ({res:.3e})")
        return None, np.full(len(grid), res)

    _stage(reports, scn, "euler-like", stage_euler_like)

    def stage_reconstruction():
        us = _interior_grid(N, scn.sample("reconstruction"), margin=0.25)
        dirs = _fiber_directions(psi.fiber_dim, 4)
        cs = 0.5 * delta * dirs[np.arange(len(us)) % len(dirs)]
        # every point's flows are lanes of one integration
        rec = reconstruct_embedding(
            X, phi, us, cs, tol=scn.tolerance("reconstruction"), flow_tol=1e-9
        )
        return None, [float(np.linalg.norm(r)) for r in rec - psi(us, cs)]

    _stage(reports, scn, "reconstruction", stage_reconstruction)


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
        count = 100
        i = np.arange(count)
        a = 2.0 * np.pi * i / count
        r = 0.25 + 0.75 * ((i * 37) % count) / count
        _, worst = point_case_metric(psi, r[:, None] * np.stack([np.cos(a), np.sin(a)], axis=1))
        return None, np.full(count, worst)

    _stage(reports, scn, "point-case", stage_point_case)
    return reports


def _run_appendix_scenario(scn: Scenario) -> List[ResidualReport]:
    import mpmath as mp

    reports: List[ResidualReport] = []

    def stage_sigma():
        ts = np.linspace(-1 + 1e-6, 1 - 1e-6, 10_000)
        h = 1e-6
        tt = np.clip(ts, -1 + 2 * h, 1 - 2 * h)
        d = central_difference(ext.sigma(central_stencil(tt[:, None], h)), h)
        worst = max(float(np.max(1.0 - d)), 0.0)
        return None, np.full(len(ts), worst)

    _stage(reports, scn, "appendix-sigma", stage_sigma)

    def stage_roundtrip():
        # both directions at 50 digits: the forward profile has slope ~1e9
        # near the interval end, so double precision cannot close the loop
        with mp.workdps(50):
            ss = [mp.mpf(v) for v in np.linspace(-1000.0, 1000.0, 201)]
            ts = ext.sigma_inverse(ss)
            rs = [
                float(abs(ext.sigma(t) - s)) if abs(s) > 0.5 else 0.0
                for s, t in zip(ss, ts)
            ]
        return None, rs

    _stage(reports, scn, "appendix-roundtrip", stage_roundtrip)

    def stage_bundle():
        def bundle_metric(P):
            G = np.zeros((len(P), 2, 2))
            G[:, 0, 0] = 1.0 + P[:, 0] ** 2
            G[:, 1, 1] = 2.0
            return G

        region = ext.BundleRegion(
            bundle_metric=bundle_metric,
            delta=lambda P: 0.5 + 0.1 * np.sin(P[:, 0]),
        )
        F = lambda P, V: P + np.sin(V)
        F_t = ext.extend_map(F, region)
        # the 8 samples are lanes: 4 base points, each with a core vector at
        # 0.3 delta and one at 0.95 delta
        P = np.repeat([[a, b] for a in (-0.4, 0.3) for b in (-0.2, 0.5)], 2, axis=0)
        D = np.tile([[1.0, 0.4], [-0.6, 1.0]], (4, 1))
        frac = np.tile([0.3, 0.95], 4)[:, None]
        V = D / region.fiber_norm(P, D)[:, None] * frac * region.delta(P)[:, None]
        Pb, Vb = ext.bundle_diffeo(region, P, V)
        _, Vr = ext.bundle_diffeo_inverse(region, Pb, Vb)
        worst = float(np.max(np.abs(Vr - V)))
        core = frac[:, 0] < 0.5
        # identity on the core and bitwise extension agreement
        if not np.array_equal(Vb[core], V[core]) or not np.array_equal(
            F_t(P[core], V[core]), F(P[core], V[core])
        ):
            worst = max(worst, 1.0)
        return None, np.full(len(P), worst)

    _stage(reports, scn, "appendix-bundle", stage_bundle)
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
    reports: List[ResidualReport] = []
    psi = _registered_source(scn, reports)
    if psi is not None:
        _run_shared_stages(scn, psi, reports)
    return reports


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
