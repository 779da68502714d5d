"""End-to-end acceptance gate: one pass/fail line per criterion."""

from dataclasses import replace
from pathlib import Path

import numpy as np

import eulertube.extension as ext
from eulertube.embeddings import TubularEmbedding, reference_embedding
from eulertube.eulerlike import is_euler_like, pushforward_field
from eulertube.metrics import MetricField, euclidean_metric, exp_map, geodesic, sphere_chart_metric
from eulertube.numerics import DifferentiableMap
from eulertube.realization import ComparisonMap, pullback_metric
from eulertube.reports import emit
from eulertube.scenarios import (
    BACKGROUNDS,
    BUILTIN_SCENARIOS,
    SUBMANIFOLDS,
    _build_psi,
)
from eulertube.submanifolds import (
    NormalFrame,
    ParametrizedSubmanifold,
    normal_space_basis,
    tubular_radius_estimate,
)
from metric_helpers import exp_differential_at_zero, polar_metric, velocity_in_domain

TUBE_SCENARIOS = ("flat-slice", "circle", "helix", "sphere-equator")


def verdict(num, title, ok):
    print(f"ACCEPTANCE {num} ({title}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({title}) failed"


def stage_map(suite_runs, name):
    return {r.stage: r for r in suite_runs[0][name]}


def test_criterion_1_main_diagram(suite_runs):
    ok = True
    runtime_ms = 0.0
    for name in TUBE_SCENARIOS:
        r = stage_map(suite_runs, name)["diagram"]
        bound = 1e-9 if name == "flat-slice" else 1e-5
        ok &= r.sample_count >= 200
        ok &= r.max_residual <= bound
        runtime_ms += r.runtime_ms
    ok &= runtime_ms <= 60_000.0
    verdict(1, "main diagram, 4 scenarios, <= 60 s", ok)


def test_criterion_2_single_point_case(suite_runs):
    r = stage_map(suite_runs, "point-2d")["point-case"]
    ok = r.sample_count == 100 and r.max_residual <= 1e-6
    verdict(2, "single-point construction", ok)


def circle_pullback_pipeline():
    scn = BUILTIN_SCENARIOS["circle"]
    gt = BACKGROUNDS[scn.background]()
    N = SUBMANIFOLDS[scn.submanifold]()
    grid = np.linspace(N.lo + 0.3, N.hi - 0.3, 7)[:, None]
    frame = NormalFrame(gt, N)
    delta = tubular_radius_estimate(frame, grid, scn.delta0)
    psi = _build_psi(scn, frame, delta)
    phi = reference_embedding(frame, delta)

    def ring(X):
        r = np.linalg.norm(X, axis=1)
        return (0.2 < r) & (r < 1.9)

    chi = ComparisonMap(chart=psi.map, target=phi, preimage=psi.invert, domain=ring)
    return gt, N, delta, pullback_metric(chi, gt)


def test_criterion_3_exponential_properties():
    ok = True
    # rescaling identity on a flat and a curved background
    for g, p, v in (
        (polar_metric(), np.array([[1.2, 0.3]]), np.array([[0.3, 0.4]])),
        (
            sphere_chart_metric(phi_bounds=(-3.1, 3.1)),
            np.array([[1.2, 0.4]]),
            np.array([[0.2, 0.5]]),
        ),
    ):
        for t in (0.25, 0.5, 0.75):
            # both sides integrate: exp_map would take the sphere's closed form
            lhs = exp_map(replace(g, exp_fn=None), p, t * v, tol=1e-11)
            rhs = geodesic(g, p, v, t, tol=1e-11).points[-1]
            ok &= np.linalg.norm(lhs - rhs) <= 1e-8

    # differential at zero is the identity on every scenario metric,
    # including a constructed pullback metric
    u = np.array([[0.2]])
    checks = [
        (euclidean_metric(2), np.zeros((1, 2))),
        (euclidean_metric(3), np.zeros((1, 3))),
        (sphere_chart_metric(), np.array([[1.4, 1.0]])),
    ]
    gt, N, delta, g_pull = circle_pullback_pipeline()
    checks.append((g_pull, N.point(u)))
    for g, p0 in checks:
        D = exp_differential_at_zero(g, p0)[0]
        ok &= np.max(np.abs(D - np.eye(g.dim))) <= 1e-5

    # star-shapedness of the accepted-velocity set: v and t v are lanes
    star_cases = [
        (sphere_chart_metric(), np.array([[1.4, 1.0]]), np.array([[0.4, 0.3]])),
        (euclidean_metric(2), np.zeros((1, 2)), np.array([[5.0, -3.0]])),
    ]
    B = normal_space_basis(g_pull, N, u)
    star_cases.append((g_pull, N.point(u), 0.4 * delta * B[:, :, 0]))
    t = np.array([1.0, 0.25, 0.5, 0.75])[:, None]
    for g, p0, v in star_cases:
        ok &= velocity_in_domain(g, np.repeat(p0, len(t), axis=0), t * v).all()
    verdict(3, "exponential map properties", ok)


def test_criterion_4_euler_like_round_trip(suite_runs):
    ok = True
    for name in TUBE_SCENARIOS:
        stages = stage_map(suite_runs, name)
        ok &= stages["euler-like"].max_residual <= 1e-5
        ok &= stages["reconstruction"].max_residual <= 1e-4

    # the doubled radial field is not Euler-like and must be rejected hard
    chart = DifferentiableMap(0, 2, lambda U: np.zeros((len(U), 2)))
    origin = ParametrizedSubmanifold(chart)
    doubled = DifferentiableMap(2, 2, lambda x: 2.0 * x)
    accepted, res = is_euler_like(doubled, NormalFrame(euclidean_metric(2), origin), np.zeros((1, 0)))
    ok &= (not accepted) and res >= 0.9
    verdict(4, "Euler-like bijection round trip", ok)


def test_criterion_5_reference_metric_independence():
    chart = DifferentiableMap(
        1,
        2,
        lambda U: np.concatenate([U, 0.0 * U], axis=1),
        jac=lambda U: np.tile([[1.0], [0.0]], (len(U), 1, 1)),
    )
    N = ParametrizedSubmanifold(chart)
    g_euc = euclidean_metric(2)

    def skew(X):
        G = np.empty((len(X), 2, 2))
        G[:, 0, 0] = 1.0 + 0.5 * X[:, 1] ** 2
        G[:, 0, 1] = G[:, 1, 0] = 0.4 * X[:, 1]
        G[:, 1, 1] = 2.0 + X[:, 0] ** 2
        return G

    g_skew = MetricField(dim=2, matrix_fn=skew)
    fn = lambda UC: np.stack([UC[:, 0] + 0.2 * UC[:, 1], UC[:, 1] + 0.05 * UC[:, 1] ** 2], axis=1)
    psi = TubularEmbedding(
        map=DifferentiableMap(2, 2, fn),
        frame=NormalFrame(g_euc, N),
        delta=1.0,
        seed_grid=np.linspace(-0.8, 0.8, 9)[:, None],
    )
    X = pushforward_field(psi)
    grid = np.array([[-0.5], [0.0], [0.4], [0.8]])
    ok_a, res_a = is_euler_like(X, NormalFrame(g_euc, N), grid)
    ok_b, res_b = is_euler_like(X, NormalFrame(g_skew, N), grid)
    ok = (ok_a == ok_b) and abs(res_a - res_b) <= 1e-9
    verdict(5, "reference-metric independence", ok)


def test_criterion_6_appendix_suite(suite_runs):
    stages = stage_map(suite_runs, "appendix")
    ok = stages["appendix-sigma"].max_residual <= 1e-9
    ok &= stages["appendix-roundtrip"].max_residual <= 1e-12

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
    for a in (-0.4, 0.1, 0.6):
        p = np.array([[a, -a / 2]])
        d = region.delta(p)[:, None]
        vhat = np.array([[0.8, -0.6]])
        vhat = vhat / region.fiber_norm(p, vhat)[:, None]
        # identity on W' exactly, extension agrees bitwise there
        v_core = 0.3 * d * vhat
        _, vb = ext.bundle_diffeo(region, p, v_core)
        ok &= np.array_equal(vb, v_core)
        ok &= np.array_equal(F_t(p, v_core), F(p, v_core))
        # inverse-after-forward near the boundary
        v_edge = 0.95 * d * vhat
        pb, vb = ext.bundle_diffeo(region, p, v_edge)
        _, vr = ext.bundle_diffeo_inverse(region, pb, vb)
        ok &= np.max(np.abs(vr - v_edge)) <= 1e-12
    verdict(6, "gluing-profile appendix suite", ok)


def test_criterion_7_isometry_checks(suite_runs):
    ok = True
    for name in TUBE_SCENARIOS:
        stages = stage_map(suite_runs, name)
        ok &= stages["isometry"].max_residual <= 1e-5
        ok &= stages["pullback"].max_residual <= 1e-6
        ok &= stages["pullback"].sample_count == 20
    verdict(7, "isometry and curve lengths", ok)


def test_criterion_8_focal_distances(suite_runs):
    circle_delta = stage_map(suite_runs, "circle")["radius"].max_residual
    sphere_delta = stage_map(suite_runs, "sphere-equator")["radius"].max_residual
    ok = 0.0 < circle_delta < 1.0 and 0.0 < sphere_delta < np.pi / 2
    verdict(8, "focal-distance sanity", ok)


def test_criterion_9_determinism(suite_runs, tmp_path):
    first, second = suite_runs
    paths = []
    for i, run in enumerate((first, second)):
        flat = [r for name in run for r in run[name]]
        path = tmp_path / f"suite-{i}.tsv"
        emit(flat, path=str(path))
        paths.append(path)
    ok = paths[0].read_bytes() == paths[1].read_bytes()
    verdict(9, "bitwise-deterministic reports", ok)


# every non-radius row of the default suite, as the frame jet left it; a
# change that moves a row must record its new value here, which review sees
RECORDED = Path(__file__).with_name("recorded_residuals.tsv")
# a row at rounding level (0, 1e-16, 4e-40) may move by a few ulps of 1
# between platforms, so no bound is below this
RESIDUAL_FLOOR = 1e-14


def test_criterion_10_residuals_stay_near_their_record(suite_runs):
    header, *rows = RECORDED.read_text().splitlines()
    assert header.split("\t") == ["scenario", "stage", "max_residual"]
    recorded = {}
    for line in rows:
        scenario, stage, value = line.split("\t")
        recorded[scenario, stage] = float(value)
    seen = {
        (r.scenario, r.stage): r
        for reports in suite_runs[0].values()
        for r in reports
        if r.stage != "radius"
    }
    ok = set(seen) == set(recorded)
    for key, r in seen.items():
        bound = max(2.0 * recorded.get(key, -1.0), RESIDUAL_FLOOR)
        ok &= r.passed and r.max_residual <= bound
    verdict(10, "residuals within 2x their record", ok)
