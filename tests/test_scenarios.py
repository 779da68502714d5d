import numpy as np
import pytest

from eulertube.numerics import DifferentiableMap
from eulertube.scenarios import (
    BUILTIN_SCENARIOS,
    COVERAGE_MANIFEST,
    EMBEDDINGS,
    SUBMANIFOLDS,
    BACKGROUNDS,
    default_suite,
    run_scenario,
)
from eulertube.submanifolds import NormalFrame, RadiusFunction


def test_default_suite_contains_spec_scenarios():
    names = default_suite()
    for expected in ("point-2d", "flat-slice", "circle", "helix", "sphere-equator"):
        assert expected in names


def test_coverage_manifest_exercised_by_suite(suite_runs):
    run = suite_runs[0]
    seen = {(r.scenario, r.stage) for reports in run.values() for r in reports}
    for label, pair in COVERAGE_MANIFEST.items():
        assert pair in seen, f"{label} not exercised"


def test_all_stages_pass(suite_runs):
    for name, reports in suite_runs[0].items():
        for r in reports:
            assert r.passed, f"{name}/{r.stage}: {r.max_residual:.3e} > {r.tolerance:.3e}"


def test_flat_slice_affine_stages_are_exact(suite_runs):
    reports = {r.stage: r for r in suite_runs[0]["flat-slice"]}
    for stage in ("chi", "diagram"):
        assert reports[stage].max_residual <= 1e-9


def test_circle_residuals_below_1e4(suite_runs):
    for r in suite_runs[0]["circle"]:
        if r.stage == "radius":
            continue
        assert r.max_residual <= 1e-4


def test_reports_deterministic_across_runs(suite_runs):
    first, second = suite_runs
    for name in first:
        a = [(r.stage, r.sample_count, r.max_residual, r.mean_residual) for r in first[name]]
        b = [(r.stage, r.sample_count, r.max_residual, r.mean_residual) for r in second[name]]
        assert a == b


@pytest.mark.parametrize("name", ["slice-affine", "circle-quadratic", "sphere-shear"])
def test_embedding_analytic_jacobians_match_fd(name):
    scn = {e.embedding: e for e in BUILTIN_SCENARIOS.values() if e.embedding}[name]
    gt = BACKGROUNDS[scn.background]()
    N, lo, hi = SUBMANIFOLDS[scn.submanifold]()
    delta = RadiusFunction(fn=lambda u: 0.3, grid=[])
    fn, jac = EMBEDDINGS[name][1](NormalFrame(gt, N), delta)
    dim = N.ambient_dim
    fa = DifferentiableMap(dim, dim, fn, jac=jac)
    ffd = DifferentiableMap(dim, dim, fn)
    rng = np.random.default_rng(3)
    for _ in range(100):
        u = rng.uniform(lo + 0.2, hi - 0.2)
        c = rng.uniform(-0.2, 0.2, size=dim - 1)
        uc = np.concatenate([[u], c])
        Ja, Jf = fa.jacobian(uc), ffd.jacobian(uc)
        assert np.max(np.abs(Ja - Jf)) / max(1.0, np.max(np.abs(Ja))) <= 1e-6


def test_helix_jacobian_matches_fd():
    scn = BUILTIN_SCENARIOS["helix"]
    gt = BACKGROUNDS[scn.background]()
    N, lo, hi = SUBMANIFOLDS[scn.submanifold]()
    delta = RadiusFunction(fn=lambda u: 0.3, grid=[])
    fn, jac = EMBEDDINGS["helix-quadratic"][1](NormalFrame(gt, N), delta)
    fa = DifferentiableMap(3, 3, fn, jac=jac)
    ffd = DifferentiableMap(3, 3, fn, fd_step=1e-6)
    rng = np.random.default_rng(4)
    for _ in range(50):
        uc = np.concatenate(
            [[rng.uniform(lo + 0.2, hi - 0.2)], rng.uniform(-0.2, 0.2, size=2)]
        )
        assert np.max(np.abs(fa.jacobian(uc) - ffd.jacobian(uc))) <= 1e-5


def test_unknown_scenario_name_rejected():
    from eulertube.errors import ConfigError

    with pytest.raises(ConfigError):
        run_scenario("klein-bottle")


def test_unexpected_exception_fails_the_stage_closed(monkeypatch):
    from eulertube import scenarios

    def broken(*args, **kwargs):
        raise ValueError("defect in a stage helper")

    monkeypatch.setattr(scenarios, "point_case_metric", broken)
    reports = run_scenario("point-2d")
    assert [(r.stage, r.passed) for r in reports] == [("point-case", False)]
    assert reports[0].max_residual == float("inf")
