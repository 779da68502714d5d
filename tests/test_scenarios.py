import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from eulertube.eulerlike import pushforward_field
from eulertube.numerics import DifferentiableMap
from eulertube.reports import emit
from eulertube.scenarios import (
    BUILTIN_SCENARIOS,
    COVERAGE_MANIFEST,
    EMBEDDINGS,
    SUBMANIFOLDS,
    BACKGROUNDS,
    default_suite,
    run_scenario,
    scenario_from_config,
)
from eulertube.submanifolds import NormalFrame


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
    N = SUBMANIFOLDS[scn.submanifold]()
    fn, jac = EMBEDDINGS[name][1](NormalFrame(gt, N))
    dim = N.ambient_dim
    fa = DifferentiableMap(dim, dim, fn, jac=jac)
    ffd = DifferentiableMap(dim, dim, fn)
    rng = np.random.default_rng(3)
    for _ in range(100):
        u = rng.uniform(N.lo + 0.2, N.hi - 0.2)
        c = rng.uniform(-0.2, 0.2, size=dim - 1)
        uc = np.concatenate([[u], c])[None]
        Ja, Jf = fa.jacobian(uc), ffd.jacobian(uc)
        assert np.max(np.abs(Ja - Jf)) / max(1.0, np.max(np.abs(Ja))) <= 1e-6


def test_helix_jacobian_matches_fd():
    scn = BUILTIN_SCENARIOS["helix"]
    gt = BACKGROUNDS[scn.background]()
    N = SUBMANIFOLDS[scn.submanifold]()
    fn, jac = EMBEDDINGS["helix-quadratic"][1](NormalFrame(gt, N))
    fa = DifferentiableMap(3, 3, fn, jac=jac)
    ffd = DifferentiableMap(3, 3, fn, fd_step=1e-6)
    rng = np.random.default_rng(4)
    for _ in range(50):
        uc = np.concatenate(
            [[rng.uniform(N.lo + 0.2, N.hi - 0.2)], rng.uniform(-0.2, 0.2, size=2)]
        )[None]
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


# trimmed flat-slice samples, and the helper each tube stage calls, in
# stage order; a stage before the diagram builds what later stages use
SMALL = {"grid": 3, "diagram_u": 2, "diagram_c": 2, "isometry": 1, "reconstruction": 1, "curves": 2}
TUBE_STAGE_HELPERS = {
    "radius": "tubular_radius_estimate",
    "embedding": "validate_embedding",
    "chi": "build_chi",
    "pullback": "pullback_metric",
    "diagram": "verify_main_diagram",
    "isometry": "isometry_geodesic_check",
    "euler-like": "is_euler_like",
    "reconstruction": "reconstruct_embedding",
}


def test_euler_like_stage_fails_on_a_rejected_field(monkeypatch):
    # the pushforward field shifted by 5e-6 in every coordinate: its
    # linearization is still the identity, and |X(p(u))| = 8.7e-6 lies
    # between the vanishing bound 1e-6 and the stage tolerance 1e-5, so the
    # stage must follow the verdict, not the residual
    from eulertube import scenarios

    def shifted(psi):
        X = pushforward_field(psi)
        return DifferentiableMap(3, 3, lambda Y: X(Y) + 5e-6)

    monkeypatch.setattr(scenarios, "pushforward_field", shifted)
    reports = run_scenario(scenario_from_config({"scenario": "flat-slice", "samples": SMALL}))
    (row,) = [r for r in reports if r.stage == "euler-like"]
    assert not row.passed and row.max_residual == float("inf")
    # the row names the verdict; a passed row names nothing, and neither
    # reaches the emitted report
    assert row.error.startswith("NotEulerLike: pushforward field fails the Euler-like test (")
    assert all(r.error == "" for r in reports if r.passed)
    assert emit(reports) == emit([replace(r, error="") for r in reports])


@pytest.mark.parametrize("stage", list(TUBE_STAGE_HELPERS))
def test_a_failed_stage_stops_the_pipeline_only_before_the_diagram(stage, monkeypatch):
    from eulertube import scenarios

    def broken(*args, **kwargs):
        raise ValueError("defect in a stage helper")

    monkeypatch.setattr(scenarios, TUBE_STAGE_HELPERS[stage], broken)
    reports = run_scenario(scenario_from_config({"scenario": "flat-slice", "samples": SMALL}))
    stages = list(TUBE_STAGE_HELPERS)
    if stages.index(stage) < stages.index("diagram"):
        stages = stages[: stages.index(stage) + 1]
    assert [(r.stage, r.passed) for r in reports] == [(s, s != stage) for s in stages]
    (failed,) = [r for r in reports if r.stage == stage]
    assert failed.sample_count == 1 and failed.max_residual == float("inf")
    assert failed.error == "ValueError: defect in a stage helper"


def test_a_tube_run_builds_one_normal_frame(monkeypatch):
    # the radius stage certifies the frame that psi, phi and the embedding
    # check are built on, so a run builds no other
    from eulertube.submanifolds import NormalFrame

    built = []
    init = NormalFrame.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(NormalFrame, "__init__", counted)
    reports = run_scenario(scenario_from_config({"scenario": "flat-slice", "samples": SMALL}))
    assert [r.stage for r in reports] == list(TUBE_STAGE_HELPERS)
    assert all(r.passed for r in reports)
    assert len(built) == 1


def test_a_flat_slice_of_radius_1e6_passes_every_stage():
    # a line's tube is certified up to the edge of the background's box
    # |x| < 1e6; at delta = 9.95e5 psi's images lie where doubles are
    # 1.2e-10 apart, below the absolute 1e-12 of psi's inversion, which
    # then bounds each lane relative to its target
    config = {"scenario": "flat-slice", "delta0": 1.99e6, "samples": SMALL}
    reports = run_scenario(scenario_from_config(config))
    assert [(r.stage, r.passed) for r in reports] == [(s, True) for s in TUBE_STAGE_HELPERS]
    assert reports[0].max_residual == 9.95e5


def test_a_radius_past_the_background_domain_is_not_certified():
    # delta0 1e9 halves ten times to the first radius whose fiber samples,
    # out to fraction 1.0, all lie inside the box |x| < 1e6; a radius past
    # it failed the isometry stage, or left the diagram's geodesics at
    # steps below the spacing of doubles there for more than 45 s
    config = {"scenario": "flat-slice", "delta0": 1.0e9, "samples": SMALL}
    reports = run_scenario(scenario_from_config(config))
    assert [(r.stage, r.passed) for r in reports] == [(s, True) for s in TUBE_STAGE_HELPERS]
    assert reports[0].max_residual == 1.0e9 * 2.0**-10


def test_tube_run_loads_only_what_it_runs():
    # a tube scenario draws its pullback curves from the stdlib generator,
    # integrates with Golub-Welsch nodes and evaluates no 50-digit profile;
    # the appendix does, so it loads mpmath on first use
    probe = (
        "import sys\n"
        "from eulertube.scenarios import run_scenario, scenario_from_config\n"
        "samples = {'grid': 3, 'diagram_u': 2, 'diagram_c': 2, 'isometry': 1,\n"
        "           'reconstruction': 1, 'curves': 2}\n"
        "scn = scenario_from_config({'scenario': 'flat-slice', 'samples': samples})\n"
        "reports = run_scenario(scn)\n"
        "print(all(r.passed for r in reports), len(reports),\n"
        "      [m for m in ('mpmath', 'numpy.random', 'numpy.polynomial') if m in sys.modules])\n"
        "reports = run_scenario('appendix')\n"
        "print(all(r.passed for r in reports), len(reports), 'mpmath' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert out == ["True 8 []", "True 3 True"]
