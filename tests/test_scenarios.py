import subprocess
import sys
import warnings
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
    "chi": "ComparisonMap",
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


def test_the_euler_like_stage_builds_frames_only_in_the_runs_frame(monkeypatch):
    # the Euler-like test reads the run's NormalFrame: a frame built while
    # it runs is a memo miss of that frame, never a separate build of the
    # background's frame of N
    from eulertube import scenarios, submanifolds

    frames, stray, in_stage = [], [], []
    init, build, euler = NormalFrame.__init__, submanifolds._normal_frame, scenarios.is_euler_like

    def counted_init(self, *args):
        frames.append(self)
        init(self, *args)

    def counted_build(*args):
        caller = sys._getframe(1).f_locals.get("self")
        if in_stage and not any(caller is f for f in frames):
            stray.append(args)
        return build(*args)

    def marked(*args, **kwargs):
        in_stage.append(True)
        try:
            return euler(*args, **kwargs)
        finally:
            in_stage.clear()

    monkeypatch.setattr(NormalFrame, "__init__", counted_init)
    monkeypatch.setattr(submanifolds, "_normal_frame", counted_build)
    monkeypatch.setattr(scenarios, "is_euler_like", marked)
    reports = run_scenario(scenario_from_config({"scenario": "helix", "samples": SMALL}))
    assert [(r.stage, r.passed) for r in reports] == [(s, True) for s in TUBE_STAGE_HELPERS]
    assert len(frames) == 1 and stray == []


class ChartOnly:
    """A tube chart with only what the shared stages may read: the chart,
    an inverse that delegates to a built TubularEmbedding, the frame and
    the radius, and N, the fiber dimension and the call that derive from
    them.  It has no seed table, so reading one raises AttributeError."""

    __slots__ = ("map", "invert", "frame", "delta")

    def __init__(self, psi):
        self.map, self.frame, self.delta = psi.map, psi.frame, psi.delta
        self.invert = lambda X: psi.invert(X)

    @property
    def N(self):
        return self.frame.N

    @property
    def fiber_dim(self):
        return self.N.ambient_dim - self.N.param_dim

    def __call__(self, U, C):
        return self.map(np.concatenate([U, C], axis=1))


@pytest.mark.parametrize("name", ["flat-slice", "helix"])
def test_the_shared_stages_read_only_the_chart_and_its_inverse(name):
    # a source whose psi has no seed table gives the rows of the registered
    # embedding byte for byte: the shared stages read nothing else of psi
    from eulertube import scenarios

    scn = scenario_from_config({"scenario": name, "samples": SMALL})
    reports = []
    psi = scenarios._registered_source(scn, reports)
    scenarios._run_shared_stages(scn, ChartOnly(psi), reports)
    assert [(r.stage, r.passed) for r in reports] == [(s, True) for s in TUBE_STAGE_HELPERS]
    assert emit(reports) == emit(run_scenario(scn))


@pytest.mark.parametrize("name", ["flat-slice", "circle", "helix", "sphere-equator"])
def test_the_image_box_holds_every_seed_image(name):
    # chi's box is taken from chart values at the seed table's extremes,
    # not from the table; it holds every seed image, those at 0.175 and
    # 0.35 delta too, and each of its faces lies within the margin of the
    # seed images' own box
    from eulertube import scenarios

    psi = scenarios._registered_source(BUILTIN_SCENARIOS[name], [])
    box, S = scenarios._image_box(psi, 1e-12), psi.seed_images.T
    assert box(S).all()
    lo, hi, center = S.min(axis=0), S.max(axis=0), S.mean(axis=0)
    for j in range(S.shape[1]):
        for face in (lo[j] - 2e-12, hi[j] + 2e-12):
            x = center.copy()
            x[j] = face
            assert box(center[None]).all() and not box(x[None]).any()


def test_a_circle_of_radius_1e3_passes_every_stage():
    # the pullback Christoffel step scales with delta: a fixed 1e-3 stencil
    # spanned the tube, and the diagram ran for seconds to fail NotInDomain,
    # with the isometry stage failing the same way
    reports = run_scenario({"scenario": "circle", "delta0": 1.0e-3})
    assert [(r.stage, r.passed) for r in reports] == [(s, True) for s in TUBE_STAGE_HELPERS]
    assert reports[0].max_residual == 1.0e-3


@pytest.mark.parametrize("delta0", [1.0e-300, 1.0e-12])
def test_a_vanishing_radius_fails_the_pullback_stage_by_name(delta0):
    # the pullback curves, 0.15 delta across, have reference length 0 in
    # double precision: the stage fails by name and the run stops there,
    # where a ratio of 0 / 0 or x / 0 gave a NaN or inf row and a run of
    # minutes in the reconstruction
    reports = run_scenario({"scenario": "circle", "delta0": delta0})
    assert [(r.stage, r.passed) for r in reports] == [
        ("radius", True), ("embedding", True), ("chi", True), ("pullback", False)
    ]
    assert reports[-1].error.startswith("DegenerateSample: reference curve length 0.000e+00")


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


@pytest.mark.parametrize("delta0", [50.0, 1.0e4])
def test_a_far_sphere_radius_stops_below_the_focal_distance(delta0):
    # the equator's focal distance on the round sphere is pi/2; a fiber of
    # length 12.5 ... 1e4 wraps round the sphere and its endpoint can land
    # back in the chart box, which certified radii 50 and 1e4 that failed
    # the pullback stage
    reports = run_scenario({"scenario": "sphere-equator", "delta0": delta0})
    assert [(r.stage, r.passed) for r in reports] == [(s, True) for s in TUBE_STAGE_HELPERS]
    assert reports[0].max_residual < np.pi / 2


def test_a_huge_sphere_radius_fails_the_radius_stage_by_name():
    reports = run_scenario({"scenario": "sphere-equator", "delta0": 1.0e9})
    assert [(r.stage, r.passed) for r in reports] == [("radius", False)]
    assert reports[0].error.startswith("NoValidRadius:")


@pytest.mark.parametrize("submanifold", ["circle-arc", "circle-full"])
def test_a_circle_in_the_sphere_chart_fails_the_radius_stage_by_name(submanifold):
    # the circle's points lie partly outside the chart box; its fibers pass
    # the poles, where the closed form's velocities divided 0 by 0 and the
    # row named the RuntimeWarning rather than the missing radius
    config = {"scenario": "circle", "background": "sphere-chart", "submanifold": submanifold}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        reports = run_scenario(scenario_from_config(config))
    assert [(r.stage, r.passed) for r in reports] == [("radius", False)]
    assert reports[0].error.startswith("NoValidRadius:")


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
