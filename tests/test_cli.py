import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from eulertube.cli import TOL_STAGES, main
from eulertube.errors import ConfigError
from eulertube.reports import parse
from eulertube.scenarios import BUILTIN_SCENARIOS, run_scenario, scenario_from_config


@pytest.fixture
def runner():
    return CliRunner()


class TestConfigValidation:
    def test_missing_scenario_field(self):
        with pytest.raises(ConfigError, match="scenario"):
            scenario_from_config({})

    def test_unknown_scenario_name(self):
        with pytest.raises(ConfigError, match="scenario"):
            scenario_from_config({"scenario": "torus"})

    def test_unknown_submanifold_name(self):
        with pytest.raises(ConfigError, match="submanifold"):
            scenario_from_config({"scenario": "circle", "submanifold": "lemniscate"})

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="color"):
            scenario_from_config({"scenario": "circle", "color": "red"})

    def test_unknown_tolerance_key(self):
        with pytest.raises(ConfigError, match="wobble"):
            scenario_from_config({"scenario": "circle", "tolerances": {"wobble": 0.1}})

    def test_nonpositive_values_rejected(self):
        with pytest.raises(ConfigError, match="delta0"):
            scenario_from_config({"scenario": "circle", "delta0": -1.0})
        with pytest.raises(ConfigError, match="diagram"):
            scenario_from_config({"scenario": "circle", "tolerances": {"diagram": 0.0}})

    def test_incompatible_dimensions_rejected(self):
        # helix-arc lies in R^3, the circle's background and sphere-shear
        # are two-dimensional
        with pytest.raises(ConfigError, match="helix-arc"):
            scenario_from_config(
                {"scenario": "circle", "submanifold": "helix-arc", "embedding": "sphere-shear"}
            )
        with pytest.raises(ConfigError, match="helix-quadratic"):
            scenario_from_config({"scenario": "circle", "embedding": "helix-quadratic"})
        scn = scenario_from_config({"scenario": "circle", "embedding": "sphere-shear"})
        assert scn.embedding == "sphere-shear"
        # a Scenario built in code is checked when it runs
        with pytest.raises(ConfigError, match="helix-arc"):
            run_scenario(replace(BUILTIN_SCENARIOS["circle"], submanifold="helix-arc"))

    def test_tube_keys_rejected_on_other_kinds(self):
        # only the tube pipeline reads these; a point or appendix run would
        # accept them and ignore them
        tube_only = {
            "background": "sphere-chart",
            "submanifold": "helix-arc",
            "embedding": "slice-affine",
            "delta0": 5,
            "samples": {"grid": 3},
        }
        for name in ("point-2d", "appendix"):
            for key, value in tube_only.items():
                with pytest.raises(ConfigError, match=f"'{key}'"):
                    scenario_from_config({"scenario": name, key: value})
            with pytest.raises(ConfigError, match="'background'"):
                scenario_from_config({"scenario": name, **tube_only})

    def test_tolerances_name_only_the_stages_of_the_kind(self):
        # a point run has no diagram gate, a tube run no point-case gate
        own = {"circle": "diagram", "point-2d": "point-case", "appendix": "appendix-sigma"}
        for name, stage in own.items():
            scn = scenario_from_config({"scenario": name, "tolerances": {stage: 1e-5}})
            assert scn.tolerances[stage] == 1e-5 and scn.tolerance(stage) == 1e-5
            # the radius row is gated on delta0 and takes no tolerance
            for other in set(own.values()) - {stage} | {"radius"}:
                with pytest.raises(ConfigError, match=f"tolerances key: {other}"):
                    scenario_from_config({"scenario": name, "tolerances": {other: 1e-5}})

    def test_overrides_applied(self):
        scn = scenario_from_config(
            {"scenario": "circle", "delta0": 1.0, "samples": {"grid": 5}}
        )
        assert scn.delta0 == 1.0
        assert scn.sample("grid") == 5
        # a whole number written as a float is a sample count
        assert scenario_from_config({"scenario": "circle", "samples": {"grid": 5.0}}).sample("grid") == 5
        # untouched values fall through to the builtin
        assert scn.background == BUILTIN_SCENARIOS["circle"].background


# malformed config values, each with the field its error must name
MALFORMED = {
    "delta0-text": ("delta0: abc", "delta0"),
    "delta0-nan": ("delta0: .nan", "delta0"),
    "delta0-inf": ("delta0: .inf", "delta0"),
    "samples-text": ("samples: {grid: abc}", "samples.grid"),
    "samples-inf": ("samples: {grid: .inf}", "samples.grid"),
    "samples-list": ("samples: [1, 2]", "samples"),
    "tolerances-text": ("tolerances: {diagram: abc}", "tolerances.diagram"),
    "tolerances-nan": ("tolerances: {diagram: .nan}", "tolerances.diagram"),
    "tolerances-inf": ("tolerances: {diagram: .inf}", "tolerances.diagram"),
    "tolerances-list": ("tolerances: [1.0e-5]", "tolerances"),
    "delta0-bool": ("delta0: true", "delta0"),
    "samples-fraction": ("samples: {grid: 2.5}", "samples.grid"),
    "samples-bool": ("samples: {grid: true}", "samples.grid"),
    "tolerances-bool": ("tolerances: {diagram: true}", "tolerances.diagram"),
}


class TestMalformedValuesFailClosed:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_scenario_from_config(self, case):
        line, field = MALFORMED[case]
        config = yaml.safe_load(f"scenario: circle\n{line}\n")
        with pytest.raises(ConfigError, match=field.replace(".", r"\.")):
            scenario_from_config(config)

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_check_and_run(self, runner, tmp_path, case):
        line, field = MALFORMED[case]
        cfg = tmp_path / "scn.yaml"
        cfg.write_text(f"scenario: circle\n{line}\n")
        for command in ("check", "run"):
            result = runner.invoke(main, [command, str(cfg)])
            assert result.exit_code == 1
            assert result.exception is None or isinstance(result.exception, SystemExit)
            assert field in result.output

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_run_rejects_non_finite_tol(self, runner, tol):
        result = runner.invoke(main, ["run", "circle", "--tol", tol])
        assert result.exit_code == 1
        assert "--tol" in result.output
        assert "circle\t" not in result.output


class TestCliCommands:
    def test_list(self, runner):
        result = runner.invoke(main, ["list"])
        assert result.exit_code == 0
        assert "flat-slice" in result.output
        assert "point-2d" in result.output

    def test_list_loads_no_yaml(self):
        # PyYAML is imported where a config file is parsed, not before
        probe = (
            "import sys\n"
            "from eulertube.cli import main\n"
            "main(['list'], standalone_mode=False)\n"
            "print('yaml' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        ).stdout.splitlines()
        assert "flat-slice" in out
        assert out[-1] == "False"

    def test_run_point_scenario(self, runner):
        result = runner.invoke(main, ["run", "point-2d", "--format", "records"])
        assert result.exit_code == 0
        reports = parse(result.output)
        assert len(reports) == 1
        assert reports[0].passed

    def test_run_writes_report_file(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("EULERTUBE_OUT", str(tmp_path))
        result = runner.invoke(main, ["run", "appendix", "--out", "report.tsv"])
        assert result.exit_code == 0
        on_disk = (tmp_path / "report.tsv").read_text()
        assert on_disk == result.output

    def test_run_unknown_target(self, runner):
        result = runner.invoke(main, ["run", "moebius"])
        assert result.exit_code != 0
        assert "moebius" in result.output

    def test_check_valid_config(self, runner, tmp_path):
        cfg = tmp_path / "scn.yaml"
        cfg.write_text("scenario: circle\ndelta0: 1.5\n")
        result = runner.invoke(main, ["check", str(cfg)])
        assert result.exit_code == 0
        assert "ok: circle" in result.output

    def test_check_unknown_field(self, runner, tmp_path):
        cfg = tmp_path / "scn.yaml"
        cfg.write_text("scenario: circle\nsubmanifold: lemniscate\n")
        result = runner.invoke(main, ["check", str(cfg)])
        assert result.exit_code != 0
        assert "submanifold" in result.output

    def test_check_rejects_a_tube_key_on_a_point_scenario(self, runner, tmp_path):
        cfg = tmp_path / "scn.yaml"
        cfg.write_text("scenario: point-2d\nbackground: sphere-chart\n")
        for command in ("check", "run"):
            result = runner.invoke(main, [command, str(cfg)])
            assert result.exit_code == 1
            assert "'background'" in result.output and "point-case" not in result.output

    def test_check_rejects_a_tube_tolerance_on_a_point_scenario(self, runner, tmp_path):
        cfg = tmp_path / "scn.yaml"
        cfg.write_text("scenario: point-2d\ntolerances: {diagram: 1.0e-8}\n")
        result = runner.invoke(main, ["check", str(cfg)])
        assert result.exit_code == 1
        assert "diagram" in result.output and "ok:" not in result.output

    @pytest.mark.parametrize("target", ["point-2d", "appendix"])
    def test_run_rejects_samples_on_a_target_without_samples(self, runner, target):
        result = runner.invoke(main, ["run", "circle", target, "--samples", "3"])
        assert result.exit_code == 1
        assert "--samples" in result.output and target in result.output
        assert "\t" not in result.output  # no scenario ran

    def test_incompatible_config_fails_closed(self, runner, tmp_path):
        cfg = tmp_path / "scn.yaml"
        cfg.write_text("scenario: circle\nsubmanifold: helix-arc\nembedding: sphere-shear\n")
        for command in ("check", "run"):
            result = runner.invoke(main, [command, str(cfg)])
            assert result.exit_code == 1
            assert result.exception is None or isinstance(result.exception, SystemExit)
            assert "helix-arc" in result.output

    def test_failing_stage_sets_exit_code(self, runner, tmp_path):
        # impossible tolerance: the point-case residual cannot reach 1e-300
        result = runner.invoke(main, ["run", "point-2d", "--tol", "1e-300"])
        assert result.exit_code == 1

    def test_failed_stage_error_on_stderr(self, runner, tmp_path):
        # the circle arc in the sphere chart certifies no radius: the report
        # on stdout is unchanged, the row's error goes to stderr
        cfg = tmp_path / "scn.yaml"
        cfg.write_text("scenario: circle\nbackground: sphere-chart\nsubmanifold: circle-arc\n")
        result = runner.invoke(main, ["run", str(cfg), "--format", "records"])
        assert result.exit_code == 1
        (report,) = parse(result.stdout)
        assert (report.stage, report.passed, report.error) == ("radius", False, "")
        assert result.stderr.startswith("circle radius: NoValidRadius: ")
        assert result.stderr.count("\n") == 1

    def test_repeat_run_is_bitwise_identical(self, runner):
        a = runner.invoke(main, ["run", "appendix"])
        b = runner.invoke(main, ["run", "appendix"])
        assert a.output == b.output


class TestUnreadablePaths:
    """A config or report path that cannot be read or written is a named
    error and exit 1, never a traceback."""

    @staticmethod
    def commands(tmp_path):
        latin1 = tmp_path / "latin1.yaml"
        latin1.write_bytes("scenario: circle\n# caf\xe9\n".encode("latin-1"))
        missing = tmp_path / "missing" / "r.tsv"
        return {
            "run-directory": ["run", str(tmp_path)],
            "check-directory": ["check", str(tmp_path)],
            "check-not-utf8": ["check", str(latin1)],
            "run-out-missing-dir": ["run", "point-2d", "--out", str(missing)],
        }

    @pytest.mark.parametrize(
        "case", ["run-directory", "check-directory", "check-not-utf8", "run-out-missing-dir"]
    )
    def test_named_error(self, runner, tmp_path, case):
        result = runner.invoke(main, self.commands(tmp_path)[case])
        assert result.exit_code == 1
        assert "Error:" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)

    def test_check_reads_a_file_named_like_a_builtin(self, runner, tmp_path, monkeypatch):
        # check takes a path, so a file called "circle" is read, not resolved
        # to the built-in scenario of that name
        monkeypatch.chdir(tmp_path)
        (tmp_path / "circle").write_text("scenario: torus\n")
        result = runner.invoke(main, ["check", "circle"])
        assert result.exit_code == 1
        assert "torus" in result.output


def test_tol_stages_are_the_tube_and_point_stages_but_radius():
    assert TOL_STAGES == (
        "embedding",
        "chi",
        "pullback",
        "diagram",
        "isometry",
        "euler-like",
        "reconstruction",
        "point-case",
    )
