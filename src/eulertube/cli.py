"""Command-line front end: run scenarios, list them, validate configs.

PyYAML is imported only where a config file is parsed, so listing and
running built-in scenarios never load it."""

from __future__ import annotations

import math
import os
import sys

import click

from .errors import ConfigError, IoError
from .reports import emit
from .scenarios import (
    _DEFAULT_TOLERANCES,
    BUILTIN_SCENARIOS,
    run_scenario,
    scenario_from_config,
)

OUT_ENV = "EULERTUBE_OUT"

# stages whose tolerance --tol replaces: those of the tube and point
# scenarios (the radius row is gated on delta0); the appendix-* stages keep theirs
TOL_STAGES = tuple(stage for kind in ("tube", "point") for stage in _DEFAULT_TOLERANCES[kind])


def _read_config(path: str):
    """The YAML document of a config file; a file that cannot be opened,
    decoded as UTF-8 or parsed is a ConfigError."""
    import yaml

    try:
        with open(path, encoding="utf-8") as fh:
            return yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigError(f"could not read {path}: {exc}") from exc


def _load_target(target: str):
    """Resolve a scenario name or a config file path into a run target."""
    if target in BUILTIN_SCENARIOS:
        return BUILTIN_SCENARIOS[target]
    if os.path.exists(target):
        return scenario_from_config(_read_config(target))
    raise ConfigError(f"no such scenario or config file: {target!r}")


@click.group()
def main():
    """Verify tubular embeddings against normal exponential maps."""


@main.command()
@click.argument("targets", nargs=-1, required=True)
@click.option(
    "--tol",
    type=float,
    default=None,
    help="Override the tolerance of the %s stages; the radius row keeps delta0 "
    "and appendix-* keep theirs." % ", ".join(TOL_STAGES),
)
@click.option(
    "--samples",
    type=int,
    default=None,
    help="Sets samples 'grid' (base points of the radius, embedding, chi, "
    "pullback and euler-like stages) and 'diagram_u' (base points of the "
    "diagram stage); other sample counts keep their values.",
)
@click.option("--out", default=None, help="Report file (relative paths land in $%s)." % OUT_ENV)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["table", "records"]),
    default="table",
    show_default=True,
)
def run(targets, tol, samples, out, fmt):
    """Run one or more scenarios (built-in names or config file paths)."""
    from dataclasses import replace

    if tol is not None and not (math.isfinite(tol) and tol > 0):
        raise click.ClickException("--tol must be positive and finite")
    if samples is not None and samples <= 0:
        raise click.ClickException("--samples must be positive")
    # every target is resolved and checked before any runs
    scenarios = []
    for target in targets:
        try:
            scn = _load_target(target)
        except ConfigError as exc:
            raise click.ClickException(str(exc))
        if tol is not None:
            over = {k: tol for k in TOL_STAGES}
            scn = replace(scn, tolerances={**scn.tolerances, **over})
        if samples is not None:
            if scn.kind != "tube":
                raise click.ClickException(
                    f"--samples applies to tube scenarios only, not to {scn.kind} "
                    f"scenario {scn.name!r}"
                )
            scn = replace(scn, samples={**scn.samples, "grid": samples, "diagram_u": samples})
        scenarios.append(scn)
    reports = [r for scn in scenarios for r in run_scenario(scn)]
    path = None
    if out is not None:
        base = os.environ.get(OUT_ENV, "")
        path = out if os.path.isabs(out) or not base else os.path.join(base, out)
    try:
        text = emit(reports, fmt=fmt, path=path)
    except IoError as exc:
        raise click.ClickException(f"could not write the report: {exc}")
    click.echo(text, nl=False)
    # the report leaves a failed stage's error out; name it on stderr
    for r in reports:
        if r.error:
            click.echo(f"{r.scenario} {r.stage}: {r.error}", err=True)
    if not all(r.passed for r in reports):
        sys.exit(1)


@main.command("list")
def list_():
    """List built-in scenario names."""
    for name in BUILTIN_SCENARIOS:
        click.echo(name)


@main.command()
@click.argument("path", type=click.Path(exists=True))
def check(path):
    """Validate a scenario config file without running it."""
    try:
        scn = scenario_from_config(_read_config(path))
    except ConfigError as exc:
        raise click.ClickException(str(exc))
    click.echo(f"ok: {scn.name}")


if __name__ == "__main__":
    main()
