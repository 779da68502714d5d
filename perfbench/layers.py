"""Tracing of eulertube's layers from outside the package.

Each traced function is replaced by a wrapper that opens a span around the
call. The package's modules import helpers by name (``from .numerics import
solve_inverse``), so a wrapper is bound in every ``eulertube`` module that
holds the original object, not only in the module that defines it; the
self-check in ``selfcheck.py`` compares the resulting call counts with
cProfile to prove that no reference was missed. ``reports`` and ``cli`` are
not traced: their cost is negligible.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from contextlib import contextmanager
from typing import Dict, List, Tuple

from spans import Tracer

# (module, qualified name) of every traced function, with the span name
# "<module>.<qualified name>".
TRACED = (
    ("numerics", "solve_inverse"),
    ("numerics", "jacobian"),
    ("numerics", "ode_integrate"),
    ("metrics", "christoffel"),
    ("metrics", "exp_map"),
    ("submanifolds", "normal_space_basis"),
    ("submanifolds", "tubular_radius_estimate"),
    ("embeddings", "TubularEmbedding.invert"),
    ("embeddings", "validate_embedding"),
    ("realization", "verify_main_diagram"),
    ("realization", "isometry_geodesic_check"),
    ("realization", "curve_length"),
    ("realization", "point_case_metric"),
    ("eulerlike", "reconstruct_embedding"),
    ("eulerlike", "is_euler_like"),
    ("extension", "sigma"),
    ("extension", "sigma_inverse"),
)

ODE = "numerics.ode_integrate"
STAGES = (
    "radius",
    "embedding",
    "chi",
    "pullback",
    "diagram",
    "isometry",
    "euler-like",
    "reconstruction",
    "point-case",
    "appendix-sigma",
    "appendix-roundtrip",
    "appendix-bundle",
)


def _spanned(fn, name: str, tracer: Tracer):
    open_, close = tracer.open, tracer.close

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        open_(name)
        try:
            return fn(*args, **kwargs)
        finally:
            close()

    return traced


def _spanned_ode(fn, name: str, tracer: Tracer):
    """Span around ode_integrate that also counts field and domain
    evaluations (by wrapping those arguments) and accepted steps (from the
    returned trajectory)."""
    signature = inspect.signature(fn)
    count = tracer.count

    def counted(f, key):
        def g(y):
            count(key)
            return f(y)

        return g

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.arguments["field"] = counted(bound.arguments["field"], f"{name}.rhs_evals")
        if bound.arguments.get("domain") is not None:
            bound.arguments["domain"] = counted(bound.arguments["domain"], f"{name}.domain_evals")
        tracer.open(name)
        try:
            traj = fn(*bound.args, **bound.kwargs)
        finally:
            tracer.close()
        count(f"{name}.steps_accepted", len(traj.times) - 1)
        return traj

    return traced


def originals() -> List[Tuple[str, object, str, object]]:
    """(span name, owner, attribute, function) for every traced function."""
    out = []
    for module, qualname in TRACED:
        owner = importlib.import_module(f"eulertube.{module}")
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        out.append((f"{module}.{qualname}", owner, attr, vars(owner)[attr]))
    return out


def _package_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "eulertube" or name.startswith("eulertube."))
    ]


@contextmanager
def traced(tracer: Tracer):
    """Bind span wrappers for every traced function; restore on exit."""
    bindings = []
    try:
        for name, owner, attr, fn in originals():
            make = _spanned_ode if name == ODE else _spanned
            wrapper = make(fn, name, tracer)
            holders = [owner] + [m for m in _package_modules() if m is not owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        bindings.append((holder, key, fn))
                        setattr(holder, key, wrapper)
        yield tracer
    finally:
        for holder, key, fn in reversed(bindings):
            setattr(holder, key, fn)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics of one traced workload cycle (spans and counters)."""
    st = tracer.stats
    c = tracer.counters

    def calls(name):
        return st[name].calls if name in st else 0

    def total(name):
        return st[name].total_s if name in st else 0.0

    def self_time(name):
        return st[name].self_s if name in st else 0.0

    m: Dict[str, float] = {}
    si, jac = "numerics.solve_inverse", "numerics.jacobian"
    m[f"{si}.calls"] = calls(si)
    m[f"{si}.total_s"] = total(si)
    m[f"{si}.self_s"] = self_time(si)
    # a Newton iteration evaluates the jacobian exactly once
    m[f"{si}.iters_per_call"] = _ratio(tracer.child_calls(si, jac), calls(si))
    m[f"{jac}.calls"] = calls(jac)
    m[f"{jac}.self_s"] = self_time(jac)
    rhs = c.get(f"{ODE}.rhs_evals", 0)
    accepted = c.get(f"{ODE}.steps_accepted", 0)
    m[f"{ODE}.calls"] = calls(ODE)
    m[f"{ODE}.total_s"] = total(ODE)
    m[f"{ODE}.rhs_evals"] = rhs
    m[f"{ODE}.domain_evals"] = c.get(f"{ODE}.domain_evals", 0)
    m[f"{ODE}.steps_accepted"] = accepted
    # derived: one field evaluation starts each integration and every
    # Dormand-Prince attempt makes six more
    m[f"{ODE}.accept_ratio"] = _ratio(6 * accepted, rhs - calls(ODE))
    for name in ("metrics.christoffel", "metrics.exp_map",
                 "embeddings.TubularEmbedding.invert",
                 "extension.sigma", "extension.sigma_inverse"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.total_s"] = total(name)
    nsb = "submanifolds.normal_space_basis"
    m[f"{nsb}.calls"] = calls(nsb)
    m[f"{nsb}.total_s"] = total(nsb)
    m[f"{nsb}.self_s"] = self_time(nsb)
    for name in ("submanifolds.tubular_radius_estimate",
                 "embeddings.validate_embedding",
                 "realization.verify_main_diagram",
                 "realization.isometry_geodesic_check",
                 "realization.curve_length",
                 "realization.point_case_metric",
                 "eulerlike.reconstruct_embedding",
                 "eulerlike.is_euler_like"):
        m[f"{name}.total_s"] = total(name)
    return m


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith((".calls", "_evals", ".steps_accepted")):
        return "count"
    if name.endswith(".iters_per_call"):
        return "iter/call"
    if name.endswith((".accept_ratio", ".overhead_frac")):
        return "ratio"
    return "s"


def stage_seconds(reports) -> Dict[str, float]:
    """Seconds per pipeline stage, summed over the scenarios of one cycle,
    read from the reports' own runtime field."""
    out = {f"scenarios.stage.{s}.s": 0.0 for s in STAGES}
    for r in reports:
        out[f"scenarios.stage.{r.stage}.s"] += r.runtime_ms / 1e3
    return out
