"""Tests of the benchmark's own arithmetic: span self time, seed inputs,
gate margin, and agreement of the printed metrics with BENCHMARK.json."""

import json
import math
from pathlib import Path
from types import SimpleNamespace

import layers
import run
from spans import Tracer
from workloads import GRID_BAND, WORKLOADS, configs_for


class Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def at(clock, t, action):
    clock.t = t
    action()


def test_self_time_with_sibling_children():
    clock = Clock()
    tr = Tracer(clock)
    at(clock, 0, lambda: tr.open("parent"))
    at(clock, 1, lambda: tr.open("child"))
    at(clock, 3, tr.close)
    at(clock, 4, lambda: tr.open("child"))
    at(clock, 7, tr.close)
    at(clock, 10, tr.close)
    assert tr.stats["parent"].total_s == 10
    assert tr.stats["parent"].self_s == 10 - 2 - 3
    assert tr.stats["child"].calls == 2
    assert tr.stats["child"].total_s == 5
    assert tr.stats["child"].self_s == 5
    assert tr.child_calls("parent", "child") == 2


def test_self_time_with_nested_children():
    # a grandchild is covered by its parent child's interval, so it is not
    # subtracted from the outer span a second time
    clock = Clock()
    tr = Tracer(clock)
    at(clock, 0, lambda: tr.open("outer"))
    at(clock, 1, lambda: tr.open("middle"))
    at(clock, 2, lambda: tr.open("inner"))
    at(clock, 5, tr.close)
    at(clock, 6, tr.close)
    at(clock, 8, lambda: tr.open("middle"))
    at(clock, 9, tr.close)
    at(clock, 10, tr.close)
    assert tr.stats["outer"].self_s == 10 - 5 - 1
    assert tr.stats["middle"].self_s == (5 - 3) + 1
    assert tr.stats["inner"].self_s == 3
    total_self = sum(s.self_s for s in tr.stats.values())
    assert total_self == tr.stats["outer"].total_s
    assert tr.edges == {(None, "outer"): 1, ("outer", "middle"): 2, ("middle", "inner"): 1}


def test_reentrant_span_total_counts_outermost_only():
    clock = Clock()
    tr = Tracer(clock)
    at(clock, 0, lambda: tr.open("jacobian"))
    at(clock, 1, lambda: tr.open("solve"))
    at(clock, 2, lambda: tr.open("jacobian"))
    at(clock, 4, tr.close)
    at(clock, 5, tr.close)
    at(clock, 6, tr.close)
    assert tr.stats["jacobian"].calls == 2
    assert tr.stats["jacobian"].total_s == 6
    assert tr.stats["jacobian"].self_s == (6 - 4) + 2
    assert tr.stats["solve"].self_s == 4 - 2
    assert tr.depth == 0


def test_wrapper_closes_its_span_when_the_call_raises():
    tr = Tracer(Clock())

    def boom():
        raise ValueError

    wrapped = layers._spanned(boom, "boom", tr)
    try:
        wrapped()
    except ValueError:
        pass
    assert tr.depth == 0 and tr.stats["boom"].calls == 1


def test_default_seed_is_the_base_configs():
    for name, (_, base) in WORKLOADS.items():
        assert configs_for(name, 0) == base


def test_seed_draws_are_repeatable_and_stay_in_band():
    for name in WORKLOADS:
        for seed in range(1, 20):
            configs = configs_for(name, seed)
            assert configs == configs_for(name, seed)
            for config in configs:
                if "samples" in config:
                    assert config["samples"]["grid"] in GRID_BAND


def report(stage, residual, tol):
    return SimpleNamespace(stage=stage, max_residual=residual, tolerance=tol)


def test_gate_margin_skips_radius_and_caps_zero_residuals():
    reps = [report("radius", 1.0, 1.0), report("chi", 0.0, 1e-8), report("diagram", 1e-7, 1e-5)]
    assert math.isclose(run.gate_margin(reps), 2.0)
    assert run.gate_margin([report("chi", 0.0, 1e-8)]) == run.MARGIN_CAP
    assert run.gate_margin([report("chi", math.inf, 1e-8)]) == -run.MARGIN_CAP


def test_percentile_tail_leaves_ten_samples_above():
    assert run.percentile_tail(list(range(19))) is None
    tail = run.percentile_tail(list(range(40)))
    assert tail["value"] == 29 and sum(x > tail["value"] for x in range(40)) == 10


def test_printed_metrics_match_benchmark_manifest():
    manifest = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in manifest["workloads"]} == set(WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    printed = set(layers.per_layer(Tracer())) | set(layers.stage_seconds([])) | {"trace.overhead_frac"}
    per_layer = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    assert set(per_layer) == printed
    assert all(per_layer[k] == layers.unit(k) for k in printed)
