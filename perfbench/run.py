"""The eulertube benchmark.

    python3 perfbench/run.py --workload helix-frame --seed 0 --seconds 40 --trace 0

One process, one client, a closed loop: the workload's scenarios run one
after another through ``eulertube.scenarios.run_scenario``, a cycle of all
of them at a time, until the next cycle would end after ``--seconds`` (at
least two cycles, so every run has a repeat to compare).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates an
untraced and a traced cycle and reports the per-layer metrics: spans around
the calls into each module (``layers.py``), stage times from the reports,
and the tracing overhead.

Every run checks its outputs: each stage of each scenario must pass its
gate, and every repeat's TSV report (``reports.emit``, runtime excluded)
must equal the first one byte for byte, traced cycles included. The last
line of standard output is the result as one JSON object; the line before
it holds the details (environment, inputs, per-run times).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import layers
from spans import Tracer
from workloads import WORKLOADS, configs_for

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

EXPECTED_STAGES = {"tube": 8, "point": 1, "appendix": 3}
SETUP_PROBES = 5
# a stage with a zero residual counts as this many decades below its gate
MARGIN_CAP = 16.0
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "run_s.p50": "s",
    "gate_margin_decades": "decades",
    "report_identical": "fraction",
    "peak_rss_mb": "MB",
}


def git_head():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import mpmath
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_head": git_head(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
    }


def setup_seconds(workload: str, seed: int):
    """Import-and-resolve time, measured in fresh interpreters."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
            cwd=ROOT,
        )
        out.append(float(proc.stdout.split()[-1]))
    return out


def percentile_tail(values):
    """The highest percentile with at least ten samples above it, or None
    when that percentile would lie below the median."""
    xs = sorted(values)
    n = len(xs)
    if n < 20:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": xs[n - 11], "n": n}


def gate_margin(reports) -> float:
    """min over stages of log10(tolerance / max_residual), in decades.

    The radius stage is left out: its residual is the certified radius and
    its tolerance the initial radius, so it passes by construction and its
    margin says nothing about accuracy.
    """
    worst = MARGIN_CAP
    for r in reports:
        if r.stage == "radius":
            continue
        if not math.isfinite(r.max_residual):
            margin = -MARGIN_CAP
        elif r.max_residual <= 0.0:
            margin = MARGIN_CAP
        else:
            margin = min(MARGIN_CAP, math.log10(r.tolerance / r.max_residual))
        worst = min(worst, margin)
    return worst


class Cycle:
    """One pass over the workload's scenarios."""

    def __init__(self, scenarios, run_scenario, emit):
        self.runs = []  # (scenario name, seconds, reports, error class or None)
        self.tsv = []
        t0 = time.perf_counter()
        for scn in scenarios:
            t = time.perf_counter()
            try:
                reports, error = run_scenario(scn), None
            except Exception as exc:  # a crashing scenario is a failed run, not a crashed benchmark
                traceback.print_exc()
                reports, error = [], type(exc).__name__
            seconds = time.perf_counter() - t
            self.runs.append((scn.name, seconds, reports, error))
            self.tsv.append(emit(reports) if error is None else f"raised {error}\n")
        self.wall = time.perf_counter() - t0

    @property
    def reports(self):
        return [r for _, _, reports, _ in self.runs for r in reports]


def tally(cycles, scenarios):
    """(stages attempted, stages failed) over all cycles; a stage that never
    ran because an earlier one raised counts as failed."""
    attempted = failed = 0
    for cycle in cycles:
        for scn, (_, _, reports, _) in zip(scenarios, cycle.runs):
            expected = EXPECTED_STAGES[scn.kind]
            attempted += expected
            failed += expected - min(expected, sum(r.passed for r in reports))
    return attempted, failed


def identical_share(cycles, reference):
    """Share of scenario runs in ``cycles`` whose TSV equals ``reference``'s."""
    same = total = 0
    for cycle in cycles:
        for tsv, ref in zip(cycle.tsv, reference.tsv):
            total += 1
            same += tsv == ref
    return same / total if total else 0.0


def closed_loop(seconds: float, min_rounds: int, one_round) -> None:
    """Run rounds back to back until the next one would end after
    ``seconds`` (predicted from the median round so far)."""
    start = time.perf_counter()
    walls = []
    while True:
        t = time.perf_counter()
        one_round()
        walls.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        if len(walls) >= min_rounds and elapsed + statistics.median(walls) > seconds:
            return


def measure_untraced(scenarios, seconds, run_scenario, emit):
    cycles = []
    closed_loop(seconds, 2, lambda: cycles.append(Cycle(scenarios, run_scenario, emit)))
    run_times = {}
    for c in cycles:
        for name, s, _, _ in c.runs:
            run_times.setdefault(name, []).append(s)
    identical = identical_share(cycles[1:], cycles[0])
    metrics = {
        "wall_s": statistics.median(c.wall for c in cycles),
        # per-scenario medians, averaged over the workload's scenarios: the
        # median of pooled runs of two scenarios run equally often falls in
        # the gap between them and jumps with either one's noise
        "run_s.p50": statistics.mean(statistics.median(v) for v in run_times.values()),
        "gate_margin_decades": min(gate_margin(c.reports) for c in cycles),
        "report_identical": identical,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "cycles": [c.wall for c in cycles],
        "runs": [[name, s, err] for c in cycles for name, s, _, err in c.runs],
        "run_s": {
            name: {"n": len(v), "p50": statistics.median(v), "max": max(v), "tail": percentile_tail(v)}
            for name, v in run_times.items()
        },
    }
    return cycles, metrics, identical == 1.0, detail


def measure_traced(scenarios, seconds, run_scenario, emit):
    plain, traced, tracers = [], [], []

    def one_round():
        plain.append(Cycle(scenarios, run_scenario, emit))
        tracer = Tracer()
        with layers.traced(tracer):
            traced.append(Cycle(scenarios, run_scenario, emit))
        tracers.append(tracer)

    closed_loop(seconds, 1, one_round)
    per_cycle = [layers.per_layer(t) for t in tracers]
    # counts must repeat exactly (checked below), so they are reported as is
    metrics = {
        k: v if layers.unit(k) == "count" else statistics.median(m[k] for m in per_cycle)
        for k, v in per_cycle[0].items()
    }
    stages = [layers.stage_seconds(c.reports) for c in plain]
    metrics.update({k: statistics.median(s[k] for s in stages) for k in stages[0]})
    untraced_wall = statistics.median(c.wall for c in plain)
    metrics["trace.overhead_frac"] = statistics.median(c.wall for c in traced) / untraced_wall - 1.0
    counts_repeat = all(t.counts() == tracers[0].counts() for t in tracers)
    identical = identical_share(plain[1:] + traced, plain[0])
    detail = {
        "cycles": [c.wall for c in plain],
        "traced_cycles": [c.wall for c in traced],
        "counts_repeat": counts_repeat,
        "report_identical": identical,
    }
    return plain + traced, metrics, counts_repeat and identical == 1.0, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "eulertube" / "__init__.py").is_file():
        print(f"eulertube sources not found under {SRC}", file=sys.stderr)
        return 2
    load_start = os.getloadavg()
    configs = configs_for(args.workload, args.seed)
    setup = [] if args.trace else setup_seconds(args.workload, args.seed)

    sys.path.insert(0, str(SRC))
    import eulertube
    from eulertube.reports import emit
    from eulertube.scenarios import run_scenario, scenario_from_config

    if Path(eulertube.__file__).resolve().parent != (SRC / "eulertube").resolve():
        print(f"imported eulertube from {eulertube.__file__}, not {SRC}", file=sys.stderr)
        return 2
    scenarios = [scenario_from_config(c) for c in configs]

    measure = measure_traced if args.trace else measure_untraced
    cycles, metrics, consistent, detail = measure(scenarios, args.seconds, run_scenario, emit)
    attempted, failed = tally(cycles, scenarios)

    if args.trace:
        units = {k: layers.unit(k) for k in metrics}
    else:
        metrics["setup_s"] = statistics.median(setup)
        units = END_TO_END_UNITS
        detail["setup_samples"] = setup
    detail.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        configs=configs,
        environment=environment(),
        loadavg={"start": load_start, "end": os.getloadavg()},
        stages_failed_frac=failed / attempted,
        errors=sorted({e for c in cycles for *_, e in c.runs if e}),
    )
    print("detail " + json.dumps(detail))
    result = {
        "correct": consistent and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(units)},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
