"""Per-scenario totals and heaviest stages of the built-in scenarios at their
default configs (the ROADMAP's re-anchor table), median of three passes
over the default suite.

    python3 perfbench/scenario_table.py
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

PASSES = 3


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from eulertube.scenarios import default_suite, run_scenario

    totals, stages = {}, {}
    for _ in range(PASSES):
        for name in default_suite():
            t = time.perf_counter()
            reports = run_scenario(name)
            totals.setdefault(name, []).append(time.perf_counter() - t)
            if not all(r.passed for r in reports):
                print(f"{name}: a stage failed", file=sys.stderr)
                return 1
            for r in reports:
                stages.setdefault(name, {}).setdefault(r.stage, []).append(r.runtime_ms / 1e3)
    print("| scenario | total | heaviest stages |")
    print("|---|---|---|")
    for name, ts in totals.items():
        med = {s: statistics.median(v) for s, v in stages[name].items()}
        top = sorted(med.items(), key=lambda kv: -kv[1])[:3]
        heavy = ", ".join(f"{s} {v:.2f} s" for s, v in top)
        print(f"| {name} | {statistics.median(ts):.2f} s | {heavy} |")
    print(f"suite: {sum(statistics.median(ts) for ts in totals.values()):.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
