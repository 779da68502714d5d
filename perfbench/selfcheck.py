"""Trace coverage self-check (about three minutes on a 2-core machine).

    python3 perfbench/selfcheck.py

Runs the built-in ``helix`` scenario (untrimmed, default seed) once under
cProfile with the benchmark's tracing installed, and requires the traced
call count of every wrapped function to equal cProfile's ``ncalls`` for the
original function; a module that kept an unwrapped reference would show as
a shortfall. It then traces ``helix`` a second time and requires identical
counts. ``point-2d`` + ``appendix`` go through the same comparison (they
cover the point-case and extension functions that ``helix`` never calls)
and must make no normal-frame or tube-inversion calls. Prints where helix
time goes; exits 1 on any mismatch.
"""

from __future__ import annotations

import cProfile
import pstats
import sys
from pathlib import Path

import layers
from spans import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"


def traced_run(names, profile: bool):
    from eulertube.reports import emit
    from eulertube.scenarios import run_scenario

    tracer = Tracer()
    prof = cProfile.Profile() if profile else None
    tsv = []
    with layers.traced(tracer):
        if prof:
            prof.enable()
        try:
            for name in names:
                tsv.append(emit(run_scenario(name)))
        finally:
            if prof:
                prof.disable()
    ncalls = {}
    if prof:
        stats = pstats.Stats(prof).stats
        for span, _, _, fn in layers.originals():
            code = fn.__code__
            entry = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
            ncalls[span] = entry[1] if entry else 0
    return tracer, ncalls, tsv


def compare(label, tracer, ncalls) -> bool:
    ok = True
    print(f"{label}: traced calls vs cProfile ncalls")
    for span, expected in ncalls.items():
        got = tracer.stats[span].calls if span in tracer.stats else 0
        flag = "ok" if got == expected else "MISMATCH"
        ok &= got == expected
        print(f"  {span:<42} {got:>9} {expected:>9}  {flag}")
    return ok


def main() -> int:
    sys.path.insert(0, str(SRC))
    ok = True
    tracer, ncalls, tsv = traced_run(["helix"], profile=True)
    ok &= compare("helix", tracer, ncalls)
    again, _, tsv_again = traced_run(["helix"], profile=False)
    repeat = again.counts() == tracer.counts()
    print(f"helix: second traced run gives identical counts: {repeat}")
    print(f"helix: second traced run gives an identical report: {tsv_again == tsv}")
    ok &= repeat and tsv_again == tsv

    print("helix (second, unprofiled traced run): where the time goes")
    print(f"  {'span':<42} {'calls':>9} {'total_s':>9} {'self_s':>9}")
    for span, st in sorted(again.stats.items(), key=lambda kv: -kv[1].self_s):
        print(f"  {span:<42} {st.calls:>9} {st.total_s:>9.3f} {st.self_s:>9.3f}")
    for key, n in sorted(again.counters.items()):
        print(f"  {key:<42} {n:>9}")

    point, ncalls, _ = traced_run(["point-2d", "appendix"], profile=True)
    ok &= compare("point-2d + appendix", point, ncalls)
    for span in ("submanifolds.normal_space_basis", "embeddings.TubularEmbedding.invert"):
        calls = point.stats[span].calls if span in point.stats else 0
        print(f"point-2d + appendix: {span} calls = {calls}")
        ok &= calls == 0
    print("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
