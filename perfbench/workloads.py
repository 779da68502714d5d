"""The benchmark's workloads and the inputs a seed draws for them.

Every workload is a list of scenario configs in the mapping form that
``eulertube.scenarios.scenario_from_config`` accepts; the program receives
nothing else. Seed 0 is the default seed: the base configs below, in the
order written. Any other seed shuffles the order and redraws the ``grid``
sample count (radius certification, embedding, chi and Euler-like checks),
within a narrow band around its default of 9, of every config that sets
sample counts. The band is kept to stages that cost little, so the work of
a cycle moves by about one percent between seeds.

The tube configs trim the most expensive sample counts (diagram samples,
reconstruction points, pullback curves, isometry points) so that four or
more cycles of every workload fit in one measured run and the reported
medians rest on several samples; the built-in ``helix`` alone takes about
28 s on a 2-core machine. ``selfcheck.py`` runs the untrimmed built-in
``helix``.
"""

from __future__ import annotations

import copy
import random
from typing import Dict, List

_PLANAR_TRIM = {"reconstruction": 2, "curves": 10, "isometry": 2}

# name -> (why it is in the benchmark, base configs)
WORKLOADS: Dict[str, tuple] = {
    "helix-frame": (
        "helix in R^3, rank-2 normal bundle: normal frames and Newton inversion "
        "of psi dominate; frame and chi/psi-inversion changes show here",
        [
            {
                "scenario": "helix",
                "samples": {
                    "diagram_u": 4,
                    "diagram_c": 12,
                    "reconstruction": 1,
                    "curves": 6,
                    "isometry": 2,
                },
            },
        ],
    ),
    "planar-tubes": (
        "flat-slice, circle, sphere-equator: FD Christoffel, chi/Newton and DP5 "
        "dominate, frames are minor; a frame change should leave it unchanged",
        [
            {"scenario": "flat-slice", "samples": {**_PLANAR_TRIM, "diagram_u": 4}},
            {"scenario": "circle", "samples": {**_PLANAR_TRIM, "diagram_u": 6}},
            {"scenario": "sphere-equator", "samples": {**_PLANAR_TRIM, "diagram_u": 6}},
        ],
    ),
    "point-appendix": (
        "point-2d and appendix: no submanifold or chi, cold Newton in a point-case "
        "metric beside mpmath profiles; bypasses frame and chi changes, shows DP5 ones",
        [
            {"scenario": "point-2d"},
            {"scenario": "appendix"},
        ],
    ),
}

GRID_BAND = (8, 9, 10)


def configs_for(workload: str, seed: int) -> List[dict]:
    """The configs of one workload cycle for ``seed`` (deterministic)."""
    configs = copy.deepcopy(WORKLOADS[workload][1])
    if seed == 0:
        return configs
    rng = random.Random(seed)
    rng.shuffle(configs)
    for config in configs:
        if "samples" in config:
            config["samples"]["grid"] = rng.choice(GRID_BAND)
    return configs
