"""Set-up time of one workload in a fresh interpreter: import eulertube and
resolve the workload's scenario configs. Prints the seconds taken.

    python3 perfbench/setup_probe.py SRC_DIR WORKLOAD SEED
"""

import sys
import time

from workloads import configs_for


def main() -> None:
    src, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    from eulertube.scenarios import scenario_from_config

    for config in configs_for(workload, seed):
        scenario_from_config(config)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
