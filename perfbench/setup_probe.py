"""Set-up probe for ``core-scaling``, run in a fresh interpreter.

``python perfbench/setup_probe.py <workload> <seed>`` imports the
program, builds every platform and engine of one pass of the workload,
then prints ``ready``.  The parent times the spawn-to-``ready`` wall
time as ``setup_s``.
"""

import sys

from common import import_repro
from workloads import platform_groups, solve_ops


def main(workload: str, seed: int) -> None:
    repro = import_repro()
    engines = [
        repro.ThermalEngine(repro.load_platform(platform))
        for platform, _ in platform_groups(solve_ops(workload, seed))
    ]
    print(f"ready {len(engines)}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
