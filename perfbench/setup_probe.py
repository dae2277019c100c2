"""Print the set-up time of one workload, measured in this fresh process.

Set-up is the import of the package, building the problem and one untimed
depth-1 warm-up call.  ``run.py`` starts this script several times per run
and reports the median as ``setup_s``.

Usage: python3 perfbench/setup_probe.py <workload>
"""

import sys
import time
from pathlib import Path


def main(name: str) -> float:
    start = time.perf_counter()
    import workloads  # the package import is part of what is timed

    workloads.warm_up(workloads.WORKLOADS[name])
    return time.perf_counter() - start


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    print(repr(main(sys.argv[1])))
