"""Set-up probe for run.py's setup_s: import hcat (and with it scipy),
build a workload's first inputs, then print the monotonic clock.

    python3 perfbench/setup_probe.py <workload> <seed>

run.py reads the clock before spawning this process; on Linux both read
the same system-wide CLOCK_MONOTONIC, so the difference is the time from
process start to the point where the first op could be timed.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import hcat.cli  # noqa: E402,F401  (the import is what is being timed)
from workloads import WORKLOADS  # noqa: E402

workload = WORKLOADS[sys.argv[1]](int(sys.argv[2]), HERE.parent / ".perfbench")
workload.rep(0)
print(time.monotonic())
