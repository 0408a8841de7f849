"""Set-up probe: import causalign, build one workload's inputs, then print
CLOCK_MONOTONIC. run.py spawns this in a fresh interpreter and reads the
printed time to measure set-up as a user pays it.

    python3 bench/probe_setup.py WORKLOAD SEED
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402  (imports causalign)

workloads.build(sys.argv[1], int(sys.argv[2]))
print(time.monotonic())
