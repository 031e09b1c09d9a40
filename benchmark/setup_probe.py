"""Set-up time of one workload, measured in a fresh interpreter.

Usage: python3 benchmark/setup_probe.py SRC_DIR WORKLOAD SCENARIO...

Prints the seconds taken to import delaylab, load every scenario file of
the workload, and build the preset models the workload's CLI calls
construct themselves.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import delaylab  # noqa: E402
from delaylab.scenario_io import load_scenario  # noqa: E402

scenarios = [load_scenario(path) for path in sys.argv[3:]]
if sys.argv[2] == "rd_paper":
    # reproduce-rd builds its presets from n alone
    n = 15
    delaylab.reaction_diffusion_scenario(n, 0.5 * abs(delaylab.dirichlet_lambda1(n)))
print(time.perf_counter() - start)
