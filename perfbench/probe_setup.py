"""One set-up measurement: import sumsetlab and generate a workload's
inputs, then print "ready". harness.measure_setup times this from process
start to that line.

    python3 perfbench/probe_setup.py WORKLOAD SEED DIR
"""

import sys
from pathlib import Path

import run

run.use_checkout_src()

from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workdir.mkdir(parents=True, exist_ok=True)
    WORKLOADS[workload].make_passes(seed, workdir)
    print("ready", flush=True)
