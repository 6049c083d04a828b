"""Record the payload digest of every pass of every workload at the default
seed into perfbench/golden.json.

    python3 perfbench/record_golden.py

Run it only when a change is meant to alter CLI output, and say so in
CHANGES.md: the benchmark treats any other digest change as a failure.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run

run.use_checkout_src()

import harness  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def main() -> int:
    digests = {}
    tally = harness.Tally()
    with tempfile.TemporaryDirectory(dir=harness.HERE) as tmp:
        for name, workload in WORKLOADS.items():
            digests[name] = []
            for p in workload.make_passes(DEFAULT_SEED, Path(tmp)):
                _, results = harness.run_pass(p)
                digests[name].append(harness.check_pass(workload, p, results, None, tally))
                print(name, p.index, digests[name][-1], flush=True)
    if tally.failed or tally.problems:
        print("\n".join(tally.problems), file=sys.stderr)
        return 1
    harness.GOLDEN.write_text(json.dumps({"seed": DEFAULT_SEED, "digests": digests}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
