"""sumsetlab benchmark entry point.

    python3 perfbench/run.py --workload census --seed 20250809 --seconds 18 --trace 0

Run from the root of a source checkout. The library is imported from the
checkout's own src/ directory; without it the command exits with code 2
and prints no result. See perfbench/README.md for the workloads and
metrics.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_src() -> None:
    """Put the checkout's src/ first on the import path, or exit with 2."""
    if not (SRC / "sumsetlab" / "__init__.py").is_file():
        print(f"error: no sumsetlab sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


if __name__ == "__main__":
    use_checkout_src()
    import harness

    sys.exit(harness.main(sys.argv[1:]))
