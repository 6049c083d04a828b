"""Record the payload ledger, tests/payload_digests.json: for each command
line in COMMANDS, the exit code of `sumsetlab.cli.main` and the SHA-256 of
its stdout, with the whole of stderr on exit 1 and only its final `error:`
line on exit 2, since argparse wraps the usage text above it to the
terminal width.

    python tests/record_payloads.py

tests/test_payloads.py runs every command in process and compares it with
the ledger. Re-record only when a change is meant to alter CLI output, and
list each changed entry in CHANGES.md as a fix: the test treats any other
difference as a failure.

Each command runs in a directory that holds FILES, so `--file` paths, and
the error lines that name them, are relative and the same everywhere. A
command with `--workers 2` must print what the same command with
`--workers 1` prints, and the ledger holds both.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

LEDGER = Path(__file__).with_name("payload_digests.json")

if __name__ == "__main__":
    # record the checkout's sources, not an installed copy
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sumsetlab.cli import main  # noqa: E402

FILES = {
    "sets.txt": "0,2,18,25\n1,5,96,100\n\n0,1,3,4,9\n0,1,3,4\n",
    "bad.txt": "0,2,18,25\n1,x\n",
}

_COMMANDS = """
# the README examples, at small sizes
sumset profile --set 0,2,18,25 --horizon 12
sumset compute --set 0,1,3,4 --h 3
lattice basis --set 1,5,96,100
lattice minima --set 1,5,96,100 --count 2 --cap 200
theory predict --h 6 --k 4 --h1 4
theory verify --set 0,2,18,25
theory verify --file sets.txt
theory construct-lemma --a 2 --b 3 --k 5
theory construct-cute --b 5
theory extremes --h 10 --k 4
types type --set 0,1,2 --h 2
types type --set 2,3,4,6 --h 2 --product
types separation --set 0,1/2,2 --h 2
types embed --set 0,1/3,5/7,1 --h 3
types to-product --set 0,1,2
types to-sum --set 2,3,4,6 --h 2
experiment random --n 1000 --k 4 --h 10 --samples 2000 --seed 7 --workers 1
experiment scan --n 30 --k 4 --h 6 --format csv
experiment minima-stats --n 10000 --k 4 --samples 2000 --seed 7 --cap 1024 --workers 1
experiment type-census --n 8 --k 4 --h 2

# every CSV form, and the text form
sumset profile --set 0,2,18,25 --horizon 12 --format csv
lattice basis --set 1,5,96,100 --format csv
lattice minima --set 1,5,96,100 --count 2 --cap 200 --format csv
theory extremes --h 10 --k 4 --format csv
experiment random --n 1000 --k 4 --h 10 --samples 2000 --seed 7 --workers 1 --format csv
experiment minima-stats --n 10000 --k 4 --samples 2000 --seed 7 --cap 1024 --workers 1 --format csv
experiment type-census --n 8 --k 4 --h 2 --format csv
theory predict --h 3 --k 4 --h1 4 --format text
sumset profile --set 0,2,18,25 --horizon 6 --format text

# more of each subcommand: k = 5 and 6 minima and verification, negative and
# rational sets, the transports on large elements
lattice minima --set 0,1,2,3,4,5 --count 4 --cap 1024
lattice minima --set 4,9,31,44,60 --count 3 --cap 128
theory verify --set 0,1,3,4,24 --max-cap 64
theory verify --file sets.txt --format text
theory construct-lemma --a 3 --b 7
theory extremes --h 3 --k 6
types type --set=-7,0,5 --h 3
types embed --set 0,1/2,1 --h 2 --positive
types embed --set=-9/4,0,1/7,5 --h 2
types to-product --set 0,3,64
types to-sum --set 171048208845,171048208846,171048208847,171048208848 --h 1
types to-sum --set 7,1000000007,999999999989 --h 3

# integers past Python's default 4300-digit str limit, printed in full
types to-product --set 1,15000
theory predict --h 20000 --k 20000 --h1 2
experiment scan --n 100000 --k 3000 --h 2

# minima statistics at k = 3..6; sampled censuses at seeds of 1, 2, 3 and 7
# 32-bit words and at n = 2^63; 10240 = 2^11 * 5 samples put every odd count
# on a tie of the tenth decimal
experiment minima-stats --n 300 --k 3 --samples 2500 --seed 1 --cap 64 --workers 1
experiment minima-stats --n 120 --k 5 --samples 300 --seed 2 --cap 256 --count 2 --workers 1
experiment minima-stats --n 60 --k 6 --samples 20 --seed 3 --cap 256 --count 2
experiment random --n 100 --k 4 --h 5 --samples 300 --seed 0 --workers 1
experiment random --n 100 --k 4 --h 5 --samples 300 --seed 4294967296 --workers 1
experiment random --n 100 --k 4 --h 5 --samples 300 --seed 18446744073709551616 --workers 1
experiment random --n 100 --k 4 --h 5 --samples 300 --seed 1606938044258990275541962092341162602522202993782792835301383 --workers 1
experiment random --n 9223372036854775808 --k 3 --h 2 --samples 100 --seed 7 --workers 1
experiment random --n 40 --k 4 --h 3 --samples 10240 --seed 5 --workers 1 --format csv
experiment type-census --n 14 --k 5 --h 3
experiment type-census --n 14 --k 5 --h 3 --format csv
experiment type-census --n 12 --k 4 --h 3 --format csv

# results do not depend on workers
experiment minima-stats --n 10000 --k 4 --samples 2000 --seed 7 --cap 1024 --workers 2
experiment minima-stats --n 10000 --k 4 --samples 2000 --seed 7 --cap 1024 --workers 2 --format csv
experiment minima-stats --n 300 --k 3 --samples 2500 --seed 1 --cap 64 --workers 2
experiment minima-stats --n 120 --k 5 --samples 300 --seed 2 --cap 256 --count 2 --workers 2
experiment random --n 1000 --k 4 --h 10 --samples 2000 --seed 7 --workers 2 --format csv
experiment random --n 25 --k 4 --h 5 --samples 0 --workers 1 --format csv
experiment random --n 25 --k 4 --h 5 --samples 0 --workers 2 --format csv
experiment scan --n 30 --k 4 --h 5 --workers 1
experiment scan --n 30 --k 4 --h 5 --workers 2

# computation errors: exit 1, the whole of stderr
lattice minima --set 1,2 --count 1 --cap 64
theory verify --set 1,5,96,100 --max-cap 64
theory verify --set 1,2,4
theory verify --file bad.txt
theory verify --file sets.txt --max-cap 64
theory verify --file missing.txt
experiment scan --n 8 --k 0 --h 2
experiment scan --n 100 --k 6 --h 2
experiment type-census --n 4 --k 0 --h 2
experiment minima-stats --n 3 --k 4 --samples 3 --cap 64
experiment minima-stats --n 9223372036854775809 --k 4 --samples 3 --cap 64
experiment random --n 9223372036854775809 --k 3 --h 2 --samples 10 --seed 0 --workers 1
types to-product --set 0,1000001

# usage errors: exit 2, the final error line
sumset compute --set 1,x --h 2
sumset profile --horizon 4
types type --set 1/0 --h 2
types type --set 1/2,3 --h 2 --product
lattice minima --set 1,5,96,100 --count 2 --cap 9
theory verify --set 0,2,18,25 --max-cap 2
theory verify
theory verify --set 0,2,18,25 --file sets.txt
experiment scan --n 12 --k 4 --h 3 --workers 0
experiment random --n 100 --k 4 --h 5 --samples 30 --seed -1
experiment scan --n x --k 4 --h 3
"""

COMMANDS = [line for line in _COMMANDS.splitlines() if line and not line.startswith("#")]


def write_files(directory: Path) -> None:
    for name, text in FILES.items():
        (directory / name).write_text(text)


def run(command: str) -> dict:
    """The ledger entry of one command line, run in the current directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(shlex.split(command))
        except SystemExit as exc:
            code = exc.code
    err = err.getvalue()
    return {"exit": code, "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": err.splitlines()[-1] if code == 2 else err}


def record() -> dict:
    """Every command's entry, all run in one fresh directory holding FILES."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_files(Path(tmp))
        os.chdir(tmp)
        try:
            return {command: run(command) for command in COMMANDS}
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    LEDGER.write_text(json.dumps(record(), indent=1) + "\n")
