"""`python -m sumsetlab`: the same command line as the `sumsetlab` script."""

import sys

from .cli import main

sys.exit(main())
