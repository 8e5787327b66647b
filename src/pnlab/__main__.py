"""`python -m pnlab`: the same command line as the `pnlab` script."""

import sys

from .cli import main

if __name__ == "__main__":  # importing this module runs nothing
    sys.exit(main())
