"""``python -m coulomb_hs``: the same command line as ``coulomb-hs``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
