"""`python -m pfaffian_nets`: the same command line as `pfaffian-nets`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
