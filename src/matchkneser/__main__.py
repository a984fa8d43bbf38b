"""``python -m matchkneser``: the same command-line driver as ``matchkneser``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
