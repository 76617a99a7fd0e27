"""``python -m dogsim``: the same entry point as the ``dogsim`` command."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
