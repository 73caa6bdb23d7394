"""``python -m orenaka``: the ``orenaka`` command line."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
