"""``python -m cnflow``: the same entry point as the ``cnflow`` command."""

import sys

from .cli import main

sys.exit(main())
