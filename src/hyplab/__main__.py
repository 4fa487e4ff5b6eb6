"""``python -m hyplab``: the command line of :mod:`hyplab.cli`."""

import sys

from .cli import main

sys.exit(main())
