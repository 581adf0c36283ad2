"""python -m maslovflow: the command line interface (see cli.py)."""

import sys

from .cli import main

sys.exit(main())
