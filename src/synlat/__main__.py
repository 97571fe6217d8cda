"""`python -m synlat …` runs the command-line interface, also from a checkout with PYTHONPATH=src."""

import sys

from .cli import main

sys.exit(main())
