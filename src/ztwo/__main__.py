"""python -m ztwo: the ztwo command line (ztwo.cli)."""

import sys

from . import cli

sys.exit(cli.main())
