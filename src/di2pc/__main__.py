"""``python -m di2pc``: the ``di2pc`` command."""

import sys

from .cli import main

sys.exit(main())
