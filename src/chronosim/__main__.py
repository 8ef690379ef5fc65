"""``python -m chronosim``: the ``chronosim`` command."""

import sys

from .cli import main

sys.exit(main())
