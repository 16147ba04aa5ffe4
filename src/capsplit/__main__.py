"""``python -m capsplit``: the ``capsplit`` command."""

import sys

from .cli import main

sys.exit(main())
