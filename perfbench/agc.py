"""The ``agc`` command as an installed console script runs it, importing
the package from the ``src`` directory of this checkout.

Usage: python3 perfbench/agc.py SPECFILE COMMAND [ARG...] [--json]
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from agcontracts.cli import entrypoint  # noqa: E402

if __name__ == "__main__":
    sys.argv[0] = "agc"
    entrypoint()
