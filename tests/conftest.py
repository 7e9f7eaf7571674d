"""Make the suite runnable from a fresh checkout without installing.

When brieskorn is not installed, src/ goes on the path.
"""

import os
import sys

try:
    import brieskorn  # noqa: F401
except ImportError:
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
