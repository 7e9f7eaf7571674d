"""Make the suite runnable from a fresh checkout without installing, and
hold what several test modules share.

When brieskorn is not installed, src/ goes on the path.  The Hypothesis
profile "fuzz" (`--hypothesis-profile fuzz`) runs the whole-CLI property
test of test_properties.py on many more examples than tier-1 does.
"""

import os
import sys

import pytest

try:
    import brieskorn  # noqa: F401
except ImportError:
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from brieskorn import linalg  # noqa: E402

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("fuzz", max_examples=500)


@pytest.fixture
def doubled_solve(monkeypatch):
    """linalg.solve_columns returns twice its solution: a chain solved for
    a nonzero target then misses it by a factor of 2."""
    original = linalg.solve_columns

    def doubled(columns, target):
        solution = original(columns, target)
        return None if solution is None else [2 * v for v in solution]

    monkeypatch.setattr(linalg, "solve_columns", doubled)
