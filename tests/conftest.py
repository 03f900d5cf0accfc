import os
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from superext.catalog import abelian, gl11, heis3, sl2, susy_line  # noqa: E402

try:
    from hypothesis import settings
except ImportError:  # then only the modules with property tests fail to collect
    pass
else:
    # CI runs the property tests on a fixed set of examples with no deadline,
    # so a new example or a slow runner cannot fail a build; local runs stay random.
    settings.register_profile("ci", derandomize=True, deadline=None)
    if os.environ.get("CI"):
        settings.load_profile("ci")


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture(scope="session")
def corpus():
    """Named valid algebras exercised throughout the suite."""
    return {
        "sl2": sl2(),
        "heis3": heis3(),
        "susy_line": susy_line(),
        "gl11": gl11(),
        "a20": abelian(2, 0),
        "a01": abelian(0, 1),
        "a10": abelian(1, 0),
        "a11": abelian(1, 1),
    }


GOLDEN_DIR = Path(__file__).parent / "golden"
