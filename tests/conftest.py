import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from oracles import table_of


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def toy_table(rng):
    """Small random embedding table covering generic test tokens."""
    tokens = [f"tok{i}" for i in range(12)] + ["self", "near", "cat", "red", "car"]
    return table_of(6, {t: rng.normal(size=6) for t in tokens})
