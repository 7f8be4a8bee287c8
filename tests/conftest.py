import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from aidfit.core import AggregatedInstance


def make_agg(b, a, weights=None) -> AggregatedInstance:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).reshape(a.shape[0], -1)
    if weights is None:
        weights = np.ones(a.shape[0])
    return AggregatedInstance(B_agg=b, A_agg=a, weights=np.asarray(weights, dtype=np.int64))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
