import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from aidfit.core import AggregatedInstance, ClusterPartition
from aidfit.linalg import DataMatrix


def make_agg(b, a, weights=None) -> AggregatedInstance:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).reshape(a.shape[0], -1)
    if weights is None:
        weights = np.ones(a.shape[0])
    return AggregatedInstance(B_agg=b, A_agg=a, weights=np.asarray(weights, dtype=np.int64))


def clusters_of(part: ClusterPartition) -> list[np.ndarray]:
    """Each cluster's ascending rows, in cluster order: the form the
    grouping oracles take."""
    return [part.rows(c) for c in range(part.cluster_count)]


def partition_of(n: int, clusters) -> ClusterPartition:
    """The partition of n rows whose k-th cluster holds the rows ``clusters[k]``."""
    labels = np.full(n, -1, dtype=np.int64)
    for k, rows in enumerate(clusters):
        labels[list(rows)] = k
    return ClusterPartition.from_labels(labels)


def subset_instance(rng, n, m, kind):
    if kind == "integer":
        a = rng.integers(-3, 4, size=(n, m)).astype(float)
        b = a[:, 0] * 2.0 - a[:, 1] + rng.integers(-2, 3, size=n)
    else:
        a = rng.standard_normal((n, m))
        b = a[:, :2] @ rng.uniform(0, 100, 2) + rng.standard_normal(n)
    if kind == "duplicated":
        a[:, 2] = a[:, 0]
    if kind.startswith("exact"):
        b = a[:, 1] * 3.0 - a[:, 2] * 7.0
    if kind == "exact-1e8":
        # rounding noise now exceeds the sign zero band, so the loop runs on
        a, b = a * 1e8, b * 1e8
    return DataMatrix(b.reshape(-1, 1)), DataMatrix(a)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
