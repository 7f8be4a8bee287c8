"""A fixed CPU kernel timed next to every measurement to cancel host slowdowns.

On a shared host every CPU-bound process slows by up to 2x for seconds to
minutes at a time (other tenants on the same cores), far more than a code
change would move a solve. The slowdown is not uniform: over 7 minutes of
back-to-back solves on a 2-core Xeon, interpreter-bound Python slowed up
to 1.6x and small numpy updates up to 1.2x, while the three workloads'
solves slowed 1.3x to 1.5x. So this kernel mixes both, about 40 % Python
tuple churn and dict grouping over rows and 60 % small dense numpy updates,
the split that tracked the solves best. With

    normalized seconds = wall seconds * REFERENCE_S / kernel seconds

a time reads as the time on a host where the kernel takes REFERENCE_S.
The kernel does not touch aidfit, so no change to aidfit can move it.
"""

from __future__ import annotations

import math
import time
from typing import Callable, TypeVar

import numpy as np

# normalized times read as on a host where the kernel takes 12 ms, about its
# median on the 2-core Xeon the bounds were set on when other tenants were quiet
REFERENCE_S = 0.012
T = TypeVar("T")

_RNG = np.random.default_rng(12345)
_SIGNS = _RNG.standard_normal((4500, 1))
_TABLEAU = _RNG.standard_normal((120, 240))


def kernel_seconds() -> float:
    """Run the kernel once; returns its wall time."""
    t0 = time.perf_counter()
    patterns = [tuple(1 if flag else -1 for flag in row) for row in _SIGNS >= 0]
    groups: dict[tuple, list[int]] = {}
    for i, pattern in enumerate(patterns):
        groups.setdefault(pattern, []).append(i)
    tableau = _TABLEAU.copy()
    for j in range(120):
        tableau -= 1e-3 * np.outer(tableau[:, j], tableau[j, :])
    return time.perf_counter() - t0


class Timer:
    """Times calls with the kernel run between them. A call's kernel time is
    the geometric mean of the kernel runs just before and just after it, so a
    slowdown that starts or ends during the call is half counted."""

    def __init__(self) -> None:
        self._last: float | None = None

    def time(self, fn: Callable[[], T]) -> tuple[T, float, float]:
        """Returns ``fn()``, its wall time and its kernel time."""
        before = self._last if self._last is not None else kernel_seconds()
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        self._last = kernel_seconds()
        return result, wall, math.sqrt(before * self._last)


def normalized(wall_s: float, kernel_s: float) -> float:
    return wall_s * REFERENCE_S / kernel_s
