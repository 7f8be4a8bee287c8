"""Problem-independent engine for L1 fitting by aggregation.

The driver keeps a partition of the data rows, solves an exact weighted
problem on per-cluster means, and checks whether every cluster agrees on
the signs of its residuals. Disagreement picks the clusters to split.

For minimize-sense problems the aggregated optimum bounds the optimum from
below, and agreement certifies that it solves the full problem. For
maximize-sense problems the aggregated optimum is a lower bound too, so
agreement proves nothing; the problem supplies per-cluster terms that turn
it into a sound upper bound, and after agreement the loop keeps splitting
until that bound meets the incumbent, the partition holds only identical
rows, or the next exact solve would exceed the enumeration budget.

Data enters ``run_aid`` as validated ``DataMatrix`` objects; the loop reads
their arrays once and everything it calls per iteration takes and returns
plain ndarrays. Inside the loop a partition is its row ``order`` cut into
``sizes`` segments (labels are derived on demand) and a sign pattern an
integer code, so each iteration's pass over the full data is one fit and one
subtraction B - F, whose residual gives both the objective and the sign check.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .linalg import DataMatrix

__all__ = [
    "PartitionError",
    "DeclusterError",
    "LowerBoundViolationError",
    "IterationLimitError",
    "ClusterPartition",
    "AggregatedInstance",
    "AidConfig",
    "ProblemDefinition",
    "IterationRecord",
    "AidReport",
    "aggregate",
    "residual_signs",
    "sign_codes",
    "check_optimality",
    "decluster",
    "refine",
    "bound_slack",
    "optimality_gap",
    "run_aid",
    "validate_report",
]

# zero band of the sign check: absolute by default, and relative to
# |b_i| + |f_i| per entry inside ``run_aid``, so it holds at every data scale
DEFAULT_EPS_SIGN = 1e-9
# n * machine epsilon at n = 2**20 rows; objectives are sums of up to n terms
BOUND_SLACK_REL = 2.0**-32


class PartitionError(ValueError):
    """The clusters do not form a valid partition of the row indices."""


class DeclusterError(RuntimeError):
    """Internal inconsistency between the sign patterns and the split request."""


class LowerBoundViolationError(RuntimeError):
    """A bound crossed the incumbent, which signals a buggy solver."""


class IterationLimitError(RuntimeError):
    """Raised when the loop hits the configured iteration cap.

    Carries the partial report so callers can inspect the trace.
    """

    def __init__(self, report: "AidReport"):
        super().__init__(
            f"iteration limit reached after {report.total_iterations} iterations"
        )
        self.report = report


class ClusterPartition:
    """Exact partition of row indices 0..n-1 into nonempty clusters.

    Stored as arrays: ``order`` lists the rows grouped by cluster, ascending
    within each, so cluster c is the segment ``order[starts[c]:starts[c] +
    sizes[c]]`` (``rows(c)``). ``labels()`` derives each row's cluster,
    numbered 0..k-1 in cluster order, on first use. Partitions are compared
    by value: row count and clusters.

    Partitions enter the library through ``from_labels``, which validates
    its labels, and ``singletons``. The constructor trusts its input.
    ``decluster`` and ``refine`` split a partition through ``_split``, which
    rearranges only the split clusters' segments of ``order``, and record
    ``parent``: for each cluster, the index of the cluster it came from in
    the partition they split (None elsewhere).
    """

    __slots__ = ("n", "order", "starts", "sizes", "parent", "_labels")

    def __init__(self, order: np.ndarray, sizes: np.ndarray, parent=None):
        """Cut the int64 row order ``order`` into consecutive clusters of
        ``sizes`` rows, each listed in ascending order."""
        self.n = int(order.size)
        self.order = order
        self.sizes = sizes
        self.starts = np.cumsum(sizes) - sizes
        self.parent = parent
        self._labels = None
        for arr in (order, sizes, self.starts):
            arr.flags.writeable = False

    @property
    def cluster_count(self) -> int:
        return self.sizes.size

    def rows(self, c: int) -> np.ndarray:
        """Ascending row indices of cluster ``c``."""
        return self.order[self.starts[c] : self.starts[c] + self.sizes[c]]

    def labels(self) -> np.ndarray:
        """Read-only int64 cluster index of every row."""
        if self._labels is None:
            labels = np.empty(self.n, dtype=np.int64)
            labels[self.order] = np.repeat(np.arange(self.cluster_count), self.sizes)
            labels.flags.writeable = False
            self._labels = labels
        return self._labels

    def positions(self, clusters: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Where the rows of ``clusters``, an int array, lie in ``order``.

        Returns their positions, cluster after cluster, and the offset at
        which each cluster's run of positions begins. Costs the rows of
        those clusters, not all n.
        """
        sizes = self.sizes[clusters]
        offsets = np.cumsum(sizes) - sizes
        pos = np.repeat(self.starts[clusters] - offsets, sizes)
        pos += np.arange(pos.size)
        return pos, offsets

    def recompute(self, carry: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The clusters a per-cluster computation must do, their rows and offsets.

        With ``carry`` (the caller holds its values for the partition this one
        was split from) and a ``parent``, only the ``fresh`` clusters; the rest
        copy their values through ``parent``. Otherwise every cluster.
        """
        if carry and self.parent is not None:
            clusters = np.flatnonzero(self.fresh())
        else:
            clusters = np.arange(self.cluster_count)
        pos, offsets = self.positions(clusters)
        return clusters, self.order[pos], offsets

    def fresh(self) -> np.ndarray:
        """Mask of the clusters that the split making this partition created.

        A cluster the split kept whole has a ``parent`` entry that no other
        cluster shares. Every cluster is fresh when ``parent`` is None.
        """
        if self.parent is None:
            return np.ones(self.cluster_count, dtype=bool)
        return np.bincount(self.parent)[self.parent] > 1

    def __eq__(self, other) -> bool:
        # order and sizes determine the labels, and the labels them
        if not isinstance(other, ClusterPartition):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.sizes, other.sizes)
            and np.array_equal(self.order, other.order)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.sizes.tobytes(), self.order.tobytes()))

    def __repr__(self) -> str:
        return f"ClusterPartition(n={self.n}, clusters={self.cluster_count})"

    @staticmethod
    def singletons(n: int) -> "ClusterPartition":
        return ClusterPartition(np.arange(n, dtype=np.int64), np.ones(n, dtype=np.int64))

    @staticmethod
    def from_labels(labels: Sequence[int]) -> "ClusterPartition":
        """Build a partition from per-row cluster labels, dropping gaps.

        Clusters follow the ascending order of their labels.
        """
        labels = np.asarray(labels, dtype=np.int64)
        if labels.ndim != 1:
            raise PartitionError(f"labels must be one-dimensional, got ndim={labels.ndim}")
        if labels.size and labels.min() >= 0 and labels.max() < labels.size:
            # number the labels present in O(n), without sorting
            rank = np.cumsum(np.bincount(labels) > 0) - 1
            labels, count = rank[labels], int(rank[-1]) + 1
        else:
            values, compact = np.unique(labels, return_inverse=True)
            labels, count = compact.astype(np.int64, copy=False), values.size
        # numpy's stable sort of 16-bit keys is a radix sort, O(n)
        keys = labels.astype(np.uint16) if count <= 1 << 16 else labels
        out = ClusterPartition(np.argsort(keys, kind="stable"), np.bincount(labels, minlength=count))
        labels.flags.writeable = False
        out._labels = labels
        return out

    def _split(
        self, clusters: np.ndarray, pos: np.ndarray, offsets: np.ndarray, second: np.ndarray
    ) -> "ClusterPartition":
        """Split each of ``clusters``, an ascending int array, into two adjacent clusters.

        ``pos`` and ``offsets`` locate their rows in ``order``, as
        ``positions`` returns them, and the bool array ``second`` flags the
        rows at ``pos`` that go to the second half. Each cluster's segment
        of a copy of ``order`` is stably partitioned, first half then
        second, so both halves list their rows in ascending order. The
        rows of the other clusters stay where they are; those clusters
        move right in the numbering to make room.
        """
        k = self.cluster_count
        sizes = self.sizes[clusters]
        tail = np.add.reduceat(second, offsets, dtype=np.int64)
        rows = self.order[pos]
        lead = np.arange(pos.size) < np.repeat(offsets + sizes - tail, sizes)
        order = self.order.copy()
        # index arrays, not masks: masked gathers branch on every row
        order[pos[lead]] = rows[np.nonzero(~second)[0]]
        order[pos[~lead]] = rows[np.nonzero(second)[0]]
        grow = np.ones(k, dtype=np.int64)
        grow[clusters] = 2
        parent = np.repeat(np.arange(k), grow)
        out_sizes = self.sizes[parent]
        halves = clusters + np.arange(1, clusters.size + 1)
        out_sizes[halves] = tail
        out_sizes[halves - 1] -= tail
        if np.count_nonzero(out_sizes) < out_sizes.size:
            raise PartitionError("a split left a cluster empty")
        return ClusterPartition(order, out_sizes, parent)


@dataclass(frozen=True, eq=False)
class AggregatedInstance:
    """Per-cluster mean rows of the target and feature data plus cluster sizes.

    ``B_agg`` is a (k, q) and ``A_agg`` a (k, m) float array; ``weights`` is
    the (k,) int array of cluster sizes. Instances compare by identity.
    """

    B_agg: np.ndarray
    A_agg: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        k = self.weights.shape[0]
        if self.B_agg.shape[0] != k or self.A_agg.shape[0] != k:
            raise PartitionError("aggregated row counts disagree with weights")
        if (self.weights <= 0).any():
            raise PartitionError("cluster weights must be positive")

    @property
    def cluster_count(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class AidConfig:
    """``run_aid``'s stop settings: relative gap ``tol`` and iteration cap
    ``max_iters`` (None: the row count). Solver settings belong to the problem."""

    tol: float = 0.0
    max_iters: int | None = None


class ProblemDefinition(abc.ABC):
    """Contract a fitting problem must satisfy to run under the engine.

    ``apply_f`` must commute with row averaging: f(X, W A) == W f(X, A) for
    every averaging matrix W. That property is what makes per-cluster means
    a faithful stand-in for their rows. The engine passes every method plain
    arrays, already validated where the data entered. A problem takes its
    solver's settings (a budget, a tolerance) at construction; the engine
    passes none.
    """

    sense: Literal["minimize", "maximize"] = "minimize"

    @property
    @abc.abstractmethod
    def q(self) -> int:
        """Number of target columns."""

    @abc.abstractmethod
    def apply_f(self, solution, a: np.ndarray) -> np.ndarray:
        """Evaluate the fitted mapping at ``solution`` on the (n, m) feature
        rows ``a``; returns the (n, q) fit."""

    @abc.abstractmethod
    def solve_weighted(self, agg: AggregatedInstance, prior=None):
        """Exactly solve the weighted problem on aggregated data.

        Returns a problem-specific solution object carrying ``objective``,
        the optimal weighted value in the problem's natural sense. A solver
        that stops at a certified tolerance also carries ``certified_gap``,
        so that ``objective - certified_gap`` is a proven lower bound on the
        weighted optimum; the loop records that value as its bound.

        ``prior`` is None on a run's first solve. Later ``run_aid`` passes
        ``(previous, incumbent)``: the solution this method returned on the
        partition the current one was split from, and the best full-data
        objective found so far. A problem may use it to skip work that
        cannot change the result, or to start from the previous solution:
        the LAD problems start each LP from the residual signs of the
        previous fit.
        The returned solution must be an optimum of the same weighted
        problem as the one returned without ``prior``, and bitwise equal to
        it where the optimum is unique.
        """

    # Maximize-sense problems also implement the three methods below; the
    # engine never calls them for minimize-sense ones.

    def bound_terms(
        self, a: np.ndarray, partition: ClusterPartition, previous: np.ndarray | None = None
    ) -> np.ndarray:
        """Per-cluster terms whose sum, added to the aggregated optimum,
        bounds the full optimum from above; zero for clusters of identical rows.

        ``previous`` is None on a run's first iteration. Later ``run_aid``
        passes the terms this method returned for the partition the current
        one was split from. A cluster that split kept whole (see
        ``ClusterPartition.fresh``) must get the same term as there, so a
        problem may copy it and compute only the clusters the split created.
        """
        raise NotImplementedError(f"{type(self).__name__} has no upper bound")

    def split_cluster(self, a: np.ndarray, cluster: np.ndarray) -> np.ndarray:
        """Split a cluster with a positive bound term into two nonempty halves.

        ``cluster`` holds the cluster's ascending row indices as an int
        array; returns the rows of the second half, an ascending int array
        that is neither empty nor all of ``cluster``.
        """
        raise NotImplementedError(f"{type(self).__name__} has no refinement split")

    def fits_budget(self, cluster_count: int) -> bool:
        """Whether ``solve_weighted`` stays within its own budget on that many clusters."""
        raise NotImplementedError(f"{type(self).__name__} has no solve budget")


@dataclass(frozen=True)
class IterationRecord:
    t: int
    cluster_count: int
    aggregated_objective: float
    objective: float
    best_objective: float
    gap: float
    # maximize sense only: running minimum of the sound upper bound
    upper_bound: float | None = None


Termination = Literal[
    "optimality_condition",
    "gap_below_tol",
    "fully_disaggregated",
    "enumeration_budget",
    "iteration_limit",
]


@dataclass(frozen=True)
class AidReport:
    """Per-iteration trace plus the returned incumbent.

    Values are reported in the problem's natural sense, so the aggregated
    objective is a nondecreasing lower bound for both senses and the
    incumbent only ever improves. Maximize-sense records also carry a
    nonincreasing upper bound, and their gap is measured up to it.
    """

    n: int
    sense: str
    iterations: tuple[IterationRecord, ...]
    solution: object
    termination: Termination
    # sum of the target's absolute entries; scales the bound checks' slack
    scale: float = 0.0

    @property
    def total_iterations(self) -> int:
        return self.iterations[-1].t

    @property
    def final_cluster_count(self) -> int:
        return self.iterations[-1].cluster_count

    @property
    def aggregation_rate(self) -> float:
        return self.final_cluster_count / self.n

    @property
    def best_objective(self) -> float:
        return self.iterations[-1].best_objective

    @property
    def final_gap(self) -> float:
        return self.iterations[-1].gap

    @property
    def converged(self) -> bool:
        """Whether the loop stopped on its own terms; not a proof of optimality."""
        return self.termination != "iteration_limit"

    @property
    def certified_optimal(self) -> bool:
        """Whether the run carries a proof of global optimality.

        Full disaggregation always does: the aggregated problem is then the
        original one, up to duplicate rows. Sign agreement certifies
        minimize-sense problems. For maximize-sense ones only a final gap
        of zero or less does, since that gap is measured up to a sound
        upper bound; ``enumeration_budget`` and ``gap_below_tol`` at a
        positive tolerance are not proofs.
        """
        if self.termination == "fully_disaggregated":
            return True
        if self.sense == "minimize":
            return self.termination == "optimality_condition" or self.final_gap <= 0.0
        return self.final_gap <= 0.0


def aggregate(
    b: np.ndarray,
    a: np.ndarray,
    partition: ClusterPartition,
    previous: AggregatedInstance | None = None,
) -> AggregatedInstance:
    """Collapse every cluster of the (n, q) and (n, m) arrays to the mean of its rows.

    A cluster's mean is the sequential sum of its rows, in ascending row
    order, divided by its size. ``previous``, the aggregate of the partition
    that ``partition`` was split from, supplies the means of the clusters
    that the split kept (a ``partition.parent`` entry that no other cluster
    shares; see ``ClusterPartition.recompute``), so only the new clusters
    are summed, all in one ``np.add.reduceat`` call per array.
    """
    if b.shape[0] != partition.n or a.shape[0] != partition.n:
        raise PartitionError(
            f"row counts {b.shape[0]}/{a.shape[0]} do not match partition over "
            f"{partition.n} rows"
        )
    fresh, rows, starts = partition.recompute(previous is not None)
    if fresh.size < partition.cluster_count:
        b_out = previous.B_agg[partition.parent]
        a_out = previous.A_agg[partition.parent]
    else:
        b_out = np.empty((fresh.size, b.shape[1]))
        a_out = np.empty((fresh.size, a.shape[1]))
    sizes = partition.sizes[fresh, None]
    b_out[fresh] = np.add.reduceat(np.take(b, rows, axis=0), starts) / sizes
    a_out[fresh] = np.add.reduceat(np.take(a, rows, axis=0), starts) / sizes
    return AggregatedInstance(B_agg=b_out, A_agg=a_out, weights=partition.sizes)


def residual_signs(
    residual: np.ndarray, eps_sign: float | np.ndarray = DEFAULT_EPS_SIGN
) -> np.ndarray:
    """Sign pattern of an (n, q) residual B - F as an (n, q) int8 array of +1/-1.

    Residuals in the zero band [-eps_sign, inf) count as +1. ``eps_sign`` is
    a scalar or an array that broadcasts against the residual, one band per
    entry.
    """
    return np.where(_negative(residual, eps_sign), np.int8(-1), np.int8(1))


def _negative(residual: np.ndarray, eps_sign) -> np.ndarray:
    """Where ``residual_signs`` reads -1: the residuals not in the zero band
    (a NaN residual included)."""
    if residual.ndim != 2:
        raise PartitionError(f"residual must be (n, q), got shape {residual.shape}")
    if np.any(eps_sign < 0):
        raise ValueError("eps_sign must be nonnegative")
    return ~(residual >= -eps_sign)


def sign_codes(signs) -> np.ndarray:
    """Integer code of each row of an (n, q) +1/-1 array.

    Bit j, counted from the most significant, is set when column j is -1,
    so codes order patterns lexicographically with +1 before -1.
    """
    return _codes(np.asarray(signs) < 0)


def _codes(negative: np.ndarray) -> np.ndarray:
    """``sign_codes`` of the pattern that is -1 where the (n, q) ``negative`` holds."""
    codes = negative[:, 0].astype(np.int64)
    for column in negative.T[1:]:
        codes = 2 * codes + column
    return codes


def check_optimality(
    residual: np.ndarray,
    partition: ClusterPartition,
    eps_sign: float | np.ndarray = DEFAULT_EPS_SIGN,
) -> tuple[bool, np.ndarray, np.ndarray]:
    """Test whether every cluster's rows share one residual sign pattern.

    ``residual`` is the (n, q) B - F of the fit being checked. Returns the
    verdict, the ascending int array of clusters with two or more distinct
    patterns, and each row's ``sign_codes`` value of its ``residual_signs``
    pattern, with ``eps_sign`` its zero band (a scalar, or one band per
    residual entry). A cluster disagrees exactly when the smallest and
    largest codes of its rows differ.
    """
    codes = _codes(_negative(residual, eps_sign))
    ordered = codes[partition.order]
    low = np.minimum.reduceat(ordered, partition.starts)
    high = np.maximum.reduceat(ordered, partition.starts)
    violating = np.flatnonzero(low != high)
    return violating.size == 0, violating, codes


def decluster(
    partition: ClusterPartition,
    codes: np.ndarray,
    violating: np.ndarray,
) -> ClusterPartition:
    """Split each violating cluster into its mode-pattern rows and the rest.

    ``codes`` holds each row's ``sign_codes`` value and ``violating`` the
    ascending int array of clusters to split, as ``check_optimality``
    returns them. A cluster's mode is its most common pattern, the smallest
    code on a tie (+1 before -1, first column first). The mode rows take the
    cluster's slot and the rest follow right after it; other clusters are
    copied unchanged and move right to make room. Only the violating
    clusters' rows are read and moved (see ``ClusterPartition._split``).
    """
    k = partition.cluster_count
    if violating.size and not (
        violating[0] >= 0
        and violating[-1] < k
        and not np.count_nonzero(violating[1:] <= violating[:-1])
    ):
        raise DeclusterError("violating indices outside the cluster range or not ascending")
    pos, offsets = partition.positions(violating)
    codes = np.asarray(codes, dtype=np.int64)[partition.order[pos]]
    segment = np.repeat(np.arange(violating.size), partition.sizes[violating])
    width = int(codes.max(initial=0)) + 1
    table = np.bincount(segment * width + codes, minlength=violating.size * width)
    mode = table.reshape(violating.size, width).argmax(axis=1)
    second = codes != mode[segment]
    try:
        return partition._split(violating, pos, offsets, second)
    except PartitionError:
        # only a cluster without a second pattern leaves its second half empty
        single = np.add.reduceat(second, offsets) == 0
        raise DeclusterError(
            f"cluster {int(violating[np.argmax(single)])} was marked violating but has a "
            "single sign pattern"
        ) from None


def refine(
    a: np.ndarray, problem: ProblemDefinition, partition: ClusterPartition, terms
) -> ClusterPartition:
    """Split every cluster with a positive bound term in two, in place.

    ``problem.split_cluster`` names each one's second half. Other clusters
    are copied unchanged.
    """
    split = np.flatnonzero(np.asarray(terms) > 0.0)
    pos, offsets = partition.positions(split)
    second = np.zeros(pos.size, dtype=bool)
    for c, offset in zip(split.tolist(), offsets.tolist()):
        rows = partition.rows(c)
        second[offset + np.searchsorted(rows, problem.split_cluster(a, rows))] = True
    return partition._split(split, pos, offsets, second)


def bound_slack(value, bound, scale=0.0):
    """Rounding allowance for comparing an objective with a bound on it.

    Relative to ``|value| + |bound| + scale``, with no absolute floor, so it
    holds at every data scale. ``scale`` is the target's magnitude, the sum
    of its absolute entries: the objectives of a near-exact fit are rounding
    noise of that size, not of their own. Works elementwise on arrays.
    """
    return BOUND_SLACK_REL * (np.abs(value) + np.abs(bound) + scale)


def optimality_gap(
    best_objective: float, bound: float, upper_bound: float | None = None, scale: float = 0.0
) -> float:
    """Relative distance from the incumbent to the farthest the optimum can lie.

    Minimize sense: ``bound`` is the aggregated lower bound on the optimum
    and the gap is (best - bound) / best. Maximize sense: ``bound`` is still
    a lower bound, so pass the sound ``upper_bound``; the gap is then
    (upper_bound - best) / best, infinite while best is zero and the upper
    bound is not. Crossings within ``bound_slack`` of ``scale`` are rounding
    and tolerated; larger ones raise ``LowerBoundViolationError``.
    """
    if best_objective < bound - bound_slack(best_objective, bound, scale):
        raise LowerBoundViolationError(
            f"aggregated bound {bound} exceeds incumbent {best_objective}"
        )
    if upper_bound is not None:
        if upper_bound < best_objective - bound_slack(upper_bound, best_objective, scale):
            raise LowerBoundViolationError(
                f"upper bound {upper_bound} below incumbent {best_objective}"
            )
        if best_objective <= 0.0:
            return 0.0 if upper_bound <= 0.0 else np.inf
        return (upper_bound - best_objective) / best_objective
    if best_objective <= 0.0:
        # a perfect fit: the bound is squeezed to zero as well
        return 0.0
    return (best_objective - bound) / best_objective


def run_aid(
    B: DataMatrix,
    A: DataMatrix,
    problem: ProblemDefinition,
    initial: ClusterPartition,
    config: AidConfig | None = None,
) -> AidReport:
    """Run the aggregate/solve/check/split loop until a stop condition fires.

    Stops with
    - ``fully_disaggregated`` at singletons, or for maximize-sense problems
      once every cluster holds identical rows (the aggregated problem then
      equals the original);
    - ``optimality_condition`` when every cluster agrees on residual signs,
      for minimize-sense problems only, where agreement certifies a global
      optimum;
    - ``gap_below_tol`` when the relative gap drops to ``config.tol``;
    - ``enumeration_budget`` (maximize sense, uncertified) when the next
      partition, from either split below, would exceed the problem's solve
      budget; the incumbent and its sound gap are kept.

    ``B`` and ``A`` are read as arrays once. Each iteration evaluates the
    fit on the full data once and forms the residual B - F once; that one
    residual gives both the objective and the sign check, whose zero band is
    ``DEFAULT_EPS_SIGN * (|B| + |F|)`` entry by entry, so rounding noise of
    an exact fit reads as zero whatever the data's scale. The aggregated
    bound is the solution's ``objective`` minus its ``certified_gap`` when it
    carries one (see ``ProblemDefinition.solve_weighted``). Every solve after
    the first gets ``prior``: the previous solution and the incumbent's
    objective (see ``ProblemDefinition.solve_weighted``). Likewise every
    ``bound_terms`` call after the first gets the previous iteration's terms
    (see ``ProblemDefinition.bound_terms``). Disagreeing clusters are split
    by ``decluster``. When a maximize-sense run's clusters agree but its gap
    exceeds ``tol``, ``refine`` splits every cluster with a positive
    upper-bound term. Raises ``IterationLimitError`` carrying the partial
    report if ``config.max_iters`` is exhausted first.
    """
    config = config or AidConfig()
    if B.rows != A.rows or B.rows != initial.n:
        raise PartitionError(
            f"B has {B.rows} rows, A has {A.rows}, partition covers {initial.n}"
        )
    if B.cols != problem.q:
        raise PartitionError(f"B has {B.cols} columns, problem expects q={problem.q}")
    if config.tol < 0:
        raise ValueError("tol must be nonnegative")

    b, a = B.values, A.values
    n = initial.n
    max_iters = config.max_iters if config.max_iters is not None else n
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    maximize = problem.sense == "maximize"
    flip = -1.0 if maximize else 1.0
    abs_b = np.abs(b)
    scale = float(abs_b.sum())

    partition = initial
    records: list[IterationRecord] = []
    best_internal = np.inf
    best_objective = np.inf
    best_solution = None
    upper = np.inf if maximize else None
    termination = None

    agg = None
    prior = None
    terms = None
    for t in range(1, max_iters + 1):
        agg = aggregate(b, a, partition, previous=agg)
        solution = problem.solve_weighted(agg, prior=prior)
        bound = float(solution.objective) - float(getattr(solution, "certified_gap", 0.0))
        fitted = problem.apply_f(solution, a)
        if fitted.shape != b.shape:  # numpy would broadcast B - F
            raise PartitionError(f"fit has shape {fitted.shape}, target has {b.shape}")
        residual = b - fitted
        objective = float(np.abs(residual).sum())
        if flip * objective < best_internal:
            best_internal = flip * objective
            best_objective = objective
            best_solution = solution
        prior = (solution, best_objective)
        if maximize:
            terms = problem.bound_terms(a, partition, previous=terms)
            upper = min(upper, bound + float(terms.sum()))
        gap = optimality_gap(best_objective, bound, upper, scale)
        records.append(
            IterationRecord(
                t=t,
                cluster_count=partition.cluster_count,
                aggregated_objective=bound,
                objective=objective,
                best_objective=best_objective,
                gap=gap,
                upper_bound=upper,
            )
        )
        band = DEFAULT_EPS_SIGN * (abs_b + np.abs(fitted))
        satisfied, violating, codes = check_optimality(residual, partition, band)
        if satisfied and partition.cluster_count == n:
            termination = "fully_disaggregated"
            break
        if satisfied and not maximize:
            termination = "optimality_condition"
            break
        if gap <= config.tol:
            termination = "gap_below_tol"
            break
        if satisfied:
            # maximize sense, clusters agree, gap above tol: refine
            splits = int(np.count_nonzero(terms > 0.0))
            if splits == 0:
                termination = "fully_disaggregated"
                break
        else:
            splits = len(violating)
        if maximize and not problem.fits_budget(partition.cluster_count + splits):
            termination = "enumeration_budget"
            break
        if satisfied:
            partition = refine(a, problem, partition, terms)
        else:
            partition = decluster(partition, codes, violating)

    report = AidReport(
        n=n,
        sense=problem.sense,
        iterations=tuple(records),
        solution=best_solution,
        termination=termination or "iteration_limit",
        scale=scale,
    )
    if termination is None:
        raise IterationLimitError(report)
    return report


def validate_report(report: AidReport, tol: float | None = None) -> None:
    """Re-check the trace invariants; raises ValueError on any violation."""
    maximize = report.sense == "maximize"
    flip = -1.0 if maximize else 1.0
    prev_bound = -np.inf
    prev_best = np.inf
    prev_upper = np.inf
    scale = report.scale
    for rec in report.iterations:
        bound = rec.aggregated_objective
        if bound < prev_bound - bound_slack(bound, prev_bound, scale):
            raise ValueError(f"aggregated bound decreased at t={rec.t}")
        prev_bound = max(prev_bound, bound)
        best = rec.best_objective
        if flip * best > prev_best + bound_slack(best, prev_best, scale):
            raise ValueError(f"incumbent worsened at t={rec.t}")
        prev_best = min(prev_best, flip * best)
        if best < bound - bound_slack(best, bound, scale):
            raise ValueError(f"bound above incumbent at t={rec.t}")
        if maximize:
            if rec.upper_bound is None:
                raise ValueError(f"maximize-sense record without upper bound at t={rec.t}")
            if rec.upper_bound < best - bound_slack(rec.upper_bound, best, scale):
                raise ValueError(f"upper bound below incumbent at t={rec.t}")
            if rec.upper_bound > prev_upper:
                raise ValueError(f"upper bound increased at t={rec.t}")
            prev_upper = rec.upper_bound
        if rec.best_objective > 0:
            if maximize:
                expect = (rec.upper_bound - rec.best_objective) / rec.best_objective
            else:
                expect = (rec.best_objective - rec.aggregated_objective) / rec.best_objective
            if abs(expect - rec.gap) > 1e-12:
                raise ValueError(f"gap mismatch at t={rec.t}")
    if tol is not None and report.converged and report.final_gap > tol + 1e-12:
        if report.termination == "gap_below_tol":
            raise ValueError("terminated on gap but final gap exceeds tol")
