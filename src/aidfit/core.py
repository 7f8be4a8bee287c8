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
plain ndarrays. Inside the loop a partition is a label vector and a sign
pattern an integer code, so each iteration's pass over the full data is a
few array operations: one evaluation of the fit and one subtraction B - F,
whose residual gives both the objective and the sign check.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
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
    "SolverConfig",
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

    Stored as arrays: ``labels()`` gives each row's cluster, numbered
    0..k-1 in cluster order; ``order`` lists the rows grouped by cluster,
    ascending within each, so cluster c is ``order[starts[c]:starts[c] +
    sizes[c]]`` (``rows(c)``). The ``clusters`` tuple of row tuples is built
    on first use. Partitions are compared by value: row count and clusters.

    ``ClusterPartition(n, clusters)`` and ``from_labels`` validate their
    input; ``decluster`` and ``refine`` build their partitions from labels
    directly and record ``parent``: for each cluster, the index of the
    cluster it came from in the partition they split (None elsewhere).
    """

    __slots__ = ("n", "order", "starts", "sizes", "parent", "_labels", "_clusters")

    def __init__(self, n: int, clusters: Sequence[Sequence[int]]):
        clusters = tuple(tuple(int(i) for i in cluster) for cluster in clusters)
        for k, cluster in enumerate(clusters):
            if len(cluster) == 0:
                raise PartitionError(f"cluster {k} is empty")
            if list(cluster) != sorted(cluster):
                raise PartitionError(f"cluster {k} indices are not sorted")
        sizes = np.array([len(cluster) for cluster in clusters], dtype=np.int64)
        rows = np.fromiter(
            (i for cluster in clusters for i in cluster), dtype=np.int64, count=int(sizes.sum())
        )
        labels = np.full(n, -1, dtype=np.int64)
        inside = rows.size == n and ((rows >= 0) & (rows < n)).all()
        if inside:
            labels[rows] = np.repeat(np.arange(len(clusters)), sizes)
        if not inside or (labels < 0).any():
            raise PartitionError(f"clusters do not partition 0..{n - 1} exactly")
        self._index(labels, len(clusters))
        self._clusters = clusters

    @classmethod
    def _indexed(
        cls, labels: np.ndarray, count: int, parent=None, hint=None
    ) -> "ClusterPartition":
        """Unchecked constructor over labels that number ``count`` nonempty clusters.

        ``hint`` is a row order that lists each cluster's rows in ascending
        order, such as the order of the partition a split started from;
        sorting it by label is cheaper than a full sort.
        """
        out = object.__new__(cls)
        out._index(labels, count, parent, hint)
        out._clusters = None
        return out

    def _index(self, labels, count, parent=None, hint=None) -> None:
        self.n = int(labels.size)
        self.parent = parent
        self._labels = labels
        if hint is None:
            # numpy's stable sort of 16-bit keys is a radix sort, O(n)
            keys = labels.astype(np.uint16) if count <= 1 << 16 else labels
            self.order = np.argsort(keys, kind="stable")
        else:
            self.order = hint[np.argsort(labels[hint], kind="stable")]
        self.sizes = np.bincount(labels, minlength=count)
        self.starts = np.cumsum(self.sizes) - self.sizes
        for arr in (labels, self.order, self.sizes, self.starts):
            arr.flags.writeable = False

    @property
    def clusters(self) -> tuple[tuple[int, ...], ...]:
        if self._clusters is None:
            self._clusters = tuple(
                tuple(self.rows(c).tolist()) for c in range(self.cluster_count)
            )
        return self._clusters

    @property
    def cluster_count(self) -> int:
        return self.sizes.size

    def rows(self, c: int) -> np.ndarray:
        """Ascending row indices of cluster ``c``."""
        return self.order[self.starts[c] : self.starts[c] + self.sizes[c]]

    def labels(self) -> np.ndarray:
        """Read-only int64 cluster index of every row."""
        return self._labels

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClusterPartition):
            return NotImplemented
        return self.n == other.n and np.array_equal(self._labels, other._labels)

    def __hash__(self) -> int:
        return hash((self.n, self._labels.tobytes()))

    def __repr__(self) -> str:
        return f"ClusterPartition(n={self.n}, clusters={self.cluster_count})"

    @staticmethod
    def singletons(n: int) -> "ClusterPartition":
        return ClusterPartition._indexed(np.arange(n, dtype=np.int64), n)

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
            return ClusterPartition._indexed(rank[labels], int(rank[-1]) + 1)
        values, compact = np.unique(labels, return_inverse=True)
        return ClusterPartition._indexed(compact.astype(np.int64, copy=False), values.size)

    def _split(self, split: np.ndarray, second: np.ndarray) -> "ClusterPartition":
        """Split every cluster flagged in ``split`` into two adjacent clusters.

        ``second`` flags the rows that go to the second one. Each half keeps
        its rows in ascending order; later clusters move right to make room.
        """
        labels = self._labels
        shift = np.cumsum(split) - split
        count = self.cluster_count + int(np.count_nonzero(split))
        parent = np.repeat(np.arange(self.cluster_count), 1 + split)
        out = ClusterPartition._indexed(
            labels + shift[labels] + second, count, parent, self.order
        )
        if (out.sizes == 0).any():
            raise PartitionError("a split left a cluster empty")
        return out


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
class SolverConfig:
    """Numeric knobs for the exact aggregated-problem solvers."""

    sphere_tol: float = 1e-7
    subset_cap: int = 10**6
    pca_cap: int = 2**26


@dataclass(frozen=True)
class AidConfig:
    tol: float = 0.0
    max_iters: int | None = None
    solver: SolverConfig = field(default_factory=SolverConfig)


class ProblemDefinition(abc.ABC):
    """Contract a fitting problem must satisfy to run under the engine.

    ``apply_f`` must commute with row averaging: f(X, W A) == W f(X, A) for
    every averaging matrix W. That property is what makes per-cluster means
    a faithful stand-in for their rows. The engine passes every method plain
    arrays, already validated where the data entered.
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
    def solve_weighted(self, agg: AggregatedInstance, config: SolverConfig, prior=None):
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

    def bound_terms(self, a: np.ndarray, partition: ClusterPartition) -> np.ndarray:
        """Per-cluster terms whose sum, added to the aggregated optimum,
        bounds the full optimum from above; zero for clusters of identical rows."""
        raise NotImplementedError(f"{type(self).__name__} has no upper bound")

    def split_cluster(
        self, a: np.ndarray, cluster: np.ndarray
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Split a cluster, given as ascending row indices, with a positive
        bound term into two nonempty halves."""
        raise NotImplementedError(f"{type(self).__name__} has no refinement split")

    def fits_budget(self, cluster_count: int, config: SolverConfig) -> bool:
        """Whether ``solve_weighted`` stays within its budget on that many clusters."""
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
    shares), so only the new clusters are summed, all in one
    ``np.add.reduceat`` call per array.
    """
    if b.shape[0] != partition.n or a.shape[0] != partition.n:
        raise PartitionError(
            f"row counts {b.shape[0]}/{a.shape[0]} do not match partition over "
            f"{partition.n} rows"
        )
    k = partition.cluster_count
    parent = partition.parent
    b_out = np.empty((k, b.shape[1]))
    a_out = np.empty((k, a.shape[1]))
    fresh = np.ones(k, dtype=bool)
    if previous is not None and parent is not None:
        fresh = np.bincount(parent)[parent] > 1
        b_out[~fresh] = previous.B_agg[parent[~fresh]]
        a_out[~fresh] = previous.A_agg[parent[~fresh]]
    rows = partition.order[np.repeat(fresh, partition.sizes)]
    sizes = partition.sizes[fresh]
    starts = np.cumsum(sizes) - sizes
    b_out[fresh] = np.add.reduceat(b[rows], starts) / sizes[:, None]
    a_out[fresh] = np.add.reduceat(a[rows], starts) / sizes[:, None]
    return AggregatedInstance(B_agg=b_out, A_agg=a_out, weights=partition.sizes)


def _residual(b: np.ndarray, fitted: np.ndarray) -> np.ndarray:
    """B - F, refusing a fit whose shape differs from the target's (which
    numpy would otherwise broadcast)."""
    if fitted.shape != b.shape:
        raise PartitionError(f"fit has shape {fitted.shape}, target has {b.shape}")
    return b - fitted


def residual_signs(
    residual: np.ndarray, eps_sign: float | np.ndarray = DEFAULT_EPS_SIGN
) -> np.ndarray:
    """Sign pattern of an (n, q) residual B - F as an (n, q) int8 array of +1/-1.

    Residuals in the zero band [-eps_sign, inf) count as +1. ``eps_sign`` is
    a scalar or an array that broadcasts against the residual, one band per
    entry.
    """
    if residual.ndim != 2:
        raise PartitionError(f"residual must be (n, q), got shape {residual.shape}")
    if np.any(eps_sign < 0):
        raise ValueError("eps_sign must be nonnegative")
    return np.where(residual >= -eps_sign, np.int8(1), np.int8(-1))


def sign_codes(signs) -> np.ndarray:
    """Integer code of each row of an (n, q) +1/-1 array.

    Bit j, counted from the most significant, is set when column j is -1,
    so codes order patterns lexicographically with +1 before -1.
    """
    codes = np.zeros(len(signs), dtype=np.int64)
    for column in np.asarray(signs).T:
        codes = 2 * codes + (column < 0)
    return codes


def check_optimality(
    b: np.ndarray,
    a: np.ndarray,
    problem: ProblemDefinition,
    solution,
    partition: ClusterPartition,
    eps_sign: float | np.ndarray = DEFAULT_EPS_SIGN,
    residual: np.ndarray | None = None,
) -> tuple[bool, list[int], np.ndarray]:
    """Test whether every cluster's rows share one residual sign pattern.

    ``residual`` is ``b - problem.apply_f(solution, a)`` when the caller
    already has it; otherwise it is evaluated here. Returns the verdict, the
    indices of clusters with two or more distinct patterns, and each row's
    ``sign_codes`` value of its ``residual_signs`` pattern, with ``eps_sign``
    its zero band (a scalar, or one band per residual entry). A cluster
    disagrees exactly when the smallest and largest codes of its rows differ.
    """
    if residual is None:
        residual = _residual(b, problem.apply_f(solution, a))
    codes = sign_codes(residual_signs(residual, eps_sign))
    ordered = codes[partition.order]
    low = np.minimum.reduceat(ordered, partition.starts)
    high = np.maximum.reduceat(ordered, partition.starts)
    violating = np.flatnonzero(low != high).tolist()
    return (len(violating) == 0), violating, codes


def decluster(
    partition: ClusterPartition,
    codes: np.ndarray,
    violating: Sequence[int],
) -> ClusterPartition:
    """Split each violating cluster into its mode-pattern rows and the rest.

    ``codes`` holds each row's ``sign_codes`` value, as ``check_optimality``
    returns them. A cluster's mode is its most common pattern, the smallest
    code on a tie (+1 before -1, first column first). The mode rows take
    the cluster's slot and the rest follow right after it; other clusters
    are copied unchanged and move right to make room.
    """
    k = partition.cluster_count
    index = np.asarray(violating, dtype=np.int64)
    if index.size and (index.min() < 0 or index.max() >= k):
        raise DeclusterError("violating indices outside the cluster range")
    split = np.zeros(k, dtype=bool)
    split[index] = True
    codes = np.asarray(codes, dtype=np.int64)
    labels = partition.labels()
    width = int(codes.max(initial=0)) + 1
    table = np.bincount(labels * width + codes, minlength=k * width).reshape(k, width)
    single = split & (np.count_nonzero(table, axis=1) < 2)
    if single.any():
        raise DeclusterError(
            f"cluster {int(np.argmax(single))} was marked violating but has a single sign pattern"
        )
    mode = table.argmax(axis=1)
    return partition._split(split, split[labels] & (codes != mode[labels]))


def refine(
    a: np.ndarray, problem: ProblemDefinition, partition: ClusterPartition, terms
) -> ClusterPartition:
    """Split every cluster with a positive bound term in two, in place.

    The halves come from ``problem.split_cluster``. Other clusters are
    copied unchanged.
    """
    split = np.asarray(terms) > 0.0
    second = np.zeros(partition.n, dtype=bool)
    for c in np.flatnonzero(split).tolist():
        _, rest = problem.split_cluster(a, partition.rows(c))
        second[list(rest)] = True
    return partition._split(split, second)


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
    objective (see ``ProblemDefinition.solve_weighted``). Disagreeing
    clusters are split by ``decluster``. When a maximize-sense run's
    clusters agree but its gap exceeds ``tol``, ``refine`` splits every
    cluster with a positive upper-bound term. Raises ``IterationLimitError``
    carrying the partial report if ``config.max_iters`` is exhausted first.
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
    scale = float(np.abs(b).sum())

    partition = initial
    records: list[IterationRecord] = []
    best_internal = np.inf
    best_objective = np.inf
    best_solution = None
    upper = np.inf if maximize else None
    termination = None

    agg = None
    prior = None
    for t in range(1, max_iters + 1):
        agg = aggregate(b, a, partition, previous=agg)
        solution = problem.solve_weighted(agg, config.solver, prior=prior)
        bound = float(solution.objective) - float(getattr(solution, "certified_gap", 0.0))
        fitted = problem.apply_f(solution, a)
        residual = _residual(b, fitted)
        objective = float(np.abs(residual).sum())
        if flip * objective < best_internal:
            best_internal = flip * objective
            best_objective = objective
            best_solution = solution
        prior = (solution, best_objective)
        if maximize:
            terms = problem.bound_terms(a, partition)
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
        band = DEFAULT_EPS_SIGN * (np.abs(b) + np.abs(fitted))
        satisfied, violating, codes = check_optimality(
            b, a, problem, solution, partition, band, residual=residual
        )
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
        if maximize and not problem.fits_budget(partition.cluster_count + splits, config.solver):
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
