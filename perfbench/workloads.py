"""The benchmark's workloads: a fixed pool of instances per workload.

Each workload solves a fixed pool of instances (instance seeds 1..pool), in
an order set by the workload seed, so every instance solved has a reference
objective recorded in ``reference.json``. Per-instance times differ by up
to 40x (``l1pca-enum``), so the end-to-end metrics weigh every instance of
the pool the same, however often a run got to solve it; otherwise a run's
figures would depend on where in the seed's order it stopped.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from aidfit.bench import RunSettings
from aidfit.data_io import SyntheticSpec, generate_instance

CORE = {
    "core.run_aid",
    "core.aggregate",
    "core.check_optimality",
    "core.decluster",
    "problems.apply_f",
    "linalg.matmul",
    "clustering.build_initial_partition",
    "clustering.kmeans_one_pass",
    "data_io.generate_instance",
    "bench.validate_report",
    "bench.schema_validate",
}
LP = {"lad.solve_weighted_lad", "lad.weighted_lad_lp", "simplex.primal_simplex"}


@dataclass(frozen=True)
class Workload:
    name: str
    settings: RunSettings
    spec: SyntheticSpec
    warmup: SyntheticSpec
    required: frozenset[str]
    pool: int
    subgradient_check: bool = False

    def instance(self, instance_seed: int) -> tuple[RunSettings, SyntheticSpec]:
        return replace(self.settings, seed=instance_seed), replace(self.spec, seed=instance_seed)

    def instance_seeds(self, workload_seed: int) -> list[int]:
        """One pass: the pool in an order set by the workload seed."""
        order = np.random.default_rng(workload_seed).permutation(self.pool)
        return [int(i) + 1 for i in order]


def _regression(n: int, m: int, informative: int) -> SyntheticSpec:
    return SyntheticSpec(n=n, m=m, informative_p=informative)


def _pca(n: int, m: int) -> SyntheticSpec:
    return SyntheticSpec(n=n, m=m, informative_p=0, kind="pca_sample")


WORKLOADS = {
    w.name: w
    for w in (
        # LAD with n far above the cluster count: per-row sign checks in core dominate
        Workload(
            name="lad-tall",
            settings=RunSettings(problem="lad", k0=20, feature_source="raw_data"),
            spec=_regression(10_000, 2, 2),
            warmup=_regression(2_000, 2, 2),
            required=frozenset(CORE | LP),
            pool=32,
            subgradient_check=True,
        ),
        # best-subset LAD with nested clustering fits: the dense simplex dominates
        Workload(
            name="subset-paper",
            settings=RunSettings(problem="subset", p=2),
            spec=_regression(1_000, 6, 2),
            warmup=_regression(900, 6, 2),
            required=frozenset(
                CORE
                | LP
                | {"lad.solve_subset_selection", "clustering.residual_features", "core.nested_run_aid"}
            ),
            pool=32,
        ),
        # maximize-sense L1 PCA: sign enumeration dominates, with a heavy 2^(k-1) tail
        Workload(
            name="l1pca-enum",
            settings=RunSettings(problem="l1pca", p=1, k0=16),
            spec=_pca(2_000, 8),
            warmup=_pca(200, 8),
            required=frozenset(
                CORE
                | {
                    "pca.solve_weighted_l1pca",
                    "pca.solve_l1pca_exact",
                    "clustering.pca_projection_features",
                }
            ),
            pool=64,
        ),
    )
}


def instance_data(workload: Workload, instance_seed: int) -> tuple[np.ndarray | None, np.ndarray]:
    """(B, A) as plain arrays, exactly the data ``run_solve`` generates."""
    _, spec = workload.instance(instance_seed)
    a, b, _ = generate_instance(spec)
    return (None if b is None else b.values), a.values


def spec_fingerprint(workload: Workload) -> dict:
    """What the recorded references depend on."""
    settings, spec = workload.instance(0)
    return {"settings": repr(settings), "spec": spec.to_dict()}
