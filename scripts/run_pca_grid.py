#!/usr/bin/env python3
"""PCA accuracy grid: aggregated runs against the exact full solve.

Sweeps small projected-deviation PCA instances, comparing the aggregation
loop's objective to exhaustive sign enumeration on the full data. Prints
per-cell mean relative error and timing ratios. At tol=0 every run stops on
a proof (its upper bound meets the incumbent), so the errors are at the
float-rounding level; runs that hit the enumeration cap stop uncertified
with termination ``enumeration_budget``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from aidfit.bench import RunSettings, run_benchmark


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=[8, 10, 12])
    parser.add_argument("--features", type=int, nargs="+", default=[3, 4])
    parser.add_argument("--components", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--reps", type=int, default=10)
    parser.add_argument("--k0", type=int, default=None)
    parser.add_argument("--out", type=Path, default=Path("pca_grid.json"))
    args = parser.parse_args()

    grid: dict = {"n": args.sizes, "m": args.features, "p": args.components}
    if args.k0 is not None:
        grid["k0"] = [args.k0]
    rows, aggregates = run_benchmark(
        "l1pca",
        grid,
        reps=args.reps,
        base_settings=RunSettings(problem="l1pca", tol=0.0),
    )
    print(f"{'cell':<30} {'mean delta':>10} {'mean rho':>9} {'mean T':>7} {'mean r_agg':>10}")
    for agg in aggregates:
        cell = json.dumps(agg["cell"], sort_keys=True)
        print(
            f"{cell:<30} {agg.get('mean_delta', float('nan')):>10.5f}"
            f" {agg.get('mean_rho', float('nan')):>9.3f}"
            f" {agg.get('mean_aid_iterations_run', float('nan')):>7.2f}"
            f" {agg.get('mean_aid_aggregation_rate', float('nan')):>10.3f}"
        )
    args.out.write_text(json.dumps(rows + aggregates, indent=2, sort_keys=True) + "\n")
    print(f"rows written to {args.out}")


if __name__ == "__main__":
    main()
