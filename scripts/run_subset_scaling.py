#!/usr/bin/env python3
"""Scaling study: how aggregation pays off as the row count grows.

Runs best-subset LAD regression at several n, records the terminal cluster
fraction and iteration counts, and prints a small table. Every size is also
solved directly on all n rows, the baseline of ``rho`` and ``delta``. The
loop's time splits into the initial partition's seconds (``partition``) and
the rest of the solve (``loop``), each a median over the reps.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from aidfit.bench import RunSettings, run_benchmark


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=[200, 800, 3200])
    parser.add_argument("--m", type=int, default=6)
    parser.add_argument("--p", type=int, default=2)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--out", type=Path, default=Path("subset_scaling.json"))
    args = parser.parse_args()

    all_rows = []
    print(
        f"{'n':>6} {'med r_agg':>10} {'med T':>6} {'med time(s)':>12} {'partition':>10}"
        f" {'loop':>8} {'med rho':>8} {'med delta':>10}"
    )
    for n in args.sizes:
        rows, _ = run_benchmark(
            "subset",
            {"n": [n], "m": [args.m], "p": [args.p]},
            reps=args.reps,
            base_settings=RunSettings(problem="subset", tol=0.0, p=args.p),
        )
        ok = [r for r in rows if r["error"] is None]
        r_agg = float(np.median([r["aid"]["aggregation_rate"] for r in ok]))
        iters = float(np.median([r["aid"]["iterations_run"] for r in ok]))
        wall = float(np.median([r["aid"]["wall_time_s"] for r in ok]))
        partition = float(np.median([r["aid"]["partition_s"] for r in ok]))
        loop = float(np.median([r["aid"]["wall_time_s"] - r["aid"]["partition_s"] for r in ok]))
        rho = float(np.median([r["rho"] for r in ok]))
        delta = float(np.median([r["delta"] for r in ok]))
        print(
            f"{n:>6} {r_agg:>10.4f} {iters:>6.0f} {wall:>12.3f} {partition:>10.4f}"
            f" {loop:>8.4f} {rho:>8.2f} {delta:>10.2e}"
        )
        all_rows.extend(rows)
    args.out.write_text(json.dumps(all_rows, indent=2, sort_keys=True) + "\n")
    print(f"rows written to {args.out}")


if __name__ == "__main__":
    main()
