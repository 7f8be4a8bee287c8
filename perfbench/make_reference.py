#!/usr/bin/env python3
"""Record the per-instance reference objectives the benchmark checks against.

Run from the repository root:

    python3 perfbench/make_reference.py [--workload NAME ...]

Each pool instance is solved with ``aidfit.bench.run_solve``. For the
minimize-sense workloads the objective is cross-checked against an
independent LP solve (scipy's HiGHS, when scipy is importable) to 1e-6
relative before it is recorded. L1 PCA has no independent exact solver at
these sizes, so its reference is the value this revision reaches; the
benchmark then fails any later solve that falls below it.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import bootstrap  # noqa: E402

CROSS_CHECK_TOL = 1e-6


def highs_lad(b, a) -> float:
    """min ||b - a x||_1 through its LP dual: max b @ v, a^T v = 0, -1 <= v <= 1."""
    from scipy.optimize import linprog

    res = linprog(-b, A_eq=a.T, b_eq=[0.0] * a.shape[1], bounds=(-1.0, 1.0), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return float(-res.fun)


def independent_objective(workload, seed: int) -> float | None:
    from workloads import instance_data

    try:
        import scipy  # noqa: F401
    except ImportError:
        return None
    b, a = instance_data(workload, seed)
    problem = workload.settings.problem
    if problem == "lad":
        return highs_lad(b.ravel(), a)
    if problem == "subset":
        p = workload.settings.p
        return min(highs_lad(b.ravel(), a[:, list(s)]) for s in combinations(range(a.shape[1]), p))
    return None


def main() -> int:
    bootstrap(Path.cwd())
    from aidfit.bench import run_solve
    from workloads import WORKLOADS, spec_fingerprint

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="*", default=sorted(WORKLOADS))
    args = parser.parse_args()

    path = HERE / "reference.json"
    recorded = json.loads(path.read_text()) if path.exists() else {}
    for name in args.workload:
        workload = WORKLOADS[name]
        objectives = {}
        for seed in range(1, workload.pool + 1):
            settings, spec = workload.instance(seed)
            value = run_solve(settings, spec)["payload"]["objective"]
            other = independent_objective(workload, seed)
            if other is not None and abs(value - other) > CROSS_CHECK_TOL * abs(other):
                raise SystemExit(f"{name} instance {seed}: aidfit {value!r} vs HiGHS {other!r}")
            objectives[str(seed)] = value
            print(f"{name} {seed} {value!r} {'' if other is None else repr(other)}", flush=True)
        recorded[name] = {"fingerprint": spec_fingerprint(workload), "objectives": objectives}
        path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
