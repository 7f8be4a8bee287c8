#!/usr/bin/env python3
"""aidfit end-to-end benchmark: closed-loop solves of one workload.

Run from the repository root:

    python3 perfbench/run.py --workload lad-tall --seed 1 --seconds 30 --trace 0

One client solves the workload's instance pool back to back through
``aidfit.bench.run_solve`` for ``--seconds`` (at least one pass over the
pool) and checks every output. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` solves each instance untraced and traced back to back and
reports per-layer metrics and the tracing overhead. Human-readable lines
come first; the last line of standard output is the JSON result. Per-solve
rows (and spans, when traced) are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def bootstrap(root: Path) -> None:
    """Import aidfit from ``root/src`` and nowhere else, single-threaded BLAS."""
    src = root / "src"
    if not (src / "aidfit" / "__init__.py").is_file():
        raise SystemExit(f"no aidfit sources under {src}; run from the repository root")
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))
    import aidfit

    if Path(aidfit.__file__).resolve().parent != (src / "aidfit").resolve():
        raise SystemExit(f"imported aidfit from {aidfit.__file__}, not {src}")


def fresh_import(root: Path) -> None:
    """``import aidfit.bench`` in a fresh interpreter, as a new user process would."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    subprocess.run(
        [sys.executable, "-c", "import aidfit.bench"],
        cwd=root, env=env, capture_output=True, timeout=120, check=True,
    )


def setup(root: Path, workload, seed: int, reps: int) -> tuple[list[int], float, float]:
    """Import, instance list, warm-up solve, ``reps`` times.

    Returns the instance list and the median set-up time, normalized and raw.
    """
    from dataclasses import replace

    from aidfit.bench import run_solve
    from calibrate import Timer, normalized

    def once() -> list[int]:
        fresh_import(root)
        seeds = workload.instance_seeds(seed)
        run_solve(replace(workload.settings, seed=0), workload.warmup)
        return seeds

    timer = Timer()
    norm, raw = [], []
    for _ in range(reps):
        seeds, wall, kernel_s = timer.time(once)
        raw.append(wall)
        norm.append(normalized(wall, kernel_s))
    return seeds, statistics.median(norm), statistics.median(raw)


def sign_vectors(payload: dict) -> int:
    """Sign vectors the PCA enumeration scores over the run, computed."""
    if payload["problem"] != "l1pca":
        return 0
    p = payload["config"]["p"]
    return sum(2 ** (it["cluster_count"] * p - 1) for it in payload["iterations"])


class Runner:
    """Solves instances one at a time and keeps one row per solve."""

    def __init__(self, workload, seeds: list[int]):
        from aidfit.bench import run_solve
        from calibrate import Timer

        self.workload = workload
        self.seeds = seeds
        self.run_solve = run_solve
        self.rows: list[dict] = []
        self.payloads: list[dict | None] = []
        self.timer = Timer()

    def solve(self, instance_seed: int, label: str, tracer=None) -> None:
        """One solve, timed between two calibration kernel runs."""
        from calibrate import normalized

        settings, spec = self.workload.instance(instance_seed)
        row = {"mode": label, "instance_seed": instance_seed}

        def call():
            try:
                with tracer.installed() if tracer else nullcontext():
                    with tracer.solve() if tracer else nullcontext():
                        return self.run_solve(settings, spec)["payload"]
            except Exception:  # noqa: BLE001 - a failed solve is counted, the run goes on
                row["errors"] = [traceback.format_exc(limit=3)]
                return None

        payload, wall, kernel_s = self.timer.time(call)
        row.update(wall_s=wall, kernel_s=kernel_s, norm_s=normalized(wall, kernel_s))
        if payload is not None:
            row.update(
                iterations=payload["iterations_run"],
                final_clusters=payload["iterations"][-1]["cluster_count"],
                sign_vectors=sign_vectors(payload),
                objective=payload["objective"],
            )
        self.rows.append(row)
        self.payloads.append(payload)

    def closed_loop(self, seconds: float, solve_one) -> float:
        """Solves the pool in order, wrapping around, until ``seconds`` have
        passed and every instance was solved at least once."""
        start = time.perf_counter()
        index = 0
        while index < len(self.seeds) or time.perf_counter() - start < seconds:
            solve_one(index, self.seeds[index % len(self.seeds)])
            index += 1
        return time.perf_counter() - start

    def untraced(self, index: int, seed: int) -> None:
        self.solve(seed, "untraced")

    def paired(self, tracer):
        """Each instance untraced and traced back to back, alternating which
        goes first, so that a host slowdown hits both alike."""

        def solve_one(index: int, seed: int) -> None:
            for t in (None, tracer) if index % 2 == 0 else (tracer, None):
                self.solve(seed, "untraced" if t is None else "traced", t)

        return solve_one

    def verify(self, references: dict) -> int:
        """Check every solved output; returns the number that failed."""
        from checks import check_solve
        from workloads import instance_data

        w = self.workload
        cache: dict[int, tuple] = {}
        failed = 0
        for row, payload in zip(self.rows, self.payloads):
            if payload is not None:
                seed = row["instance_seed"]
                if seed not in cache:
                    cache[seed] = instance_data(w, seed)
                b, a = cache[seed]
                ref = references.get(str(seed))
                if ref is None:
                    row["errors"] = [f"no reference objective for instance {seed}"]
                else:
                    row["errors"] = check_solve(
                        w.settings.problem, payload, b, a, ref,
                        p=w.settings.p, subgradient=w.subgradient_check,
                    )
            row["ok"] = not row.get("errors")
            failed += not row["ok"]
        return failed


def load_references(workload) -> dict:
    from workloads import spec_fingerprint

    recorded = json.loads((HERE / "reference.json").read_text())[workload.name]
    if recorded["fingerprint"] != spec_fingerprint(workload):
        raise SystemExit(f"reference.json is stale for {workload.name}; rerun make_reference.py")
    return recorded["objectives"]


def instance_weights(rows: list[dict]) -> list[float]:
    """1 / (solves of the row's instance): every pool instance weighs the same,
    however often the run got to solve it."""
    counts = Counter(r["instance_seed"] for r in rows)
    return [1.0 / counts[r["instance_seed"]] for r in rows]


def weighted_quantile(values: list[float], weights: list[float], q: float) -> float:
    """The smallest value whose cumulative weight reaches ``q`` of the total."""
    pairs = sorted(zip(values, weights))
    target = q * sum(weights)
    cumulative = 0.0
    for value, weight in pairs:
        cumulative += weight
        if cumulative >= target:
            return value
    return pairs[-1][0]


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }


def write_jsonl(name: str, records) -> None:
    OUT.mkdir(exist_ok=True)
    with open(OUT / name, "w") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    bootstrap(root)
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        raise SystemExit("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    references = load_references(workload)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    print(f"# {tag} env {json.dumps(environment())}")

    seeds, setup_s, setup_wall_s = setup(
        root, workload, args.seed, SETUP_REPS if args.trace == 0 else 1
    )
    runner = Runner(workload, seeds)

    if args.trace == 0:
        elapsed = runner.closed_loop(args.seconds, runner.untraced)
        failed = runner.verify(references)
        attempted = len(runner.rows)
        write_jsonl(f"rows-{tag}.jsonl", runner.rows)
        weights = instance_weights(runner.rows)
        norm = [r["norm_s"] for r in runner.rows]
        walls = [r["wall_s"] for r in runner.rows]

        def mean(values):
            return sum(v * w for v, w in zip(values, weights)) / sum(weights)

        verified = 1 - failed / attempted
        metrics = {
            "solve_s_p50": (weighted_quantile(norm, weights, 0.5), "s"),
            "solves_per_s": (verified / mean(norm), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (setup_s, "s"),
        }
        print(f"solves {attempted} over a pool of {len(seeds)} in {elapsed:.3f} s, "
              f"failed_frac {failed / attempted:.6f}")
        print(f"solve_s_p50 is over n={attempted} solves")
        if attempted >= 100:
            print(f"solve_s_p90 {weighted_quantile(norm, weights, 0.9):.6g} s (n={attempted})")
        print(f"wall_solve_s_p50 {weighted_quantile(walls, weights, 0.5):.6g} s")
        print(f"wall_solves_per_s {verified / mean(walls):.6g} 1/s")
        print(f"wall_setup_s {setup_wall_s:.6g} s")
    else:
        from calibrate import REFERENCE_S
        from spans import Tracer, layer_metrics, self_by_layer

        tracer = Tracer()
        runner.closed_loop(args.seconds, runner.paired(tracer))
        failed = runner.verify(references)
        attempted = len(runner.rows)
        write_jsonl(f"spans-{tag}.jsonl", (s.to_dict() for s in tracer.spans))
        write_jsonl(f"rows-{tag}.jsonl", runner.rows)
        missing = sorted(workload.required - {s.name for s in tracer.spans})
        if missing:
            print(f"traced pass recorded no calls to {missing}", file=sys.stderr)
            return 1
        untraced = [r for r in runner.rows if r["mode"] == "untraced"]
        traced = [r for r in runner.rows if r["mode"] == "traced"]
        # traced rows are in solve-id order, so each solve's spans get its own factor
        scales = [REFERENCE_S / r["kernel_s"] for r in traced]
        metrics = layer_metrics(tracer.spans, scales)
        # paired per instance, so the heavy-tailed instances do not dominate
        overhead = statistics.median(t["norm_s"] / u["norm_s"] for u, t in zip(untraced, traced)) - 1
        metrics["trace.overhead_frac"] = (overhead, "fraction")
        print(f"solves {attempted} ({len(traced)} traced, {len(untraced)} untraced), "
              f"failed_frac {failed / attempted:.6f}")
        # self times partition the traced solve time; compare it with the untraced time
        by_layer = self_by_layer(tracer.spans, scales)
        for layer, value in sorted(by_layer.items(), key=lambda kv: -kv[1]):
            print(f"self {layer} {value:.6g} s/solve")
        total_self = sum(by_layer.values())
        untraced_mean = statistics.fmean(r["norm_s"] for r in untraced)
        print(f"self times sum {total_self:.6g} s/solve, untraced {untraced_mean:.6g} s/solve, "
              f"ratio - 1 = {total_self / untraced_mean - 1:.4f}")

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
