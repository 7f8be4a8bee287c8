#!/usr/bin/env python3
"""Print one line per benchmark pool instance: payload digest plus its key facts.

Solves every pool instance of every ``perfbench`` workload and of a fixed
``sphere`` pool (or, with ``--workload NAME``, of that one) through
``aidfit.bench.run_solve`` and prints

    workload seed digest objective termination counts signs

where ``digest`` is the sha256 of the payload serialized as JSON with sorted
keys, ``objective`` the ``repr`` of the returned objective, ``counts`` the
per-iteration cluster counts joined by commas, and ``signs`` a 12-digit
sha256 of the ``sign_matrix`` (``-`` for problems without one). The payload
is the deterministic part of a report, so two revisions that print the same
lines produce byte-identical outputs on the whole pool. When a change moves
the payload bytes only by rounding, the digests differ but the termination,
the cluster counts and the sign matrices must not, and the objectives can be
compared numerically.

No benchmark workload solves ``sphere``, whose cut LPs' duals feed
``certified_gap``; the ``sphere`` pool (``SPHERE_POOL`` instances, seeds 1
to 16: n = 600, m = 3, every column informative, radius 0.5) makes a change
to those duals show here.

The script solves with the ``src`` and ``perfbench`` next to it, so to
compare two checkouts run a copy of the other one first and compare with
its output:

    python3 ../other-checkout/scripts/payload_digests.py > old.txt
    python3 scripts/payload_digests.py --compare old.txt

    python3 scripts/payload_digests.py --workload subset-paper   # one pool

``--compare OLD`` prints, per workload, how many lines are identical to
OLD's line for the same instance, how many differ only in the digest or the
objective (with the largest relative objective difference among them), and
how many differ in the termination, the cluster counts or the signs (or
have no line in OLD); each of the last is printed with its OLD line, and
any of them makes the script exit with status 1.

BLAS runs single-threaded, as in the benchmark, so the lines repeat across
runs on one host.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SPHERE_POOL = 16


def payload_digest(report: dict) -> str:
    text = json.dumps(report["payload"], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def payload_facts(report: dict) -> str:
    payload = report["payload"]
    counts = ",".join(str(rec["cluster_count"]) for rec in payload["iterations"])
    signs = payload["solution"].get("sign_matrix")
    if signs is None:
        sign_hash = "-"
    else:
        sign_hash = hashlib.sha256(json.dumps(signs).encode()).hexdigest()[:12]
    return f"{payload['objective']!r} {payload['termination']} {counts} {sign_hash}"


def compare(old: list[str], new: list[str]) -> tuple[list[str], bool]:
    """Per workload, the summary of ``new``'s lines against ``old``'s, with
    every line whose facts differ; and whether any do."""
    before = {tuple(line.split()[:2]): line.split() for line in old}
    summary: dict[str, list] = {}
    report = []
    for line in new:
        fields = line.split()
        counts = summary.setdefault(fields[0], [0, 0, 0.0, 0])
        previous = before.get(tuple(fields[:2]))
        if previous == fields:
            counts[0] += 1
        elif previous is not None and previous[4:] == fields[4:]:
            counts[1] += 1
            a, b = float(previous[3]), float(fields[3])
            counts[2] = max(counts[2], abs(a - b) / max(abs(a), abs(b), 1e-300))
        else:
            counts[3] += 1
            report.append(f"  old: {' '.join(previous) if previous else '(none)'}")
            report.append(f"  new: {line}")
    lines = [
        f"{name}: {same} identical, {digest} digest only (max rel objective diff "
        f"{diff:.3g}), {moved} differ in termination, counts or signs"
        for name, (same, digest, diff, moved) in summary.items()
    ]
    return lines + report, bool(report)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="solve only this workload's pool")
    parser.add_argument("--compare", metavar="OLD", help="compare with this earlier output")
    args = parser.parse_args()
    old = None if args.compare is None else Path(args.compare).read_text().splitlines()
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from aidfit.bench import RunSettings, run_solve
    from aidfit.data_io import SyntheticSpec
    from workloads import WORKLOADS

    def sphere_instance(seed: int) -> tuple:
        return (
            RunSettings(problem="sphere", radius=0.5, seed=seed),
            SyntheticSpec(n=600, m=3, informative_p=3, seed=seed),
        )

    # per pool, its size and the (settings, spec) of each instance seed
    pools = {name: (w.pool, w.instance) for name, w in WORKLOADS.items()}
    pools["sphere"] = (SPHERE_POOL, sphere_instance)
    if args.workload is not None and args.workload not in pools:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(pools)}")
    lines = []
    for name, (size, instance) in pools.items():
        if args.workload not in (None, name):
            continue
        for seed in range(1, size + 1):
            report = run_solve(*instance(seed))
            lines.append(f"{name} {seed} {payload_digest(report)} {payload_facts(report)}")
            if old is None:
                print(lines[-1], flush=True)
    if old is not None:
        summary, moved = compare(old, lines)
        print("\n".join(summary))
        sys.exit(1 if moved else 0)


if __name__ == "__main__":
    main()
