#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternation and print each arm's medians.

    python3 scripts/bench_pairs.py OLD NEW --workload lad-tall --pairs 5 --seconds 30
    python3 scripts/bench_pairs.py OLD NEW --workload lad-tall,subset-paper,l1pca-enum

``--workload`` takes one workload or a comma-separated list; the script
runs all pairs of one workload before the next and prints everything below
once per workload, so one command gives a record of several workloads.
Pair i runs ``python3 perfbench/run.py --workload W --seed S+i --seconds T
--trace 0`` once in each checkout, one after the other; the arm that goes
first alternates from pair to pair, so neither always runs on a machine the
other has just warmed. Both arms of a pair solve the pool in the same order.
After each run the script reads the run's JSON result line, its
``wall_solve_s_p50`` and ``wall_setup_s`` lines and its
``perfbench/out/rows-*.jsonl`` file, and prints one line per run. At the
end it prints, per arm, the medians over the pairs of

    solve_s_p50 solves_per_s wall_solve_s_p50 kernel_s setup_s wall_setup_s peak_rss_mb

(``kernel_s`` is the median of the run's per-solve calibration times) and
the quartiles of ``solve_s_p50``, then each arm's per-run ``setup_s``
values, sorted: ``setup_s`` can take one of two modes per process, and a
median alone hides which mode each run got. Last comes one verdict line
per end-to-end metric of ``BENCHMARK.json``, judged by its ``better`` and
``bound`` (see ``verdict``): improved, within bound, WORSE (beyond the
bound) or unresolved (OLD's quartile spread is wider than the bound), then
in how many pairs NEW was better and the median change against that
spread. Two more verdict lines judge the raw ``wall_solve_s_p50`` and
``wall_setup_s`` the same way, against the bounds of ``solve_s_p50`` and
``setup_s``; they are marked "raw, not declared".
The last, ``normalizer`` line compares the arms' median ``kernel_s`` (see
``normalizer_line``).

The normalized times divide each wall time by a calibration kernel timed in
the same process, and that kernel's speed can move with what the solver
allocates, so a record should give the raw wall times and ``kernel_s`` next
to the normalized ones. Nothing is written under ``perfbench/`` except what
the runs themselves write to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

FIELDS = ("solve_s_p50", "solves_per_s", "wall_solve_s_p50", "kernel_s", "setup_s", "wall_setup_s",
          "peak_rss_mb")
# each raw wall time run.py prints, by the declared metric whose bound judges it
RAW = {"wall_solve_s_p50": "solve_s_p50", "wall_setup_s": "setup_s"}


class Verdict(NamedTuple):
    won: int
    pairs: int
    change: float
    spread: float
    improved: bool
    worse: bool
    resolved: bool

    @property
    def label(self) -> str:
        if not self.resolved:
            return "unresolved"
        return "WORSE" if self.worse else "improved" if self.improved else "within bound"


def verdict(old: list[float], new: list[float], better: str, bound: float) -> Verdict:
    """Judge one end-to-end metric over paired runs of OLD and NEW.

    ``won`` counts the pairs where NEW is strictly better in the ``better``
    direction ("lower" or "higher"). ``change`` is NEW's median minus OLD's
    and ``spread`` OLD's upper minus lower quartile. NEW has ``improved``
    when it won at least nine tenths of the pairs and its median is better
    by more than the spread; it is ``worse`` when its median is worse than
    OLD's by more than ``bound`` as a fraction of OLD's median. Either
    reading is ``resolved`` only when the spread is within that bound, or
    every run of NEW is better than every run of OLD.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    if len(old) != len(new) or not old:
        raise ValueError("need the same positive number of OLD and NEW runs")
    sign = 1.0 if better == "lower" else -1.0
    won = sum(sign * (n - o) < 0 for o, n in zip(old, new))
    base = statistics.median(old)
    change = statistics.median(new) - base
    low, _, high = statistics.quantiles(old, n=4) if len(old) > 1 else [old[0]] * 3
    spread = high - low
    allowed = bound * abs(base)
    return Verdict(
        won=won,
        pairs=len(old),
        change=change,
        spread=spread,
        improved=10 * won >= 9 * len(old) and -sign * change > spread,
        worse=sign * change > allowed,
        resolved=spread <= allowed or max(sign * v for v in new) < min(sign * v for v in old),
    )


def verdict_lines(runs: dict[str, list[dict]], declared: list[dict]) -> list[str]:
    """One verdict line per declared end-to-end metric, then one per raw wall time.

    Each ``RAW`` field whose normalized counterpart is declared is judged
    lower-is-better against that metric's bound, so a record shows whether
    a normalized change holds in wall time.
    """
    bounds = {m["name"]: m["bound"] for m in declared}
    judged = [(m["name"], m["better"], m["bound"], "") for m in declared]
    judged += [(raw, "lower", bounds[name], "raw, not declared, ")
               for raw, name in RAW.items() if name in bounds]
    lines = []
    for name, better, bound, note in judged:
        v = verdict([r[name] for r in runs["old"]], [r[name] for r in runs["new"]], better, bound)
        lines.append(f"verdict {name} ({note}{better} is better, bound {bound:g}): {v.label};"
                     f" new better in {v.won} of {v.pairs} pairs; median change {v.change:+.6g}"
                     f" against old quartile spread {v.spread:.6g}")
    return lines


def normalizer_line(runs: dict[str, list[dict]], bound: float) -> str:
    """Whether both arms' normalized times divide by one calibration kernel state.

    When the arms' median ``kernel_s`` differ by more than ``bound`` (a
    fraction of OLD's median, ``solve_s_p50``'s bound), the normalized
    verdicts compare two kernel states, not two programs, and the raw wall
    times are the ones to read.
    """
    old = statistics.median(r["kernel_s"] for r in runs["old"])
    new = statistics.median(r["kernel_s"] for r in runs["new"])
    label = "same kernel state"
    if abs(new - old) > bound * old:
        label = ("KERNEL STATES DIFFER: the normalized verdicts compare two kernel states,"
                 " not two programs")
    return (f"verdict normalizer (median kernel_s, bound {bound:g}): {label};"
            f" old {old:.6g} new {new:.6g}, change {new / old - 1.0:+.1%}")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``checkout``; its metrics by FIELDS name."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run in {checkout} failed:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    out = {name: m["value"] for name, m in result["metrics"].items()}
    out["failed"] = result["failed"]
    for raw in RAW:
        out[raw] = float(next(line for line in lines if line.startswith(raw + " ")).split()[1])
    rows_file = checkout / "perfbench" / "out" / f"rows-{workload}-seed{seed}-trace0.jsonl"
    rows = [json.loads(line) for line in rows_file.read_text().splitlines()]
    out["kernel_s"] = statistics.median(r["kernel_s"] for r in rows)
    return out


def run_pairs(arms: dict[str, Path], workload: str, pairs: int, seconds: float,
              seed: int) -> dict[str, list[dict]]:
    """Run ``pairs`` alternating pairs of one workload; print a line per run."""
    runs: dict[str, list[dict]] = {"old": [], "new": []}
    print(f"# {workload}\npair arm " + " ".join(FIELDS) + " failed")
    for i in range(pairs):
        order = ("old", "new") if i % 2 == 0 else ("new", "old")
        for arm in order:
            r = run_once(arms[arm], workload, seed + i, seconds)
            runs[arm].append(r)
            print(f"{i} {arm} " + " ".join(f"{r[f]:.6g}" for f in FIELDS) + f" {r['failed']}",
                  flush=True)
    return runs


def summary_lines(workload: str, runs: dict[str, list[dict]], seconds: float,
                  declared: list[dict]) -> list[str]:
    """One workload's block: per-arm medians and quartiles, ``setup_s`` runs,
    a verdict per end-to-end metric and raw wall time, and the normalizer."""
    pairs = len(runs["old"])
    lines = [f"# {workload}: medians over {pairs} pairs of {seconds:g} s runs"]
    for arm, rs in runs.items():
        medians = " ".join(f"{f} {statistics.median(r[f] for r in rs):.6g}" for f in FIELDS)
        p50 = [r["solve_s_p50"] for r in rs]
        quartiles = statistics.quantiles(p50, n=4) if len(p50) > 1 else [p50[0]] * 3
        lines.append(f"{arm} {medians} solve_s_p50_quartiles {quartiles[0]:.6g} {quartiles[2]:.6g}")
    for arm, rs in runs.items():
        setups = sorted(r["setup_s"] for r in rs)
        lines.append(f"{arm} setup_s runs " + " ".join(f"{v:.6g}" for v in setups))
    lines += verdict_lines(runs, declared)
    solve_bound = next(m["bound"] for m in declared if m["name"] == "solve_s_p50")
    lines.append(normalizer_line(runs, solve_bound))
    return lines


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="checkout of the baseline")
    parser.add_argument("new", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, help="one workload or a comma-separated list")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    arms = {"old": args.old.resolve(), "new": args.new.resolve()}
    for path in arms.values():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"{path} has no perfbench/run.py")
    workloads = [w.strip() for w in args.workload.split(",") if w.strip()]
    if not workloads:
        parser.error("--workload names no workload")
    declared = json.loads((arms["new"] / "BENCHMARK.json").read_text())["end_to_end"]
    for workload in workloads:
        runs = run_pairs(arms, workload, args.pairs, args.seconds, args.seed)
        print("\n".join(summary_lines(workload, runs, args.seconds, declared)), flush=True)


if __name__ == "__main__":
    main()
