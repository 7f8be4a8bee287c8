"""Command-line interface: solve one instance, sweep a benchmark grid, or
generate instance bundles.

Exit codes: 0 success, 2 solver did not converge (for a benchmark: a rep's
loop or direct baseline failed), 3 bad input, 4 an enumeration or iteration
budget was exceeded.
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import os
import sys
from pathlib import Path

from .bench import (
    PROBLEM_IDS,
    SUMMARY_FIELDS,
    RunSettings,
    run_benchmark,
    run_solve,
    write_report,
)
from .core import IterationLimitError
from .data_io import CsvFormatError, SyntheticSpec, write_instance_bundle
from .problems import PCA_CAP, SPHERE_TOL, SUBSET_CAP, InstanceTooLargeError, SphereNotConvergedError

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_INPUT_ERROR = 3
EXIT_BUDGET = 4

OUTPUT_DIR_ENV = "AIDFIT_OUT"


def _default_out(name: str) -> Path:
    base = Path(os.environ.get(OUTPUT_DIR_ENV, "."))
    return base / name


def _inline_json_or_path(text: str) -> object | Path:
    """Parsed JSON when ``text`` starts with '{' or '[', else the path it
    names; inline JSON is never probed as a path, whatever its length."""
    stripped = text.strip()
    return json.loads(stripped) if stripped.startswith(("{", "[")) else Path(text)


def _load_json(text: str) -> object:
    """Inline JSON, or the JSON file that ``text`` names."""
    value = _inline_json_or_path(text)
    return json.loads(value.read_text()) if isinstance(value, Path) else value


def _spec(value: object) -> SyntheticSpec:
    try:
        return SyntheticSpec.from_dict(value)
    except (TypeError, ValueError) as exc:
        raise CsvFormatError(f"bad instance spec: {exc}") from exc


def _add_common_solver_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol", type=float, default=0.0, help="relative gap tolerance")
    parser.add_argument("--k0", default="auto", help="initial cluster count or 'auto'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--p", type=int, default=None, help="subset size / component count")
    parser.add_argument("--radius", type=float, default=None, help="ball constraint R")
    parser.add_argument(
        "--features",
        choices=["residuals", "pca_projection", "raw_data"],
        default=None,
        help="initial clustering feature space (default depends on problem)",
    )
    parser.add_argument("--models", type=int, default=5, help="residual feature fits")
    parser.add_argument("--feature-p", type=int, default=None)
    parser.add_argument("--max-iters", type=int, default=None)
    parser.add_argument("--sphere-tol", type=float, default=SPHERE_TOL)
    parser.add_argument("--subset-cap", type=int, default=SUBSET_CAP)
    parser.add_argument("--pca-cap", type=int, default=PCA_CAP)
    parser.add_argument("--standardize", action="store_true")


def _settings_from_args(args: argparse.Namespace) -> RunSettings:
    k0 = None if args.k0 == "auto" else int(args.k0)
    return RunSettings(
        problem=args.problem,
        tol=args.tol,
        seed=args.seed,
        k0=k0,
        feature_source=args.features,
        model_count=args.models,
        feature_p=args.feature_p,
        max_iters=args.max_iters,
        p=args.p,
        radius=args.radius,
        sphere_tol=args.sphere_tol,
        subset_cap=args.subset_cap,
        pca_cap=args.pca_cap,
        standardize=args.standardize,
    )


def _cmd_solve(args: argparse.Namespace) -> int:
    settings = _settings_from_args(args)
    value = _inline_json_or_path(args.instance)
    instance = args.instance if isinstance(value, Path) else _spec(value)
    report = run_solve(settings, instance)
    out = Path(args.out) if args.out else _default_out("solve_report.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    write_report(report, out)
    print(f"wrote {out}")
    return EXIT_OK if report["payload"]["converged"] else EXIT_NOT_CONVERGED


def _write_rows_csv(rows: list[dict], path: Path) -> None:
    flat_rows = []
    for row in rows:
        flat: dict[str, object] = {
            "cell_index": row["cell_index"],
            "rep": row["rep"],
            "error": row["error"],
        }
        for key, value in sorted(row["cell"].items()):
            flat[f"cell_{key}"] = value
        for side in ("direct", "aid"):
            for key, value in sorted(row.get(side, {}).items()):
                flat[f"{side}_{key}"] = value
        for key in ("rho", "delta"):
            if key in row:
                flat[key] = row[key]
        flat_rows.append(flat)
    fieldnames: list[str] = []
    for row in flat_rows:
        for key in row:
            if key not in fieldnames:
                fieldnames.append(key)
    with path.open("w", newline="\n") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        writer.writerows(flat_rows)


def _cell_line(summary: dict) -> str:
    """One cell's summary: each field's median [min, max]."""
    parts = [json.dumps(summary["cell"], sort_keys=True)]
    parts.append(f"failures {summary['failures']}/{summary['reps']}")
    parts.append(f"direct failures {summary['direct_failures']}/{summary['reps']}")
    for name, _ in SUMMARY_FIELDS:
        if name in summary:
            s = summary[name]
            parts.append(f"{name} {s['median']:.4g} [{s['min']:.4g}, {s['max']:.4g}]")
    return "  ".join(parts)


def _cmd_benchmark(args: argparse.Namespace) -> int:
    grid = _load_json(args.grid)
    settings = _settings_from_args(args)
    rows, cells = run_benchmark(
        args.problem,
        grid,
        reps=args.reps,
        base_settings=settings,
        base_seed=args.seed,
        skip_direct=args.no_direct,
    )
    out = Path(args.out) if args.out else _default_out("benchmark")
    out.mkdir(parents=True, exist_ok=True)
    rows_path = out / "results.jsonl"
    with rows_path.open("w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    summary = {
        "problem": args.problem,
        "grid": grid,
        "reps": args.reps,
        "rows": str(rows_path),
        "failures": sum(1 for r in rows if r["error"] is not None),
        "direct_failures": sum(cell["direct_failures"] for cell in cells),
        "cells": cells,
    }
    summary_path = out / "summary.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    if args.csv:
        _write_rows_csv(rows, out / "results.csv")
    for cell in cells:
        print(_cell_line(cell))
    print(f"wrote {rows_path} and {summary_path}")
    return EXIT_OK if summary["failures"] == summary["direct_failures"] == 0 else EXIT_NOT_CONVERGED


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = _spec(_load_json(args.spec))
    out = Path(args.out) if args.out else _default_out("instance")
    manifest = write_instance_bundle(spec, out)
    print(f"wrote {manifest}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Argument errors are input errors, so they exit with code 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"input error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT_ERROR)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="aidfit",
        description="L1 fitting with aggregation-based exact solvers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run one instance end to end")
    solve.add_argument("--problem", choices=PROBLEM_IDS, required=True)
    solve.add_argument(
        "--instance",
        required=True,
        help="instance bundle path or inline JSON spec",
    )
    solve.add_argument("--out", default=None)
    _add_common_solver_args(solve)
    solve.set_defaults(func=_cmd_solve)

    bench = sub.add_parser("benchmark", help="sweep a grid of generated instances")
    bench.add_argument("--problem", choices=PROBLEM_IDS, required=True)
    bench.add_argument("--grid", required=True, help="grid JSON (inline or file path)")
    bench.add_argument("--reps", type=int, default=10)
    bench.add_argument("--no-direct", action="store_true", help="skip the direct baseline")
    bench.add_argument("--csv", action="store_true", help="also write results.csv")
    bench.add_argument("--out", default=None)
    _add_common_solver_args(bench)
    bench.set_defaults(func=_cmd_benchmark)

    gen = sub.add_parser("generate", help="write an instance bundle to disk")
    gen.add_argument("--spec", required=True, help="SyntheticSpec JSON (inline or file)")
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=_cmd_generate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InstanceTooLargeError,) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (SphereNotConvergedError, IterationLimitError) as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except (CsvFormatError, FileNotFoundError, json.JSONDecodeError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:
        # a path argument longer than a file name may be names no input
        if exc.errno != errno.ENAMETOOLONG:
            raise
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def entry() -> None:  # pragma: no cover - console-script shim
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
