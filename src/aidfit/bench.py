"""Experiment orchestration: single solves, benchmark grids, report files.

Reports are split into a deterministic ``payload`` (byte-identical across
runs with the same seed and config) and a ``meta`` block holding wall-clock
times: the whole solve's and, within it, the initial partition's.
``REPORT_SCHEMA`` is checked against the Draft 7 metaschema once, at import;
every report is validated against it in full on every solve, and the trace
invariants are re-checked before anything is written.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import suppress
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import jsonschema
import numpy as np

from . import __version__
from .clustering import (
    InitialClusterConfig,
    build_initial_partition,
    default_initial_cluster_count,
)
from .core import (
    AidConfig,
    AidReport,
    AggregatedInstance,
    ClusterPartition,
    run_aid,
    validate_report,
)
from .data_io import (
    SyntheticSpec,
    generate_instance,
    load_instance_bundle,
    standardize_columns,
)
from .linalg import DataMatrix
from .problems import (
    PCA_CAP,
    SPHERE_TOL,
    SUBSET_CAP,
    LadRegressionProblem,
    PcaProjectionProblem,
    SphereRegressionProblem,
    SubsetSelectionProblem,
    solve_best_fit_hyperplane,
)

__all__ = [
    "PROBLEM_IDS",
    "REPORT_SCHEMA",
    "RunSettings",
    "run_solve",
    "run_benchmark",
    "relative_error",
    "write_report",
]

PROBLEM_IDS = ("lad", "subset", "sphere", "l1pca", "hyperplane")

REPORT_SCHEMA: dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["meta", "payload"],
    "properties": {
        "meta": {
            "type": "object",
            "required": ["tool", "version", "wall_time_s", "partition_s"],
            "properties": {
                "tool": {"type": "string"},
                "version": {"type": "string"},
                "wall_time_s": {"type": "number"},
                "partition_s": {"type": "number"},
            },
        },
        "payload": {
            "type": "object",
            "required": [
                "problem",
                "instance",
                "config",
                "iterations",
                "termination",
                "converged",
                "iterations_run",
                "aggregation_rate",
                "objective",
                "final_gap",
                "solution",
            ],
            "properties": {
                "problem": {"enum": list(PROBLEM_IDS)},
                "instance": {"type": "object"},
                "config": {"type": "object"},
                "iterations": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "required": [
                            "t",
                            "cluster_count",
                            "aggregated_objective",
                            "objective",
                            "best_objective",
                            "gap",
                        ],
                        "properties": {"upper_bound": {"type": "number"}},
                    },
                },
                "termination": {
                    "enum": [
                        "optimality_condition",
                        "gap_below_tol",
                        "fully_disaggregated",
                        "enumeration_budget",
                        "iteration_limit",
                    ]
                },
                "converged": {"type": "boolean"},
                "iterations_run": {"type": "integer", "minimum": 1},
                "aggregation_rate": {"type": "number", "minimum": 0, "maximum": 1},
                "objective": {"type": "number"},
                "final_gap": {"type": "number"},
                "solution": {"type": "object"},
            },
        },
    },
}

# ``jsonschema.validate`` re-checks its schema against the metaschema on every
# call, which costs more than validating a report. Check REPORT_SCHEMA once
# here and give ``validate`` a Draft 7 class that skips only that check.
jsonschema.Draft7Validator.check_schema(REPORT_SCHEMA)
_ReportValidator = jsonschema.validators.extend(jsonschema.Draft7Validator)
_ReportValidator.check_schema = classmethod(
    lambda cls, schema, **kwargs: None
    if schema is REPORT_SCHEMA
    else jsonschema.Draft7Validator.check_schema(schema, **kwargs)
)


@dataclass(frozen=True)
class RunSettings:
    """Everything needed to reproduce one solve."""

    problem: str
    tol: float = 0.0
    seed: int = 0
    k0: int | None = None
    feature_source: str | None = None
    model_count: int = 5
    feature_p: int | None = None
    max_iters: int | None = None
    p: int | None = None
    radius: float | None = None
    sphere_tol: float = SPHERE_TOL
    subset_cap: int = SUBSET_CAP
    pca_cap: int = PCA_CAP
    standardize: bool = False


def build_problem(settings: RunSettings, m: int):
    """The problem ``settings`` names, with its solver settings, for m feature columns."""
    pid = settings.problem
    if pid == "lad":
        return LadRegressionProblem()
    if pid == "subset":
        if settings.p is None:
            raise ValueError("subset selection needs p")
        return SubsetSelectionProblem(m, settings.p, cap=settings.subset_cap)
    if pid == "sphere":
        if settings.radius is None:
            raise ValueError("sphere regression needs a radius")
        return SphereRegressionProblem(settings.radius, tol=settings.sphere_tol)
    if pid == "l1pca":
        if settings.p is None:
            raise ValueError("l1pca needs p")
        return PcaProjectionProblem(settings.p, cap=settings.pca_cap)
    raise ValueError(f"unknown problem id {pid!r}")


def default_feature_source(problem: str) -> str:
    # hyperplane has no single target to fit residuals against
    return {"l1pca": "pca_projection", "hyperplane": "raw_data"}.get(problem, "residuals")


def _initial_partition(
    settings: RunSettings, b: DataMatrix | None, a: DataMatrix
) -> ClusterPartition:
    feature_p = settings.feature_p
    if feature_p is None and settings.p is not None and settings.problem != "l1pca":
        feature_p = settings.p
    cfg = InitialClusterConfig(
        target_cluster_count=settings.k0,
        feature_source=settings.feature_source,
        seed=settings.seed,
        model_count=settings.model_count,
        feature_p=feature_p,
        projection_p=settings.p or 1,
    )
    return build_initial_partition(b, a, cfg)


def solution_payload(problem: str, solution) -> dict:
    if problem in ("lad", "sphere"):
        payload = {"coefficients": [float(v) for v in solution.coefficients]}
        if problem == "sphere":
            payload["certified_gap"] = float(solution.certified_gap)
        return payload
    if problem == "subset":
        return {
            "support": [int(j) for j in solution.support],
            "coefficients": [float(v) for v in solution.coefficients],
        }
    if problem == "l1pca":
        return {
            "components": [[float(v) for v in row] for row in solution.components],
            "sign_matrix": [[int(v) for v in row] for row in solution.sign_matrix],
        }
    if problem == "hyperplane":
        return {
            "winning_column": solution.winning_column,
            "basis": [[float(v) for v in row] for row in solution.basis.values],
            "intercept": [float(v) for v in solution.intercept],
        }
    raise ValueError(f"no solution payload for problem {problem!r}")


def direct_solve(settings: RunSettings, b: DataMatrix | None, a: DataMatrix):
    """Full-data exact solve: the loop's own solver with every row a cluster."""
    if settings.problem == "hyperplane":
        return solve_best_fit_hyperplane(a, ClusterPartition.singletons(a.rows))
    problem = build_problem(settings, a.cols)
    if settings.problem == "l1pca":
        b = problem.zero_target(a.rows)
    agg = AggregatedInstance(b.values, a.values, np.ones(a.rows, dtype=np.int64))
    return problem.solve_weighted(agg)


def _report_iterations(report: AidReport) -> list[dict]:
    rows = []
    for rec in report.iterations:
        row = {
            "t": rec.t,
            "cluster_count": rec.cluster_count,
            "aggregated_objective": rec.aggregated_objective,
            "objective": rec.objective,
            "best_objective": rec.best_objective,
            "gap": rec.gap,
        }
        if rec.upper_bound is not None:
            row["upper_bound"] = rec.upper_bound
        rows.append(row)
    return rows


def run_solve(
    settings: RunSettings,
    instance: SyntheticSpec | str | Path,
) -> dict:
    """Solve one instance end to end and return the report dict."""
    if isinstance(instance, SyntheticSpec):
        a, b, _ = generate_instance(instance)
        instance_desc: dict[str, Any] = {"spec": instance.to_dict()}
    else:
        spec, a, b = load_instance_bundle(instance)
        instance_desc = {"path": str(instance), "spec": spec.to_dict()}
    if settings.standardize:
        a = standardize_columns(a)
    # the start's defaults, filled in once for the partition and the payload
    settings = replace(
        settings,
        k0=settings.k0 if settings.k0 is not None else default_initial_cluster_count(a.rows),
        feature_source=settings.feature_source or default_feature_source(settings.problem),
    )

    config = AidConfig(tol=settings.tol, max_iters=settings.max_iters)
    start = time.perf_counter()
    if settings.problem == "hyperplane":
        initial = _initial_partition(settings, None, a)
        partition_s = time.perf_counter() - start
        solution = solve_best_fit_hyperplane(a, initial, config)
        report = solution.report
    else:
        problem = build_problem(settings, a.cols)
        if settings.problem == "l1pca":
            b = problem.zero_target(a.rows)
        if b is None:
            raise ValueError(f"instance provides no target data for {settings.problem}")
        initial = _initial_partition(settings, b if settings.problem != "l1pca" else None, a)
        partition_s = time.perf_counter() - start
        report = run_aid(b, a, problem, initial, config)
        solution = report.solution
    wall = time.perf_counter() - start
    validate_report(report, tol=settings.tol)

    payload = {
        "problem": settings.problem,
        "instance": {"n": a.rows, "m": a.cols, **instance_desc},
        "config": _config_payload(settings),
        "iterations": _report_iterations(report),
        "termination": report.termination,
        "converged": report.converged,
        "iterations_run": report.total_iterations,
        "aggregation_rate": report.aggregation_rate,
        "objective": report.best_objective,
        "final_gap": report.final_gap,
        "solution": solution_payload(settings.problem, solution),
    }
    return _assemble_report(payload, wall, partition_s)


def _config_payload(settings: RunSettings) -> dict:
    cfg = {
        "tol": settings.tol,
        "seed": settings.seed,
        "k0": settings.k0,
        "feature_source": settings.feature_source,
        "model_count": settings.model_count,
        "feature_p": settings.feature_p,
        "max_iters": settings.max_iters,
        "sphere_tol": settings.sphere_tol,
        "subset_cap": settings.subset_cap,
        "pca_cap": settings.pca_cap,
    }
    if settings.p is not None:
        cfg["p"] = settings.p
    if settings.radius is not None:
        cfg["radius"] = settings.radius
    if settings.standardize:
        cfg["standardize"] = True
    return cfg


def _assemble_report(payload: dict, wall_time_s: float, partition_s: float) -> dict:
    report = {
        "meta": {
            "tool": "aidfit",
            "version": __version__,
            "wall_time_s": wall_time_s,
            "partition_s": partition_s,
        },
        "payload": payload,
    }
    jsonschema.validate(report, REPORT_SCHEMA, cls=_ReportValidator)
    return report


def write_report(report: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def relative_error(problem: str, direct_objective: float, aid_objective: float) -> float:
    """Comparison metric: |difference| over the reference.

    Subset selection divides by the smaller of the two objectives since
    neither side is privileged there; the rest divide by the direct solve.
    """
    diff = abs(direct_objective - aid_objective)
    if problem == "subset":
        denom = min(direct_objective, aid_objective)
    else:
        denom = direct_objective
    if denom == 0.0:
        return 0.0 if diff == 0.0 else float("inf")
    return diff / denom


def _instance_spec_for_cell(problem: str, cell: dict, seed: int) -> SyntheticSpec:
    n = int(cell["n"])
    m = int(cell["m"])
    if problem == "l1pca":
        return SyntheticSpec(
            n=n,
            m=m,
            informative_p=0,
            noise_sigma=float(cell.get("noise_sigma", 1.0)),
            seed=seed,
            kind="pca_sample",
        )
    informative = int(cell.get("p", m)) if problem == "subset" else m
    return SyntheticSpec(
        n=n,
        m=m,
        informative_p=informative,
        noise_sigma=float(cell.get("noise_sigma", 1.0)),
        seed=seed,
        kind="regression",
    )


def _cell_settings(problem: str, cell: dict, base: RunSettings, seed: int) -> RunSettings:
    updates: dict[str, Any] = {"seed": seed}
    if "p" in cell:
        updates["p"] = int(cell["p"])
    if "R" in cell:
        updates["radius"] = float(cell["R"])
    if "k0" in cell:
        updates["k0"] = int(cell["k0"])
    return replace(base, **updates)


def seed_for(base_seed: int, cell_index: int, rep: int) -> int:
    """Deterministic per-run seed: distinct cells and reps never collide."""
    return base_seed + 104_729 * cell_index + rep


def _run_cell_rep(
    problem: str,
    cell: dict,
    cell_index: int,
    rep: int,
    base_settings: RunSettings,
    base_seed: int,
    skip_direct: bool,
) -> dict:
    seed = seed_for(base_seed, cell_index, rep)
    row: dict[str, Any] = {
        "cell_index": cell_index,
        "cell": cell,
        "rep": rep,
        "seed": seed,
        "error": None,
    }
    try:
        settings = _cell_settings(problem, cell, base_settings, seed)
        spec = _instance_spec_for_cell(problem, cell, seed)
        a, b, _ = generate_instance(spec)
        if not skip_direct:
            row["direct"] = _direct_row(settings, b, a)
        report = run_solve(settings, spec)
        payload = report["payload"]
        row["aid"] = {
            "objective": payload["objective"],
            "wall_time_s": report["meta"]["wall_time_s"],
            "partition_s": report["meta"]["partition_s"],
            "iterations_run": payload["iterations_run"],
            "aggregation_rate": payload["aggregation_rate"],
            "final_gap": payload["final_gap"],
            "termination": payload["termination"],
        }
        if "objective" in row.get("direct", {}):
            row["rho"] = row["aid"]["wall_time_s"] / row["direct"]["wall_time_s"]
            row["delta"] = relative_error(
                problem, row["direct"]["objective"], payload["objective"]
            )
    except Exception as exc:  # noqa: BLE001 - per-cell failures stay in-row
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def _direct_row(settings: RunSettings, b: DataMatrix | None, a: DataMatrix) -> dict:
    """The direct baseline's objective and time, or its error."""
    try:
        t0 = time.perf_counter()
        direct = direct_solve(settings, b, a)
        return {"objective": float(direct.objective), "wall_time_s": time.perf_counter() - t0}
    except Exception as exc:  # noqa: BLE001 - a failed baseline stays in-row
        return {"error": f"{type(exc).__name__}: {exc}"}


# The numeric fields of a cell summary, each read from one successful row;
# a row without the field (no direct baseline, or a failed one) is skipped.
SUMMARY_FIELDS = (
    ("direct_objective", lambda r: r["direct"]["objective"]),
    ("direct_s", lambda r: r["direct"]["wall_time_s"]),
    ("objective", lambda r: r["aid"]["objective"]),
    ("wall_s", lambda r: r["aid"]["wall_time_s"]),
    ("partition_s", lambda r: r["aid"]["partition_s"]),
    ("loop_s", lambda r: r["aid"]["wall_time_s"] - r["aid"]["partition_s"]),
    ("iterations", lambda r: r["aid"]["iterations_run"]),
    ("aggregation_rate", lambda r: r["aid"]["aggregation_rate"]),
    ("final_gap", lambda r: r["aid"]["final_gap"]),
    ("rho", lambda r: r["rho"]),
    ("delta", lambda r: r["delta"]),
)


def _summarize_cell(cell: dict, rows: list[dict]) -> dict:
    """One cell's rep count, its failed loops and failed direct baselines,
    and the median, min and max of each summary field over its successful
    rows."""
    ok = [r for r in rows if r["error"] is None]
    summary: dict[str, Any] = {
        "cell": cell,
        "reps": len(rows),
        "failures": len(rows) - len(ok),
        "direct_failures": sum("error" in r.get("direct", {}) for r in rows),
    }
    for name, read in SUMMARY_FIELDS:
        values = []
        for r in ok:
            with suppress(KeyError):
                values.append(float(read(r)))
        if values:
            summary[name] = {
                "median": float(np.median(values)), "min": min(values), "max": max(values)
            }
    return summary


def expand_grid(grid: dict) -> list[dict]:
    """Cartesian product of the grid axes, keys in sorted order."""
    keys = sorted(grid)
    cells = []
    for combo in itertools.product(*(grid[k] for k in keys)):
        cells.append(dict(zip(keys, combo)))
    return cells


def run_benchmark(
    problem: str,
    grid: dict,
    reps: int,
    base_settings: RunSettings | None = None,
    base_seed: int = 0,
    skip_direct: bool = False,
) -> tuple[list[dict], list[dict]]:
    """Run every (cell, repetition) pair serially, in grid order; returns
    (rows, one summary per cell).

    The first cell's rep 0 is solved once more, untimed, before the grid,
    so that no timed rep pays the process's first calls."""
    if not grid:
        raise ValueError("benchmark grid is empty")
    base_settings = base_settings or RunSettings(problem=problem)
    cells = expand_grid(grid)
    _run_cell_rep(problem, cells[0], 0, 0, base_settings, base_seed, skip_direct)
    rows, summaries = [], []
    for ci, cell in enumerate(cells):
        cell_rows = [
            _run_cell_rep(problem, cell, ci, rep, base_settings, base_seed, skip_direct)
            for rep in range(reps)
        ]
        rows += cell_rows
        summaries.append(_summarize_cell(cell, cell_rows))
    return rows, summaries
