"""Acceptance suite: one test per contract criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``. The whole suite is
seeded and finishes in a few minutes.

Residual-sign agreement certifies global optimality for minimize-sense
problems only. The maximize-sense PCA checks (c01 for ``l1pca``, both c07
checks) demand exact equivalence, which holds because the loop refines past
agreement until a sound upper bound meets the incumbent.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import pytest

from aidfit.bench import RunSettings, run_benchmark, run_solve
from aidfit.clustering import (
    InitialClusterConfig,
    build_initial_partition,
    default_initial_cluster_count,
    kmeans_one_pass,
)
from aidfit.core import (
    AidConfig,
    AidReport,
    ClusterPartition,
    decluster,
    run_aid,
    sign_codes,
)
from aidfit.data_io import SyntheticSpec, generate_instance
from aidfit.linalg import DataMatrix, matmul
from aidfit.problems import (
    LadRegressionProblem,
    PcaProjectionProblem,
    SphereRegressionProblem,
    SubsetSelectionProblem,
    solve_best_fit_hyperplane,
    solve_l1pca_exact,
    solve_sphere_lad,
    solve_subset_selection,
    solve_weighted_lad,
    solve_weighted_l1pca,
)
from conftest import make_agg
from oracles import (
    hyperplane_oracle,
    lad_vertex_oracle,
    sphere_grid_oracle,
    sphere_interval_oracle,
    subset_oracle,
)

PROBLEMS = ("lad", "subset", "sphere", "l1pca")
# tight enough that certified solutions are exact at the 1e-9 scale checked
# below, loose enough to sit above the float-evaluation floor of the gap
SPHERE_TOL = 1e-11


def emit(num: int, label: str, ok: bool, detail: str = "") -> None:
    print(f"[criterion {num:2d}] {label}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({label}) failed {detail}"


@dataclass
class Run:
    problem: str
    n: int
    report: AidReport
    direct_objective: float


def _log_uniform(rng, low, high):
    return int(round(low * (high / low) ** rng.uniform()))


def _build_and_run(problem: str, spec: SyntheticSpec, p: int, radius: float | None, tol: float) -> Run:
    a, b, _ = generate_instance(spec)
    n, m = a.rows, a.cols
    if problem == "lad":
        prob = LadRegressionProblem()
        direct = solve_weighted_lad(make_agg(b.values, a.values)).objective
        features = InitialClusterConfig(
            default_initial_cluster_count(n), "residuals", spec.seed, feature_p=m
        )
    elif problem == "subset":
        prob = SubsetSelectionProblem(m, p)
        direct = solve_subset_selection(make_agg(b.values, a.values), p).objective
        features = InitialClusterConfig(
            default_initial_cluster_count(n), "residuals", spec.seed, feature_p=p
        )
    elif problem == "sphere":
        prob = SphereRegressionProblem(radius, tol=SPHERE_TOL)
        direct = solve_sphere_lad(
            make_agg(b.values, a.values), radius, tol=SPHERE_TOL
        ).objective
        features = InitialClusterConfig(
            default_initial_cluster_count(n), "residuals", spec.seed, feature_p=m
        )
    else:
        prob = PcaProjectionProblem(p)
        b = prob.zero_target(n)
        direct = solve_l1pca_exact(a, p).objective
        features = InitialClusterConfig(
            default_initial_cluster_count(n), "pca_projection", spec.seed, projection_p=p
        )
    initial = build_initial_partition(
        b if problem != "l1pca" else None, a, features
    )
    report = run_aid(b, a, prob, initial, AidConfig(tol=tol))
    return Run(problem=problem, n=n, report=report, direct_objective=direct)


def _instance_params(problem: str, rng) -> tuple[SyntheticSpec, int, float | None]:
    if problem == "lad":
        n, m = _log_uniform(rng, 20, 300), int(rng.integers(1, 7))
        spec = SyntheticSpec(n=n, m=m, informative_p=m, seed=int(rng.integers(1 << 30)))
        return spec, 0, None
    if problem == "subset":
        n, m = _log_uniform(rng, 20, 200), int(rng.integers(2, 7))
        p = int(rng.integers(1, min(3, m) + 1))
        spec = SyntheticSpec(n=n, m=m, informative_p=p, seed=int(rng.integers(1 << 30)))
        return spec, p, None
    if problem == "sphere":
        # moderate coefficient scale keeps the certified-gap floor well
        # below the solver tolerance even on near-perfect-fit aggregations
        n, m = _log_uniform(rng, 20, 200), int(rng.integers(1, 5))
        spec = SyntheticSpec(
            n=n,
            m=m,
            informative_p=m,
            coef_range=(0.0, 10.0),
            seed=int(rng.integers(1 << 30)),
        )
        _, _, coeffs = generate_instance(spec)
        radius = float(coeffs @ coeffs) * float(rng.uniform(0.05, 1.5)) + 1.0
        return spec, 0, radius
    n, m = int(rng.integers(4, 13)), int(rng.integers(2, 5))
    p = int(rng.integers(1, 3))
    spec = SyntheticSpec(
        n=n, m=m, informative_p=0, seed=int(rng.integers(1 << 30)), kind="pca_sample"
    )
    return spec, p, None


@lru_cache(maxsize=None)
def c1_runs(problem: str, tol: float = 0.0, count: int = 100) -> tuple[Run, ...]:
    rng = np.random.default_rng({"lad": 101, "subset": 202, "sphere": 303, "l1pca": 404}[problem])
    runs = []
    for _ in range(count):
        spec, p, radius = _instance_params(problem, rng)
        runs.append(_build_and_run(problem, spec, p, radius, tol))
    return tuple(runs)


def _c1_tolerance(problem: str) -> float:
    return 1e-6 if problem == "l1pca" else 1e-9


def _check_c1(problem: str) -> None:
    runs = c1_runs(problem)
    tol = _c1_tolerance(problem)
    diffs = [abs(r.report.best_objective - r.direct_objective) for r in runs]
    bad = sum(1 for d in diffs if d > tol)
    emit(
        1,
        f"global-optimality equivalence ({problem}, tol={tol:g})",
        bad == 0,
        f"[{len(runs)} runs, worst |diff| {max(diffs):.3e}, violations {bad}]",
    )


def test_c01_equivalence_lad():
    _check_c1("lad")


def test_c01_equivalence_subset():
    _check_c1("subset")


def test_c01_equivalence_sphere():
    _check_c1("sphere")


def test_c01_equivalence_l1pca():
    # maximize sense: sign agreement alone is no proof here, so the loop
    # refines until its upper bound meets the incumbent (see module docstring)
    _check_c1("l1pca")


def test_c02_bound_monotonicity():
    worst = 0.0
    for problem in PROBLEMS:
        for run in c1_runs(problem):
            bounds = [rec.aggregated_objective for rec in run.report.iterations]
            for earlier, later in zip(bounds, bounds[1:]):
                worst = max(worst, earlier - later)
    emit(2, "aggregated bound nondecreasing", worst <= 1e-9, f"[worst drop {worst:.3e}]")


def test_c03_sandwich_gap_and_tol():
    worst_sandwich = -np.inf
    worst_gap_err = 0.0
    worst_condition_eq = 0.0
    for problem in PROBLEMS:
        for run in c1_runs(problem):
            for rec in run.report.iterations:
                worst_sandwich = max(
                    worst_sandwich, rec.aggregated_objective - rec.best_objective
                )
                # full sandwich through the known optimum; the gap is the
                # slack on the far side of the incumbent, over the incumbent
                if problem == "l1pca":
                    # maximize sense: aggregated <= best <= optimum <= upper bound
                    chain = (rec.best_objective, run.direct_objective, rec.upper_bound)
                    slack = rec.upper_bound - rec.best_objective
                else:
                    # minimize sense: aggregated <= optimum <= best
                    chain = (rec.aggregated_objective, run.direct_objective, rec.best_objective)
                    slack = rec.best_objective - rec.aggregated_objective
                worst_sandwich = max(
                    worst_sandwich, chain[0] - chain[1], chain[1] - chain[2]
                )
                if rec.best_objective > 0:
                    worst_gap_err = max(
                        worst_gap_err, abs(slack / rec.best_objective - rec.gap)
                    )
            if run.report.termination in ("optimality_condition", "fully_disaggregated"):
                last = run.report.iterations[-1]
                worst_condition_eq = max(
                    worst_condition_eq,
                    abs(last.objective - last.aggregated_objective),
                )
    ok = worst_sandwich <= 1e-9 and worst_gap_err <= 1e-12 and worst_condition_eq <= 1e-9

    # termination honors the configured tolerance (1e-12 slack covers the
    # float dust between the two evaluation routes of the same objective)
    for tol in (0.0, 1e-7, 1e-4):
        for problem in PROBLEMS:
            for run in c1_runs(problem, tol=tol, count=15):
                ok = ok and run.report.final_gap <= tol + 1e-12
    emit(
        3,
        "sandwich, gap formula, tolerance honored",
        ok,
        f"[worst bound-incumbent excess {worst_sandwich:.3e}, gap err {worst_gap_err:.3e}]",
    )


def test_c04_averaging_commutation():
    rng = np.random.default_rng(44)
    n, m = 10, 3
    problems = {
        "lad": LadRegressionProblem(),
        "subset": SubsetSelectionProblem(m, 2),
        "sphere": SphereRegressionProblem(2.0),
        "l1pca": PcaProjectionProblem(2),
    }
    worst = 0.0
    for name, prob in problems.items():
        for _ in range(1000):
            a = rng.standard_normal((n, m))
            labels = rng.integers(0, 4, size=n)
            labels[:4] = np.arange(4)
            part = ClusterPartition.from_labels(labels)
            w = np.zeros((part.cluster_count, n))
            for k in range(part.cluster_count):
                w[k, part.rows(k)] = 1.0 / part.sizes[k]
            if name == "l1pca":
                q, _ = np.linalg.qr(rng.standard_normal((m, 2)))
                sol = type("S", (), {"components": q})()
            else:
                x = rng.standard_normal(m)
                if name == "subset":
                    x[int(rng.integers(m))] = 0.0
                if name == "sphere":
                    x *= np.sqrt(2.0) / np.linalg.norm(x)
                sol = type("S", (), {"coefficients": x})()
            left = prob.apply_f(sol, matmul(w, a))
            right = matmul(w, prob.apply_f(sol, a))
            worst = max(worst, float(np.abs(left - right).max()))
    emit(4, "mapping commutes with row averaging", worst <= 1e-10, f"[worst {worst:.3e}]")


def test_c05_weighted_pca_reduction():
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 9))
        m = int(rng.integers(2, 5))
        p = int(rng.integers(1, 3))
        a = rng.standard_normal((k, m))
        weights = rng.integers(1, 7, size=k)
        agg = make_agg(np.zeros((k, 1)), a, weights)
        sol = solve_weighted_l1pca(agg, p)
        # direct weighted enumeration over every sign matrix
        signs = np.array(
            list(itertools.product((1.0, -1.0), repeat=k * p)), dtype=float
        ).reshape(-1, k, p)
        stacked = a.T @ (signs * weights[None, :, None])
        ref = float(np.linalg.svd(stacked, compute_uv=False).sum(axis=1).max())
        worst = max(worst, abs(sol.objective - ref))
    emit(5, "weighted PCA reduction exact", worst <= 1e-9, f"[worst |diff| {worst:.3e}]")


def test_c06_decluster_split_behavior():
    # constructed multi-pattern clusters, including all eight q=3 patterns
    patterns3 = list(itertools.product((1, -1), repeat=3))
    signs = patterns3 + patterns3[:3] + [patterns3[0]]  # pattern 0 is the mode
    part = ClusterPartition.from_labels([0] * len(signs))
    out = decluster(part, sign_codes(signs), np.array([0]))
    ok = out.cluster_count == 2
    mode_rows = [i for i, s in enumerate(signs) if s == patterns3[0]]
    ok = ok and out.rows(0).tolist() == mode_rows

    # a mixed partition: two violators, one clean cluster
    signs2 = [(1,), (-1,), (1,), (1,), (-1,), (-1,), (1,), (1,)]
    part2 = ClusterPartition.from_labels([0, 0, 0, 1, 1, 1, 2, 2])
    out2 = decluster(part2, sign_codes(signs2), np.array([0, 1]))
    ok = ok and out2.cluster_count == 5  # 2 violators split into two each

    # growth stays at most 2x across every recorded trace
    for problem in PROBLEMS:
        for run in c1_runs(problem):
            counts = [rec.cluster_count for rec in run.report.iterations]
            ok = ok and all(c2 <= 2 * c1 for c1, c2 in zip(counts, counts[1:]))
            ok = ok and all(c2 > c1 for c1, c2 in zip(counts, counts[1:]))
    emit(6, "violators split into exactly two, growth <= 2x", ok)


@lru_cache(maxsize=None)
def _c7_benchmark():
    return run_benchmark(
        "l1pca",
        {"n": [8, 10, 12], "m": [3, 4], "p": [1, 2]},
        reps=10,
        base_settings=RunSettings(problem="l1pca", tol=0.0),
        base_seed=0,
    )


def test_c07_pca_grid_delta_below_one_percent():
    rows, aggregates = _c7_benchmark()
    errors = [r for r in rows if r["error"]]
    worst_cell = max(a["mean_delta"] for a in aggregates)
    emit(
        7,
        "PCA grid relative error below 1% per cell",
        not errors and worst_cell <= 0.01,
        f"[worst cell mean {worst_cell:.4f}]",
    )


def test_c07_pca_grid_exact_at_tol_zero():
    # at tol=0 a maximize-sense run stops only on a proof (see module docstring)
    rows, _ = _c7_benchmark()
    deltas = [r["delta"] for r in rows if r["error"] is None]
    bad = sum(1 for d in deltas if d > 1e-6)
    emit(
        7,
        "PCA grid exact at tol=0",
        bad == 0,
        f"[{bad}/{len(deltas)} runs above 1e-6, worst {max(deltas):.4f}]",
    )


def test_c08_subset_scaling():
    medians = []
    all_iters = []
    for n in (200, 800, 3200):
        rates = []
        for seed in range(5):
            spec = SyntheticSpec(n=n, m=6, informative_p=2, seed=seed)
            a, b, _ = generate_instance(spec)
            cfg = InitialClusterConfig(
                default_initial_cluster_count(n), "residuals", seed, feature_p=2
            )
            init = build_initial_partition(b, a, cfg)
            report = run_aid(b, a, SubsetSelectionProblem(6, 2), init, AidConfig(tol=0.0))
            rates.append(report.aggregation_rate)
            all_iters.append(report.total_iterations)
        medians.append(float(np.median(rates)))
    decreasing = medians[0] > medians[1] > medians[2]
    iters_ok = all(2 <= t <= 30 for t in all_iters)
    emit(
        8,
        "aggregation rate decreases with n, iterations bounded",
        decreasing and iters_ok,
        f"[medians {['%.4f' % v for v in medians]}, T range {min(all_iters)}..{max(all_iters)}]",
    )


def test_c09_solver_oracles_and_degenerate_sweep():
    rng = np.random.default_rng(99)
    ok = True
    detail = []

    worst = 0.0
    for _ in range(100):
        n, m = int(rng.integers(3, 10)), int(rng.integers(1, 4))
        a = rng.standard_normal((n, m))
        b = rng.standard_normal(n)
        w = rng.integers(1, 6, size=n).astype(float)
        sol = solve_weighted_lad(make_agg(b, a, w))
        worst = max(worst, abs(sol.objective - lad_vertex_oracle(b, a, w)))
    ok = ok and worst <= 1e-9
    detail.append(f"lad {worst:.2e}")

    worst = 0.0
    for _ in range(40):
        n, m = int(rng.integers(4, 10)), int(rng.integers(2, 5))
        p = int(rng.integers(1, m + 1))
        a = rng.standard_normal((n, m))
        b = rng.standard_normal(n)
        w = rng.integers(1, 4, size=n).astype(float)
        sol = solve_subset_selection(make_agg(b, a, w), p)
        worst = max(worst, abs(sol.objective - subset_oracle(b, a, w, p)))
    ok = ok and worst <= 1e-9
    detail.append(f"subset {worst:.2e}")

    worst = 0.0
    for _ in range(40):
        n = int(rng.integers(5, 20))
        m = int(rng.integers(1, 3))
        a = rng.standard_normal((n, m))
        b = a @ rng.uniform(2, 8, m) + rng.standard_normal(n)
        w = rng.integers(1, 4, size=n).astype(float)
        radius = 0.3 * float(rng.uniform(1, 20))
        sol = solve_sphere_lad(make_agg(b, a, w), radius, tol=1e-10)
        if m == 1:
            ref = sphere_interval_oracle(b, a, w, radius)
            worst = max(worst, max(0.0, sol.objective - ref))
        else:
            ref = sphere_grid_oracle(b, a, w, radius)
            worst = max(worst, max(0.0, sol.objective - ref))
    ok = ok and worst <= 1e-6
    detail.append(f"sphere {worst:.2e}")

    from oracles import l1pca_enumeration_oracle

    worst = 0.0
    for _ in range(30):
        n, m = int(rng.integers(2, 8)), int(rng.integers(2, 4))
        p = int(rng.integers(1, 3))
        a = rng.standard_normal((n, m))
        sol = solve_l1pca_exact(DataMatrix(a), p)
        worst = max(worst, abs(sol.objective - l1pca_enumeration_oracle(a, p)))
    ok = ok and worst <= 1e-9
    detail.append(f"pca {worst:.2e}")

    # every coordinate regression from singletons (the direct solve) and
    # from one raw-data k-means partition with k < n
    worst = 0.0
    for seed in range(40):
        n, m = int(rng.integers(4, 12)), int(rng.integers(2, 4))
        a = rng.standard_normal((n, m))
        for initial in (
            ClusterPartition.singletons(n),
            kmeans_one_pass(DataMatrix(a), max(2, n // 3), seed=seed),
        ):
            fit = solve_best_fit_hyperplane(DataMatrix(a), initial)
            worst = max(worst, abs(fit.objective - hyperplane_oracle(a)))
    ok = ok and worst <= 1e-9
    detail.append(f"hyperplane {worst:.2e}")

    # degenerate sweep: small-integer instances, prone to degenerate vertices
    finished = 0
    for _ in range(10_000):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 4))
        a = rng.integers(-2, 3, size=(n, m)).astype(float)
        b = rng.integers(-2, 3, size=n).astype(float)
        w = rng.integers(1, 4, size=n)
        sol = solve_weighted_lad(make_agg(b, a, w))
        recomputed = float(w @ np.abs(b - a @ sol.coefficients))
        assert abs(sol.objective - recomputed) <= 1e-9
        finished += 1
    ok = ok and finished == 10_000
    detail.append(f"degenerate {finished}/10000")

    emit(9, "solvers match independent oracles", ok, "[" + ", ".join(detail) + "]")


def test_c10_determinism():
    ok = True
    for problem, kwargs, spec in (
        ("lad", {}, SyntheticSpec(n=40, m=3, informative_p=3, seed=7)),
        ("subset", {"p": 2}, SyntheticSpec(n=40, m=4, informative_p=2, seed=8)),
        ("sphere", {"radius": 9.0}, SyntheticSpec(n=40, m=3, informative_p=3, seed=9)),
        (
            "l1pca",
            {"p": 2},
            SyntheticSpec(n=10, m=3, informative_p=0, seed=10, kind="pca_sample"),
        ),
        (
            "hyperplane",
            {},
            SyntheticSpec(n=15, m=3, informative_p=0, seed=11, kind="pca_sample"),
        ),
    ):
        settings = RunSettings(problem=problem, seed=spec.seed, **kwargs)
        first = json.dumps(run_solve(settings, spec)["payload"], sort_keys=True)
        second = json.dumps(run_solve(settings, spec)["payload"], sort_keys=True)
        ok = ok and first == second
    emit(10, "byte-identical payloads across repeat runs", ok)
