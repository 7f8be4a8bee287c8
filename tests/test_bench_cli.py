import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
from math import comb
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import aidfit
from aidfit import bench
from aidfit.bench import (
    REPORT_SCHEMA,
    RunSettings,
    expand_grid,
    relative_error,
    run_benchmark,
    run_solve,
    seed_for,
)
from aidfit.cli import (
    EXIT_BUDGET,
    EXIT_INPUT_ERROR,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    build_parser,
    main,
)
from aidfit.data_io import SyntheticSpec
from aidfit.problems import InstanceTooLargeError

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def tiny_spec(seed=0, n=25, m=3, p=2):
    return SyntheticSpec(n=n, m=m, informative_p=p, seed=seed)


class TestRunSolve:
    def test_report_validates_and_converges(self):
        report = run_solve(RunSettings(problem="lad", tol=0.0, seed=1), tiny_spec(1))
        jsonschema.validate(report, REPORT_SCHEMA)
        payload = report["payload"]
        assert payload["converged"]
        assert payload["iterations"][0]["t"] == 1
        assert 0 < payload["aggregation_rate"] <= 1
        assert 0 < report["meta"]["partition_s"] < report["meta"]["wall_time_s"]

    def test_singleton_config_terminates_at_t1(self):
        spec = tiny_spec(3, n=12)
        report = run_solve(RunSettings(problem="lad", seed=3, k0=12), spec)
        payload = report["payload"]
        assert payload["iterations_run"] == 1
        assert payload["aggregation_rate"] == 1.0

    def test_payload_byte_identical_across_runs(self):
        settings = RunSettings(problem="subset", p=2, seed=5)
        a = run_solve(settings, tiny_spec(5))
        b = run_solve(settings, tiny_spec(5))
        assert json.dumps(a["payload"], sort_keys=True) == json.dumps(
            b["payload"], sort_keys=True
        )

    def test_sphere_solution_payload(self):
        settings = RunSettings(problem="sphere", radius=4.0, seed=2)
        report = run_solve(settings, tiny_spec(2))
        sol = report["payload"]["solution"]
        assert "certified_gap" in sol
        assert sum(v * v for v in sol["coefficients"]) <= 4.0 + 1e-9

    def test_upper_bound_only_in_maximize_payloads(self):
        spec = SyntheticSpec(n=8, m=3, informative_p=0, seed=6, kind="pca_sample")
        pca = run_solve(RunSettings(problem="l1pca", p=1, seed=6), spec)["payload"]
        assert all(
            it["upper_bound"] >= it["best_objective"] for it in pca["iterations"]
        )
        lad = run_solve(RunSettings(problem="lad", seed=1), tiny_spec(1))["payload"]
        assert all("upper_bound" not in it for it in lad["iterations"])

    def test_l1pca_runs_without_target(self):
        spec = SyntheticSpec(n=8, m=3, informative_p=0, seed=6, kind="pca_sample")
        report = run_solve(RunSettings(problem="l1pca", p=2, seed=6), spec)
        comps = np.array(report["payload"]["solution"]["components"])
        assert np.abs(comps.T @ comps - np.eye(2)).max() <= 1e-9

    def test_hyperplane_report(self):
        spec = SyntheticSpec(n=18, m=3, informative_p=3, seed=8, kind="pca_sample")
        report = run_solve(RunSettings(problem="hyperplane", seed=8), spec)
        payload = report["payload"]
        assert payload["problem"] == "hyperplane"
        assert 0 <= payload["solution"]["winning_column"] < 3

    def test_hyperplane_runs_one_aid_per_coordinate(self, monkeypatch):
        import aidfit.bench
        import aidfit.core
        import aidfit.problems.hyperplane

        calls = []
        fits = []
        real_run_aid = aidfit.core.run_aid
        real_solve = aidfit.bench.solve_best_fit_hyperplane

        def counting_run_aid(*args, **kwargs):
            calls.append(args[0].rows)
            return real_run_aid(*args, **kwargs)

        def keeping_solve(*args, **kwargs):
            fits.append(real_solve(*args, **kwargs))
            return fits[-1]

        for module in (aidfit.core, aidfit.bench, aidfit.problems.hyperplane):
            monkeypatch.setattr(module, "run_aid", counting_run_aid)
        monkeypatch.setattr(aidfit.bench, "solve_best_fit_hyperplane", keeping_solve)
        spec = SyntheticSpec(n=60, m=4, informative_p=4, seed=3, kind="pca_sample")
        payload = run_solve(RunSettings(problem="hyperplane", seed=3), spec)["payload"]

        assert calls == [60] * 4
        (fit,) = fits
        assert payload["config"]["feature_source"] == "raw_data"
        assert payload["objective"] == fit.objective == fit.report.best_objective
        assert payload["solution"]["winning_column"] == fit.winning_column
        assert payload["termination"] == fit.report.termination
        assert [
            (it["t"], it["cluster_count"], it["objective"], it["best_objective"], it["gap"])
            for it in payload["iterations"]
        ] == [
            (r.t, r.cluster_count, r.objective, r.best_objective, r.gap)
            for r in fit.report.iterations
        ]

    def test_standardize_flag_changes_features(self):
        spec = tiny_spec(12, n=30)
        raw = run_solve(RunSettings(problem="lad", seed=12), spec)
        std = run_solve(RunSettings(problem="lad", seed=12, standardize=True), spec)
        assert raw["payload"]["objective"] != std["payload"]["objective"]

    def test_standardize_is_in_the_config(self):
        spec = SyntheticSpec(n=50, m=3, informative_p=2, seed=1)
        raw = run_solve(RunSettings(problem="lad", seed=1), spec)["payload"]
        std = run_solve(RunSettings(problem="lad", seed=1, standardize=True), spec)["payload"]
        assert raw["instance"] == std["instance"]
        assert "standardize" not in raw["config"]
        assert std["config"] == {**raw["config"], "standardize": True}

    def test_subset_200x6_tol0_matches_direct(self):
        from aidfit.data_io import generate_instance
        from aidfit.problems import solve_subset_selection
        from conftest import make_agg

        spec = SyntheticSpec(n=200, m=6, informative_p=2, seed=21)
        report = run_solve(RunSettings(problem="subset", p=2, tol=0.0, seed=21), spec)
        payload = report["payload"]
        assert abs(payload["final_gap"]) <= 1e-12
        a, b, _ = generate_instance(spec)
        direct = solve_subset_selection(make_agg(b.values, a.values), p=2)
        assert abs(payload["objective"] - direct.objective) <= 1e-9


class TestReportSchema:
    def test_solves_do_not_recheck_the_metaschema(self, monkeypatch):
        meta_checks = []
        iter_errors = jsonschema.Draft7Validator.iter_errors

        def spy_iter_errors(self, instance):
            if self.schema is jsonschema.Draft7Validator.META_SCHEMA:
                meta_checks.append(instance)
            return iter_errors(self, instance)

        monkeypatch.setattr(jsonschema.Draft7Validator, "iter_errors", spy_iter_errors)
        # the spy sees the check a plain validate makes
        report = run_solve(RunSettings(problem="lad", seed=1), tiny_spec(1))
        jsonschema.validate(report, REPORT_SCHEMA)
        assert meta_checks
        meta_checks.clear()

        validate_calls = []
        validate = jsonschema.validate

        def spy_validate(*args, **kwargs):
            validate_calls.append(args[0])
            return validate(*args, **kwargs)

        monkeypatch.setattr(jsonschema, "validate", spy_validate)
        pca_spec = SyntheticSpec(n=8, m=3, informative_p=0, seed=6, kind="pca_sample")
        solves = [
            (RunSettings(problem="lad", seed=1), tiny_spec(1)),
            (RunSettings(problem="subset", p=2, seed=5), tiny_spec(5)),
            (RunSettings(problem="l1pca", p=1, seed=6), pca_spec),
            (RunSettings(problem="lad", seed=2), tiny_spec(2)),
        ]
        reports = [run_solve(settings, spec) for settings, spec in solves]
        assert meta_checks == []
        assert validate_calls == reports

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda r: r["payload"].update(iterations_run=0),
            lambda r: r["payload"].update(termination="stalled"),
            lambda r: r["meta"].pop("partition_s"),
        ],
        ids=["iterations_run_0", "termination_outside_enum", "no_partition_s"],
    )
    def test_invalid_report_fails_as_plain_validate_does(self, monkeypatch, corrupt):
        payload = run_solve(RunSettings(problem="lad", seed=1), tiny_spec(1))["payload"]
        validate = jsonschema.validate
        seen = []

        def corrupt_then_validate(report, *args, **kwargs):
            corrupt(report)
            seen.append(json.loads(json.dumps(report)))
            return validate(report, *args, **kwargs)

        # corrupt the report inside the library's own validate call
        monkeypatch.setattr(jsonschema, "validate", corrupt_then_validate)
        with pytest.raises(jsonschema.ValidationError) as got:
            bench._assemble_report(payload, 1.0, 0.5)
        with pytest.raises(jsonschema.ValidationError) as plain:
            validate(seen[0], REPORT_SCHEMA)
        assert got.value.message == plain.value.message
        assert list(got.value.path) == list(plain.value.path)

    def test_fresh_process_imports_and_solves_warning_free(self):
        src = Path(aidfit.__file__).resolve().parent.parent
        code = (
            "from aidfit.bench import RunSettings, run_solve\n"
            "from aidfit.data_io import SyntheticSpec\n"
            "spec = SyntheticSpec(n=25, m=3, informative_p=2, seed=1)\n"
            "run_solve(RunSettings(problem='lad', seed=1), spec)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run(
            [sys.executable, "-W", "error", "-c", code], env=env, capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr


@pytest.mark.parametrize(
    "settings, attr, raises",
    [
        # a cap below the C(3, 2) supports stops the first solve
        (RunSettings(problem="subset", p=2, subset_cap=comb(3, 2) - 1), "cap", InstanceTooLargeError),
        # six initial clusters need 2^5 sign vectors
        (RunSettings(problem="l1pca", p=1, k0=6, pca_cap=2**4), "cap", InstanceTooLargeError),
        (RunSettings(problem="sphere", radius=4.0, sphere_tol=1e-3), "tol", None),
    ],
)
def test_solver_settings_reach_the_problem(settings, attr, raises):
    field = {"subset": "subset_cap", "l1pca": "pca_cap", "sphere": "sphere_tol"}
    problem = bench.build_problem(settings, 3)
    assert getattr(problem, attr) == getattr(settings, field[settings.problem])
    if raises is None:
        assert run_solve(settings, tiny_spec(2))["payload"]["converged"]
    else:
        with pytest.raises(raises):
            run_solve(settings, tiny_spec(2))


def test_benchmark_fingerprints_match_the_recorded_references(monkeypatch):
    # perfbench/run.py refuses to run a workload whose RunSettings repr or
    # instance spec differs from what reference.json was recorded with
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up there
    spec.loader.exec_module(workloads)
    recorded = json.loads((PERFBENCH / "reference.json").read_text())
    assert sorted(recorded) == sorted(workloads.WORKLOADS)
    for name, workload in workloads.WORKLOADS.items():
        assert workloads.spec_fingerprint(workload) == recorded[name]["fingerprint"], name


class TestRelativeError:
    def test_subset_uses_min_denominator(self):
        assert relative_error("subset", 2.0, 1.0) == 1.0
        assert relative_error("subset", 1.0, 2.0) == 1.0

    def test_others_use_direct_denominator(self):
        assert relative_error("lad", 2.0, 1.0) == 0.5
        assert relative_error("l1pca", 2.0, 3.0) == 0.5

    def test_zero_cases(self):
        assert relative_error("lad", 0.0, 0.0) == 0.0
        assert relative_error("lad", 0.0, 1.0) == float("inf")


class TestBenchmark:
    def test_single_cell_rows_and_aggregate(self):
        rows, cells = run_benchmark("lad", {"n": [30], "m": [3]}, reps=3, base_seed=1)
        assert len(rows) == 3 and len(cells) == 1
        (summary,) = cells
        assert summary["cell"] == {"m": 3, "n": 30}
        assert (summary["reps"], summary["failures"]) == (3, 0)
        columns = {
            "direct_objective": [r["direct"]["objective"] for r in rows],
            "direct_s": [r["direct"]["wall_time_s"] for r in rows],
            "objective": [r["aid"]["objective"] for r in rows],
            "wall_s": [r["aid"]["wall_time_s"] for r in rows],
            "partition_s": [r["aid"]["partition_s"] for r in rows],
            "loop_s": [r["aid"]["wall_time_s"] - r["aid"]["partition_s"] for r in rows],
            "iterations": [r["aid"]["iterations_run"] for r in rows],
            "aggregation_rate": [r["aid"]["aggregation_rate"] for r in rows],
            "final_gap": [r["aid"]["final_gap"] for r in rows],
            "rho": [r["rho"] for r in rows],
            "delta": [r["delta"] for r in rows],
        }
        assert sorted(summary) == sorted([*columns, "cell", "reps", "failures", "direct_failures"])
        assert summary["direct_failures"] == 0
        for name, values in columns.items():
            assert summary[name] == {
                "median": np.median(values),
                "min": np.min(values),
                "max": np.max(values),
            }, name
        for r in rows:
            assert r["rho"] == r["aid"]["wall_time_s"] / r["direct"]["wall_time_s"]

    def test_summary_skips_failed_reps(self):
        rows, cells = run_benchmark(
            "subset", {"n": [10, 20], "m": [2], "p": [1, 5]}, reps=2, skip_direct=True
        )
        assert [c["cell"]["p"] for c in cells] == [1, 5, 1, 5]
        for cell, cell_rows in zip(cells, (rows[i : i + 2] for i in range(0, 8, 2))):
            ok = [r for r in cell_rows if r["error"] is None]
            assert cell["failures"] == 2 - len(ok) == (2 if cell["cell"]["p"] == 5 else 0)
            assert cell["direct_failures"] == 0
            assert "direct_s" not in cell and "rho" not in cell
            if ok:
                values = [r["aid"]["aggregation_rate"] for r in ok]
                assert cell["aggregation_rate"]["median"] == np.median(values)
            else:
                assert "objective" not in cell

    def test_first_rep_is_solved_once_untimed_before_the_grid(self, monkeypatch):
        seeds_solved = []
        direct = bench.direct_solve

        def spy(settings, b, a):
            seeds_solved.append(settings.seed)
            return direct(settings, b, a)

        monkeypatch.setattr(bench, "direct_solve", spy)
        rows, cells = run_benchmark("lad", {"n": [20, 30], "m": [2]}, reps=2, base_seed=5)
        seeds = [seed_for(5, ci, rep) for ci in range(2) for rep in range(2)]
        # one extra direct solve, of the first cell's rep 0, precedes the timed ones
        assert seeds_solved == [seeds[0], *seeds]
        assert [(r["cell"]["n"], r["rep"], r["seed"]) for r in rows] == [
            (20, 0, seeds[0]), (20, 1, seeds[1]), (30, 0, seeds[2]), (30, 1, seeds[3])
        ]
        assert all(r["error"] is None and "rho" in r for r in rows)
        assert [c["reps"] for c in cells] == [2, 2]
        seeds_solved.clear()
        rows, _ = run_benchmark("lad", {"n": [20], "m": [2]}, reps=1, skip_direct=True)
        assert seeds_solved == [] and "direct" not in rows[0]

    def test_grid_expansion_order(self):
        cells = expand_grid({"n": [1, 2], "m": [3]})
        assert cells == [{"m": 3, "n": 1}, {"m": 3, "n": 2}]

    def test_seed_derivation_unique(self):
        seeds = {seed_for(0, ci, rep) for ci in range(20) for rep in range(50)}
        assert len(seeds) == 20 * 50

    def test_skip_direct(self):
        rows, _ = run_benchmark(
            "lad", {"n": [20], "m": [2]}, reps=1, skip_direct=True
        )
        assert "direct" not in rows[0] and "rho" not in rows[0]

    def test_cell_failure_recorded_not_raised(self):
        # p > m cannot be satisfied; the row records the error
        rows, aggregates = run_benchmark(
            "subset", {"n": [10], "m": [2], "p": [5]}, reps=1
        )
        assert rows[0]["error"] is not None
        assert aggregates[0]["failures"] == 1

    def test_failed_direct_keeps_the_loop_result(self):
        # 60 singletons need 2^59 sign matrices; the loop stops at its budget
        (row,), (cell,) = run_benchmark("l1pca", {"n": [60], "m": [4], "p": [1]}, 1)
        assert row["error"] is None
        assert row["direct"] == {
            "error": "InstanceTooLargeError: 2^59 sign matrices exceed the enumeration cap "
            f"{bench.PCA_CAP}"
        }
        assert row["aid"]["termination"] == "enumeration_budget"
        assert "rho" not in row and "delta" not in row
        assert (cell["failures"], cell["direct_failures"]) == (0, 1)
        assert "objective" in cell and "direct_s" not in cell


class TestCli:
    def test_solve_roundtrip(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "solve",
                "--problem",
                "lad",
                "--instance",
                json.dumps(tiny_spec(4).to_dict()),
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        jsonschema.validate(report, REPORT_SCHEMA)

    def test_solve_deterministic_modulo_meta(self, tmp_path):
        args = [
            "solve",
            "--problem",
            "subset",
            "--p",
            "2",
            "--instance",
            json.dumps(tiny_spec(9).to_dict()),
        ]
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        p1 = json.loads(out1.read_text())["payload"]
        p2 = json.loads(out2.read_text())["payload"]
        assert json.dumps(p1, sort_keys=True) == json.dumps(p2, sort_keys=True)

    def test_generate_then_solve_bundle(self, tmp_path):
        bundle = tmp_path / "inst"
        spec_json = json.dumps(tiny_spec(2).to_dict())
        assert main(["generate", "--spec", spec_json, "--out", str(bundle)]) == EXIT_OK
        out = tmp_path / "report.json"
        code = main(
            ["solve", "--problem", "lad", "--instance", str(bundle), "--out", str(out)]
        )
        assert code == EXIT_OK

    def test_unknown_problem_is_input_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--problem", "nope", "--instance", "{}"])
        assert err.value.code == EXIT_INPUT_ERROR

    def test_hyperplane_residual_features_is_input_error(self):
        spec = SyntheticSpec(n=20, m=3, informative_p=3, seed=1, kind="pca_sample")
        code = main(
            [
                "solve",
                "--problem",
                "hyperplane",
                "--features",
                "residuals",
                "--instance",
                json.dumps(spec.to_dict()),
            ]
        )
        assert code == EXIT_INPUT_ERROR

    def test_bad_instance_json_is_input_error(self):
        code = main(["solve", "--problem", "lad", "--instance", '{"nope": 1}'])
        assert code == EXIT_INPUT_ERROR

    def test_missing_bundle_is_input_error(self):
        code = main(["solve", "--problem", "lad", "--instance", "/nonexistent/path"])
        assert code == EXIT_INPUT_ERROR

    def test_budget_exceeded_exit_code(self):
        # eight initial clusters need 2^15 sign matrices: over the cap at the first solve
        spec = SyntheticSpec(n=40, m=4, informative_p=0, seed=1, kind="pca_sample")
        code = main(
            [
                "solve",
                "--problem",
                "l1pca",
                "--p",
                "2",
                "--k0",
                "8",
                "--instance",
                json.dumps(spec.to_dict()),
                "--pca-cap",
                "1024",
            ]
        )
        assert code == EXIT_BUDGET

    def test_enumeration_budget_stop_exits_ok(self, tmp_path):
        spec = SyntheticSpec(n=60, m=3, informative_p=0, seed=0, kind="pca_sample")
        out = tmp_path / "report.json"
        code = main(
            [
                "solve",
                "--problem",
                "l1pca",
                "--p",
                "1",
                "--k0",
                "3",
                "--instance",
                json.dumps(spec.to_dict()),
                "--pca-cap",
                "4096",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(out.read_text())["payload"]
        assert payload["termination"] == "enumeration_budget"
        assert payload["final_gap"] > 0

    def test_benchmark_outputs(self, tmp_path):
        out = tmp_path / "bench"
        code = main(
            [
                "benchmark",
                "--problem",
                "lad",
                "--grid",
                '{"n": [20], "m": [2]}',
                "--reps",
                "2",
                "--csv",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        assert (out / "results.jsonl").exists()
        assert (out / "summary.json").exists()
        assert (out / "results.csv").exists()
        lines = (out / "results.jsonl").read_text().strip().split("\n")
        assert len(lines) == 2  # one row per rep

    def test_benchmark_writes_one_row_per_rep_and_one_summary_per_cell(self, tmp_path, capsys):
        out = tmp_path / "bench"
        grid = '{"n": [20, 24], "m": [2, 3]}'
        args = ["--grid", grid, "--reps", "2", "--csv", "--out", str(out)]
        assert main(["benchmark", "--problem", "lad"] + args) == EXIT_OK
        rows = [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]
        assert [(r["cell_index"], r["rep"]) for r in rows] == [
            (ci, rep) for ci in range(4) for rep in range(2)
        ]
        summary = json.loads((out / "summary.json").read_text())
        assert [c["cell"] for c in summary["cells"]] == [
            {"m": 2, "n": 20}, {"m": 2, "n": 24}, {"m": 3, "n": 20}, {"m": 3, "n": 24}
        ]
        assert len((out / "results.csv").read_text().splitlines()) == 1 + len(rows)
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 4 + 1
        assert printed[0].startswith(
            '{"m": 2, "n": 20}  failures 0/2  direct failures 0/2  direct_objective '
        )

    def test_benchmark_counts_failed_direct_baselines(self, tmp_path, capsys):
        # the loop's result stays, but a rep left without rho and delta fails the run
        out = tmp_path / "bench"
        grid = '{"n": [60], "m": [4], "p": [1]}'
        args = ["--grid", grid, "--reps", "1", "--out", str(out)]
        assert main(["benchmark", "--problem", "l1pca"] + args) == EXIT_NOT_CONVERGED
        summary = json.loads((out / "summary.json").read_text())
        assert (summary["failures"], summary["direct_failures"]) == (0, 1)
        (cell,) = summary["cells"]
        assert (cell["failures"], cell["direct_failures"]) == (0, 1)
        printed = capsys.readouterr().out.splitlines()
        assert printed[0].startswith(
            '{"m": 4, "n": 60, "p": 1}  failures 0/1  direct failures 1/1  objective '
        )

    def test_readme_commands_parse(self):
        # every documented ``aidfit`` command must parse with today's CLI
        readme = (PERFBENCH.parent / "README.md").read_text()
        commands = []
        for lang, block in re.findall(r"```(\w*)\n(.*?)```", readme, re.S):
            if lang in ("", "bash", "sh"):
                for line in block.replace("\\\n", " ").splitlines():
                    if line.startswith("aidfit "):
                        commands.append(shlex.split(line, comments=True)[1:])
        assert len(commands) >= 7
        parser = build_parser()
        for words in commands:
            try:
                args = parser.parse_args(words)
            except SystemExit:
                pytest.fail(f"README command does not parse: aidfit {shlex.join(words)}")
            if args.command == "benchmark":
                assert isinstance(json.loads(args.grid), dict), words

    def test_long_inline_grid_and_spec(self, tmp_path):
        # inline JSON longer than a file name may be is never probed as a path
        padding = " " * 300
        grid = '{"n": [20],' + padding + '"m": [2]}'
        args = ["--reps", "1", "--no-direct", "--out", str(tmp_path / "bench")]
        assert main(["benchmark", "--problem", "lad", "--grid", grid] + args) == EXIT_OK
        spec = json.dumps(tiny_spec(2).to_dict()).replace(",", "," + padding, 1)
        bundle = tmp_path / "inst"
        assert main(["generate", "--spec", spec, "--out", str(bundle)]) == EXIT_OK
        assert (bundle / "manifest.json").exists()

    def test_malformed_inline_json_is_input_error(self, tmp_path):
        out = ["--out", str(tmp_path / "x")]
        assert main(["benchmark", "--problem", "lad", "--grid", '{"n": [20],'] + out) == (
            EXIT_INPUT_ERROR
        )
        assert main(["generate", "--spec", '{"n": 20,'] + out) == EXIT_INPUT_ERROR
        assert main(["generate", "--spec", '{"nope": 1}'] + out) == EXIT_INPUT_ERROR
        assert main(["solve", "--problem", "lad", "--instance", '{"n": 20,'] + out) == (
            EXIT_INPUT_ERROR
        )

    # a non-JSON argument longer than a file name may be names no input file
    def test_overlong_grid_path_is_input_error(self, tmp_path):
        out = ["--out", str(tmp_path / "x")]
        assert main(["benchmark", "--problem", "lad", "--grid", "x" * 300] + out) == (
            EXIT_INPUT_ERROR
        )

    def test_overlong_instance_path_is_input_error(self, tmp_path):
        out = ["--out", str(tmp_path / "x")]
        assert main(["solve", "--problem", "lad", "--instance", "x" * 300] + out) == (
            EXIT_INPUT_ERROR
        )

    def test_env_var_default_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AIDFIT_OUT", str(tmp_path))
        code = main(
            ["solve", "--problem", "lad", "--instance", json.dumps(tiny_spec(1).to_dict())]
        )
        assert code == EXIT_OK
        assert (tmp_path / "solve_report.json").exists()
