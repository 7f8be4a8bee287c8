import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)
verdict = bench_pairs.verdict
verdict_lines = bench_pairs.verdict_lines
normalizer_line = bench_pairs.normalizer_line

OLD = [10.0, 10.2, 9.8, 10.1, 9.9, 10.3, 9.7, 10.0, 10.1, 9.9]
# median 10.0 as OLD, quartiles 8.0 and 12.0: a spread of 4.0
WIDE = [6.0, 8.0, 8.0, 9.0, 10.0, 10.0, 11.0, 12.0, 12.0, 14.0]


def test_clear_gain_is_improved_and_wins_every_pair():
    new = [x - 1.5 for x in OLD]
    v = verdict(OLD, new, "lower", 0.2)
    assert (v.won, v.pairs) == (10, 10)
    assert v.change == pytest.approx(-1.5)
    # quartiles 9.875 and 10.125
    assert v.spread == pytest.approx(0.25)
    assert v.improved and not v.worse and v.resolved
    assert v.label == "improved"


def test_gain_must_exceed_the_old_quartile_spread():
    v = verdict(OLD, [x - 0.2 for x in OLD], "lower", 0.2)
    assert v.won == 10
    assert not v.improved and not v.worse and v.resolved
    assert v.label == "within bound"
    assert verdict(OLD, [x - 0.3 for x in OLD], "lower", 0.2).improved


def test_gain_must_win_nine_tenths_of_the_pairs():
    new = [x - 1.5 for x in OLD]
    new[0] = new[1] = 11.0
    v = verdict(OLD, new, "lower", 0.2)
    assert v.won == 8 and v.change < -v.spread
    assert not v.improved and v.label == "within bound"


def test_higher_is_better_flips_every_sense():
    v = verdict(OLD, [x + 1.5 for x in OLD], "higher", 0.2)
    assert v.won == 10 and v.improved and not v.worse
    v = verdict(OLD, [x - 1.5 for x in OLD], "higher", 0.1)
    assert v.won == 0 and not v.improved and v.worse and v.label == "WORSE"


def test_bound_is_a_fraction_of_the_old_median():
    # old median 10.0: a 20 % bound allows up to 12.0
    assert not verdict(OLD, [x + 1.9 for x in OLD], "lower", 0.2).worse
    v = verdict(OLD, [x + 2.1 for x in OLD], "lower", 0.2)
    assert v.worse and v.resolved and v.label == "WORSE"


def test_spread_wider_than_the_bound_is_unresolved():
    # a spread of 4.0 against a bound of 2.0: neither a median inside the
    # bound nor one beyond it can be told from noise
    for shift in (0.0, 1.0, 3.0, -3.0):
        v = verdict(WIDE, [x + shift for x in WIDE], "lower", 0.2)
        assert not v.resolved and v.label == "unresolved"
    assert verdict(WIDE, [x + 3.0 for x in WIDE], "lower", 0.2).worse
    # unless every run of NEW is better than every run of OLD
    v = verdict(WIDE, [x - 9.0 for x in WIDE], "lower", 0.2)
    assert v.resolved and v.improved
    v = verdict(WIDE, [x + 9.0 for x in WIDE], "higher", 0.2)
    assert v.resolved and v.improved


def test_ties_do_not_count_as_won():
    v = verdict(OLD, list(OLD), "lower", 0.2)
    assert v.won == 0 and v.change == 0.0
    assert not v.improved and not v.worse and v.resolved


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        verdict(OLD, OLD, "faster", 0.2)
    with pytest.raises(ValueError):
        verdict(OLD, OLD[:-1], "lower", 0.2)


def test_raw_wall_time_gets_its_own_verdict_line():
    declared = [
        {"name": "solve_s_p50", "better": "lower", "bound": 0.2},
        {"name": "solves_per_s", "better": "higher", "bound": 0.25},
    ]
    # normalized time improves while raw wall time gets worse
    runs = {
        "old": [{"solve_s_p50": o, "solves_per_s": 1 / o, "wall_solve_s_p50": o} for o in OLD],
        "new": [
            {"solve_s_p50": o - 1.5, "solves_per_s": 1 / (o - 1.5), "wall_solve_s_p50": o + 2.5}
            for o in OLD
        ],
    }
    lines = verdict_lines(runs, declared)
    assert [line.split()[1] for line in lines] == [
        "solve_s_p50", "solves_per_s", "wall_solve_s_p50"
    ]
    assert lines[0].startswith("verdict solve_s_p50 (lower is better, bound 0.2): improved;")
    assert lines[2].startswith(
        "verdict wall_solve_s_p50 (raw, not declared, lower is better, bound 0.2): WORSE;"
    )
    assert "new better in 0 of 10 pairs" in lines[2]


def test_raw_setup_time_gets_its_own_verdict_line():
    declared = [
        {"name": "solve_s_p50", "better": "lower", "bound": 0.2},
        {"name": "setup_s", "better": "lower", "bound": 0.25},
    ]
    # normalized set-up time halves while raw set-up time stays put
    runs = {
        arm: [{"solve_s_p50": o, "wall_solve_s_p50": o, "setup_s": o * scale,
               "wall_setup_s": o + 0.01 * (arm == "new")} for o in OLD]
        for arm, scale in (("old", 1.0), ("new", 0.5))
    }
    lines = verdict_lines(runs, declared)
    assert [line.split()[1] for line in lines] == [
        "solve_s_p50", "setup_s", "wall_solve_s_p50", "wall_setup_s"
    ]
    assert lines[1].startswith("verdict setup_s (lower is better, bound 0.25): improved;")
    assert lines[3].startswith(
        "verdict wall_setup_s (raw, not declared, lower is better, bound 0.25): within bound;"
    )
    assert "new better in 0 of 10 pairs" in lines[3]


def test_run_once_reads_the_raw_wall_times(tmp_path):
    # a stand-in run.py that prints the lines perfbench/run.py prints
    (tmp_path / "perfbench" / "out").mkdir(parents=True)
    (tmp_path / "perfbench" / "out" / "rows-w-seed3-trace0.jsonl").write_text(
        '{"kernel_s": 0.012}\n{"kernel_s": 0.010}\n{"kernel_s": 0.011}\n'
    )
    (tmp_path / "perfbench" / "run.py").write_text(
        "print('wall_solve_s_p50 0.0042 s')\n"
        "print('wall_setup_s 0.213 s')\n"
        "print('{\"metrics\": {\"setup_s\": {\"value\": 0.11}}, \"failed\": 0}')\n"
    )
    out = bench_pairs.run_once(tmp_path, "w", 3, 1.0)
    assert out == {"setup_s": 0.11, "failed": 0, "wall_solve_s_p50": 0.0042,
                   "wall_setup_s": 0.213, "kernel_s": 0.011}


def test_normalizer_line_flags_two_kernel_states():
    # the kernel ran at about 0.034 s in one arm and 0.015 s in the other
    runs = {
        "old": [{"kernel_s": k} for k in (0.033, 0.034, 0.035)],
        "new": [{"kernel_s": k} for k in (0.014, 0.015, 0.036)],
    }
    line = normalizer_line(runs, 0.2)
    assert line.startswith("verdict normalizer (median kernel_s, bound 0.2): KERNEL STATES DIFFER")
    assert "compare two kernel states, not two programs" in line
    assert "old 0.034 new 0.015" in line


def test_normalizer_line_accepts_kernels_within_the_bound():
    runs = {"old": [{"kernel_s": 0.0157}], "new": [{"kernel_s": 0.0159}]}
    line = normalizer_line(runs, 0.2)
    assert "same kernel state" in line and "DIFFER" not in line
    # 15 % slower is within a 0.2 bound, 25 % faster is not
    assert "same kernel state" in normalizer_line(
        {"old": [{"kernel_s": 1.0}], "new": [{"kernel_s": 1.15}]}, 0.2)
    assert "DIFFER" in normalizer_line({"old": [{"kernel_s": 1.0}], "new": [{"kernel_s": 0.75}]}, 0.2)


def test_workload_list_runs_and_reports_each_workload_in_turn(tmp_path, monkeypatch, capsys):
    for arm in ("old", "new"):
        (tmp_path / arm / "perfbench").mkdir(parents=True)
        (tmp_path / arm / "perfbench" / "run.py").write_text("")
    (tmp_path / "new" / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "solve_s_p50", "better": "lower", "bound": 0.2}]}'
    )
    calls = []

    def fake_run_once(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload, seed))
        base = {"lad-tall": 0.010, "subset-paper": 0.004}[workload]
        value = base * (0.9 if checkout.name == "new" else 1.0)
        return {"solve_s_p50": value, "solves_per_s": 1 / value, "wall_solve_s_p50": value,
                "kernel_s": 0.015, "setup_s": 0.1, "wall_setup_s": 0.2, "peak_rss_mb": 50.0,
                "failed": 0}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    bench_pairs.main([str(tmp_path / "old"), str(tmp_path / "new"),
                      "--workload", "lad-tall, subset-paper", "--pairs", "2", "--seed", "3"])
    # every pair of one workload runs before the next, the first arm alternating
    assert calls == [
        ("old", "lad-tall", 3), ("new", "lad-tall", 3), ("new", "lad-tall", 4), ("old", "lad-tall", 4),
        ("old", "subset-paper", 3), ("new", "subset-paper", 3),
        ("new", "subset-paper", 4), ("old", "subset-paper", 4),
    ]
    out = capsys.readouterr().out.splitlines()
    heads = [i for i, line in enumerate(out) if line.endswith("medians over 2 pairs of 30 s runs")]
    assert [out[i].split(":")[0] for i in heads] == ["# lad-tall", "# subset-paper"]
    for i in heads:
        block = out[i : i + 7]
        assert block[1].startswith("old solve_s_p50 ") and block[2].startswith("new solve_s_p50 ")
        assert block[5].startswith("verdict solve_s_p50 (lower is better, bound 0.2)")
        assert block[6].startswith("verdict wall_solve_s_p50 (raw, not declared")
        assert "verdict normalizer" in out[i + 7] and "same kernel state" in out[i + 7]
