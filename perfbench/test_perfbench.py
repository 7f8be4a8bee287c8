"""Tests of the benchmark's own machinery.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from aidfit.bench import run_solve  # noqa: E402
from checks import check_solve  # noqa: E402
from run import instance_weights, weighted_quantile  # noqa: E402
from spans import BINDINGS, Span, Tracer, layer_metrics, resolve, self_times  # noqa: E402
from workloads import WORKLOADS, instance_data  # noqa: E402


def _span(id, parent, name, start, end, **counts):
    return Span(id=id, parent=parent, solve=0, name=name, start=start, end=end, counts=counts)


def test_self_time_subtracts_child_coverage():
    spans = [
        _span(0, None, "solve", 0.0, 10.0),
        _span(1, 0, "core.run_aid", 1.0, 9.0, iterations=2, final_clusters=3),
        _span(2, 1, "core.check_optimality", 2.0, 5.0),
        _span(3, 2, "linalg.matmul", 2.5, 3.0),
        _span(4, 1, "core.decluster", 6.0, 7.0, splits=1),
        _span(5, 1, "problems.apply_f", 7.0, 7.5),
    ]
    assert self_times(spans) == pytest.approx([2.0, 3.5, 2.5, 0.5, 1.0, 0.5])
    metrics = layer_metrics(spans)
    assert metrics["core.check_s"] == (pytest.approx(2.5), "s/solve")
    assert layer_metrics(spans, scales=[2.0])["core.check_s"][0] == pytest.approx(5.0)
    assert metrics["linalg.matmul_s"][0] == pytest.approx(0.5)
    assert metrics["core.split_clusters"][0] == 1
    assert metrics["core.apply_f_per_iter"][0] == pytest.approx(0.5)
    # self times of one tree always add up to its root's duration
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_every_instance_weighs_the_same_however_often_solved():
    # instance 1 (fast) was solved three times before the run ended, 2 and 3 once
    rows = [{"instance_seed": s} for s in (1, 2, 3, 1, 1)]
    times = [1.0, 5.0, 6.0, 1.0, 1.0]
    weights = instance_weights(rows)
    assert weights == pytest.approx([1 / 3, 1, 1, 1 / 3, 1 / 3])
    assert weighted_quantile(times, weights, 0.5) == 5.0
    assert weighted_quantile(times, [1.0] * 5, 0.5) == 1.0


def _tiny(name: str, n: int):
    w = WORKLOADS[name]
    return replace(w, spec=replace(w.spec, n=n))


def test_every_binding_intercepts_calls_on_tiny_instances():
    originals = [getattr(*resolve(target)) for target, _, _ in BINDINGS]
    tracer = Tracer()
    cases = [
        (_tiny("lad-tall", 300), 1),
        (_tiny("subset-paper", 60), 1),  # direct LAD fits inside clustering
        (_tiny("subset-paper", 900), 1),  # nested aggregation fits
        (_tiny("l1pca-enum", 120), 1),
    ]
    with tracer.installed():
        for workload, seed in cases:
            settings, spec = workload.instance(seed)
            with tracer.solve():
                run_solve(settings, spec)
    seen = {s.name for s in tracer.spans}
    assert {name for _, name, _ in BINDINGS} <= seen
    for workload, _ in cases:
        assert workload.required <= seen
    # the patches are gone afterwards
    assert [getattr(*resolve(target)) for target, _, _ in BINDINGS] == originals


def test_check_rejects_perturbed_coefficients():
    w = _tiny("lad-tall", 400)
    settings, spec = w.instance(3)
    payload = run_solve(settings, spec)["payload"]
    b, a = instance_data(w, 3)
    ref = payload["objective"]
    assert check_solve("lad", payload, b, a, ref, subgradient=True) == []

    coeffs = list(payload["solution"]["coefficients"])
    coeffs[0] += 1e-3
    bad = {**payload, "solution": {"coefficients": coeffs}}
    errors = check_solve("lad", bad, b, a, ref, subgradient=True)
    assert any("recomputed" in e for e in errors)
    assert any("reference" in e for e in errors)
    assert any(e.startswith("subgradient check") for e in errors)


def test_check_rejects_pca_below_reference():
    w = _tiny("l1pca-enum", 120)
    settings, spec = w.instance(2)
    payload = run_solve(settings, spec)["payload"]
    b, a = instance_data(w, 2)
    ref = payload["objective"]
    assert check_solve("l1pca", payload, b, a, ref) == []
    assert check_solve("l1pca", payload, b, a, ref * 0.9) == []
    assert any("below reference" in e for e in check_solve("l1pca", payload, b, a, ref * 1.01))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_workload_seed_gives_identical_instances(name):
    w = WORKLOADS[name]
    first, second = w.instance_seeds(7), w.instance_seeds(7)
    assert first == second
    assert sorted(first) == sorted(w.instance_seeds(8)) and first != w.instance_seeds(8)
    for seed in first[:2]:
        (b1, a1), (b2, a2) = instance_data(w, seed), instance_data(w, seed)
        assert a1.tobytes() == a2.tobytes()
        assert (b1 is None and b2 is None) or b1.tobytes() == b2.tobytes()
    assert instance_data(w, first[0])[1].tobytes() != instance_data(w, first[1])[1].tobytes()
