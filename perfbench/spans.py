"""In-memory span tracing of aidfit's layers, installed from outside the package.

Each traced function is replaced at the binding its caller looks up at call
time. Several modules import by name (``from .lad import primal_simplex``),
so patching the defining module would miss those calls; ``BINDINGS`` names
the caller-side binding instead.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


def _simplex_counts(args, kwargs, result) -> dict:
    rows, cols = args[0].shape
    # cells touched per pivot: the whole tableau, constraint columns plus rhs
    return {"pivots": result.pivots, "cells": result.pivots * rows * (cols + 1)}


def _pca_counts(args, kwargs, result) -> dict:
    a, p = args[0], args[1]
    return {"sign_vectors": 2 ** (a.rows * p - 1)}


def _decluster_counts(args, kwargs, result) -> dict:
    violating = args[2] if len(args) > 2 else kwargs["violating"]
    return {"splits": len(violating)}


def _run_aid_counts(args, kwargs, result) -> dict:
    return {
        "iterations": result.total_iterations,
        "final_clusters": result.final_cluster_count,
    }


# (binding "module:owner.attr", span name, counter over (args, kwargs, result))
BINDINGS: tuple[tuple[str, str, Callable | None], ...] = (
    ("aidfit.bench:run_aid", "core.run_aid", _run_aid_counts),
    ("aidfit.core:run_aid", "core.nested_run_aid", _run_aid_counts),
    ("aidfit.core:aggregate", "core.aggregate", None),
    ("aidfit.core:check_optimality", "core.check_optimality", None),
    ("aidfit.core:decluster", "core.decluster", _decluster_counts),
    ("aidfit.problems.definitions:_LinearMapMixin.apply_f", "problems.apply_f", None),
    ("aidfit.problems.definitions:PcaProjectionProblem.apply_f", "problems.apply_f", None),
    ("aidfit.problems.definitions:matmul", "linalg.matmul", None),
    ("aidfit.problems.definitions:solve_weighted_lad", "lad.solve_weighted_lad", None),
    ("aidfit.problems.definitions:solve_subset_selection", "lad.solve_subset_selection", None),
    ("aidfit.clustering:solve_weighted_lad", "lad.solve_weighted_lad", None),
    ("aidfit.problems.lad:weighted_lad_lp", "lad.weighted_lad_lp", None),
    ("aidfit.problems.lad:primal_simplex", "simplex.primal_simplex", _simplex_counts),
    ("aidfit.problems.definitions:solve_weighted_l1pca", "pca.solve_weighted_l1pca", None),
    ("aidfit.problems.pca:solve_l1pca_exact", "pca.solve_l1pca_exact", _pca_counts),
    ("aidfit.bench:build_initial_partition", "clustering.build_initial_partition", None),
    ("aidfit.clustering:residual_features", "clustering.residual_features", None),
    ("aidfit.clustering:pca_projection_features", "clustering.pca_projection_features", None),
    ("aidfit.clustering:kmeans_one_pass", "clustering.kmeans_one_pass", None),
    ("aidfit.bench:generate_instance", "data_io.generate_instance", None),
    ("aidfit.bench:validate_report", "bench.validate_report", None),
    ("aidfit.bench:jsonschema.validate", "bench.schema_validate", None),
)

ROOT = "solve"


@dataclass
class Span:
    id: int
    parent: int | None
    solve: int
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "solve": self.solve,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            **self.counts,
        }


class Tracer:
    """Collects nested spans of one thread; one root span per solve."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._solve = -1

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self._solve, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def solve(self) -> Iterator[Span]:
        """Root span around one end-to-end solve."""
        self._solve += 1
        span = self._open(ROOT)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn: Callable, counter: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every binding for the duration of the block, then restore."""
        saved: list[tuple[Any, str, Any]] = []
        try:
            for target, name, counter in BINDINGS:
                owner, attr = resolve(target)
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def resolve(target: str) -> tuple[Any, str]:
    """``"pkg.mod:Owner.attr"`` -> (the object holding ``attr``, ``"attr"``)."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    if not hasattr(owner, attr):
        raise AttributeError(f"binding {target} does not exist")
    return owner, attr


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo = max(c.start, cursor, s.start)
            hi = min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.end - s.start - covered)
    return out


def scaled(spans: list[Span], times: list[float], scales: list[float] | None) -> list[float]:
    """``times[i]`` times the host-speed factor of span i's solve, ``scales[solve]``."""
    return times if scales is None else [t * scales[s.solve] for s, t in zip(spans, times)]


def self_by_layer(spans: list[Span], scales: list[float] | None = None) -> dict[str, float]:
    """Self time per layer (name prefix), per solve; the layers sum to the
    traced solve time. ``solve`` is ``run_solve``'s own time outside every
    traced call."""
    solves = sum(1 for s in spans if s.name == ROOT)
    out: dict[str, float] = {}
    for s, t in zip(spans, scaled(spans, self_times(spans), scales)):
        out[s.layer] = out.get(s.layer, 0.0) + t / solves
    return out


def ancestor_names(spans: list[Span], span: Span) -> Iterator[str]:
    while span.parent is not None:
        span = spans[span.parent]
        yield span.name


def layer_metrics(spans: list[Span], scales: list[float] | None = None) -> dict[str, tuple[float, str]]:
    """Per-layer figures, per solve unless the unit says otherwise.

    Times are multiplied by ``scales[solve]``, the host-speed normalization
    of the solve they belong to.
    """
    roots = [s for s in spans if s.name == ROOT]
    if not roots:
        raise ValueError("no solve spans recorded")
    solves = len(roots)
    selfs = scaled(spans, self_times(spans), scales)

    def total_self(pred) -> float:
        return sum(t for s, t in zip(spans, selfs) if pred(s))

    def named(*names):
        return [s for s in spans if s.name in names]

    def under(s: Span, name: str) -> bool:
        return name in ancestor_names(spans, s)

    def owning_loop(s: Span) -> str | None:
        return next(
            (n for n in ancestor_names(spans, s) if n in ("core.run_aid", "core.nested_run_aid")),
            None,
        )

    outer = named("core.run_aid")
    iterations = sum(s.counts["iterations"] for s in outer)
    outer_apply = [s for s in named("problems.apply_f") if owning_loop(s) == "core.run_aid"]
    outer_splits = sum(
        s.counts["splits"] for s in named("core.decluster") if owning_loop(s) == "core.run_aid"
    )
    simplex = named("simplex.primal_simplex")
    partitions = named("clustering.build_initial_partition")
    lps = named("lad.weighted_lad_lp")
    pca = named("pca.solve_l1pca_exact")
    sign_vectors = sum(s.counts["sign_vectors"] for s in pca)
    pca_self = total_self(lambda s: s.layer == "pca")
    per = 1.0 / solves

    def s_(v):
        return (v * per, "s/solve")

    def n_(v):
        return (v * per, "count/solve")

    return {
        "core.iterations": n_(iterations),
        "core.aggregate_s": s_(total_self(lambda s: s.name == "core.aggregate")),
        "core.check_s": s_(total_self(lambda s: s.name == "core.check_optimality")),
        "core.decluster_s": s_(total_self(lambda s: s.name == "core.decluster")),
        "core.final_clusters": n_(sum(s.counts["final_clusters"] for s in outer)),
        "core.split_clusters": n_(outer_splits),
        "core.apply_f_per_iter": (len(outer_apply) / iterations if iterations else 0.0, "count/iter"),
        "simplex.calls": n_(len(simplex)),
        "simplex.pivots": n_(sum(s.counts["pivots"] for s in simplex)),
        "simplex.self_s": s_(total_self(lambda s: s.layer == "simplex")),
        "simplex.cells_updated": n_(sum(s.counts["cells"] for s in simplex)),
        "lad.lp_calls": n_(len(lps)),
        "lad.self_s": s_(total_self(lambda s: s.layer == "lad")),
        "subset.lp_per_solve": n_(sum(1 for s in lps if under(s, "lad.solve_subset_selection"))),
        "clustering.self_s": s_(total_self(lambda s: s.layer == "clustering")),
        "clustering.total_s": s_(sum(scaled(partitions, [s.end - s.start for s in partitions], scales))),
        "clustering.kmeans_s": s_(total_self(lambda s: s.name == "clustering.kmeans_one_pass")),
        "clustering.lp_calls": n_(
            sum(1 for s in simplex if under(s, "clustering.build_initial_partition"))
        ),
        "pca.sign_vectors": n_(sign_vectors),
        "pca.self_s": s_(pca_self),
        "pca.vectors_per_s": (sign_vectors / pca_self if pca_self > 0 else 0.0, "1/s"),
        "linalg.matmul_calls": n_(len(named("linalg.matmul"))),
        "linalg.matmul_s": s_(total_self(lambda s: s.layer == "linalg")),
        "data_io.generate_s": s_(total_self(lambda s: s.layer == "data_io")),
        "bench.validate_s": s_(total_self(lambda s: s.layer == "bench")),
    }
