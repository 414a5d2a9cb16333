"""Layer-by-layer tracing from outside the program.

`Tracer.installed()` replaces public functions of the catebounds modules with
timing wrappers, at the name the caller looks up (`runner.train_stage0`,
`bounds.cvar_mu_bounds`, `ConditionalFlow.sample`, ...), and puts the
originals back on exit. Each call becomes a span (name, start, end, parent)
kept in memory. `Tensor._result` is counted, not spanned: it runs for every
op, and a count of the nodes recorded on the tape is what the layers report.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from dataclasses import dataclass
from typing import Callable

from catebounds import bounds, estimators, runner
from catebounds.autodiff import Tensor
from catebounds.flow import ConditionalFlow
from catebounds.sensitivity import GammaField, PropensityModel

ROOT = "seed"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int            # index of the enclosing span, -1 at the root
    last: int              # index of the last span opened inside this one
    nodes: int             # tape nodes recorded while the span was open
    work: float            # rows, samples or points handled, where counted

    @property
    def seconds(self) -> float:
        return self.end - self.start


# (owner, attribute, span name, work counted from the call's arguments)
_WRAPPED: tuple[tuple[object, str, str, Callable | None], ...] = (
    (runner, "gen_synthetic", "data.gen_synthetic", None),
    (runner, "parse_idx", "data.parse_idx", None),
    (runner, "build_hcmnist", "data.build_hcmnist", None),
    (runner, "train_stage0", "estimators.train_stage0", None),
    (runner, "representation", "estimators.representation", None),
    (runner, "predict_point_cate", "estimators.predict_point_cate", None),
    (bounds, "representation", "estimators.representation", None),
    (bounds, "predict_point_cate", "estimators.predict_point_cate", None),
    (estimators, "balancing_penalty", "balancing.penalty", None),
    (runner, "train_propensity", "sensitivity.train_propensity", None),
    (PropensityModel, "predict", "sensitivity.propensity_predict", None),
    (runner, "build_gamma_field", "sensitivity.build_gamma_field", None),
    (GammaField, "at", "sensitivity.gamma_field_at", None),
    (runner, "write_gamma_csv", "sensitivity.write_gamma_csv", None),
    (runner, "train_cnf", "flow.train_cnf", None),
    # sample(self, a, phi, k, rng): one draw per context row and k
    (ConditionalFlow, "sample", "flow.sample",
     lambda args, kwargs: len(args[1]) * args[3]),
    # cate_bounds(x, ...): one point per row of x
    (runner, "cate_bounds", "bounds.cate_bounds",
     lambda args, kwargs: len(args[0])),
    (bounds, "cvar_mu_bounds", "bounds.cvar_mu_bounds", None),
    (runner, "write_bounds_csv", "bounds.write_bounds_csv", None),
    (runner, "read_bounds_csv", "bounds.read_bounds_csv", None),
    (runner, "bounds_policy", "evaluation.policy", None),
    (runner, "point_policy", "evaluation.policy", None),
    (runner, "score_policy", "evaluation.policy", None),
    (runner, "write_er_dr_curve_csv", "evaluation.write_curve_csv", None),
    (runner, "_save_checkpoint", "runner.save_checkpoint", None),
    (runner, "_write_train_tau", "runner.write_train_tau", None),
    (runner, "emit_results", "runner.emit_results", None),
    (Tensor, "backward", "autodiff.backward", None),
)


class Tracer:
    """Spans and a tape-node counter for the calls made while installed."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.nodes = 0
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, work: float = 0.0):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else -1
        self._open.append(index)
        nodes = self.nodes
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent,
                                     len(self.spans) - 1, self.nodes - nodes,
                                     work)

    def _wrap(self, fn: Callable, name: str, work: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name, work(args, kwargs) if work else 0.0):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def installed(self):
        originals = []
        result = Tensor.__dict__["_result"]
        tracer = self

        def counted(*args, **kwargs):
            out = result.__func__(*args, **kwargs)
            if out.requires_grad:
                tracer.nodes += 1
            return out

        try:
            for owner, attr, name, work in _WRAPPED:
                original = owner.__dict__[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, work))
            originals.append((Tensor, "_result", result))
            Tensor._result = staticmethod(counted)
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def layers(self, root: int) -> dict[str, dict]:
        """Per span name under span `root`: calls, inclusive and self seconds,
        tape nodes, work, and iterations (backward calls inside)."""
        closed = self.spans
        top = closed[root]
        out: dict[str, dict] = {}
        child_time = [0.0] * len(closed)
        for i in range(root + 1, top.last + 1):
            s = closed[i]
            if s.parent >= 0:
                child_time[s.parent] += s.seconds
        for i in range(root + 1, top.last + 1):
            s = closed[i]
            entry = out.setdefault(s.name, {
                "calls": 0, "seconds": 0.0, "self_s": 0.0, "nodes": 0,
                "work": 0.0, "iterations": 0, "top_level_s": 0.0})
            entry["calls"] += 1
            entry["seconds"] += s.seconds
            entry["self_s"] += s.seconds - child_time[i]
            entry["nodes"] += s.nodes
            entry["work"] += s.work
            if s.parent == root:
                entry["top_level_s"] += s.seconds
            entry["iterations"] += sum(
                1 for j in range(i + 1, s.last + 1)
                if closed[j].name == "autodiff.backward")
        root_entry = {"calls": 1, "seconds": top.seconds, "nodes": top.nodes,
                      "self_s": top.seconds - child_time[root]}
        out[ROOT] = root_entry
        return out

    def write(self, path) -> None:
        """All spans as JSON lines: name, start, end, parent, nodes, work."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start": s.start - t0, "end": s.end - t0,
                    "parent": s.parent, "nodes": s.nodes, "work": s.work}) + "\n")


def _get(layers: dict, name: str, key: str) -> float:
    return layers.get(name, {}).get(key, 0)


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# per-layer metric name -> (unit, function of one traced seed's layers)
LAYER_METRICS: dict[str, tuple[str, Callable[[dict], float]]] = {
    "data.parse_idx_s": ("s", lambda L: _get(L, "data.parse_idx", "seconds")),
    "data.build_hcmnist_s": ("s", lambda L: _get(L, "data.build_hcmnist", "seconds")),
    "data.gen_synthetic_s": ("s", lambda L: _get(L, "data.gen_synthetic", "seconds")),
    "estimators.train_stage0_s": (
        "s", lambda L: _get(L, "estimators.train_stage0", "seconds")),
    "estimators.stage0_iter_ms": ("ms", lambda L: 1e3 * _per(
        _get(L, "estimators.train_stage0", "seconds"),
        _get(L, "estimators.train_stage0", "iterations"))),
    "estimators.tape_nodes_per_iter": ("count", lambda L: _per(
        _get(L, "estimators.train_stage0", "nodes"),
        _get(L, "estimators.train_stage0", "iterations"))),
    "estimators.inference_s": ("s", lambda L: (
        _get(L, "estimators.representation", "seconds")
        + _get(L, "estimators.predict_point_cate", "seconds"))),
    "balancing.penalty_s": ("s", lambda L: _get(L, "balancing.penalty", "seconds")),
    "balancing.penalty_calls": (
        "count", lambda L: _get(L, "balancing.penalty", "calls")),
    "balancing.tape_nodes_per_call": ("count", lambda L: _per(
        _get(L, "balancing.penalty", "nodes"),
        _get(L, "balancing.penalty", "calls"))),
    "autodiff.tape_nodes": ("count", lambda L: _get(L, ROOT, "nodes")),
    "autodiff.backward_s": ("s", lambda L: _get(L, "autodiff.backward", "seconds")),
    "autodiff.backward_calls": (
        "count", lambda L: _get(L, "autodiff.backward", "calls")),
    "sensitivity.train_propensity_s": (
        "s", lambda L: _get(L, "sensitivity.train_propensity", "seconds")),
    "sensitivity.propensity_predict_s": (
        "s", lambda L: _get(L, "sensitivity.propensity_predict", "seconds")),
    "sensitivity.build_gamma_field_s": (
        "s", lambda L: _get(L, "sensitivity.build_gamma_field", "seconds")),
    "sensitivity.gamma_field_at_s": (
        "s", lambda L: _get(L, "sensitivity.gamma_field_at", "seconds")),
    "sensitivity.write_gamma_csv_s": (
        "s", lambda L: _get(L, "sensitivity.write_gamma_csv", "seconds")),
    "flow.train_cnf_s": ("s", lambda L: _get(L, "flow.train_cnf", "seconds")),
    "flow.iter_ms": ("ms", lambda L: 1e3 * _per(
        _get(L, "flow.train_cnf", "seconds"),
        _get(L, "flow.train_cnf", "iterations"))),
    "flow.tape_nodes_per_iter": ("count", lambda L: _per(
        _get(L, "flow.train_cnf", "nodes"),
        _get(L, "flow.train_cnf", "iterations"))),
    "flow.sample_s": ("s", lambda L: _get(L, "flow.sample", "seconds")),
    "flow.sample_calls": ("count", lambda L: _get(L, "flow.sample", "calls")),
    "flow.samples_drawn": ("count", lambda L: _get(L, "flow.sample", "work")),
    "flow.samples_per_s": ("1/s", lambda L: _per(
        _get(L, "flow.sample", "work"), _get(L, "flow.sample", "seconds"))),
    "bounds.cate_bounds_s": ("s", lambda L: _get(L, "bounds.cate_bounds", "seconds")),
    "bounds.cvar_mu_bounds_s": (
        "s", lambda L: _get(L, "bounds.cvar_mu_bounds", "seconds")),
    "bounds.points_bounded": ("count", lambda L: _get(L, "bounds.cate_bounds", "work")),
    "bounds.write_bounds_csv_s": (
        "s", lambda L: _get(L, "bounds.write_bounds_csv", "seconds")),
    "bounds.read_bounds_csv_s": (
        "s", lambda L: _get(L, "bounds.read_bounds_csv", "seconds")),
    "evaluation.policy_s": ("s", lambda L: _get(L, "evaluation.policy", "seconds")),
    "runner.save_checkpoint_s": (
        "s", lambda L: _get(L, "runner.save_checkpoint", "seconds")),
    "runner.emit_results_s": ("s", lambda L: _get(L, "runner.emit_results", "seconds")),
    "trace.seed_s": ("s", lambda L: _get(L, ROOT, "seconds")),
    "trace.unaccounted_s": ("s", lambda L: _get(L, ROOT, "self_s")),
    "trace.stage0_share": ("ratio", lambda L: _per(
        _get(L, "estimators.train_stage0", "seconds"), _get(L, ROOT, "seconds"))),
    "trace.stage2_share": ("ratio", lambda L: _per(
        _get(L, "bounds.cate_bounds", "seconds"), _get(L, ROOT, "seconds"))),
    "trace.gamma_field_share": ("ratio", lambda L: _per(
        _get(L, "sensitivity.build_gamma_field", "seconds")
        + _get(L, "sensitivity.gamma_field_at", "seconds"),
        _get(L, ROOT, "seconds"))),
}

# the data layer runs in set-up, outside the seed span
SETUP_METRICS = ("data.parse_idx_s", "data.build_hcmnist_s", "data.gen_synthetic_s")


def median_metrics(per_seed: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(d[name] for d in per_seed)
            for name in per_seed[0]}
