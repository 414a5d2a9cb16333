"""The benchmark's tracer (perfbench/tracing.py) wraps program functions by
the names their callers look up. Installing it raises KeyError as soon as
one of those names is gone, so a rename that would break
`perfbench/run.py --trace 1` fails here first. It also counts work from
the wrapped calls' arguments, so a reordered signature fails here instead
of silently corrupting `flow.samples_drawn` and `bounds.points_bounded`."""

from pathlib import Path

import numpy as np

from catebounds import bounds, runner
from catebounds.estimators import EstimatorConfig, EstimatorKind, build_stage0
from catebounds.flow import ConditionalFlow, FlowConfig
from catebounds.sensitivity import build_gamma_field

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


class _Prop:
    def predict(self, inputs):
        return np.full(len(inputs), 0.4)


def test_tracer_installs_and_restores_every_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    originals = [(owner, attr, owner.__dict__.get(attr))
                 for owner, attr, _, _ in tracing._WRAPPED]
    with tracing.Tracer().installed():
        pass
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, attr


def test_stage2_work_counts(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(bounds, "CHUNK", 2)  # two sample calls per arm
    import tracing

    n, k = 3, 7
    model = build_stage0(EstimatorConfig(
        kind=EstimatorKind.TARNET, d_x=2, d_phi=1, rep_hidden=3,
        head_hidden=3, seed=0))
    flow = ConditionalFlow(FlowConfig(context_dim=2, hidden_units=3, seed=0))
    rng = np.random.default_rng(0)
    field = build_gamma_field(rng.normal(size=(10, 1)),
                              rng.uniform(0.3, 0.7, 10),
                              rng.uniform(0.3, 0.7, 10), (0.01, 0.1))
    tracer = tracing.Tracer()
    with tracer.installed():
        runner.cate_bounds(rng.normal(size=(n, 2)), model, _Prop(), _Prop(),
                           field, flow, k)

    def work(name):
        return sum(s.work for s in tracer.spans if s.name == name)

    assert work("flow.sample") == 2 * n * k
    assert work("bounds.cate_bounds") == n
    # one field lookup serves both deltas
    assert [s.name for s in tracer.spans].count("sensitivity.gamma_field_at") == 1
