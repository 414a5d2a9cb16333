"""The benchmark's tracer (perfbench/tracing.py) wraps program functions by
the names their callers look up. Installing it raises KeyError as soon as
one of those names is gone, so a rename that would break
`perfbench/run.py --trace 1` fails here first. It also counts work from
the wrapped calls' arguments, so a reordered signature fails here instead
of silently corrupting `flow.samples_drawn` and `bounds.points_bounded`.

The benchmark's output checks (perfbench/checks.py) rebuild stage 0 and the
flow from the checkpoint files a seed wrote, so a checkpoint format they can
no longer read fails here too, and its workloads' configs must load."""

import json
from pathlib import Path

import numpy as np

from fixture_files import idx_images_bytes, idx_labels_bytes, toy_mnist

from catebounds import bounds, runner
from catebounds.estimators import (EstimatorConfig, EstimatorKind, build_stage0,
                                   representation)
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


def test_hcmnist_loading_is_traced(monkeypatch, tmp_path):
    # the tracer wraps runner.parse_idx and runner.build_hcmnist, so
    # load_dataset must keep calling them through runner's names
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    pixels, labels = toy_mnist(n_per_class=3)
    for split, n in (("train", 30), ("t10k", 20)):
        (tmp_path / f"{split}-images-idx3-ubyte").write_bytes(
            idx_images_bytes(pixels[:n].reshape(-1, 28, 28)))
        (tmp_path / f"{split}-labels-idx1-ubyte").write_bytes(
            idx_labels_bytes(labels[:n]))
    tracer = tracing.Tracer()
    with tracer.installed():
        runner.load_dataset(runner.DatasetSpec(
            kind="hcmnist", n_train=30, n_test=20, path=str(tmp_path)))
    names = [s.name for s in tracer.spans]
    assert names.count("data.parse_idx") == 4
    assert names.count("data.build_hcmnist") == 2


def test_workload_configs_load_and_round_trip(monkeypatch):
    # building a config runs every load-time check, so a check that refused
    # a workload's config would fail here and not in a benchmark run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    for name, workload in workloads.WORKLOADS.items():
        config = workload.config(3, f"out/{name}", "inputs")
        assert runner.config_from_dict(runner.config_to_dict(config)) == config


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


def test_checks_rebuild_models_from_checkpoint_files(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks

    saved = {}
    save = runner._save_checkpoint

    def keep(path, model):
        saved[path.name] = model
        save(path, model)

    monkeypatch.setattr(runner, "_save_checkpoint", keep)
    config = runner.ExperimentConfig(
        dataset=runner.DatasetSpec(n_train=100, n_test=40), d_phi=1,
        deltas=(0.001,), k=50, seeds=(0,), out_dir=str(tmp_path),
        stage0=runner.Stage0Params(n_iter=20, batch_size=32),
        prop_x=runner.PropensityParams(n_iter=20),
        prop_phi=runner.PropensityParams(n_iter=20),
        flow=runner.FlowParams(n_iter=20))
    train, test = runner.load_dataset(config.dataset)
    runner.run_pipeline(config, train, test, 0)
    sdir = tmp_path / "seed_0"

    got_train, got_test = checks.representations(
        (sdir / "stage0.json").read_bytes(), train.x, test.x)
    model = saved["stage0.json"]
    assert got_train.tobytes() == representation(model, train.x).tobytes()
    assert got_test.tobytes() == representation(model, test.x).tobytes()

    flow = ConditionalFlow.from_checkpoint(
        json.loads((sdir / "flow.json").read_text()))
    kept = saved["flow.json"]
    a, phi = test.a[:5], got_test[:5]
    assert flow.sample(a, phi, 30).tobytes() == kept.sample(a, phi, 30).tobytes()
    # the quadrature check lays its outcome grid out in the flow's own units
    assert flow.y_scaler.std[0] == kept.y_scaler.std[0]
    assert flow.y_scaler.mean[0] == kept.y_scaler.mean[0]
