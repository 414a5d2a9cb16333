"""The benchmark's own tests: every output check passes on intact pipeline
outputs and fails on a corrupted copy; the oracles agree with the
generators; the tracer restores what it patched; the reference kernel's
child process ends with the run.

Run from the root of a checkout: python3 -m pytest perfbench -q
"""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

import checks
from catebounds import runner
from catebounds.data import (HcMnistConfig, build_hcmnist, gen_synthetic,
                             parse_idx, synthetic_tau)
from catebounds.runner import (DatasetSpec, ExperimentConfig, FlowParams,
                               PropensityParams, Stage0Params)
from speed import Kernel
from tracing import LAYER_METRICS, Tracer
from workloads import IDX_FILES, write_mnist_inputs

SEED = 3
DELTAS = (0.0005, 0.05)
HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    out = tmp_path_factory.mktemp("out")
    config = ExperimentConfig(
        dataset=DatasetSpec(kind="synthetic", n_train=200, n_test=80, seed=SEED),
        method="tarnet", deltas=DELTAS, k=500, seeds=(SEED,), out_dir=str(out),
        stage0=Stage0Params(n_iter=200), prop_x=PropensityParams(n_iter=200),
        prop_phi=PropensityParams(n_iter=200), flow=FlowParams(n_iter=200))
    train, test = runner.load_dataset(config.dataset)
    runner.emit_results(config, [runner.run_pipeline(config, train, test, SEED)])
    return config, train, test, out


class Outputs:
    """A private copy of one seed's outputs that a test may corrupt."""

    POINTS = [5, 40, 77]  # test rows the quadrature check integrates

    def __init__(self, pipeline, tmp_path):
        self.config, self.train, self.test, source = pipeline
        self.out = tmp_path / "out"
        shutil.copytree(source, self.out)
        self.seed_dir = self.out / f"seed_{SEED}"
        blob = (self.seed_dir / "stage0.json").read_bytes()
        self.phi, self.phi_test = checks.representations(
            blob, self.train.x, self.test.x)

    def edit(self, path: Path, fn) -> None:
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        fn(rows[0], rows[1:])
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)

    def gamma(self):
        checks.check_gamma(self.seed_dir, DELTAS, self.phi, self.phi_test,
                           np.random.default_rng(0))

    def gamma_csv(self):
        checks.check_gamma_csv(self.seed_dir, DELTAS, self.phi)

    def intervals(self):
        checks.check_intervals(self.seed_dir, DELTAS, self.train.n, self.test.n)

    def quadrature(self):
        return checks.check_quadrature(self.seed_dir, self.phi_test[self.POINTS],
                                       DELTAS, self.config.k, self.POINTS)

    def policy(self):
        checks.check_policy(self.out, SEED, DELTAS,
                            checks.synthetic_oracle(self.test.x))


@pytest.fixture
def outputs(pipeline, tmp_path):
    return Outputs(pipeline, tmp_path)


def _plain(cell: str) -> str:
    """'np.float64(0.25)' -> '0.25'; other cells unchanged."""
    return cell[len("np.float64("):-1] if cell.startswith("np.float64(") else cell


def _plain_phi(o: Outputs) -> None:
    for d in DELTAS:
        o.edit(checks.gamma_file(o.seed_dir, d),
               lambda head, rows: [r.__setitem__(j, _plain(r[j]))
                                   for r in rows for j in range(len(r))])


def test_intact_outputs_pass(outputs):
    outputs.gamma()
    outputs.intervals()
    assert outputs.quadrature().worst <= 1.0
    outputs.policy()


def test_gamma_csv_needs_plain_numbers_equal_to_phi(outputs):
    _plain_phi(outputs)
    outputs.gamma_csv()
    path = checks.gamma_file(outputs.seed_dir, DELTAS[0])
    outputs.edit(path, lambda head, rows: rows[7].__setitem__(
        1, repr(float(rows[7][1]) + 1e-9)))
    with pytest.raises(checks.CheckFailed, match="phi columns differ"):
        outputs.gamma_csv()
    outputs.edit(path, lambda head, rows: rows[7].__setitem__(
        head.index("pi1_x"), "np.float64(0.5)"))
    with pytest.raises(checks.CheckFailed, match="pi1_x of row 7 .* not a number"):
        outputs.gamma_csv()


def test_gamma_csv_known_fault_only_for_numpy_repr_of_phi(outputs):
    path = checks.gamma_file(outputs.seed_dir, DELTAS[0])
    outputs.edit(path, lambda head, rows: rows[7].__setitem__(
        1, f"np.float64({_plain(rows[7][1])})"))
    with pytest.raises(checks.KnownFault, match="np.float64"):
        outputs.gamma_csv()
    # a wrapped phi that is also wrong is a real failure, not the known fault
    outputs.edit(path, lambda head, rows: rows[7].__setitem__(
        1, f"np.float64({float(_plain(rows[7][1])) + 1e-9!r})"))
    with pytest.raises(checks.CheckFailed, match="phi columns differ") as failure:
        outputs.gamma_csv()
    assert not isinstance(failure.value, checks.KnownFault)


def test_swapped_bounds_fail_intervals(outputs):
    path = checks.bounds_file(outputs.seed_dir, DELTAS[-1])

    def swap(head, rows):
        lo, hi = head.index("lower"), head.index("upper")
        row = next(r for r in rows if float(r[lo]) < float(r[hi]))
        row[lo], row[hi] = row[hi], row[lo]

    outputs.edit(path, swap)
    with pytest.raises(checks.CheckFailed, match="lower > upper"):
        outputs.intervals()


def test_lowered_gamma_hat_fails_gamma(outputs):
    path = checks.gamma_file(outputs.seed_dir, DELTAS[-1])

    def lower(head, rows):
        gp, gh = head.index("gamma_point"), head.index("gamma_hat")
        row = next(r for r in rows if float(r[gh]) > float(r[gp]))
        row[gh] = row[gp]

    outputs.edit(path, lower)
    with pytest.raises(checks.CheckFailed, match="delta-ball maximum"):
        outputs.gamma()


def test_lowered_test_gamma_fails_gamma(outputs):
    path = checks.bounds_file(outputs.seed_dir, DELTAS[-1])
    outputs.edit(path, lambda head, rows: [
        r.__setitem__(head.index("gamma"), "1.0") for r in rows])
    with pytest.raises(checks.CheckFailed, match="test Gamma"):
        outputs.gamma()


def test_wrong_gamma_point_fails_gamma(outputs):
    path = checks.gamma_file(outputs.seed_dir, DELTAS[0])
    outputs.edit(path, lambda head, rows: rows[3].__setitem__(
        head.index("pi1_x"), repr(float(rows[3][head.index("pi1_x")]) * 0.9)))
    with pytest.raises(checks.CheckFailed, match="odds ratio"):
        outputs.gamma()


def test_gamma_decreasing_in_delta_fails_intervals(outputs):
    path = checks.bounds_file(outputs.seed_dir, DELTAS[0])

    def raise_gamma(head, rows):
        g = head.index("gamma")
        rows[0][g] = repr(float(rows[0][g]) + 100.0)

    outputs.edit(path, raise_gamma)
    with pytest.raises(checks.CheckFailed, match="gamma decreases"):
        outputs.intervals()


def test_flipped_decision_fails_policy(outputs):
    path = checks.bounds_file(outputs.seed_dir, DELTAS[0])

    def flip(head, rows):
        d = head.index("decision")
        rows[11][d] = "defer" if rows[11][d] != "defer" else "treat"

    outputs.edit(path, flip)
    with pytest.raises(checks.CheckFailed, match="decision of point"):
        outputs.policy()


def test_wrong_rate_in_results_fails_policy(outputs):
    path = outputs.out / "results.json"
    results = json.loads(path.read_text())
    results["records"][0]["per_delta"][0]["dr_out"] += 1.0 / outputs.test.n
    path.write_text(json.dumps(results))
    with pytest.raises(checks.CheckFailed, match="dr_out"):
        outputs.policy()


def test_bound_outside_quadrature_tolerance_fails(outputs):
    report = outputs.quadrature()
    point, delta, _, _, q_lower, _, tol = report.rows[-1]
    path = checks.bounds_file(outputs.seed_dir, delta)

    def move(shift):
        def fn(head, rows):
            rows[point][head.index("lower")] = repr(float(q_lower + shift))
        outputs.edit(path, fn)

    move(-0.5 * tol)
    outputs.quadrature()
    move(-2.0 * tol)
    with pytest.raises(checks.CheckFailed, match="quadrature"):
        outputs.quadrature()


def test_digest_sees_one_changed_byte(outputs):
    before = checks.digest(outputs.out)
    path = outputs.seed_dir / "train_tau.csv"
    blob = bytearray(path.read_bytes())
    blob[-2] = ord("0") if blob[-2] != ord("0") else ord("1")
    path.write_bytes(bytes(blob))
    assert checks.digest(outputs.out) != before


def test_tilt_quadrature_matches_normal_closed_form():
    y = np.linspace(-9.0, 9.0, 40_001)
    quad = checks.TiltQuadrature(y, norm.pdf(y))
    (lo, _), (hi, _) = quad.bounds(1.0, 0.3)
    assert abs(lo) < 1e-9 and abs(hi) < 1e-9
    gamma, pi = 2.5, 0.3
    (lo, var_lo), (hi, _) = quad.bounds(gamma, pi)
    up = (1 - gamma) * pi + gamma
    down = (1 - 1 / gamma) * pi + 1 / gamma
    # E[Y 1{Y <= q}] = -pdf(q) for a standard normal
    c_lo, c_hi = 1 / (1 + gamma), gamma / (1 + gamma)
    assert lo == pytest.approx((up - down) * -norm.pdf(norm.ppf(c_lo)), abs=1e-7)
    assert hi == pytest.approx((down - up) * -norm.pdf(norm.ppf(c_hi)), abs=1e-7)
    assert lo < 0.0 < hi and var_lo > 0.0


def test_oracles_match_the_generators(tmp_path):
    x = gen_synthetic(500, seed=9, split="test")
    assert np.allclose(checks.synthetic_oracle(x.x), x.tau_oracle, atol=1e-12)
    assert np.allclose(checks.synthetic_oracle(x.x), synthetic_tau(x.x), atol=1e-12)

    inputs = write_mnist_inputs(tmp_path, seed=4, rows=(600, 200))
    images = {f: parse_idx(tmp_path / f) for split in IDX_FILES.values() for f in split}
    tr_img, tr_lab = (images[f] for f in IDX_FILES["train"])
    te_img, te_lab = (images[f] for f in IDX_FILES["test"])
    stats = HcMnistConfig.from_data(tr_img, tr_lab)
    test = build_hcmnist(te_img, te_lab, 4, stats, "test")
    oracle = checks.hcmnist_oracle(inputs.train_images, inputs.train_labels,
                                   inputs.test_images, inputs.test_labels)
    assert np.allclose(oracle, test.tau_oracle, atol=1e-9)


def test_tracer_counts_and_restores(pipeline):
    config, train, _, _ = pipeline
    original = runner.train_stage0
    tracer = Tracer()
    with tracer.installed(), tracer.span("seed"):
        model = runner.build_stage0(runner._estimator_config(config, train.d_x, 0))
        runner.train_stage0(model, train.x, train.a, train.y,
                            runner.TrainRun(batch_size=32, n_iter=7))
    assert runner.train_stage0 is original
    layers = tracer.layers(0)
    stage0 = layers["estimators.train_stage0"]
    assert stage0["calls"] == 1 and stage0["iterations"] == 7
    assert 0.0 <= stage0["self_s"] <= stage0["seconds"] <= layers["seed"]["seconds"]
    assert LAYER_METRICS["estimators.tape_nodes_per_iter"][1](layers) == \
        stage0["nodes"] / 7 > 0


def test_only_the_known_fault_leaves_a_run_correct():
    import run

    ops = run.Operations(checks.KnownFault)

    def fails(exc):
        def fn():
            raise exc
        return fn

    assert ops.run("ok", lambda: None)
    assert not ops.run("known", fails(checks.KnownFault("known")))
    assert (ops.attempted, ops.failed, ops.wrong) == (2, 1, 0)
    assert not ops.run("check", fails(checks.CheckFailed("wrong")))
    assert not ops.run("seed", fails(RuntimeError("crash")))
    ops.skip(run.CHECKS)
    assert (ops.attempted, ops.failed) == (4 + len(run.CHECKS), 3 + len(run.CHECKS))
    assert ops.wrong == 2 + len(run.CHECKS)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "synthetic-tarnet",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"attempted"' not in out.stdout


def test_reference_kernel_child_ends_when_closed():
    with Kernel() as kernel:
        assert kernel.time() > 0
    assert kernel._child.returncode == 0
    with pytest.raises(ValueError):
        kernel.time()  # its input is closed
