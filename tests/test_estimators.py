"""Stage-0 estimator tests: construction, losses, training, prediction."""

import json

import numpy as np
import pytest

from catebounds.balancing import BalancingConfig, BalancingMetric
from catebounds.estimators import (
    EstimatorConfig,
    EstimatorKind,
    Stage0Model,
    build_stage0,
    predict_heads,
    predict_point_cate,
    representation,
    stage0_loss,
    train_stage0,
)
from catebounds.nets import TrainRun, encode_array


def make_config(kind: EstimatorKind, seed: int = 0, alpha: float = 1.0,
                metric: BalancingMetric = BalancingMetric.MMD) -> EstimatorConfig:
    bal = None
    if kind is EstimatorKind.BNN:
        bal = BalancingConfig(metric=BalancingMetric.MMD, alpha=0.1)
    elif kind in (EstimatorKind.CFR, EstimatorKind.RCFR, EstimatorKind.CFR_ISW,
                  EstimatorKind.BWCFR):
        bal = BalancingConfig(metric=metric, alpha=alpha)
    return EstimatorConfig(kind=kind, d_x=2, d_phi=2, rep_hidden=8,
                           head_hidden=8, balancing=bal, seed=seed)


def toy_data(n: int = 64, seed: int = 0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    a = (rng.random(n) < 0.5).astype(float)
    y = x[:, 0] + 2.0 * a + 0.1 * rng.normal(size=n)
    return x, a, y


class TestBuild:
    def test_subnets_per_kind(self):
        heads = {"phi", "head0", "head1"}
        expected = {
            EstimatorKind.TARNET: heads,
            EstimatorKind.BNN: {"phi", "snet"},
            EstimatorKind.CFR: heads,
            EstimatorKind.INV_TARNET: heads | {"decoder"},
            EstimatorKind.RCFR: heads | {"weight"},
            EstimatorKind.CFR_ISW: heads | {"prop_phi"},
            EstimatorKind.BWCFR: heads | {"prop_x"},
        }
        for kind, names in expected.items():
            assert set(build_stage0(make_config(kind)).nets) == names, kind

    def test_balancing_required_where_applicable(self):
        with pytest.raises(ValueError):
            EstimatorConfig(kind=EstimatorKind.CFR, d_x=2, d_phi=1,
                            rep_hidden=4, head_hidden=4)

    def test_bnn_balancing_pinned(self):
        with pytest.raises(ValueError):
            EstimatorConfig(kind=EstimatorKind.BNN, d_x=2, d_phi=1,
                            rep_hidden=4, head_hidden=4,
                            balancing=BalancingConfig(alpha=1.0))

    def test_seed_protocol_reproducible(self):
        a = build_stage0(make_config(EstimatorKind.CFR, seed=5))
        b = build_stage0(make_config(EstimatorKind.CFR, seed=5))
        assert set(a.nets) == set(b.nets)
        for name in a.nets:
            for pa, pb in zip(a.nets[name].parameters(), b.nets[name].parameters()):
                assert np.array_equal(pa.data, pb.data)

    def test_cfr_and_tarnet_share_common_subnet_init(self):
        cfr = build_stage0(make_config(EstimatorKind.CFR, seed=9))
        tar = build_stage0(make_config(EstimatorKind.TARNET, seed=9))
        for name in ("phi", "head0", "head1"):
            for pc, pt in zip(cfr.nets[name].parameters(),
                              tar.nets[name].parameters()):
                assert np.array_equal(pc.data, pt.data)


class TestLoss:
    def test_perfect_heads_zero_mse(self):
        # representation = x (identity-capable), heads forced to the truth
        cfg = make_config(EstimatorKind.TARNET)
        m = build_stage0(cfg)
        x, a, _ = toy_data(40, seed=1)
        y = np.where(a == 1, 3.0, -1.0)
        for net, value in ((m.nets["head0"], -1.0), (m.nets["head1"], 3.0)):
            for p in net.parameters():
                p.data[:] = 0.0
            net.b2.data[:] = value
        loss, parts = stage0_loss(m, x, a, y)
        assert parts["mse"] == 0.0
        assert float(loss.data) == 0.0

    def test_cfr_alpha_zero_equals_tarnet_loss(self):
        x, a, y = toy_data(50, seed=2)
        tar = build_stage0(make_config(EstimatorKind.TARNET, seed=3))
        cfr = build_stage0(make_config(EstimatorKind.CFR, seed=3, alpha=0.0))
        lt, _ = stage0_loss(tar, x, a, y)
        lc, _ = stage0_loss(cfr, x, a, y)
        assert float(lt.data) == float(lc.data)

    def test_cfr_alpha_scales_balancing_term(self):
        x, a, y = toy_data(50, seed=4)
        l1, p1 = stage0_loss(build_stage0(make_config(EstimatorKind.CFR, seed=3,
                                                      alpha=1.0)), x, a, y)
        l2, p2 = stage0_loss(build_stage0(make_config(EstimatorKind.CFR, seed=3,
                                                      alpha=2.0)), x, a, y)
        assert np.isclose(p1["balancing"], p2["balancing"])
        assert np.isclose(float(l2.data) - float(l1.data), p1["balancing"])

    def test_inv_tarnet_identity_reconstruction(self):
        # d_phi = d_x with identity-like nets gives zero reconstruction loss
        cfg = EstimatorConfig(kind=EstimatorKind.INV_TARNET, d_x=2, d_phi=2,
                              rep_hidden=2, head_hidden=4, seed=0)
        m = build_stage0(cfg)
        for net in (m.nets["phi"], m.nets["decoder"]):
            net.w1.data[:] = np.eye(2)
            net.b1.data[:] = 0.0
            net.w2.data[:] = np.eye(2)
            net.b2.data[:] = 0.0
        # ELU is identity for positive inputs
        x = np.abs(np.random.default_rng(5).normal(size=(30, 2))) + 0.1
        a = np.tile([0.0, 1.0], 15)
        y = np.zeros(30)
        _, parts = stage0_loss(m, x, a, y)
        assert parts["reconstruction"] < 1e-20

    def test_rcfr_weights_normalized_to_mean_one(self):
        x, a, y = toy_data(64, seed=6)
        m = build_stage0(make_config(EstimatorKind.RCFR, seed=7))
        _, parts = stage0_loss(m, x, a, y)
        assert np.isclose(parts["mean_weight"], 1.0)

    def test_isw_weights_clamped_and_bce_present(self):
        x, a, y = toy_data(64, seed=8)
        m = build_stage0(make_config(EstimatorKind.CFR_ISW, seed=9))
        _, parts = stage0_loss(m, x, a, y)
        assert 0.1 <= parts["mean_weight"] <= 10.0
        assert "bce" in parts and np.isfinite(parts["bce"])

    def test_bwcfr_overlap_weights_in_unit_interval(self):
        x, a, y = toy_data(64, seed=10)
        m = build_stage0(make_config(EstimatorKind.BWCFR, seed=11))
        _, parts = stage0_loss(m, x, a, y)
        assert 0.0 < parts["mean_weight"] < 1.0
        assert "bce" in parts

    def test_single_group_batch_skips_balancing(self):
        x, a, y = toy_data(20, seed=12)
        a[:] = 1.0
        m = build_stage0(make_config(EstimatorKind.CFR, seed=13))
        _, parts = stage0_loss(m, x, a, y)
        assert "balancing" not in parts

    def test_loss_finite_for_all_kinds(self):
        x, a, y = toy_data(48, seed=14)
        for kind in EstimatorKind:
            loss, _ = stage0_loss(build_stage0(make_config(kind, seed=15)), x, a, y)
            assert np.isfinite(float(loss.data)), kind


class TestTraining:
    def test_constant_outcome_learned(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(120, 2))
        a = np.tile([0.0, 1.0], 60)
        y = np.full(120, 2.5)
        m = build_stage0(make_config(EstimatorKind.TARNET, seed=17))
        train_stage0(m, x, a, y, TrainRun(batch_size=32, learning_rate=0.01,
                                          n_iter=1000))
        m0, m1 = predict_heads(m, representation(m, x))
        assert np.mean(np.abs(m0 - 2.5)) < 0.05
        assert np.mean(np.abs(m1 - 2.5)) < 0.05

    def test_cfr_alpha_zero_matches_tarnet_trajectory(self):
        x, a, y = toy_data(80, seed=18)
        run = TrainRun(batch_size=32, learning_rate=0.01, n_iter=60)
        tar = build_stage0(make_config(EstimatorKind.TARNET, seed=19))
        cfr = build_stage0(make_config(EstimatorKind.CFR, seed=19, alpha=0.0))
        train_stage0(tar, x, a, y, run)
        train_stage0(cfr, x, a, y, run)
        assert tar.loss_trace == cfr.loss_trace
        assert np.array_equal(predict_point_cate(tar, representation(tar, x)),
                              predict_point_cate(cfr, representation(cfr, x)))

    def test_balancing_shrinks_group_mean_gap(self):
        rng = np.random.default_rng(20)
        n = 300
        x = rng.normal(size=(n, 2))
        a = (x[:, 0] + 0.5 * rng.normal(size=n) > 0).astype(float)  # confounded
        y = x[:, 0] + a
        run = TrainRun(batch_size=64, learning_rate=0.01, n_iter=300)

        def mean_gap(kind, alpha):
            m = build_stage0(make_config(kind, seed=21, alpha=alpha))
            train_stage0(m, x, a, y, run)
            rep = representation(m, x)
            return float(np.sum((rep[a == 1].mean(0) - rep[a == 0].mean(0)) ** 2))

        assert mean_gap(EstimatorKind.CFR, 10.0) < mean_gap(EstimatorKind.TARNET, 0.0)

    def test_training_deterministic_per_seed(self):
        x, a, y = toy_data(60, seed=22)
        run = TrainRun(batch_size=32, learning_rate=0.01, n_iter=50)

        def fit(seed):
            m = build_stage0(make_config(EstimatorKind.CFR, seed=seed))
            train_stage0(m, x, a, y, run)
            return predict_point_cate(m, representation(m, x))

        assert np.array_equal(fit(23), fit(23))
        assert not np.array_equal(fit(23), fit(24))

    def test_all_kinds_train_without_error(self):
        x, a, y = toy_data(60, seed=25)
        run = TrainRun(batch_size=32, learning_rate=0.01, n_iter=25)
        for kind in EstimatorKind:
            metric = (BalancingMetric.WASSERSTEIN
                      if kind in (EstimatorKind.CFR_ISW, EstimatorKind.BWCFR)
                      else BalancingMetric.MMD)
            m = build_stage0(make_config(kind, seed=26, metric=metric))
            train_stage0(m, x, a, y, run)
            assert len(m.loss_trace) == 25
            assert np.all(np.isfinite(m.loss_trace)), kind

    def test_single_treatment_group_rejected(self):
        x, a, y = toy_data(30, seed=27)
        a[:] = 0.0
        m = build_stage0(make_config(EstimatorKind.TARNET, seed=28))
        with pytest.raises(ValueError):
            train_stage0(m, x, a, y, TrainRun(n_iter=5))

    def test_nonbinary_treatment_rejected(self):
        x, a, y = toy_data(30, seed=29)
        a[0] = 0.5
        m = build_stage0(make_config(EstimatorKind.TARNET, seed=30))
        with pytest.raises(ValueError):
            train_stage0(m, x, a, y, TrainRun(n_iter=5))

    def test_loss_trace_trends_down(self):
        x, a, y = toy_data(200, seed=31)
        m = build_stage0(make_config(EstimatorKind.TARNET, seed=32))
        train_stage0(m, x, a, y, TrainRun(batch_size=64, learning_rate=0.01,
                                          n_iter=400))
        trace = np.array(m.loss_trace)
        assert trace[-50:].mean() < trace[:50].mean()


class TestPrediction:
    def test_point_cate_is_head_difference(self):
        x, a, y = toy_data(40, seed=33)
        m = build_stage0(make_config(EstimatorKind.TARNET, seed=34))
        phi = representation(m, x)
        m0, m1 = predict_heads(m, phi)
        assert np.array_equal(predict_point_cate(m, phi), m1 - m0)

    def test_prediction_batch_size_invariant(self):
        # BLAS reduction order may differ across batch shapes: equality up to ulp
        x, _, _ = toy_data(64, seed=35)
        for kind in (EstimatorKind.TARNET, EstimatorKind.BNN):
            m = build_stage0(make_config(kind, seed=36))
            full = predict_point_cate(m, representation(m, x))
            parts = np.concatenate([predict_point_cate(m, representation(m, x[:10])),
                                    predict_point_cate(m, representation(m, x[10:]))])
            assert np.allclose(full, parts, rtol=1e-12, atol=1e-12)

    def test_representation_shape(self):
        x, _, _ = toy_data(30, seed=37)
        m = build_stage0(make_config(EstimatorKind.TARNET, seed=38))
        assert representation(m, x).shape == (30, 2)


class TestCheckpoint:
    def test_roundtrip_all_kinds(self):
        x, a, y = toy_data(40, seed=39)
        for kind in EstimatorKind:
            m = build_stage0(make_config(kind, seed=40))
            train_stage0(m, x, a, y, TrainRun(batch_size=32, n_iter=10))
            text = json.dumps(m.to_checkpoint(), sort_keys=True)
            back = Stage0Model.from_checkpoint(json.loads(text))
            assert np.array_equal(predict_point_cate(back, representation(back, x)),
                                  predict_point_cate(m, representation(m, x))), kind
            assert back.loss_trace == m.loss_trace
            assert back.config == m.config
            # save -> load -> save writes the same bytes
            assert json.dumps(back.to_checkpoint(), sort_keys=True) == text, kind

    def test_wrong_kind_rejected(self):
        payload = build_stage0(make_config(EstimatorKind.TARNET)).to_checkpoint()
        payload["kind"] = "propensity"
        with pytest.raises(ValueError, match="stage0.*'propensity'"):
            Stage0Model.from_checkpoint(payload)

    def test_wrong_shape_names_the_net(self):
        payload = build_stage0(make_config(EstimatorKind.CFR)).to_checkpoint()
        payload["nets"]["head1"][2] = encode_array(np.zeros((3, 1)))  # w2 is (8, 1)
        with pytest.raises(ValueError, match=r"stage0.*'head1'.*\(3, 1\)"):
            Stage0Model.from_checkpoint(payload)

    def test_missing_net_rejected(self):
        payload = build_stage0(make_config(EstimatorKind.BWCFR)).to_checkpoint()
        del payload["nets"]["prop_x"]
        with pytest.raises(ValueError, match="stage0.*prop_x"):
            Stage0Model.from_checkpoint(payload)

    def test_record_without_loss_trace_names_the_key(self):
        payload = build_stage0(make_config(EstimatorKind.TARNET)).to_checkpoint()
        del payload["loss_trace"]
        with pytest.raises(ValueError, match=r"stage0 checkpoint: missing keys "
                                             r"\['loss_trace'\], unexpected keys \[\]"):
            Stage0Model.from_checkpoint(payload)

    def test_config_without_balancing_names_the_key(self):
        payload = build_stage0(make_config(EstimatorKind.CFR)).to_checkpoint()
        del payload["config"]["balancing"]
        with pytest.raises(ValueError, match=r"stage0 checkpoint config: missing "
                                             r"keys \['balancing'\]"):
            Stage0Model.from_checkpoint(payload)
