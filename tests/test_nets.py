"""Engine tests: forward algebra, gradient oracle, optimizers, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catebounds.autodiff import NonFiniteError, Tensor, constant, no_grad, take_rows
from catebounds.nets import (
    AdamW,
    MinibatchSampler,
    Mlp,
    MlpConfig,
    SgdMomentum,
    TrainRun,
    fit,
    forward_mlp,
)
from numeric_oracles import (
    GradCheckReport,
    backward_gradients,
    finite_difference_check,
    grad_check,
)
from tape_oracles import (
    concat_last,
    cumsum_last,
    logsumexp_last,
    softmax_last,
    take_along_last,
)


class TestForward:
    def test_zero_weights_give_bias_output(self):
        net = Mlp(MlpConfig(3, 4, 2, seed=1))
        for p in net.parameters():
            p.data[:] = 0.0
        net.b2.data[:] = np.array([1.5, -0.5])
        out = net(np.random.default_rng(0).normal(size=(7, 3)))
        assert np.allclose(out.data, [1.5, -0.5])

    def test_shape_mismatch_rejected(self):
        net = Mlp(MlpConfig(3, 4, 2, seed=0))
        with pytest.raises(ValueError):
            net(np.zeros((5, 2)))

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            MlpConfig(0, 4, 1)
        with pytest.raises(ValueError):
            MlpConfig(2, 0, 1)

    def test_same_seed_same_init(self):
        a = Mlp(MlpConfig(4, 6, 2, seed=42))
        b = Mlp(MlpConfig(4, 6, 2, seed=42))
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa.data, pb.data)

    def test_different_seed_different_init(self):
        a = Mlp(MlpConfig(4, 6, 2, seed=42))
        b = Mlp(MlpConfig(4, 6, 2, seed=43))
        assert not np.array_equal(a.w1.data, b.w1.data)


class TestBackward:
    def test_elu_net_max_rel_error_below_1e4(self):
        net = Mlp(MlpConfig(4, 8, 3, seed=11))
        x = np.random.default_rng(4).normal(size=(10, 4))
        report = grad_check(net, x, tolerance=1e-4)
        assert report.passed, report.max_rel_error

    def test_single_output_net_gradients(self):
        net = Mlp(MlpConfig(2, 6, 1, seed=5))
        x = np.random.default_rng(5).normal(size=(8, 2))
        report = grad_check(net, x, tolerance=1e-4)
        assert report.passed, report.max_rel_error

    def test_corrupted_gradient_detected(self):
        net = Mlp(MlpConfig(2, 4, 1, seed=9))
        x = np.random.default_rng(6).normal(size=(5, 2))

        # Finite differences see this detached leak, autograd does not.
        def corrupted() -> Tensor:
            out = net(x)
            leak = constant(0.1 * float(net.w1.data[0, 0]))
            return (out * out).mean() + leak

        report = finite_difference_check(corrupted, net.parameters(), tolerance=1e-4)
        assert not report.passed

    def test_unreachable_parameter_gets_zero_gradient(self):
        a = Tensor(np.array([2.0]), requires_grad=True)
        b = Tensor(np.array([3.0]), requires_grad=True)
        loss = (a * a).sum()
        grads = backward_gradients(loss, [a, b])
        assert np.array_equal(grads[0], [4.0])
        assert np.array_equal(grads[1], [0.0])

    def test_broadcast_bias_gradient_sums_over_batch(self):
        b = Tensor(np.zeros(3), requires_grad=True)
        x = constant(np.ones((5, 3)))
        (x + b).sum().backward()
        assert np.array_equal(b.grad, [5.0, 5.0, 5.0])

    def test_gather_ops_gradients(self):
        t = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        idx = np.array([[2], [0]])
        take_along_last(t, idx).sum().backward()
        assert np.array_equal(t.grad, [[0, 0, 1], [1, 0, 0]])

        t2 = Tensor(np.arange(6, dtype=float).reshape(3, 2), requires_grad=True)
        take_rows(t2, np.array([0, 0, 2])).sum().backward()
        assert np.array_equal(t2.grad, [[2, 2], [0, 0], [1, 1]])

    def test_concat_and_cumsum_gradients(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 1)), requires_grad=True)
        out = cumsum_last(concat_last([a, b]))
        (out * constant([[1.0, 2.0, 3.0]])).sum().backward()
        # d/da_j of sum_i c_i * cumsum_i = sum_{i>=j} c_i
        assert np.array_equal(a.grad, [[6.0, 5.0], [6.0, 5.0]])
        assert np.array_equal(b.grad, [[3.0], [3.0]])

    def test_logsumexp_and_softmax_match_numpy(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 6)) * 50  # large values stress stability
        t = Tensor(x, requires_grad=True)
        lse = logsumexp_last(t)
        from scipy.special import logsumexp as sp_lse
        assert np.allclose(lse.data, sp_lse(x, axis=-1))
        sm = softmax_last(Tensor(x))
        assert np.allclose(sm.data.sum(axis=-1), 1.0)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        d_in=st.integers(1, 4),
        hidden=st.integers(1, 6),
        d_out=st.integers(1, 3),
    )
    def test_random_small_nets_pass_fd_check(self, seed, d_in, hidden, d_out):
        net = Mlp(MlpConfig(d_in, hidden, d_out, seed=seed))
        x = np.random.default_rng(seed + 1).normal(size=(4, d_in))
        report = grad_check(net, x, tolerance=1e-4)
        assert report.passed, report.max_rel_error


class TestOptimizers:
    def test_sgd_first_step_is_lr_times_grad(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = SgdMomentum([p], lr=0.1)
        g = np.array([0.5, -1.0])
        p.grad = g
        opt.step()
        assert np.allclose(p.data, [1.0 - 0.05, -2.0 + 0.1])

    def test_sgd_momentum_accumulates(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = SgdMomentum([p], lr=1.0)
        p.grad = np.array([1.0])
        opt.step()
        p.grad = np.array([1.0])
        opt.step()
        # v1 = 1, v2 = 0.9 + 1 = 1.9; p = -(1 + 1.9)
        assert np.allclose(p.data, [-2.9])

    def test_adamw_first_step_magnitude(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = AdamW([p], lr=0.01)
        p.grad = np.array([0.3])
        opt.step()
        # bias-corrected first step is ~lr regardless of gradient scale
        assert np.allclose(p.data, [1.0 - 0.01], atol=1e-6)

    def test_adamw_decoupled_weight_decay(self):
        p = Tensor(np.array([10.0]), requires_grad=True)
        opt = AdamW([p], lr=0.1, weight_decay=0.5)
        p.grad = np.array([0.0])
        opt.step()
        # zero gradient: only the decay term moves the parameter
        assert np.allclose(p.data, [10.0 - 0.1 * 0.5 * 10.0])

    def test_adamw_converges_on_quadratic(self):
        p = Tensor(np.array([5.0]), requires_grad=True)
        opt = AdamW([p], lr=0.05)
        for _ in range(2000):
            opt.zero_grad()
            loss = (p * p).sum()
            loss.backward()
            opt.step()
        assert abs(p.data.item()) < 1e-3

    def test_nonpositive_lr_rejected(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        with pytest.raises(ValueError):
            AdamW([p], lr=0.0)
        with pytest.raises(ValueError):
            SgdMomentum([p], lr=-0.1)

    def test_nonfinite_gradient_aborts(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = AdamW([p], lr=0.01)
        p.grad = np.array([np.nan])
        with pytest.raises(NonFiniteError):
            opt.step()


class TestTrainRun:
    @pytest.mark.parametrize("settings", [{"prop_learning_rate": 0.0},
                                          {"prop_learning_rate": -0.01},
                                          {"prop_weight_decay": -0.1}])
    def test_bad_propensity_settings_rejected(self, settings):
        with pytest.raises(ValueError, match=next(iter(settings))):
            TrainRun(**settings)

    def test_unset_or_zero_decay_propensity_settings_accepted(self):
        assert TrainRun().prop_learning_rate is None
        assert TrainRun(prop_weight_decay=0.0).prop_weight_decay == 0.0


class TestNanPolicy:
    def test_nonfinite_forward_raises(self):
        t = Tensor(np.array([-1.0]))
        with pytest.raises(NonFiniteError):
            t.log()

    def test_overflow_raises(self):
        t = Tensor(np.array([1000.0]))
        with pytest.raises(NonFiniteError):
            t.exp()

    def test_nan_input_rejected_at_construction(self):
        with pytest.raises(NonFiniteError):
            Tensor(np.array([np.nan]))


class TestDeterminism:
    def test_training_loop_bitwise_reproducible(self):
        def run() -> np.ndarray:
            net = Mlp(MlpConfig(3, 5, 1, seed=123))
            opt = AdamW(net.parameters(), lr=0.01)
            rng = np.random.default_rng(99)
            x = rng.normal(size=(40, 3))
            y = rng.normal(size=(40, 1))
            sampler = MinibatchSampler(40, 8, np.random.default_rng(7))
            for _ in range(50):
                idx = sampler.next_indices()
                opt.zero_grad()
                diff = net(x[idx]) - constant(y[idx])
                (diff * diff).mean().backward()
                opt.step()
            return np.concatenate([p.data.ravel() for p in net.parameters()])

        assert np.array_equal(run(), run())

    def test_no_grad_blocks_graph(self):
        p = Tensor(np.array([2.0]), requires_grad=True)
        with no_grad():
            out = p * 3.0
        assert not out.requires_grad


class TestMinibatchSampler:
    def test_epoch_covers_every_index(self):
        sampler = MinibatchSampler(10, 5, np.random.default_rng(0))
        seen = np.concatenate([sampler.next_indices() for _ in range(2)])
        assert sorted(seen.tolist()) == list(range(10))

    def test_batch_larger_than_n_is_clamped(self):
        sampler = MinibatchSampler(3, 100, np.random.default_rng(0))
        assert len(sampler.next_indices()) == 3

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            MinibatchSampler(0, 4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            MinibatchSampler(5, 0, np.random.default_rng(0))


class TestFit:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 30),
        batch=st.integers(1, 40),
        n_iter=st.integers(2, 12),
    )
    def test_matches_hand_written_loop(self, seed, n, batch, n_iter):
        # two optimizers on disjoint parameters, as cfr_isw trains stage 0
        data = np.random.default_rng(seed)
        x = data.normal(size=(n, 3))
        y = data.normal(size=(n, 1))

        def setup():
            first = Mlp(MlpConfig(3, 4, 1, seed=seed))
            second = Mlp(MlpConfig(3, 2, 1, seed=seed + 1))
            opts = [AdamW(first.parameters(), lr=0.01, weight_decay=0.01),
                    SgdMomentum(second.parameters(), lr=0.05)]
            batches = []

            def batch_loss(idx):
                batches.append(idx.copy())
                diff = first(x[idx]) + second(x[idx]) - constant(y[idx])
                return (diff * diff).mean()

            params = first.parameters() + second.parameters()
            return params, opts, batch_loss, batches

        params, opts, batch_loss, batches = setup()
        losses = list(fit(batch_loss, opts, n, TrainRun(batch_size=batch,
                                                        n_iter=n_iter),
                          np.random.default_rng(seed + 2)))

        ref_params, ref_opts, ref_loss, ref_batches = setup()
        sampler = MinibatchSampler(n, batch, np.random.default_rng(seed + 2))
        ref_losses = []
        for _ in range(n_iter):
            idx = sampler.next_indices()
            for p in ref_params:
                p.zero_grad()
            loss = ref_loss(idx)
            loss.backward()
            for opt in ref_opts:
                opt.step()
            ref_losses.append(float(loss.data))

        assert len(batches) == len(ref_batches) == n_iter
        for got, want in zip(batches, ref_batches):
            assert np.array_equal(got, want)
        assert losses == ref_losses
        for got, want in zip(params, ref_params):
            assert np.array_equal(got.data, want.data)
