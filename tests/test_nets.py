"""Engine tests: forward algebra, gradient oracle, optimizers, determinism,
the checkpoint codec."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from catebounds import estimators, flow, nets, runner, sensitivity
from catebounds.autodiff import NonFiniteError, Tensor, take_rows
from catebounds.balancing import BalancingConfig, sinkhorn_wasserstein
from catebounds.estimators import (BNN_BALANCING, NEEDS_BALANCING,
                                   EstimatorConfig, EstimatorKind, Stage0Model,
                                   build_stage0, train_stage0)
from catebounds.flow import (ConditionalFlow, FlowConfig, FlowDivergenceError,
                             train_cnf)
from catebounds.nets import (
    AdamW,
    MinibatchSampler,
    Mlp,
    MlpConfig,
    SgdMomentum,
    Standardizer,
    TrainRun,
    as_columns,
    checkpoint,
    decode_array,
    encode_array,
    fit,
    fit_standardizer,
    forward_mlp,
    load_checkpoint,
)
from catebounds.sensitivity import PropensityModel, train_propensity
from numeric_oracles import (
    backward_gradients,
    finite_difference_check,
    grad_check,
)
import tape_oracles
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
            leak = Tensor(0.1 * float(net.w1.data[0, 0]))
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
        x = Tensor(np.ones((5, 3)))
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
        (out * Tensor([[1.0, 2.0, 3.0]])).sum().backward()
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


# values the fused MLP must carry like the composed ops: signed zeros,
# subnormals, pre-activations whose expm1 is -1, and magnitudes whose
# products overflow
_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, -745.0,
                -800.0, 1e150, -1e150, 1e300, -1e300]
_MLP_VALUES = st.one_of(st.floats(-10.0, 10.0), st.sampled_from(_EDGE_VALUES))


def seed_adjoints(outs: list[Tensor], adjoints: list[np.ndarray]) -> Tensor:
    """A scalar node whose backward hands each of `outs` its adjoint, so a
    gradient reaches them without a loss that could overflow."""
    def backward(g):
        for out, adjoint in zip(outs, adjoints):
            out._accumulate(adjoint)

    return Tensor._result(np.zeros(()), tuple(outs), backward, "seed")


class TestFusedMlp:
    # the large values overflow in both forms, which numpy warns about
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 5), d_in=st.integers(1, 3),
           hidden=st.integers(1, 4), d_out=st.integers(1, 2),
           x_on_tape=st.booleans())
    def test_matches_composed_ops_bit_for_bit(self, data, n, d_in, hidden,
                                              d_out, x_on_tape):
        # two heads read one input, as the outcome heads read phi
        cfg = MlpConfig(d_in, hidden, d_out)
        shapes = [(d_in, hidden), (hidden,), (hidden, d_out), (d_out,)]
        draw = lambda shape: data.draw(arrays(np.float64, shape,
                                              elements=_MLP_VALUES))
        x = draw((n, d_in))
        heads = [[draw(shape) for shape in shapes] for _ in range(2)]
        adjoints = [draw((n, d_out)) for _ in range(2)]

        def run(forward):
            inputs = Tensor(x, requires_grad=True) if x_on_tape else x
            params = [[Tensor(a, requires_grad=True) for a in head]
                      for head in heads]
            try:
                outs = [forward(cfg, head, inputs) for head in params]
            except NonFiniteError:
                return None
            seed_adjoints(outs, adjoints).backward()
            tensors = [p for head in params for p in head]
            if x_on_tape:
                tensors.append(inputs)
            return [o.data for o in outs] + [t.grad for t in tensors]

        fused, composed = run(forward_mlp), run(tape_oracles.forward_mlp)
        assert (fused is None) == (composed is None)
        if fused is not None:
            for got, want in zip(fused, composed):
                assert got.tobytes() == want.tobytes()

    def test_records_one_tape_node(self, recorded):
        net = Mlp(MlpConfig(3, 4, 2, seed=5))
        for p in net.parameters():
            p.requires_grad = True
        out = net(np.ones((2, 3)))
        assert recorded == [True] and len(out._parents) == 5

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_pre_activation_overflow_to_minus_inf_raises(self):
        # the ELU would map the -inf to -1 and hide it
        net = Mlp(MlpConfig(1, 1, 1))
        net.w1.data[:] = -1e200
        with pytest.raises(NonFiniteError, match="'mlp'"):
            net(np.array([[1e200]]))


@pytest.mark.parametrize("build, message", [
    (lambda nan: TrainRun(learning_rate=nan), "learning_rate must be positive"),
    (lambda nan: TrainRun(weight_decay=nan), "weight_decay must be non-negative"),
    (lambda nan: TrainRun(prop_learning_rate=nan),
     "prop_learning_rate must be positive"),
    (lambda nan: TrainRun(prop_weight_decay=nan),
     "prop_weight_decay must be non-negative"),
    (lambda nan: AdamW([], lr=nan), "learning rate must be positive"),
    (lambda nan: AdamW([], lr=0.1, weight_decay=nan),
     "weight decay must be non-negative"),
    (lambda nan: SgdMomentum([], lr=nan), "learning rate must be positive"),
    (lambda nan: FlowConfig(2, 4, noise_y=nan),
     "noise intensities must be non-negative"),
    (lambda nan: FlowConfig(2, 4, noise_context=nan),
     "noise intensities must be non-negative"),
    (lambda nan: BalancingConfig(alpha=nan), "alpha must be non-negative"),
    (lambda nan: BalancingConfig(sinkhorn_epsilon=nan),
     "sinkhorn_epsilon must be positive"),
    (lambda nan: sinkhorn_wasserstein(np.ones((2, 1)), np.zeros((2, 1)),
                                      epsilon=nan), "epsilon must be positive"),
])
def test_nan_setting_refused(build, message):
    with pytest.raises(ValueError, match="^" + message):
        build(float("nan"))


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
            p.zero_grad()
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


@st.composite
def optimizer_runs(draw):
    """An update block size, parameters totalling from below one block to
    just past three, with signed zeros, and a few steps of gradients."""
    values = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, -0.0]))
    block = draw(st.integers(1, 6))
    total = draw(st.integers(1, 3 * block + 1))
    cuts = draw(st.lists(st.integers(1, total - 1), max_size=2, unique=True)
                if total > 1 else st.just([]))
    bounds = [0, *sorted(cuts), total]
    shapes = []
    for k in (hi - lo for lo, hi in zip(bounds[:-1], bounds[1:])):
        rows = draw(st.sampled_from([r for r in (1, 2, 3) if k % r == 0]))
        shapes.append((rows, k // rows) if draw(st.booleans()) else (k,))
    params = [draw(arrays(np.float64, s, elements=values)) for s in shapes]
    grads = [[draw(arrays(np.float64, s, elements=values)) for s in shapes]
             for _ in range(draw(st.integers(1, 4)))]
    return block, params, grads


class TestFlatOptimizers:
    @settings(max_examples=200, deadline=None)
    @given(run=optimizer_runs(), lr=st.sampled_from([1e-3, 0.1]),
           weight_decay=st.sampled_from([0.0, 0.01, 0.5]),
           kind=st.sampled_from(["AdamW", "SgdMomentum"]))
    def test_matches_per_tensor_loop_bit_for_bit(self, run, lr, weight_decay,
                                                 kind):
        block, values, grads = run
        flat_params = [Tensor(a.copy()) for a in values]
        loop_params = [Tensor(a.copy()) for a in values]
        # only AdamW decays
        decay = {"weight_decay": weight_decay} if kind == "AdamW" else {}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nets, "UPDATE_BLOCK", block)
            flat = {"AdamW": AdamW, "SgdMomentum": SgdMomentum}[kind](
                flat_params, lr=lr, **decay)
        loop = getattr(tape_oracles, kind)(loop_params, lr=lr, **decay)
        for step in grads:
            for params in (flat_params, loop_params):
                for p, g in zip(params, step):
                    p.grad = g.copy()
            flat.step()
            loop.step()
            for got, want in zip(flat_params, loop_params):
                assert got.data.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("cls", [AdamW, SgdMomentum])
    def test_parameters_are_views_of_one_buffer(self, cls):
        net = Mlp(MlpConfig(3, 4, 2, seed=1))
        before = [p.data.copy() for p in net.parameters()]
        opt = cls(net.parameters(), lr=0.1)
        for p, b in zip(net.parameters(), before):
            assert np.shares_memory(p.data, opt.flat)
            assert np.array_equal(p.data, b) and p.data.shape == b.shape

    @pytest.mark.parametrize("cls", [AdamW, SgdMomentum])
    def test_missing_gradient_named(self, cls):
        params = [Tensor(np.ones(2)), Tensor(np.ones((2, 3)))]
        opt = cls(params, lr=0.1)
        params[0].grad = np.ones(2)
        with pytest.raises(ValueError, match=r"^optimizer step: parameter 1 "
                                             r"\(shape \(2, 3\)\) has no gradient"):
            opt.step()

    def test_non_finite_gradient_moves_no_parameter(self):
        params = [Tensor(np.ones(2)), Tensor(np.ones(3))]
        opt = SgdMomentum(params, lr=0.1)
        params[0].grad = np.ones(2)
        params[1].grad = np.array([1.0, np.inf, 1.0])
        with pytest.raises(NonFiniteError):
            opt.step()
        assert all(np.array_equal(p.data, np.ones(p.shape)) for p in params)


    @pytest.mark.parametrize("kind, weight_decay", [
        ("AdamW", 0.01), ("AdamW", 0.0), ("SgdMomentum", 0.0)])
    def test_backpropagated_gradients_match_per_tensor_loop(self, kind,
                                                            weight_decay):
        # the net runs twice per loss, so each parameter's second adjoint is
        # added to the first in place
        x = np.random.default_rng(3).normal(size=(6, 3))
        flat_net, loop_net = (Mlp(MlpConfig(3, 5, 2, seed=4)) for _ in range(2))
        decay = {"weight_decay": weight_decay} if kind == "AdamW" else {}
        flat = {"AdamW": AdamW, "SgdMomentum": SgdMomentum}[kind](
            flat_net.parameters(), lr=0.1, **decay)
        loop = getattr(tape_oracles, kind)(loop_net.parameters(), lr=0.1,
                                           **decay)
        for net in (flat_net, loop_net):
            for p in net.parameters():
                p.requires_grad = True
        for _ in range(3):
            for net, opt in ((flat_net, flat), (loop_net, loop)):
                for p in net.parameters():
                    p.zero_grad()
                ((net(x) ** 2).sum() + net(x[::-1]).sum()).backward()
                opt.step()
            assert all(np.shares_memory(p.grad, flat.grad)
                       for p in flat_net.parameters())
            for got, want in zip(flat_net.parameters(), loop_net.parameters()):
                assert got.data.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("cls", [AdamW, SgdMomentum])
    def test_non_finite_in_last_block_moves_no_parameter(self, monkeypatch,
                                                         cls):
        # blocks of 4, 4 and 2 elements; the inf is the last element
        monkeypatch.setattr(nets, "UPDATE_BLOCK", 4)
        params = [Tensor(np.ones(3)), Tensor(np.ones((2, 3))),
                  Tensor(np.ones(1))]
        opt = cls(params, lr=0.1)
        assert len(opt._blocks) == 3
        for p in params:
            p.grad = np.full(p.shape, 0.5)
        opt.step()
        before = [p.data.copy() for p in params]
        params[2].grad = np.array([np.inf])
        with pytest.raises(NonFiniteError):
            opt.step()
        assert all(p.data.tobytes() == b.tobytes()
                   for p, b in zip(params, before))

    def test_adamw_holds_four_parameter_buffers_and_two_blocks(self):
        net = Mlp(MlpConfig(785, 1178, 1, seed=0))
        size = sum(p.data.size for p in net.parameters())
        x = np.random.default_rng(0).normal(size=(2, 785))
        tracemalloc.start()
        try:
            opt = AdamW(net.parameters(), lr=0.01, weight_decay=0.01)
            for p in net.parameters():
                p.requires_grad = True
            net(x).sum().backward()
            tracemalloc.reset_peak()
            opt.step()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # parameters, gradient, m and v, and the two scratch blocks
        buffers = 8 * (4 * size + 2 * nets.UPDATE_BLOCK)
        assert held < buffers + 2**16
        # the finiteness check's one-byte mask is the step's one temporary
        assert peak < buffers + size + 2**16

    def test_backward_makes_no_first_layer_sized_temporary(self):
        net = Mlp(MlpConfig(785, 1178, 1, seed=0))
        AdamW(net.parameters(), lr=0.01)
        for p in net.parameters():
            p.requires_grad = True
        loss = net(np.random.default_rng(0).normal(size=(128, 785))).sum()
        tracemalloc.start()
        try:
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the W1 gradient is the matmul's output in the optimizer's buffer;
        # what the backward allocates is a few (128, 1178) arrays
        assert peak < net.w1.data.nbytes


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
            t ** 0.5

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
            for p in net.parameters():  # trainable, as `fit` makes them
                p.requires_grad = True
            for _ in range(50):
                idx = sampler.next_indices()
                for p in net.parameters():
                    p.zero_grad()
                diff = net(x[idx]) - Tensor(y[idx])
                (diff * diff).mean().backward()
                opt.step()
            return np.concatenate([p.data.ravel() for p in net.parameters()])

        assert np.array_equal(run(), run())


def stage0_config(kind: EstimatorKind) -> EstimatorConfig:
    balancing = (BNN_BALANCING if kind is EstimatorKind.BNN
                 else BalancingConfig(alpha=1.0) if kind in NEEDS_BALANCING
                 else None)
    return EstimatorConfig(kind=kind, d_x=3, d_phi=2, rep_hidden=5,
                           head_hidden=4, balancing=balancing, seed=1)


_X = np.random.default_rng(17).normal(size=(40, 3))
_A = np.arange(40) % 2.0
_Y = _X[:, 0] + _A
_RUN = TrainRun(batch_size=16, n_iter=3)

# every network trainer, run on a small batch
TRAINERS = {
    **{f"stage0 {kind.value}": (lambda kind=kind: train_stage0(
        build_stage0(stage0_config(kind)), _X, _A, _Y, _RUN))
       for kind in EstimatorKind},
    "propensity": lambda: train_propensity(_X, _A, _RUN, hidden_units=3, seed=2),
    "flow": lambda: train_cnf(ConditionalFlow(FlowConfig(2, 4, seed=3)),
                              _Y, _A, _X[:, 0], _RUN),
}


@pytest.fixture
def trained(monkeypatch) -> list[Tensor]:
    """The parameters every trainer hands to `fit`, collected as it starts."""
    params: list[Tensor] = []

    def spy(batch_loss, optimizers, *args):
        params.extend(p for opt in optimizers for p in opt.params)
        return fit(batch_loss, optimizers, *args)

    for module in (estimators, sensitivity, flow):
        monkeypatch.setattr(module, "fit", spy)
    return params


class TestGradientRecording:
    def test_network_outside_fit_records_no_nodes(self, recorded):
        net = Mlp(MlpConfig(3, 4, 2, seed=5))
        out = net(np.ones((2, 3)))
        assert recorded and not any(recorded)
        assert not out.requires_grad and not out._parents

    @pytest.mark.parametrize("kind", list(EstimatorKind))
    def test_every_parameter_gets_a_gradient_inside_fit(self, kind):
        model = build_stage0(stage0_config(kind))
        params = [p for net in model.nets.values() for p in net.parameters()]
        steps = fit(lambda idx: estimators.stage0_loss(
            model, _X[idx], _A[idx], _Y[idx])[0], [AdamW(params, lr=0.01)],
            len(_X), _RUN, np.random.default_rng(0))
        next(steps)
        assert all(p.requires_grad and p.grad is not None for p in params)
        steps.close()
        assert not any(p.requires_grad for p in params)

    @pytest.mark.parametrize("trainer", TRAINERS)
    def test_parameters_untrainable_after_return(self, trainer, trained,
                                                 recorded):
        TRAINERS[trainer]()
        assert trained and not any(p.requires_grad for p in trained)
        assert any(recorded)

    @pytest.mark.parametrize("trainer", TRAINERS)
    def test_parameters_untrainable_after_non_finite_step(self, trainer,
                                                          trained, monkeypatch):
        def failing(opt):
            assert all(p.requires_grad for p in opt.params)
            raise NonFiniteError("forced")

        for cls in (AdamW, SgdMomentum):
            monkeypatch.setattr(cls, "step", failing)
        with pytest.raises(NonFiniteError, match="forced"):
            TRAINERS[trainer]()
        assert trained and not any(p.requires_grad for p in trained)

    def test_parameters_untrainable_after_flow_divergence(self, trained,
                                                          monkeypatch):
        # every NLL counts as diverged, so training stops at its first step
        monkeypatch.setattr(flow, "DIVERGENCE_FACTOR", -1.0)
        monkeypatch.setattr(flow, "DIVERGENCE_PATIENCE", 1)
        with pytest.raises(FlowDivergenceError):
            TRAINERS["flow"]()
        assert trained and not any(p.requires_grad for p in trained)


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
                diff = first(x[idx]) + second(x[idx]) - Tensor(y[idx])
                return (diff * diff).mean()

            params = first.parameters() + second.parameters()
            return params, opts, batch_loss, batches

        params, opts, batch_loss, batches = setup()
        losses = list(fit(batch_loss, opts, n, TrainRun(batch_size=batch,
                                                        n_iter=n_iter),
                          np.random.default_rng(seed + 2)))

        ref_params, ref_opts, ref_loss, ref_batches = setup()
        sampler = MinibatchSampler(n, batch, np.random.default_rng(seed + 2))
        for p in ref_params:  # trainable, as `fit` makes them
            p.requires_grad = True
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

    @pytest.mark.parametrize("where, message", [
        ("forward", "non-finite values produced by op 'tensor'"),
        ("gradient", "non-finite gradient in optimizer step")])
    def test_non_finite_step_names_its_iteration(self, where, message):
        net = Mlp(MlpConfig(2, 3, 1, seed=0))
        x = np.ones((4, 2))
        calls = []

        def batch_loss(idx):
            calls.append(idx)
            bad = len(calls) == 3
            if where == "forward":
                return net(x[idx] * (np.inf if bad else 1.0)).sum()

            def backward(g):
                for p in net.parameters():
                    p._accumulate(np.full(p.shape, np.inf if bad else 1.0))

            return Tensor._result(np.zeros(()), tuple(net.parameters()),
                                  backward, "probe")

        steps = fit(batch_loss, [AdamW(net.parameters(), lr=0.01)], len(x),
                    TrainRun(batch_size=2, n_iter=5), np.random.default_rng(0))
        with pytest.raises(NonFiniteError) as err:
            list(steps)
        assert type(err.value) is NonFiniteError
        assert str(err.value) == f"{message} at iteration 3"
        assert len(calls) == 3


# bit patterns the codec must carry: -0.0, the smallest and largest
# subnormals, +-1e308, a quiet NaN, a signalling NaN and a negative NaN
# with a payload
_SPECIAL_BITS = [0x8000000000000000, 0x1, 0x000FFFFFFFFFFFFF,
                 int(np.float64(1e308).view(np.uint64)),
                 int(np.float64(-1e308).view(np.uint64)),
                 0x7FF8000000000000, 0x7FF0000000000001, 0xFFF8000000000123]


@st.composite
def float64_arrays(draw):
    shape = draw(st.one_of(st.just((0,)), st.tuples(st.integers(1, 6)),
                           st.tuples(st.integers(1, 4), st.integers(1, 4))))
    n = math.prod(shape)
    words = draw(st.lists(st.one_of(st.sampled_from(_SPECIAL_BITS),
                                    st.integers(0, 2**64 - 1)),
                          min_size=n, max_size=n))
    return np.array(words, dtype=np.uint64).view(np.float64).reshape(shape)


def toy_record() -> dict:
    """A `toy` record of one 2-3-1 net `net` and one 2-array `std`."""
    return checkpoint("toy", {}, {"net": Mlp(MlpConfig(2, 3, 1, seed=4))},
                      {"std": np.array([0.5, 2.0])}, [1.0])


def tiny_stage0() -> Stage0Model:
    return build_stage0(EstimatorConfig(kind=EstimatorKind.TARNET, d_x=3,
                                        d_phi=2, rep_hidden=5, head_hidden=4,
                                        seed=2))


def load_toy(payload: dict) -> list[float]:
    return load_checkpoint(payload, {"net": Mlp(MlpConfig(2, 3, 1))},
                           {"std": np.ones(2)})


class TestCheckpointCodec:
    @settings(max_examples=200, deadline=None)
    @given(float64_arrays())
    def test_json_roundtrip_keeps_every_bit(self, a):
        text = json.dumps({"cell": encode_array(a)}, sort_keys=True)
        back = decode_array(json.loads(text)["cell"], "cell")
        assert back.shape == a.shape and back.dtype == np.float64
        assert back.tobytes() == a.tobytes()
        assert back.flags.writeable and back.flags.c_contiguous

    def test_byte_order_and_layout_do_not_change_the_cell(self):
        a = np.random.default_rng(3).normal(size=(4, 3))
        cell = encode_array(a)
        assert encode_array(a.astype(">f8")) == cell
        assert encode_array(np.asfortranarray(a)) == cell
        assert cell["shape"] == [4, 3]

    def test_saving_one_model_twice_writes_the_same_bytes(self, tmp_path):
        model = tiny_stage0()
        model.loss_trace = [0.5, 0.25]
        runner._save_checkpoint(tmp_path / "a.json", model)
        runner._save_checkpoint(tmp_path / "b.json", model)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_nested_list_layout_names_the_net(self):
        model = tiny_stage0()
        payload = model.to_checkpoint()
        # the layout before the codec: every array as nested lists
        payload["nets"] = {name: [p.data.tolist() for p in net.parameters()]
                           for name, net in model.nets.items()}
        with pytest.raises(ValueError, match=r"^stage0 checkpoint: net 'phi': "
                                             r"not a \{'shape', 'f8'\} array cell"):
            Stage0Model.from_checkpoint(payload)

    def test_nested_list_array_named(self):
        payload = toy_record()
        payload["arrays"]["std"] = [0.5, 2.0]
        with pytest.raises(ValueError, match=r"^toy checkpoint: array 'std': "
                                             r"not a \{'shape', 'f8'\} array cell"):
            load_toy(payload)

    @pytest.mark.parametrize("text", ["not base64!", "AAAA=AAA", "AAAAAAAAAAA", 7])
    def test_invalid_base64_named(self, text):
        payload = toy_record()
        payload["nets"]["net"][1]["f8"] = text
        with pytest.raises(ValueError, match=r"^toy checkpoint: net 'net': "
                                             r"invalid base64 text"):
            load_toy(payload)

    @pytest.mark.parametrize("shape", [[3], [2, 2], []])
    def test_byte_count_off_the_shape_named(self, shape):
        payload = toy_record()
        payload["arrays"]["std"]["shape"] = shape   # 16 bytes are saved
        with pytest.raises(ValueError, match=r"^toy checkpoint: array 'std': "
                                             r"16 bytes, expected 8 per value"):
            load_toy(payload)

    @pytest.mark.parametrize("shape", [[-2], [2.0], [True, 2], "2", None, {"n": 2}])
    def test_bad_shape_named(self, shape):
        payload = toy_record()
        payload["nets"]["net"][0]["shape"] = shape
        with pytest.raises(ValueError, match=r"^toy checkpoint: net 'net': shape "
                                             r".* is not a list of non-negative ints"):
            load_toy(payload)

    def test_cell_keys_checked(self):
        payload = toy_record()
        payload["arrays"]["std"]["dtype"] = "f8"
        with pytest.raises(ValueError, match=r"^toy checkpoint: array 'std': not a"):
            load_toy(payload)

    def test_net_that_is_not_a_list_named(self):
        payload = toy_record()
        payload["nets"]["net"] = payload["nets"]["net"][0]
        with pytest.raises(ValueError, match=r"^toy checkpoint: net 'net' is not "
                                             r"a list of array cells"):
            load_toy(payload)


def _beside_copy(net, block):
    """`forward_mlp` on `block`, a lone row run beside its copy."""
    rows = np.repeat(block, 2, axis=0) if len(block) == 1 else block
    return forward_mlp(net.cfg, net.parameters(), rows).data[:len(block)]


_BLOCK_CASES = {"one row": lambda b: 1, "a block less one": lambda b: b - 1,
                "one block": lambda b: b, "a block and one": lambda b: b + 1,
                "two blocks and three": lambda b: 2 * b + 3}


class TestPredict:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), block=st.integers(2, 6),
           case=st.sampled_from(sorted(_BLOCK_CASES)), d_in=st.integers(1, 4),
           hidden=st.integers(1, 5), d_out=st.integers(1, 3),
           prepared=st.booleans())
    def test_runs_forward_mlp_block_by_block_from_row_zero(
            self, data, block, case, d_in, hidden, d_out, prepared):
        n = _BLOCK_CASES[case](block)
        x = data.draw(arrays(np.float64, (n, d_in),
                             elements=st.floats(-10.0, 10.0)))
        net = Mlp(MlpConfig(d_in, hidden, d_out, seed=data.draw(
            st.integers(0, 2**32 - 1))))
        prepare = None
        if prepared:
            mean = data.draw(arrays(np.float64, d_in, elements=st.floats(-5, 5)))
            std = data.draw(arrays(np.float64, d_in, elements=st.floats(0.1, 5)))
            prepare = Standardizer(mean, std).apply
        want = np.concatenate([
            _beside_copy(net, x[lo:lo + block] if prepare is None
                         else prepare(x[lo:lo + block]))
            for lo in range(0, n, block)])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nets, "ROW_BLOCK", block)
            got = net.predict(x, prepare)
        assert got.shape == (n, d_out)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n, block", [(1, 2048), (9, 4)])
    def test_lone_row_runs_beside_its_copy(self, monkeypatch, n, block):
        # numpy's gemv for one row rounds unlike the gemm of two
        monkeypatch.setattr(nets, "ROW_BLOCK", block)
        x = np.random.default_rng(11).random((n, 785))
        net = Mlp(MlpConfig(785, 40, 3, seed=5))
        pair = forward_mlp(net.cfg, net.parameters(), x[[-1, -1]]).data
        assert net.predict(x)[-1].tobytes() == pair[0].tobytes()

    def test_rows_of_other_blocks_leave_a_row_unchanged(self, monkeypatch):
        monkeypatch.setattr(nets, "ROW_BLOCK", 8)
        rng = np.random.default_rng(6)
        x = rng.random((27, 785))
        net = Mlp(MlpConfig(785, 40, 3, seed=2))
        base = net.predict(x)
        moved = x.copy()
        moved[:8] = rng.random((8, 785))
        moved[16:] = rng.random((11, 785))
        assert net.predict(moved)[8:16].tobytes() == base[8:16].tobytes()
        # a longer call runs the same first blocks
        assert net.predict(x[:16]).tobytes() == base[:16].tobytes()

    def test_inference_peak_memory_is_one_blocks_not_ns(self, monkeypatch):
        block, d_x, hidden = 64, 200, 300
        monkeypatch.setattr(nets, "ROW_BLOCK", block)
        x = np.random.default_rng(8).random((12 * block, d_x))
        model = build_stage0(EstimatorConfig(
            EstimatorKind.TARNET, d_x=d_x, d_phi=1, rep_hidden=hidden,
            head_hidden=4, seed=1))
        prop = PropensityModel(Mlp(MlpConfig(d_x, hidden, 1, seed=2)),
                               fit_standardizer(x))
        block_hidden = block * hidden * 8  # one block's hidden layer, bytes
        for call in (lambda: estimators.representation(model, x),
                     lambda: prop.predict(x)):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # the whole input at once would hold 12 blocks' hidden layers
            assert peak < 3 * block_hidden


_STANDARDIZER_VALUES = st.one_of(st.floats(-1e6, 1e6),
                                 st.sampled_from([0.0, -0.0, 5e-324, 1e-300]))


class TestStandardizer:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(1, 9), d=st.integers(0, 3))
    def test_apply_equals_subtract_then_divide(self, data, n, d):
        # d == 0 draws a 1-D input, which is one column
        values = data.draw(arrays(np.float64, (n, d) if d else (n,),
                                  elements=_STANDARDIZER_VALUES))
        mean = data.draw(arrays(np.float64, max(d, 1),
                                elements=_STANDARDIZER_VALUES))
        std = data.draw(arrays(np.float64, max(d, 1),
                               elements=st.floats(1e-8, 1e6)))
        got = Standardizer(mean, std).apply(values)
        assert got.tobytes() == ((as_columns(values) - mean) / std).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 40), d=st.integers(0, 4),
           block=st.integers(1, 8), order=st.sampled_from("CF"))
    def test_fit_equals_numpy_mean_and_std(self, data, n, d, block, order):
        values = np.asarray(data.draw(arrays(
            np.float64, (n, d) if d else (n,), elements=_STANDARDIZER_VALUES)),
            order=order)
        v = as_columns(values)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nets, "ROW_BLOCK", block)
            got = fit_standardizer(values)
        assert got.mean.tobytes() == v.mean(axis=0).tobytes()
        assert got.std.tobytes() == np.maximum(v.std(axis=0), 1e-8).tobytes()

    def test_fit_holds_no_full_size_deviations(self, monkeypatch):
        monkeypatch.setattr(nets, "ROW_BLOCK", 64)
        x = np.random.default_rng(9).random((12 * 64, 50))
        tracemalloc.start()
        try:
            fit_standardizer(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 64 * 50 * 8  # numpy's std holds a copy of x
