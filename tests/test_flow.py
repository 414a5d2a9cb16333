"""Conditional flow tests: spline algebra, likelihoods, sampling, training."""

import copy
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtri
from scipy.stats import kstest, norm

from catebounds import flow as flow_module
from catebounds.autodiff import Tensor
from catebounds.flow import (
    LOG_2PI,
    ConditionalFlow,
    FlowConfig,
    FlowDivergenceError,
    TAIL_BOUND,
    _bin_index,
    rq_inverse,
    rq_spline,
    spline_nll,
    spline_params,
    train_cnf,
)
from catebounds.nets import Standardizer, TrainRun, encode_array
from numeric_oracles import (finite_difference_check, integrate_density,
                             rq_inverse_points)

import tape_oracles
from tape_oracles import assert_close


def spline_points(rng, cum: np.ndarray, b: float) -> np.ndarray:
    """Per row: random points inside, every knot, both bounds, and points
    beyond the tail bound."""
    n = len(cum)
    beyond = rng.uniform(b, 2 * b, size=(n, 2)) * rng.choice([-1, 1], (n, 2))
    return np.concatenate([rng.uniform(-b, b, size=(n, 5)), cum,
                           np.full((n, 1), -b), np.full((n, 1), b), beyond],
                          axis=1)


def zero_raw(n: int, knots: int) -> np.ndarray:
    return np.zeros((n, 3 * knots - 1))


def random_params(n: int, knots: int, seed: int, scale: float = 1.0):
    rng = np.random.default_rng(seed)
    raw = rng.normal(scale=scale, size=(n, 3 * knots - 1))
    cfg = FlowConfig(context_dim=2, hidden_units=4, knots=knots)
    return spline_params(raw, cfg), raw, cfg


def rowwise_inverse(z: np.ndarray, params) -> np.ndarray:
    """The inverse of one point per row, (n, 1): each row's point as a
    1-point grid under that row's parameters."""
    return np.concatenate([rq_inverse(z[i], *(p[i:i + 1] for p in params))
                           for i in range(len(z))])


def midpoint_nodes(k: int) -> np.ndarray:
    return ndtri((np.arange(k) + 0.5) / k)


def inverse_slope(params, z: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Five-point central difference of the inverse spline at `z`, one point
    per row."""
    def inv(v):
        return rowwise_inverse(v, params)

    return (inv(z - 2 * h) - 8 * inv(z - h) + 8 * inv(z + h) - inv(z + 2 * h)) / (12 * h)


class TestSpline:
    def test_identity_at_zero_params(self):
        cfg = FlowConfig(context_dim=2, hidden_units=4, knots=8)
        cumw, cumh, d = spline_params(zero_raw(3, 8), cfg)
        y = np.array([[0.7], [-3.2], [4.9]])
        out, logdet = rq_spline(y, cumw, cumh, d)
        assert np.allclose(out, y, atol=1e-12)
        assert np.allclose(logdet, 0.0, atol=1e-12)

    def test_identity_outside_tail_bound(self):
        (params, _, cfg) = random_params(2, 10, seed=0)
        y = np.array([[7.5], [-6.1]])
        out, logdet = rq_spline(y, *params)
        assert np.array_equal(out, y)
        assert np.array_equal(logdet, 0.0 * y)

    def test_inverse_of_forward_is_identity(self):
        (params, _, cfg) = random_params(50, 10, seed=1)
        rng = np.random.default_rng(2)
        y = rng.uniform(-4.9, 4.9, size=(50, 1))
        z, logdet_f = rq_spline(y, *params)
        back = rowwise_inverse(z, params)
        assert np.max(np.abs(back - y)) < 1e-8
        # the inverse's slope at z is exp(-logdet) of the forward at y
        slope = inverse_slope(params, z)
        assert np.max(np.abs(np.log(slope) + logdet_f)) < 1e-8

    def test_forward_strictly_increasing(self):
        (_, raw_one, cfg) = random_params(1, 12, seed=3, scale=2.0)
        grid = np.linspace(-5.0, 5.0, 2001)[:, None]
        params_rep = spline_params(np.repeat(raw_one, 2001, axis=0), cfg)
        out, _ = rq_spline(grid, *params_rep)
        assert np.all(np.diff(out[:, 0]) > 0.0)

    def test_logdet_matches_numerical_derivative(self):
        (params, _, _) = random_params(1, 10, seed=4, scale=1.5)
        y0 = np.array([[1.3]])
        h = 1e-6
        _, logdet = rq_spline(y0, *params)
        up, _ = rq_spline(y0 + h, *params)
        down, _ = rq_spline(y0 - h, *params)
        numeric = np.log((up - down) / (2.0 * h))
        assert abs(logdet[0, 0] - numeric[0, 0]) < 1e-5

    def test_maps_interval_onto_itself(self):
        (params, _, _) = random_params(20, 10, seed=5, scale=3.0)
        rng = np.random.default_rng(6)
        y = rng.uniform(-5.0, 5.0, size=(20, 1))
        z, _ = rq_spline(y, *params)
        assert np.all(np.abs(z) <= 5.0 + 1e-12)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000), knots=st.integers(2, 16))
    def test_bin_index_matches_brute_force(self, seed, knots):
        rng = np.random.default_rng(seed)
        cfg = FlowConfig(context_dim=2, hidden_units=4, knots=knots)
        raw = rng.normal(scale=2.0, size=(5, 3 * knots - 1))
        cum = spline_params(raw, cfg)[0]
        b = TAIL_BOUND
        # random points, every knot of the row exactly, and both bounds
        v = np.concatenate([rng.uniform(-b, b, size=(5, 7)), cum,
                            np.full((5, 1), -b), np.full((5, 1), b)], axis=1)
        brute = np.clip((v[..., None] >= cum[:, None, :-1]).sum(-1) - 1,
                        0, knots - 1)
        assert np.array_equal(_bin_index(v, cum), brute)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), knots=st.integers(2, 16))
    def test_roundtrip_property(self, seed, knots):
        rng = np.random.default_rng(seed)
        raw = rng.normal(scale=2.0, size=(4, 3 * knots - 1))
        cfg = FlowConfig(context_dim=2, hidden_units=4, knots=knots)
        params = spline_params(raw, cfg)
        y = rng.uniform(-5.0, 5.0, size=(4, 1))
        z, _ = rq_spline(y, *params)
        back = rowwise_inverse(z, params)
        assert np.max(np.abs(back - y)) < 1e-8

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), knots=st.integers(2, 16),
           scale=st.sampled_from([0.1, 1.0, 3.0]),
           n=st.sampled_from([1, 2, 7, 128]),
           k=st.sampled_from([1, 2, 7, 100, 2000]), edges=st.booleans())
    def test_grid_inverse_matches_per_point_oracle(self, seed, knots, scale, n,
                                                   k, edges):
        rng = np.random.default_rng(seed)
        cfg = FlowConfig(context_dim=2, hidden_units=4, knots=knots)
        params = spline_params(rng.normal(scale=scale, size=(n, 3 * knots - 1)),
                               cfg)
        z = midpoint_nodes(k)
        if edges:
            # points beyond and on both bounds, on one row's interior knots,
            # and repeated points
            b = TAIL_BOUND
            beyond = rng.uniform(b, 2 * b, size=3) * rng.choice([-1, 1], 3)
            z = np.sort(np.concatenate([
                z, beyond, [-b, b, b], params[1][rng.integers(n), 1:-1],
                rng.choice(z, size=3)]))
        got = rq_inverse(z, *params)
        want = rq_inverse_points(np.broadcast_to(z, (n, len(z))), *params)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_rq_spline_refuses_other_shapes(self):
        (params, _, _) = random_params(3, 4, seed=7)
        for bad in (np.array([0.1, 0.2, 0.3]), np.zeros((2, 3)),
                    np.zeros((3, 1, 1))):
            with pytest.raises(ValueError, match=(
                    r"rq_spline: inputs must have shape \(n, m\) with n = 3 "
                    r"parameter rows, got shape " + re.escape(str(bad.shape)))):
                rq_spline(bad, *params)

    def test_rq_inverse_refuses_other_grids(self):
        (params, _, _) = random_params(3, 4, seed=8)
        with pytest.raises(ValueError, match=(
                r"rq_inverse: z must be a 1-D grid of shape \(k,\), "
                r"got shape \(3, 2\)")):
            rq_inverse(np.zeros((3, 2)), *params)
        for bad in ([0.5, -0.5], [0.0, np.nan]):
            with pytest.raises(ValueError, match=(
                    r"rq_inverse: z must be an ascending grid of shape \(k,\)")):
                rq_inverse(np.array(bad), *params)


class TestFusedSpline:
    """The plain-array spline's maps and pullbacks, and the NLL op, against
    their compositions on the tape."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), knots=st.integers(2, 16),
           scale=st.sampled_from([0.1, 1.0, 3.0]))
    def test_rq_spline_matches_tape_oracle(self, seed, knots, scale):
        rng = np.random.default_rng(seed)
        cfg = FlowConfig(context_dim=2, hidden_units=4, knots=knots)
        raw = rng.normal(scale=scale, size=(4, 3 * knots - 1))
        arrays = spline_params(raw, cfg)
        y = spline_points(rng, arrays[0], TAIL_BOUND)
        c_out, c_lad = rng.normal(size=y.shape), rng.normal(size=y.shape)
        out, lad, pullback = flow_module._rq_forward(y, *arrays)
        fused = [out, lad, *pullback(c_out, c_lad)]
        params = [Tensor(a, requires_grad=True) for a in arrays]
        o_out, o_lad = tape_oracles.rq_spline(y, *params)
        ((o_out * c_out).sum() + (o_lad * c_lad).sum()).backward()
        oracle = [o_out.data, o_lad.data, *(p.grad for p in params)]
        for got, want in zip(fused, oracle, strict=True):
            assert_close(got, want)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), knots=st.integers(2, 16),
           scale=st.sampled_from([0.1, 1.0, 3.0]))
    def test_spline_params_match_tape_oracle(self, seed, knots, scale):
        rng = np.random.default_rng(seed)
        cfg = FlowConfig(context_dim=2, hidden_units=4, knots=knots)
        raw0 = rng.normal(scale=scale, size=(5, 3 * knots - 1))
        weights = [rng.normal(size=(5, knots + 1)) for _ in range(3)]
        parts = flow_module._params_and_pullbacks(raw0, cfg)
        fused = [*(p for p, _ in parts),
                 np.concatenate([pullback(w) for (_, pullback), w
                                 in zip(parts, weights)], axis=1)]
        raw = Tensor(raw0, requires_grad=True)
        params = tape_oracles.spline_params(raw, cfg)
        sum((p * w).sum() for p, w in zip(params, weights)).backward()
        oracle = [*(p.data for p in params), raw.grad]
        for got, want in zip(fused, oracle, strict=True):
            assert_close(got, want)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), knots=st.integers(2, 16),
           scale=st.sampled_from([0.1, 1.0, 3.0]))
    def test_spline_nll_matches_tape_oracle(self, seed, knots, scale):
        rng = np.random.default_rng(seed)
        cfg = FlowConfig(context_dim=2, hidden_units=4, knots=knots)
        raw0 = rng.normal(scale=scale, size=(4, 3 * knots - 1))
        y = spline_points(rng, spline_params(raw0, cfg)[0], TAIL_BOUND)
        log_std, weight = rng.normal(), rng.normal()

        def loss_and_gradient(nll):
            raw = Tensor(raw0, requires_grad=True)
            loss = nll(raw, y, cfg, log_std)
            (loss * weight).backward()
            return [loss.data, raw.grad]

        fused = loss_and_gradient(spline_nll)
        oracle = loss_and_gradient(tape_oracles.spline_nll)
        for got, want in zip(fused, oracle, strict=True):
            assert_close(got, want)

    def test_gradients_through_fused_ops_match_finite_differences(self):
        rng = np.random.default_rng(30)
        cfg = FlowConfig(context_dim=2, hidden_units=4, knots=6)
        raw = Tensor(rng.normal(size=(3, 17)), requires_grad=True)
        y = rng.uniform(-4.5, 4.5, size=(3, 4))
        report = finite_difference_check(lambda: spline_nll(raw, y, cfg, 0.3),
                                         [raw], tolerance=1e-6)
        assert report.passed, report.max_rel_error

    def test_training_records_few_tape_nodes(self, recorded):
        flow = ConditionalFlow(FlowConfig(2, 4))
        for p in flow.context_net.parameters():
            p.requires_grad = True
        flow.nll_tensor(np.zeros(4), np.zeros(4), np.zeros(4))
        # the context net and the NLL
        assert recorded == [True, True]


class TestFlowLikelihood:
    def test_identity_flow_single_zero_point_nll(self):
        flow = ConditionalFlow(FlowConfig(context_dim=2, hidden_units=4, seed=0))
        # context net output layer is zero-initialized: exact identity transform
        val = flow.nll(np.array([0.0]), np.array([1.0]), np.array([0.0]))
        assert np.isclose(val, 0.5 * LOG_2PI, atol=1e-12)

    def test_identity_flow_is_standard_normal_nll(self):
        flow = ConditionalFlow(FlowConfig(context_dim=2, hidden_units=4, seed=0))
        rng = np.random.default_rng(8)
        y = rng.normal(size=200)
        a = rng.integers(0, 2, size=200).astype(float)
        phi = rng.normal(size=200)
        expected = 0.5 * LOG_2PI + 0.5 * np.mean(y**2)
        assert np.isclose(flow.nll(y, a, phi), expected, atol=1e-10)

    def test_log_density_consistent_with_nll(self):
        flow = ConditionalFlow(FlowConfig(context_dim=3, hidden_units=6, seed=1))
        rng = np.random.default_rng(9)
        # give the net nonzero output weights so the spline is non-trivial
        flow.context_net.w2.data[:] = 0.3 * rng.normal(size=flow.context_net.w2.data.shape)
        flow.context_net.b2.data[:] = 0.1 * rng.normal(size=flow.context_net.b2.data.shape)
        y = rng.normal(size=50)
        a = rng.integers(0, 2, size=50).astype(float)
        phi = rng.normal(size=(50, 2))
        nll = flow.nll(y, a, phi)
        assert np.isclose(nll, -np.mean(flow.log_density(y, a, phi)), atol=1e-10)

    def test_density_integrates_to_one(self):
        flow = ConditionalFlow(FlowConfig(context_dim=2, hidden_units=6, seed=2))
        rng = np.random.default_rng(10)
        flow.context_net.w2.data[:] = 0.5 * rng.normal(size=flow.context_net.w2.data.shape)
        mass = integrate_density(flow, a=1.0, phi=np.array([0.3]))
        assert abs(mass - 1.0) < 0.01

    def test_gradients_through_nll(self):
        flow = ConditionalFlow(FlowConfig(context_dim=2, hidden_units=4, seed=3))
        rng = np.random.default_rng(11)
        flow.context_net.w2.data[:] = 0.2 * rng.normal(size=flow.context_net.w2.data.shape)
        y = rng.normal(size=12)
        a = rng.integers(0, 2, size=12).astype(float)
        phi = rng.normal(size=12)
        report = finite_difference_check(
            lambda: flow.nll_tensor(y, a, phi),
            flow.context_net.parameters(),
            tolerance=1e-4,
        )
        assert report.passed, report.max_rel_error


class TestSampling:
    def test_identity_flow_samples_standard_normal(self):
        flow = ConditionalFlow(FlowConfig(context_dim=2, hidden_units=4, seed=4))
        s = flow.sample(np.array([1.0]), np.array([0.0]), 10_000)
        stat = kstest(s[0], norm.cdf).statistic
        assert stat < 0.02

    def test_identity_flow_returns_midpoint_normal_quantiles(self):
        flow = ConditionalFlow(FlowConfig(context_dim=2, hidden_units=4, seed=4))
        s = flow.sample(np.array([1.0, 0.0]), np.array([0.0, 1.5]), 1000)
        nodes = norm.ppf((np.arange(1000) + 0.5) / 1000)
        assert np.allclose(s, nodes[None, :], rtol=0.0, atol=1e-12)

    def test_samples_sorted_and_deterministic(self):
        flow = ConditionalFlow(FlowConfig(context_dim=2, hidden_units=4, seed=5))
        rng = np.random.default_rng(13)
        flow.context_net.w2.data[:] = 0.3 * rng.normal(size=flow.context_net.w2.data.shape)
        a = np.array([0.0, 1.0, 1.0])
        phi = np.array([0.1, -0.5, 2.0])
        s1 = flow.sample(a, phi, 500)
        s2 = flow.sample(a, phi, 500)
        assert np.array_equal(s1, s2)
        assert np.all(np.diff(s1, axis=1) >= 0.0)

    def test_sample_histogram_matches_density(self):
        flow = ConditionalFlow(FlowConfig(context_dim=2, hidden_units=6, seed=6))
        rng = np.random.default_rng(14)
        flow.context_net.w2.data[:] = 0.6 * rng.normal(size=flow.context_net.w2.data.shape)
        a = np.array([1.0])
        phi = np.array([0.7])
        s = flow.sample(a, phi, 100_000)[0]
        # CDF of samples vs numeric CDF from the density on a grid
        grid = np.linspace(-4.0, 4.0, 9)
        dens_grid = np.linspace(-8.0, 8.0, 4001)
        dens = np.exp(flow.log_density(
            dens_grid, np.ones(4001), np.full((4001, 1), 0.7)))
        cdf_num = np.cumsum(dens) * (dens_grid[1] - dens_grid[0])
        for q in grid:
            emp = np.mean(s <= q)
            num = cdf_num[np.searchsorted(dens_grid, q)]
            assert abs(emp - num) < 0.01

    def test_sample_and_log_density_record_no_tape_nodes(self, recorded):
        flow = ConditionalFlow(FlowConfig(context_dim=2, hidden_units=4, seed=7))
        rng = np.random.default_rng(26)
        flow.context_net.w2.data[:] = 0.3 * rng.normal(size=flow.context_net.w2.data.shape)
        a = np.array([0.0, 1.0, 1.0])
        phi = np.array([0.1, -0.5, 2.0])
        flow.sample(a, phi, 50)
        flow.log_density(np.array([0.3, -7.0, 1.0]), a, phi)
        assert recorded and not any(recorded)
        # the counter sees nodes once the parameters are trainable, as
        # `nets.fit` makes them
        for p in flow.context_net.parameters():
            p.requires_grad = True
        flow.nll_tensor(np.array([0.3, -7.0, 1.0]), a, phi)
        assert any(recorded)

    def test_outcome_scaling_is_the_scalar_affine_map(self):
        # bit for bit (y - mean) / std into the spline and s * std + mean out
        flow = ConditionalFlow(FlowConfig(context_dim=2, hidden_units=4, seed=8))
        rng = np.random.default_rng(27)
        flow.context_net.w2.data[:] = 0.3 * rng.normal(size=flow.context_net.w2.data.shape)
        unit = copy.deepcopy(flow)
        flow.y_scaler = Standardizer(np.array([0.37]), np.array([2.3]))
        mean, std = flow.y_scaler.mean[0], flow.y_scaler.std[0]
        a = np.array([0.0, 1.0, 1.0])
        phi = np.array([0.1, -0.5, 2.0])
        y = rng.normal(scale=3.0, size=3)
        assert (flow.sample(a, phi, 40).tobytes()
                == (unit.sample(a, phi, 40) * std + mean).tobytes())
        assert (flow.log_density(y, a, phi).tobytes()
                == (unit.log_density((y - mean) / std, a, phi)
                    - np.log(std)).tobytes())

    @pytest.mark.parametrize("n", [1, 3])
    def test_sample_matches_per_point_oracle(self, n):
        flow = ConditionalFlow(FlowConfig(context_dim=2, hidden_units=4, seed=9))
        rng = np.random.default_rng(28)
        flow.context_net.w2.data[:] = 0.5 * rng.normal(size=flow.context_net.w2.data.shape)
        flow.y_scaler = Standardizer(np.array([0.37]), np.array([2.3]))
        a, phi, k = rng.integers(0, 2, size=n).astype(float), rng.normal(size=n), 300
        params = flow._spline_params(flow._context(a, phi))
        want = flow.y_scaler.invert(
            rq_inverse_points(np.broadcast_to(midpoint_nodes(k), (n, k)), *params))
        assert flow.sample(a, phi, k).tobytes() == want.tobytes()

    def test_sample_peak_memory(self):
        # one stage-2 chunk: the traced peak stays below 14 float64 arrays of
        # the output's size (the per-point inverse held about 18)
        flow = ConditionalFlow(FlowConfig(context_dim=2, hidden_units=8, seed=10))
        rng = np.random.default_rng(29)
        flow.context_net.w2.data[:] = 0.3 * rng.normal(size=flow.context_net.w2.data.shape)
        n, k = 128, 2000
        a, phi = np.ones(n), rng.normal(size=n)
        flow.sample(a, phi, k)
        tracemalloc.start()
        try:
            flow.sample(a, phi, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 14 * n * k * 8, peak / (n * k * 8)

    def test_invalid_k_rejected(self):
        flow = ConditionalFlow(FlowConfig(context_dim=2, hidden_units=4, seed=7))
        with pytest.raises(ValueError):
            flow.sample(np.array([1.0]), np.array([0.0]), 0)


class TestTraining:
    def test_context_free_gaussian_reaches_entropy(self):
        # N(2, 1) data: differential entropy 0.5*log(2*pi*e) ~ 1.4189
        rng = np.random.default_rng(16)
        n = 10_000
        y = 2.0 + rng.standard_normal(n)
        a = rng.integers(0, 2, size=n).astype(float)
        phi = rng.standard_normal(n)
        flow = ConditionalFlow(FlowConfig(context_dim=2, hidden_units=8, seed=8,
                                          noise_y=0.05, noise_context=0.05))
        run = TrainRun(batch_size=128, learning_rate=0.005, n_iter=1500)
        train_cnf(flow, y, a, phi, run)
        entropy = 0.5 * np.log(2.0 * np.pi * np.e)
        assert abs(flow.nll(y, a, phi) - entropy) < 0.05

    def test_learns_context_dependent_mean(self):
        rng = np.random.default_rng(17)
        n = 4000
        phi = rng.uniform(-1.0, 1.0, size=n)
        a = rng.integers(0, 2, size=n).astype(float)
        y = 3.0 * phi + 2.0 * a + 0.5 * rng.standard_normal(n)
        flow = ConditionalFlow(FlowConfig(context_dim=2, hidden_units=16, seed=9,
                                          noise_y=0.05, noise_context=0.05))
        run = TrainRun(batch_size=128, learning_rate=0.01, n_iter=2000)
        train_cnf(flow, y, a, phi, run)
        s1 = flow.sample(np.array([1.0]), np.array([0.5]), 4000)
        s0 = flow.sample(np.array([0.0]), np.array([-0.5]), 4000)
        assert abs(s1.mean() - 3.5) < 0.35
        assert abs(s0.mean() - (-1.5)) < 0.35

    def test_training_deterministic(self):
        rng = np.random.default_rng(20)
        y = rng.normal(size=300)
        a = rng.integers(0, 2, size=300).astype(float)
        phi = rng.normal(size=300)

        def fit():
            flow = ConditionalFlow(FlowConfig(context_dim=2, hidden_units=4, seed=10))
            train_cnf(flow, y, a, phi, TrainRun(batch_size=64, learning_rate=0.005,
                                                n_iter=120))
            return np.concatenate([p.data.ravel()
                                   for p in flow.context_net.parameters()])

        assert np.array_equal(fit(), fit())

    def test_noise_regularization_changes_fit(self):
        rng = np.random.default_rng(21)
        y = rng.normal(size=300)
        a = rng.integers(0, 2, size=300).astype(float)
        phi = rng.normal(size=300)

        def fit(noise_y):
            flow = ConditionalFlow(FlowConfig(context_dim=2, hidden_units=4, seed=11,
                                              noise_y=noise_y, noise_context=0.0))
            train_cnf(flow, y, a, phi, TrainRun(batch_size=64, learning_rate=0.005,
                                                n_iter=120))
            return np.concatenate([p.data.ravel()
                                   for p in flow.context_net.parameters()])

        assert not np.array_equal(fit(0.5), fit(0.0))

    def test_divergence_aborts(self, monkeypatch):
        monkeypatch.setattr(flow_module, "DIVERGENCE_PATIENCE", 50)
        rng = np.random.default_rng(23)
        y = rng.normal(size=200)
        a = rng.integers(0, 2, size=200).astype(float)
        phi = rng.normal(size=200)
        flow = ConditionalFlow(FlowConfig(context_dim=2, hidden_units=4, seed=13))
        run = TrainRun(batch_size=64, learning_rate=80.0, n_iter=3000)
        with pytest.raises((FlowDivergenceError, FloatingPointError)):
            train_cnf(flow, y, a, phi, run)

    def test_weight_decay_refused(self):
        # the flow's SGD has no decay term; a decaying run would be ignored
        rng = np.random.default_rng(25)
        flow = ConditionalFlow(FlowConfig(context_dim=2, hidden_units=4, seed=15))
        with pytest.raises(ValueError, match="weight_decay=0.01"):
            train_cnf(flow, rng.normal(size=20), np.ones(20), rng.normal(size=20),
                      TrainRun(weight_decay=0.01, n_iter=5))

    def test_loss_trace_trends_down(self):
        rng = np.random.default_rng(24)
        y = 1.5 * rng.normal(size=2000) - 1.0
        a = rng.integers(0, 2, size=2000).astype(float)
        phi = rng.normal(size=2000)
        flow = ConditionalFlow(FlowConfig(context_dim=2, hidden_units=8, seed=14,
                                          noise_y=0.05, noise_context=0.0))
        train_cnf(flow, y, a, phi, TrainRun(batch_size=128, learning_rate=0.005,
                                            n_iter=800))
        trace = np.array(flow.loss_trace)
        assert trace[-100:].mean() <= trace[:100].mean() + 1e-9


class TestCheckpoint:
    def test_roundtrip_preserves_everything(self):
        import json

        flow = ConditionalFlow(FlowConfig(context_dim=3, hidden_units=5, knots=6,
                                          seed=15))
        rng = np.random.default_rng(25)
        flow.context_net.w2.data[:] = rng.normal(size=flow.context_net.w2.data.shape)
        flow.y_scaler.mean[:] = 1.25
        flow.y_scaler.std[:] = 0.75
        flow.context_scaler.mean[:] = [0.5, -0.25]
        flow.loss_trace = [3.0, 2.0, 1.0]
        text = json.dumps(flow.to_checkpoint(), sort_keys=True)
        back = ConditionalFlow.from_checkpoint(json.loads(text))
        y = np.array([0.4, -1.0])
        a = np.array([1.0, 0.0])
        phi = np.array([[0.1, 0.2], [0.3, -0.4]])
        assert np.array_equal(back.log_density(y, a, phi),
                              flow.log_density(y, a, phi))
        assert np.array_equal(back.sample(a, phi, 9), flow.sample(a, phi, 9))
        assert back.loss_trace == flow.loss_trace
        # save -> load -> save writes the same bytes
        assert json.dumps(back.to_checkpoint(), sort_keys=True) == text

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError, match="conditional_flow.*'something_else'"):
            ConditionalFlow.from_checkpoint({"kind": "something_else"})

    def test_wrong_shape_names_the_array(self):
        payload = ConditionalFlow(FlowConfig(context_dim=3, hidden_units=5,
                                             knots=6)).to_checkpoint()
        payload["arrays"]["context_std"] = encode_array(np.ones(1))
        with pytest.raises(ValueError,
                           match=r"conditional_flow.*'context_std'.*\(1,\)"):
            ConditionalFlow.from_checkpoint(payload)

    def test_wrong_shape_names_the_net(self):
        payload = ConditionalFlow(FlowConfig(context_dim=3, hidden_units=5,
                                             knots=6)).to_checkpoint()
        payload["nets"]["context"][0] = encode_array(np.zeros((2, 5)))  # w1 is (3, 5)
        with pytest.raises(ValueError, match="conditional_flow.*'context'"):
            ConditionalFlow.from_checkpoint(payload)

    def test_misspelt_config_key_named(self):
        payload = ConditionalFlow(FlowConfig(context_dim=3, hidden_units=5)
                                  ).to_checkpoint()
        payload["config"]["hiden_units"] = payload["config"].pop("hidden_units")
        with pytest.raises(ValueError, match=(
                r"conditional_flow checkpoint config: missing keys "
                r"\['hidden_units'\], unexpected keys \['hiden_units'\]")):
            ConditionalFlow.from_checkpoint(payload)

    def test_config_with_spline_constants_named(self):
        # the layout written while FlowConfig still carried the spline's
        # tail bound, minimum bin and minimum derivative
        payload = ConditionalFlow(FlowConfig(context_dim=3, hidden_units=5)
                                  ).to_checkpoint()
        payload["config"].update(tail_bound=5.0, min_bin=1e-3,
                                 min_derivative=1e-3)
        with pytest.raises(ValueError, match=(
                r"conditional_flow checkpoint config: missing keys \[\], "
                r"unexpected keys \['min_bin', 'min_derivative', 'tail_bound'\]")):
            ConditionalFlow.from_checkpoint(payload)


class TestConfigValidation:
    def test_bad_configs_rejected(self):
        with pytest.raises(ValueError):
            FlowConfig(context_dim=1, hidden_units=4)
        with pytest.raises(ValueError):
            FlowConfig(context_dim=2, hidden_units=4, knots=1)
        with pytest.raises(ValueError):
            FlowConfig(context_dim=2, hidden_units=4, knots=1000)  # MIN_BIN * K = 1
        with pytest.raises(ValueError):
            FlowConfig(context_dim=2, hidden_units=4, noise_y=-0.1)
