"""Balancing metric tests against closed forms, Monte Carlo, and an LP oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from catebounds import balancing
from catebounds.autodiff import NonFiniteError, Tensor
from catebounds.balancing import (
    BalancingConfig,
    BalancingMetric,
    balancing_penalty,
    mmd,
    sinkhorn_wasserstein,
)
from numeric_oracles import finite_difference_check

import tape_oracles
from tape_oracles import assert_close


class TestMmd:
    def test_identical_inputs_zero(self):
        x = np.random.default_rng(0).normal(size=(20, 3))
        assert mmd(x, x).item() == 0.0
        assert mmd(x, x, kernel="rbf").item() <= 1e-12

    def test_linear_kernel_closed_form(self):
        a = np.array([[0.0, 0.0], [2.0, 0.0]])
        b = np.array([[1.0, 1.0]])
        # means (1,0) and (1,1): squared distance 1
        assert np.isclose(mmd(a, b).item(), 1.0)

    def test_linear_kernel_is_squared_mean_distance_mc(self):
        rng = np.random.default_rng(1)
        a = rng.normal(loc=0.0, size=(20_000, 1))
        b = rng.normal(loc=1.0, size=(20_000, 1))
        assert abs(mmd(a, b).item() - 1.0) < 0.05

    def test_same_distribution_large_sample_small(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(10_000, 2))
        b = rng.normal(size=(10_000, 2))
        assert mmd(a, b).item() < 1e-2

    def test_rbf_same_distribution_small(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(1000, 2))
        b = rng.normal(size=(1000, 2))
        assert mmd(a, b, kernel="rbf").item() < 1e-2

    def test_rbf_detects_variance_difference(self):
        # equal means: linear kernel is blind, RBF is not
        rng = np.random.default_rng(4)
        a = rng.normal(scale=0.5, size=(800, 1))
        b = rng.normal(scale=2.0, size=(800, 1))
        assert mmd(a, b).item() < 0.05
        assert mmd(a, b, kernel="rbf").item() > 0.05

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(12, 2))
        b = rng.normal(size=(9, 2)) + 1.0
        assert mmd(a, b).item() == mmd(b, a).item()
        assert np.isclose(mmd(a, b, kernel="rbf").item(),
                          mmd(b, a, kernel="rbf").item(), rtol=1e-12)

    def test_weighted_linear_matches_manual(self):
        a = np.array([[0.0], [4.0]])
        b = np.array([[1.0]])
        w = np.array([3.0, 1.0])  # weighted mean of a: 1.0
        assert np.isclose(mmd(a, b, weights_a=w).item(), 0.0)
        assert np.isclose(mmd(a, b).item(), 1.0)

    def test_uniform_weights_equal_unweighted(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(8, 2))
        b = rng.normal(size=(5, 2))
        w_a, w_b = np.ones(8), np.ones(5)
        assert np.isclose(mmd(a, b, weights_a=w_a, weights_b=w_b).item(),
                          mmd(a, b).item())

    def test_gradient_wrt_representations(self, monkeypatch):
        rng = np.random.default_rng(7)
        a = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        b = rng.normal(size=(3, 2))
        report = finite_difference_check(lambda: mmd(a, b), [a], tolerance=1e-4)
        assert report.passed, report.max_rel_error
        # fixed bandwidth: the FD probe must not move the median heuristic
        monkeypatch.setattr(balancing, "_median_bandwidth", lambda pooled: 2.0)
        report = finite_difference_check(
            lambda: mmd(a, b, kernel="rbf"), [a], tolerance=1e-4
        )
        assert report.passed, report.max_rel_error

    def test_input_validation(self):
        with pytest.raises(ValueError):
            mmd(np.zeros((3, 2)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            mmd(np.zeros((0, 2)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            mmd(np.zeros((3, 2)), np.zeros((3, 2)), kernel="poly")
        with pytest.raises(ValueError):
            mmd(np.zeros((3, 2)), np.zeros((3, 2)), weights_a=np.array([1.0, -1.0, 1.0]))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 10), m=st.integers(1, 10))
    def test_nonnegative_and_symmetric(self, seed, n, m):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, 2))
        b = rng.normal(size=(m, 2))
        v = mmd(a, b).item()
        assert v >= 0.0
        assert v == mmd(b, a).item()


class TestSinkhorn:
    def test_single_points_cost_is_squared_distance(self):
        a = np.array([[0.0]])
        b = np.array([[1.0]])
        for eps in (1.0, 0.1, 0.01):
            v = sinkhorn_wasserstein(a, b, epsilon=eps, iters=5).item()
            assert np.isclose(v, 1.0)

    def test_identical_sets_near_zero(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(32, 4))
        v = sinkhorn_wasserstein(x, x, epsilon=0.1, iters=10).item()
        assert 0.0 <= v <= 0.05

    def test_matches_lp_assignment_oracle(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(5, 2))
        b = rng.normal(size=(5, 2)) + 0.5
        cost = ((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)
        rows, cols = linear_sum_assignment(cost)
        exact = cost[rows, cols].mean()
        approx = sinkhorn_wasserstein(a, b, epsilon=0.01, iters=500).item()
        assert abs(approx - exact) / exact < 0.10

    def test_symmetry(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(6, 2))
        b = rng.normal(size=(4, 2)) + 1.0
        v1 = sinkhorn_wasserstein(a, b, epsilon=0.1, iters=300).item()
        v2 = sinkhorn_wasserstein(b, a, epsilon=0.1, iters=300).item()
        assert np.isclose(v1, v2, rtol=1e-3)

    def test_nonnegative(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(7, 3))
        b = rng.normal(size=(5, 3))
        assert sinkhorn_wasserstein(a, b).item() >= 0.0

    def test_gradient_wrt_representations(self):
        rng = np.random.default_rng(12)
        a = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        b = rng.normal(size=(4, 2)) + 0.5
        report = finite_difference_check(
            lambda: sinkhorn_wasserstein(a, b, epsilon=0.5, iters=30),
            [a], tolerance=1e-4,
        )
        assert report.passed, report.max_rel_error

    def test_weighted_marginals(self):
        # all mass at one source point: transport must come from it
        a = np.array([[0.0], [100.0]])
        b = np.array([[1.0]])
        v = sinkhorn_wasserstein(a, b, weights_a=np.array([1.0, 0.0]),
                                 epsilon=0.1, iters=50).item()
        assert np.isclose(v, 1.0, atol=1e-6)

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            sinkhorn_wasserstein(np.zeros((2, 1)), np.zeros((2, 1)), epsilon=0.0)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 8), m=st.integers(1, 8),
           d=st.integers(1, 3), iters=st.integers(1, 25),
           epsilon=st.sampled_from([0.05, 0.1, 0.5, 2.0]),
           weighted_a=st.booleans(), weighted_b=st.booleans())
    def test_matches_tape_oracle(self, seed, n, m, d, iters, epsilon,
                                 weighted_a, weighted_b):
        """The fused op against the loop unrolled on the tape: value and the
        gradient of both representations."""
        rng = np.random.default_rng(seed)
        xa = rng.normal(size=(n, d))
        xb = rng.normal(size=(m, d)) + rng.normal(size=d)
        wa = rng.uniform(0.1, 2.0, size=n) if weighted_a else None
        wb = rng.uniform(0.1, 2.0, size=m) if weighted_b else None
        results = []
        for fn in (sinkhorn_wasserstein, tape_oracles.sinkhorn_wasserstein):
            a = Tensor(xa, requires_grad=True)
            b = Tensor(xb, requires_grad=True)
            value = fn(a, b, epsilon=epsilon, iters=iters, weights_a=wa,
                       weights_b=wb)
            value.backward()
            results.append((value.data, a.grad, b.grad))
        for fused, oracle in zip(*results):
            assert_close(fused, oracle)

    def test_records_one_tape_node(self, recorded):
        rng = np.random.default_rng(14)
        a = Tensor(rng.normal(size=(6, 2)), requires_grad=True)
        sinkhorn_wasserstein(a, rng.normal(size=(5, 2)), iters=10)
        assert sum(recorded) == 1

    def test_weights_get_no_gradient(self):
        rng = np.random.default_rng(15)
        a = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
        b = rng.normal(size=(4, 2))
        wa = Tensor(rng.uniform(0.5, 1.5, size=(5, 1)), requires_grad=True)
        wb = Tensor(rng.uniform(0.5, 1.5, size=4), requires_grad=True)
        sinkhorn_wasserstein(a, b, weights_a=wa, weights_b=wb).backward()
        assert a.grad is not None
        assert wa.grad is None and wb.grad is None
        # weights alone on the tape: the penalty is a constant for them
        value = sinkhorn_wasserstein(b, b + 1.0, weights_a=wb)
        assert not value.requires_grad

    def test_non_finite_error_names_op_and_iteration(self):
        # squared distances of 1e200-sized points overflow before the loop
        big = np.array([[1e200], [-1e200]])
        with pytest.raises(NonFiniteError,
                           match=r"op 'sinkhorn_wasserstein': squared "
                                 r"distances at iteration 0 of 10"):
            sinkhorn_wasserstein(big, np.array([[0.0]]))
        # finite distances near 1e300 overflow once divided by epsilon
        wide = np.array([[1e150], [-1e150]])
        with pytest.raises(NonFiniteError,
                           match=r"op 'sinkhorn_wasserstein': potential f "
                                 r"at iteration 1 of 10"):
            sinkhorn_wasserstein(wide, np.array([[0.0]]), epsilon=1e-9)


class TestConfigDispatch:
    def test_penalty_routes_by_metric(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(6, 2))
        b = rng.normal(size=(6, 2)) + 1.0
        cfg_m = BalancingConfig(metric=BalancingMetric.MMD, alpha=1.0)
        cfg_w = BalancingConfig(metric=BalancingMetric.WASSERSTEIN, alpha=1.0)
        assert np.isclose(balancing_penalty(cfg_m, a, b).item(), mmd(a, b).item())
        assert np.isclose(
            balancing_penalty(cfg_w, a, b).item(),
            sinkhorn_wasserstein(a, b, epsilon=0.1, iters=10).item(),
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BalancingConfig(alpha=-1.0)
        with pytest.raises(ValueError):
            BalancingConfig(kernel="poly")
        with pytest.raises(ValueError):
            BalancingConfig(sinkhorn_epsilon=-0.1)
        with pytest.raises(ValueError):
            BalancingConfig(sinkhorn_iters=0)
