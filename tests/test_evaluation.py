"""Policy and metric tests with hand-counted oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catebounds.bounds import CateBounds
from catebounds.evaluation import (
    Decision,
    bounds_policy,
    make_grid,
    point_policy,
    rpehe,
    score_policy,
    write_decision_grid_csv,
    write_er_dr_curve_csv,
)


def interval(lower, upper):
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    n = len(lower)
    return CateBounds(point=(lower + upper) / 2.0, lower=lower, upper=upper,
                      gamma=np.ones(n), pi1_phi=np.full(n, 0.5))


class TestPointPolicy:
    def test_strict_positivity_rule(self):
        out = point_policy(np.array([1.0, 0.0, -0.5]))
        assert out == [Decision.TREAT, Decision.NO_TREAT, Decision.NO_TREAT]

    def test_never_defers(self):
        rng = np.random.default_rng(0)
        out = point_policy(rng.normal(size=200))
        assert Decision.DEFER not in out

    def test_order_preserved(self):
        out = point_policy(np.array([-1.0, 2.0, -3.0, 4.0]))
        assert [d is Decision.TREAT for d in out] == [False, True, False, True]

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            point_policy(np.array([np.nan]))


class TestBoundsPolicy:
    def test_three_actions(self):
        out = bounds_policy(interval([-1.0, -0.1, 0.05], [-0.5, 0.2, 0.3]))
        assert out == [Decision.NO_TREAT, Decision.DEFER, Decision.TREAT]

    def test_crossed_interval_rejected(self):
        with pytest.raises(ValueError):
            bounds_policy(interval([1.0], [0.0]))

    def test_collapsed_intervals_match_point_policy_off_zero(self):
        rng = np.random.default_rng(1)
        tau = rng.normal(size=100)
        tau = tau[np.abs(tau) > 1e-12]
        collapsed = bounds_policy(interval(tau, tau))
        assert collapsed == point_policy(tau)

    def test_zero_width_zero_interval_defers(self):
        assert bounds_policy(interval([0.0], [0.0])) == [Decision.DEFER]


class TestScorePolicy:
    def test_perfect_agreement(self):
        tau = np.array([1.0, -1.0, 2.0])
        r = score_policy(point_policy(tau), tau)
        assert r.error_rate == 0.0 and r.deferral_rate == 0.0
        assert r.n_decided == 3

    def test_hand_count_two_deferred_two_wrong(self):
        # 10 points, 2 deferred, 2 of the remaining 8 wrong
        oracle = np.array([1.0] * 5 + [-1.0] * 5)
        decisions = [
            Decision.TREAT, Decision.TREAT, Decision.TREAT,
            Decision.NO_TREAT,                       # wrong
            Decision.DEFER,
            Decision.NO_TREAT, Decision.NO_TREAT, Decision.NO_TREAT,
            Decision.TREAT,                          # wrong
            Decision.DEFER,
        ]
        r = score_policy(decisions, oracle)
        assert r.error_rate == 0.25
        assert r.deferral_rate == 0.2
        assert r.n_decided == 8

    def test_all_deferred_has_null_error(self):
        r = score_policy([Decision.DEFER] * 4, np.ones(4))
        assert r.error_rate is None
        assert r.deferral_rate == 1.0 and r.n_decided == 0

    def test_oracle_zero_counts_as_no_treat(self):
        r = score_policy([Decision.NO_TREAT], np.array([0.0]))
        assert r.error_rate == 0.0

    def test_baseline_delta(self):
        tau = np.array([1.0, 1.0])
        r = score_policy([Decision.TREAT, Decision.NO_TREAT], tau,
                         baseline_error_rate=0.75)
        assert np.isclose(r.delta_er, 0.5 - 0.75)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            score_policy([Decision.TREAT], np.ones(2))
        with pytest.raises(ValueError):
            score_policy([], np.array([]))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 50))
    def test_ranges_and_permutation_invariance(self, seed, n):
        rng = np.random.default_rng(seed)
        tau = rng.normal(size=n)
        kinds = [Decision.TREAT, Decision.NO_TREAT, Decision.DEFER]
        decisions = [kinds[i] for i in rng.integers(0, 3, size=n)]
        r = score_policy(decisions, tau)
        assert 0.0 <= r.deferral_rate <= 1.0
        if r.error_rate is not None:
            assert 0.0 <= r.error_rate <= 1.0
        perm = rng.permutation(n)
        r2 = score_policy([decisions[i] for i in perm], tau[perm])
        assert r2.error_rate == r.error_rate
        assert r2.deferral_rate == r.deferral_rate


class TestRpehe:
    def test_exact_estimates_score_zero(self):
        diff = np.array([0.3, -1.2, 4.0])
        assert rpehe(diff, diff) == 0.0

    def test_unit_errors_score_one(self):
        assert rpehe(np.zeros(5), np.ones(5)) == 1.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        tau_hat = rng.normal(size=64)
        diff = rng.normal(size=64)
        acc = 0.0
        for i in range(64):
            acc += (diff[i] - tau_hat[i]) ** 2
        assert np.isclose(rpehe(tau_hat, diff), np.sqrt(acc / 64), rtol=1e-12)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            rpehe(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            rpehe(np.array([]), np.array([]))


class TestExports:
    def test_grid_layout(self):
        g = make_grid(resolution=5)
        assert g.shape == (25, 2)
        assert g[0, 0] == -2.0 and g[-1, 0] == 2.0
        with pytest.raises(ValueError):
            make_grid(resolution=1)

    def test_curve_csv(self, tmp_path):
        from catebounds.evaluation import PolicyReport

        path = tmp_path / "curve.csv"
        reports = [PolicyReport(0.1, 0.0, 10), PolicyReport(None, 1.0, 0)]
        write_er_dr_curve_csv(path, [0.001, 0.05], reports)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "delta,error_rate,deferral_rate,n_decided"
        assert lines[2].split(",")[1] == ""  # null error survives as empty

    def test_decision_grid_csv(self, tmp_path):
        path = tmp_path / "grid.csv"
        x = make_grid(resolution=2)
        tau = np.array([1.0, -1.0, 0.5, -0.5])
        write_decision_grid_csv(path, x, tau, tau, point_policy(tau))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x1,x2,tau_oracle,tau_hat,decision"
        assert lines[1].endswith("treat")
        assert len(lines) == 5
