"""Bound tests: shift coefficients, partial-mean estimator vs quadrature,
interval properties, and the full per-point bound assembly."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.stats import norm

from catebounds import bounds as bounds_module
from catebounds.bounds import (
    CateBounds,
    cate_bounds,
    cvar_mu_bounds,
    read_bounds_csv,
    write_bounds_csv,
)
from numeric_oracles import shift_coefficients
from catebounds.flow import ConditionalFlow, FlowConfig


class TestShiftCoefficients:
    def test_worked_example_gamma2_pi_half(self):
        c = shift_coefficients(2.0, 0.5)
        assert np.isclose(c.s_minus, 2.0 / 3.0)
        assert np.isclose(c.s_plus, 4.0 / 3.0)
        assert np.isclose(c.c_minus, 1.0 / 3.0)
        assert np.isclose(c.c_plus, 2.0 / 3.0)

    def test_gamma_one_collapse(self):
        c = shift_coefficients(1.0, 0.37)
        assert c.s_minus == 1.0 and c.s_plus == 1.0
        assert c.c_minus == 0.5 and c.c_plus == 0.5

    def test_defining_identities_on_grid(self):
        for gamma in (1.0, 1.5, 2.0, 5.0, 20.0):
            for pi in (0.05, 0.3, 0.5, 0.7, 0.95):
                c = shift_coefficients(gamma, pi)
                assert np.isclose(1.0 / c.s_minus, gamma * (1.0 - pi) + pi)
                assert np.isclose(1.0 / c.s_plus, (1.0 - pi) / gamma + pi)
                # the tilted weights integrate to one
                assert np.isclose(
                    (1.0 / c.s_minus) * c.c_minus + (1.0 / c.s_plus) * (1.0 - c.c_minus),
                    1.0,
                )
                assert np.isclose(c.c_minus + c.c_plus, 1.0)
                assert c.s_minus <= 1.0 <= c.s_plus
                assert 0.0 < c.c_minus <= 0.5 <= c.c_plus < 1.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            shift_coefficients(0.9, 0.5)
        with pytest.raises(ValueError):
            shift_coefficients(2.0, 0.0)
        with pytest.raises(ValueError):
            shift_coefficients(2.0, 1.0)


class TestCvarMuBounds:
    def test_gamma_one_gives_sample_mean_exactly(self):
        rng = np.random.default_rng(0)
        s = np.sort(rng.normal(size=101))
        lo, hi = cvar_mu_bounds(s, 1.0, 0.3)
        assert lo == hi == s.mean()

    def test_hand_computed_fractional_split(self):
        # k=4, Gamma=2, pi=0.5: cut=4/3, weights 1.5 / 0.75
        s = np.array([-2.0, -1.0, 1.0, 2.0])
        lo, hi = cvar_mu_bounds(s, 2.0, 0.5)
        # low block: -2 and a third of -1; high block: the rest
        expect_lo = (1.5 * (-2.0 - 1.0 / 3.0) + 0.75 * (-2.0 / 3.0 + 3.0)) / 4.0
        assert np.isclose(lo, expect_lo)
        assert np.isclose(lo, -0.4375)
        # symmetry of the sample and of the tilt: hi = -lo
        assert np.isclose(hi, 0.4375)

    def test_constant_sample_collapses_to_value(self):
        s = np.full(4, -1.0)
        lo, hi = cvar_mu_bounds(s, 2.0, 0.5)
        assert np.isclose(lo, -1.0)
        assert np.isclose(hi, -1.0)

    def test_standard_normal_oracle_by_quadrature(self):
        # Gamma=2, pi=0.5: mu_lower = 1.5*int_{-inf}^{q} y phi(y) dy
        #                             + 0.75*int_{q}^{inf} y phi(y) dy, q = Phi^-1(1/3)
        q = norm.ppf(1.0 / 3.0)
        left = quad(lambda y: y * norm.pdf(y), -np.inf, q)[0]
        right = quad(lambda y: y * norm.pdf(y), q, np.inf)[0]
        oracle = 1.5 * left + 0.75 * right
        assert np.isclose(oracle, -0.2727, atol=5e-4)

        rng = np.random.default_rng(1)
        s = np.sort(rng.standard_normal(100_000))
        lo, hi = cvar_mu_bounds(s, 2.0, 0.5)
        assert abs(lo - oracle) < 0.01
        assert abs(hi - (-oracle)) < 0.01

    def test_matrix_rows_match_scalar_calls(self):
        rng = np.random.default_rng(2)
        mat = np.sort(rng.normal(size=(5, 50)), axis=1)
        gammas = np.array([1.0, 1.5, 2.0, 3.0, 10.0])
        pis = np.array([0.2, 0.4, 0.5, 0.6, 0.8])
        lo, hi = cvar_mu_bounds(mat, gammas, pis)
        for i in range(5):
            slo, shi = cvar_mu_bounds(mat[i], gammas[i], pis[i])
            assert np.isclose(lo[i], slo) and np.isclose(hi[i], shi)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_gamma_rows_match_row_calls_bitwise(self, data):
        # k a multiple of 16 and Gamma in {3, 7, 15} put both cuts k/(1+Gamma)
        # and k*Gamma/(1+Gamma) exactly on a node; rounded samples tie
        n = data.draw(st.integers(1, 6))
        k = data.draw(st.sampled_from([1, 2, 7, 16, 48]))
        d = data.draw(st.integers(1, 4))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        samples = np.sort(np.round(rng.normal(size=(n, k)), 1), axis=1)
        gamma = st.one_of(st.just(1.0), st.sampled_from([3.0, 7.0, 15.0]),
                          st.floats(1.0, 50.0))
        gammas = np.reshape(data.draw(st.lists(gamma, min_size=d * n,
                                               max_size=d * n)), (d, n))
        pi = np.array(data.draw(st.lists(
            st.one_of(st.sampled_from([1e-12, 1.0 - 1e-12]), st.floats(0.01, 0.99)),
            min_size=n, max_size=n)))
        lo, hi = cvar_mu_bounds(samples, gammas, pi)
        assert lo.shape == hi.shape == (d, n)
        for row in range(d):
            row_lo, row_hi = cvar_mu_bounds(samples, gammas[row], pi)
            assert lo[row].tobytes() == row_lo.tobytes()
            assert hi[row].tobytes() == row_hi.tobytes()

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            cvar_mu_bounds(np.array([1.0, 0.0]), 2.0, 0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cvar_mu_bounds(np.zeros((2, 0)), 2.0, 0.5)

    def test_invalid_gamma_pi_rejected(self):
        s = np.array([0.0, 1.0])
        with pytest.raises(ValueError):
            cvar_mu_bounds(s, 0.5, 0.5)
        with pytest.raises(ValueError):
            cvar_mu_bounds(s, 2.0, 1.0)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(1, 40),
           gamma=st.floats(1.0, 50.0), pi=st.floats(0.01, 0.99))
    def test_sandwich_property(self, seed, k, gamma, pi):
        rng = np.random.default_rng(seed)
        s = np.sort(rng.normal(scale=3.0, size=k))
        lo, hi = cvar_mu_bounds(s, gamma, pi)
        mean = s.mean()
        assert lo <= mean + 1e-9
        assert hi >= mean - 1e-9

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(1, 30), pi=st.floats(0.05, 0.95))
    def test_monotone_in_gamma(self, seed, k, pi):
        rng = np.random.default_rng(seed)
        s = np.sort(rng.normal(size=k))
        prev_lo, prev_hi = cvar_mu_bounds(s, 1.0, pi)
        for gamma in (1.2, 1.7, 2.5, 5.0, 25.0):
            lo, hi = cvar_mu_bounds(s, gamma, pi)
            assert lo <= prev_lo + 1e-9
            assert hi >= prev_hi - 1e-9
            prev_lo, prev_hi = lo, hi


class TestDensityTiltOracle:
    def test_partial_means_match_tilted_density_integral(self):
        """Sorted-sample estimator vs numeric integration of the extremal
        density tilt of an actual flow conditional."""
        flow = ConditionalFlow(FlowConfig(context_dim=2, hidden_units=8, seed=3))
        rng = np.random.default_rng(4)
        flow.context_net.w2.data[:] = 0.7 * rng.normal(
            size=flow.context_net.w2.data.shape)
        flow.y_scaler.mean[:] = 2.0   # shift so relative error is well-posed
        gamma, pi = 2.0, 0.4
        for a_val, phi_val in ((1.0, 0.3), (0.0, -1.2), (1.0, 1.5)):
            a = np.array([a_val])
            phi = np.array([phi_val])
            grid = np.linspace(2.0 - 8.0, 2.0 + 8.0, 200_001)
            dens = np.exp(flow.log_density(
                grid, np.full_like(grid, a_val), np.full((len(grid), 1), phi_val)))
            dy = grid[1] - grid[0]
            cdf = np.cumsum(dens) * dy
            c = shift_coefficients(gamma, pi)
            q_idx = np.searchsorted(cdf, c.c_minus)
            w = np.where(np.arange(len(grid)) <= q_idx, 1.0 / c.s_minus,
                         1.0 / c.s_plus)
            mu_lower_exact = float(np.sum(grid * dens * w) * dy)
            samples = flow.sample(a, phi, 100_000)
            lo, _ = cvar_mu_bounds(samples[0], gamma, pi)
            assert abs(lo - mu_lower_exact) / abs(mu_lower_exact) < 0.01


class FakeProp:
    def __init__(self, value):
        self.value = value

    def predict(self, inputs):
        return np.full(len(np.atleast_2d(inputs)), self.value)


def make_pipeline(seed=0, d_phi=1, deltas=(0.001,), props=None):
    """A small stage-0 model, a flow with a non-trivial context net, and one
    gamma field over a random training cloud. `props`, a (pi^x, pi^phi)
    pair, makes the cloud's propensities constant, so that FakeProps of the
    same values fix Gamma at gamma_pointwise(pi^x, pi^phi) at every point."""
    from catebounds.estimators import (EstimatorConfig, EstimatorKind,
                                       build_stage0)
    from catebounds.sensitivity import build_gamma_field

    model = build_stage0(EstimatorConfig(
        kind=EstimatorKind.TARNET, d_x=2, d_phi=d_phi, rep_hidden=4,
        head_hidden=4, seed=seed))
    flow = ConditionalFlow(FlowConfig(context_dim=1 + d_phi, hidden_units=6,
                                      seed=seed))
    rng = np.random.default_rng(seed)
    flow.context_net.w2.data[:] = 0.4 * rng.normal(
        size=flow.context_net.w2.data.shape)
    phis = rng.normal(size=(50, d_phi))
    px = rng.uniform(0.3, 0.7, size=50)
    pp = rng.uniform(0.3, 0.7, size=50)
    if props is not None:
        px, pp = np.full(50, props[0]), np.full(50, props[1])
    return model, flow, build_gamma_field(phis, px, pp, deltas)


class TestCateBounds:
    def test_gamma_one_collapses_interval(self):
        model, flow, field = make_pipeline(seed=6, props=(0.5, 0.5))
        x = np.random.default_rng(7).normal(size=(20, 2))
        [b] = cate_bounds(x, model, FakeProp(0.5), FakeProp(0.5), field, flow,
                          k=500)
        assert np.array_equal(b.gamma, np.ones(20))
        assert np.array_equal(b.lower, b.upper)

    def test_interval_contains_flow_mean_cate(self):
        model, flow, field = make_pipeline(seed=9)
        _, _, gamma_one = make_pipeline(seed=9, props=(0.5, 0.5))
        x = np.random.default_rng(10).normal(size=(15, 2))
        [b] = cate_bounds(x, model, FakeProp(0.6), FakeProp(0.5), field, flow,
                          k=2000)
        [collapse] = cate_bounds(x, model, FakeProp(0.5), FakeProp(0.5),
                                 gamma_one, flow, k=2000)
        assert np.all(collapse.gamma == 1.0) and np.all(b.gamma > 1.0)
        assert np.all(b.lower <= collapse.lower + 1e-9)
        assert np.all(b.upper >= collapse.upper - 1e-9)

    def test_wider_gamma_widens_interval_everywhere(self):
        x = np.random.default_rng(13).normal(size=(10, 2))
        results = []
        for pi_x in (0.6, 0.75):  # Gamma = odds(pi_x) / odds(0.5) = 1.5, 3
            model, flow, field = make_pipeline(seed=12, props=(pi_x, 0.5))
            results += cate_bounds(x, model, FakeProp(pi_x), FakeProp(0.5),
                                   field, flow, k=1000)
        b1, b2 = results
        assert np.allclose(b1.gamma, 1.5) and np.array_equal(b2.gamma,
                                                             np.full(10, 3.0))
        assert np.all(b2.lower <= b1.lower + 1e-12)
        assert np.all(b2.upper >= b1.upper - 1e-12)

    def test_deterministic_given_rng_seed(self):
        model, flow, field = make_pipeline(seed=15)
        x = np.random.default_rng(16).normal(size=(9, 2))
        [b1] = cate_bounds(x, model, FakeProp(0.55), FakeProp(0.5), field,
                           flow, k=300)
        [b2] = cate_bounds(x, model, FakeProp(0.55), FakeProp(0.5), field,
                           flow, k=300)
        assert np.array_equal(b1.lower, b2.lower)
        assert np.array_equal(b1.upper, b2.upper)

    def test_point_prediction_comes_from_heads(self):
        from catebounds.estimators import predict_point_cate, representation

        model, flow, field = make_pipeline(seed=18)
        x = np.random.default_rng(19).normal(size=(6, 2))
        [b] = cate_bounds(x, model, FakeProp(0.5), FakeProp(0.5), field, flow,
                          k=100)
        assert np.array_equal(b.point,
                              predict_point_cate(model, representation(model, x)))

    def test_invalid_k(self):
        model, flow, field = make_pipeline(seed=21)
        with pytest.raises(ValueError):
            cate_bounds(np.zeros((2, 2)), model, FakeProp(0.5), FakeProp(0.5),
                        field, flow, k=0)

    def test_csv_export(self, tmp_path):
        b = CateBounds(point=np.array([0.5]), lower=np.array([-0.1]),
                       upper=np.array([1.2]), gamma=np.array([1.7]),
                       pi1_phi=np.array([0.45]))
        path = tmp_path / "bounds.csv"
        write_bounds_csv(path, b, decisions=["defer"])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "id,tau_hat,lower,upper,gamma,pi1_phi,decision"
        assert lines[1].endswith("defer")

    def test_ragged_csv_rejected(self, tmp_path):
        path = tmp_path / "bounds.csv"
        path.write_text("id,tau_hat,lower,upper,gamma,pi1_phi\r\n"
                        "0,0.5,-0.1,1.2,1.7,0.45,defer\r\n")
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read_bounds_csv(path)


class TestOnePass:
    """Bounding every delta of one field in one call against fields of one
    delta each, and the result against the chunk size: each row's quantile
    nodes depend on that row alone."""

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 40), k=st.integers(1, 50),
           deltas=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=4),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_single_field_calls_bit_for_bit(self, n, k, deltas, seed):
        model, flow, field = make_pipeline(seed=seed % 97, deltas=deltas)
        x = np.random.default_rng(seed).normal(size=(n, 2))
        with pytest.MonkeyPatch.context() as mp:
            per_chunk = []
            for chunk in (1, 7, 128):
                mp.setattr(bounds_module, "CHUNK", chunk)
                per_chunk.append(cate_bounds(
                    x, model, FakeProp(0.6), FakeProp(0.45), field, flow, k=k))
        assert [len(result) for result in per_chunk] == [len(deltas)] * 3
        for i, delta in enumerate(deltas):
            _, _, one = make_pipeline(seed=seed % 97, deltas=[delta])
            [alone] = cate_bounds(x, model, FakeProp(0.6), FakeProp(0.45), one,
                                  flow, k=k)
            for got in (result[i] for result in per_chunk):
                for name in ("point", "lower", "upper", "gamma", "pi1_phi"):
                    assert np.array_equal(getattr(got, name),
                                          getattr(alone, name)), name

    @pytest.mark.parametrize("n,chunk", [(1, 128), (37, 8), (64, 16), (65, 16)])
    @pytest.mark.parametrize("n_deltas", [1, 4])
    def test_samples_each_chunk_once_per_arm(self, monkeypatch, n, chunk,
                                             n_deltas):
        model, flow, field = make_pipeline(
            seed=23, deltas=[0.1 * i for i in range(n_deltas)])
        calls = []
        original = ConditionalFlow.sample

        def counted(self, a, phi, k):
            calls.append(len(a))
            return original(self, a, phi, k)

        monkeypatch.setattr(ConditionalFlow, "sample", counted)
        monkeypatch.setattr(bounds_module, "CHUNK", chunk)
        x = np.random.default_rng(24).normal(size=(n, 2))
        cate_bounds(x, model, FakeProp(0.6), FakeProp(0.5), field, flow, k=20)
        assert len(calls) == 2 * -(-n // chunk)
        assert sum(calls) == 2 * n
