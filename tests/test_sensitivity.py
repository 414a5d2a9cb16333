"""Sensitivity tests: propensity fits, pointwise Gamma, delta-ball field."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit

from catebounds import sensitivity
from catebounds.estimators import bce_logits
from catebounds.nets import (AdamW, Mlp, MlpConfig, Standardizer, TrainRun,
                             as_columns, child_seeds, encode_array, fit,
                             fit_standardizer)
from catebounds.sensitivity import (
    DELTA_PRESETS,
    GammaField,
    PropensityModel,
    build_gamma_field,
    gamma_pointwise,
    train_propensity,
    write_gamma_csv,
)


def _brute_ball_max(query, base, base_vals, self_vals, delta, chunk=64):
    """All-pairs oracle for the sorted index: per query row, the max of base_vals
    over base rows with squared distance <= delta**2, and its own value."""
    out = np.array(self_vals, dtype=np.float64, copy=True)
    d2_max = delta * delta
    for lo in range(0, len(query), chunk):
        hi = min(lo + chunk, len(query))
        diff = query[lo:hi, None, :] - base[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        masked = np.where(d2 <= d2_max, base_vals[None, :], -np.inf)
        out[lo:hi] = np.maximum(out[lo:hi], masked.max(axis=1))
    return out


def _train_on_standardized_copy(inputs, treatments, run, *, hidden_units,
                                seed):
    """Oracle for `train_propensity`: the whole input matrix is standardized
    before training and every batch is drawn from that copy. Returns the net
    and the loss trace."""
    x = as_columns(inputs)
    a = np.asarray(treatments, dtype=np.float64).reshape(-1)
    z = fit_standardizer(x).apply(x)
    seeds = child_seeds(seed, ("net", "shuffle"))
    net = Mlp(MlpConfig(x.shape[1], hidden_units, 1, seed=seeds["net"]))
    opt = AdamW(net.parameters(), lr=run.learning_rate,
                weight_decay=run.weight_decay)
    trace = list(fit(lambda idx: bce_logits(net(z[idx]), a[idx]), [opt],
                     len(x), run, np.random.default_rng(seeds["shuffle"])))
    return net, trace


class TestPropensity:
    @pytest.mark.parametrize("shape", [(300, 5), (300,)])
    def test_batch_standardization_matches_standardized_copy(self, shape):
        rng = np.random.default_rng(12)
        x = rng.normal(size=shape) * rng.uniform(0.01, 100.0, shape[1:]) + 3.0
        a = (rng.random(shape[0]) < expit(as_columns(x)[:, 0] / 50.0)).astype(float)
        run = TrainRun(batch_size=32, learning_rate=0.01, weight_decay=0.001,
                       n_iter=40)
        model = train_propensity(x, a, run, hidden_units=6, seed=7)
        net, trace = _train_on_standardized_copy(x, a, run, hidden_units=6,
                                                 seed=7)
        assert model.loss_trace == trace
        for got, want in zip(model.net.parameters(), net.parameters()):
            assert got.data.tobytes() == want.data.tobytes()

    def test_independent_treatment_predicts_base_rate(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5000, 2))
        a = (rng.random(5000) < 0.5).astype(float)  # independent of x
        model = train_propensity(x, a, TrainRun(batch_size=128, learning_rate=0.005,
                                                n_iter=600), hidden_units=8, seed=1)
        p = model.predict(x)
        assert abs(p.mean() - 0.5) < 0.05
        assert p.std() < 0.1

    def test_logistic_ground_truth_recovered(self):
        rng = np.random.default_rng(2)
        n = 8000
        x = rng.normal(size=(n, 2))
        true_p = expit(1.5 * x[:, 0] - 1.0 * x[:, 1])
        a = (rng.random(n) < true_p).astype(float)
        model = train_propensity(x, a, TrainRun(batch_size=128, learning_rate=0.005,
                                                n_iter=2000), hidden_units=16, seed=3)
        p = model.predict(x)
        mask = (true_p > 0.05) & (true_p < 0.95)
        assert np.mean(np.abs(p[mask] - true_p[mask])) < 0.05

    def test_output_clamped(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(400, 1))
        a = (x[:, 0] > 0).astype(float)  # perfectly separable
        model = train_propensity(x, a, TrainRun(batch_size=64, learning_rate=0.01,
                                                n_iter=800), hidden_units=8, seed=5)
        p = model.predict(x)
        assert np.all(p >= 0.01) and np.all(p <= 0.99)

    def test_validation_errors(self):
        x = np.zeros((10, 1))
        with pytest.raises(ValueError):
            train_propensity(x, np.ones(10), TrainRun(n_iter=1), hidden_units=4)
        with pytest.raises(ValueError):
            train_propensity(x, np.full(10, 0.5), TrainRun(n_iter=1), hidden_units=4)

    def test_checkpoint_roundtrip(self):
        import json

        rng = np.random.default_rng(6)
        x = rng.normal(size=(200, 2))
        a = (rng.random(200) < 0.5).astype(float)
        model = train_propensity(x, a, TrainRun(batch_size=64, n_iter=30),
                                 hidden_units=4, seed=7)
        text = json.dumps(model.to_checkpoint(), sort_keys=True)
        back = PropensityModel.from_checkpoint(json.loads(text))
        assert np.array_equal(back.predict(x), model.predict(x))
        assert back.loss_trace == model.loss_trace
        # save -> load -> save writes the same bytes
        assert json.dumps(back.to_checkpoint(), sort_keys=True) == text

    def _payload(self):
        x = np.random.default_rng(8).normal(size=(20, 3))
        a = np.tile([0.0, 1.0], 10)
        return train_propensity(x, a, TrainRun(n_iter=2), hidden_units=4,
                                seed=9).to_checkpoint()

    def test_checkpoint_wrong_kind_rejected(self):
        payload = self._payload()
        payload["kind"] = "stage0"
        with pytest.raises(ValueError, match="propensity.*'stage0'"):
            PropensityModel.from_checkpoint(payload)

    def test_checkpoint_wrong_shape_names_the_array(self):
        payload = self._payload()
        payload["arrays"]["std"] = encode_array(np.ones(2))
        with pytest.raises(ValueError, match=r"propensity.*'std'.*\(2,\)"):
            PropensityModel.from_checkpoint(payload)

    def test_checkpoint_wrong_shape_names_the_net(self):
        payload = self._payload()
        payload["nets"]["net"][1] = encode_array(np.zeros(5))  # b1 has 4 hidden units
        with pytest.raises(ValueError, match=r"propensity.*'net'.*\(5,\)"):
            PropensityModel.from_checkpoint(payload)


class TestGammaPointwise:
    def test_agreeing_propensities_give_one(self):
        p = np.array([0.2, 0.5, 0.9])
        assert np.allclose(gamma_pointwise(p, p), 1.0, rtol=1e-12)
        assert gamma_pointwise(np.array([0.5]), np.array([0.5]))[0] == 1.0

    def test_worked_example(self):
        # odds(0.8) / odds(0.5) = 4
        assert np.isclose(gamma_pointwise(np.array([0.8]), np.array([0.5]))[0], 4.0)
        # reciprocal disagreement gives the same Gamma
        assert np.isclose(gamma_pointwise(np.array([0.5]), np.array([0.8]))[0], 4.0)

    def test_always_at_least_one(self):
        rng = np.random.default_rng(8)
        px = rng.uniform(0.01, 0.99, size=500)
        pp = rng.uniform(0.01, 0.99, size=500)
        assert np.all(gamma_pointwise(px, pp) >= 1.0)

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            gamma_pointwise(np.array([0.0]), np.array([0.5]))
        with pytest.raises(ValueError):
            gamma_pointwise(np.array([0.5]), np.array([1.0]))

    @pytest.mark.parametrize("px,pp", [(np.nan, 0.5), (0.5, np.nan)])
    def test_nan_propensity_rejected(self, px, pp):
        with pytest.raises(ValueError, match="strictly inside"):
            gamma_pointwise(np.array([px]), np.array([pp]))


def _ball_max(phis, gp, deltas):
    """Per delta, each row's max of the chosen Gamma_point values `gp` over
    its delta-ball, with `phis` taken as already standardized."""
    phis = as_columns(phis)
    return sensitivity._max_within_delta(phis, sensitivity._BallIndex(phis, gp),
                                         gp, np.asarray(deltas, dtype=np.float64))


class TestGammaBall:
    def test_zero_delta_returns_pointwise(self):
        phis = np.array([[0.0], [1.0], [2.0]])
        gp = np.array([1.5, 3.0, 2.0])
        assert np.array_equal(_ball_max(phis, gp, [0.0]), [gp])

    def test_huge_delta_returns_global_max(self):
        phis = np.random.default_rng(9).normal(size=(50, 2))
        gp = np.random.default_rng(10).uniform(1.0, 5.0, size=50)
        assert np.allclose(_ball_max(phis, gp, [1e9]), gp.max())

    def test_five_point_hand_oracle(self):
        phis = np.array([[0.0], [0.1], [0.2], [1.0], [1.05]])
        gp = np.array([2.0, 5.0, 1.0, 4.0, 3.0])
        got = _ball_max(phis, gp, [0.15])
        # balls: {0,1}, {0,1,2}, {1,2}, {3,4}, {3,4}
        assert np.array_equal(got, [[5.0, 5.0, 5.0, 4.0, 4.0]])

    def test_monotone_in_delta(self):
        rng = np.random.default_rng(11)
        phis = rng.normal(size=(100, 2))
        gp = rng.uniform(1.0, 6.0, size=100)
        rows = _ball_max(phis, gp, (0.0,) + DELTA_PRESETS)
        assert rows.shape == (1 + len(DELTA_PRESETS), 100)
        assert np.all(np.diff(rows, axis=0) >= -1e-15)

    def test_identity_representation_keeps_gamma_one(self):
        # pi^x == pi^phi pointwise: no information lost, field stays at 1
        rng = np.random.default_rng(12)
        phis = rng.normal(size=(80, 1))
        field = build_gamma_field(phis, np.full(80, 0.7), np.full(80, 0.7), [0.05])
        assert np.array_equal(field.train_gamma_hat, np.ones((1, 80)))

    def test_invalid_inputs(self):
        half = np.full(3, 0.5)
        field = build_gamma_field(np.zeros((3, 1)), half, half, [0.01])
        with pytest.raises(ValueError, match=">= 1"):
            field.at(np.zeros((3, 1)), np.array([0.5, 1.0, 1.0]))
        with pytest.raises(ValueError):
            build_gamma_field(np.zeros((3, 1)), half, half, [0.01, -0.1])
        with pytest.raises(ValueError):
            build_gamma_field(np.zeros((3, 1)), np.full(4, 0.5), np.full(4, 0.5),
                              [0.01])
        with pytest.raises(ValueError):
            build_gamma_field(np.zeros((3, 1)), half, half, [np.nan])
        with pytest.raises(ValueError, match="at least one delta"):
            build_gamma_field(np.zeros((3, 1)), half, half, [])
        with pytest.raises(ValueError, match="1-D"):
            build_gamma_field(np.zeros((3, 1)), half, half, 0.01)

    def test_non_finite_phi_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            build_gamma_field(np.array([[0.0], [np.nan]]), np.full(2, 0.5),
                              np.full(2, 0.5), [0.1])

    def test_non_finite_gamma_point_rejected(self):
        # a pi^phi this small overflows its odds, so Gamma_point is infinite
        with pytest.raises(ValueError, match="finite"), \
                np.errstate(divide="ignore", over="ignore"):
            build_gamma_field(np.array([[0.0], [0.05]]), np.full(2, 0.5),
                              np.array([0.5, 5e-324]), [0.1])

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 40),
           delta=st.sampled_from(DELTA_PRESETS + (0.5, 2.0)))
    def test_field_dominates_pointwise(self, seed, n, delta):
        rng = np.random.default_rng(seed)
        phis = rng.normal(size=(n, 2))
        gp = rng.uniform(1.0, 10.0, size=n)
        [gh] = _ball_max(phis, gp, [delta])
        assert np.all(gh >= gp)
        assert np.all(gh <= gp.max())


def _cloud(seed, n=60, d=1):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(n, d)), rng.uniform(0.2, 0.8, size=n),
            rng.uniform(0.2, 0.8, size=n))


class TestGammaField:
    def make_field(self, deltas=(0.5,), d=1) -> GammaField:
        return build_gamma_field(*_cloud(13, d=d), deltas)

    def test_training_values_match_ball(self):
        field = self.make_field(deltas=(0.0, 0.1, 0.5))
        raw = field.index.base * field.scaler.std + field.scaler.mean
        got = field.at(raw, field.train_gamma_points)
        assert got.shape == field.train_gamma_hat.shape == (3, 60)
        assert np.allclose(got, field.train_gamma_hat)

    def test_query_monotone_in_delta_with_own_gamma(self):
        rng = np.random.default_rng(14)
        q = rng.normal(size=(20, 1))
        q_gamma = rng.uniform(1.0, 8.0, size=20)
        field = build_gamma_field(*_cloud(14, n=50),
                                  (0.0, 0.01, 0.1, 1.0, 10.0))
        rows = field.at(q, q_gamma)
        assert np.all(rows >= q_gamma)  # own value always included
        assert np.all(np.diff(rows, axis=0) >= -1e-15)

    def test_far_query_keeps_own_gamma(self):
        field = self.make_field(deltas=(0.001,))
        got = field.at(np.array([[1e6]]), np.array([3.3]))
        assert np.array_equal(got, [[3.3]])

    def test_non_finite_query_phi_rejected(self):
        field = self.make_field()
        with pytest.raises(ValueError, match="finite"):
            field.at(np.array([[0.0], [np.nan]]), np.array([2.0, 3.0]))

    def test_non_finite_query_gamma_rejected(self):
        field = self.make_field()
        with pytest.raises(ValueError, match="finite"):
            field.at(np.array([[0.0], [0.1]]), np.array([2.0, np.nan]))

    def test_query_lengths_must_agree(self):
        field = self.make_field()
        with pytest.raises(ValueError, match="equal length"):
            field.at(np.array([[0.0], [0.1]]), np.array([2.0]))

    def test_wider_query_than_field_rejected(self):
        field = self.make_field(d=1)
        with pytest.raises(ValueError, match="1-dimensional.*2-dimensional"):
            field.at(np.zeros((4, 2)), np.ones(4))

    def test_narrower_query_than_field_rejected(self):
        field = self.make_field(d=2)
        with pytest.raises(ValueError, match="2-dimensional.*1-dimensional"):
            field.at(np.zeros(4), np.ones(4))

    def test_needs_at_least_one_delta(self):
        with pytest.raises(ValueError, match="at least one delta"):
            self.make_field(deltas=())


class TestBallIndex:
    """The ball maximum against the all-pairs oracle, bit for bit, at every
    delta of a vector.

    d = 1 runs the sorted index; d > 1 checks that wider representations
    still take the all-pairs path."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from((1, 2, 3)),
           n=st.integers(1, 200), m=st.integers(1, 200),
           dyadic=st.booleans(),
           deltas=st.lists(st.sampled_from((0.0, 1 / 64, 3 / 64, 5 / 64, 0.125,
                                            0.5) + DELTA_PRESETS),
                           min_size=1, max_size=4))
    def test_matches_all_pairs_oracle(self, seed, d, n, m, dyadic, deltas):
        rng = np.random.default_rng(seed)
        if dyadic:
            # multiples of 1/64 in a small box: exact squared distances, so
            # with a dyadic delta some pairs sit exactly on the ball's edge
            base = rng.integers(-12, 13, size=(n, d)) / 64.0
            query = rng.integers(-12, 13, size=(m, d)) / 64.0
        else:
            base = rng.normal(scale=0.05, size=(n, d))
            query = rng.normal(scale=0.05, size=(m, d))
        # duplicate rows, queries on base rows, and far queries with empty balls
        base[rng.random(n) < 0.2] = base[rng.integers(0, n)]
        on_base = rng.random(m) < 0.3
        query[on_base] = base[rng.integers(0, n, size=on_base.sum())]
        query[rng.random(m) < 0.1] += 1e3
        base_vals = np.round(rng.uniform(1.0, 10.0, size=n), 1)
        self_vals = np.round(rng.uniform(1.0, 10.0, size=m), 1)
        index = sensitivity._BallIndex(base, base_vals)
        got = sensitivity._max_within_delta(query, index, self_vals,
                                            np.array(deltas))
        # a field whose standardization is the identity keeps the edges exact
        field = GammaField(deltas=np.array(deltas),
                           scaler=Standardizer(np.zeros(d), np.ones(d)),
                           train_gamma_points=base_vals,
                           train_gamma_hat=sensitivity._max_within_delta(
                               base, index, base_vals, np.array(deltas)),
                           index=index)
        at = field.at(query, self_vals)
        assert got.shape == at.shape == (len(deltas), m)
        for i, delta in enumerate(deltas):
            want = _brute_ball_max(query, base, base_vals, self_vals, delta)
            assert np.array_equal(got[i], want)
            assert np.array_equal(at[i], want)
            assert np.array_equal(
                field.train_gamma_hat[i],
                _brute_ball_max(base, base, base_vals, base_vals, delta))

    def test_hcmnist_size(self):
        # HC-MNIST has 60 000 training rows; an all-pairs field at this size
        # takes tens of seconds per delta
        rng = np.random.default_rng(15)
        n = 60_000
        phis = np.round(rng.normal(size=(n, 1)), 3)  # ties, as a coarse phi has
        px = rng.uniform(0.05, 0.95, size=n)
        pp = rng.uniform(0.05, 0.95, size=n)
        queries = rng.normal(size=(10_000, 1))
        q_gamma = rng.uniform(1.0, 3.0, size=10_000)
        sub = rng.choice(n, size=300, replace=False)
        q_sub = rng.choice(10_000, size=300, replace=False)
        field = build_gamma_field(phis, px, pp, DELTA_PRESETS)
        gp, z = field.train_gamma_points, field.index.base
        got = field.at(queries, q_gamma)
        for i, delta in enumerate(DELTA_PRESETS):
            assert np.array_equal(field.train_gamma_hat[i, sub],
                                  _brute_ball_max(z[sub], z, gp, gp[sub], delta))
            assert np.array_equal(
                got[i, q_sub],
                _brute_ball_max(field.standardize(queries[q_sub]), z, gp,
                                q_gamma[q_sub], delta))


class TestCsvExport:
    def test_file_layout(self, tmp_path):
        path = tmp_path / "gamma.csv"
        phis = np.array([[0.1, 0.2], [0.3, 0.4]])
        write_gamma_csv(path, phis, np.array([0.5, 0.6]), np.array([0.5, 0.5]),
                        np.array([1.0, 1.5]), np.array([1.5, 1.5]))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "id,phi1,phi2,pi1_x,pi1_phi,gamma_point,gamma_hat"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0" and float(first[-1]) == 1.5
        # every cell reads back as a plain number, the phi cells exactly
        rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
        assert np.array_equal(np.array(rows)[:, 1:3], phis)
