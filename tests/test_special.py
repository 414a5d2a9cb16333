"""The package's special functions against scipy's: `ndtri` bit for bit,
`expit` within 4 ulp, with the edge values pinned exactly."""

import math
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from catebounds.special import expit, ndtri

E2 = math.exp(-2.0)
E32 = math.exp(-32.0)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    bad = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert got.tobytes() == want.tobytes(), (
        f"{len(bad)} values differ, first at {bad[:3]}: "
        f"{got.ravel()[bad[:3]]} against {want.ravel()[bad[:3]]}")


def ulps_apart(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # for finite values of one sign the int64 views are ordered like the
    # floats, so their difference counts the floats in between
    return np.abs(a.view(np.int64) - b.view(np.int64))


class TestNdtri:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                              exclude_max=True),
                    min_size=1, max_size=50))
    def test_matches_scipy_bit_for_bit(self, ps):
        p = np.array(ps)
        assert_same_bits(ndtri(p), scipy.special.ndtri(p))

    def test_endpoints_are_infinite(self):
        assert_same_bits(ndtri(np.array([0.0, 1.0])),
                         np.array([-np.inf, np.inf]))

    def test_branch_edges(self):
        p = np.array([E2, 1.0 - E2])
        p = np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, 1.0)])
        assert_same_bits(ndtri(p), scipy.special.ndtri(p))

    def test_far_tail(self):
        # below exp(-32) the tail takes the P2/Q2 polynomials; the smallest
        # subnormal is the deepest point
        p = np.concatenate([
            [E32, np.nextafter(E32, 0.0), np.nextafter(E32, 1.0), 5e-324,
             np.finfo(np.float64).tiny],
            np.exp(-np.random.default_rng(0).uniform(32.0, 744.0, 2000))])
        assert (p < E32).sum() > 2000
        for q in (p, 1.0 - p):
            assert_same_bits(ndtri(q), scipy.special.ndtri(q))

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 100, 2000, 10**4])
    def test_midpoint_grids(self, k):
        p = (np.arange(k) + 0.5) / k
        assert_same_bits(ndtri(p), scipy.special.ndtri(p))

    def test_shapes_and_scalars(self):
        p = np.random.default_rng(1).random((3, 4))
        assert_same_bits(ndtri(p), scipy.special.ndtri(p))
        assert_same_bits(ndtri(0.3), scipy.special.ndtri(0.3))
        assert ndtri(np.empty(0)).shape == (0,)

    def test_nan_outside_the_unit_interval(self):
        assert np.isnan(ndtri(np.array([-0.5, 1.5, np.nan]))).all()


class TestExpit:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(min_value=-1e308, max_value=1e308),
                    min_size=1, max_size=50))
    def test_within_four_ulp_of_scipy(self, xs):
        x = np.array(xs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = expit(x)
        assert ulps_apart(got, scipy.special.expit(x)).max() <= 4

    def test_within_four_ulp_on_a_wide_sample(self):
        x = np.random.default_rng(2).normal(0.0, 30.0, 200_000)
        assert ulps_apart(expit(x), scipy.special.expit(x)).max() <= 4

    def test_edge_values(self):
        got = expit(np.array([0.0, -0.0, -np.inf, np.inf]))
        assert_same_bits(got, np.array([0.5, 0.5, 0.0, 1.0]))
        assert np.isnan(expit(np.array([np.nan]))).all()
        assert expit(0.0) == 0.5

    def test_no_warning_up_to_1e308(self):
        x = np.array([-1e308, -800.0, -710.0, 710.0, 1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = expit(x)
        assert_same_bits(got, scipy.special.expit(x))
