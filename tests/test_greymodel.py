import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    exact_difference_series,
    exact_response_series,
    exact_response_values,
    gm11_oracle,
    oracle_reduce,
)
from fracgrey import (
    DataError,
    GreyParams,
    Series,
    SingularDesignError,
    build_design,
    fit_series,
    forecast,
    lsm_fit,
)
from fracgrey.greymodel import MAX_HORIZON, _solve_design, restored_fit

# Table rows the deterministic estimator must reproduce (percent, +-0.3).
LSM_EXPECTED = {
    "wuhan": {0.25: 1.57, 0.5: 1.36, 0.75: 1.47},
    "zhejiang": {0.25: 2.328, 0.5: 3.0196, 0.75: 2.826},
}


class TestSeries:
    def test_valid(self):
        s = Series(labels=np.arange(2000, 2004), values=np.array([1.0, 2.0, 3.0, 4.0]))
        assert len(s) == 4
        assert s.spacing == 1

    def test_rejects_non_positive(self):
        with pytest.raises(DataError):
            Series(labels=[1, 2], values=[1.0, 0.0])
        with pytest.raises(DataError):
            Series(labels=[1, 2], values=[1.0, -3.0])

    def test_rejects_non_monotone_labels(self):
        with pytest.raises(DataError):
            Series(labels=[2000, 2000], values=[1.0, 2.0])
        with pytest.raises(DataError):
            Series(labels=[2001, 2000], values=[1.0, 2.0])

    def test_rejects_uneven_spacing(self):
        with pytest.raises(DataError):
            Series(labels=[2000, 2001, 2003], values=[1.0, 2.0, 3.0])

    def test_rejects_empty_and_mismatch(self):
        with pytest.raises(DataError):
            Series(labels=[], values=[])
        with pytest.raises(DataError):
            Series(labels=[1, 2], values=[1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(DataError):
            Series(labels=[1, 2], values=[1.0, np.nan])

    def test_future_labels(self):
        s = Series(labels=[2011, 2013, 2015], values=[1.0, 2.0, 3.0])
        np.testing.assert_array_equal(s.future_labels(2), [2017, 2019])


class TestGreyParams:
    def test_zero_a_accepted(self):
        # a = 0 is the linear limit X(k) = x1 + b k, not a degenerate model
        series = Series(labels=np.arange(6), values=[3.0, 4.0, 2.5, 6.0, 5.0, 7.0])
        limit = oracle_reduce(3.0 + 2.0 * np.arange(6), 0.5)
        for a in (0.0, -0.0, 1e-13, -1e-300):
            params = GreyParams(r=0.5, a=a, b=2.0)
            np.testing.assert_allclose(fit_series(series, params).fitted, limit,
                                       rtol=1e-12)

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            GreyParams(r=0.0, a=0.1, b=1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            GreyParams(r=0.5, a=np.inf, b=1.0)


def test_build_design_constant_series_order_one():
    s = Series(labels=[1, 2, 3], values=[1.0, 1.0, 1.0])
    B, Y = build_design(s, 1.0)
    np.testing.assert_array_equal(B, [[-1.5, 1.0], [-2.5, 1.0]])
    np.testing.assert_array_equal(Y, [1.0, 1.0])


def test_build_design_constant_series_targets_equal_constant():
    s = Series(labels=[1, 2, 3, 4], values=[7.0] * 4)
    _, Y = build_design(s, 1.0)
    np.testing.assert_array_equal(Y, [7.0, 7.0, 7.0])


def test_build_design_too_short():
    with pytest.raises(DataError):
        build_design(Series(labels=[1], values=[1.0]), 0.5)


def test_build_design_overflow_is_a_data_error():
    # accumulating values near the float maximum overflows; lstsq never sees it
    near_max = Series(labels=[1, 2, 3, 4], values=[1e308, 1.5e308, 1.7e308, 1.75e308])
    with pytest.raises(DataError, match="accumulated at order 0.5, they overflow"):
        build_design(near_max, 0.5)
    with pytest.raises(DataError, match="accumulated at order 0.5, they overflow"):
        lsm_fit(near_max, 0.5)


@pytest.mark.parametrize("values", [[1e-320, 2.0, 3.0, 4.0], [2.0, 1e-320, 3.0, 4.0]],
                         ids=["tiny-first", "tiny-later"])
def test_fit_series_non_finite_error_is_a_data_error(values):
    # b / x1 overflows for a subnormal first value; a subnormal later value
    # overflows its percentage error
    series = Series(labels=[1, 2, 3, 4], values=values)
    with pytest.raises(DataError, match="its error is not finite"):
        fit_series(series, GreyParams(r=0.5, a=0.1, b=2.0))


def test_build_design_shapes(wuhan):
    B, Y = build_design(wuhan, 0.25)
    assert B.shape == (4, 2)
    assert Y.shape == (4,)
    np.testing.assert_array_equal(B[:, 1], np.ones(4))


@pytest.mark.parametrize("name,r", [(n, r) for n in LSM_EXPECTED for r in (0.25, 0.5, 0.75)])
def test_lsm_reproduces_reference_errors(name, r, wuhan, zhejiang):
    series = {"wuhan": wuhan, "zhejiang": zhejiang}[name]
    report = fit_series(series, lsm_fit(series, r))
    assert report.mape == pytest.approx(LSM_EXPECTED[name][r], abs=0.3)


def test_lsm_too_short():
    with pytest.raises(DataError):
        lsm_fit(Series(labels=[1, 2, 3], values=[1.0, 2.0, 3.0]), 0.5)


def test_solve_design_singular():
    B = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    with pytest.raises(SingularDesignError):
        _solve_design(B, np.array([1.0, 2.0, 3.0]))


def test_fit_series_self_consistency():
    params = GreyParams(r=0.5, a=0.08, b=9.0)
    series = exact_response_series(0.5, 0.08, 9.0, 10.0, 9)
    report = fit_series(series, params)
    assert report.mape < 1e-9
    assert report.fitted[0] == series.values[0]


def test_fit_series_first_point_exact_for_every_order(wuhan):
    for r in (0.06, 0.21, 0.25, 0.5, 0.75, 1.0):
        report = fit_series(wuhan, lsm_fit(wuhan, r))
        assert report.fitted[0] == wuhan.values[0]


def test_fit_report_invariants(wuhan):
    report = fit_series(wuhan, lsm_fit(wuhan, 0.5))
    assert len(report.fitted) == len(wuhan)
    assert len(report.per_point_error) == len(wuhan) - 1
    np.testing.assert_allclose(report.residuals, report.fitted - wuhan.values)
    assert report.mape == pytest.approx(np.mean(report.per_point_error), abs=1e-12)
    assert report.mape >= 0


@given(scale=st.floats(1e-3, 1e3), r=st.sampled_from([0.21, 0.5, 1.0]))
@settings(max_examples=25, deadline=None)
def test_lsm_mape_is_scale_invariant(scale, r):
    base = Series(labels=np.arange(2011, 2016),
                  values=np.array([714700.0, 765000.0, 860412.0, 1005200.0, 1061400.0]))
    scaled = Series(labels=base.labels, values=base.values * scale)
    m1 = fit_series(base, lsm_fit(base, r)).mape
    m2 = fit_series(scaled, lsm_fit(scaled, r)).mape
    assert m2 == pytest.approx(m1, abs=1e-9)


def test_order_one_matches_classic_gm11(wuhan, zhejiang):
    rng = np.random.default_rng(42)
    cases = [wuhan.values, zhejiang.values]
    cases += [rng.uniform(1.0, 100.0, rng.integers(4, 12)) for _ in range(8)]
    for values in cases:
        series = Series(labels=np.arange(len(values)), values=values)
        params = lsm_fit(series, 1.0)
        a_ref, b_ref, fitted_ref = gm11_oracle(values)
        assert params.a == pytest.approx(a_ref, rel=1e-9)
        assert params.b == pytest.approx(b_ref, rel=1e-9)
        np.testing.assert_allclose(fit_series(series, params).fitted, fitted_ref,
                                   rtol=1e-9)


def test_recovery_from_exact_difference_data():
    for r, a, b in [(0.25, 0.3, 4.0), (0.5, -0.2, 2.0), (0.75, 0.45, 6.0)]:
        series = exact_difference_series(r, a, b, x1=8.0, n=9)
        params = lsm_fit(series, r)
        assert params.a == pytest.approx(a, rel=1e-9)
        assert params.b == pytest.approx(b, rel=1e-9)


class TestForecast:
    def test_horizon_zero_rejected(self, wuhan):
        params = lsm_fit(wuhan, 0.5)
        with pytest.raises(ValueError):
            forecast(wuhan, params, 0)

    def test_horizon_limit(self, wuhan):
        params = lsm_fit(wuhan, 0.5)
        assert len(forecast(wuhan, params, MAX_HORIZON)) == MAX_HORIZON
        for horizon in (MAX_HORIZON + 1, 10 ** 12):
            with pytest.raises(ValueError, match="horizon must lie in"):
                forecast(wuhan, params, horizon)

    def test_continues_generating_sequence(self):
        r, a, b, x1 = 0.5, 0.08, 9.0, 10.0
        series = exact_response_series(r, a, b, x1, 9)
        params = GreyParams(r=r, a=a, b=b)
        predicted = forecast(series, params, 2)
        full = exact_response_values(r, a, b, x1, 11)
        np.testing.assert_allclose(predicted, full[9:], rtol=1e-9)

    def test_restored_fit_extends_fitted(self, wuhan):
        params = lsm_fit(wuhan, 0.25)
        full = restored_fit(wuhan, params, horizon=3)
        report = fit_series(wuhan, params)
        np.testing.assert_array_equal(full[: len(wuhan)], report.fitted)
        np.testing.assert_array_equal(forecast(wuhan, params, 3), full[len(wuhan):])

    def test_overflowing_prediction_is_a_data_error(self):
        # a growth of 3x per period leaves the float range within 1000 periods
        series = Series(labels=[1, 2, 3, 4, 5], values=[1.0, 3.0, 9.0, 27.0, 81.0])
        params = lsm_fit(series, 0.5)
        assert np.all(np.isfinite(forecast(series, params, 100)))
        with pytest.raises(DataError, match=r"prediction \d+ of 1000 is not finite"):
            forecast(series, params, 1000)

    def test_wuhan_next_period_magnitude(self, wuhan):
        # no ground truth beyond the sample; sanity-check the scale only
        params = lsm_fit(wuhan, 0.21)
        value = forecast(wuhan, params, 1)[0]
        assert 1e5 < value < 1e7
