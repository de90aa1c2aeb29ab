"""Model error and swarm objective against a 50-digit mpmath evaluation.

The oracle shares no code with the package.  Reduction weights come from the
Gamma-function definition (reciprocal Gamma, so the poles at integer orders
give exact zeros), the accumulated response is the closed form
x1 e^(-a k) + b (1 - e^(-a k)) / a with its limit x1 + b k at a = 0, and the
error is a plain mean of percentage errors, all at 50 significant digits.
The development coefficients run through the a -> 0 limit, where a
closed form in double precision loses its digits.
"""

import math

import mpmath
import numpy as np
import pytest

from fracgrey import WUHAN, ZHEJIANG, GreyParams, Series, fit_series, objective

A_VALUES = (-1.0, -1e-3, -1e-8, 0.0, 1e-8, 1e-3, 1.0)
ORDERS = (0.21, 0.5, 1.0)


def _long_series(n=100):
    k = np.arange(n)
    values = 100.0 * (1.0 + 0.3 * np.sin(k / 7.0)) + 0.5 * k
    return Series(labels=np.arange(1, n + 1), values=values)


# (series, b): b is of the order of the series, so no case is a near-exact fit
# whose small error would be dominated by cancellation.
SERIES = {
    5: (WUHAN.series, 2e5),
    7: (ZHEJIANG.series, 3e5),
    100: (_long_series(), 30.0),
}


def oracle_mape(values, r, a, b):
    with mpmath.workdps(50):
        r, a, b = mpmath.mpf(r), mpmath.mpf(a), mpmath.mpf(b)
        x = [mpmath.mpf(float(v)) for v in values]
        n = len(x)
        d = [(-1) ** i * mpmath.gamma(r + 1) * mpmath.rgamma(i + 1) * mpmath.rgamma(r - i + 1)
             for i in range(n)]
        if a == 0:
            X = [x[0] + b * k for k in range(n)]
        else:
            X = [x[0] * mpmath.exp(-a * k) + b * (1 - mpmath.exp(-a * k)) / a
                 for k in range(n)]
        fitted = [mpmath.fsum(d[i] * X[k - i] for i in range(k + 1)) for k in range(n)]
        errors = [abs(f - v) / v for f, v in zip(fitted[1:], x[1:])]
        return float(100 * mpmath.fsum(errors) / (n - 1))


@pytest.mark.parametrize("n", sorted(SERIES))
@pytest.mark.parametrize("r", ORDERS)
@pytest.mark.parametrize("a", A_VALUES)
def test_error_matches_mpmath(n, r, a):
    series, b = SERIES[n]
    expected = oracle_mape(series.values, r, a, b)
    assert math.isfinite(expected)
    report = fit_series(series, GreyParams(r=r, a=a, b=b))
    assert report.mape == pytest.approx(expected, rel=1e-10)
    value = objective(series, r)(np.array([a, b]))
    assert value == pytest.approx(expected, rel=1e-10)
