"""Independent plain-Python model of the fractional grey model.

Nothing here imports fracgrey or numpy.  Weights come straight from the Gamma
definition, every sum is an exactly rounded ``math.fsum``, the response uses
``expm1`` so it has a finite a = 0 limit, and the least-squares fit solves the
2x2 normal equations in exact rational arithmetic on the float design.  The
benchmark checks fracgrey's outputs against these functions.

``math.gamma`` overflows past 171, so series are limited to ``MAX_LENGTH``
points (with any forecast horizon included).
"""

import math
from fractions import Fraction

MAX_LENGTH = 170


def _check_length(n):
    if not 1 <= n <= MAX_LENGTH:
        raise ValueError(f"oracle handles 1..{MAX_LENGTH} points, got {n}")


def _reciprocal_gamma(x):
    """1 / Gamma(x), which is 0 at the poles x = 0, -1, -2, ..."""
    if x <= 0 and x == math.floor(x):
        return 0.0
    return 1.0 / math.gamma(x)


def accumulation_weights(r, n):
    """c_j = Gamma(r + j) / (Gamma(j + 1) Gamma(r)), j = 0..n-1."""
    _check_length(n)
    return [math.gamma(r + j) / (math.gamma(j + 1) * math.gamma(r)) for j in range(n)]


def reduction_weights(r, n):
    """d_i = (-1)^i Gamma(r + 1) / (Gamma(i + 1) Gamma(r - i + 1)), i = 0..n-1."""
    _check_length(n)
    g = math.gamma(r + 1)
    return [
        (-1) ** i * g * _reciprocal_gamma(r - i + 1) / math.gamma(i + 1)
        for i in range(n)
    ]


def _convolve(weights, x):
    return [math.fsum(weights[i] * x[k - i] for i in range(k + 1)) for k in range(len(x))]


def accumulate(x, r):
    """Order-r accumulation X(k) = sum_{i<=k} c_{k-i} x(i)."""
    return _convolve(accumulation_weights(r, len(x)), x)


def reduce(X, r):
    """Order-r reduction x(k) = sum_{i<=k} d_i X(k-i), the inverse of accumulate."""
    return _convolve(reduction_weights(r, len(X)), X)


def response(x1, a, b, n):
    """Accumulated-scale response X(k) = x1 e^(-a k) + b k phi(a k), k = 0..n-1.

    phi(u) = (1 - e^(-u)) / u with phi(0) = 1.  This equals
    (x1 - b/a) e^(-a k) + b/a for a != 0 and tends to x1 + b k as a -> 0.
    """
    out = []
    for k in range(n):
        u = a * k
        phi = 1.0 if u == 0 else -math.expm1(-u) / u
        out.append(x1 * math.exp(-u) + b * k * phi)
    return out


def model_values(x1, r, a, b, n):
    """Original-scale model values for n periods; the first is x1 exactly."""
    values = reduce(response(x1, a, b, n), r)
    values[0] = x1
    return values


def mape(actual, fitted):
    """Mean absolute percentage error over the second..last points, in percent."""
    if len(actual) != len(fitted) or len(actual) < 2:
        raise ValueError("need two equal-length sequences of at least 2 points")
    terms = [abs(f - x) / abs(x) for x, f in zip(actual[1:], fitted[1:])]
    return 100.0 * math.fsum(terms) / len(terms)


def model_mape(values, r, a, b):
    """In-sample error of parameters (r, a, b) on ``values``, in percent."""
    return mape(values, model_values(values[0], r, a, b, len(values)))


def lsm_fit(values, r):
    """Least-squares (a, b) of X(k) - X(k-1) = -a z(k) + b, k = 2..n.

    z(k) = (X(k) + X(k-1)) / 2.  The normal equations
        [sum z^2   -sum z] [a]   [-sum z y]
        [-sum z       m  ] [b] = [ sum y  ]
    are solved exactly in rationals, so the only rounding is in X itself.
    """
    X = accumulate(values, r)
    z = [Fraction(X[k]) / 2 + Fraction(X[k - 1]) / 2 for k in range(1, len(X))]
    y = [Fraction(X[k]) - Fraction(X[k - 1]) for k in range(1, len(X))]
    m = len(z)
    szz = sum(v * v for v in z)
    sz = sum(z)
    szy = sum(u * v for u, v in zip(z, y))
    sy = sum(y)
    det = m * szz - sz * sz
    if det == 0:
        raise ZeroDivisionError("design columns are collinear")
    a = (sz * sy - m * szy) / det
    b = (szz * sy - sz * szy) / det
    return float(a), float(b)
