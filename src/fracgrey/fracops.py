"""Fractional-order accumulation and reduction operators.

The order-r accumulation of a sequence x is its convolution with the weights
c_j = Gamma(r + j) / (Gamma(j + 1) Gamma(r)); at r = 1 this is the plain
cumulative sum.  The matching reduction convolves with the alternating weights
d_i = (-1)^i Gamma(r + 1) / (Gamma(i + 1) Gamma(r - i + 1)).  The two weight
families have generating functions (1 - t)^(-r) and (1 - t)^r, so reduction is
the exact inverse of accumulation.

Weights are generated by multiplicative recurrences, never by quotients of
large Gamma values: that avoids overflow for long sequences and sidesteps the
Gamma poles at integer orders (where individual reduction weights vanish).

Everything here is a pure function of its inputs; concurrent use is
unrestricted.
"""

import numpy as np

# Orders are searched in (0, 1]; up to 2 is accepted for experimentation.
# r = 0 is rejected outright (the accumulation weights degenerate there).
MAX_ORDER = 2.0


def validate_order(r) -> float:
    """Check that ``r`` is a usable fractional order; return it as a float."""
    r = float(r)
    if not np.isfinite(r):
        raise ValueError(f"fractional order must be finite, got {r!r}")
    if not 0.0 < r <= MAX_ORDER:
        raise ValueError(
            f"fractional order must lie in (0, {MAX_ORDER}], got {r}"
        )
    return r


def _binomial_weights(s: float, n: int) -> np.ndarray:
    """Weights w_0..w_{n-1} of (1 - t)^s: w_0 = 1, w_j = -w_{j-1} (s - j + 1) / j."""
    if n < 1:
        raise ValueError("need at least one coefficient (n >= 1)")
    w = np.empty(n)
    w[0] = 1.0
    for j in range(1, n):
        w[j] = -w[j - 1] * (s - j + 1) / j
    return w


def ago_coeffs(r, n: int) -> np.ndarray:
    """Accumulation weights c_0..c_{n-1} for order ``r``.

    c_j = Gamma(r + j) / (Gamma(j + 1) Gamma(r)), the weights of
    (1 - t)^(-r): c_0 = 1, c_j = c_{j-1} (r + j - 1) / j.  For r = 1 every
    weight is exactly 1.
    """
    return _binomial_weights(-validate_order(r), n)


def iago_coeffs(r, n: int) -> np.ndarray:
    """Reduction weights d_0..d_{n-1} for order ``r``.

    d_i = (-1)^i Gamma(r + 1) / (Gamma(i + 1) Gamma(r - i + 1)), the weights
    of (1 - t)^r: d_0 = 1, d_i = -d_{i-1} (r - i + 1) / i.  At integer r the
    weights beyond index r are exactly zero (binomial cutoff).
    """
    return _binomial_weights(validate_order(r), n)


def frac_accumulate(x, r) -> np.ndarray:
    """Order-``r`` accumulation of ``x``: X(k) = sum_{i<=k} c_{k-i} x(i).

    The first element is always returned unchanged (c_0 = 1).
    """
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("cannot accumulate an empty sequence")
    if not np.all(np.isfinite(x)):
        raise ValueError("sequence values must be finite")
    c = ago_coeffs(r, len(x))
    return np.convolve(x, c)[: len(x)]


def frac_reduce(X, r) -> np.ndarray:
    """Order-``r`` reduction of ``X``: x(k) = sum_{i<k} d_i X(k-i).

    Exact inverse of :func:`frac_accumulate`; the sum includes the i = 0
    term (the point itself), which is what makes the round trip an identity.
    """
    X = np.asarray(X, dtype=float)
    if X.size == 0:
        raise ValueError("cannot reduce an empty sequence")
    d = iago_coeffs(r, len(X))
    return np.convolve(X, d)[: len(X)]


def mean_sequence(X) -> np.ndarray:
    """Adjacent-pair means z(k) = (X(k) + X(k-1)) / 2 for k = 2..n.

    Output has length n - 1.
    """
    X = np.asarray(X, dtype=float)
    if X.size < 2:
        raise ValueError("need at least two points for adjacent means")
    return 0.5 * (X[1:] + X[:-1])
