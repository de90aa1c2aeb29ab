"""Fractional-order grey forecasting model of first order, one variable.

Pipeline: accumulate the observations at order r, fit the linear relation
X(k) - X(k-1) = -a z(k) + b  (z = adjacent means of the accumulated series),
predict accumulated values with the exponential response
X(k) = x1 e^(-a k) + b (1 - e^(-a k)) / a  (x1 + b k at a = 0), and reduce
back to the original scale.  The fit error is the mean absolute percentage
error over the second..last points.

Prediction and reduction run as one O(n) recurrence (:func:`restored_steps`)
that never divides by a, so every finite (a, b) is a valid model, a = 0
included.  Model definition: Wu et al., "Grey system model with the
fractional order accumulation", CNSNS 18(7), 2013.

All functions are pure and stateless; reports are immutable once built.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError, SingularDesignError
from .fracops import frac_accumulate, iago_coeffs, mean_sequence, validate_order

# Two parameters plus at least two validation points.
MIN_FIT_LENGTH = 4

# Longest forecast, in periods, a call may ask for.
MAX_HORIZON = 1000


@dataclass(frozen=True)
class Series:
    """Labeled positive observation sequence on its original scale.

    Labels are period identifiers (e.g. years): strictly increasing and
    equally spaced.  Values must all be positive, since percentage errors
    divide by them.
    """

    labels: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "values", values)
        if labels.ndim != 1 or values.ndim != 1:
            raise DataError("labels and values must be one-dimensional")
        if len(labels) != len(values):
            raise DataError(
                f"got {len(labels)} labels but {len(values)} values"
            )
        if len(values) == 0:
            raise DataError("series is empty")
        if not np.all(np.isfinite(values)):
            raise DataError("series values must be finite")
        if np.any(values <= 0):
            raise DataError("series values must be positive")
        if len(labels) > 1:
            gaps = np.diff(labels)
            if np.any(gaps <= 0):
                raise DataError("labels must be strictly increasing")
            if np.any(gaps != gaps[0]):
                raise DataError("labels must be equally spaced")

    def __len__(self):
        return len(self.values)

    @property
    def spacing(self):
        return self.labels[1] - self.labels[0] if len(self) > 1 else 1

    def future_labels(self, horizon: int) -> np.ndarray:
        """Labels for the ``horizon`` periods after the last observation."""
        step = self.spacing
        return self.labels[-1] + step * np.arange(1, horizon + 1)


@dataclass(frozen=True)
class GreyParams:
    """Fitted model parameters: order r, development coefficient a, grey input b."""

    r: float
    a: float
    b: float

    def __post_init__(self):
        object.__setattr__(self, "r", validate_order(self.r))
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise ValueError("parameters a, b must be finite")


@dataclass(frozen=True)
class FitReport:
    """In-sample fit summary on the original scale.

    ``fitted`` has the same length as the input and starts exactly at the
    first observation.  ``residuals`` are fitted minus observed.
    ``per_point_error`` holds percentage errors for the second..last points;
    ``mape`` is their mean.
    """

    params: GreyParams
    fitted: np.ndarray
    residuals: np.ndarray
    mape: float
    per_point_error: np.ndarray


def check_fit_length(series: Series) -> None:
    """Reject series shorter than ``MIN_FIT_LENGTH``; every estimator calls this."""
    if len(series) < MIN_FIT_LENGTH:
        raise DataError(
            f"series too short: fitting needs at least {MIN_FIT_LENGTH} points,"
            f" got {len(series)}"
        )


def check_horizon(horizon: int) -> None:
    """Reject a forecast horizon outside 1 .. ``MAX_HORIZON`` periods."""
    if not 1 <= horizon <= MAX_HORIZON:
        raise ValueError(f"horizon must lie in [1, {MAX_HORIZON}], got {horizon}")


def build_design(series: Series, r) -> tuple[np.ndarray, np.ndarray]:
    """Design matrix and target for the linear parameter estimation.

    Row k-1 is [-z(k), 1] with z the adjacent means of the order-r
    accumulated series; the target is the accumulated first difference
    X(k) - X(k-1), for k = 2..n.
    """
    if len(series) < 2:
        raise DataError("series too short: need at least 2 points for a design")
    X = frac_accumulate(series.values, r)
    z = mean_sequence(X)
    B = np.column_stack([-z, np.ones(len(z))])
    Y = np.diff(X)
    return B, Y


def _solve_design(B: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Least-squares solve via SVD with an explicit rank check."""
    solution, _, rank, _ = np.linalg.lstsq(B, Y, rcond=None)
    if rank < B.shape[1]:
        raise SingularDesignError(
            f"design matrix rank {rank} < {B.shape[1]}: columns are collinear"
        )
    return solution


def lsm_fit(series: Series, r) -> GreyParams:
    """Closed-form least-squares estimate of (a, b) at order ``r``.

    Minimizes the two-norm residual of the design system using an
    orthogonal-factorization solver (never the explicit normal equations:
    the two columns can be badly scaled against each other).
    """
    r = validate_order(r)
    check_fit_length(series)
    B, Y = build_design(series, r)
    a, b = _solve_design(B, Y)
    return GreyParams(r=r, a=a, b=b)


def restored_steps(x1, a, b, d):
    """Yield the original-scale model values x(0), x(1), ... one per weight d[k].

    ``a`` and ``b`` are floats, or arrays of one shape; each ``d[k]`` is the
    order's k-th reduction weight and must broadcast to that shape.  With
    q = e^(-a) and phi = (1 - e^(-a)) / a (phi = 1 at a = 0), the reduced
    response is x(k) = x1 T_k + b V_k, where

        T_0 = d_0,  T_k = q T_(k-1) + d_k,
        V_0 = 0,    V_k = V_(k-1) + phi T_(k-1).

    The recurrence costs O(1) per step, keeps only values of the shape of
    ``a``, and never divides by a.  It runs on P = x1 T and W = b V.  Every
    yielded value is new, so the caller may modify or keep it.
    """
    neg_a = np.negative(a, dtype=float)
    q = np.exp(neg_a)
    phi = np.divide(np.expm1(neg_a), neg_a, out=np.ones(np.shape(neg_a)), where=neg_a != 0)
    coeff = b * phi / x1
    x1d = x1 * np.asarray(d, dtype=float)
    # Fresh values of the shape of a, so the in-place updates below touch no input.
    P = x1d[0] + 0.0 * neg_a
    W = 0.0 * neg_a
    yield P + W
    for x1d_k in x1d[1:]:
        W += coeff * P
        P *= q
        P += x1d_k
        yield P + W


def restored_fit(series: Series, params: GreyParams, horizon: int = 0) -> np.ndarray:
    """Original-scale model values for the sample plus ``horizon`` extra periods.

    Runs :func:`restored_steps` past the fit window; the first value equals
    the first observation exactly.
    """
    d = iago_coeffs(params.r, len(series) + horizon)
    return np.array(list(restored_steps(series.values[0], params.a, params.b, d)))


def fit_series(series: Series, params: GreyParams) -> FitReport:
    """Evaluate ``params`` on ``series``: fitted values, residuals, error."""
    if len(series) < 2:
        raise DataError("series too short: need at least 2 points to score a fit")
    fitted = restored_fit(series, params)
    residuals = fitted - series.values
    per_point = 100.0 * np.abs(residuals[1:]) / series.values[1:]
    return FitReport(
        params=params,
        fitted=fitted,
        residuals=residuals,
        mape=float(np.mean(per_point)),
        per_point_error=per_point,
    )


def forecast(series: Series, params: GreyParams, horizon: int) -> np.ndarray:
    """Original-scale predictions for the ``horizon`` periods after the sample.

    ``horizon`` must pass :func:`check_horizon`.
    """
    check_horizon(horizon)
    extended = restored_fit(series, params, horizon=horizon)
    return extended[len(series):]
