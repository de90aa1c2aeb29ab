"""Fractional-order grey forecasting with swarm-based parameter estimation.

Small-sample time-series forecasting: accumulate at a fractional order,
fit the two model parameters by least squares or a bounded swarm search
that minimizes the in-sample percentage error, and grid-search the order
itself.  Includes the embedded benchmark datasets and a CLI
(``python -m fracgrey`` or the ``fracgrey`` script).
"""

from .benchmark import (
    BenchmarkResult,
    CellResult,
    render_table,
    run_benchmark,
    write_results_json,
    write_traces,
)
from .datasets import DATASETS, WUHAN, ZHEJIANG, Dataset, get_dataset, load_csv
from .errors import (
    DataError,
    SingularDesignError,
    UsageError,
)
from .fracops import (
    ago_coeffs,
    frac_accumulate,
    frac_reduce,
    iago_coeffs,
    mean_sequence,
    validate_order,
)
from .greymodel import (
    FitReport,
    GreyParams,
    Series,
    build_design,
    fit_series,
    forecast,
    lsm_fit,
    restored_fit,
)
from .optim import (
    Bounds,
    OrderSearchResult,
    PsoConfig,
    RepeatStats,
    RunTrace,
    SwarmConfig,
    adcso_minimize,
    default_bounds,
    estimate,
    objective,
    order_search,
    pso_minimize,
    repeat_stats,
)

__version__ = "0.1.0"
