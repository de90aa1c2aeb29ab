"""Swarm estimators for the grey-model parameters (a, b) and the order grid search.

Two box-bounded minimizers over the percentage-error objective:

* cat-swarm search with adaptive tracing coefficients: every iteration the
  population is randomly split by a mixture ratio into a small tracing group,
  which moves toward the best position found so far with per-dimension
  adaptive inertia/acceleration, and a seeking group, whose members clone
  themselves, mutate the clones by a fraction of their own coordinate values,
  and jump to a clone chosen by fitness-derived probability;
* global-best particle swarm with fixed inertia and two acceleration terms.

Both clamp positions to the search box and velocities to a fraction of the box
width, keep the best-ever solution in memory (so best-so-far traces are
non-increasing), and are fully deterministic given their seed.  One driver,
`_run`, owns what both share: the initial draws, the best-so-far and the
trace; each swarm adds only its per-iteration moves, on whole populations of
stacked layers.  At the default cdc = dim, a seeking agent's copies move
every coordinate by -s or +s, so they repeat a few points (on the (a, b)
box, 4 plus the kept position against 30 candidates).  The cat-swarm engine
scores each distinct seeking candidate once, with the same draws and results
as scoring every copy.

The objective is the in-sample percentage error of the model values from
``greymodel.restored_steps``, the O(n) recurrence that ``fit_series`` uses
too.  It is defined for every finite (a, b), a = 0 included, and a candidate
whose error is not finite scores +inf.  Objective functions are pure; a run's
random draws all happen in one deterministic serial order, so results never
depend on how evaluations are scheduled.  Distinct runs share no state.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError
from .fracops import iago_coeffs, validate_order
from .greymodel import (
    GreyParams,
    Series,
    check_fit_length,
    fit_series,
    lsm_fit,
    restored_steps,
)

# Coordinates closer to the axis than this fraction of the box width mutate by
# a fixed kick instead of a proportional one, so seeking agents cannot freeze.
ZERO_GUARD = 1e-9
ZERO_KICK = 1e-3

# Largest order grid a search may ask for: a step of at least 0.001.
MAX_GRID_POINTS = 1000

# Most seeded swarm runs one call may ask for (order search: orders x
# repeats), checked before anything is built: step 0.001 x repeats 10.
MAX_RUNS = 10_000

# Candidates the evaluator scores per block of layers.  Each of its work
# arrays then takes 256 KB, small enough to stay in a core's cache.
BLOCK_CANDIDATES = 32768


@dataclass(frozen=True)
class Bounds:
    """Box constraints, one (lower, upper) pair per search dimension."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("lower and upper must be 1-D and of equal length")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValueError("bounds must be finite")
        if not np.all(lower < upper):
            raise ValueError("need lower < upper in every dimension")

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower


def default_bounds(series: Series) -> Bounds:
    """Default (a, b) search box: a in [-1, 1], b within twice the series peak."""
    peak = float(np.max(series.values))
    return Bounds(lower=np.array([-1.0, -2.0 * peak]),
                  upper=np.array([1.0, 2.0 * peak]))


@dataclass(frozen=True)
class SwarmConfig:
    """Cat-swarm settings; the defaults are the reference benchmark settings.

    n_agents: population size.  smp: candidate copies per seeking agent.
    srd: mutation fraction of the coordinate value.  cdc: how many dimensions
    each copy mutates.  spc: keep the current position among the candidates.
    mr: fraction of agents placed in tracing mode each iteration.
    c0/w0: base acceleration and inertia for the tracing update.
    v_frac: velocity limit as a fraction of the box width.
    """

    n_agents: int = 40
    smp: int = 30
    srd: float = 0.2
    cdc: int = 2
    spc: bool = True
    mr: float = 0.2
    c0: float = 1.05
    w0: float = 0.6
    iter_max: int = 300
    v_frac: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.n_agents < 1:
            raise ValueError("n_agents must be at least 1")
        if self.smp < 1:
            raise ValueError("smp must be at least 1")
        if self.srd < 0:
            raise ValueError("srd must be non-negative")
        if self.cdc < 1:
            raise ValueError("cdc must be at least 1")
        if not 0.0 < self.mr < 1.0:
            raise ValueError("mr must lie strictly between 0 and 1")
        if self.iter_max < 1:
            raise ValueError("iter_max must be at least 1")
        if self.v_frac <= 0:
            raise ValueError("v_frac must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class PsoConfig:
    """Particle-swarm settings; the defaults are the reference benchmark settings."""

    n_particles: int = 40
    c1: float = 1.5
    c2: float = 1.5
    w: float = 0.7
    iter_max: int = 300
    v_frac: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.n_particles < 1:
            raise ValueError("n_particles must be at least 1")
        if self.iter_max < 1:
            raise ValueError("iter_max must be at least 1")
        if self.v_frac <= 0:
            raise ValueError("v_frac must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class RunTrace:
    """Result of one minimizer run.

    ``best_fitness_per_iter[0]`` is the best fitness right after
    initialization; entry t is the best-so-far after iteration t.  The array
    is non-increasing.  ``evaluations`` is the algorithm's candidate budget
    (the initial population, then every seeking copy and tracing move),
    worked out from the config; it does not count objective calls: the
    cat-swarm engine scores repeated seeking copies once.
    """

    best_fitness_per_iter: np.ndarray
    best_position: np.ndarray
    best_fitness: float
    evaluations: int


@dataclass(frozen=True)
class RepeatStats:
    """Aggregate of repeated seeded runs (population statistics)."""

    mean: float
    stddev: float
    min: float
    max: float
    best_fitnesses: np.ndarray
    traces: tuple


@dataclass(frozen=True)
class OrderSearchResult:
    """Outcome of the fractional-order grid search."""

    order: float
    params: GreyParams
    trace: RunTrace | None
    grid: np.ndarray
    mean_fitness: np.ndarray
    estimator: str


class _MapeEvaluator:
    """Vectorized percentage-error objective, stacked over per-layer orders.

    Evaluates points of shape (layers, batch, 2) to fitness (layers, batch).
    The model values come from :func:`greymodel.restored_steps`, the same
    recurrence ``fit_series`` uses, and the error is accumulated one
    observation at a time.  Layers are scored in blocks of about
    ``BLOCK_CANDIDATES`` candidates, so every work array has the shape of one
    block.  Non-finite errors are reported as +inf.
    """

    def __init__(self, values, orders):
        x = np.asarray(values, dtype=float)
        n = len(x)
        if n < 2:
            raise DataError("need at least 2 observations to score a fit")
        unique, layer_of = np.unique(np.asarray(orders, dtype=float), return_inverse=True)
        weights = np.array([iago_coeffs(r, n) for r in unique])[layer_of]
        # Step k reads the weights d_k of every layer as a (layers, 1) column.
        self._d = np.ascontiguousarray(weights.T[:, :, None])
        self._x = x
        self._inv_x = 1.0 / x
        self._layers = len(weights)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 3 or pts.shape[0] != self._layers or pts.shape[2] != 2:
            raise ValueError(
                f"expected points of shape ({self._layers}, batch, 2), got {pts.shape}"
            )
        layers, batch = pts.shape[:2]
        blocks = max(1, math.ceil(layers * batch / BLOCK_CANDIDATES))
        rows = math.ceil(layers / blocks)
        fitness = np.zeros((layers, batch))
        with np.errstate(all="ignore"):
            for lo in range(0, layers, rows):
                block = slice(lo, lo + rows)
                total = fitness[block]
                steps = restored_steps(self._x[0], pts[block, :, 0], pts[block, :, 1],
                                       self._d[:, block])
                next(steps)  # x(0) = x1 by construction and is not scored
                for xhat, x_k, inv_k in zip(steps, self._x[1:], self._inv_x[1:]):
                    xhat -= x_k
                    np.abs(xhat, out=xhat)
                    xhat *= inv_k
                    total += xhat
            fitness *= 100.0 / (len(self._x) - 1)
        fitness[np.isnan(fitness)] = np.inf  # a sum of |.| is NaN or in [0, inf]
        return fitness


def objective(series: Series, r):
    """Percentage-error objective on (a, b) at fixed order ``r``.

    The returned callable accepts one point of shape (2,) or a batch (m, 2)
    and returns the in-sample error in percent, equal to
    ``fit_series(series, GreyParams(r, a, b)).mape``.  Candidates whose
    evaluation is not finite get +inf so a stochastic search simply routes
    around them.  The callable is pure and safe to share across threads.
    """
    ev = _MapeEvaluator(series.values, [validate_order(r)])

    def fitness(points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            return float(ev(pts[None, None, :])[0, 0])
        return ev(pts[None, :, :])[0]

    return fitness


def _adaptive_coefficients(w0, c0, dim):
    """Per-dimension tracing inertia and acceleration.

    Dimension d (1-based) uses w0 + (dim - d)/(2 dim) and c0 - (dim - d)/(2 dim):
    earlier dimensions get more inertia and less pull toward the best.
    """
    d = np.arange(1, dim + 1)
    shift = (dim - d) / (2.0 * dim)
    return w0 + shift, c0 - shift


def _mutation_mask(rng, shape, cdc, dim):
    """Choose ``cdc`` dimensions to mutate per candidate (all, if cdc == dim)."""
    if cdc >= dim:
        return np.ones(shape, dtype=bool)
    ranks = rng.random(shape)
    return ranks.argsort(axis=-1).argsort(axis=-1) < cdc


def _candidate_probabilities(fitness) -> np.ndarray:
    """Selection probabilities over the trailing candidate axis.

    Distinct finite fitnesses map affinely onto [0, 1] with the minimum at
    probability 1 and the maximum finite value at 0; all-equal candidates
    share probability 1; +inf candidates always get probability 0.
    """
    f = np.asarray(fitness, dtype=float)
    inf_mask = ~np.isfinite(f)
    if not inf_mask.any():
        fmax = f.max(axis=-1, keepdims=True)
        span = fmax - f.min(axis=-1, keepdims=True)
        with np.errstate(all="ignore"):
            probs = (fmax - f) / span
        equal = ~(span > 0)
        if equal.any():
            probs = np.where(equal, 1.0, probs)
        return probs
    with np.errstate(all="ignore"):
        fmax = np.where(inf_mask, -np.inf, f).max(axis=-1, keepdims=True)
        span = fmax - f.min(axis=-1, keepdims=True)
        probs = (fmax - f) / span
    equal = ~(span > 0)
    probs = np.where(inf_mask, 0.0, probs)
    probs = np.where(equal & ~inf_mask, 1.0, probs)
    return np.where(inf_mask.all(axis=-1, keepdims=True), 1.0, probs)


def _select_best(probs, rng) -> np.ndarray:
    """Index of the highest probability per row, ties broken uniformly."""
    p = np.asarray(probs, dtype=float)
    tied = p == p.max(axis=-1, keepdims=True)
    return np.argmax(tied * rng.random(p.shape), axis=-1)


def _as_batch(objective_fn, dim):
    """Adapt a (m, dim) -> (m,) objective to stacked (layers, m, dim) calls."""

    def batched(pts):
        flat = np.asarray(objective_fn(pts.reshape(-1, dim)), dtype=float)
        return flat.reshape(pts.shape[:-1])

    return batched


def _seeking_options(dim, offset):
    """Option each coordinate takes in every entry of a seeking agent's table.

    Options are 0 (keep x), 1 (clip(x - s)) and 2 (clip(x + s)).  Entry
    offset + j moves coordinate d to x + s when bit d of j is set and to
    x - s otherwise; with offset 1, entry 0 is the kept position.
    """
    plus = np.arange(2 ** dim)[:, None] >> np.arange(dim) & 1
    return np.vstack([np.zeros((offset, dim), dtype=plus.dtype), 1 + plus])


def _run(moves, batch_obj, bounds: Bounds, cfg, n_layers, rng):
    """Run cfg.iter_max swarm iterations on ``n_layers`` independent layers.

    The driver owns what both swarms share: the uniform initial positions and
    velocities, the first evaluation, each layer's best-so-far and its trace.
    ``moves(batch_obj, bounds, cfg, rng)`` is a generator of one swarm's
    per-iteration updates.  It first yields its population size and the
    candidates it spends per iteration, after checking ``cfg`` and before any
    draw.  Each later ``send`` of the state (positions, velocities, fitness,
    best positions) runs one iteration and returns the (fitness, positions)
    the best is taken from; the moves update the state arrays in place.

    Returns each layer's best fitness, best position and trace, and the
    candidate budget of one layer's run.
    """
    steps = moves(batch_obj, bounds, cfg, rng)
    n, per_iteration = next(steps)
    shape = (n_layers, n, bounds.dim)
    vmax = cfg.v_frac * bounds.width
    pos = bounds.lower + rng.random(shape) * bounds.width
    vel = -vmax + rng.random(shape) * (2.0 * vmax)
    fit = batch_obj(pos)

    rows = np.arange(n_layers)
    ib = np.argmin(fit, axis=1)
    best_pos = pos[rows, ib].copy()
    best_fit = fit[rows, ib].copy()
    trace = np.empty((n_layers, cfg.iter_max + 1))
    trace[:, 0] = best_fit
    state = pos, vel, fit, best_pos
    for t in range(1, cfg.iter_max + 1):
        fitness, points = steps.send(state)
        ib = np.argmin(fitness, axis=1)
        current = fitness[rows, ib]
        improved = current < best_fit
        best_fit[improved] = current[improved]
        best_pos[improved] = points[rows[improved], ib[improved]]
        trace[:, t] = best_fit
    return best_fit, best_pos, trace, n + cfg.iter_max * per_iteration


def _adcso_moves(batch_obj, bounds: Bounds, cfg: SwarmConfig, rng):
    """Cat-swarm iterations for :func:`_run`; yields the agents' (fitness, positions).

    Seeking scores each distinct candidate once.  When every coordinate
    moves (cdc == dim, the default), a copy moves each coordinate x to
    clip(x - s) or clip(x + s), so an agent's smp - 1 copies (smp without
    spc) take at most 2**dim points.  The moves score that table, kept
    position included, and give the selection rule each copy's fitness
    looked up from it, so the draws, the pick and every result are those of
    scoring all copies.  When cdc < dim, or when the table would not be
    smaller than the copies, the table is the copies themselves.
    """
    dim = bounds.dim
    if cfg.cdc > dim:
        raise ValueError(f"cdc = {cfg.cdc} exceeds the search dimension {dim}")
    n = cfg.n_agents
    n_tracing = int(round(cfg.mr * n))
    n_seeking = n - n_tracing
    per_agent = cfg.smp  # candidates per seeking agent, the kept position included
    n_copies = cfg.smp - 1 if cfg.spc else cfg.smp
    pos, vel, fit, best_pos = yield n, n_seeking * per_agent + n_tracing

    lower, upper, width = bounds.lower, bounds.upper, bounds.width
    vmax = cfg.v_frac * width
    w_d, c_d = _adaptive_coefficients(cfg.w0, cfg.c0, dim)
    n_layers = len(pos)
    rows = np.arange(n_layers)

    # Each seeking agent scores ``size`` table entries.  ``codes`` holds the
    # flat table index of each of its per_agent candidates, the kept position
    # (entry 0 of its table) first when spc is on.
    offset = int(cfg.spc)
    tabled = cfg.cdc == dim and 2 ** dim + offset < per_agent
    size = 2 ** dim + offset if tabled else per_agent
    copy_shape = (n_layers, n_seeking, n_copies, dim)
    table = np.empty((n_layers, n_seeking, size, dim))
    first = np.arange(0, n_layers * n_seeking * size, size).reshape(n_layers, n_seeking, 1)
    codes = np.empty((n_layers, n_seeking, per_agent), dtype=np.intp)
    codes[...] = first if tabled else first + np.arange(per_agent)
    if tabled:
        options = np.empty((n_layers, n_seeking, 3, dim))  # kept, minus, plus
        take = (_seeking_options(dim, offset) * dim + np.arange(dim)).ravel()
        copy_codes = codes[:, :, per_agent - n_copies:]
        copy_first = first + offset
    else:
        copies = table[:, :, per_agent - n_copies:]
    coins = np.empty(copy_shape)
    kick = cfg.srd * width * ZERO_KICK
    agents = np.arange(n_layers * n_seeking)

    while True:
        order = np.argsort(rng.random((n_layers, n)), axis=1)
        tracers = rows[:, None], order[:, :n_tracing]
        seekers = rows[:, None], order[:, n_tracing:]

        if n_seeking:
            spos = pos[seekers]
            mask = _mutation_mask(rng, copy_shape, cfg.cdc, dim) if cfg.cdc < dim else None
            rng.random(out=coins)
            step = np.abs(spos)
            small = step < ZERO_GUARD * width
            step *= cfg.srd
            np.copyto(step, kick, where=small)
            if tabled:
                np.copyto(options[:, :, 0], spos)
                np.subtract(spos, step, out=options[:, :, 1])
                np.add(spos, step, out=options[:, :, 2])
                np.clip(options[:, :, 1:], lower, upper, out=options[:, :, 1:])
                np.take(options.reshape(n_layers, n_seeking, 3 * dim), take, axis=2,
                        out=table.reshape(n_layers, n_seeking, size * dim))
                plus = coins >= 0.5
                np.add(copy_first, plus[..., 0], out=copy_codes)
                for d in range(1, dim):
                    copy_codes += plus[..., d] << d
            else:
                move = step[:, :, None, :] * np.where(coins < 0.5, -1.0, 1.0)
                if mask is not None:
                    move *= mask
                np.add(spos[:, :, None, :], move, out=copies)
                np.clip(copies, lower, upper, out=copies)
                if cfg.spc:
                    table[:, :, 0] = spos
            table_fit = batch_obj(table.reshape(n_layers, n_seeking * size, dim)).reshape(-1)
            pick = _select_best(_candidate_probabilities(table_fit[codes]), rng)
            chosen = codes.reshape(-1, per_agent)[agents, pick.ravel()]
            pos[seekers] = table.reshape(-1, dim)[chosen].reshape(n_layers, n_seeking, dim)
            fit[seekers] = table_fit[chosen].reshape(n_layers, n_seeking)

        if n_tracing:
            tpos = pos[tracers]
            tvel = vel[tracers]
            draw = rng.random((n_layers, n_tracing, dim))
            tvel = w_d * tvel + draw * c_d * (best_pos[:, None, :] - tpos)
            np.clip(tvel, -vmax, vmax, out=tvel)
            tpos = tpos + tvel
            np.clip(tpos, lower, upper, out=tpos)
            pos[tracers] = tpos
            vel[tracers] = tvel
            fit[tracers] = batch_obj(tpos)

        yield fit, pos


def _pso_moves(batch_obj, bounds: Bounds, cfg: PsoConfig, rng):
    """Global-best particle-swarm iterations for :func:`_run`.

    Yields each particle's best-ever (fitness, position), so the driver's
    best is the best of those.
    """
    n = cfg.n_particles
    pos, vel, fit, best_pos = yield n, n
    vmax = cfg.v_frac * bounds.width
    pbest = pos.copy()
    pbest_fit = fit.copy()
    while True:
        r1 = rng.random(pos.shape)
        r2 = rng.random(pos.shape)
        np.clip(cfg.w * vel
                + cfg.c1 * r1 * (pbest - pos)
                + cfg.c2 * r2 * (best_pos[:, None, :] - pos), -vmax, vmax, out=vel)
        pos += vel
        np.clip(pos, bounds.lower, bounds.upper, out=pos)
        fit[...] = batch_obj(pos)
        improved = fit < pbest_fit
        pbest[improved] = pos[improved]
        pbest_fit[improved] = fit[improved]
        yield pbest_fit, pbest


def _layer_trace(run, layer) -> RunTrace:
    """The RunTrace of one layer of a :func:`_run` result."""
    best_fit, best_pos, trace, evaluations = run
    return RunTrace(
        best_fitness_per_iter=trace[layer],
        best_position=best_pos[layer],
        best_fitness=float(best_fit[layer]),
        evaluations=evaluations,
    )


def _minimize(moves, objective_fn, bounds: Bounds, cfg) -> RunTrace:
    """One single-layer run, seeded by the config, of an (m, dim) -> (m,) objective."""
    batch_obj = _as_batch(objective_fn, bounds.dim)
    rng = np.random.default_rng(cfg.seed)
    return _layer_trace(_run(moves, batch_obj, bounds, cfg, 1, rng), 0)


def adcso_minimize(objective_fn, bounds: Bounds, cfg: SwarmConfig | None = None) -> RunTrace:
    """Minimize a vectorized objective with the cat-swarm search.

    ``objective_fn`` takes an (m, dim) batch of positions and returns m
    fitness values.  Runs exactly cfg.iter_max iterations; identical inputs
    and seed reproduce the run bit for bit.
    """
    return _minimize(_adcso_moves, objective_fn, bounds, cfg or SwarmConfig())


def pso_minimize(objective_fn, bounds: Bounds, cfg: PsoConfig | None = None) -> RunTrace:
    """Minimize a vectorized objective with global-best particle swarm."""
    return _minimize(_pso_moves, objective_fn, bounds, cfg or PsoConfig())


def _swarm(estimator, swarm_cfg, pso_cfg):
    """Config, moves and single-layer minimizer of a swarm estimator.

    Single-layer runs go through the public minimizer, looked up by name at
    call time, so a profiler that wraps it sees them.
    """
    if estimator == "adcso":
        return swarm_cfg or SwarmConfig(), _adcso_moves, adcso_minimize
    if estimator == "pso":
        return pso_cfg or PsoConfig(), _pso_moves, pso_minimize
    raise ValueError(f"unknown estimator {estimator!r}")


def repeat_stats(objective_fn, bounds: Bounds, cfg, repeats: int) -> RepeatStats:
    """Aggregate ``repeats`` independent runs seeded cfg.seed + 0..repeats-1.

    Dispatches on the config type (SwarmConfig or PsoConfig).  The standard
    deviation is the population deviation, so a single repeat reports 0.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    minimize = adcso_minimize if isinstance(cfg, SwarmConfig) else pso_minimize
    traces = tuple(
        minimize(objective_fn, bounds, replace(cfg, seed=cfg.seed + i))
        for i in range(repeats)
    )
    values = np.array([t.best_fitness for t in traces])
    return RepeatStats(
        mean=float(values.mean()),
        stddev=float(values.std()),
        min=float(values.min()),
        max=float(values.max()),
        best_fitnesses=values,
        traces=traces,
    )


def order_grid(grid_step: float) -> np.ndarray:
    """Order candidates {step, 2 step, ...} up to 1.0.

    The grid holds at most ``MAX_GRID_POINTS`` orders, so the step must be at
    least 1 / MAX_GRID_POINTS; the size is checked before anything is built.
    """
    if not 0.0 < grid_step <= 0.5:
        raise ValueError(f"grid step must lie in (0, 0.5], got {grid_step}")
    count = int(np.floor(1.0 / grid_step + 1e-9))
    if count > MAX_GRID_POINTS:
        raise ValueError(
            f"grid step {grid_step} gives {count} orders; the limit is "
            f"{MAX_GRID_POINTS} (step >= {1.0 / MAX_GRID_POINTS})"
        )
    grid = np.round(grid_step * np.arange(1, count + 1), 12)
    if grid.size == 0:
        raise ValueError("empty order grid")
    return grid


def check_runs(runs: int) -> None:
    """Reject a plan of more than ``MAX_RUNS`` seeded swarm runs."""
    if runs > MAX_RUNS:
        raise ValueError(
            f"the plan asks for {runs} seeded swarm runs; the limit is {MAX_RUNS}"
        )


def order_search(
    series: Series,
    grid_step: float = 0.01,
    estimator: str = "adcso",
    repeats: int = 10,
    swarm_cfg: SwarmConfig | None = None,
    pso_cfg: PsoConfig | None = None,
    bounds: Bounds | None = None,
) -> OrderSearchResult:
    """Grid-search the fractional order, estimating (a, b) at every candidate.

    For the swarm estimators each grid point is minimized ``repeats`` times
    and ranked by mean best fitness; all grid points and repeats advance as
    layers of one stacked population, drawing from a single generator seeded
    by the config, so a search is deterministic in its inputs.  The
    least-squares estimator is deterministic and ignores ``repeats``.  The
    grid size times ``repeats`` may not exceed ``MAX_RUNS``.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    grid = order_grid(grid_step)
    check_runs(len(grid) * repeats)
    check_fit_length(series)

    if estimator == "lsm":
        fitted = [lsm_fit(series, r) for r in grid]
        mean_fitness = np.array([fit_series(series, p).mape for p in fitted])
        best = int(np.argmin(mean_fitness))
        params, best_trace = fitted[best], None
    else:
        cfg, moves, _ = _swarm(estimator, swarm_cfg, pso_cfg)
        box = bounds or default_bounds(series)
        if box.dim != 2:
            raise ValueError("order search estimates (a, b): bounds must be 2-D")
        evaluator = _MapeEvaluator(series.values, np.repeat(grid, repeats))
        rng = np.random.default_rng(cfg.seed)
        run = _run(moves, evaluator, box, cfg, len(grid) * repeats, rng)
        per_grid = run[0].reshape(len(grid), repeats)
        mean_fitness = per_grid.mean(axis=1)
        best = int(np.argmin(mean_fitness))
        best_trace = _layer_trace(run, best * repeats + int(np.argmin(per_grid[best])))
        a, b = best_trace.best_position
        params = GreyParams(r=float(grid[best]), a=a, b=b)
    return OrderSearchResult(
        order=float(grid[best]),
        params=params,
        trace=best_trace,
        grid=grid,
        mean_fitness=mean_fitness,
        estimator=estimator,
    )


def estimate(
    series: Series,
    r,
    estimator: str = "lsm",
    swarm_cfg: SwarmConfig | None = None,
    pso_cfg: PsoConfig | None = None,
    bounds: Bounds | None = None,
) -> tuple[GreyParams, RunTrace | None]:
    """Estimate (a, b) at a fixed order with the chosen estimator."""
    r = validate_order(r)
    check_fit_length(series)
    if estimator == "lsm":
        return lsm_fit(series, r), None
    cfg, _, minimize = _swarm(estimator, swarm_cfg, pso_cfg)
    trace = minimize(objective(series, r), bounds or default_bounds(series), cfg)
    a, b = trace.best_position
    return GreyParams(r=r, a=a, b=b), trace
