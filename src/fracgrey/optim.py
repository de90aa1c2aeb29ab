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
non-increasing), and are fully deterministic given their seed.  The minimizers
update whole populations with array operations; `seeking_step` and
`tracing_step` expose the same single-agent updates for direct use and draw
random numbers in the same layout, so a one-agent swarm reproduces them
draw for draw.

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


@dataclass
class Agent:
    """One swarm member: position, velocity, behavioural mode, last fitness."""

    position: np.ndarray
    velocity: np.ndarray
    mode: str = "seeking"
    fitness: float = math.inf


@dataclass(frozen=True)
class RunTrace:
    """Result of one minimizer run.

    ``best_fitness_per_iter[0]`` is the best fitness right after
    initialization; entry t is the best-so-far after iteration t.  The array
    is non-increasing.
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


def _mutation_steps(positions, srd, width):
    """Seeking-step magnitudes: srd * |x|, with a fixed kick near zero."""
    mag = np.abs(positions)
    return np.where(mag < ZERO_GUARD * width, srd * width * ZERO_KICK, srd * mag)


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


def seeking_step(agent: Agent, cfg: SwarmConfig, objective_fn, bounds: Bounds, rng) -> Agent:
    """One seeking-mode move: clone, mutate, evaluate, jump by probability.

    Makes smp - 1 mutated copies plus the current position when spc is set
    (smp mutated copies otherwise), perturbs cdc randomly chosen dimensions of
    each copy by +-srd of the coordinate value, clamps into the box, and moves
    to the candidate with the highest selection probability.
    """
    if agent.mode != "seeking":
        raise ValueError(f"agent is in {agent.mode!r} mode, expected 'seeking'")
    dim = bounds.dim
    pos = np.asarray(agent.position, dtype=float)
    n_copies = cfg.smp - 1 if cfg.spc else cfg.smp
    cand = np.broadcast_to(pos, (n_copies, dim)).copy()
    mask = _mutation_mask(rng, (n_copies, dim), cfg.cdc, dim)
    signs = np.where(rng.random((n_copies, dim)) < 0.5, -1.0, 1.0)
    cand += np.where(mask, signs * _mutation_steps(cand, cfg.srd, bounds.width), 0.0)
    np.clip(cand, bounds.lower, bounds.upper, out=cand)
    if cfg.spc:
        cand = np.vstack([pos[None, :], cand])
    fits = np.asarray(objective_fn(cand), dtype=float)
    pick = int(_select_best(_candidate_probabilities(fits), rng))
    return Agent(
        position=cand[pick].copy(),
        velocity=np.asarray(agent.velocity, dtype=float).copy(),
        mode="seeking",
        fitness=float(fits[pick]),
    )


def tracing_step(agent: Agent, global_best, cfg: SwarmConfig, bounds: Bounds, rng) -> Agent:
    """One tracing-mode move toward the best-known position.

    Per dimension: v <- w_d v + u c_d (best - x) with one uniform draw u per
    dimension, velocity clamped to +-v_frac of the box width, position moved
    by v and clamped into the box.  The fitness field is carried over
    unchanged; callers re-evaluate after the move.
    """
    if agent.mode != "tracing":
        raise ValueError(f"agent is in {agent.mode!r} mode, expected 'tracing'")
    dim = bounds.dim
    w_d, c_d = _adaptive_coefficients(cfg.w0, cfg.c0, dim)
    vmax = cfg.v_frac * bounds.width
    pos = np.asarray(agent.position, dtype=float)
    vel = np.asarray(agent.velocity, dtype=float)
    vel = w_d * vel + rng.random(dim) * c_d * (np.asarray(global_best, dtype=float) - pos)
    vel = np.clip(vel, -vmax, vmax)
    pos = np.clip(pos + vel, bounds.lower, bounds.upper)
    return Agent(position=pos, velocity=vel, mode="tracing", fitness=agent.fitness)


def _as_batch(objective_fn, dim):
    """Adapt a (m, dim) -> (m,) objective to stacked (layers, m, dim) calls."""

    def batched(pts):
        flat = np.asarray(objective_fn(pts.reshape(-1, dim)), dtype=float)
        return flat.reshape(pts.shape[:-1])

    return batched


def _adcso_engine(batch_obj, bounds: Bounds, cfg: SwarmConfig, n_layers, rng):
    """Run cfg.iter_max cat-swarm iterations on ``n_layers`` independent layers."""
    dim = bounds.dim
    if cfg.cdc > dim:
        raise ValueError(f"cdc = {cfg.cdc} exceeds the search dimension {dim}")
    lower, upper, width = bounds.lower, bounds.upper, bounds.width
    vmax = cfg.v_frac * width
    n = cfg.n_agents
    n_tracing = int(round(cfg.mr * n))
    n_seeking = n - n_tracing
    n_copies = cfg.smp - 1 if cfg.spc else cfg.smp
    per_agent = n_copies + 1 if cfg.spc else n_copies

    pos = lower + rng.random((n_layers, n, dim)) * width
    vel = -vmax + rng.random((n_layers, n, dim)) * (2.0 * vmax)
    fit = batch_obj(pos)
    evaluations = n

    rows = np.arange(n_layers)
    ib = np.argmin(fit, axis=1)
    best_pos = pos[rows, ib].copy()
    best_fit = fit[rows, ib].copy()
    trace = np.empty((n_layers, cfg.iter_max + 1))
    trace[:, 0] = best_fit

    # Mutated-copy block reused every iteration; the unmutated position is
    # prepended per agent when spc is on, as in the single-agent step.
    mutated = np.empty((n_layers, n_seeking, n_copies, dim))
    kick = cfg.srd * width * ZERO_KICK

    for t in range(1, cfg.iter_max + 1):
        order = np.argsort(rng.random((n_layers, n)), axis=1)
        tracing_idx = order[:, :n_tracing]
        seeking_idx = order[:, n_tracing:]

        if n_seeking:
            spos = np.take_along_axis(pos, seeking_idx[..., None], axis=1)
            np.copyto(mutated, spos[:, :, None, :])
            mask = _mutation_mask(rng, mutated.shape, cfg.cdc, dim) if cfg.cdc < dim else None
            step = np.abs(mutated)
            small = step < ZERO_GUARD * width
            step *= cfg.srd
            np.copyto(step, kick, where=small)
            step *= np.where(rng.random(mutated.shape) < 0.5, -1.0, 1.0)
            if mask is not None:
                step *= mask
            mutated += step
            np.clip(mutated, lower, upper, out=mutated)
            if cfg.spc:
                cand = np.concatenate([spos[:, :, None, :], mutated], axis=2)
            else:
                cand = mutated
            cand_fit = batch_obj(
                cand.reshape(n_layers, n_seeking * per_agent, dim)
            ).reshape(n_layers, n_seeking, per_agent)
            evaluations += n_seeking * per_agent
            pick = _select_best(_candidate_probabilities(cand_fit), rng)
            chosen = np.take_along_axis(cand, pick[..., None, None], axis=2)
            np.put_along_axis(pos, seeking_idx[..., None], chosen.squeeze(2), axis=1)
            np.put_along_axis(
                fit,
                seeking_idx,
                np.take_along_axis(cand_fit, pick[..., None], axis=2).squeeze(2),
                axis=1,
            )

        if n_tracing:
            w_d, c_d = _adaptive_coefficients(cfg.w0, cfg.c0, dim)
            tpos = np.take_along_axis(pos, tracing_idx[..., None], axis=1)
            tvel = np.take_along_axis(vel, tracing_idx[..., None], axis=1)
            draw = rng.random((n_layers, n_tracing, dim))
            tvel = w_d * tvel + draw * c_d * (best_pos[:, None, :] - tpos)
            np.clip(tvel, -vmax, vmax, out=tvel)
            tpos = tpos + tvel
            np.clip(tpos, lower, upper, out=tpos)
            np.put_along_axis(pos, tracing_idx[..., None], tpos, axis=1)
            np.put_along_axis(vel, tracing_idx[..., None], tvel, axis=1)
            np.put_along_axis(fit, tracing_idx, batch_obj(tpos), axis=1)
            evaluations += n_tracing

        ib = np.argmin(fit, axis=1)
        current = fit[rows, ib]
        improved = current < best_fit
        best_fit[improved] = current[improved]
        best_pos[improved] = pos[rows[improved], ib[improved]]
        trace[:, t] = best_fit

    return best_fit, best_pos, trace, evaluations


def _pso_engine(batch_obj, bounds: Bounds, cfg: PsoConfig, n_layers, rng):
    """Run cfg.iter_max global-best particle-swarm iterations per layer."""
    dim = bounds.dim
    lower, upper, width = bounds.lower, bounds.upper, bounds.width
    vmax = cfg.v_frac * width
    n = cfg.n_particles

    pos = lower + rng.random((n_layers, n, dim)) * width
    vel = -vmax + rng.random((n_layers, n, dim)) * (2.0 * vmax)
    fit = batch_obj(pos)
    evaluations = n

    pbest = pos.copy()
    pbest_fit = fit.copy()
    rows = np.arange(n_layers)
    ib = np.argmin(fit, axis=1)
    best_pos = pos[rows, ib].copy()
    best_fit = fit[rows, ib].copy()
    trace = np.empty((n_layers, cfg.iter_max + 1))
    trace[:, 0] = best_fit

    for t in range(1, cfg.iter_max + 1):
        r1 = rng.random((n_layers, n, dim))
        r2 = rng.random((n_layers, n, dim))
        vel = (cfg.w * vel
               + cfg.c1 * r1 * (pbest - pos)
               + cfg.c2 * r2 * (best_pos[:, None, :] - pos))
        np.clip(vel, -vmax, vmax, out=vel)
        pos = pos + vel
        np.clip(pos, lower, upper, out=pos)
        fit = batch_obj(pos)
        evaluations += n
        improved = fit < pbest_fit
        pbest[improved] = pos[improved]
        pbest_fit[improved] = fit[improved]
        ib = np.argmin(pbest_fit, axis=1)
        current = pbest_fit[rows, ib]
        better = current < best_fit
        best_fit[better] = current[better]
        best_pos[better] = pbest[rows[better], ib[better]]
        trace[:, t] = best_fit

    return best_fit, best_pos, trace, evaluations


def adcso_minimize(objective_fn, bounds: Bounds, cfg: SwarmConfig | None = None) -> RunTrace:
    """Minimize a vectorized objective with the cat-swarm search.

    ``objective_fn`` takes an (m, dim) batch of positions and returns m
    fitness values.  Runs exactly cfg.iter_max iterations; identical inputs
    and seed reproduce the run bit for bit.
    """
    cfg = cfg or SwarmConfig()
    rng = np.random.default_rng(cfg.seed)
    best_fit, best_pos, trace, evaluations = _adcso_engine(
        _as_batch(objective_fn, bounds.dim), bounds, cfg, 1, rng
    )
    return RunTrace(
        best_fitness_per_iter=trace[0],
        best_position=best_pos[0],
        best_fitness=float(best_fit[0]),
        evaluations=evaluations,
    )


def pso_minimize(objective_fn, bounds: Bounds, cfg: PsoConfig | None = None) -> RunTrace:
    """Minimize a vectorized objective with global-best particle swarm."""
    cfg = cfg or PsoConfig()
    rng = np.random.default_rng(cfg.seed)
    best_fit, best_pos, trace, evaluations = _pso_engine(
        _as_batch(objective_fn, bounds.dim), bounds, cfg, 1, rng
    )
    return RunTrace(
        best_fitness_per_iter=trace[0],
        best_position=best_pos[0],
        best_fitness=float(best_fit[0]),
        evaluations=evaluations,
    )


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
    least-squares estimator is deterministic and ignores ``repeats``.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    grid = order_grid(grid_step)
    check_fit_length(series)

    if estimator == "lsm":
        mean_fitness = np.empty(len(grid))
        fitted_params = []
        for i, r in enumerate(grid):
            params = lsm_fit(series, r)
            fitted_params.append(params)
            mean_fitness[i] = fit_series(series, params).mape
        best = int(np.argmin(mean_fitness))
        return OrderSearchResult(
            order=float(grid[best]),
            params=fitted_params[best],
            trace=None,
            grid=grid,
            mean_fitness=mean_fitness,
            estimator="lsm",
        )

    if estimator == "adcso":
        cfg = swarm_cfg or SwarmConfig()
        engine = _adcso_engine
    elif estimator == "pso":
        cfg = pso_cfg or PsoConfig()
        engine = _pso_engine
    else:
        raise ValueError(f"unknown estimator {estimator!r}")

    box = bounds or default_bounds(series)
    if box.dim != 2:
        raise ValueError("order search estimates (a, b): bounds must be 2-D")
    layer_orders = np.repeat(grid, repeats)
    evaluator = _MapeEvaluator(series.values, layer_orders)
    rng = np.random.default_rng(cfg.seed)
    best_fit, best_pos, trace, evaluations = engine(
        evaluator, box, cfg, len(layer_orders), rng
    )
    per_grid = best_fit.reshape(len(grid), repeats)
    mean_fitness = per_grid.mean(axis=1)
    best = int(np.argmin(mean_fitness))
    layer = best * repeats + int(np.argmin(per_grid[best]))
    params = GreyParams(r=float(grid[best]), a=best_pos[layer, 0], b=best_pos[layer, 1])
    best_trace = RunTrace(
        best_fitness_per_iter=trace[layer],
        best_position=best_pos[layer],
        best_fitness=float(best_fit[layer]),
        evaluations=evaluations,
    )
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
    if estimator not in ("lsm", "adcso", "pso"):
        raise ValueError(f"unknown estimator {estimator!r}")
    check_fit_length(series)
    if estimator == "lsm":
        return lsm_fit(series, r), None
    box = bounds or default_bounds(series)
    fitness = objective(series, r)
    if estimator == "adcso":
        trace = adcso_minimize(fitness, box, swarm_cfg or SwarmConfig())
    else:
        trace = pso_minimize(fitness, box, pso_cfg or PsoConfig())
    params = GreyParams(r=r, a=trace.best_position[0], b=trace.best_position[1])
    return params, trace
