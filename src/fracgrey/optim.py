"""Swarm estimators for the grey-model parameters (a, b) and the order grid search.

Two box-bounded minimizers over the percentage-error objective:

* cat-swarm search with adaptive tracing coefficients: every iteration the
  population is randomly split by a mixture ratio into a small tracing group,
  which moves toward the best position found so far with per-dimension
  adaptive inertia/acceleration, and a seeking group, whose members clone
  themselves, mutate the clones by a fraction of their own coordinate values,
  and jump to the candidate of lowest fitness, ties broken at random;
* global-best particle swarm with fixed inertia and two acceleration terms.

Both clamp positions to the search box and velocities to a fraction of the box
width, keep the best-ever solution in memory (so best-so-far traces are
non-increasing), and are fully deterministic given their seed.  One driver,
`_run`, owns what both share: the initial draws, the best-so-far and the
trace; each swarm adds only its per-iteration moves, on whole populations of
stacked layers.  At the default cdc = dim, a seeking agent's copies move
every coordinate by -s or +s, so they repeat a few points (on the (a, b)
box, 4 new points against 29 copies).  The cat-swarm engine scores each
distinct seeking candidate once and does not score an agent's kept position
again, since its fitness is known; an iteration scores all its new points,
seeking candidates and tracing moves, in one objective call.  The draws and
results are those of scoring every candidate one by one.

The objective is the in-sample percentage error of the model values from
``greymodel.restored_steps``, the O(n) recurrence that ``fit_series`` uses
too.  It is defined for every finite (a, b), a = 0 included, and a candidate
whose error is not finite scores +inf.  The same holds for any objective: a
non-finite fitness (NaN, +inf or -inf) counts as +inf from where it enters the
engine, so the search routes around it.  Objective functions are pure; a run's
random draws all happen in one deterministic serial order, so results never
depend on how evaluations are scheduled.  Distinct runs share no state.
"""

import itertools
import math
from dataclasses import dataclass, fields, replace

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

# The largest plan one call may ask for, checked before anything is built.
# MAX_RUNS seeded swarm runs (order search: orders x repeats; step 0.001 x
# repeats 10) fit at the default population, copies and iter_max up to 1000.
MAX_RUNS = 10_000
MAX_AGENTS = 40 * MAX_RUNS  # runs x population
MAX_CANDIDATES = 30 * MAX_AGENTS  # runs x population x candidates per agent
MAX_TRACE = 1001 * MAX_RUNS  # runs x (iter_max + 1)

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


def _check_finite(cfg):
    """Reject a config with a NaN or infinite setting."""
    for field in fields(cfg):
        value = getattr(cfg, field.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{field.name} must be finite, got {value}")


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
        _check_finite(self)
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
        _check_finite(self)
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
    worked out from the config; it does not count the points scored: the
    cat-swarm engine scores repeated seeking copies once, does not score a
    seeking agent's kept position again and makes one objective call per
    iteration.
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
    observation at a time.  Candidates are scored in blocks of whole layers,
    or of part of one layer's batch when that batch is larger, of at most
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
        cols = max(1, min(batch, BLOCK_CANDIDATES))
        rows = max(1, BLOCK_CANDIDATES // cols)
        fitness = np.zeros((layers, batch))
        with np.errstate(all="ignore"):
            for lo, left in itertools.product(range(0, layers, rows), range(0, batch, cols)):
                block, part = slice(lo, lo + rows), slice(left, left + cols)
                total = fitness[block, part]
                steps = restored_steps(self._x[0], pts[block, part, 0], pts[block, part, 1],
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
    """Choose ``cdc`` dimensions to mutate per candidate (all, if cdc == dim).

    Each candidate draws one uniform rank per dimension; the ``cdc``
    dimensions of lowest rank mutate.
    """
    if cdc >= dim:
        return np.ones(shape, dtype=bool)
    lowest = rng.random(shape).argsort(axis=-1)[..., :cdc]
    mask = np.zeros(shape, dtype=bool)
    np.put_along_axis(mask, lowest, True, axis=-1)
    return mask


def _select_best(fitness, ties) -> np.ndarray:
    """Index of the lowest fitness per row, ties broken uniformly.

    ``ties`` holds uniform draws of the shape of ``fitness``: among the tied
    entries of a row, the one with the largest draw wins.
    """
    tied = fitness == fitness.min(axis=-1, keepdims=True)
    return np.argmax(tied * ties, axis=-1)


def _as_batch(objective_fn, dim):
    """Adapt a (m, dim) -> (m,) objective to stacked calls; non-finite values become +inf."""

    def batched(pts):
        flat = np.asarray(objective_fn(pts.reshape(-1, dim)), dtype=float)
        return np.where(np.isfinite(flat), flat, np.inf).reshape(pts.shape[:-1])

    return batched


def _seeking_options(dim):
    """Which coordinates of each seeking table entry move to x + s.

    Entry j moves coordinate d to clip(x + s) when bit d of j is set and to
    clip(x - s) otherwise.
    """
    return np.arange(2 ** dim)[:, None] >> np.arange(dim) & 1


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

    An iteration scores its new points in one objective call: the seeking
    agents' moved candidates and the tracing agents' new positions.  Its
    draws come in a fixed order: the group split, the seeking mask (cdc <
    dim) and coins, the seeking tie-breaks, then the tracing draw.

    Seeking scores each distinct candidate once.  When every coordinate
    moves (cdc == dim, the default), a copy moves each coordinate x to
    clip(x - s) or clip(x + s), so an agent's smp - 1 copies (smp without
    spc) take at most 2**dim points, and its table holds those points.  When
    cdc < dim, or when that table would not be smaller than the copies, the
    table is the copies themselves.  The kept position (spc) is not scored
    again: its fitness is the agent's current one, which the objective gave
    at that position.  The selection rule gets each copy's fitness looked up
    from the table, so the draws, the pick and every result are those of
    scoring all copies one by one.
    """
    dim = bounds.dim
    if cfg.cdc > dim:
        raise ValueError(f"cdc = {cfg.cdc} exceeds the search dimension {dim}")
    n = cfg.n_agents
    n_tracing = int(round(cfg.mr * n))
    n_seeking = n - n_tracing
    per_agent = cfg.smp  # candidates per seeking agent, the kept position included
    offset = int(cfg.spc)  # candidate 0 of an agent is its kept position
    n_copies = per_agent - offset
    pos, vel, fit, best_pos = yield n, n_seeking * per_agent + n_tracing

    lower, upper, width = bounds.lower, bounds.upper, bounds.width
    vmax = cfg.v_frac * width
    w_d, c_d = _adaptive_coefficients(cfg.w0, cfg.c0, dim)
    n_layers = len(pos)
    rows = np.arange(n_layers)

    # One row of ``points`` per layer: the kept positions, each seeking
    # agent's ``moved`` table entries, then the tracing positions.  The
    # objective scores all but the kept positions, in one call; ``fitness``
    # holds the value of every point.  ``codes`` holds the flat index into
    # ``fitness`` (and the points) of each of a seeking agent's per_agent
    # candidates, the kept position first when spc is on.
    tabled = cfg.cdc == dim and 2 ** dim < n_copies
    moved = 2 ** dim if tabled else n_copies
    kept = n_seeking * offset
    scored = kept + n_seeking * moved
    points = np.empty((n_layers, scored + n_tracing, dim))
    fitness = np.empty(points.shape[:2])
    table = points[:, kept:scored].reshape(n_layers, n_seeking, moved, dim)
    tracing = points[:, scored:]
    layer_first = rows[:, None, None] * points.shape[1]
    codes = np.empty((n_layers, n_seeking, per_agent), dtype=np.intp)
    codes[:, :, :offset] = layer_first + np.arange(n_seeking)[:, None]
    copy_codes = codes[:, :, offset:]
    copy_first = layer_first + kept + np.arange(n_seeking)[:, None] * moved
    if tabled:
        options = np.empty((n_layers, n_seeking, 2, dim))  # minus, plus
        take = (_seeking_options(dim) * dim + np.arange(dim)).ravel()
    else:
        copy_codes[...] = copy_first + np.arange(moved)
    copy_shape = (n_layers, n_seeking, n_copies, dim)
    ties = np.empty(codes.shape)
    kick = cfg.srd * width * ZERO_KICK
    agents = np.arange(n_layers * n_seeking)

    while True:
        order = np.argsort(rng.random((n_layers, n)), axis=1)
        tracers = rows[:, None], order[:, :n_tracing]
        seekers = rows[:, None], order[:, n_tracing:]

        if n_seeking:
            spos = pos[seekers]
            mask = _mutation_mask(rng, copy_shape, cfg.cdc, dim) if cfg.cdc < dim else None
            plus = rng.random(copy_shape) >= 0.5  # each copy's coins; the draws are not kept
            step = np.abs(spos)
            small = step < ZERO_GUARD * width
            step *= cfg.srd
            np.copyto(step, kick, where=small)
            if tabled:
                np.subtract(spos, step, out=options[:, :, 0])
                np.add(spos, step, out=options[:, :, 1])
                np.clip(options, lower, upper, out=options)
                np.take(options.reshape(n_layers, n_seeking, 2 * dim), take, axis=2,
                        out=table.reshape(n_layers, n_seeking, moved * dim))
                np.add(copy_first, plus[..., 0], out=copy_codes)
                for d in range(1, dim):
                    copy_codes += plus[..., d] << d
            else:
                np.multiply(step[:, :, None, :], np.where(plus, 1.0, -1.0), out=table)
                if mask is not None:
                    table *= mask
                table += spos[:, :, None, :]
                np.clip(table, lower, upper, out=table)
            rng.random(out=ties)
            if kept:
                points[:, :kept] = spos
                fitness[:, :kept] = fit[seekers]

        if n_tracing:
            tpos = pos[tracers]
            tvel = vel[tracers]
            draw = rng.random((n_layers, n_tracing, dim))
            tvel = w_d * tvel + draw * c_d * (best_pos[:, None, :] - tpos)
            np.clip(tvel, -vmax, vmax, out=tvel)
            np.add(tpos, tvel, out=tracing)
            np.clip(tracing, lower, upper, out=tracing)
            vel[tracers] = tvel

        if points.shape[1] > kept:
            fitness[:, kept:] = batch_obj(points[:, kept:])

        if n_seeking:
            pick = _select_best(fitness.reshape(-1)[codes], ties)
            chosen = codes.reshape(-1, per_agent)[agents, pick.ravel()]
            pos[seekers] = points.reshape(-1, dim)[chosen].reshape(n_layers, n_seeking, dim)
            fit[seekers] = fitness.reshape(-1)[chosen].reshape(n_layers, n_seeking)
        if n_tracing:
            pos[tracers] = tracing
            fit[tracers] = fitness[:, scored:]

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
    check_runs(1, cfg)
    batch_obj = _as_batch(objective_fn, bounds.dim)
    rng = np.random.default_rng(cfg.seed)
    return _layer_trace(_run(moves, batch_obj, bounds, cfg, 1, rng), 0)


def adcso_minimize(objective_fn, bounds: Bounds, cfg: SwarmConfig | None = None) -> RunTrace:
    """Minimize a vectorized objective with the cat-swarm search.

    ``objective_fn`` takes an (m, dim) batch of positions and returns m fitness
    values; NaN, +inf and -inf all count as +inf.  Runs exactly cfg.iter_max
    iterations; identical inputs and seed reproduce the run bit for bit.
    """
    return _minimize(_adcso_moves, objective_fn, bounds, cfg or SwarmConfig())


def pso_minimize(objective_fn, bounds: Bounds, cfg: PsoConfig | None = None) -> RunTrace:
    """Minimize a vectorized objective with global-best particle swarm.

    NaN, +inf and -inf fitness all count as +inf, as in :func:`adcso_minimize`.
    """
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
    check_runs(repeats, cfg)
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


def _run_sizes(cfg):
    """Agents, candidates and trace entries of one seeded run of ``cfg``."""
    if isinstance(cfg, SwarmConfig):
        return cfg.n_agents, cfg.n_agents * cfg.smp, cfg.iter_max + 1
    return cfg.n_particles, cfg.n_particles, cfg.iter_max + 1


def check_runs(runs: int, *cfgs) -> None:
    """Reject a plan of ``runs`` seeded runs of each swarm config in ``cfgs``.

    The plan may ask for at most ``MAX_RUNS`` runs in all, and its runs
    together for at most ``MAX_AGENTS`` agents, ``MAX_CANDIDATES`` candidates
    (agents x candidates per agent, one per particle) and ``MAX_TRACE`` trace
    entries (iter_max + 1 per run).  With no config, only the runs count.
    """
    totals = [runs * max(len(cfgs), 1)]
    totals += [runs * sum(sizes) for sizes in zip(*map(_run_sizes, cfgs))]
    limits = [("seeded swarm runs", MAX_RUNS), ("agents", MAX_AGENTS),
              ("candidates", MAX_CANDIDATES), ("trace entries", MAX_TRACE)]
    for total, (what, limit) in zip(totals, limits):
        if total > limit:
            raise ValueError(f"the plan asks for {total} {what}; the limit is {limit}")


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
    plan of grid size times ``repeats`` runs must pass :func:`check_runs`.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    grid = order_grid(grid_step)
    if estimator == "lsm":
        check_runs(len(grid) * repeats)
    else:
        cfg, moves, _ = _swarm(estimator, swarm_cfg, pso_cfg)
        check_runs(len(grid) * repeats, cfg)
    check_fit_length(series)

    if estimator == "lsm":
        fitted = [lsm_fit(series, r) for r in grid]
        mean_fitness = np.array([fit_series(series, p).mape for p in fitted])
        best = int(np.argmin(mean_fitness))
        params, best_trace = fitted[best], None
    else:
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
