import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import exact_response_series, oracle_reduce
from single_agent import Agent, seeking_step, tracing_step
from fracgrey import (
    WUHAN,
    ZHEJIANG,
    Bounds,
    DataError,
    GreyParams,
    PsoConfig,
    Series,
    SwarmConfig,
    adcso_minimize,
    default_bounds,
    estimate,
    fit_series,
    objective,
    order_search,
    pso_minimize,
    repeat_stats,
    run_benchmark,
)
from fracgrey import optim
from fracgrey.benchmark import BENCHMARK_ORDERS
from fracgrey.optim import (
    _MapeEvaluator,
    _adaptive_coefficients,
    _select_best,
    order_grid,
)

SPHERE_BOUNDS = Bounds(lower=[-5.0, -5.0], upper=[5.0, 5.0])


def sphere(points):
    return np.sum(np.atleast_2d(np.asarray(points, dtype=float)) ** 2, axis=-1)


class TestConfigs:
    def test_swarm_defaults_match_reference_settings(self):
        cfg = SwarmConfig()
        assert (cfg.n_agents, cfg.smp, cfg.srd, cfg.mr) == (40, 30, 0.2, 0.2)
        assert (cfg.c0, cfg.w0, cfg.iter_max) == (1.05, 0.6, 300)
        assert cfg.cdc == 2 and cfg.spc is True

    def test_pso_defaults_match_reference_settings(self):
        cfg = PsoConfig()
        assert (cfg.n_particles, cfg.c1, cfg.c2, cfg.w, cfg.iter_max) == (40, 1.5, 1.5, 0.7, 300)

    @pytest.mark.parametrize("kwargs", [
        dict(n_agents=0), dict(smp=0), dict(srd=-0.1), dict(cdc=0),
        dict(mr=0.0), dict(mr=1.0), dict(iter_max=0),
        dict(seed=-1), dict(srd=np.nan), dict(mr=np.nan), dict(c0=np.nan),
        dict(c0=np.inf), dict(w0=np.inf), dict(w0=-np.inf),
        dict(n_agents=np.nan),
    ])
    def test_swarm_validation(self, kwargs):
        with pytest.raises(ValueError):
            SwarmConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(n_particles=0), dict(iter_max=0), dict(seed=-1),
        dict(c1=np.nan), dict(c2=np.inf), dict(w=np.inf), dict(w=np.nan),
    ])
    def test_pso_validation(self, kwargs):
        with pytest.raises(ValueError):
            PsoConfig(**kwargs)

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            Bounds(lower=[0.0, 0.0], upper=[1.0])
        with pytest.raises(ValueError):
            Bounds(lower=[0.0], upper=[0.0])
        with pytest.raises(ValueError):
            Bounds(lower=[0.0], upper=[np.inf])
        # no RuntimeWarning either: pyproject.toml turns it into an error
        with pytest.raises(ValueError, match="width upper - lower overflows"):
            Bounds(lower=[0.0, -1e308], upper=[1.0, 1e308])
        assert Bounds(lower=[-8e307], upper=[8e307]).width[0] == 1.6e308

    def test_default_bounds_contain_reference_optimum(self, wuhan):
        box = default_bounds(wuhan)
        assert box.lower[0] <= 0.015 <= box.upper[0]
        assert box.lower[1] <= 212927.0 <= box.upper[1]


class TestSelectBest:
    @staticmethod
    def _ties(fitness, seed=0):
        return np.random.default_rng(seed).random(np.shape(fitness))

    def _picks(self, fitness, draws=50):
        f = np.array(fitness)
        return {int(_select_best(f, self._ties(f, seed))) for seed in range(draws)}

    def test_documented_example(self):
        f = np.array([5.0, 3.0, 9.0])
        assert _select_best(f, self._ties(f)) == 1

    def test_infinite_never_picked_beside_finite(self):
        assert self._picks([np.inf, 2.0, 4.0]) == {1}
        assert self._picks([np.inf, 7.0, np.inf]) == {1}

    def test_all_equal_reach_every_index(self):
        assert self._picks(np.full(6, 2.5)) == set(range(6))

    def test_all_infinite_reach_every_index(self):
        assert self._picks(np.full(4, np.inf)) == set(range(4))

    def test_equal_finite_with_infinite(self):
        assert self._picks([3.0, np.inf, 3.0]) == {0, 2}

    def test_rows_select_independently(self):
        rows = np.array([[5.0, 3.0, 9.0], [np.inf, 1.0, 0.5]])
        np.testing.assert_array_equal(_select_best(rows, self._ties(rows)), [1, 2])

    @given(st.lists(st.one_of(st.floats(0.0, 100.0), st.just(np.inf)),
                    min_size=1, max_size=10),
           st.integers(0, 2 ** 32 - 1))
    def test_pick_holds_the_row_minimum(self, fits, seed):
        f = np.array(fits)
        assert f[_select_best(f, self._ties(f, seed))] == f.min()

    def test_largest_tied_draw_wins(self):
        f = np.array([3.0, 1.0, 1.0, 1.0])
        assert _select_best(f, np.array([0.9, 0.2, 0.7, 0.5])) == 2


class TestSeekingStep:
    def setup_method(self):
        self.bounds = SPHERE_BOUNDS
        self.cfg = SwarmConfig(n_agents=4, smp=8, seed=0)

    def _agent(self, position):
        return Agent(position=np.array(position), velocity=np.zeros(2),
                     mode="seeking", fitness=float(sphere(position)[0]))

    def test_zero_mutation_keeps_position(self):
        cfg = SwarmConfig(n_agents=4, smp=8, srd=0.0, spc=True, seed=0)
        agent = self._agent([1.5, -2.0])
        stepped = seeking_step(agent, cfg, sphere, self.bounds, np.random.default_rng(1))
        np.testing.assert_array_equal(stepped.position, agent.position)

    def test_with_self_position_never_worse(self):
        rng = np.random.default_rng(2)
        agent = self._agent([3.0, 3.0])
        for _ in range(20):
            stepped = seeking_step(agent, self.cfg, sphere, self.bounds, rng)
            assert stepped.fitness <= agent.fitness
            agent = stepped

    def test_candidates_respect_bounds(self):
        agent = self._agent([5.0, -5.0])
        rng = np.random.default_rng(3)
        for _ in range(10):
            agent = seeking_step(agent, self.cfg, sphere, self.bounds, rng)
            assert np.all(agent.position >= self.bounds.lower)
            assert np.all(agent.position <= self.bounds.upper)

    def test_wrong_mode_rejected(self):
        agent = Agent(position=np.zeros(2), velocity=np.zeros(2), mode="tracing")
        with pytest.raises(ValueError):
            seeking_step(agent, self.cfg, sphere, self.bounds, np.random.default_rng(0))

    def test_single_dimension_mutation(self):
        # cdc=1 must leave exactly one coordinate of each mutated copy unchanged
        cfg = SwarmConfig(n_agents=4, smp=30, cdc=1, spc=False, seed=0)
        agent = self._agent([2.0, -3.0])
        stepped = seeking_step(agent, cfg, sphere, self.bounds, np.random.default_rng(4))
        changed = stepped.position != agent.position
        assert changed.sum() <= 1


class TestTracingStep:
    def test_adaptive_coefficients_two_dimensions(self):
        w_d, c_d = _adaptive_coefficients(0.6, 1.05, 2)
        np.testing.assert_allclose(w_d, [0.85, 0.6])
        np.testing.assert_allclose(c_d, [0.8, 1.05])

    def test_fixed_point_at_best_with_zero_velocity(self):
        cfg = SwarmConfig(seed=0)
        agent = Agent(position=np.array([1.0, 2.0]), velocity=np.zeros(2), mode="tracing")
        stepped = tracing_step(agent, np.array([1.0, 2.0]), cfg, SPHERE_BOUNDS,
                               np.random.default_rng(0))
        np.testing.assert_array_equal(stepped.position, agent.position)
        np.testing.assert_array_equal(stepped.velocity, np.zeros(2))

    def test_velocity_clamped_exactly(self):
        cfg = SwarmConfig(w0=1.0, seed=0)
        vmax = 0.2 * SPHERE_BOUNDS.width
        agent = Agent(position=np.zeros(2), velocity=np.array([50.0, -50.0]),
                      mode="tracing")
        stepped = tracing_step(agent, np.zeros(2), cfg, SPHERE_BOUNDS,
                               np.random.default_rng(0))
        np.testing.assert_array_equal(stepped.velocity, [vmax[0], -vmax[1]])

    def test_wrong_mode_rejected(self):
        agent = Agent(position=np.zeros(2), velocity=np.zeros(2), mode="seeking")
        with pytest.raises(ValueError):
            tracing_step(agent, np.zeros(2), SwarmConfig(), SPHERE_BOUNDS,
                         np.random.default_rng(0))


class TestObjective:
    def test_degenerate_development_coefficient(self, wuhan):
        # a = 0 scores the linear limit X(k) = x1 + b k; nearby a agree
        f = objective(wuhan, 0.25)
        limit = oracle_reduce(wuhan.values[0] + 2e5 * np.arange(5), 0.25)
        expected = 100.0 * np.mean(np.abs(limit[1:] / wuhan.values[1:] - 1.0))
        assert f(np.array([0.0, 2e5])) == pytest.approx(expected, rel=1e-12)
        assert f(np.array([1e-13, 2e5])) == pytest.approx(expected, rel=1e-11)
        assert f(np.array([-1e-13, 2e5])) == pytest.approx(expected, rel=1e-11)

    def test_batch_mixes_finite_and_infinite(self, wuhan):
        # e^(-a) overflows at a = -1000: that candidate alone is scored +inf
        f = objective(wuhan, 0.25)
        out = f(np.array([[0.0, 5.0], [-1000.0, 2e5], [0.1, 2e5]]))
        assert np.isfinite(out[0]) and out[1] == np.inf and np.isfinite(out[2])

    def test_exact_generator_scores_zero(self):
        r, a, b = 0.5, 0.08, 9.0
        series = exact_response_series(r, a, b, 10.0, 9)
        assert objective(series, r)(np.array([a, b])) < 1e-9

    def test_reference_least_squares_point(self, wuhan):
        from fracgrey import lsm_fit

        params = lsm_fit(wuhan, 0.25)
        value = objective(wuhan, 0.25)(np.array([params.a, params.b]))
        assert value == pytest.approx(1.57, abs=0.3)

    @pytest.mark.parametrize("block", [4, 20, 32768])
    def test_stacked_layers_match_single_order_objective(self, zhejiang, monkeypatch,
                                                         block):
        # block = 20 candidates splits the 4 x 9 stack into blocks of 2 layers;
        # block = 4 splits each layer's batch of 9 into 4 + 4 + 1
        monkeypatch.setattr(optim, "BLOCK_CANDIDATES", block)
        orders = [0.5, 0.21, 1.0, 0.5]
        rng = np.random.default_rng(5)
        points = np.stack([rng.uniform([-1.0, -7e6], [1.0, 7e6], (9, 2))
                           for _ in orders])
        stacked = _MapeEvaluator(zhejiang.values, orders)(points)
        for layer, r in enumerate(orders):
            np.testing.assert_array_equal(stacked[layer],
                                          objective(zhejiang, r)(points[layer]))

    @given(r=st.sampled_from([0.21, 0.5, 0.75, 1.0]),
           a=st.floats(-0.9, 0.9), b=st.floats(-1e6, 1e6))
    @settings(max_examples=60, deadline=None)
    @example(r=0.21, a=1.0553395965060077e-06, b=5489.0)
    @example(r=0.21, a=0.0, b=5489.0)
    @example(r=1.0, a=-0.0, b=-1e6)
    def test_matches_scalar_fit_path(self, r, a, b):
        series = WUHAN.series
        value = objective(series, r)(np.array([a, b]))
        report = fit_series(series, GreyParams(r=r, a=a, b=b))
        assert value == pytest.approx(report.mape, rel=1e-12, abs=1e-12)


class TestMinimizers:
    def test_adcso_deterministic(self):
        cfg = SwarmConfig(n_agents=10, smp=6, iter_max=30, seed=9)
        t1 = adcso_minimize(sphere, SPHERE_BOUNDS, cfg)
        t2 = adcso_minimize(sphere, SPHERE_BOUNDS, cfg)
        np.testing.assert_array_equal(t1.best_fitness_per_iter, t2.best_fitness_per_iter)
        np.testing.assert_array_equal(t1.best_position, t2.best_position)
        assert t1.best_fitness == t2.best_fitness

    def test_pso_deterministic(self):
        cfg = PsoConfig(n_particles=10, iter_max=30, seed=9)
        t1 = pso_minimize(sphere, SPHERE_BOUNDS, cfg)
        t2 = pso_minimize(sphere, SPHERE_BOUNDS, cfg)
        np.testing.assert_array_equal(t1.best_fitness_per_iter, t2.best_fitness_per_iter)
        np.testing.assert_array_equal(t1.best_position, t2.best_position)

    def test_traces_non_increasing_and_consistent(self):
        for trace in (
            adcso_minimize(sphere, SPHERE_BOUNDS, SwarmConfig(n_agents=8, smp=5, iter_max=40, seed=1)),
            pso_minimize(sphere, SPHERE_BOUNDS, PsoConfig(n_particles=8, iter_max=40, seed=1)),
        ):
            assert np.all(np.diff(trace.best_fitness_per_iter) <= 0)
            assert trace.best_fitness == trace.best_fitness_per_iter[-1]
            assert trace.best_fitness == pytest.approx(
                float(sphere(trace.best_position)[0]), rel=1e-12, abs=1e-300
            )

    def test_trace_length_and_evaluation_count(self):
        cfg = SwarmConfig(n_agents=12, smp=6, iter_max=40, mr=0.2, seed=5)
        trace = adcso_minimize(sphere, SPHERE_BOUNDS, cfg)
        assert len(trace.best_fitness_per_iter) == cfg.iter_max + 1
        n_tracing = round(cfg.mr * cfg.n_agents)
        per_iter = (cfg.n_agents - n_tracing) * cfg.smp + n_tracing
        assert trace.evaluations == cfg.n_agents + cfg.iter_max * per_iter

        pso_cfg = PsoConfig(n_particles=12, iter_max=40, seed=5)
        pso_trace = pso_minimize(sphere, SPHERE_BOUNDS, pso_cfg)
        assert pso_trace.evaluations == 12 * 41

    @pytest.mark.parametrize("dim,cdc,spc,smp,scored", [
        (2, 2, True, 30, 5),     # kept position + 2**2 sign combinations
        (2, 2, False, 30, 4),
        (2, 1, True, 30, 10),    # cdc < dim: kept position + 3**2 option combinations
        (3, 1, True, 30, 28),
        (2, 1, False, 30, 9),
        (3, 3, True, 30, 9),
        (2, 2, True, 5, 5),      # the table is not smaller: score the copies
        (6, 2, True, 30, 30),
        (6, 6, True, 30, 30),
        (30, 30, True, 30, 30),  # 2**30 entries: never built
    ])
    def test_seeking_scores_each_distinct_candidate_once(self, dim, cdc, spc, smp, scored):
        sizes = []

        def counting(points):
            sizes.append(len(points))
            return sphere(points)

        cfg = SwarmConfig(n_agents=10, smp=smp, cdc=cdc, spc=spc, iter_max=3, seed=1)
        trace = adcso_minimize(counting, Bounds([-5.0] * dim, [5.0] * dim), cfg)
        n_tracing = round(cfg.mr * cfg.n_agents)
        n_seeking = cfg.n_agents - n_tracing
        # One call per iteration; the kept position (spc) is not scored again.
        assert sizes == [cfg.n_agents] + [n_seeking * (scored - spc) + n_tracing] * cfg.iter_max
        # The evaluation count stays the algorithm's budget: one per copy.
        assert trace.evaluations == cfg.n_agents + cfg.iter_max * (n_seeking * smp + n_tracing)

    def test_every_evaluated_point_within_bounds(self):
        box = Bounds(lower=[-3.0, -7.0], upper=[2.0, 5.0])
        seen = []

        def recording(points):
            pts = np.atleast_2d(np.asarray(points, dtype=float))
            seen.append(pts.copy())
            return np.sum(pts ** 2, axis=-1)

        adcso_minimize(recording, box, SwarmConfig(n_agents=10, smp=5, iter_max=30, seed=2))
        pso_minimize(recording, box, PsoConfig(n_particles=10, iter_max=30, seed=2))
        everything = np.vstack(seen)
        assert np.all(everything >= box.lower - 0.0)
        assert np.all(everything <= box.upper + 0.0)

    def test_cdc_larger_than_dimension_rejected(self):
        def unreachable(points):
            raise AssertionError("evaluated before the config was checked")

        with pytest.raises(ValueError, match="cdc = 3 exceeds"):
            adcso_minimize(unreachable, SPHERE_BOUNDS, SwarmConfig(cdc=3))

    @pytest.mark.parametrize("cdc", [2, 1])
    def test_seeking_step_past_float_range_clips_to_the_box(self, cdc):
        # SRD x |x| and SRD x width overflow; a RuntimeWarning fails the test.
        box = Bounds([-1e308] * 2, [7e307] * 2)
        cfg = SwarmConfig(srd=5, cdc=cdc, n_agents=5, smp=5, iter_max=3)
        trace = adcso_minimize(lambda p: np.abs(p).max(axis=1), box, cfg)
        assert np.isfinite(trace.best_fitness)
        assert np.all((box.lower <= trace.best_position) & (trace.best_position <= box.upper))

    @pytest.mark.parametrize("minimize,cfg", [
        (adcso_minimize, SwarmConfig(cdc=1, n_agents=10, smp=5, iter_max=20)),
        (pso_minimize, PsoConfig(c1=0.5, c2=0.5, n_particles=10, iter_max=20)),
    ], ids=["adcso", "pso"])
    def test_move_past_float_range_clips_to_the_box(self, minimize, cfg):
        # Positions plus velocities pass the float maximum near the upper edge.
        box = Bounds([0.0], [1.7e308])
        trace = minimize(lambda p: -p[:, 0], box, cfg)
        assert trace.best_position[0] == box.upper[0]

    @pytest.mark.parametrize("minimize,cfg,setting", [
        (adcso_minimize, SwarmConfig(c0=1e308, w0=1e308), "c0 = 1e+308"),
        (pso_minimize, PsoConfig(c1=1e308, w=1e308), "c1 = 1e+308"),
    ], ids=["adcso", "pso"])
    def test_velocity_that_can_be_nan_rejected_before_any_draw(self, minimize, cfg, setting):
        def unreachable(points):
            raise AssertionError("evaluated before the config was checked")

        with pytest.raises(ValueError, match=re.escape(f"{setting} is too large for this")):
            minimize(unreachable, SPHERE_BOUNDS, cfg)

    def test_beats_random_search_with_same_budget(self):
        runs = [
            adcso_minimize(sphere, SPHERE_BOUNDS,
                           SwarmConfig(n_agents=10, smp=5, iter_max=50, seed=s))
            for s in range(10)
        ]
        budget = runs[0].evaluations
        random_best = []
        for s in range(10):
            rng = np.random.default_rng(10_000 + s)
            points = rng.uniform(-5.0, 5.0, size=(budget, 2))
            random_best.append(float(sphere(points).min()))
        assert np.mean([r.best_fitness for r in runs]) < np.mean(random_best)


class TestEngineMatchesSingleAgentSteps:
    """A one-agent swarm consumes random draws in the per-agent layout, so a
    single iteration of the minimizer must reproduce the step functions."""

    def _init_draws(self, rng, bounds, cfg):
        width = bounds.width
        pos = bounds.lower + rng.random((1, 1, 2)) * width
        vmax = optim.V_FRAC * width
        vel = -vmax + rng.random((1, 1, 2)) * (2.0 * vmax)
        return pos[0, 0], vel[0, 0]

    def test_seeking(self, wuhan):
        self._check_seeking(wuhan, seed=11)

    @pytest.mark.parametrize("seed", [12, 13, 14])
    @pytest.mark.parametrize("overrides", [{}, dict(spc=False), dict(cdc=1),
                                           dict(cdc=1, smp=30)],
                             ids=["default", "no-spc", "cdc1", "cdc1-smp30"])
    def test_seeking_over_seeds(self, wuhan, seed, overrides):
        self._check_seeking(wuhan, seed, **overrides)

    def _check_seeking(self, wuhan, seed, smp=6, **overrides):
        fitness = objective(wuhan, 0.5)
        bounds = default_bounds(wuhan)
        cfg = SwarmConfig(n_agents=1, smp=smp, iter_max=1, mr=0.2, seed=seed, **overrides)
        run = adcso_minimize(fitness, bounds, cfg)

        rng = np.random.default_rng(seed)
        pos, vel = self._init_draws(rng, bounds, cfg)
        f0 = float(fitness(pos))
        rng.random((1, 1))  # the engine's group-partition draw
        agent = Agent(position=pos.copy(), velocity=vel.copy(),
                      mode="seeking", fitness=f0)
        stepped = seeking_step(agent, cfg, fitness, bounds, rng)
        assert run.best_fitness == min(f0, stepped.fitness)
        expected = stepped.position if stepped.fitness < f0 else pos
        np.testing.assert_array_equal(run.best_position, expected)

    def test_tracing(self, wuhan):
        fitness = objective(wuhan, 0.5)
        bounds = default_bounds(wuhan)
        cfg = SwarmConfig(n_agents=1, iter_max=1, mr=0.9, seed=3)
        run = adcso_minimize(fitness, bounds, cfg)

        rng = np.random.default_rng(3)
        pos, vel = self._init_draws(rng, bounds, cfg)
        f0 = float(fitness(pos))
        rng.random((1, 1))
        agent = Agent(position=pos.copy(), velocity=vel.copy(),
                      mode="tracing", fitness=f0)
        stepped = tracing_step(agent, pos.copy(), cfg, bounds, rng)
        f1 = float(fitness(stepped.position))
        assert run.best_fitness == min(f0, f1)
        expected = stepped.position if f1 < f0 else pos
        np.testing.assert_array_equal(run.best_position, expected)


class TestRepeatStats:
    def test_single_repeat_degenerate_stats(self):
        cfg = SwarmConfig(n_agents=8, smp=5, iter_max=20, seed=4)
        stats = repeat_stats(sphere, SPHERE_BOUNDS, cfg, repeats=1)
        assert stats.mean == stats.best_fitnesses.min() == stats.best_fitnesses.max()
        assert stats.stddev == 0.0
        assert len(stats.traces) == 1

    def test_seeds_offset_from_config(self):
        cfg = SwarmConfig(n_agents=8, smp=5, iter_max=20, seed=100)
        stats = repeat_stats(sphere, SPHERE_BOUNDS, cfg, repeats=3)
        for i in range(3):
            solo = adcso_minimize(sphere, SPHERE_BOUNDS,
                                  SwarmConfig(n_agents=8, smp=5, iter_max=20, seed=100 + i))
            assert stats.traces[i].best_fitness == solo.best_fitness
            np.testing.assert_array_equal(stats.traces[i].best_position,
                                          solo.best_position)

    def test_pso_dispatch(self):
        cfg = PsoConfig(n_particles=8, iter_max=20, seed=4)
        stats = repeat_stats(sphere, SPHERE_BOUNDS, cfg, repeats=2)
        solo = pso_minimize(sphere, SPHERE_BOUNDS, PsoConfig(n_particles=8, iter_max=20, seed=4))
        assert stats.best_fitnesses[0] == solo.best_fitness

    def test_invalid_repeats(self):
        with pytest.raises(ValueError):
            repeat_stats(sphere, SPHERE_BOUNDS, SwarmConfig(), repeats=0)


# The configs of the golden CLI transcripts (tests/test_golden_cli.py) and the
# default cat swarm, cut to 30 iterations.
SINGLE_LAYER_CONFIGS = {
    "adcso": SwarmConfig(iter_max=30, seed=1),
    "cdc1": SwarmConfig(cdc=1, spc=False, n_agents=10, iter_max=30, seed=1),
    "m1": SwarmConfig(smp=1, n_agents=10, iter_max=30, seed=2),
    "pso": PsoConfig(n_particles=10, c1=2.0, iter_max=30, seed=1),
}


class TestEstimate:
    @pytest.mark.parametrize("dataset", [WUHAN, ZHEJIANG], ids=lambda d: d.name)
    @pytest.mark.parametrize("r", BENCHMARK_ORDERS)
    @pytest.mark.parametrize("name", sorted(SINGLE_LAYER_CONFIGS))
    def test_one_stacked_layer_is_the_single_layer_run(self, dataset, r, name):
        cfg = SINGLE_LAYER_CONFIGS[name]
        series = dataset.series
        if isinstance(cfg, SwarmConfig):
            params, trace = estimate(series, r, "adcso", swarm_cfg=cfg)
            solo = adcso_minimize(objective(series, r), default_bounds(series), cfg)
        else:
            params, trace = estimate(series, r, "pso", pso_cfg=cfg)
            solo = pso_minimize(objective(series, r), default_bounds(series), cfg)
        assert trace.best_fitness_per_iter.tobytes() == solo.best_fitness_per_iter.tobytes()
        assert trace.best_position.tobytes() == solo.best_position.tobytes()
        assert trace.best_fitness == solo.best_fitness
        assert trace.evaluations == solo.evaluations
        assert (params.r, params.a, params.b) == (r, *solo.best_position)

    @pytest.mark.parametrize("estimator", ["adcso", "pso"])
    def test_no_finite_fit_is_a_data_error(self, estimator):
        # b / x1 overflows unless |b| < 2e-12, which these short runs never reach
        tiny_first = Series(labels=[1, 2, 3, 4], values=[1e-320, 2.0, 3.0, 4.0])
        cfgs = {"swarm_cfg": SwarmConfig(n_agents=8, smp=5, iter_max=5),
                "pso_cfg": PsoConfig(n_particles=8, iter_max=5)}
        with pytest.raises(DataError, match="no \\(a, b\\) in the search box"):
            estimate(tiny_first, 0.5, estimator, **cfgs)
        with pytest.raises(DataError, match="no \\(a, b\\) in the search box"):
            order_search(tiny_first, 0.5, estimator, 1, **cfgs)

    def test_box_overflow_is_a_data_error(self):
        # 2 x peak is finite, the box width 4 x peak is not
        near_max = Series(labels=[1, 2, 3, 4], values=[8e307, 8.5e307, 8.7e307, 8.75e307])
        with pytest.raises(DataError, match="too large for the search box"):
            default_bounds(near_max)
        with pytest.raises(DataError, match="too large for the search box"):
            estimate(near_max, 0.5, "pso")


def _no_run(*args, **kwargs):
    raise AssertionError("the plan should be rejected before any swarm runs")


class TestPlanLimits:
    def test_default_plans_fit_at_the_run_limit(self):
        optim.check_runs(optim.MAX_RUNS, SwarmConfig(iter_max=1000))
        optim.check_runs(optim.MAX_RUNS, PsoConfig(iter_max=1000))
        optim.check_runs(optim.MAX_RUNS // 6 * 3, SwarmConfig(), PsoConfig())
        optim.check_runs(1, SwarmConfig(n_agents=optim.MAX_CANDIDATES // 30))

    @pytest.mark.parametrize("runs,cfgs,what", [
        (optim.MAX_RUNS // 2 + 1, (SwarmConfig(), PsoConfig()), "seeded swarm runs"),
        (optim.MAX_RUNS, (PsoConfig(n_particles=41),), "agents"),
        (1, (SwarmConfig(n_agents=optim.MAX_AGENTS + 1, smp=1),), "agents"),
        (optim.MAX_RUNS, (SwarmConfig(smp=31),), "candidates"),
        (1, (SwarmConfig(smp=optim.MAX_CANDIDATES // 40 + 1),), "candidates"),
        (optim.MAX_RUNS, (SwarmConfig(iter_max=1001),), "trace entries"),
        (1, (PsoConfig(iter_max=optim.MAX_TRACE),), "trace entries"),
    ])
    def test_over_a_limit_rejected(self, runs, cfgs, what):
        with pytest.raises(ValueError, match=f"{what}; the limit is"):
            optim.check_runs(runs, *cfgs)

    @pytest.mark.parametrize("cfg", [
        SwarmConfig(iter_max=10 ** 12), SwarmConfig(n_agents=10 ** 9),
        SwarmConfig(smp=10 ** 9), PsoConfig(iter_max=10 ** 12),
        PsoConfig(n_particles=10 ** 9),
    ])
    def test_every_entry_point_checks_the_config(self, wuhan, monkeypatch, cfg):
        monkeypatch.setattr(optim, "_run", _no_run)
        swarm = isinstance(cfg, SwarmConfig)
        estimator, minimize = ("adcso", adcso_minimize) if swarm else ("pso", pso_minimize)
        given = {"swarm_cfg" if swarm else "pso_cfg": cfg}
        for call in (lambda: minimize(sphere, SPHERE_BOUNDS, cfg),
                     lambda: repeat_stats(sphere, SPHERE_BOUNDS, cfg, 1),
                     lambda: estimate(wuhan, 0.5, estimator, **given),
                     lambda: order_search(wuhan, 0.5, estimator, 1, **given),
                     lambda: run_benchmark(WUHAN, repeats=1, **given)):
            with pytest.raises(ValueError, match="the limit is"):
                call()


class TestOrderSearch:
    def test_grid_construction(self):
        np.testing.assert_allclose(order_grid(0.5), [0.5, 1.0])
        np.testing.assert_allclose(order_grid(0.3), [0.3, 0.6, 0.9])
        assert len(order_grid(0.01)) == 100
        assert len(order_grid(0.001)) == 1000
        with pytest.raises(ValueError, match="limit is 1000"):
            order_grid(0.000999)
        with pytest.raises(ValueError, match="limit is 1000"):
            order_grid(1e-9)
        with pytest.raises(ValueError):
            order_grid(0.0)
        with pytest.raises(ValueError):
            order_grid(0.6)

    @pytest.mark.parametrize("estimator", ["lsm", "pso", "adcso"])
    def test_run_limit_checked_first(self, wuhan, estimator):
        # 2 orders x 10^11 repeats: rejected before any array is built
        with pytest.raises(ValueError, match=f"limit is {optim.MAX_RUNS}"):
            order_search(wuhan, grid_step=0.5, estimator=estimator, repeats=10 ** 11)
        with pytest.raises(ValueError, match=f"limit is {optim.MAX_RUNS}"):
            order_search(wuhan, grid_step=0.001, estimator=estimator,
                         repeats=optim.MAX_RUNS // 1000 + 1)

    def test_lsm_recovers_exact_generating_order(self):
        series = exact_response_series(0.5, 0.05, 8.0, 10.0, 9)
        result = order_search(series, grid_step=0.01, estimator="lsm")
        assert result.order == 0.5
        assert result.trace is None
        assert result.params.r == 0.5
        assert len(result.grid) == len(result.mean_fitness) == 100

    def test_swarm_search_deterministic(self, wuhan):
        cfg = SwarmConfig(n_agents=8, smp=5, iter_max=25, seed=6)
        r1 = order_search(wuhan, grid_step=0.25, estimator="adcso", repeats=2, swarm_cfg=cfg)
        r2 = order_search(wuhan, grid_step=0.25, estimator="adcso", repeats=2, swarm_cfg=cfg)
        assert r1.order == r2.order
        np.testing.assert_array_equal(r1.mean_fitness, r2.mean_fitness)
        assert (r1.params.a, r1.params.b) == (r2.params.a, r2.params.b)

    def test_swarm_search_returns_consistent_best(self, wuhan):
        cfg = SwarmConfig(n_agents=10, smp=5, iter_max=30, seed=1)
        result = order_search(wuhan, grid_step=0.2, estimator="adcso", repeats=2, swarm_cfg=cfg)
        assert result.order in result.grid
        assert result.trace is not None
        assert np.all(np.diff(result.trace.best_fitness_per_iter) <= 0)
        scored = objective(wuhan, result.order)(
            np.array([result.params.a, result.params.b]))
        assert scored == pytest.approx(result.trace.best_fitness, rel=1e-12)

    def test_pso_search_runs(self, wuhan):
        cfg = PsoConfig(n_particles=8, iter_max=25, seed=2)
        result = order_search(wuhan, grid_step=0.5, estimator="pso", repeats=2, pso_cfg=cfg)
        assert result.order in (0.5, 1.0)

    def test_short_series_rejected_by_every_estimator(self):
        short = Series(labels=[1, 2, 3], values=[1.0, 2.0, 3.0])
        for estimator in ("lsm", "pso", "adcso"):
            with pytest.raises(DataError, match="too short"):
                estimate(short, 0.5, estimator=estimator)
            with pytest.raises(DataError, match="too short"):
                order_search(short, grid_step=0.5, estimator=estimator, repeats=1)

    def test_validation(self, wuhan):
        with pytest.raises(ValueError):
            order_search(wuhan, grid_step=0.0)
        with pytest.raises(ValueError):
            order_search(wuhan, grid_step=0.25, repeats=0)
        with pytest.raises(ValueError):
            order_search(wuhan, grid_step=0.25, estimator="downhill")
