"""Single-agent cat-swarm steps: the reference the stacked engine is checked against.

``seeking_step`` and ``tracing_step`` move one agent with the update rules
of the cat-swarm search, written plainly, and draw random numbers in the
layout the engine uses for a one-agent swarm.  A one-agent run of
``adcso_minimize`` must therefore reproduce them draw for draw
(``TestEngineMatchesSingleAgentSteps`` in ``test_optim.py``).
"""

import math
from dataclasses import dataclass

import numpy as np

from fracgrey import Bounds, SwarmConfig
from fracgrey.optim import (
    ZERO_GUARD,
    ZERO_KICK,
    _adaptive_coefficients,
    _candidate_probabilities,
    _mutation_mask,
    _select_best,
)


@dataclass
class Agent:
    """One swarm member: position, velocity, behavioural mode, last fitness."""

    position: np.ndarray
    velocity: np.ndarray
    mode: str = "seeking"
    fitness: float = math.inf


def _mutation_steps(positions, srd, width):
    """Seeking-step magnitudes: srd * |x|, with a fixed kick near zero."""
    mag = np.abs(positions)
    return np.where(mag < ZERO_GUARD * width, srd * width * ZERO_KICK, srd * mag)


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

