"""The bombardier-beetle optimizer: each iteration runs a defense phase
(spray the predator, exploration) and an escape phase (fly away,
exploitation) over every agent, both gated by greedy replacement.

Draw order per agent, fixed for reproducibility: circle radii and center
distance (3 draws), chemical-reaction factors (2 draws), predator index
(1 draw, random-agent mode only), defense evaluation, lift parameters
(4 draws), one sign per dimension, escape evaluation.  An iteration takes
all of it as one stream reservation, one row per agent laid out as
``[5 or 6 | e | 4 + dim | e]``, which consumes the stream exactly like the
scalar draws it replaces: the ``e`` noise slots go to a noisy objective's
own draws during the defense and escape evaluations.  The chaos state
advances once per agent and consumes no draws.  The step advances a
:class:`~beetleopt.core.Group` of runs, each in chunks with a global-best
predator and all in lockstep with a random-agent one.  The optimizer is the
:class:`~beetleopt.core.Algorithm` entry ``BBO``; :func:`bbo_run` and
:func:`bbo_iteration` are its methods, groups of one run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import (
    Algorithm,
    Array,
    ConfigurationError,
    ContractViolation,
    Group,
    Population,
    RandomStream,
    RunConfig,
    by_agent,
    index_from_uniform,
    signs_from_uniform,
)

#: Boiling-point factor of the toxic spray's hot water vapor.
HOT_WATER_VAPOR = 100.0


def chemical_reaction(rng: RandomStream) -> float:
    """Reaction intensity: 100 * oxygen * p-benzoquinone, fresh draws each call.

    The product rule means a missing component annuls the reaction.
    """
    oxygen = rng.uniform()
    benzoquinone = rng.uniform()
    return reaction_intensity(oxygen, benzoquinone)


def reaction_intensity(oxygen: float, benzoquinone: float) -> float:
    """``100 * oxygen * p-benzoquinone`` for already drawn factors."""
    return HOT_WATER_VAPOR * oxygen * benzoquinone


def defense_update(
    position: Array,
    predator_position: Array,
    intersection_area: float,
    reaction: float,
    spray_value: float,
) -> Array:
    """Raw defense proposal ``(x + predator * area * reaction * x) / spray``.

    Bound handling happens at the call site, before any evaluation.
    """
    if spray_value < kernels.SPRAY_FLOOR:
        raise ContractViolation(f"spray value below floor: {spray_value!r}")
    if intersection_area < 0.0:
        raise ValueError("intersection area must be >= 0")
    return defense_proposal(position, predator_position, intersection_area, reaction, spray_value)


def defense_proposal(
    position: Array,
    predator_position: Array,
    intersection_area: float,
    reaction: float,
    spray_value: float,
) -> Array:
    """Unchecked core of :func:`defense_update` for inputs the loop keeps valid."""
    return (position + predator_position * intersection_area * reaction * position) / spray_value


@dataclass
class BBOState:
    """Evolving run state: the population, the chaos trajectory and the
    iteration counter (number of completed iterations)."""

    population: Population
    chaos: kernels.ChaosState
    max_iterations: int
    iteration: int = 0
    predator_mode: str = "global-best"
    bound_mode: str = "clamp"


def _bbo_step(g: Group) -> None:
    """Advance every run of a group one iteration (two proposals per agent,
    so exactly ``2 * N`` evaluations).

    Agents update sequentially in index order; the global-best predator is
    the live best-so-far, refreshed as soon as a replacement is accepted.
    Every proposal is bound-handled before it is evaluated.  What reads only
    an agent's draws and the iteration's start is worked out for all agents
    before the first proposal.  A global-best predator steps each run in
    chunks (:func:`_sweep_run`); a random-agent one reads other agents' live
    positions, so every run steps agent by agent in lockstep."""
    t = g.iteration + 1
    if t > g.max_iterations:
        raise ConfigurationError("run already finished")
    n = g.n
    random_predator = g.predator_mode != "global-best"
    defense, escape = g.reserve((6 if random_predator else 5, 4 + g.dim))

    # each agent's lens area, reaction, spray divisor and predator index,
    # and its whole escape step ``lift * width / t * signs``, run by run
    next_chaos = kernels.chaos_step(g.chaos_map)
    growth = kernels.spray_growth(t, g.max_iterations)
    sprays = []
    for r, chaos in enumerate(g.chaos):
        for _ in range(n):
            chaos = next_chaos(chaos)
            sprays.append(kernels.spray_divisor(chaos, growth))
        g.chaos[r] = chaos
    rows = defense.reshape(-1, defense.shape[-1]).tolist()
    shape = (len(g.chaos), n, 1)
    sprays = np.array(sprays).reshape(shape)
    areas = np.array([kernels.lens_area(u[0], u[1], u[2]) for u in rows]).reshape(shape)
    reactions = np.array([reaction_intensity(u[3], u[4]) for u in rows]).reshape(shape)
    lifts = np.array([kernels.lift_magnitude(*u) for u in escape[..., :4].reshape(-1, 4).tolist()]).reshape(shape)
    hops = kernels.escape_hop(lifts, g.width[:, None], t) * signs_from_uniform(escape[..., 4:])

    if not random_predator:

        def defend(r: int, start: int) -> Array:
            x = g.x[r, start:]
            return g.bound_run(r, defense_proposal(x, g.best_x[r], areas[r, start:], reactions[r, start:], sprays[r, start:]))

        for r in range(len(g.chaos)):
            _sweep_run(g, r, defend, hops[r])
    else:
        # each run's predator, as an index into all runs' agents in a row
        predators = [index_from_uniform(u[5], n) for u in rows]
        predators = by_agent((np.array(predators) + np.arange(len(rows)) // n * n).reshape(shape[:2]))
        agents = g.x.reshape(-1, g.dim)
        sprays, areas, reactions, hops = (by_agent(a) for a in (sprays, areas, reactions, hops))
        for i, x in enumerate(g.at):
            # Defense: spray scaled by the threat-circle overlap and reaction.
            g.greedy(i, g.bound(defense_proposal(x, agents[predators[i]], areas[i], reactions[i], sprays[i])))
            # Escape: signed per-dimension hop whose size decays with time.
            g.greedy(i, g.bound(x + hops[i]))

    g.settle()
    g.iteration = t


def _sweep_run(g: Group, r: int, defend, hops: Array) -> None:
    """Both phases of every agent of run ``r``, in chunks.

    ``defend(r, start)`` returns the bounded defense proposals of agents
    ``start, ...`` from the live best-so-far; an agent's escape reads only
    its own position.  A chunk commits agents in order up to and including
    the first whose defense or escape improves the best-so-far, and the
    agents after it are proposed again from the new best.  A speculative
    evaluator evaluates both phases of the whole chunk as two blocks, the
    escapes from the speculated defense acceptances, and the chunk is
    committed with array operations.  Any other is called row by row as the
    commit reaches it (:func:`_commit_rows`).
    """
    objective = g.objectives[r]
    x, fitness = g.x[r], g.fitness[r]
    start = 0
    while start < g.n:
        proposals = defend(r, start)
        if not objective.speculative:
            start = _commit_rows(g, r, start, proposals, hops)
            continue
        held = np.array(fitness[start:])
        # each agent evaluates its defense, then its escape
        values = objective.speculate(proposals, 0, 2)
        took = np.isfinite(values) & (values < held)
        kept = np.where(took[:, None], proposals, x[start:])
        kept_f = np.where(took, values, held)
        escapes = g.bound_run(r, kept + hops[start:])
        values = objective.speculate(escapes, 1, 2)
        fled = np.isfinite(values) & (values < kept_f)
        kept = np.where(fled[:, None], escapes, kept)
        kept_f = np.where(fled, values, kept_f)
        below = kept_f < g.best_f[r]
        first = int(below.argmax())
        stop = first + 1 if below[first] else len(kept)
        objective.commit(2 * stop)
        x[start : start + stop] = kept[:stop]
        fitness[start : start + stop] = kept_f[:stop].tolist()
        if below[first]:
            g.best_f[r] = fitness[start + first]
            g.best_x[r] = x[start + first]
        start += stop


def _commit_rows(g: Group, r: int, start: int, proposals: Array, hops: Array) -> int:
    """Commit agents ``start, ...`` of run ``r`` one by one, up to and
    including the first that improves the best-so-far, and return the next
    agent.  Each defense proposal and escape is evaluated as the commit
    reaches it."""
    objective = g.objectives[r]
    x, fitness = g.x[r], g.fitness[r]
    for j, proposal in enumerate(proposals):
        i = start + j
        value = objective(proposal)
        if math.isfinite(value) and value < fitness[i]:
            x[i] = proposal
            fitness[i] = value
        escape = g.bound_run(r, x[i] + hops[i])
        value = objective(escape)
        if math.isfinite(value) and value < fitness[i]:
            x[i] = escape
            fitness[i] = value
        if fitness[i] < g.best_f[r]:
            g.best_f[r] = fitness[i]
            g.best_x[r] = x[i]
            return i + 1
    return start + len(proposals)


def _bbo_init(g: Group, config: RunConfig) -> None:
    """Seed each run's chaos trajectory with one draw of its own stream,
    taken right after the ``N`` initial evaluations."""
    g.chaos_map = config.chaos_map
    g.chaos = [kernels.make_chaos(config.chaos_map, rng.uniform()).value for rng in g.rngs]
    g.predator_mode = config.predator_mode


BBO = Algorithm("bbo", 2, _bbo_init, _bbo_step)
bbo_run, bbo_iteration = BBO.run, BBO.step_state
