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
advances once per agent and consumes no draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import (
    Agent,
    Array,
    ConfigurationError,
    ContractViolation,
    Objective,
    Population,
    RandomStream,
    RunConfig,
    SearchSpace,
    bound_position,
    consider_best,
    drive,
    greedy_replace,
    index_from_uniform,
    prepare_run,
    reserve,
    settle,
    signs_from_uniform,
)
from .stats import RunRecord

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


def bbo_iteration(
    state: BBOState, objective: Objective, space: SearchSpace, rng: RandomStream
) -> BBOState:
    """Advance the optimizer one iteration (two proposals per agent).

    Agents update sequentially in index order; the global-best predator is
    the live best-so-far, refreshed as soon as a replacement is accepted.
    Every proposal is bound-handled before it is evaluated.  What reads only
    an agent's draws and the iteration's start is worked out for all agents
    before the first proposal.
    """
    t = state.iteration + 1
    if t > state.max_iterations:
        raise ConfigurationError("run already finished")
    pop = state.population
    n = len(pop)
    lower, upper = space.lower, space.upper
    mode = state.bound_mode
    random_predator = state.predator_mode != "global-best"
    defense, escape = reserve(rng, n, (6 if random_predator else 5, 4 + space.dim))

    # each agent's lens area, reaction, spray divisor and predator index,
    # and its whole escape step ``lift * width / t * signs``
    next_chaos = kernels.chaos_step(state.chaos.map_id)
    growth = kernels.spray_growth(t, state.max_iterations)
    chaos = state.chaos.value
    sprays = []
    for _ in range(n):
        chaos = next_chaos(chaos)
        sprays.append(kernels.spray_divisor(chaos, growth))
    rows = defense.tolist()
    areas = [kernels.lens_area(u[0], u[1], u[2]) for u in rows]
    reactions = [reaction_intensity(u[3], u[4]) for u in rows]
    predators = [index_from_uniform(u[5], n) for u in rows] if random_predator else None
    lifts = [[kernels.lift_magnitude(*u)] for u in escape[:, :4].tolist()]
    hops = kernels.escape_hop(np.array(lifts), space.width, t) * signs_from_uniform(escape[:, 4:])

    for i in range(n):
        agent = pop.agents[i]

        # Defense: spray scaled by the threat-circle overlap and reaction.
        if random_predator:
            predator = pop.agents[predators[i]].position
        else:
            predator = pop.best.position
        proposal = defense_proposal(agent.position, predator, areas[i], reactions[i], sprays[i])
        candidate = Agent(bound_position(proposal, lower, upper, mode))
        candidate.fitness = objective(candidate.position)
        agent = greedy_replace(agent, candidate)
        pop.agents[i] = agent
        consider_best(pop, agent)

        # Escape: signed per-dimension hop whose size decays with time.
        candidate = Agent(bound_position(agent.position + hops[i], lower, upper, mode))
        candidate.fitness = objective(candidate.position)
        agent = greedy_replace(agent, candidate)
        pop.agents[i] = agent
        consider_best(pop, agent)

    settle(rng)
    state.chaos = kernels.ChaosState(state.chaos.map_id, chaos, state.chaos.steps + n)
    state.iteration = t
    return state


def bbo_run(config: RunConfig, objective, space: SearchSpace = None) -> RunRecord:
    """Full seeded run: initialize, iterate, record the best-so-far trace.

    ``objective`` is either a plain callable or a benchmark spec (which also
    supplies the space).  Exactly ``2 * N`` evaluations happen per iteration
    on top of the ``N`` initial ones.  The chaos trajectory is seeded with
    one uniform draw taken right after the initial evaluations.
    """
    space, rng, counter, pop = prepare_run("bbo", config, objective, space)
    state = BBOState(
        population=pop,
        chaos=kernels.make_chaos(config.chaos_map, rng.uniform()),
        max_iterations=config.iterations,
        predator_mode=config.predator_mode,
        bound_mode=config.bound_mode,
    )
    return drive("bbo", config, bbo_iteration, state, counter, space, rng)
