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
predator and all in lockstep with a random-agent one; it proposes raw
positions and evaluates, and the group bounds and commits.  The optimizer is
the :class:`~beetleopt.core.Algorithm` entry ``BBO``; :func:`bbo_run` is
its ``run`` method, a group of one run.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import kernels
from .core import (
    Algorithm,
    Array,
    Group,
    by_agent,
    improved,
    improves,
    index_from_uniform,
    signs_from_uniform,
)

#: Boiling-point factor of the toxic spray's hot water vapor.
HOT_WATER_VAPOR = 100.0


def reaction_intensity(oxygen, benzoquinone):
    """Reaction intensity ``100 * oxygen * p-benzoquinone`` from the two
    drawn factors (or arrays of them); the product rule means a missing
    component annuls the reaction."""
    return HOT_WATER_VAPOR * oxygen * benzoquinone


def defense_proposal(
    position: Array,
    predator_position: Array,
    intersection_area: float,
    reaction: float,
    spray_value: float,
) -> Array:
    """Raw defense proposal ``(x + predator * area * reaction * x) / spray``.

    The loop keeps the area non-negative and the spray at or above
    :data:`kernels.SPRAY_FLOOR`; the group's writers bound the proposal
    before it is evaluated.
    """
    return (position + predator_position * intersection_area * reaction * position) / spray_value


def _bbo_step(g: Group) -> None:
    """Advance every run of a group one iteration (two proposals per agent,
    so exactly ``2 * N`` evaluations).

    Agents update sequentially in index order; the global-best predator is
    the live best-so-far, refreshed as soon as a replacement is accepted.
    Every proposal is bounded before it is evaluated, by the group (a
    chunk's escapes by :func:`_defend_and_flee`).  What reads only
    an agent's draws and the iteration's start is worked out for all agents
    before the first proposal.  A global-best predator steps each run in
    chunks (:meth:`~beetleopt.core.Group.sweep`, evaluated by
    :func:`_defend_and_flee`); a random-agent one reads other agents' live
    positions, so every run steps agent by agent in lockstep
    (:meth:`~beetleopt.core.Group.move` under greedy selection)."""
    t = g.iteration + 1
    n = g.n
    random_predator = g.predator_mode != "global-best"
    defense, escape = g.reserve((6 if random_predator else 5, 4 + g.dim))

    # each agent's spray divisor, lens area, reaction and predator index,
    # and its whole escape step ``lift * width / t * signs``, as (R, N, ...)
    sprays = kernels.spray_divisor(kernels.chaos_rows(g), kernels.spray_growth(t, g.max_iterations))
    areas = kernels.lens_areas(defense[..., 0:1], defense[..., 1:2], defense[..., 2:3])
    reactions = reaction_intensity(defense[..., 3:4], defense[..., 4:5])
    lifts = kernels.lift_magnitude(escape[..., 0:1], escape[..., 1:2], escape[..., 2:3], escape[..., 3:4])
    hops = kernels.escape_hop(lifts, g.width[:, None], t) * signs_from_uniform(escape[..., 4:])

    if not random_predator:

        def defend(r: int, start: int) -> Array:
            x = g.x[r, start:]
            return defense_proposal(x, g.best_x[r], areas[r, start:], reactions[r, start:], sprays[r, start:])

        g.sweep(defend, evaluate=functools.partial(_defend_and_flee, g, hops))
    else:
        # each run's predator, as an index into all runs' agents in a row
        runs = np.arange(len(defense))[:, None]
        predators = by_agent(index_from_uniform(defense[..., 5], n) + runs * n)
        agents = g.x.reshape(-1, g.dim)
        sprays, areas, reactions, hops = (by_agent(a) for a in (sprays, areas, reactions, hops))
        for i, x in enumerate(g.at):
            # Defense: spray scaled by the threat-circle overlap and reaction.
            defended = defense_proposal(x, agents[predators[i]], areas[i], reactions[i], sprays[i])
            g.move(i, defended, greedy=True)
            # Escape: signed per-dimension hop whose size decays with time.
            g.move(i, x + hops[i], greedy=True)


def _defend_and_flee(g: Group, hops: Array, r: int, start: int, proposals: Array, below: float) -> tuple:
    """:meth:`~beetleopt.core.Group.sweep`'s ``evaluate`` for a chunk of run
    ``r`` from agent ``start``: both phases of each agent, the defense
    ``proposals`` and then the escape by ``hops`` from the position kept,
    each kept only if its value is finite and improves on the value held
    (:func:`~beetleopt.core.improves`).  Returns the positions and values
    kept, up to and including the first agent whose value is below
    ``below``, and counts 2 evaluations per agent returned.

    A speculative evaluator evaluates both phases of the whole chunk as two
    blocks, the escapes from the speculated defense acceptances.  Any other
    is called row by row as the commit reaches it.
    """
    objective = g.objectives[r]
    x, held, hops = g.x[r, start:], g.fitness[r][start:], hops[r, start:]
    if objective.speculative:
        held = np.array(held)
        # each agent evaluates its defense, then its escape
        values = objective.speculate(proposals, 0, 2)
        took = np.isfinite(values) & improved(values, held)
        kept = np.where(took[:, None], proposals, x)
        kept_f = np.where(took, values, held)
        escapes = g.bound_run(r, kept + hops)
        values = objective.speculate(escapes, 1, 2)
        fled = np.isfinite(values) & improved(values, kept_f)
        kept = np.where(fled[:, None], escapes, kept)
        kept_f = np.where(fled, values, kept_f)
        cut = kept_f < below
        first = int(cut.argmax())
        stop = first + 1 if cut[first] else len(kept)
        objective.commit(2 * stop)
        return kept[:stop], kept_f[:stop].tolist()
    kept, kept_f = [], []
    for proposal, position, value, hop in zip(proposals, x, held, hops):
        defended = objective(proposal)
        if math.isfinite(defended) and improves(defended, value):
            position, value = proposal, defended
        escape = g.bound_run(r, position + hop)
        fled = objective(escape)
        if math.isfinite(fled) and improves(fled, value):
            position, value = escape, fled
        kept.append(position)
        kept_f.append(value)
        if value < below:
            break
    return np.array(kept), kept_f


BBO = Algorithm("bbo", 2, kernels.seed_chaos, _bbo_step)
bbo_run = BBO.run
