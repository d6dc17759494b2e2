"""Six comparison optimizers sharing the package's population machinery:
particle-swarm (pso), grey-wolf (gwo), sperm-swarm (sso), chernobyl-disaster
(cdo), bermuda-triangle (bto) and gravitational-search (gsa).

Each algorithm keeps its documented per-agent draw order so that seeded runs
are bit-reproducible.  An iteration takes all its draws as one stream
reservation, a row per agent (gsa: every agent's pulls first, then a row of
damping per agent), which consumes the stream exactly like the scalar draws
it stands for; the ``e`` noise slots after each row go to a noisy
objective's own draw during that agent's evaluation.  Every term that reads
only the draws and the iteration's start is computed for all agents before
the agent loop; the public per-agent helpers call the same cores for one
agent.  All of them evaluate the objective exactly N times per iteration.
The gravitational-search internals follow the standard formulation of that
algorithm (only its two tuning constants are shared with the rest of the
suite); the grey-wolf coefficient mechanics likewise use the standard
encircling coefficients.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List

import numpy as np

from . import kernels
from .core import (
    MIN_POPULATION,
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
    prepare_run,
    reserve,
    settle,
)
from .stats import RunRecord

# PSO constants: cognitive/social factors are fixed at 2; the inertia weight
# decays linearly between the defaults below.
PSO_COGNITIVE = 2.0
PSO_SOCIAL = 2.0
PSO_INERTIA_START = 0.9
PSO_INERTIA_END = 0.4

# SSO draw ranges for pH and temperature.
SSO_PH_RANGE = (7.0, 14.0)
SSO_TEMPERATURE_RANGE = (35.1, 38.5)
# Per-draw ranges of one SSO velocity block: damping, pH1, pH2,
# temperature1, pH3, temperature2.
_SSO_DRAW_RANGES = (
    (0.0, 1.0),
    SSO_PH_RANGE,
    SSO_PH_RANGE,
    SSO_TEMPERATURE_RANGE,
    SSO_PH_RANGE,
    SSO_TEMPERATURE_RANGE,
)
_SSO_DRAW_LOW = np.array([low for low, _ in _SSO_DRAW_RANGES])
_SSO_DRAW_HIGH = np.array([high for _, high in _SSO_DRAW_RANGES])
_SSO_DRAW_SPAN = _SSO_DRAW_HIGH - _SSO_DRAW_LOW

# CDO particle-speed draw ceilings (gamma, beta, alpha).
CDO_SPEED_GAMMA = 300_000.0
CDO_SPEED_BETA = 270_000.0
CDO_SPEED_ALPHA = 160_000.0

# BTO constants. The force-zone areas are natural logs of the zone extremes;
# the triangle is an equilateral one inscribed in a unit circle and the ring
# is that triangle minus its own inscribed circle (radius 1/2).
BTO_GRAVITATION = 6.67e-11
BTO_AREA_MIN = math.log(500_000.0)
BTO_AREA_MAX = math.log(1_510_000.0)
BTO_TRIANGLE_AREA = 3.0 * math.sqrt(3.0) / 4.0
BTO_RING_AREA = BTO_TRIANGLE_AREA - math.pi / 4.0

# GSA constants: initial gravitational constant and its decay rate.
GSA_G0 = 1.0
GSA_ALPHA = 20.0
_GSA_EPS = 1e-12


def _three_leaders(pop: Population) -> List[Agent]:
    ordered = sorted(pop.agents, key=lambda a: a.fitness)
    return [ordered[0].copy(), ordered[1].copy(), ordered[2].copy()]


def _insert_leader(leaders: List[Agent], candidate: Agent) -> bool:
    """Shift-insert so the triple stays the three best evaluations seen;
    True when the triple changed."""
    if candidate.fitness < leaders[0].fitness:
        leaders[2] = leaders[1]
        leaders[1] = leaders[0]
        leaders[0] = candidate.copy()
    elif candidate.fitness < leaders[1].fitness:
        leaders[2] = leaders[1]
        leaders[1] = candidate.copy()
    elif candidate.fitness < leaders[2].fitness:
        leaders[2] = candidate.copy()
    else:
        return False
    return True


def _leader_positions(leaders: List[Agent]) -> Array:
    """The three leaders' positions as rows, best first."""
    return np.array((leaders[0].position, leaders[1].position, leaders[2].position))


# --- particle swarm ---------------------------------------------------------


@dataclass
class PSOState:
    population: Population
    velocities: List[Array]
    personal_best: List[Agent]
    max_iterations: int
    iteration: int = 0
    bound_mode: str = "clamp"
    inertia_start: float = PSO_INERTIA_START
    inertia_end: float = PSO_INERTIA_END


def pso_velocity(
    velocity: Array,
    position: Array,
    personal_best: Array,
    global_best: Array,
    inertia: float,
    rng: RandomStream,
) -> Array:
    """Inertia plus cognitive and social pulls, one random pair per dimension
    (all r1 draws, then all r2 draws, as one block)."""
    dim = position.size
    u = rng.uniform(size=2 * dim)
    memory = _pso_memory(inertia, velocity, u[:dim], personal_best, position)
    return _pso_social(memory, u[dim:], global_best, position)


def _pso_memory(inertia: float, velocity: Array, r1: Array, personal_best: Array, position: Array) -> Array:
    """Inertia plus cognitive pull, the part of a velocity that does not read
    the live global best; rows of agents or one agent alike."""
    return inertia * velocity + PSO_COGNITIVE * r1 * (personal_best - position)


def _pso_social(memory: Array, r2: Array, global_best: Array, position: Array) -> Array:
    """Add the social pull toward the global best to :func:`_pso_memory`."""
    return memory + PSO_SOCIAL * r2 * (global_best - position)


def pso_step(state: PSOState, objective: Objective, space: SearchSpace, rng: RandomStream) -> PSOState:
    t = state.iteration + 1
    span = max(state.max_iterations - 1, 1)
    inertia = state.inertia_start - (state.inertia_start - state.inertia_end) * (t - 1) / span
    lower, upper, mode = space.lower, space.upper, state.bound_mode
    pop = state.population
    dim = space.dim
    (u,) = reserve(rng, len(pop), (2 * dim,))
    positions = pop.positions()
    personal = np.array([best.position for best in state.personal_best])
    memory = _pso_memory(inertia, np.array(state.velocities), u[:, :dim], personal, positions)
    r2 = u[:, dim:]
    for i in range(len(pop)):
        v = _pso_social(memory[i], r2[i], pop.best.position, positions[i])
        state.velocities[i] = v
        moved = Agent(bound_position(positions[i] + v, lower, upper, mode))
        moved.fitness = objective(moved.position)
        pop.agents[i] = moved
        if moved.fitness < state.personal_best[i].fitness:
            state.personal_best[i] = moved.copy()
        consider_best(pop, moved)
    settle(rng)
    state.iteration = t
    return state


def run_pso(config: RunConfig, objective, space: SearchSpace = None) -> RunRecord:
    space, rng, counter, pop = prepare_run("pso", config, objective, space)
    state = PSOState(
        population=pop,
        velocities=[np.zeros(space.dim) for _ in pop.agents],
        personal_best=[a.copy() for a in pop.agents],
        max_iterations=config.iterations,
        bound_mode=config.bound_mode,
    )
    return drive("pso", config, pso_step, state, counter, space, rng)


# --- sperm swarm ------------------------------------------------------------


@dataclass
class SSOState:
    population: Population
    velocities: List[Array]
    personal_best: List[Agent]
    max_iterations: int
    iteration: int = 0
    bound_mode: str = "clamp"


def sso_velocity(
    velocity: Array,
    position: Array,
    personal_best: Array,
    global_best: Array,
    rng: RandomStream,
) -> Array:
    """Damped start velocity plus pH/temperature scaled personal and global pulls.

    Draw order: damping, pH1, pH2, temperature1, pH3, temperature2.  The
    drawn values are validated against their documented ranges so a broken
    stream is flagged instead of silently skewing the log factors.
    """
    draws = _sso_draws(rng)
    damping, ph1, ph2, temp1, ph3, temp2 = draws
    if not 0.0 <= damping <= 1.0:
        raise ContractViolation(f"damping draw out of [0, 1]: {damping!r}")
    for name, value in (("pH", ph1), ("pH", ph2), ("pH", ph3)):
        if not SSO_PH_RANGE[0] <= value <= SSO_PH_RANGE[1]:
            raise ContractViolation(f"{name} draw out of {SSO_PH_RANGE}: {value!r}")
    for value in (temp1, temp2):
        if not SSO_TEMPERATURE_RANGE[0] <= value <= SSO_TEMPERATURE_RANGE[1]:
            raise ContractViolation(f"temperature draw out of {SSO_TEMPERATURE_RANGE}: {value!r}")
    memory, social = _sso_memory(np.array([draws]), velocity, personal_best, position)
    return memory[0] + social[0] * (global_best - position)


def _sso_draws(rng: RandomStream) -> list:
    """One velocity block: damping, pH1, pH2, temperature1, pH3, temperature2."""
    return rng.uniform(_SSO_DRAW_LOW, _SSO_DRAW_HIGH, size=len(_SSO_DRAW_RANGES)).tolist()


def _sso_memory(draws: Array, velocity: Array, personal_best: Array, position: Array):
    """For rows of velocity blocks drawn in range: the damped start velocity
    plus the personal pull, and each row's global-pull factor (Python floats).

    Every log factor is ``math.log10`` of one draw, as the scalar formula
    has it.
    """
    rows = draws.tolist()
    start = np.array([[math.log10(row[1])] for row in rows])
    personal = np.array([[math.log10(row[2]) * math.log10(row[3])] for row in rows])
    social = [math.log10(row[4]) * math.log10(row[5]) for row in rows]
    memory = draws[:, :1] * velocity * start + personal * (personal_best - position)
    return memory, social


def sso_step(state: SSOState, objective: Objective, space: SearchSpace, rng: RandomStream) -> SSOState:
    lower, upper, mode = space.lower, space.upper, state.bound_mode
    pop = state.population
    (u,) = reserve(rng, len(pop), (len(_SSO_DRAW_RANGES),))
    positions = pop.positions()
    personal = np.array([best.position for best in state.personal_best])
    draws = _SSO_DRAW_LOW + _SSO_DRAW_SPAN * u
    memory, social = _sso_memory(draws, np.array(state.velocities), personal, positions)
    for i in range(len(pop)):
        v = memory[i] + social[i] * (pop.best.position - positions[i])
        state.velocities[i] = v
        moved = Agent(bound_position(positions[i] + v, lower, upper, mode))
        moved.fitness = objective(moved.position)
        pop.agents[i] = moved
        if moved.fitness < state.personal_best[i].fitness:
            state.personal_best[i] = moved.copy()
        consider_best(pop, moved)
    settle(rng)
    state.iteration += 1
    return state


def run_sso(config: RunConfig, objective, space: SearchSpace = None) -> RunRecord:
    space, rng, counter, pop = prepare_run("sso", config, objective, space)
    state = SSOState(
        population=pop,
        velocities=[np.zeros(space.dim) for _ in pop.agents],
        personal_best=[a.copy() for a in pop.agents],
        max_iterations=config.iterations,
        bound_mode=config.bound_mode,
    )
    return drive("sso", config, sso_step, state, counter, space, rng)


# --- grey wolf --------------------------------------------------------------


@dataclass
class GWOState:
    population: Population
    leaders: List[Agent]  # alpha, beta, delta: the three best evaluations seen
    max_iterations: int
    iteration: int = 0
    bound_mode: str = "clamp"


def gwo_candidate(
    position: Array,
    alpha: Array,
    beta: Array,
    delta: Array,
    coefficient: float,
    rng: RandomStream,
) -> Array:
    """Mean of the three leader-guided positions under the standard
    encircling coefficients A = 2a*r1 - a and C = 2*r2 (fresh per dimension,
    leaders consumed in alpha/beta/delta order: r1 then r2 per leader, drawn
    as one block and applied to the three leaders at once)."""
    a_coef, c_coef = _gwo_coefficients(rng.uniform(size=6 * position.size)[None], coefficient)
    return _gwo_guided(np.array((alpha, beta, delta)), a_coef[0], c_coef[0], position)


def _gwo_coefficients(draws: Array, coefficient: float):
    """``A = 2a*r1 - a`` and ``C = 2*r2`` for rows of ``6 * dim`` draws, each
    as ``(rows, 3, dim)``: leader by leader, r1 then r2."""
    draws = draws.reshape(len(draws), 3, 2, -1)
    return 2.0 * coefficient * draws[:, :, 0] - coefficient, 2.0 * draws[:, :, 1]


def _gwo_guided(leaders: Array, a_coef: Array, c_coef: Array, position: Array) -> Array:
    """Mean of the three leader-guided positions for one agent."""
    guided = leaders - a_coef * np.abs(c_coef * leaders - position)
    return (guided[0] + guided[1] + guided[2]) / 3.0


def gwo_step(state: GWOState, objective: Objective, space: SearchSpace, rng: RandomStream) -> GWOState:
    pop = state.population
    if len(pop) < MIN_POPULATION["gwo"]:
        raise ConfigurationError(f"gwo needs a population of at least {MIN_POPULATION['gwo']}")
    t = state.iteration + 1
    coefficient = 2.0 - (t - 1) * 2.0 / state.max_iterations
    lower, upper, mode = space.lower, space.upper, state.bound_mode
    (u,) = reserve(rng, len(pop), (6 * space.dim,))
    a_coef, c_coef = _gwo_coefficients(u, coefficient)
    leaders = _leader_positions(state.leaders)
    for i, agent in enumerate(pop.agents):
        x = _gwo_guided(leaders, a_coef[i], c_coef[i], agent.position)
        moved = Agent(bound_position(x, lower, upper, mode))
        moved.fitness = objective(moved.position)
        pop.agents[i] = moved
        if _insert_leader(state.leaders, moved):
            leaders = _leader_positions(state.leaders)
        consider_best(pop, moved)
    settle(rng)
    state.iteration = t
    return state


def run_gwo(config: RunConfig, objective, space: SearchSpace = None) -> RunRecord:
    space, rng, counter, pop = prepare_run("gwo", config, objective, space)
    state = GWOState(
        population=pop,
        leaders=_three_leaders(pop),
        max_iterations=config.iterations,
        bound_mode=config.bound_mode,
    )
    return drive("gwo", config, gwo_step, state, counter, space, rng)


# --- chernobyl disaster -----------------------------------------------------


@dataclass
class CDOState:
    population: Population
    leaders: List[Agent]  # alpha (best), beta, gamma
    max_iterations: int
    iteration: int = 0
    bound_mode: str = "clamp"


def cdo_walk_speed(iteration: int, max_iterations: int) -> float:
    """Walking speed decaying linearly from 3 to 0 across the run."""
    if max_iterations < 1:
        raise ConfigurationError("max_iterations must be >= 1")
    if not 0 <= iteration <= max_iterations:
        raise ConfigurationError(f"iteration must be in [0, {max_iterations}], got {iteration}")
    return 3.0 - iteration * (3.0 / max_iterations)


def cdo_candidate(
    position: Array,
    alpha: Array,
    beta: Array,
    gamma: Array,
    walk_speed: float,
    rng: RandomStream,
) -> Array:
    """Weighted average of the gamma/beta/alpha descent terms.

    Per dimension: one walker-disk area shared by the three spread factors,
    one propagation area shared by the three distance terms, then per
    particle class a log-speed draw and a walking-speed jitter draw
    (gamma, beta, alpha order).

    All ``8 * dim`` draws come as one block and the three classes are
    updated at once; the class weights 1, 0.5 and 0.25 scale the speed and
    the descent term, and a weight of 1 leaves a value unchanged, bit for bit.
    """
    low, high = _cdo_draw_bounds(position.size)
    area, rho = _cdo_terms(rng.uniform(low, high, size=low.size)[None], walk_speed)
    return _cdo_descent(np.array((gamma, beta, alpha)), area[0], rho[0], position)


def _cdo_terms(draws: Array, walk_speed: float):
    """For rows of ``8 * dim`` scaled draws: each row's propagation area
    ``(rows, 1, dim)`` and its gamma/beta/alpha spread factors ``rho``
    ``(rows, 3, dim)``."""
    draws = draws.reshape(len(draws), 8, -1)
    region = draws[:, :1] ** 2 * np.pi
    area = draws[:, 1:2] ** 2 * np.pi
    speed = np.log(draws[:, 2::2])  # gamma, beta, alpha
    jitter = draws[:, 3::2]
    return area, region / (_CDO_WEIGHTS * speed) - walk_speed * jitter


def _cdo_descent(leaders: Array, area: Array, rho: Array, position: Array) -> Array:
    """Weighted mean of the gamma/beta/alpha descent terms for one agent."""
    delta = np.abs(area * leaders - position)
    v = _CDO_WEIGHTS * (leaders - rho * delta)
    return (v[0] + v[1] + v[2]) / 3.0


#: Class weights of the gamma, beta and alpha terms, as a column.
_CDO_WEIGHTS = np.array([[1.0], [0.5], [0.25]])


@functools.lru_cache(maxsize=None)
def _cdo_draw_bounds(dim: int):
    """Read-only per-draw ``(low, high)`` of one ``cdo_candidate`` block:
    region, area, then a speed and a jitter row per class."""
    low = np.repeat([0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0], dim)
    high = np.repeat([1.0, 1.0, CDO_SPEED_GAMMA, 1.0, CDO_SPEED_BETA, 1.0, CDO_SPEED_ALPHA, 1.0], dim)
    low.flags.writeable = False
    high.flags.writeable = False
    return low, high


def cdo_step(state: CDOState, objective: Objective, space: SearchSpace, rng: RandomStream) -> CDOState:
    pop = state.population
    t = state.iteration + 1
    walk_speed = cdo_walk_speed(t - 1, state.max_iterations)
    lower, upper, mode = space.lower, space.upper, state.bound_mode
    low, high = _cdo_draw_bounds(space.dim)
    (u,) = reserve(rng, len(pop), (low.size,))
    area, rho = _cdo_terms(low + (high - low) * u, walk_speed)
    leaders = _leader_positions(state.leaders)[::-1]  # gamma, beta, alpha
    for i, agent in enumerate(pop.agents):
        x = _cdo_descent(leaders, area[i], rho[i], agent.position)
        moved = Agent(bound_position(x, lower, upper, mode))
        moved.fitness = objective(moved.position)
        pop.agents[i] = moved
        if _insert_leader(state.leaders, moved):
            leaders = _leader_positions(state.leaders)[::-1]
        consider_best(pop, moved)
    settle(rng)
    state.iteration = t
    return state


def run_cdo(config: RunConfig, objective, space: SearchSpace = None) -> RunRecord:
    space, rng, counter, pop = prepare_run("cdo", config, objective, space)
    state = CDOState(
        population=pop,
        leaders=_three_leaders(pop),
        max_iterations=config.iterations,
        bound_mode=config.bound_mode,
    )
    return drive("cdo", config, cdo_step, state, counter, space, rng)


# --- bermuda triangle -------------------------------------------------------


@dataclass
class BTOState:
    population: Population
    chaos: kernels.ChaosState
    max_iterations: int
    iteration: int = 0
    bound_mode: str = "clamp"
    triangle_area: float = BTO_TRIANGLE_AREA
    ring_area: float = BTO_RING_AREA


def bto_zone(iteration: int, max_iterations: int) -> float:
    """Force-zone coefficient interpolating between the log area extremes."""
    if max_iterations < 1:
        raise ConfigurationError("max_iterations must be >= 1")
    if not 0 <= iteration <= max_iterations:
        raise ConfigurationError(f"iteration must be in [0, {max_iterations}], got {iteration}")
    return BTO_AREA_MIN + iteration * (BTO_AREA_MAX - BTO_AREA_MIN) / max_iterations


def bto_acc(iteration: int, max_iterations: int, rng: RandomStream) -> float:
    """Current acceleration ``r * exp(-20 * iteration / max_iterations)``."""
    if max_iterations < 1:
        raise ConfigurationError("max_iterations must be >= 1")
    return _bto_accelerations([rng.uniform()], bto_decay(iteration, max_iterations))[0]


def bto_decay(iteration: int, max_iterations: int) -> float:
    """The draw-free factor ``exp(-20 * iteration / max_iterations)`` of :func:`bto_acc`."""
    return math.exp(-20.0 * iteration / max_iterations)


def _bto_accelerations(draws, decay: float) -> list:
    """Acceleration ``r * decay`` for each draw ``r``."""
    return [r * decay for r in draws]


def _bto_force_probability(iteration: int, max_iterations: int, gforce: float) -> float:
    """Probability of force ``1 - (t - 1/G)/(T - 1/G)``, clamped into [0, 1].

    The 1/G pole is sanitized: zero force means no pull at all, so the
    degenerate cases collapse to probability 0.
    """
    if gforce <= 0.0:
        return 0.0
    inverse = 1.0 / gforce
    denominator = max_iterations - inverse
    if denominator == 0.0:
        return 0.0
    raw = 1.0 - (iteration - inverse) / denominator
    if not math.isfinite(raw):
        return 0.0
    return min(1.0, max(0.0, raw))


def bto_step(state: BTOState, objective: Objective, space: SearchSpace, rng: RandomStream) -> BTOState:
    """One sweep of gravity-pulled jumps around the best solution.

    Per agent: advance the chaos map (no draws), then draw the two masses
    and their distance, the acceleration factor and the prescience value
    (one row of five).
    Prescience above 0.5 selects the triangle area (strong pull), otherwise
    the surrounding ring area; either way the position is replaced outright
    and only the best-so-far is tracked greedily.  Each agent's pull scale
    ``chaos * area * acceleration`` and force probability read only its
    draws, so they are worked out for all agents before the first moves.
    """
    pop = state.population
    n = len(pop)
    t0 = state.iteration
    zone = bto_zone(t0, state.max_iterations)
    (u,) = reserve(rng, n, (5,))
    rows = u.tolist()
    next_chaos = kernels.chaos_step(state.chaos.map_id)
    chaos = state.chaos.value
    chaos_values = []
    for _ in range(n):
        chaos = next_chaos(chaos)
        chaos_values.append(chaos)
    accelerations = _bto_accelerations([row[3] for row in rows], bto_decay(t0, state.max_iterations))
    scales = []
    probabilities = []
    for (mass_center, mass_pulled, distance, _, prescience), c, acceleration in zip(
        rows, chaos_values, accelerations
    ):
        numerator = BTO_GRAVITATION * mass_center * mass_pulled
        gforce = numerator / (distance * distance) if distance > 0.0 else math.inf
        probabilities.append(_bto_force_probability(t0, state.max_iterations, gforce))
        area = state.triangle_area if prescience > 0.5 else state.ring_area
        scales.append(c * area * acceleration)

    anchor = space.width * zone + space.lower
    lower, upper, mode = space.lower, space.upper, state.bound_mode
    for i in range(n):
        pulled = scales[i] * pop.best.position - probabilities[i]
        moved = Agent(bound_position(pulled * anchor, lower, upper, mode))
        moved.fitness = objective(moved.position)
        pop.agents[i] = moved
        consider_best(pop, moved)
    settle(rng)
    state.chaos = kernels.ChaosState(state.chaos.map_id, chaos, state.chaos.steps + n)
    state.iteration = t0 + 1
    return state


def run_bto(config: RunConfig, objective, space: SearchSpace = None) -> RunRecord:
    space, rng, counter, pop = prepare_run("bto", config, objective, space)
    state = BTOState(
        population=pop,
        chaos=kernels.make_chaos(config.chaos_map, rng.uniform()),
        max_iterations=config.iterations,
        bound_mode=config.bound_mode,
    )
    return drive("bto", config, bto_step, state, counter, space, rng)


# --- gravitational search ---------------------------------------------------


@dataclass
class GSAState:
    population: Population
    velocities: List[Array]  # one row per agent; a step leaves an (N, dim) array
    max_iterations: int
    iteration: int = 0
    bound_mode: str = "clamp"


def gsa_masses(fitness: Array) -> Array:
    """Normalized masses from fitness; a flat population weighs 1/N each."""
    best_f = float(np.min(fitness))
    worst_f = float(np.max(fitness))
    if best_f == worst_f:
        raw = np.ones_like(fitness)
    else:
        raw = (fitness - worst_f) / (best_f - worst_f)
    return raw / np.sum(raw)


def gsa_gravity(iteration: int, max_iterations: int) -> float:
    """Gravitational constant ``G0 * exp(-alpha * iteration / max_iterations)``."""
    return GSA_G0 * math.exp(-GSA_ALPHA * iteration / max_iterations)


def _gsa_kbest(n: int, iteration: int, max_iterations: int) -> int:
    span = max(max_iterations - 1, 1)
    return max(1, int(round(n - (n - 1) * iteration / span)))


def gsa_step(state: GSAState, objective: Objective, space: SearchSpace, rng: RandomStream) -> GSAState:
    """Synchronous force/velocity/position sweep.

    Forces come from the k best agents of the iteration-start snapshot
    (k shrinking linearly from N to 1), with one random vector per attracting
    pair, drawn agent by agent in attractor order; then each agent draws one
    damping vector for its velocity update and is evaluated.  The force
    sweep runs attractor by attractor across all agents at once, so each
    agent still sums its pulls in attractor order.  Nothing reads a live
    evaluation, so every velocity and bounded position is computed before
    the first evaluation.
    """
    pop = state.population
    n = len(pop)
    dim = space.dim
    t0 = state.iteration
    gravity = gsa_gravity(t0, state.max_iterations)
    fitness = pop.fitness_values()
    masses = gsa_masses(fitness)
    kbest = _gsa_kbest(n, t0, state.max_iterations)
    attractors = np.argsort(fitness, kind="stable")[:kbest]
    positions = pop.positions()

    # agent i's vector for attractor k is row rows[i, k] of the pulls drawn
    # agent by agent; an attractor pulls on every agent but itself, so it
    # draws none for its own slot, whose row is another's (zeroed below)
    drawn = np.ones((n, kbest), dtype=bool)
    drawn[attractors, np.arange(kbest)] = False
    rows = np.cumsum(drawn).reshape(n, kbest) - 1
    flat, damping = reserve(rng, n, (dim,), lead=(n - 1) * kbest * dim)
    pulls = flat.reshape(-1, dim)

    accelerations = np.zeros((n, dim))
    for k, j in enumerate(attractors.tolist()):
        offset = positions[j] - positions
        # the batched row products round exactly like np.linalg.norm per row
        distance = np.sqrt(offset[:, None, :] @ offset[:, :, None])[:, 0]
        pull = pulls[rows[:, k]] * gravity * masses[j] * offset / (distance + _GSA_EPS)
        # adding +0.0 leaves every sum unchanged (it starts at +0.0, so it is
        # never -0.0); this also drops a non-finite self term
        pull[j] = 0.0
        accelerations += pull

    state.velocities = damping * np.array(state.velocities) + accelerations
    moved_positions = bound_position(positions + state.velocities, space.lower, space.upper, state.bound_mode)
    for i in range(n):
        moved = Agent(moved_positions[i])
        moved.fitness = objective(moved.position)
        pop.agents[i] = moved
        consider_best(pop, moved)
    settle(rng)
    state.iteration = t0 + 1
    return state


def run_gsa(config: RunConfig, objective, space: SearchSpace = None) -> RunRecord:
    space, rng, counter, pop = prepare_run("gsa", config, objective, space)
    state = GSAState(
        population=pop,
        velocities=[np.zeros(space.dim) for _ in pop.agents],
        max_iterations=config.iterations,
        bound_mode=config.bound_mode,
    )
    return drive("gsa", config, gsa_step, state, counter, space, rng)
