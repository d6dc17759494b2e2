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
the agent loop.  Each step advances a :class:`~beetleopt.core.Group` of
runs: pso, sso and bto run by run in chunks of agents evaluated as one block
(:meth:`~beetleopt.core.Group.sweep`); gwo and cdo in chunks cut at each
leader change while their leaders changed rarely in the previous iteration,
and agent by agent in lockstep otherwise (:func:`_leaders_step`); gsa all
agents at once.  Each algorithm is one :class:`~beetleopt.core.Algorithm`
entry (``PSO``, ``SSO``, ``GWO``, ``CDO``, ``BTO``, ``GSA``); the public
``run_*`` functions are its ``run`` method, a group of one run.
All of them evaluate the objective exactly N times per iteration.
The gravitational-search internals follow the standard formulation of that
algorithm (only its two tuning constants are shared with the rest of the
suite); the grey-wolf coefficient mechanics likewise use the standard
encircling coefficients.
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
    RunConfig,
    bound_position,
    by_agent,
    nan_last,
)

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


def _best_three(fitness: list) -> list:
    """Indices of the three best values, ties in index order and NaN after
    every other value."""
    return sorted(range(len(fitness)), key=lambda i: nan_last(fitness[i]))[:3]


def _leaders_init(g: Group, config: RunConfig) -> None:
    """Each run's three best agents as its ``leaders`` ``(R, 3, dim)``, best
    first, with their values in ``leaders_f``, and no ``leader_changes``
    before the first iteration."""
    best = [_best_three(fitness) for fitness in g.fitness]
    g.leaders = np.array([x[i] for x, i in zip(g.x, best)])
    g.leaders_f = [[fitness[k] for k in i] for fitness, i in zip(g.fitness, best)]
    g.leader_changes = None


def _insert_leader(g: Group, r: int, i: int, value: float) -> None:
    """Shift-insert agent ``i`` of run ``r`` into its leaders, so they stay
    the three best evaluations seen, and count a change in the run's
    ``leader_changes``."""
    rank = g.leaders_f[r]
    if value < rank[0]:
        k = 0
    elif value < rank[1]:
        k = 1
    elif value < rank[2]:
        k = 2
    else:
        return
    rank[k + 1 :] = rank[k:2]
    rank[k] = value
    leaders = g.leaders[r]
    leaders[k + 1 :] = leaders[k:2]
    leaders[k] = g.x[r, i]
    g.leader_changes[r] += 1


def _leader_cut(g: Group, r: int) -> float:
    """The value below which an agent of run ``r`` changes one of its leaders
    or its best-so-far: the largest of them, NaN aside (no value is below
    NaN, and with all of them NaN none is below the cut)."""
    return max((v for v in (*g.leaders_f[r], g.best_f[r]) if v == v), default=-math.inf)


def _chunks_pay(changes, n: int) -> bool:
    """Whether a leader step sweeps its runs in chunks this iteration:
    ``changes`` are the runs' leader changes in the previous iteration (None
    before the first), so a run is expected to take ``c + 1`` chunks, each
    one block call; chunks pay while they total at most a quarter of the
    ``n`` lockstep agent steps."""
    return changes is not None and sum(changes) + len(changes) <= n // 4


def _leaders_step(g: Group, width: int, terms, guided) -> None:
    """One iteration of a leader-guided step: reserve a row of ``width``
    draws per agent, turn them into ``terms(u)`` (``(R, N, ...)`` arrays),
    then move every agent of every run once, in agent order, to
    ``guided(leaders, *terms_i, x_i)`` (bounded), made from the run's live
    leaders ``(..., 3, dim)`` (best first), the agent's rows of the terms
    and its position, and shift-insert it into the leaders.

    An agent that changes no leader leaves the next agents' proposals as
    they were.  So when few agents changed a leader in the previous
    iteration (:func:`_chunks_pay`), the runs sweep in chunks
    (:meth:`~beetleopt.core.Group.sweep`), each cut at its first agent that
    changes a leader or the best-so-far; otherwise every run steps agent by
    agent in lockstep.  Both give the same records.
    """
    (u,) = g.reserve((width,))
    terms = terms(u)
    changes = g.leader_changes
    g.leader_changes = [0] * len(g.rngs)
    if _chunks_pay(changes, g.n):

        def propose(r: int, start: int) -> Array:
            return g.bound_run(r, guided(g.leaders[r], *(t[r, start:] for t in terms), g.x[r, start:]))

        g.sweep(propose, functools.partial(_leader_cut, g), functools.partial(_insert_leader, g))
    else:
        for i, (x, *agent) in enumerate(zip(g.at, *map(by_agent, terms))):
            for r, value in enumerate(g.move(i, g.bound(guided(g.leaders, *agent, x)))):
                _insert_leader(g, r, i, value)


def _velocities_init(g: Group, config: RunConfig) -> None:
    g.velocities = np.zeros_like(g.x)


def _personal_init(g: Group, config: RunConfig) -> None:
    """Zero velocities, and every agent as its own personal best."""
    _velocities_init(g, config)
    g.personal_best = g.x.copy()
    g.personal_best_f = np.array(g.fitness)


def _update_personal(g: Group) -> None:
    """Make every agent that moved below its personal best that best.  An
    agent moves once per iteration and nothing reads a personal best before
    the next one, so this runs once, after the sweep."""
    fitness = np.array(g.fitness)
    better = fitness < g.personal_best_f
    g.personal_best_f = np.where(better, fitness, g.personal_best_f)
    g.personal_best[better] = g.x[better]


# --- particle swarm ---------------------------------------------------------


def _pso_memory(inertia: float, velocity: Array, r1: Array, personal_best: Array, position: Array) -> Array:
    """Inertia plus cognitive pull, the part of a velocity that does not read
    the live global best; rows of agents or one agent alike."""
    return inertia * velocity + PSO_COGNITIVE * r1 * (personal_best - position)


def _pso_social(memory: Array, r2: Array, global_best: Array, position: Array) -> Array:
    """Add the social pull toward the global best to :func:`_pso_memory`."""
    return memory + PSO_SOCIAL * r2 * (global_best - position)


def _pso_step(g: Group) -> None:
    t = g.iteration + 1
    span = max(g.max_iterations - 1, 1)
    inertia = PSO_INERTIA_START - (PSO_INERTIA_START - PSO_INERTIA_END) * (t - 1) / span
    dim = g.dim
    # per agent, one r1 draw per dimension, then one r2 draw per dimension
    (u,) = g.reserve((2 * dim,))
    memory = _pso_memory(inertia, g.velocities, u[..., :dim], g.personal_best, g.x)
    social = u[..., dim:]

    def propose(r: int, start: int) -> Array:
        x = g.x[r, start:]
        v = _pso_social(memory[r, start:], social[r, start:], g.best_x[r], x)
        # an agent proposed again overwrites this with its committed velocity
        g.velocities[r, start:] = v
        return g.bound_run(r, x + v)

    g.sweep(propose)
    _update_personal(g)


PSO = Algorithm("pso", 2, _personal_init, _pso_step)
run_pso = PSO.run


# --- sperm swarm ------------------------------------------------------------


def _sso_memory(draws: Array, velocity: Array, personal_best: Array, position: Array):
    """For velocity blocks drawn in range (the last axis: damping, pH1, pH2,
    temperature1, pH3, temperature2): the damped start velocity plus the
    personal pull, and each block's global-pull factor, both shaped like
    the blocks with one column each.

    Every log factor is ``math.log10`` of one draw, as the scalar formula
    has it.
    """
    shape = draws.shape[:-1] + (1,)
    rows = draws.reshape(-1, draws.shape[-1]).tolist()
    start = np.array([math.log10(row[1]) for row in rows]).reshape(shape)
    personal = np.array([math.log10(row[2]) * math.log10(row[3]) for row in rows]).reshape(shape)
    social = np.array([math.log10(row[4]) * math.log10(row[5]) for row in rows]).reshape(shape)
    memory = draws[..., :1] * velocity * start + personal * (personal_best - position)
    return memory, social


def _sso_step(g: Group) -> None:
    (u,) = g.reserve((len(_SSO_DRAW_RANGES),))
    draws = _SSO_DRAW_LOW + _SSO_DRAW_SPAN * u
    memory, social = _sso_memory(draws, g.velocities, g.personal_best, g.x)

    def propose(r: int, start: int) -> Array:
        x = g.x[r, start:]
        v = memory[r, start:] + social[r, start:] * (g.best_x[r] - x)
        g.velocities[r, start:] = v
        return g.bound_run(r, x + v)

    g.sweep(propose)
    _update_personal(g)


SSO = Algorithm("sso", 2, _personal_init, _sso_step)
run_sso = SSO.run


# --- grey wolf --------------------------------------------------------------


def _gwo_coefficients(draws: Array, coefficient: float):
    """``A = 2a*r1 - a`` and ``C = 2*r2`` for blocks of ``6 * dim`` draws (the
    last axis), each as ``(..., 3, dim)``: leader by leader, r1 then r2."""
    draws = draws.reshape(draws.shape[:-1] + (3, 2, -1))
    return 2.0 * coefficient * draws[..., 0, :] - coefficient, 2.0 * draws[..., 1, :]


def _gwo_guided(leaders: Array, a_coef: Array, c_coef: Array, position: Array) -> Array:
    """Mean of the three leader-guided positions
    ``leaders - a_coef * |c_coef * leaders - position|``, for one agent or
    for agents of one or every run (leading axes); in place on one
    temporary, products commuting bit for bit."""
    guided = c_coef * leaders
    guided -= position[..., None, :]
    np.abs(guided, out=guided)
    guided *= a_coef
    return _mean_of_three(np.subtract(leaders, guided, out=guided))


def _mean_of_three(terms: Array) -> Array:
    """``(t0 + t1 + t2) / 3`` of the three rows of ``terms`` ``(..., 3, dim)``."""
    mean = terms[..., 0, :] + terms[..., 1, :]
    mean += terms[..., 2, :]
    mean /= 3.0
    return mean


def _gwo_step(g: Group) -> None:
    coefficient = 2.0 - g.iteration * 2.0 / g.max_iterations
    _leaders_step(g, 6 * g.dim, lambda u: _gwo_coefficients(u, coefficient), _gwo_guided)


#: gwo and cdo steer every agent by the three best
GWO = Algorithm("gwo", 3, _leaders_init, _gwo_step)
run_gwo = GWO.run


# --- chernobyl disaster -----------------------------------------------------


def cdo_walk_speed(iteration: int, max_iterations: int) -> float:
    """Walking speed decaying linearly from 3 to 0 across the run."""
    return 3.0 - iteration * (3.0 / max_iterations)


def _cdo_terms(draws: Array, walk_speed: float):
    """For blocks of ``8 * dim`` scaled draws (the last axis): each block's
    propagation area ``(..., 1, dim)`` and its gamma/beta/alpha spread
    factors ``rho`` ``(..., 3, dim)``."""
    draws = draws.reshape(draws.shape[:-1] + (8, -1))
    region = draws[..., :1, :] ** 2 * np.pi
    area = draws[..., 1:2, :] ** 2 * np.pi
    # region / (weight * log speed) - walk_speed * jitter, in place on the
    # logs (gamma, beta, alpha); products commute bit for bit
    rho = np.log(draws[..., 2::2, :])
    rho *= _CDO_WEIGHTS
    np.divide(region, rho, out=rho)
    rho -= walk_speed * draws[..., 3::2, :]
    return area, rho


def _cdo_descent(leaders: Array, area: Array, rho: Array, position: Array) -> Array:
    """Weighted mean of the gamma/beta/alpha descent terms
    ``weight * (leader - rho * |area * leader - position|)``, from leaders
    best first (alpha, beta, gamma), for one agent or for agents of one or
    every run (leading axes); in place on one temporary, products commuting
    bit for bit."""
    leaders = leaders[..., ::-1, :]  # gamma, beta, alpha
    delta = area * leaders
    delta -= position[..., None, :]
    np.abs(delta, out=delta)
    delta *= rho
    np.subtract(leaders, delta, out=delta)
    delta *= _CDO_WEIGHTS
    return _mean_of_three(delta)


#: Class weights of the gamma, beta and alpha terms, as a column.
_CDO_WEIGHTS = np.array([[1.0], [0.5], [0.25]])


@functools.lru_cache(maxsize=None)
def _cdo_draw_bounds(dim: int):
    """Read-only per-draw ``(low, high)`` of one agent's ``8 * dim`` draws,
    a row of ``dim`` each: the walker-disk region and the propagation area
    shared by the three classes, then a log-speed and a walking-speed
    jitter row per class (gamma, beta, alpha)."""
    low = np.repeat([0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0], dim)
    high = np.repeat([1.0, 1.0, CDO_SPEED_GAMMA, 1.0, CDO_SPEED_BETA, 1.0, CDO_SPEED_ALPHA, 1.0], dim)
    low.flags.writeable = False
    high.flags.writeable = False
    return low, high


def _cdo_step(g: Group) -> None:
    walk_speed = cdo_walk_speed(g.iteration, g.max_iterations)
    low, high = _cdo_draw_bounds(g.dim)

    def terms(u: Array):
        # low + (high - low) * u, in place
        u *= high - low
        u += low
        return _cdo_terms(u, walk_speed)

    _leaders_step(g, low.size, terms, _cdo_descent)


CDO = Algorithm("cdo", 3, _leaders_init, _cdo_step)
run_cdo = CDO.run


# --- bermuda triangle -------------------------------------------------------


def bto_zone(iteration: int, max_iterations: int) -> float:
    """Force-zone coefficient interpolating between the log area extremes."""
    return BTO_AREA_MIN + iteration * (BTO_AREA_MAX - BTO_AREA_MIN) / max_iterations


def bto_decay(iteration: int, max_iterations: int) -> float:
    """The draw-free factor ``exp(-20 * iteration / max_iterations)`` of an
    agent's acceleration (:func:`_bto_accelerations`)."""
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


def _bto_step(g: Group) -> None:
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
    t0 = g.iteration
    zone = bto_zone(t0, g.max_iterations)
    (u,) = g.reserve((5,))
    next_chaos = kernels.chaos_step(g.chaos_map)
    decay = bto_decay(t0, g.max_iterations)
    scales = []
    probabilities = []
    for r, rows in enumerate(u.tolist()):
        chaos = g.chaos[r]
        accelerations = _bto_accelerations([row[3] for row in rows], decay)
        for (mass_center, mass_pulled, distance, _, prescience), acceleration in zip(rows, accelerations):
            chaos = next_chaos(chaos)
            numerator = BTO_GRAVITATION * mass_center * mass_pulled
            gforce = numerator / (distance * distance) if distance > 0.0 else math.inf
            probabilities.append(_bto_force_probability(t0, g.max_iterations, gforce))
            area = BTO_TRIANGLE_AREA if prescience > 0.5 else BTO_RING_AREA
            scales.append(chaos * area * acceleration)
        g.chaos[r] = chaos
    shape = (len(g.chaos), g.n, 1)
    scales = np.array(scales).reshape(shape)
    probabilities = np.array(probabilities).reshape(shape)
    anchor = g.width * zone + g.lower

    def propose(r: int, start: int) -> Array:
        pulled = scales[r, start:] * g.best_x[r] - probabilities[r, start:]
        return g.bound_run(r, pulled * anchor[r])

    g.sweep(propose)


BTO = Algorithm("bto", 2, kernels.seed_chaos, _bto_step)
run_bto = BTO.run


# --- gravitational search ---------------------------------------------------


def gsa_masses(fitness: Array) -> Array:
    """Normalized masses from the finite fitness values; a flat population
    weighs 1/N each.  A non-finite value weighs 0, and with none finite
    every mass is 0."""
    finite = np.isfinite(fitness)
    if not finite.any():
        return np.zeros_like(fitness)
    best_f = float(np.min(fitness[finite]))
    worst_f = float(np.max(fitness[finite]))
    if best_f == worst_f:
        raw = finite.astype(float)
    else:
        raw = np.where(finite, (fitness - worst_f) / (best_f - worst_f), 0.0)
    return raw / np.sum(raw)


def _gsa_ranking(fitness: Array) -> Array:
    """Agent indices best first; non-finite values rank after every finite
    one, in index order."""
    return np.argsort(np.where(np.isfinite(fitness), fitness, np.inf), kind="stable")


def gsa_gravity(iteration: int, max_iterations: int) -> float:
    """Gravitational constant ``G0 * exp(-alpha * iteration / max_iterations)``."""
    return GSA_G0 * math.exp(-GSA_ALPHA * iteration / max_iterations)


def _gsa_kbest(n: int, iteration: int, max_iterations: int) -> int:
    span = max(max_iterations - 1, 1)
    return max(1, int(round(n - (n - 1) * iteration / span)))


def _gsa_step(g: Group) -> None:
    """Synchronous force/velocity/position sweep.

    Forces come from the k best agents of the iteration-start snapshot
    (k shrinking linearly from N to 1), with one random vector per attracting
    pair, drawn agent by agent in attractor order; then each agent draws one
    damping vector for its velocity update and is evaluated.  The force
    sweep runs attractor by attractor across all agents (of every run of a
    group) at once, so each agent still sums its pulls in attractor order.
    Nothing reads a live evaluation, so every velocity and bounded position
    is computed before the first evaluation, and the moved population is
    evaluated at once (:meth:`~beetleopt.core.Group.move_all`).
    """
    n, dim, t0 = g.n, g.dim, g.iteration
    gravity = gsa_gravity(t0, g.max_iterations)
    kbest = _gsa_kbest(n, t0, g.max_iterations)
    masses, attractors, rows = [], [], []
    for fitness in g.fitness:
        fitness = np.array(fitness, dtype=float)
        masses.append(gsa_masses(fitness))
        order = _gsa_ranking(fitness)[:kbest]
        # agent i's vector for attractor k is row rows[i, k] of the pulls
        # drawn agent by agent; an attractor pulls on every agent but itself,
        # so it draws none for its own slot, whose row is another's (zeroed
        # below)
        drawn = np.ones((n, kbest), dtype=bool)
        drawn[order, np.arange(kbest)] = False
        rows.append(np.cumsum(drawn).reshape(n, kbest) - 1)
        attractors.append(order)
    flat, damping = g.reserve((dim,), lead=(n - 1) * kbest * dim)
    # the runs' agents and masses each in one stack of rows, with the
    # attractors' indices into them, and each run's pull rows (views of its
    # reservation), attractor by attractor
    x = g.x
    runs = np.arange(len(flat))
    pulls = flat.reshape(len(flat), -1, dim)
    rows = np.array(rows).transpose(2, 0, 1)
    selves = np.array(attractors).T + runs * n
    attracting = x.reshape(-1, dim)[selves]
    weights = np.array(masses).ravel()[selves][..., None, None]
    accelerations = np.zeros_like(x)
    for k in range(kbest):
        offset = attracting[k][:, None] - x
        # the batched row products round exactly like np.linalg.norm per row
        distance = np.sqrt(offset[..., None, :] @ offset[..., :, None])[..., 0]
        pull = pulls[runs[:, None], rows[k]] * gravity * weights[k] * offset / (distance + _GSA_EPS)
        # adding +0.0 leaves every sum unchanged (it starts at +0.0, so it is
        # never -0.0); this also drops a non-finite self term
        pull.reshape(-1, dim)[selves[k]] = 0.0
        accelerations += pull

    g.velocities = damping * g.velocities + accelerations
    g.move_all(bound_position(x + g.velocities, g.lower[:, None], g.upper[:, None], g.bound_mode))


GSA = Algorithm("gsa", 2, _velocities_init, _gsa_step)
run_gsa = GSA.run
