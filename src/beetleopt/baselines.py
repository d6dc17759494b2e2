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
from .core import Algorithm, Array, Group, by_agent, improved

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


def _busy(changes: int, n: int) -> bool:
    """Whether a run whose leaders changed ``changes`` times in the previous
    iteration steps agent by agent in this one: its expected chunks, ``changes
    + 1``, each one block call, exceed a quarter of its ``n`` agent steps."""
    return changes + 1 > n // 4


def _leaders_step(g: Group, width: int, terms, guided) -> None:
    """One iteration of a leader-guided step: reserve a row of ``width``
    draws per agent, turn them into ``terms(u)`` (``(R, N, ...)`` arrays),
    then move every agent of every run once, in agent order, to
    ``guided(leaders, *terms_i, x_i)``, made from the run's live
    leaders ``(..., 3, dim)`` (best first), the agent's rows of the terms
    and its position; the group shift-inserts it into the leaders.

    An agent that changes no leader leaves the next agents' proposals as
    they were.  So a run whose leaders changed rarely in the previous
    iteration (not :func:`_busy`) sweeps in chunks
    (:meth:`~beetleopt.core.Group.sweep`), each cut at its first agent that
    changes a leader, whose value improves on the third.  A busy run steps
    agent by agent: alone, one proposal and one evaluation per agent, when
    it is the only busy one, and otherwise with every run of the group in
    lockstep.  Every path gives the same records.
    """
    (u,) = g.reserve((width,))
    terms = terms(u)
    busy = [r for r, c in enumerate(g.leader_changes) if _busy(c, g.n)]
    g.leader_changes = [0] * len(g.rngs)
    if len(busy) > 1:
        for i, (x, *agent) in enumerate(zip(g.at, *map(by_agent, terms))):
            g.move(i, guided(g.leaders, *agent, x))
        return

    def propose(r: int, start: int) -> Array:
        return guided(g.leaders[r], *(t[r, start:] for t in terms), g.x[r, start:])

    g.sweep(propose, runs=[r for r in range(len(g.rngs)) if r not in busy])
    for r in busy:
        x, leaders = g.x[r], g.leaders[r]
        for i, agent in enumerate(zip(*(t[r] for t in terms))):
            g.place(r, i, guided(leaders, *agent, x[i]))


def _velocities_init(g: Group) -> None:
    g.velocities = np.zeros_like(g.x)


def _personal_init(g: Group) -> None:
    """Zero velocities, and every agent as its own personal best."""
    _velocities_init(g)
    g.personal_best = g.x.copy()
    g.personal_best_f = np.array(g.fitness)


def _update_personal(g: Group) -> None:
    """Make every agent whose value improves on its personal best that
    best.  An agent moves once per iteration and nothing reads a personal
    best before the next one, so this runs once, after the sweep."""
    fitness = np.array(g.fitness)
    better = improved(fitness, g.personal_best_f)
    g.personal_best_f = np.where(better, fitness, g.personal_best_f)
    g.personal_best[better] = g.x[better]


def _velocity_sweep(g: Group, memory: Array, social: Array) -> None:
    """pso's and sso's move: sweep every agent to ``x + v``, with
    ``v = memory + social * (best_x - x)`` from its run's live best-so-far
    (``memory``, ``social``: ``(R, N, ...)``), then update personal bests."""

    def propose(r: int, start: int) -> Array:
        x = g.x[r, start:]
        v = memory[r, start:] + social[r, start:] * (g.best_x[r] - x)
        # an agent proposed again overwrites this with its committed velocity
        g.velocities[r, start:] = v
        return x + v

    g.sweep(propose)
    _update_personal(g)


# --- particle swarm ---------------------------------------------------------


def _pso_memory(inertia: float, velocity: Array, r1: Array, personal_best: Array, position: Array) -> Array:
    """Inertia plus cognitive pull, the part of a velocity that does not read
    the live global best; rows of agents or one agent alike."""
    return inertia * velocity + PSO_COGNITIVE * r1 * (personal_best - position)


def _pso_step(g: Group) -> None:
    t = g.iteration + 1
    span = max(g.max_iterations - 1, 1)
    inertia = PSO_INERTIA_START - (PSO_INERTIA_START - PSO_INERTIA_END) * (t - 1) / span
    dim = g.dim
    # per agent, one r1 draw per dimension, then one r2 draw per dimension
    (u,) = g.reserve((2 * dim,))
    memory = _pso_memory(inertia, g.velocities, u[..., :dim], g.personal_best, g.x)
    _velocity_sweep(g, memory, PSO_SOCIAL * u[..., dim:])


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
    _velocity_sweep(g, *_sso_memory(draws, g.velocities, g.personal_best, g.x))


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
    """``(t0 + t1 + t2) / 3`` of the three rows of ``terms`` ``(..., 3, dim)``:
    reducing that axis adds the rows in order, from -0.0, which keeps the
    first row's bits (from +0.0, three -0.0 rows would sum to +0.0)."""
    mean = np.add.reduce(terms, -2, initial=-0.0)
    mean /= 3.0
    return mean


def _gwo_step(g: Group) -> None:
    coefficient = 2.0 - g.iteration * 2.0 / g.max_iterations
    _leaders_step(g, 6 * g.dim, lambda u: _gwo_coefficients(u, coefficient), _gwo_guided)


def _no_state(g: Group) -> None:
    """gwo's and cdo's ``init``: they read only the group's leaders."""


#: gwo and cdo steer every agent by the three best
GWO = Algorithm("gwo", 3, _no_state, _gwo_step, leaders=3)
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


CDO = Algorithm("cdo", 3, _no_state, _cdo_step, leaders=3)
run_cdo = CDO.run


# --- bermuda triangle -------------------------------------------------------


def bto_zone(iteration: int, max_iterations: int) -> float:
    """Force-zone coefficient interpolating between the log area extremes."""
    return BTO_AREA_MIN + iteration * (BTO_AREA_MAX - BTO_AREA_MIN) / max_iterations


def bto_decay(iteration: int, max_iterations: int) -> float:
    """The draw-free factor ``exp(-20 * iteration / max_iterations)`` of an
    agent's acceleration (:func:`_bto_scales`)."""
    return math.exp(-20.0 * iteration / max_iterations)


def _bto_scales(chaos: Array, draws: Array, decay: float) -> Array:
    """Each agent's pull scale ``chaos * area * acceleration`` from its chaos
    value and its row of five draws (``(..., 1)`` and ``(..., 5)``): the
    triangle area when prescience (the fifth draw) is above 0.5, else the
    ring, and the acceleration ``r * decay`` of the fourth draw ``r``."""
    area = np.where(draws[..., 4:] > 0.5, BTO_TRIANGLE_AREA, BTO_RING_AREA)
    return chaos * area * (draws[..., 3:4] * decay)


def _bto_force_probabilities(iteration: int, max_iterations: int, gforce: Array) -> Array:
    """Probability of force ``1 - (t - 1/G)/(T - 1/G)`` of each force ``G``,
    clamped into [0, 1] as ``min(1, max(0, raw))``.

    The 1/G pole is sanitized: zero force means no pull at all, so the
    degenerate cases (``G <= 0``, the pole, a non-finite raw value, NaN)
    collapse to probability 0.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inverse = 1.0 / gforce
        denominator = max_iterations - inverse
        raw = 1.0 - (iteration - inverse) / denominator
    raw = np.where((gforce > 0.0) & (denominator != 0.0) & np.isfinite(raw), raw, 0.0)
    return np.where(raw < 1.0, np.where(raw > 0.0, raw, 0.0), 1.0)


def _bto_step(g: Group) -> None:
    """One sweep of gravity-pulled jumps around the best solution.

    Per agent: advance the chaos map (no draws), then draw the two masses
    and their distance, the acceleration factor and the prescience value
    (one row of five).
    Prescience above 0.5 selects the triangle area (strong pull), otherwise
    the surrounding ring area; either way the position is replaced outright
    and only the best-so-far is tracked greedily.  Each agent's pull scale
    and force probability read only its draws and chaos value, so they are
    worked out for all agents as ``(R, N, 1)`` arrays before the first
    moves.
    """
    t0 = g.iteration
    zone = bto_zone(t0, g.max_iterations)
    (u,) = g.reserve((5,))
    scales = _bto_scales(kernels.chaos_rows(g), u, bto_decay(t0, g.max_iterations))
    # force G * m1 * m2 / d^2, +inf at distance 0
    distance = u[..., 2:3]
    gforce = np.full(distance.shape, math.inf)
    np.divide(BTO_GRAVITATION * u[..., 0:1] * u[..., 1:2], distance * distance, out=gforce, where=distance > 0.0)
    probabilities = _bto_force_probabilities(t0, g.max_iterations, gforce)
    anchor = g.width * zone + g.lower

    def propose(r: int, start: int) -> Array:
        pulled = scales[r, start:] * g.best_x[r] - probabilities[r, start:]
        return pulled * anchor[r]

    g.sweep(propose)


BTO = Algorithm("bto", 2, kernels.seed_chaos, _bto_step)
run_bto = BTO.run


# --- gravitational search ---------------------------------------------------


def gsa_masses(fitness: Array) -> Array:
    """Normalized masses from the finite fitness values along the last axis
    (one population per row); a flat population weighs 1/N each.  A
    non-finite value weighs 0, and with none finite every mass is 0."""
    finite = np.isfinite(fitness)
    best = np.minimum.reduce(np.where(finite, fitness, np.inf), -1, keepdims=True)
    worst = np.maximum.reduce(np.where(finite, fitness, -np.inf), -1, keepdims=True)
    # a flat row has best - worst == 0, a row with none finite +inf
    spread = best - worst
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = (fitness - worst) / spread
    raw = np.where(finite, np.where(spread == 0.0, 1.0, raw), 0.0)
    total = np.add.reduce(raw, -1, keepdims=True)
    raw /= np.where(total > 0.0, total, 1.0)
    return raw


def _gsa_ranking(fitness: Array) -> Array:
    """Agent indices best first along the last axis; non-finite values rank
    after every finite one, in index order."""
    return np.argsort(np.where(np.isfinite(fitness), fitness, np.inf), kind="stable")


def gsa_gravity(iteration: int, max_iterations: int) -> float:
    """Gravitational constant ``G0 * exp(-alpha * iteration / max_iterations)``."""
    return GSA_G0 * math.exp(-GSA_ALPHA * iteration / max_iterations)


def _gsa_kbest(n: int, iteration: int, max_iterations: int) -> int:
    span = max(max_iterations - 1, 1)
    return max(1, int(round(n - (n - 1) * iteration / span)))


#: Most elements one temporary of gsa's attractor sweep holds: a block of
#: attractors is swept at once while its pulls fit (at least one attractor)
_GSA_BLOCK = 8192


def _gsa_step(g: Group) -> None:
    """Synchronous force/velocity/position sweep.

    Forces come from the k best agents of the iteration-start snapshot
    (k shrinking linearly from N to 1), with one random vector per attracting
    pair, drawn agent by agent in attractor order; then each agent draws one
    damping vector for its velocity update and is evaluated.  The ranks,
    masses and pull rows of every run come from the group's ``(R, N)``
    values at once, and the force sweep works out the pulls of a block of
    attractors on all agents of every run at once, then adds them to the
    accelerations one attractor at a time, so each agent still sums its
    pulls in attractor order.  Nothing reads a live evaluation, so every
    velocity and position is computed before the first evaluation,
    and the moved population is evaluated at once
    (:meth:`~beetleopt.core.Group.move_all`).
    """
    n, dim, t0 = g.n, g.dim, g.iteration
    gravity = gsa_gravity(t0, g.max_iterations)
    kbest = _gsa_kbest(n, t0, g.max_iterations)
    fitness = np.array(g.fitness, dtype=float)
    runs = np.arange(len(fitness))
    attractors = _gsa_ranking(fitness)[:, :kbest]
    # agent i's vector for attractor k is row rows[k, r, i] of run r's pulls
    # drawn agent by agent; an attractor pulls on every agent but itself, so
    # it draws none for its own slot, whose row is another's (zeroed below)
    drawn = np.ones((len(runs), n, kbest), dtype=bool)
    drawn[runs[:, None], attractors, np.arange(kbest)] = False
    rows = (np.cumsum(drawn.reshape(len(runs), -1), 1) - 1).reshape(drawn.shape).transpose(2, 0, 1)
    flat, damping = g.reserve((dim,), lead=(n - 1) * kbest * dim)
    # the attractors' indices into the runs' agents in one stack of rows,
    # with their positions and masses, attractor by attractor
    x = g.x
    pulls = flat.reshape(len(runs), -1, dim)
    selves = attractors.T + runs * n
    attracting = x.reshape(-1, dim)[selves]
    weights = gsa_masses(fitness).ravel()[selves][..., None, None]
    accelerations = np.zeros_like(x)
    block = max(1, _GSA_BLOCK // x.size)
    for k in range(0, kbest, block):
        ks = slice(k, k + block)
        offset = attracting[ks, :, None] - x
        # the batched row products round exactly like np.linalg.norm per row
        distance = np.sqrt(offset[..., None, :] @ offset[..., :, None])[..., 0]
        distance += _GSA_EPS
        # pulls * gravity * weight * offset / (distance + eps), in place
        pull = pulls[runs[:, None], rows[ks]]
        pull *= gravity
        pull *= weights[ks]
        pull *= offset
        pull /= distance
        # adding +0.0 leaves every sum unchanged (it starts at +0.0, so it is
        # never -0.0); this also drops a non-finite self term
        pull.reshape(len(pull), -1, dim)[np.arange(len(pull))[:, None], selves[ks]] = 0.0
        # one attractor at a time: a reduce over the block would add in
        # another order unless one block held every attractor
        for one in pull:
            accelerations += one

    g.velocities = damping * g.velocities + accelerations
    g.move_all(x + g.velocities)


GSA = Algorithm("gsa", 2, _velocities_init, _gsa_step)
run_gsa = GSA.run
