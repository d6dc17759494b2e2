"""Reusable numeric kernels: circle-circle intersection area, chaotic map
iteration, the exponential spray schedule and the flapping-lift magnitude
with its per-iteration escape step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .benchmarks import _square
from .core import Array, ConfigurationError, SearchSpace

#: Base and exponent scale of the spray schedule value
#: ``|chaos| * 2.7 ** (100 * iteration / max_iterations)``.
SPRAY_BASE = 2.7
SPRAY_EXPONENT_SCALE = 100.0
#: Spray magnitudes below this floor are lifted to it; the defense update
#: divides by the spray and a chaos value of exactly zero must not blow up.
SPRAY_FLOOR = 1e-12

#: Chaos iterates are kept this far inside their open domains so that maps
#: with absorbing boundaries (tent at 0.7 -> 1, singer overshooting 1)
#: never leave them or divide by zero.
CHAOS_DOMAIN_GUARD = 1e-12


@dataclass(frozen=True)
class CirclePair:
    """Two circle radii and the distance between their centers."""

    radius_a: float
    radius_b: float
    distance: float

    def __post_init__(self):
        for name in ("radius_a", "radius_b", "distance"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {v!r}")
            object.__setattr__(self, name, v)


def circle_intersection_area(pair: CirclePair) -> float:
    """Area of the lens shared by two circles (:func:`lens_areas` of one
    pair).

    Disjoint circles (``d >= R + r``) share nothing; full containment
    (``d <= |R - r|``) yields the smaller disk.  In between, each radius
    pairs with its own arccos term of the standard lens formula; the arccos
    arguments and the root are clipped against rounding at the case
    boundaries.
    """
    return float(lens_areas(pair.radius_a, pair.radius_b, pair.distance))


def lens_areas(big, small, d) -> Array:
    """Unchecked core of :func:`circle_intersection_area`, elementwise over
    radii and distances given as arrays of one shape (or scalars), all
    finite and >= 0.

    Each area has the bits of the scalar formula in Python floats: the
    arithmetic is spelled in its order, the arccos is ``math.acos`` of each
    value and the smaller radius is squared with Python's float power
    (:func:`~beetleopt.benchmarks._square`), because ``np.arccos`` and
    ``x * x`` round some values differently from those.
    """
    shape = np.shape(d)
    big, small, d = (np.ravel(a) for a in (big, small, d))
    out = np.zeros(d.shape)
    disjoint = d >= big + small
    contained = d <= np.abs(big - small)
    contained &= ~disjoint
    out[contained] = math.pi * _square(np.minimum(big, small)[contained])
    lens = ~(disjoint | contained)
    big, small, d = big[lens], small[lens], d[lens]
    big2, small2, d2, near = big * big, small * small, 2.0 * d, d + small
    cos_b = (d * d + small2 - big2) / (d2 * small)
    cos_a = (d * d + big2 - small2) / (d2 * big)
    root = (-d + small + big) * (near - big) * (d - small + big) * (near + big)
    acos = _acos(np.concatenate((cos_b, cos_a)))
    out[lens] = small2 * acos[: len(d)] + big2 * acos[len(d) :] - 0.5 * np.sqrt(np.where(root > 0.0, root, 0.0))
    return out.reshape(shape)


def _acos(cosines: Array) -> Array:
    """``math.acos(max(-1.0, min(1.0, c)))`` of each cosine ``c``."""
    clipped = np.where(cosines < 1.0, cosines, 1.0)
    clipped = np.where(clipped > -1.0, clipped, -1.0)
    return np.array(list(map(math.acos, clipped.tolist())))


# --- chaotic maps -----------------------------------------------------------
#
# Seven standard one-dimensional chaotic maps, each a guarded step of one
# Python float; "unit" maps live on (0, 1), "signed" maps on [-1, 1].  A
# step returns the bits of its map's NumPy form ``guard(fn(np.float64(x)))``
# (the tests' oracle): the arithmetic is spelled in that form's order, the
# guards take ``max`` before ``min`` with the iterate first (NaN passes, as
# through ``np.maximum``/``np.minimum``), and the transcendental calls stay
# NumPy's, because ``math.sin``/``math.cos``/``math.acos`` round some inputs
# differently.  The unit steps spell :func:`_unit` out: a run takes one step
# per agent and iteration.

_UNIT_HIGH = 1.0 - CHAOS_DOMAIN_GUARD
_CIRCLE_GAIN = 0.5 / (2.0 * np.pi)


def _unit(y: float) -> float:
    """Pin a unit-interval iterate into [guard, 1 - guard]."""
    return min(max(y, CHAOS_DOMAIN_GUARD), _UNIT_HIGH)


def _signed(y: float) -> float:
    """Pin a signed iterate into [-1, 1], lifting exact zeros off the origin."""
    y = min(max(y, -1.0), 1.0)
    return CHAOS_DOMAIN_GUARD if abs(y) < CHAOS_DOMAIN_GUARD else y


def sinusoidal_step(x: float) -> float:
    y = 2.3 * x * x * float(np.sin(np.pi * x))
    return min(max(y, CHAOS_DOMAIN_GUARD), _UNIT_HIGH)


def chebyshev_step(x: float) -> float:
    angle = 4.0 * float(np.arccos(min(max(x, -1.0), 1.0)))
    return _signed(float(np.cos(angle)))


def circle_step(x: float) -> float:
    # Python's float ``%`` is np.mod's fmod-and-adjust rule
    y = (x + 0.2 - _CIRCLE_GAIN * float(np.sin(2.0 * np.pi * x))) % 1.0
    return min(max(y, CHAOS_DOMAIN_GUARD), _UNIT_HIGH)


def singer_step(x: float) -> float:
    x2 = x * x
    y = 1.07 * (7.86 * x - 23.31 * x2 + 28.75 * x2 * x - 13.302875 * x2 * x2)
    return min(max(y, CHAOS_DOMAIN_GUARD), _UNIT_HIGH)


def gauss_mouse_step(x: float) -> float:
    y = 0.0 if x == 0.0 else (1.0 / x) % 1.0
    return min(max(y, CHAOS_DOMAIN_GUARD), _UNIT_HIGH)


def tent_step(value: float) -> float:
    """The default map.  Its guard spells out the comparisons ``max`` and
    ``min`` make, at a third of the cost of calling them."""
    y = value / 0.7 if value < 0.7 else (10.0 / 3.0) * (1.0 - value)
    y = CHAOS_DOMAIN_GUARD if CHAOS_DOMAIN_GUARD > y else y
    return _UNIT_HIGH if _UNIT_HIGH < y else y


def iterative_step(x: float) -> float:
    safe = CHAOS_DOMAIN_GUARD if abs(x) < CHAOS_DOMAIN_GUARD else x
    return _signed(float(np.sin(0.7 * np.pi / safe)))


#: map id -> (guarded step, guard, documented domain); the guard pins a seed
#: into the domain the step keeps its iterates in
CHAOS_MAPS = {
    "sinusoidal": (sinusoidal_step, _unit, (0.0, 1.0)),
    "chebyshev": (chebyshev_step, _signed, (-1.0, 1.0)),
    "circle": (circle_step, _unit, (0.0, 1.0)),
    "singer": (singer_step, _unit, (0.0, 1.0)),
    "gauss-mouse": (gauss_mouse_step, _unit, (0.0, 1.0)),
    "tent": (tent_step, _unit, (0.0, 1.0)),
    "iterative": (iterative_step, _signed, (-1.0, 1.0)),
}


def _chaos_entry(map_id: str) -> tuple:
    try:
        return CHAOS_MAPS[map_id]
    except KeyError:
        raise ConfigurationError(f"unknown chaos map {map_id!r}; known: {list(CHAOS_MAPS)}") from None


def chaos_step(map_id: str):
    """The guarded step ``value -> next value`` of a named map."""
    return _chaos_entry(map_id)[0]


@dataclass(frozen=True)
class ChaosState:
    """Current iterate of a named chaotic map."""

    map_id: str
    value: float
    steps: int = 0


def make_chaos(map_id: str, initial: float) -> ChaosState:
    """Start a chaos trajectory, guarding the seed into the map's domain."""
    return ChaosState(map_id, float(_chaos_entry(map_id)[1](initial)), 0)


def seed_chaos(group, config) -> None:
    """Seed each run of a group with a chaos trajectory of
    ``config.chaos_map`` from one draw of its own stream, taken right after
    the ``N`` initial evaluations: the ``init`` of bto and bbo."""
    group.chaos = [make_chaos(config.chaos_map, rng.uniform()).value for rng in group.rngs]


def chaos_rows(group) -> Array:
    """Advance each run's chaos value of a group once per agent, in agent
    order: the ``(R, N, 1)`` values, agent ``i``'s in row ``i``.  The
    recursion is the one part of bbo's and bto's per-agent terms that
    stays a scalar loop."""
    step = chaos_step(group.chaos_map)
    values = []
    append = values.append
    for r, value in enumerate(group.chaos):
        for _ in range(group.n):
            value = step(value)
            append(value)
        group.chaos[r] = value
    return np.array(values).reshape(len(group.chaos), group.n, 1)


def chaos_next(state: ChaosState) -> ChaosState:
    """Advance the map one step; the iterate stays inside its domain."""
    return ChaosState(state.map_id, chaos_step(state.map_id)(state.value), state.steps + 1)


def spray(chaos_value: float, iteration: int, max_iterations: int) -> float:
    """Spray magnitude ``|chaos| * 2.7**(100 * iteration / max_iterations)``.

    The result is a positive divisor for the defense update, floored at
    ``SPRAY_FLOOR``.
    """
    if max_iterations < 1:
        raise ConfigurationError("max_iterations must be >= 1")
    if not 1 <= iteration <= max_iterations:
        raise ConfigurationError(f"iteration must be in [1, {max_iterations}], got {iteration}")
    return float(spray_divisor(chaos_value, spray_growth(iteration, max_iterations)))


def spray_growth(iteration: int, max_iterations: int) -> float:
    """The schedule factor ``2.7**(100 * iteration / max_iterations)`` of :func:`spray`,
    shared by every agent of one iteration."""
    return SPRAY_BASE ** (SPRAY_EXPONENT_SCALE * iteration / max_iterations)


def spray_divisor(chaos_value, growth: float):
    """``|chaos| * growth`` floored at ``SPRAY_FLOOR`` (see :func:`spray`),
    elementwise over an array of chaos values."""
    return np.maximum(np.abs(chaos_value) * growth, SPRAY_FLOOR)


def lift_magnitude(coefficient, air_density, velocity, wing_area):
    """Lift magnitude ``LC * 0.5 * rho * V**2 * A`` of the flapping-flight
    inputs, each drawn uniform [0, 1] per update, elementwise over arrays of
    one shape.  ``V**2`` is Python's float power of each value
    (:func:`~beetleopt.benchmarks._square`)."""
    v = np.asarray(velocity, dtype=float)
    return coefficient * 0.5 * air_density * _square(v.ravel()).reshape(v.shape) * wing_area


def escape_step(lift_value: float, space: SearchSpace, iteration: int) -> Array:
    """Per-dimension escape displacement ``L * (upper - lower) / iteration``.

    The iteration counter is 1-based, so the step shrinks over time and the
    first iteration is well defined.
    """
    if iteration < 1:
        raise ConfigurationError("escape_step needs iteration >= 1")
    return escape_hop(lift_value, space.width, iteration)


def escape_hop(lift_value: float, width: Array, iteration: int) -> Array:
    """Unchecked core of :func:`escape_step`, given the box width."""
    # this order of operations is part of the seeded results
    return lift_value * width / iteration
