"""Reusable numeric kernels: circle-circle intersection area, chaotic map
iteration, the exponential spray schedule and the flapping-lift magnitude
with its per-iteration escape step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    """Area of the lens shared by two circles.

    Disjoint circles (``d >= R + r``) share nothing; full containment
    (``d <= |R - r|``) yields the smaller disk.  In between, each radius
    pairs with its own arccos term of the standard lens formula; the arccos
    arguments and the root are clipped against rounding at the case
    boundaries.
    """
    return lens_area(pair.radius_a, pair.radius_b, pair.distance)


def lens_area(big: float, small: float, d: float) -> float:
    """Unchecked core of :func:`circle_intersection_area` for radii and a
    distance already known to be finite and >= 0."""
    if d >= big + small:
        return 0.0
    if d <= abs(big - small):
        return math.pi * min(big, small) ** 2
    cos_b = (d * d + small * small - big * big) / (2.0 * d * small)
    cos_a = (d * d + big * big - small * small) / (2.0 * d * big)
    cos_b = max(-1.0, min(1.0, cos_b))
    cos_a = max(-1.0, min(1.0, cos_a))
    root = max(0.0, (-d + small + big) * (d + small - big) * (d - small + big) * (d + small + big))
    return (
        small * small * math.acos(cos_b)
        + big * big * math.acos(cos_a)
        - 0.5 * math.sqrt(root)
    )


# --- chaotic maps -----------------------------------------------------------
#
# Standard one-dimensional chaotic maps; works on scalars and arrays alike.
# "unit" maps live on the open interval (0, 1), "signed" maps on [-1, 1].


def sinusoidal_map(x):
    return 2.3 * x * x * np.sin(np.pi * x)


def chebyshev_map(x):
    return np.cos(4.0 * np.arccos(np.minimum(np.maximum(x, -1.0), 1.0)))


def circle_map(x):
    return np.mod(x + 0.2 - (0.5 / (2.0 * np.pi)) * np.sin(2.0 * np.pi * x), 1.0)


def singer_map(x):
    # spelled as products: scalar and vectorized paths round identically
    x2 = x * x
    return 1.07 * (7.86 * x - 23.31 * x2 + 28.75 * x2 * x - 13.302875 * x2 * x2)


def gauss_mouse_map(x):
    x = np.asarray(x, dtype=float)
    safe = np.where(x == 0.0, 1.0, x)
    out = np.where(x == 0.0, 0.0, np.mod(1.0 / safe, 1.0))
    return float(out) if out.ndim == 0 else out


def tent_map(x):
    x = np.asarray(x)
    out = np.where(x < 0.7, x / 0.7, (10.0 / 3.0) * (1.0 - x))
    return float(out) if out.ndim == 0 else out


def iterative_map(x):
    x = np.asarray(x, dtype=float)
    safe = np.where(np.abs(x) < CHAOS_DOMAIN_GUARD, CHAOS_DOMAIN_GUARD, x)
    out = np.sin(0.7 * np.pi / safe)
    return float(out) if out.ndim == 0 else out


# np.minimum(np.maximum(x, low), high) is np.clip(x, low, high) without its
# Python-level dispatch, which dominates the cost of a scalar step.


def guard_unit(x):
    """Pin a unit-interval iterate into [guard, 1 - guard]."""
    return np.minimum(np.maximum(x, CHAOS_DOMAIN_GUARD), 1.0 - CHAOS_DOMAIN_GUARD)


def guard_signed(x):
    """Pin a signed iterate into [-1, 1], lifting exact zeros off the origin."""
    x = np.minimum(np.maximum(x, -1.0), 1.0)
    out = np.where(np.abs(np.asarray(x)) < CHAOS_DOMAIN_GUARD, CHAOS_DOMAIN_GUARD, x)
    return float(out) if np.ndim(out) == 0 else out


#: map id -> (step function, guard, documented domain)
CHAOS_MAPS = {
    "sinusoidal": (sinusoidal_map, guard_unit, (0.0, 1.0)),
    "chebyshev": (chebyshev_map, guard_signed, (-1.0, 1.0)),
    "circle": (circle_map, guard_unit, (0.0, 1.0)),
    "singer": (singer_map, guard_unit, (0.0, 1.0)),
    "gauss-mouse": (gauss_mouse_map, guard_unit, (0.0, 1.0)),
    "tent": (tent_map, guard_unit, (0.0, 1.0)),
    "iterative": (iterative_map, guard_signed, (-1.0, 1.0)),
}


@dataclass(frozen=True)
class ChaosState:
    """Current iterate of a named chaotic map."""

    map_id: str
    value: float
    steps: int = 0


def chaos_map(map_id: str):
    """The (step function, guard) pair of a named map."""
    if map_id not in CHAOS_MAPS:
        raise ConfigurationError(f"unknown chaos map {map_id!r}; known: {sorted(CHAOS_MAPS)}")
    fn, guard, _ = CHAOS_MAPS[map_id]
    return fn, guard


def make_chaos(map_id: str, initial: float) -> ChaosState:
    """Start a chaos trajectory, guarding the seed into the map's domain."""
    _, guard = chaos_map(map_id)
    return ChaosState(map_id, float(guard(initial)), 0)


def seed_chaos(group, config) -> None:
    """Seed each run of a group with a chaos trajectory of
    ``config.chaos_map`` from one draw of its own stream, taken right after
    the ``N`` initial evaluations: the ``init`` of bto and bbo."""
    group.chaos = [make_chaos(config.chaos_map, rng.uniform()).value for rng in group.rngs]


# --- scalar steps -------------------------------------------------------------
#
# Each step below is ``float(guard(fn(np.float64(x))))`` of its map in Python
# floats, the same bits: the arithmetic is spelled in the map's order, the
# guards take ``max`` before ``min`` with the iterate first (so NaN passes as
# through ``np.maximum``/``np.minimum``), and the transcendental calls stay
# NumPy's own, because ``math.sin``/``math.cos``/``math.acos`` round
# differently from NumPy's vectorized loops on some inputs.

_UNIT_HIGH = 1.0 - CHAOS_DOMAIN_GUARD
_CIRCLE_GAIN = 0.5 / (2.0 * np.pi)


def _signed(y: float) -> float:
    """:func:`guard_signed` for one Python float."""
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
    """``guard_unit(tent_map(value))`` in Python floats, the same bits."""
    y = value / 0.7 if value < 0.7 else (10.0 / 3.0) * (1.0 - value)
    return min(max(y, CHAOS_DOMAIN_GUARD), _UNIT_HIGH)


def iterative_step(x: float) -> float:
    safe = CHAOS_DOMAIN_GUARD if abs(x) < CHAOS_DOMAIN_GUARD else x
    return _signed(float(np.sin(0.7 * np.pi / safe)))


#: map function -> its guarded scalar step
SCALAR_STEPS = {
    sinusoidal_map: sinusoidal_step,
    chebyshev_map: chebyshev_step,
    circle_map: circle_step,
    singer_map: singer_step,
    gauss_mouse_map: gauss_mouse_step,
    tent_map: tent_step,
    iterative_map: iterative_step,
}


def chaos_step(map_id: str):
    """The guarded scalar step ``value -> next value`` of a named map."""
    fn, _ = chaos_map(map_id)
    return SCALAR_STEPS[fn]


def chaos_next(state: ChaosState) -> ChaosState:
    """Advance the map one step; the iterate stays inside its domain."""
    return ChaosState(state.map_id, chaos_step(state.map_id)(state.value), state.steps + 1)


def spray(chaos_value: float, iteration: int, max_iterations: int, exponent_sign: float = 1.0) -> float:
    """Spray magnitude ``|chaos| * 2.7**(100 * iteration / max_iterations)``.

    The result is a positive divisor for the defense update, floored at
    ``SPRAY_FLOOR``.  ``exponent_sign`` flips the schedule from growth to
    decay; growth is the default.
    """
    if max_iterations < 1:
        raise ConfigurationError("max_iterations must be >= 1")
    if not 1 <= iteration <= max_iterations:
        raise ConfigurationError(f"iteration must be in [1, {max_iterations}], got {iteration}")
    return spray_divisor(chaos_value, spray_growth(iteration, max_iterations, exponent_sign))


def spray_growth(iteration: int, max_iterations: int, exponent_sign: float = 1.0) -> float:
    """The schedule factor ``2.7**(100 * iteration / max_iterations)`` of :func:`spray`,
    shared by every agent of one iteration."""
    return SPRAY_BASE ** (exponent_sign * SPRAY_EXPONENT_SCALE * iteration / max_iterations)


def spray_divisor(chaos_value: float, growth: float) -> float:
    """``|chaos| * growth`` floored at ``SPRAY_FLOOR`` (see :func:`spray`)."""
    return max(abs(chaos_value) * growth, SPRAY_FLOOR)


@dataclass(frozen=True)
class LiftParams:
    """Flapping-flight inputs: lift coefficient, air density, wing velocity
    and effective wing area, each drawn uniform [0, 1] per update."""

    coefficient: float
    air_density: float
    velocity: float
    wing_area: float

    def __post_init__(self):
        for name in ("coefficient", "air_density", "velocity", "wing_area"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {v!r}")
            object.__setattr__(self, name, v)


def lift(p: LiftParams) -> float:
    """Lift magnitude ``LC * 0.5 * rho * V**2 * A``."""
    return lift_magnitude(p.coefficient, p.air_density, p.velocity, p.wing_area)


def lift_magnitude(coefficient: float, air_density: float, velocity: float, wing_area: float) -> float:
    """Unchecked core of :func:`lift` for inputs known to be finite and >= 0."""
    return coefficient * 0.5 * air_density * velocity ** 2 * wing_area


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
