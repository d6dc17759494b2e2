"""The 23 classic benchmark functions with their dimensions, bounds and
known optima, exposed through a string-id registry ("f1".."f23").

All functions are minimization problems.  f1-f7 are unimodal, f8-f13
high-dimensional multimodal, f14-f23 fixed-dimension multimodal.  f7 adds
uniform noise per evaluation, drawn from the owning run's stream.

``REPORTED_OPTIMA`` keeps the rounded target values commonly quoted for
these functions; ``known_optimum`` returns the sharper value obtained by
evaluating each function at its recorded argmin.

Each function takes one 1-D float vector.  Reductions call the ufunc loops
directly (``np.add.reduce``, ``np.multiply.reduce``, ``np.maximum.reduce``):
for a vector these are the loops ``np.sum``, ``np.prod`` and ``np.max`` run,
so the values are the same bits, without those functions' Python wrappers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import Array, RandomStream, SearchSpace


def penalty_u(z, a: float, k: float, m_exp: float):
    """Boundary penalty: k*(|z| - a)**m_exp outside [-a, a], zero inside."""
    z = np.asarray(z, dtype=float)
    overshoot = np.where(z > a, z - a, np.where(z < -a, -z - a, 0.0))
    out = k * overshoot ** m_exp
    return float(out) if out.ndim == 0 else out


def _overshoot(z: Array, a: float) -> Array:
    """:func:`penalty_u`'s overshoot for a float vector, the same bits:
    ``|z| - a`` outside [-a, a] (``|z|`` is exactly ``z`` or ``-z``), 0.0
    inside, at the bounds and for NaN, which ``fmax`` drops."""
    return np.fmax(np.abs(z) - a, 0.0)


def sphere(z):
    return float(np.add.reduce(z * z))


def schwefel_222(z):
    a = np.abs(z)
    return float(np.add.reduce(a) + np.multiply.reduce(a))


def schwefel_12(z):
    c = np.cumsum(z)
    return float(np.add.reduce(c * c))


def schwefel_221(z):
    return float(np.maximum.reduce(np.abs(z)))


def rosenbrock(z):
    return float(np.add.reduce(100.0 * (z[1:] - z[:-1] ** 2) ** 2 + (z[:-1] - 1.0) ** 2))


def step(z):
    return float(np.add.reduce(np.floor(z + 0.5) ** 2))


# Per-call constants of the registry's dimension 30, built once; any other
# length rebuilds them as before.  An integer index times a float vector
# casts the index to float64 first, so float indices give the same bits.
_INDEX_30 = np.arange(1.0, 31.0)
_ROOT_INDEX_30 = np.sqrt(np.arange(1, 31))


def quartic(z):
    """Weighted quartic without its noise term (the registry entry adds it)."""
    i = _INDEX_30 if z.size == 30 else np.arange(1, z.size + 1)
    return float(np.add.reduce(i * z ** 4))


def schwefel(z):
    return float(np.add.reduce(-z * np.sin(np.sqrt(np.abs(z)))))


def rastrigin(z):
    return float(np.add.reduce(z * z - 10.0 * np.cos(2.0 * np.pi * z) + 10.0))


def ackley(z):
    d = z.size
    return float(
        -20.0 * np.exp(-0.2 * np.sqrt(np.add.reduce(z * z) / d))
        - np.exp(np.add.reduce(np.cos(2.0 * np.pi * z)) / d)
        + 20.0
        + np.e
    )


def griewank(z):
    root_i = _ROOT_INDEX_30 if z.size == 30 else np.sqrt(np.arange(1, z.size + 1))
    return float(np.add.reduce(z * z) / 4000.0 - np.multiply.reduce(np.cos(z / root_i)) + 1.0)


def penalized_1(z):
    d = z.size
    y = 1.0 + (z + 1.0) / 4.0
    core = 10.0 * np.sin(np.pi * y[0]) ** 2
    core += np.add.reduce((y[:-1] - 1.0) ** 2 * (1.0 + 10.0 * np.sin(np.pi * y[1:]) ** 2))
    core += (y[-1] - 1.0) ** 2
    return float(np.pi / d * core + np.add.reduce(100.0 * _overshoot(z, 10.0) ** 4.0))


def penalized_2(z):
    core = np.sin(3.0 * np.pi * z[0]) ** 2
    core += np.add.reduce((z[:-1] - 1.0) ** 2 * (1.0 + np.sin(3.0 * np.pi * z[1:]) ** 2))
    core += (z[-1] - 1.0) ** 2 * (1.0 + np.sin(2.0 * np.pi * z[-1]) ** 2)
    return float(0.1 * core + np.add.reduce(100.0 * _overshoot(z, 5.0) ** 4.0))


_FOXHOLES_A = np.array(
    [
        [-32, -16, 0, 16, 32] * 5,
        [v for v in (-32, -16, 0, 16, 32) for _ in range(5)],
    ],
    dtype=float,
)
_FOXHOLES_J = np.arange(1.0, 26.0)


def foxholes(z):
    sixth = (z[0] - _FOXHOLES_A[0]) ** 6 + (z[1] - _FOXHOLES_A[1]) ** 6
    return float(1.0 / (1.0 / 500.0 + np.add.reduce(1.0 / (_FOXHOLES_J + sixth))))


_KOWALIK_A = np.array(
    [0.1957, 0.1947, 0.1735, 0.16, 0.0844, 0.0627, 0.0456, 0.0342, 0.0323, 0.0235, 0.0246]
)
_KOWALIK_B = 1.0 / np.array([0.25, 0.5, 1, 2, 4, 6, 8, 10, 12, 14, 16], dtype=float)
_KOWALIK_B2 = _KOWALIK_B ** 2


def kowalik(z):
    model = z[0] * (_KOWALIK_B2 + _KOWALIK_B * z[1]) / (_KOWALIK_B2 + _KOWALIK_B * z[2] + z[3])
    return float(np.add.reduce((_KOWALIK_A - model) ** 2))


def six_hump_camel(z):
    x, y = z
    return float(4 * x ** 2 - 2.1 * x ** 4 + x ** 6 / 3.0 + x * y - 4 * y ** 2 + 4 * y ** 4)


def branin(z):
    x, y = z
    return float(
        (y - 5.1 / (4 * np.pi ** 2) * x ** 2 + 5.0 / np.pi * x - 6.0) ** 2
        + 10.0 * (1.0 - 1.0 / (8 * np.pi)) * np.cos(x)
        + 10.0
    )


def goldstein_price(z):
    x, y = z
    a = 1 + (x + y + 1) ** 2 * (19 - 14 * x + 3 * x ** 2 - 14 * y + 6 * x * y + 3 * y ** 2)
    b = 30 + (2 * x - 3 * y) ** 2 * (18 - 32 * x + 12 * x ** 2 + 48 * y - 36 * x * y + 27 * y ** 2)
    return float(a * b)


_HARTMAN_C = np.array([1.0, 1.2, 3.0, 3.2])
_HARTMAN3_A = np.array([[3, 10, 30], [0.1, 10, 35], [3, 10, 30], [0.1, 10, 35]], dtype=float)
_HARTMAN3_P = np.array(
    [
        [0.3689, 0.117, 0.2673],
        [0.4699, 0.4387, 0.747],
        [0.1091, 0.8732, 0.5547],
        [0.03815, 0.5743, 0.8828],
    ]
)
_HARTMAN6_A = np.array(
    [
        [10, 3, 17, 3.5, 1.7, 8],
        [0.05, 10, 17, 0.1, 8, 14],
        [3, 3.5, 1.7, 10, 17, 8],
        [17, 8, 0.05, 10, 0.1, 14],
    ],
    dtype=float,
)
_HARTMAN6_P = np.array(
    [
        [0.1312, 0.1696, 0.5569, 0.0124, 0.8283, 0.5886],
        [0.2329, 0.4135, 0.8307, 0.3736, 0.1004, 0.9991],
        [0.2348, 0.1451, 0.3522, 0.2883, 0.3047, 0.665],
        [0.4047, 0.8828, 0.8732, 0.5743, 0.1091, 0.0381],
    ]
)


def hartman_3(z):
    inner = np.add.reduce(_HARTMAN3_A * (z - _HARTMAN3_P) ** 2, axis=1)
    return float(-np.add.reduce(_HARTMAN_C * np.exp(-inner)))


def hartman_6(z):
    inner = np.add.reduce(_HARTMAN6_A * (z - _HARTMAN6_P) ** 2, axis=1)
    return float(-np.add.reduce(_HARTMAN_C * np.exp(-inner)))


_SHEKEL_A = np.array(
    [
        [4, 4, 4, 4],
        [1, 1, 1, 1],
        [8, 8, 8, 8],
        [6, 6, 6, 6],
        [3, 7, 3, 7],
        [2, 9, 2, 9],
        [5, 5, 3, 3],
        [8, 1, 8, 1],
        [6, 2, 6, 2],
        [7, 3.6, 7, 3.6],
    ],
    dtype=float,
)
_SHEKEL_C = np.array([0.1, 0.2, 0.2, 0.4, 0.4, 0.6, 0.3, 0.7, 0.5, 0.5])


#: m -> the first m rows of the Shekel data
_SHEKEL_ROWS = {m: (_SHEKEL_A[:m], _SHEKEL_C[:m]) for m in (5, 7, 10)}


def _shekel(z, m: int):
    a, c = _SHEKEL_ROWS[m]
    diff = z - a
    return float(-np.add.reduce(1.0 / (np.add.reduce(diff * diff, axis=1) + c)))


def shekel_5(z):
    return _shekel(z, 5)


def shekel_7(z):
    return _shekel(z, 7)


def shekel_10(z):
    return _shekel(z, 10)


@dataclass(frozen=True)
class BenchmarkSpec:
    """One registry entry: evaluator identity, domain and known optimum.

    ``argmin`` is the recorded minimizer used by the fixture tests;
    ``known_optimum`` is the evaluator's value there (frozen from an
    independent derivation run).
    """

    id: str
    dim: int
    lower: float
    upper: float
    known_optimum: float
    evaluator: Callable[[Array], float]
    argmin: tuple
    noisy: bool = False

    def space(self) -> SearchSpace:
        """The function's box, built on the first call and shared by every
        later one; its bounds are read-only."""
        space = self.__dict__.get("_space")
        if space is None:
            space = SearchSpace.cube(self.dim, self.lower, self.upper)
            space.lower.flags.writeable = False
            space.upper.flags.writeable = False
            # a frozen dataclass: the cache is not a field and takes no part
            # in comparisons
            object.__setattr__(self, "_space", space)
        return space

    def argmin_array(self) -> Array:
        return np.asarray(self.argmin, dtype=float)

    def evaluate(self, position: Array, rng: Optional[RandomStream] = None) -> float:
        return evaluate(self, position, rng)

    def bind(self, rng: RandomStream) -> "BoundEvaluator":
        """This function bound to one run's stream, counting its calls."""
        return BoundEvaluator(self, rng)


class BoundEvaluator:
    """``f(x) -> float`` over one run's loop, with ``n`` counting the calls.

    Same values and draws as :func:`evaluate`, in one Python frame: the
    optimizers pass float64 positions they built themselves, so only the
    shape check stays (a tuple compare) and ``np.asarray`` is skipped.  A
    noisy function adds one ``rng.uniform()`` draw after its value, in the
    slot :func:`evaluate` takes it.
    """

    __slots__ = ("n", "_id", "_shape", "_evaluator", "_rng")

    def __init__(self, spec: BenchmarkSpec, rng: RandomStream):
        if spec.noisy and rng is None:
            raise ValueError(f"{spec.id} is noisy and needs the run's random stream")
        self.n = 0
        self._id = spec.id
        self._shape = (spec.dim,)
        self._evaluator = spec.evaluator
        self._rng = rng if spec.noisy else None

    def __call__(self, x: Array) -> float:
        if x.shape != self._shape:
            raise ValueError(
                f"{self._id} expects a vector of length {self._shape[0]}, got shape {x.shape}"
            )
        self.n += 1
        if self._rng is None:
            return self._evaluator(x)
        return float(self._evaluator(x) + self._rng.uniform())


def evaluate(spec: BenchmarkSpec, position: Array, rng: Optional[RandomStream] = None) -> float:
    """Evaluate a registry function, adding the noise draw where required."""
    x = np.asarray(position, dtype=float)
    if x.shape != (spec.dim,):
        raise ValueError(f"{spec.id} expects a vector of length {spec.dim}, got shape {x.shape}")
    value = spec.evaluator(x)
    if spec.noisy:
        if rng is None:
            raise ValueError(f"{spec.id} is noisy and needs the run's random stream")
        value += rng.uniform()
    return float(value)


def _spec(fid, dim, lower, upper, optimum, evaluator, argmin, noisy=False):
    return BenchmarkSpec(fid, dim, lower, upper, optimum, evaluator, tuple(argmin), noisy)


BENCHMARKS = {
    s.id: s
    for s in [
        _spec("f1", 30, -100, 100, 0.0, sphere, [0.0] * 30),
        _spec("f2", 30, -10, 10, 0.0, schwefel_222, [0.0] * 30),
        _spec("f3", 30, -100, 100, 0.0, schwefel_12, [0.0] * 30),
        _spec("f4", 30, -100, 100, 0.0, schwefel_221, [0.0] * 30),
        _spec("f5", 30, -30, 30, 0.0, rosenbrock, [1.0] * 30),
        _spec("f6", 30, -100, 100, 0.0, step, [0.0] * 30),
        _spec("f7", 30, -1.28, 1.28, 0.0, quartic, [0.0] * 30, noisy=True),
        _spec("f8", 30, -500, 500, -12569.5, schwefel, [420.9687] * 30),
        _spec("f9", 30, -5.12, 5.12, 0.0, rastrigin, [0.0] * 30),
        _spec("f10", 30, -32, 32, 0.0, ackley, [0.0] * 30),
        _spec("f11", 30, -600, 600, 0.0, griewank, [0.0] * 30),
        _spec("f12", 30, -50, 50, 0.0, penalized_1, [-1.0] * 30),
        _spec("f13", 30, -50, 50, 0.0, penalized_2, [1.0] * 30),
        _spec("f14", 2, -65.536, 65.536, 0.9980038378, foxholes, [-31.97833338, -31.97833401]),
        _spec(
            "f15", 4, -5, 5, 3.0748598781e-4, kowalik,
            [0.1928334531, 0.19083624, 0.1231172993, 0.1357659903],
        ),
        _spec("f16", 2, -5, 5, -1.0316284535, six_hump_camel, [0.08984201648, -0.7126564]),
        _spec("f17", 2, -5, 5, 0.3978873577, branin, [np.pi, 2.275]),
        _spec("f18", 2, -2, 2, 3.0, goldstein_price, [0.0, -1.0]),
        _spec(
            "f19", 3, 1, 3, -3.8627821478, hartman_3,
            [0.1146143279, 0.5556488504, 0.8525469547],
        ),
        _spec(
            "f20", 6, 0, 1, -3.3223680114, hartman_6,
            [0.2016895104, 0.1500106915, 0.4768739734, 0.2753324289, 0.3116516166, 0.6573005308],
        ),
        _spec(
            "f21", 4, 0, 10, -10.1531996791, shekel_5,
            [4.000037152, 4.000133279, 4.000037151, 4.000133277],
        ),
        _spec(
            "f22", 4, 0, 10, -10.4029405668, shekel_7,
            [4.000572914, 4.000689366, 3.999489711, 3.99960616],
        ),
        _spec(
            "f23", 4, 0, 10, -10.5364098167, shekel_10,
            [4.000746533, 4.000592935, 3.999663397, 3.999509801],
        ),
    ]
}

#: Rounded optima as commonly quoted for this suite.  A stray "-1.15044"
#: circulates alongside them without matching any of the 23 functions; it is
#: deliberately not a target here (f13's optimum is 0).
REPORTED_OPTIMA = {
    "f8": -12569.5,
    "f14": 0.998,
    "f15": 0.0003075,
    "f16": -1.0316,
    "f17": 0.398,
    "f18": 3.0,
    "f19": -3.86,
    "f20": -3.32,
    "f21": -10.2,
    "f22": -10.4,
    "f23": -10.5,
}


def get(fid: str) -> BenchmarkSpec:
    try:
        return BENCHMARKS[fid]
    except KeyError:
        raise KeyError(f"unknown benchmark id {fid!r}; known: f1..f23") from None


def known_optimum(fid: str) -> float:
    """Target fitness used by the acceptance checks."""
    return get(fid).known_optimum


def ids() -> list:
    return [f"f{i}" for i in range(1, 24)]
