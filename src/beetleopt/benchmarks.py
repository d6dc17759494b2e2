"""The 23 classic benchmark functions with their dimensions, bounds and
known optima, exposed through a string-id registry ("f1".."f23").

All functions are minimization problems.  f1-f7 are unimodal, f8-f13
high-dimensional multimodal, f14-f23 fixed-dimension multimodal.  f7 adds
uniform noise per evaluation, drawn from the owning run's stream.

``known_optimum`` returns the value of each function at its recorded
argmin.

Each function is written once over ``(..., dim)`` and reduces along the
last axis: the public function takes one 1-D float vector and returns a
float, and its ``block`` attribute takes a C-contiguous ``(k, dim)`` block
to its ``k`` values, each the bits of that row's own call.  Reductions call
the ufunc loops directly (``_sum``, ``_prod`` and ``_max`` are
``np.add.reduce``, ``np.multiply.reduce`` and ``np.maximum.reduce``, bound
once, with the axis given positionally): for a vector these are the loops
``np.sum``, ``np.prod`` and ``np.max`` run, so the values are the same bits,
without those functions' Python wrappers, and along the last axis of a
C-contiguous block each row keeps its order of summation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import Array, RandomStream, SearchSpace

_sum = np.add.reduce
_prod = np.multiply.reduce
_max = np.maximum.reduce


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


def _registry_function(block):
    """The public one-vector form of ``block``, a function written over
    ``(..., dim)`` that reduces along the last axis: ``f(z)`` returns the
    float ``block`` gives for one vector, and ``f.block`` is ``block``,
    which takes a ``(k, dim)`` block to its ``k`` values."""

    def f(z):
        return float(block(z))

    functools.update_wrapper(f, block)
    f.block = block
    return f


def _square(v):
    """``v ** 2`` for one coordinate of a vector or a block's column of them,
    as NumPy's float64 scalar power computes it: the C library's ``pow``.

    NumPy's array power rounds some values differently (on a host with
    AVX-512, 30 of 50,000 squares, and about 1,400 of 50,000 cubes or higher
    powers), so a column is squared value by value with Python's float
    power, which calls the same ``pow``; where it raises ``OverflowError``,
    NumPy's gives inf.
    """
    if type(v) is not np.ndarray:  # a float64 scalar
        return v ** 2
    out = []
    for value in v.tolist():
        try:
            out.append(value ** 2)
        except OverflowError:
            out.append(math.inf)
    return np.array(out)


def _coordinate_formula(formula):
    """Block function of a formula over a point's coordinates (``formula(x,
    y)``), evaluated row by row on Python floats, which for these
    two-dimensional functions is cheaper than array calls on the columns.
    Python's float arithmetic gives the bits of float64 scalars, and its
    ``**`` calls the C library's ``pow`` as theirs does (see
    :func:`_square`); a row on which it overflows is evaluated on float64
    scalars, which give inf there."""

    def block(z):
        values = []
        for row in (z if z.ndim == 2 else z[None]).tolist():
            try:
                values.append(formula(*row))
            except OverflowError:
                values.append(formula(*map(np.float64, row)))
        return np.array(values) if z.ndim == 2 else values[0]

    functools.update_wrapper(block, formula)
    return block


def _coordinates(z):
    """The coordinates of ``z``: float64 scalars for a vector, ``(k, 1)``
    columns for a block, so they broadcast against a row of constants."""
    return z if z.ndim == 1 else z.T[:, :, None]


@_registry_function
def sphere(z):
    return _sum(z * z, -1)


@_registry_function
def schwefel_222(z):
    a = np.abs(z)
    return _sum(a, -1) + _prod(a, -1)


@_registry_function
def schwefel_12(z):
    c = np.cumsum(z, -1)
    return _sum(c * c, -1)


@_registry_function
def schwefel_221(z):
    return _max(np.abs(z), -1)


@_registry_function
def rosenbrock(z):
    head = z[..., :-1]
    return _sum(100.0 * (z[..., 1:] - head ** 2) ** 2 + (head - 1.0) ** 2, -1)


@_registry_function
def step(z):
    return _sum(np.floor(z + 0.5) ** 2, -1)


# Per-call constants of the registry's dimension 30, built once; any other
# length rebuilds them as before.  An integer index times a float vector
# casts the index to float64 first, so float indices give the same bits.
_INDEX_30 = np.arange(1.0, 31.0)
_ROOT_INDEX_30 = np.sqrt(np.arange(1, 31))


@_registry_function
def quartic(z):
    """Weighted quartic without its noise term (the registry entry adds it)."""
    dim = z.shape[-1]
    i = _INDEX_30 if dim == 30 else np.arange(1, dim + 1)
    return _sum(i * z ** 4, -1)


@_registry_function
def schwefel(z):
    return _sum(-z * np.sin(np.sqrt(np.abs(z))), -1)


@_registry_function
def rastrigin(z):
    return _sum(z * z - 10.0 * np.cos(2.0 * np.pi * z) + 10.0, -1)


@_registry_function
def ackley(z):
    d = z.shape[-1]
    return (
        -20.0 * np.exp(-0.2 * np.sqrt(_sum(z * z, -1) / d))
        - np.exp(_sum(np.cos(2.0 * np.pi * z), -1) / d)
        + 20.0
        + np.e
    )


@_registry_function
def griewank(z):
    dim = z.shape[-1]
    root_i = _ROOT_INDEX_30 if dim == 30 else np.sqrt(np.arange(1, dim + 1))
    return _sum(z * z, -1) / 4000.0 - _prod(np.cos(z / root_i), -1) + 1.0


@_registry_function
def penalized_1(z):
    y = 1.0 + (z + 1.0) / 4.0
    sin_y = np.sin(np.pi * y)
    # ``.T[j]``: coordinate j, a float64 scalar for a vector and a column for a
    # block; a coordinate's sine is the same bits in an array as alone
    yt = y.T
    core = 10.0 * _square(sin_y.T[0])
    core += _sum((y[..., :-1] - 1.0) ** 2 * (1.0 + 10.0 * sin_y[..., 1:] ** 2), -1)
    core += _square(yt[-1] - 1.0)
    return np.pi / len(yt) * core + _sum(100.0 * _overshoot(z, 10.0) ** 4.0, -1)


@_registry_function
def penalized_2(z):
    sin_z = np.sin(3.0 * np.pi * z)
    last = z.T[-1]
    core = _square(sin_z.T[0])
    core += _sum((z[..., :-1] - 1.0) ** 2 * (1.0 + sin_z[..., 1:] ** 2), -1)
    core += _square(last - 1.0) * (1.0 + _square(np.sin(2.0 * np.pi * last)))
    return 0.1 * core + _sum(100.0 * _overshoot(z, 5.0) ** 4.0, -1)


_FOXHOLES_A = np.array(
    [
        [-32, -16, 0, 16, 32] * 5,
        [v for v in (-32, -16, 0, 16, 32) for _ in range(5)],
    ],
    dtype=float,
)
_FOXHOLES_J = np.arange(1.0, 26.0)


@_registry_function
def foxholes(z):
    c = _coordinates(z)
    sixth = (c[0] - _FOXHOLES_A[0]) ** 6 + (c[1] - _FOXHOLES_A[1]) ** 6
    return 1.0 / (1.0 / 500.0 + _sum(1.0 / (_FOXHOLES_J + sixth), -1))


_KOWALIK_A = np.array(
    [0.1957, 0.1947, 0.1735, 0.16, 0.0844, 0.0627, 0.0456, 0.0342, 0.0323, 0.0235, 0.0246]
)
_KOWALIK_B = 1.0 / np.array([0.25, 0.5, 1, 2, 4, 6, 8, 10, 12, 14, 16], dtype=float)
_KOWALIK_B2 = _KOWALIK_B ** 2


@_registry_function
def kowalik(z):
    c = _coordinates(z)
    model = c[0] * (_KOWALIK_B2 + _KOWALIK_B * c[1]) / (_KOWALIK_B2 + _KOWALIK_B * c[2] + c[3])
    return _sum((_KOWALIK_A - model) ** 2, -1)


@_registry_function
@_coordinate_formula
def six_hump_camel(x, y):
    return 4 * x ** 2 - 2.1 * x ** 4 + x ** 6 / 3.0 + x * y - 4 * y ** 2 + 4 * y ** 4


@_registry_function
@_coordinate_formula
def branin(x, y):
    return (
        (y - 5.1 / (4 * np.pi ** 2) * x ** 2 + 5.0 / np.pi * x - 6.0) ** 2
        + 10.0 * (1.0 - 1.0 / (8 * np.pi)) * np.cos(x)
        + 10.0
    )


@_registry_function
@_coordinate_formula
def goldstein_price(x, y):
    a = 1 + (x + y + 1) ** 2 * (19 - 14 * x + 3 * x ** 2 - 14 * y + 6 * x * y + 3 * y ** 2)
    b = 30 + (2 * x - 3 * y) ** 2 * (18 - 32 * x + 12 * x ** 2 + 48 * y - 36 * x * y + 27 * y ** 2)
    return a * b


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


def _hartman(z, a, p):
    # z minus each row of p: (4, dim) for a vector, (k, 4, dim) for a block
    inner = _sum(a * ((z if z.ndim == 1 else z[:, None, :]) - p) ** 2, -1)
    return -_sum(_HARTMAN_C * np.exp(-inner), -1)


@_registry_function
def hartman_3(z):
    return _hartman(z, _HARTMAN3_A, _HARTMAN3_P)


@_registry_function
def hartman_6(z):
    return _hartman(z, _HARTMAN6_A, _HARTMAN6_P)


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
    diff = (z if z.ndim == 1 else z[:, None, :]) - a
    return -_sum(1.0 / (_sum(diff * diff, -1) + c), -1)


@_registry_function
def shekel_5(z):
    return _shekel(z, 5)


@_registry_function
def shekel_7(z):
    return _shekel(z, 7)


@_registry_function
def shekel_10(z):
    return _shekel(z, 10)


@dataclass(frozen=True)
class BenchmarkSpec:
    """One registry entry: evaluator identity, domain and known optimum.

    ``argmin`` is the recorded minimizer used by the fixture tests;
    ``known_optimum`` is the evaluator's value there (frozen from an
    independent derivation run).  A registry ``evaluator`` has a ``block``
    form for ``(k, dim)`` blocks; :meth:`bind` evaluates any other one row
    by row.
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
    """``f(x) -> float`` over one run's loop, with ``n`` counting the
    evaluations; :meth:`block` evaluates the rows of a ``(k, dim)`` block
    in one call of the function, and :meth:`speculate` does so without
    counting (the evaluator protocol of :func:`beetleopt.core.bind`).

    Same values and draws as :func:`evaluate`, in one Python frame: the
    optimizers pass float64 positions they built themselves, so only the
    shape check stays (a tuple compare) and ``np.asarray`` is skipped.  A
    noisy function adds one ``rng.uniform()`` draw after each value, in the
    slot :func:`evaluate` takes it.
    """

    __slots__ = ("n", "gap", "function", "_id", "_shape", "_rng")
    speculative = True

    def __init__(self, spec: BenchmarkSpec, rng: RandomStream):
        if spec.noisy and rng is None:
            raise ValueError(f"{spec.id} is noisy and needs the run's random stream")
        self.n = 0
        #: draws from the run's stream per evaluation
        self.gap = 1 if spec.noisy else 0
        #: the function over ``(..., dim)``, which evaluators of the same
        #: function share
        self.function = getattr(spec.evaluator, "block", None) or _row_by_row(spec.evaluator)
        self._id = spec.id
        self._shape = (spec.dim,)
        self._rng = rng if spec.noisy else None

    def __call__(self, x: Array) -> float:
        if x.shape != self._shape:
            raise ValueError(
                f"{self._id} expects a vector of length {self._shape[0]}, got shape {x.shape}"
            )
        self.n += 1
        if self._rng is None:
            return float(self.function(x))
        return float(self.function(x)) + self._rng.uniform()

    def block(self, rows: Array, owners=None) -> list:
        """The values of the rows of a C-contiguous ``(k, dim)`` block, from
        one call of the function.

        Row ``j`` counts as an evaluation of ``owners[j]`` (an evaluator of
        this function, by default this one) and takes that evaluator's noise
        draw, in row order, as ``k`` calls would.  Any other layout is
        refused: a reduction over a transposed or Fortran-ordered block
        does not keep each row's order of summation, so its bits differ.
        """
        values = self._function(rows).tolist()
        owners = owners or (self,) * len(values)
        if self._rng is None:
            for owner in owners:
                owner.n += 1
            return values
        noisy = []
        for owner, value in zip(owners, values):
            owner.n += 1
            noisy.append(value + owner._rng.uniform())
        return noisy

    def speculate(self, rows: Array, offset: int = 0, stride: int = 1) -> Array:
        """The function's values on the rows of a C-contiguous ``(k, dim)``
        block, from one call, uncounted: values an optimizer may discard.
        A noisy function adds to row ``j`` the noise slot of the open
        reservation that the ``offset + j * stride``-th evaluation from now
        takes, and leaves it there.  Any other layout is refused (see
        :meth:`block`)."""
        values = self._function(rows)
        if self._rng is None:
            return values
        return values + self._rng.peek(offset + stride * (len(rows) - 1) + 1)[offset::stride]

    def commit(self, m: int) -> None:
        """Count ``m`` speculated rows as evaluations, taking their noise
        slots in order."""
        if self._rng is not None:
            self._rng.take(m)
        self.n += m

    def _function(self, rows: Array) -> Array:
        if rows.shape[1:] != self._shape or not rows.flags.c_contiguous:
            raise ValueError(
                f"{self._id} expects a C-contiguous (k, {self._shape[0]}) block, got shape {rows.shape}"
            )
        return self.function(rows)


def _row_by_row(evaluator):
    """A one-vector evaluator as a function over ``(..., dim)``."""
    return lambda z: evaluator(z) if z.ndim == 1 else np.array([evaluator(row) for row in z])


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
