"""Population machinery shared by every optimizer in the package.

A run owns a :class:`SearchSpace`, the positions and values of its agents
(its row of a :class:`Group`) and a single seeded :class:`RandomStream`.
Optimizers consume the stream in a fixed, documented order (agent-major,
dimension-minor), which is what makes two runs with the same
:class:`RunConfig` reproduce each other bit for bit.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .stats import RunRecord

Array = np.ndarray
Objective = Callable[[Array], float]

#: Experiment defaults shared by all algorithms.
DEFAULT_POPULATION = 30
DEFAULT_ITERATIONS = 1000

BOUND_MODES = ("clamp", "reflect")
PREDATOR_MODES = ("global-best", "random-agent")


class ConfigurationError(ValueError):
    """Invalid run or experiment configuration."""


class ContractViolation(RuntimeError):
    """An internal precondition was broken by the caller."""


class RandomStream:
    """Seeded uniform random source backing a single run.

    Every draw derives from one primitive (``Generator.random``), so the
    consumption order is the full determinism contract: same seed, same
    sequence of calls, same numbers.  :attr:`draws` counts them.

    An optimizer iteration takes all its draws at once with
    :meth:`reserve_into`.  A noisy objective draws from the same stream
    during the iteration; the reservation sets aside ``gap`` slots after each
    segment of a row for those draws, in the order they would have come from
    the generator, and the stream hands them out itself.  The run's
    evaluator states ``gap`` or measures it (:func:`bind`); the stream knows
    nothing of evaluators.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._generator = np.random.default_rng(self.seed)
        self._slots = None  # the open reservation's noise slots, if any
        self._next = 0
        self._draws = 0

    @property
    def draws(self) -> int:
        """Values drawn through :meth:`uniform`."""
        return self._draws

    def uniform(self, size=None):
        """Uniform draw(s) in [0, 1): the generator's, or an open reservation's.

        ``Generator.random(k)`` yields the same doubles as ``k`` scalar draws,
        so one block draw consumes the stream exactly like ``k`` scalar calls.
        """
        if self._slots is None:
            u = self._generator.random(size)
            self._draws += 1 if size is None else u.size
            return u
        start = self._next
        stop = start + (1 if size is None else int(np.prod(size)))
        if stop > len(self._slots):
            raise ContractViolation("the objective took more draws during an iteration than its gap")
        self._next = stop
        self._draws += stop - start
        if size is None:
            return self._slots[start]
        return np.array(self._slots[start:stop]).reshape(size)

    def reserve_into(self, out: Array, rows: int, widths, lead: int = 0, gap: int = 0) -> None:
        """Draw ``lead`` values, then ``rows`` rows, as one block into
        ``out``, a C-contiguous vector laid out as ``[lead | row | row ...]``
        (:func:`_split_reservation` splits it).  A row holds one segment per
        entry of ``widths``, each followed by ``gap`` noise slots, the order
        in which an agent draws a segment and then evaluates; ``out`` holds
        the segments only.  Until :meth:`settle`, every draw from this stream
        takes the next noise slot, so the objective's draws get the values
        the generator would have given them, and a draw past the last slot
        raises."""
        if self._slots is not None:
            raise ContractViolation("the previous reservation was not settled")
        if gap == 0:
            self._generator.random(out=out)
            self._slots = []
        else:
            block = self._generator.random(out.size + rows * gap * len(widths))
            grid = block[lead:].reshape(rows, -1)
            segments = np.ones(grid.shape[1], dtype=bool)
            start = 0
            for width in widths:
                start += width
                segments[start : start + gap] = False
                start += gap
            out[:lead] = block[:lead]
            out[lead:].reshape(rows, -1)[...] = grid[:, segments]
            self._slots = grid[:, ~segments].ravel().tolist()
        self._next = 0

    def peek(self, k: int) -> Array:
        """The next ``k`` noise slots of the open reservation, left for the
        draws that take them."""
        if self._slots is None:
            raise ContractViolation("no reservation is open")
        if self._next + k > len(self._slots):
            raise ContractViolation("a speculated evaluation read past the iteration's noise slots")
        return np.array(self._slots[self._next : self._next + k])

    def take(self, m: int) -> None:
        """Take the next ``m`` noise slots of the open reservation, as ``m``
        draws would."""
        self.peek(m)
        self._next += m

    def settle(self) -> None:
        """Close the open reservation; the objective must have taken exactly
        its noise slots."""
        if self._slots is None:
            raise ContractViolation("no reservation is open")
        slots, self._slots = self._slots, None
        if self._next != len(slots):
            raise ContractViolation("the objective took fewer draws during an iteration than its gap")


def _split_reservation(block: Array, rows: int, widths, lead: int) -> list:
    """The parts of the draws :meth:`RandomStream.reserve_into` writes, as
    views of ``block`` (its leading axes kept, one per run of a group): the
    ``lead`` values when ``lead > 0``, then one ``(rows, width)`` array per
    segment."""
    grid = block[..., lead:].reshape(block.shape[:-1] + (rows, sum(widths)))
    out = [block[..., :lead]] if lead else []
    start = 0
    for width in widths:
        out.append(grid[..., start : start + width])
        start += width
    return out


def signs_from_uniform(u: Array) -> Array:
    """+1.0 where a [0, 1) draw is < 0.5, else -1.0."""
    return np.where(u < 0.5, 1.0, -1.0)


def index_from_uniform(u: Array, n: int) -> Array:
    """Integers in ``[0, n)`` from [0, 1) draws: ``min(int(u * n), n - 1)``
    of each."""
    return np.minimum((u * n).astype(np.intp), n - 1)


@dataclass(frozen=True)
class SearchSpace:
    """Box-constrained search domain: per-dimension lower/upper bounds."""

    dim: int
    lower: Array
    upper: Array

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if self.dim < 1:
            raise ConfigurationError("search space needs dim >= 1")
        if lower.shape != (self.dim,) or upper.shape != (self.dim,):
            raise ConfigurationError("bounds must have exactly dim entries")
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, a width past the range
            if not np.all((lower < upper) & np.isfinite(upper - lower)):
                raise ConfigurationError("bounds must be finite, each lower < its upper, with a finite width")

    @classmethod
    def cube(cls, dim: int, lower: float, upper: float) -> "SearchSpace":
        """Uniform bounds across all dimensions."""
        return cls(dim, np.full(dim, float(lower)), np.full(dim, float(upper)))

    @property
    def width(self) -> Array:
        return self.upper - self.lower

    def contains(self, position: Array) -> bool:
        return bool(np.all(position >= self.lower) and np.all(position <= self.upper))


@dataclass
class RunConfig:
    """Everything needed to reproduce one optimizer run."""

    algorithm: str
    benchmark: Optional[str] = None
    population: int = DEFAULT_POPULATION
    iterations: int = DEFAULT_ITERATIONS
    seed: int = 1
    chaos_map: str = "tent"
    predator_mode: str = "global-best"
    bound_mode: str = "clamp"

    def __post_init__(self):
        if self.population < 2:
            raise ConfigurationError("population must be >= 2")
        if self.iterations < 1:
            raise ConfigurationError("iterations must be >= 1")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if self.bound_mode not in BOUND_MODES:
            raise ConfigurationError(f"unknown bound mode {self.bound_mode!r}")
        if self.predator_mode not in PREDATOR_MODES:
            raise ConfigurationError(f"unknown predator mode {self.predator_mode!r}")
        from .kernels import chaos_step  # kernels imports this module
        chaos_step(self.chaos_map)


def initialize_population(space: SearchSpace, n: int, rng: RandomStream) -> Array:
    """The positions ``(n, dim)`` of ``n`` agents drawn uniformly inside the box.

    Each component is ``lower + u * (upper - lower)`` with an independent
    uniform ``u``; agents consume the stream in index order, dimensions
    within an agent in ascending order.
    """
    if n < 1:
        raise ConfigurationError("population size must be >= 1")
    # one block of n * dim draws is the agent-major sequence of n draws of dim
    u = rng.uniform(size=n * space.dim).reshape(n, space.dim)
    return space.lower + u * space.width


def clamp_to_bounds(position: Array, space: SearchSpace, mode: str = "clamp") -> Array:
    """Force a position back into the box.

    ``clamp`` saturates at the violated bound; ``reflect`` mirrors the
    overshoot once and then saturates whatever still lies outside.
    """
    x = np.asarray(position, dtype=float)
    if x.shape != (space.dim,):
        raise ValueError(f"position has shape {x.shape}, expected ({space.dim},)")
    return bound_position(x, space.lower, space.upper, mode)


def bound_position(x: Array, lower: Array, upper: Array, mode: str) -> Array:
    """Core of :func:`clamp_to_bounds` for the optimizers' loops, which pass
    the box's bounds and a position of the right shape.

    ``np.minimum(np.maximum(x, lower), upper)`` returns the bytes of
    ``np.clip(x, lower, upper)``, signed zeros and NaN included, without
    ``np.clip``'s Python-level dispatch.

    ``reflect`` returns the bytes of mirroring every element beyond a bound
    (``upper - (x - upper)``, ``lower + (lower - x)``) and clamping the
    result.  When the clamp leaves every byte of ``x`` as it was, no element
    lay outside and the clamp is that result.  Otherwise the clamp holds the
    violated bound ``b`` wherever ``x`` moved, and ``b + (b - x)`` there is
    the mirror's value bit for bit (``x - b`` is exactly ``-(b - x)``).
    """
    clamped = np.minimum(np.maximum(x, lower), upper)
    if mode == "clamp":
        return clamped
    if mode != "reflect":
        raise ConfigurationError(f"unknown bound mode {mode!r}")
    if clamped.tobytes() == x.tobytes():
        return clamped
    np.add(clamped, clamped - x, out=clamped, where=clamped != x)
    # clamping an element twice keeps its first clamp's bytes
    np.maximum(clamped, lower, out=clamped)
    return np.minimum(clamped, upper, out=clamped)


def nan_last(value: float) -> tuple:
    """Sort key ranking NaN after every other value, NaNs among themselves
    in the order given."""
    return (value != value, value)


def improves(value: float, held: float) -> bool:
    """Whether ``value`` replaces ``held`` (a best-so-far, leader, personal
    best or greedy value): it is less, or ``held`` is NaN and it is below
    +inf.  Greedy replacement also wants ``value`` finite."""
    return value < held or held != held and value < math.inf


def improved(values: Array, held: Array) -> Array:
    """:func:`improves` elementwise."""
    return values < np.fmin(held, math.inf)


def bind(objective, rng: RandomStream, space: Optional[SearchSpace] = None) -> tuple:
    """``(evaluator, space)``: the evaluator of ``objective`` for a run on
    the stream ``rng``, and ``space`` or else the objective's own (or None).

    Every evaluator has ``n`` (its evaluations), ``gap`` (its draws from the
    stream per evaluation), ``function`` (the function over ``(..., dim)``
    that evaluators of one registry function share, or None), ``__call__(x)``
    and ``block(rows, owners)`` (row ``j`` of a ``(k, dim)`` block counted
    for ``owners[j]``).  A ``speculative`` one also has ``speculate(rows,
    offset, stride)``, the block's values neither counted nor kept (row ``j``
    with the noise of the ``offset + j * stride``-th evaluation from now),
    and ``commit(m)``, which counts ``m`` of them.  A benchmark spec binds its
    evaluator to the stream, and states its gap; an evaluator is its own;
    anything else becomes a :class:`CallEvaluator`, which measures its gap
    on the stream when it takes one (an object with only ``evaluate(x,
    rng)``) and has none otherwise (a plain callable).
    """
    if space is None and hasattr(objective, "space"):
        space = objective.space()
    if hasattr(objective, "speculative"):
        return objective, space
    if hasattr(objective, "bind"):
        return objective.bind(rng), space
    if hasattr(objective, "evaluate"):
        return CallEvaluator(lambda x: objective.evaluate(x, rng), rng), space
    return CallEvaluator(objective), space


class CallEvaluator:
    """``f(x) -> float`` as a run's evaluator (see :func:`bind`): it counts
    its calls in ``n`` and evaluates a block row by row, never
    speculatively.

    Given the stream ``rng`` that ``f`` draws from, its first call sets
    ``gap`` to the draws that call took (:attr:`RandomStream.draws`), and a
    later call that takes another number raises.  Without one, ``gap`` is 0
    and nothing is checked."""

    speculative = False
    function = None

    def __init__(self, call: Objective, rng: Optional[RandomStream] = None):
        self.call = call
        self.n = 0
        self.gap = 0
        self._rng = rng

    def __call__(self, x: Array) -> float:
        self.n += 1
        if self._rng is None:
            return float(self.call(x))
        before = self._rng.draws
        value = float(self.call(x))
        took = self._rng.draws - before
        if took != self.gap:
            if self.n > 1:
                raise ContractViolation(
                    f"an evaluation took {took} draws from the stream, not its measured {self.gap}"
                )
            self.gap = took
        return value

    def block(self, rows: Array, owners=None) -> list:
        return [self(row) for row in rows]


class Group:
    """R runs of one algorithm and one dimension, stepped in lockstep.

    Agent positions live in one C-contiguous ``(R, N, dim)`` array ``x`` and
    the best-so-far positions in ``best_x`` ``(R, dim)``, so a step's vector
    operations run once on the ``(R, dim)`` block of agent ``i`` of every
    run; every operation is elementwise, so each row holds the bits a run of
    its own computes.  What a run decides on stays its own Python floats
    (``fitness[r][i]``, ``best_f[r]``), and each run keeps its stream and its
    evaluator (:func:`bind`).  A step moves the runs' agents either agent by
    agent in lockstep (:meth:`move`, outright or under greedy selection,
    where consecutive runs whose evaluators share a function are evaluated
    by one block call of it, :meth:`shared_values`), all at once
    (:meth:`move_all`), run by run in chunks (:meth:`sweep`, over every run
    or some) or, for one run, agent by agent (:meth:`place`).  Only these
    four write the runs' state (``x``, ``fitness``, and ``best_x`` and
    ``best_f`` through :meth:`_keep`), and they bound every proposal they
    evaluate: a step proposes raw positions, and may say how a chunk is
    evaluated.  A step sets and reads further per-algorithm state on the
    group (``velocities``, ``leaders`` ...).

    The constructor is the one place a run's state is created.  It takes,
    per run, a stream, an evaluator, a space, the ``(N, dim)`` positions
    ``x`` and their evaluated ``fitness`` (:func:`start_group` draws and
    evaluates them; a hand-built group may set any).  It alone reads the run
    settings from ``config``, takes each run's first least value as its
    best-so-far (NaN last, :func:`nan_last`, so it is NaN only when every
    value is) and calls ``algorithm.init``, which may draw from the streams.
    """

    def __init__(self, algorithm: Algorithm, config: RunConfig, rngs, evaluators, spaces, x, fitness):
        self.algorithm = algorithm
        self.iteration = 0
        self.max_iterations = config.iterations
        self.bound_mode = config.bound_mode
        self.predator_mode = config.predator_mode
        self.chaos_map = config.chaos_map
        self.rngs = list(rngs)
        self.objectives = list(evaluators)
        self.x = np.array(x, dtype=float)
        self.fitness = [list(values) for values in fitness]
        best = [min(range(len(values)), key=lambda i: nan_last(values[i])) for values in self.fitness]
        self.best_x = self.x[range(len(best)), best]
        self.best_f = [values[i] for values, i in zip(self.fitness, best)]
        self.lower = np.array([space.lower for space in spaces])
        self.upper = np.array([space.upper for space in spaces])
        self.width = self.upper - self.lower
        #: ``at[i]``: agent ``i`` of every run, a live ``(R, dim)`` view of ``x``
        self.at = by_agent(self.x)
        #: ``(start, stop, owners)``: consecutive runs whose evaluators
        #: (``owners``, one per run) share one ``function``; a run whose
        #: evaluator has none is a segment of its own
        self.segments = _segments(self.objectives)
        algorithm.init(self)

    @property
    def n(self) -> int:
        return self.x.shape[1]

    @property
    def dim(self) -> int:
        return self.x.shape[2]

    def bound_run(self, r: int, rows: Array) -> Array:
        """Bound proposals ``(..., dim)`` of run ``r``."""
        return bound_position(rows, self.lower[r], self.upper[r], self.bound_mode)

    def reserve(self, widths, lead: int = 0) -> list:
        """Each run's :meth:`RandomStream.reserve_into` with its evaluator's
        ``gap``, drawn into its row of one block: ``(R, lead)`` and ``(R, N,
        width)`` views of it, part by part.  :meth:`advance` settles them."""
        block = np.empty((len(self.rngs), lead + self.n * sum(widths)))
        for rng, evaluator, row in zip(self.rngs, self.objectives, block):
            rng.reserve_into(row, self.n, widths, lead, evaluator.gap)
        return _split_reservation(block, self.n, widths, lead)

    def advance(self) -> None:
        """One iteration of every run: the algorithm's step, then each run's
        reservation settled.  A group that has run all its iterations
        refuses another."""
        if self.iteration == self.max_iterations:
            raise ConfigurationError("run already finished")
        self.algorithm.step(self)
        for rng in self.rngs:
            rng.settle()
        self.iteration += 1

    def shared_values(self, rows: Array) -> list:
        """Each run's value on its row of a C-contiguous ``(R, dim)`` block,
        from one call per segment: a block call of the function its runs
        share, or the lone run's own evaluator."""
        values = []
        for start, stop, owners in self.segments:
            if stop - start == 1:
                values.append(owners[0](rows[start]))
            else:
                values += owners[0].block(rows[start:stop], owners)
        return values

    def _keep(self, r: int, i: int, value: float) -> None:
        """Make agent ``i`` of run ``r``, already written to ``x[r, i]``
        with ``value``, the run's best-so-far if ``value`` improves on it:
        the one place a best-so-far changes."""
        if improves(value, self.best_f[r]):
            self.best_f[r] = value
            self.best_x[r] = self.x[r, i]

    def move(self, i: int, rows: Array, greedy: bool = False) -> list:
        """Evaluate each run's row of ``rows`` as agent ``i``'s move and
        return the values.  The row replaces the agent outright, or with
        ``greedy`` only when its value is finite and improves on the
        agent's (:func:`improves`).  An agent that keeps its value was
        already weighed against the best-so-far."""
        agents = self.at[i]
        rows = bound_position(rows, self.lower, self.upper, self.bound_mode)
        values = self.shared_values(rows)
        if not greedy:
            agents[...] = rows
        for r, (value, fitness) in enumerate(zip(values, self.fitness)):
            if greedy:
                if not (math.isfinite(value) and improves(value, fitness[i])):
                    continue
                agents[r] = rows[r]
            fitness[i] = value
            self._keep(r, i, value)
        return values

    def place(self, r: int, i: int, row: Array) -> float:
        """Evaluate ``row`` as agent ``i`` of run ``r`` alone and replace the
        agent outright, as :meth:`move` does for agent ``i`` of every run;
        return the value."""
        row = self.bound_run(r, row)
        value = self.objectives[r](row)
        self.x[r, i] = row
        self.fitness[r][i] = value
        self._keep(r, i, value)
        return value

    def move_all(self, moved: Array) -> None:
        """Replace every agent of every run by ``moved`` ``(R, N, dim)`` and
        evaluate each segment's agents as one block (each run's rows in
        agent order), keeping the best-so-far in agent order."""
        moved = bound_position(moved, self.lower[:, None], self.upper[:, None], self.bound_mode)
        self.x[...] = moved
        n = self.n
        for start, stop, owners in self.segments:
            rows = moved[start:stop].reshape(-1, self.dim)
            values = owners[0].block(rows, [owner for owner in owners for _ in range(n)])
            for r in range(start, stop):
                fitness = self.fitness[r]
                fitness[:] = values[(r - start) * n : (r - start + 1) * n]
                for i, value in enumerate(fitness):
                    self._keep(r, i, value)

    def sweep(self, propose, cut=None, committed=None, evaluate=None, runs=None) -> None:
        """Move every agent of every run (or of the runs listed in ``runs``)
        once, in agent order, keeping the best-so-far as :meth:`move` does;
        the one place a chunk commits.

        ``propose(r, start)`` returns the proposals of agents ``start, ...,
        N - 1`` of run ``r`` as one ``(k, dim)`` array, made from the live
        state.  ``evaluate(r, start, rows, below)`` returns the rows and
        values the leading agents move to, each counted, up to and including
        the first whose value is below ``below`` (all of them if none is): by
        default each proposal as it is (:meth:`_commit_prefix`).
        ``below`` is the run's cut, ``cut(r)``: by default its best-so-far,
        and never below it, so that only the last agent committed can
        improve the best.  A NaN cut reads as +inf, as a NaN held value
        does for :func:`improves`.  Those agents are committed,
        ``committed(r, i, value)`` sees the last, and the agents after it
        are proposed again from the new state.
        """
        evaluate = evaluate or self._commit_prefix
        n = self.n
        for r in range(len(self.x)) if runs is None else runs:
            x, fitness = self.x[r], self.fitness[r]
            start = 0
            while start < n:
                below = self.best_f[r] if cut is None else cut(r)
                if below != below:
                    below = math.inf
                rows, values = evaluate(r, start, self.bound_run(r, propose(r, start)), below)
                stop = start + len(values)
                x[start:stop] = rows
                fitness[start:stop] = values
                self._keep(r, stop - 1, values[-1])
                if committed is not None:
                    committed(r, stop - 1, values[-1])
                start = stop

    def _commit_prefix(self, r: int, start: int, rows: Array, cut: float) -> tuple:
        """The leading rows of a block of proposals, up to and including the
        first whose value is below ``cut`` (all of them if none is), and their
        values, each counted as one evaluation of run ``r``'s evaluator:
        :meth:`sweep`'s default ``evaluate``.

        A speculative evaluator evaluates every row in one call, each with the
        noise slot it takes if the rows are committed in order, and commits the
        prefix.  Any other is called row by row as the commit reaches the row.
        The rows after the prefix are neither counted nor drawn for.
        """
        objective = self.objectives[r]
        if objective.speculative:
            speculated = objective.speculate(rows)
            below = speculated < cut
            first = int(below.argmax())
            values = speculated[: first + 1 if below[first] else len(rows)].tolist()
            objective.commit(len(values))
            return rows[: len(values)], values
        values = []
        for row in rows:
            values.append(objective(row))
            if values[-1] < cut:
                break
        return rows[: len(values)], values


def _segments(objectives) -> list:
    """:attr:`Group.segments` of a group's objectives, in run order."""
    segments = []
    for r, objective in enumerate(objectives):
        function = objective.function
        if function is not None and segments and segments[-1][2] is function:
            segments[-1][1] = r + 1
        else:
            segments.append([r, r + 1, function])
    return [(start, stop, objectives[start:stop]) for start, stop, _ in segments]


def by_agent(block: Array) -> list:
    """The views ``block[:, i]`` of an ``(R, N, ...)`` group array as a list,
    which an agent loop indexes more cheaply than the array."""
    return list(block.swapaxes(0, 1))


@dataclass(frozen=True)
class Algorithm:
    """One optimizer, as every run of it reads it: its ``id``, the smallest
    population it runs with, ``init(group)``, which the :class:`Group`
    constructor calls to set its state on the group, and
    ``step(group)``, which moves every run of the group through one
    iteration, inside :meth:`Group.advance`.  Its public surface is
    :meth:`run` and :meth:`start`, each for a group of one run."""

    id: str
    min_population: int
    init: Callable
    step: Callable

    def check_population(self, n: int) -> None:
        if n < self.min_population:
            raise ConfigurationError(f"{self.id} needs a population of at least {self.min_population}")

    def run(self, config: RunConfig, objective, space: SearchSpace = None) -> RunRecord:
        """One seeded run as a group of one: initialize, iterate, record the
        best-so-far trace.  ``objective`` is anything :func:`bind` takes: a
        benchmark spec (which also supplies the space), an evaluator or a
        plain callable."""
        return drive(self, [config], [objective], [space])[0]

    def start(self, config: RunConfig, objective, space: SearchSpace = None) -> Group:
        """One seeded run as a started group of one (:func:`start_group`):
        its initial population evaluated and its state set, ready for
        ``config.iterations`` calls of :meth:`Group.advance`.  ``objective``
        is anything :meth:`run` takes."""
        return start_group(self, [config], [objective], [space])


def start_group(algorithm: Algorithm, configs, objectives, spaces) -> Group:
    """The group of runs of ``algorithm``, one per config, before its first
    iteration.

    Each run binds its evaluator (:func:`bind`) to its own stream, draws its
    initial positions (:func:`initialize_population`) and evaluates them as
    one block; the :class:`Group` constructor then takes the runs'
    best-so-far and calls the algorithm's ``init``.  The configs must name
    ``algorithm`` and differ only in benchmark and seed, and the spaces
    share one dimension.
    """
    for c in configs:
        if c.algorithm != algorithm.id:
            raise ConfigurationError(f"a {c.algorithm!r} config cannot run as {algorithm.id!r}")
    settings = [dataclasses.replace(c, benchmark=None, seed=0) for c in configs]
    if any(other != settings[0] for other in settings):
        raise ContractViolation("a group's runs must share every setting but benchmark and seed")
    config = configs[0]
    algorithm.check_population(config.population)
    runs = []
    for c, objective, space in zip(configs, objectives, spaces):
        rng = RandomStream(c.seed)
        evaluator, space = bind(objective, rng, space)
        if space is None:
            raise ConfigurationError("a search space is required for a plain objective")
        positions = initialize_population(space, config.population, rng)
        runs.append((rng, evaluator, space, positions, evaluator.block(positions)))
    rngs, evaluators, spaces, x, fitness = zip(*runs)
    if len({space.dim for space in spaces}) > 1:
        raise ContractViolation("a group's runs must share one dimension")
    return Group(algorithm, config, rngs, evaluators, spaces, x, fitness)


def drive(algorithm: Algorithm, configs, objectives, spaces) -> list:
    """Run each config as one of a group of runs of ``algorithm`` in
    lockstep (:func:`start_group`) and return their records, in order.

    The group advances once per iteration, and each run's best-so-far is
    recorded after it; a run's record is the one it gets alone.
    """
    group = start_group(algorithm, configs, objectives, spaces)
    traces = np.empty((len(configs), group.max_iterations), dtype=float)
    for t in range(group.max_iterations):
        group.advance()
        traces[:, t] = group.best_f
    return [
        RunRecord(
            algorithm=algorithm.id,
            benchmark=c.benchmark or "custom",
            seed=c.seed,
            trace=trace,
            final_best=float(trace[-1]),
            evaluations=evaluator.n,
        )
        for c, trace, evaluator in zip(configs, traces, group.objectives)
    ]
