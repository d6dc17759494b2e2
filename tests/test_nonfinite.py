"""Objectives that return inf or NaN: every algorithm keeps its budget
exact, evaluates only finite positions inside the box, and ends a run at
the least finite value it committed."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import beetleopt as bo
from beetleopt import harness
from beetleopt.benchmarks import BenchmarkSpec


class Objective:
    """A shifted sphere over a cube, made non-finite by ``kind``: ``("box",
    bad, start, width)`` is ``bad`` (inf or NaN) on the sub-cube from
    ``start`` to ``start + width`` in each coordinate, as fractions of the
    box's width; ``("first", k)`` is NaN on the first ``k`` positions it is
    given.  ``rows`` holds every position it was given, ``values`` what it
    returned for each."""

    def __init__(self, dim, lower, upper, kind):
        self.dim, self.lower, self.upper, self.kind = dim, lower, upper, kind
        self.centre = lower + 0.3 * (upper - lower)
        self.rows, self.values = [], []

    def block(self, z):
        """The values of a position ``(dim,)`` or a block ``(k, dim)``."""
        rows = z.reshape(-1, self.dim)
        values = np.add.reduce((rows - self.centre) ** 2, -1)
        if self.kind[0] == "box":
            _, bad, start, width = self.kind
            low = self.lower + start * (self.upper - self.lower)
            high = low + width * (self.upper - self.lower)
            values[((rows >= low) & (rows <= high)).all(-1)] = bad
        else:
            seen = len(self.rows) + np.arange(len(rows))
            values[seen < self.kind[1]] = math.nan
        self.rows += rows.tolist()
        self.values += values.tolist()
        return values if z.ndim == 2 else values[0]

    def __call__(self, x):
        return float(self.block(x))

    def spec(self):
        """This objective as a registry-style spec: its evaluator has a
        ``block`` form, so a run speculates its chunks."""

        def evaluator(z):
            return self.block(z)

        evaluator.block = self.block
        return BenchmarkSpec("nonfinite", self.dim, self.lower, self.upper, 0.0, evaluator, (self.centre,) * self.dim)


@st.composite
def cases(draw):
    algorithm = draw(st.sampled_from(sorted(bo.ALGORITHMS)))
    population = draw(st.integers(harness.ENTRIES[algorithm].min_population, 6))
    dim = draw(st.integers(1, 4))
    lower = draw(st.floats(-50.0, 10.0))
    upper = lower + draw(st.floats(0.5, 60.0))
    kind = draw(
        st.one_of(
            st.tuples(
                st.just("box"), st.sampled_from([math.inf, math.nan]), st.floats(0.0, 0.8), st.floats(0.1, 1.0)
            ),
            st.tuples(st.just("first"), st.integers(0, 3 * population)),
        )
    )
    iterations = draw(st.integers(1, 4))
    modes = draw(st.sampled_from([("clamp", "global-best"), ("reflect", "random-agent")]))
    return algorithm, population, iterations, dim, lower, upper, kind, modes


@settings(max_examples=200, deadline=None)
@given(cases())
def test_a_run_on_non_finite_values_keeps_its_contract(case):
    # a guard, not a fix: no algorithm is known to break this
    algorithm, population, iterations, dim, lower, upper, kind, (bound_mode, predator_mode) = case
    config = bo.RunConfig(
        algorithm=algorithm, population=population, iterations=iterations, seed=3,
        bound_mode=bound_mode, predator_mode=predator_mode,
    )
    budget = population * (1 + (2 if algorithm == "bbo" else 1) * iterations)
    space = bo.SearchSpace.cube(dim, lower, upper)
    run = bo.ALGORITHMS[algorithm]

    # a plain callable is called once per committed evaluation, in order
    plain = Objective(dim, lower, upper, kind)
    record = run(config, plain, space)
    # a spec's rows include speculated ones a step may discard
    speculated = Objective(dim, lower, upper, kind)
    spec_record = run(config, speculated.spec())

    assert record.evaluations == len(plain.values) == spec_record.evaluations == budget
    for objective in (plain, speculated):
        rows = np.array(objective.rows)
        assert np.isfinite(rows).all()
        assert ((rows >= lower) & (rows <= upper)).all()
    finite = [v for v in plain.values if math.isfinite(v)]
    if finite:
        assert record.final_best == min(finite)
    else:
        assert not math.isfinite(record.final_best)
    if kind[0] == "box" or kind[1] <= population:
        # the values depend on the position alone, or fall on the initial
        # block that both runs evaluate first: the records are the same
        assert spec_record.trace.tobytes() == record.trace.tobytes()
    else:
        # NaN reaches past the initial block, onto rows a step may discard:
        # a finite best is still one of the values the spec returned
        best = spec_record.final_best
        assert best in speculated.values or not math.isfinite(best)
