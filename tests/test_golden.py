"""Bit-exact regression against frozen single-iteration fixtures.

The fixtures were generated once by a straight-line reimplementation of each
algorithm's documented draw order (sphere objective, dim 2, N = 3, one
iteration, seed 123) and are stored as hex floats for exact comparison.
Any change to an update rule or to the draw order shows up here.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import beetleopt as bo
from beetleopt import harness
from beetleopt.benchmarks import BENCHMARKS, sphere
from beetleopt.core import RunConfig, SearchSpace

FIXTURES = json.loads((Path(__file__).parent / "fixtures" / "golden_step.json").read_text())

SPACE = SearchSpace.cube(2, -100.0, 100.0)
SEED = 123


def run_one_iteration(algo, space=SPACE, objective=sphere):
    """Start a run of one iteration (:meth:`Algorithm.start`) and advance it
    once; the group holds the population and the best-so-far value."""
    cfg = RunConfig(algorithm=algo, population=3, iterations=1, seed=SEED)
    group = harness.ENTRIES[algo].start(cfg, objective, space)
    group.advance()
    return group


@pytest.mark.parametrize("algo", sorted(FIXTURES))
def test_population_matches_frozen_fixture(algo):
    group = run_one_iteration(algo)
    want_positions = [[float.fromhex(h) for h in row] for row in FIXTURES[algo]["positions"]]
    want_fitness = [float.fromhex(h) for h in FIXTURES[algo]["fitness"]]
    for position, fitness, want_pos, want_fit in zip(group.x[0], group.fitness[0], want_positions, want_fitness):
        assert list(position) == want_pos
        assert fitness == want_fit
    assert group.best_f[0] == float.fromhex(FIXTURES[algo]["best"])


@pytest.mark.parametrize("algo", sorted(FIXTURES))
def test_full_run_reaches_same_best(algo):
    cfg = RunConfig(algorithm=algo, population=3, iterations=1, seed=SEED)
    record = bo.ALGORITHMS[algo](cfg, sphere, SPACE)
    assert record.final_best == float.fromhex(FIXTURES[algo]["best"])
    assert record.trace.shape == (1,)


def _bits(value):
    """A group's state as bytes, run 0 of every array and list."""
    if isinstance(value, (list, np.ndarray)):
        return np.array(value[0], dtype=float).tobytes()
    return repr(value)


#: group attributes that are not run state
NOT_STATE = {"rngs", "objectives", "segments", "at", "algorithm"}


@pytest.mark.parametrize("algo", sorted(FIXTURES))
def test_a_step_takes_a_benchmark_spec(algo):
    # a run binds a spec to its stream: its blocks and chunks give the state
    # a plain callable gets row by row
    spec = BENCHMARKS["f1"]
    by_spec = run_one_iteration(algo, None, spec)
    by_call = run_one_iteration(algo, spec.space(), spec.evaluator)
    assert vars(by_spec).keys() == vars(by_call).keys()
    for name in vars(by_spec).keys() - NOT_STATE:
        assert _bits(getattr(by_spec, name)) == _bits(getattr(by_call, name)), name
