"""Bit-exact regression against frozen single-iteration fixtures.

The fixtures were generated once by a straight-line reimplementation of each
algorithm's documented draw order (sphere objective, dim 2, N = 3, one
iteration, seed 123) and are stored as hex floats for exact comparison.
Any change to an update rule or to the draw order shows up here.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import beetleopt as bo
from beetleopt.benchmarks import BENCHMARKS, sphere
from beetleopt.core import (
    CallEvaluator,
    RandomStream,
    RunConfig,
    SearchSpace,
    initialize_population,
    update_best,
)
import beetleopt.baselines as bl
import beetleopt.bbo as bbo_mod
from beetleopt import kernels

FIXTURES = json.loads((Path(__file__).parent / "fixtures" / "golden_step.json").read_text())

SPACE = SearchSpace.cube(2, -100.0, 100.0)
SEED = 123


def run_one_iteration(algo, space=SPACE, function=sphere, objective=None):
    """Drive one iteration through the public step functions and return the
    state, whose population holds the best-so-far value.  The initial
    population is evaluated with ``function``, and the step takes
    ``objective`` (by default the same function, counted)."""
    cfg = RunConfig(algorithm=algo, population=3, iterations=1, seed=SEED)
    rng = RandomStream(cfg.seed)
    counter = CallEvaluator(function)
    pop = initialize_population(space, cfg.population, rng)
    for agent in pop.agents:
        agent.fitness = counter(agent.position)
    update_best(pop)
    counter = counter if objective is None else objective
    zeros = [np.zeros(space.dim) for _ in pop.agents]
    if algo == "bbo":
        state = bbo_mod.BBOState(
            population=pop, chaos=kernels.make_chaos("tent", rng.uniform()), max_iterations=1
        )
        bbo_mod.bbo_iteration(state, counter, space, rng)
    elif algo == "pso":
        state = bl.PSOState(pop, zeros, [a.copy() for a in pop.agents], 1)
        bl.pso_step(state, counter, space, rng)
    elif algo == "sso":
        state = bl.SSOState(pop, zeros, [a.copy() for a in pop.agents])
        bl.sso_step(state, counter, space, rng)
    elif algo == "gwo":
        state = bl.GWOState(pop, bl._three_leaders(pop), 1)
        bl.gwo_step(state, counter, space, rng)
    elif algo == "cdo":
        state = bl.CDOState(pop, bl._three_leaders(pop), 1)
        bl.cdo_step(state, counter, space, rng)
    elif algo == "bto":
        state = bl.BTOState(pop, kernels.make_chaos("tent", rng.uniform()), 1)
        bl.bto_step(state, counter, space, rng)
    elif algo == "gsa":
        state = bl.GSAState(pop, zeros, 1)
        bl.gsa_step(state, counter, space, rng)
    else:
        raise AssertionError(algo)
    return state


@pytest.mark.parametrize("algo", sorted(FIXTURES))
def test_population_matches_frozen_fixture(algo):
    pop = run_one_iteration(algo).population
    want_positions = [[float.fromhex(h) for h in row] for row in FIXTURES[algo]["positions"]]
    want_fitness = [float.fromhex(h) for h in FIXTURES[algo]["fitness"]]
    for agent, want_pos, want_fit in zip(pop.agents, want_positions, want_fitness):
        assert list(agent.position) == want_pos
        assert agent.fitness == want_fit
    assert pop.best.fitness == float.fromhex(FIXTURES[algo]["best"])


@pytest.mark.parametrize("algo", sorted(FIXTURES))
def test_full_run_reaches_same_best(algo):
    cfg = RunConfig(algorithm=algo, population=3, iterations=1, seed=SEED)
    record = bo.ALGORITHMS[algo](cfg, sphere, SPACE)
    assert record.final_best == float.fromhex(FIXTURES[algo]["best"])
    assert record.trace.shape == (1,)


def _bits(value):
    """Every field of a public state as bytes, agents and chaos states
    included."""
    if isinstance(value, list):
        return [_bits(v) for v in value]
    if isinstance(value, bo.Agent):
        return value.position.tobytes(), float(value.fitness).hex()
    if isinstance(value, bo.Population):
        return _bits(value.agents), _bits(value.best)
    if isinstance(value, np.ndarray):
        return value.tobytes()
    return repr(value)


@pytest.mark.parametrize("algo", sorted(FIXTURES))
def test_a_step_takes_a_benchmark_spec(algo):
    # a step binds a spec to its stream as a run does: its blocks and chunks
    # give the state a plain callable gets row by row
    spec = BENCHMARKS["f1"]
    by_spec = run_one_iteration(algo, spec.space(), spec.evaluator, spec)
    by_call = run_one_iteration(algo, spec.space(), spec.evaluator, spec.evaluator)
    for field in dataclasses.fields(by_spec):
        assert _bits(getattr(by_spec, field.name)) == _bits(getattr(by_call, field.name)), field.name
