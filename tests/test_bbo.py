import numpy as np
import pytest

import beetleopt.bbo as bbo
from beetleopt import kernels
from beetleopt.benchmarks import BENCHMARKS, sphere
from beetleopt.core import ConfigurationError, RandomStream, RunConfig, SearchSpace

from conftest import CheckedObjective, hand_group


def small_space(dim=2):
    return SearchSpace.cube(dim, -100.0, 100.0)


class TestChemicalReaction:
    def test_hot_water_constant(self):
        assert bbo.HOT_WATER_VAPOR == 100.0

    def test_zero_oxygen_annuls(self):
        assert bbo.reaction_intensity(0.0, 0.9) == 0.0

    def test_maximal_draws(self):
        assert bbo.reaction_intensity(1.0, 1.0) == 100.0

    def test_direct_product(self):
        assert bbo.reaction_intensity(0.5, 0.2) == pytest.approx(10.0)

    def test_range(self):
        rng = RandomStream(3)
        for _ in range(200):
            assert 0.0 <= bbo.reaction_intensity(rng.uniform(), rng.uniform()) < 100.0


class TestDefenseUpdate:
    def test_zero_overlap_unit_spray_passes_through(self):
        x = np.array([4.0, -7.0])
        out = bbo.defense_proposal(x, np.array([1.0, 1.0]), 0.0, 55.0, 1.0)
        assert np.array_equal(out, x)

    def test_direct_substitution(self):
        x = np.array([2.0, 2.0])
        out = bbo.defense_proposal(x, np.array([1.0, 1.0]), 1.0, 1.0, 2.0)
        assert np.allclose(out, [2.0, 2.0])

    def test_huge_spray_collapses_proposal(self):
        x = np.array([50.0, -80.0])
        spray = kernels.spray(1.0, 1000, 1000)
        out = bbo.defense_proposal(x, np.array([100.0, 100.0]), np.pi, 100.0, spray)
        bound = np.abs(x) * (1.0 + np.pi * 100.0 * 100.0) / spray
        assert np.all(np.abs(out) <= bound)
        assert np.all(np.abs(out) < 1e-35)

    def test_best_position_is_fixed_point_at_zero_overlap(self):
        x = np.array([1.5, -2.5, 0.25])
        out = bbo.defense_proposal(x, x, 0.0, 42.0, 1.0)
        assert np.array_equal(out, x)


def start(objective, space, n, seed, iterations=10, predator_mode="global-best"):
    """A started bbo run on ``objective``, which also counts the ``n``
    initial evaluations."""
    cfg = RunConfig(algorithm="bbo", population=n, iterations=iterations, seed=seed, predator_mode=predator_mode)
    return bbo.BBO.start(cfg, objective, space)


class TestIteration:
    def test_two_evaluations_per_agent(self):
        space = small_space(3)
        counter = CheckedObjective(sphere, space)
        group = start(counter, space, 5, seed=11)
        assert counter.n == 5
        group.advance()
        assert counter.n == 5 + 10
        group.advance()
        assert counter.n == 5 + 20

    def test_best_never_worsens(self):
        space = small_space(4)
        group = start(CheckedObjective(sphere, space), space, 6, seed=5, iterations=50)
        previous = group.best_f[0]
        for _ in range(50):
            group.advance()
            current = group.best_f[0]
            assert current <= previous
            previous = current

    def test_identical_population_at_optimum_stays(self):
        space = small_space(2)
        cfg = RunConfig(algorithm="bbo", population=4, iterations=5, seed=2)
        group = hand_group(bbo.BBO, cfg, np.zeros((4, 2)), [0.0] * 4, sphere, space)
        group.advance()
        assert group.best_f[0] == 0.0

    def test_random_agent_predator_mode_runs(self):
        space = small_space(2)
        counter = CheckedObjective(sphere, space)
        group = start(counter, space, 4, seed=9, predator_mode="random-agent")
        group.advance()
        assert counter.n == 4 + 8

    def test_refuses_to_run_past_the_end(self):
        space = small_space(2)
        group = start(sphere, space, 3, seed=1, iterations=1)
        group.advance()
        with pytest.raises(ConfigurationError):
            group.advance()

    def test_nan_objective_candidates_are_rejected(self):
        space = small_space(2)
        calls = {"n": 0}

        def sometimes_nan(x):
            calls["n"] += 1
            # finite on the 3 initial evaluations, then NaN on every other
            # call of the step
            return float("nan") if calls["n"] > 3 and (calls["n"] - 3) % 2 == 0 else sphere(x)

        group = start(sometimes_nan, space, 3, seed=8)
        group.advance()
        assert calls["n"] == 3 + 6
        for value in group.fitness[0]:
            assert np.isfinite(value)


class TestRun:
    def test_degenerate_run_has_unit_trace(self):
        cfg = RunConfig(algorithm="bbo", population=2, iterations=1, seed=4)
        record = bbo.bbo_run(cfg, sphere, small_space(2))
        assert record.trace.shape == (1,)
        assert record.final_best == record.trace[0]
        assert record.evaluations == 2 + 2 * 2 * 1

    def test_same_seed_bit_identical(self):
        cfg = RunConfig(algorithm="bbo", population=8, iterations=40, seed=123)
        a = bbo.bbo_run(cfg, BENCHMARKS["f1"])
        b = bbo.bbo_run(cfg, BENCHMARKS["f1"])
        assert np.array_equal(a.trace, b.trace)
        assert a.final_best == b.final_best
        assert a.evaluations == b.evaluations

    def test_all_evaluations_in_bounds_and_counted(self):
        spec = BENCHMARKS["f9"]
        space = spec.space()
        counter = CheckedObjective(spec.evaluator, space)
        cfg = RunConfig(algorithm="bbo", population=6, iterations=30, seed=7)
        record = bbo.bbo_run(cfg, counter, space)
        assert record.evaluations == counter.n == 6 + 2 * 6 * 30
        assert np.all(np.diff(record.trace) <= 0)

    def test_run_metadata(self):
        cfg = RunConfig(algorithm="bbo", benchmark="f1", population=4, iterations=3, seed=2)
        record = bbo.bbo_run(cfg, BENCHMARKS["f1"])
        assert record.algorithm == "bbo"
        assert record.benchmark == "f1"
        assert record.seed == 2

    def test_plain_objective_needs_space(self):
        cfg = RunConfig(algorithm="bbo", population=4, iterations=3, seed=2)
        with pytest.raises(ConfigurationError):
            bbo.bbo_run(cfg, sphere)

    def test_reflect_bound_mode_stays_inside(self):
        spec = BENCHMARKS["f9"]
        space = spec.space()
        counter = CheckedObjective(spec.evaluator, space)
        cfg = RunConfig(
            algorithm="bbo", population=5, iterations=20, seed=3, bound_mode="reflect"
        )
        record = bbo.bbo_run(cfg, counter, space)
        assert record.evaluations == counter.n
