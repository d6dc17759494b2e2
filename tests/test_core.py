import math

import numpy as np
import pytest

from beetleopt.baselines import PSO
from beetleopt.core import (
    CallEvaluator,
    ConfigurationError,
    Group,
    RandomStream,
    RunConfig,
    SearchSpace,
    accepted,
    accepts,
    clamp_to_bounds,
    improved,
    improves,
    initialize_population,
)

from conftest import EvaluateOnly, StubStream


def cube(dim=2, lower=-100.0, upper=100.0):
    return SearchSpace.cube(dim, lower, upper)


class TestSearchSpace:
    def test_validates_bounds(self):
        with pytest.raises(ConfigurationError):
            SearchSpace(2, np.array([0.0, 0.0]), np.array([1.0]))
        with pytest.raises(ConfigurationError):
            SearchSpace(2, np.array([0.0, 2.0]), np.array([1.0, 1.0]))
        with pytest.raises(ConfigurationError):
            SearchSpace(0, np.array([]), np.array([]))

    @pytest.mark.parametrize("lower, upper", [
        (-math.inf, 1.0),
        (0.0, math.inf),
        (-math.inf, math.inf),
        (math.nan, 1.0),
        (-1e308, 1e308),  # the width overflows to inf
    ])
    def test_refuses_a_box_that_is_not_finite(self, lower, upper):
        # a run on such a box would draw and evaluate NaN coordinates
        with pytest.raises(ConfigurationError, match="finite"):
            SearchSpace(2, [lower, 0.0], [upper, 1.0])
        with pytest.raises(ConfigurationError, match="finite"):
            SearchSpace.cube(3, lower, upper)

    def test_a_wide_finite_box_is_accepted(self):
        space = SearchSpace.cube(2, -8e307, 8e307)
        assert np.all(np.isfinite(space.width))

    def test_width_and_contains(self):
        space = cube(3, -1.0, 2.0)
        assert np.allclose(space.width, 3.0)
        assert space.contains(np.zeros(3))
        assert not space.contains(np.array([0.0, 0.0, 2.5]))


class TestRandomStream:
    def test_same_seed_same_sequence(self):
        a = RandomStream(42)
        b = RandomStream(42)
        assert [a.uniform() for _ in range(10)] == [b.uniform() for _ in range(10)]
        assert np.array_equal(a.uniform(size=5), b.uniform(size=5))

    def test_uniform_ranges(self):
        rng = RandomStream(0)
        draws = rng.uniform(size=10_000)
        assert np.all(draws >= 0.0) and np.all(draws < 1.0)


class TestInitializePopulation:
    def test_zero_draw_sits_on_lower_bound(self):
        space = cube()
        stub = StubStream([0.0] * 4)
        x = initialize_population(space, 2, stub)
        assert x.shape == (2, 2)
        for position in x:
            assert np.array_equal(position, space.lower)

    def test_unit_draw_sits_on_upper_bound(self):
        space = cube()
        stub = StubStream([1.0] * 2)
        x = initialize_population(space, 1, stub)
        assert np.array_equal(x[0], space.upper)

    def test_half_draw_hits_midpoint(self):
        space = cube(1, -100.0, 100.0)
        x = initialize_population(space, 1, StubStream([0.5]))
        assert x[0, 0] == 0.0

    def test_positions_inside_box(self):
        space = cube(5, -3.0, 7.0)
        x = initialize_population(space, 20, RandomStream(9))
        for position in x:
            assert space.contains(position)

    def test_rejects_empty_population(self):
        with pytest.raises(ConfigurationError):
            initialize_population(cube(), 0, RandomStream(0))


class TestClampToBounds:
    def test_inside_unchanged(self):
        space = cube()
        x = np.array([3.0, -4.0])
        assert np.array_equal(clamp_to_bounds(x, space, "clamp"), x)
        assert np.array_equal(clamp_to_bounds(x, space, "reflect"), x)

    def test_clamp_saturates(self):
        space = cube()
        out = clamp_to_bounds(np.array([150.0, -170.0]), space, "clamp")
        assert np.array_equal(out, [100.0, -100.0])

    def test_reflect_mirrors_once(self):
        space = cube()
        out = clamp_to_bounds(np.array([150.0, -130.0]), space, "reflect")
        assert np.array_equal(out, [50.0, -70.0])

    def test_reflect_saturates_big_overshoot(self):
        space = cube()
        out = clamp_to_bounds(np.array([1e6, -1e6]), space, "reflect")
        assert np.array_equal(out, [-100.0, 100.0])

    def test_always_in_bounds_property(self):
        space = cube(4, -2.5, 1.5)
        rng = np.random.default_rng(5)
        for _ in range(500):
            x = rng.normal(scale=10.0, size=4)
            for mode in ("clamp", "reflect"):
                out = clamp_to_bounds(x, space, mode)
                assert space.contains(out)

    def test_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            clamp_to_bounds(np.zeros(2), cube(), "wrap")


def hand_built(fitness, **settings):
    """A group of pso runs built by its constructor, one run per entry of
    ``fitness``, agent ``i`` of run ``r`` at the 1-dim position
    ``N * r + i``; ``settings`` go to the config."""
    runs, n = len(fitness), len(fitness[0])
    x = np.arange(float(runs * n)).reshape(runs, n, 1)
    config = RunConfig(algorithm="pso", population=n, iterations=7, **settings)
    return Group(PSO, config, [None] * runs, [CallEvaluator(abs)] * runs, [cube(1)] * runs, x, fitness)


class TestGroupBest:
    def test_first_pass_takes_minimum(self):
        g = hand_built([(3.0, 1.0, 2.0)])
        assert g.best_f == [1.0] and g.best_x.tolist() == [[1.0]]

    def test_the_first_of_tied_values_leads(self):
        g = hand_built([(2.0, 1.0, 1.0), (0.5, 0.5, 0.5)])
        assert g.best_f == [1.0, 0.5] and g.best_x.tolist() == [[1.0], [3.0]]

    def test_nan_ranks_after_every_value(self):
        g = hand_built([(math.nan, 2.0, math.nan, math.inf), (math.nan, math.inf, 3.0, math.nan)])
        assert g.best_f == [2.0, 3.0] and g.best_x.tolist() == [[1.0], [6.0]]

    def test_a_run_whose_every_value_is_nan_leads_with_agent_0(self):
        g = hand_built([(math.nan,) * 3, (math.nan, -1.0, math.nan)])
        assert math.isnan(g.best_f[0]) and g.best_f[1] == -1.0
        assert g.best_x.tolist() == [[0.0], [4.0]]

    def test_best_is_a_snapshot(self):
        g = hand_built([(1.0, 2.0)])
        g.x[0, 0, 0] = 99.0
        assert g.best_x[0, 0] == 0.0

    def test_the_config_sets_the_run_settings_and_init_runs(self):
        g = hand_built([(1.0, 2.0)], bound_mode="reflect", predator_mode="random-agent", chaos_map="circle")
        assert (g.algorithm, g.iteration, g.max_iterations) == (PSO, 0, 7)
        assert (g.bound_mode, g.predator_mode, g.chaos_map) == ("reflect", "random-agent", "circle")
        assert g.fitness == [[1.0, 2.0]] and g.velocities.shape == (1, 2, 1)


#: ``(value, held, improves, accepts)``: a NaN held value reads as +inf,
#: NaN, an equal value or a zero of the other sign never improves, and
#: greedy selection accepts only a finite value that improves
IMPROVES = [
    (1.0, 2.0, True, True),
    (2.0, 1.0, False, False),
    (1.0, 1.0, False, False),
    (-0.0, 0.0, False, False),
    (0.0, -0.0, False, False),
    (-1.0, -0.0, True, True),
    (5.0, math.inf, True, True),
    (math.inf, math.inf, False, False),
    (math.inf, 5.0, False, False),
    (-math.inf, 5.0, True, False),
    (-math.inf, -math.inf, False, False),
    (1.0, math.nan, True, True),
    (-math.inf, math.nan, True, False),
    (math.inf, math.nan, False, False),
    (math.nan, math.nan, False, False),
    (math.nan, 1.0, False, False),
    (math.nan, math.inf, False, False),
    (math.nan, -math.inf, False, False),
]


def test_improves_and_improved_agree_on_every_kind_of_value():
    values, held, expected, greedy = (list(column) for column in zip(*IMPROVES))
    assert [improves(v, h) for v, h in zip(values, held)] == expected
    assert improved(np.array(values), np.array(held)).tolist() == expected
    assert [accepts(v, h) for v, h in zip(values, held)] == greedy
    assert accepted(np.array(values), np.array(held)).tolist() == greedy


class TestRunConfig:
    def test_defaults_match_protocol(self):
        cfg = RunConfig(algorithm="bbo")
        assert cfg.population == 30
        assert cfg.iterations == 1000

    def test_rejects_tiny_population(self):
        with pytest.raises(ConfigurationError):
            RunConfig(algorithm="bbo", population=1)

    def test_rejects_zero_iterations(self):
        with pytest.raises(ConfigurationError):
            RunConfig(algorithm="bbo", iterations=0)

    def test_rejects_unknown_modes(self):
        with pytest.raises(ConfigurationError):
            RunConfig(algorithm="bbo", bound_mode="wrap")
        with pytest.raises(ConfigurationError):
            RunConfig(algorithm="bbo", predator_mode="self")

    def test_rejects_an_unknown_chaos_map_for_every_algorithm(self):
        # only bto and bbo step a chaos map, but a config names one for any
        for algorithm in ("bbo", "pso", "gwo"):
            with pytest.raises(ConfigurationError, match="unknown chaos map 'nope'"):
                RunConfig(algorithm=algorithm, chaos_map="nope", population=4, iterations=2)
        assert RunConfig(algorithm="pso", chaos_map="iterative").chaos_map == "iterative"

    def test_rejects_a_negative_seed(self):
        # the run's generator takes only non-negative seeds
        with pytest.raises(ConfigurationError, match="seed must be >= 0, got -1"):
            RunConfig(algorithm="bbo", seed=-1)
        assert RunConfig(algorithm="bbo", seed=0).seed == 0


class TestRunPrologue:
    @pytest.mark.parametrize("fid", ["f7", "f15"])
    def test_evaluate_only_objects_give_identical_records(self, fid):
        from beetleopt.benchmarks import BENCHMARKS
        from beetleopt.harness import ALGORITHMS

        spec = BENCHMARKS[fid]
        for algorithm, run in ALGORITHMS.items():
            cfg = RunConfig(algorithm=algorithm, benchmark=fid, population=5, iterations=4, seed=9)
            proxy = EvaluateOnly(spec)
            direct, routed = run(cfg, spec), run(cfg, proxy)
            assert direct.trace.tobytes() == routed.trace.tobytes(), algorithm
            assert direct.final_best == routed.final_best
            assert direct.evaluations == routed.evaluations == proxy.calls

    def test_plain_callable_is_counted(self):
        from beetleopt.baselines import run_pso

        calls = []

        def sphere(x):
            calls.append(1)
            return float(np.add.reduce(x * x))

        cfg = RunConfig(algorithm="pso", population=4, iterations=3, seed=2)
        record = run_pso(cfg, sphere, cube())
        assert record.evaluations == len(calls) == 4 * (1 + 3)

    @pytest.mark.parametrize("algorithm", ["gwo", "cdo"])
    def test_three_leader_algorithms_reject_two_agents(self, algorithm):
        from beetleopt.benchmarks import BENCHMARKS
        from beetleopt.harness import ALGORITHMS

        cfg = RunConfig(algorithm=algorithm, population=2, iterations=2, seed=1)
        with pytest.raises(ConfigurationError, match="at least 3"):
            ALGORITHMS[algorithm](cfg, BENCHMARKS["f1"])

    def test_runs_read_the_population_table(self):
        import dataclasses

        from beetleopt.baselines import PSO
        from beetleopt.benchmarks import BENCHMARKS

        entry = dataclasses.replace(PSO, min_population=5)
        cfg = RunConfig(algorithm="pso", population=4, iterations=2, seed=1)
        with pytest.raises(ConfigurationError, match="at least 5"):
            entry.run(cfg, BENCHMARKS["f1"])


def _reflect_reference(x, lower, upper):
    """The reflect formula without the in-box shortcut: mirror, then clamp."""
    mirrored = np.where(x > upper, upper - (x - upper), x)
    x = np.where(x < lower, lower + (lower - x), mirrored)
    return np.minimum(np.maximum(x, lower), upper)


class TestReflectMatchesReference:
    SPECIALS = [
        math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0,
        5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e308, -1e308,
    ]

    @staticmethod
    def _boxes(dim, rng):
        cubes = [(-100.0, 100.0), (0.0, 1.0), (-1.0, 0.0), (-0.0, 1.0), (-1.0, -0.0), (0.0, 5e-324), (-5.12, 5.12)]
        for lo, hi in cubes:
            yield np.full(dim, lo), np.full(dim, hi)
        lower = rng.uniform(-10.0, 0.0, dim)
        yield lower, lower + rng.uniform(0.1, 10.0, dim)

    def _points(self, lower, upper, rng, count):
        dim = lower.size
        width = upper - lower
        edges = np.array(
            self.SPECIALS
            + [*lower, *upper, *np.nextafter(lower, -np.inf), *np.nextafter(upper, np.inf)]
            + [*np.nextafter(lower, np.inf), *np.nextafter(upper, -np.inf), *(2 * upper - lower)]
        )
        for _ in range(count):
            inside = lower + rng.random(dim) * width
            yield inside
            yield lower + rng.uniform(-1.5, 2.5, dim) * width
            yield rng.choice(edges, dim)
            mixed = inside.copy()
            picks = rng.random(dim) < 0.3
            mixed[picks] = rng.choice(edges, int(picks.sum()))
            yield mixed
        yield lower.copy()
        yield upper.copy()

    @pytest.mark.parametrize("dim", [2, 4, 30])
    def test_bytes_equal_the_reference(self, dim):
        from beetleopt.core import bound_position

        rng = np.random.default_rng(dim)
        with np.errstate(all="ignore"):
            for lower, upper in self._boxes(dim, rng):
                for x in self._points(lower, upper, rng, 300):
                    before = x.tobytes()
                    want = _reflect_reference(x, lower, upper)
                    got = bound_position(x, lower, upper, "reflect")
                    assert got.tobytes() == want.tobytes(), (x, lower, upper)
                    assert x.tobytes() == before
                    assert got is not x

    def test_clamp_to_bounds_reflects_through_the_same_path(self):
        space = cube(30, -100.0, 100.0)
        rng = np.random.default_rng(17)
        for x in rng.uniform(-150.0, 150.0, (200, 30)):
            got = clamp_to_bounds(x, space, "reflect")
            assert got.tobytes() == _reflect_reference(x, space.lower, space.upper).tobytes()


class TestInitializePopulationBlock:
    @pytest.mark.parametrize("dim, n", [(1, 5), (2, 30), (30, 7)])
    def test_matches_the_per_agent_loop(self, dim, n):
        space = SearchSpace(dim, np.linspace(-3.0, -1.0, dim), np.linspace(2.0, 9.0, dim))
        block_stream, loop_stream = RandomStream(41), RandomStream(41)
        x = initialize_population(space, n, block_stream)
        want = [space.lower + loop_stream.uniform(size=dim) * space.width for _ in range(n)]
        assert x.shape == (n, dim)
        for position, expected in zip(x, want):
            assert position.tobytes() == expected.tobytes()
        # both streams consumed the same draws
        assert block_stream.uniform() == loop_stream.uniform()

    def test_agents_own_separate_rows(self):
        x = initialize_population(cube(3), 4, RandomStream(2))
        before = x[1].copy()
        x[0] = 0.0
        assert np.array_equal(x[1], before)
