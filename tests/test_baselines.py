import math

import numpy as np
import pytest

import beetleopt.baselines as bl
from beetleopt.benchmarks import BENCHMARKS
from beetleopt.core import ConfigurationError, RunConfig, SearchSpace

from conftest import CheckedObjective, StubStream, hand_group

RUNNERS = {
    "pso": bl.run_pso,
    "sso": bl.run_sso,
    "gwo": bl.run_gwo,
    "cdo": bl.run_cdo,
    "bto": bl.run_bto,
    "gsa": bl.run_gsa,
}


def space2():
    return SearchSpace.cube(2, -100.0, 100.0)


def pso_velocity(velocity, position, personal_best, global_best, inertia, draws):
    """One agent's velocity: pso's memory kernel plus its social pull toward
    the global best, ``draws`` holding its r1 draws, then its r2 draws."""
    dim = position.size
    r1, r2 = np.array(draws[:dim]), np.array(draws[dim:])
    memory = bl._pso_memory(inertia, velocity, r1, personal_best, position)
    return memory + bl.PSO_SOCIAL * r2 * (global_best - position)


class TestPSOVelocity:
    def test_all_terms_vanish(self):
        x = np.array([1.0, 2.0])
        v = pso_velocity(np.zeros(2), x, x, x, 0.0, [0.1, 0.2, 0.3, 0.4])
        assert np.array_equal(v, np.zeros(2))

    def test_pure_inertia(self):
        x = np.array([1.0, 2.0])
        velocity = np.array([3.0, -1.0])
        v = pso_velocity(velocity, x, x, x, 0.5, [0.9, 0.9, 0.9, 0.9])
        assert np.allclose(v, 0.5 * velocity)

    def test_direct_substitution(self):
        # w*v + 2*0.5*(pbest-x) + 2*0.5*(gbest-x) = 0.5 + 1 + 2 = 3.5
        v = pso_velocity(
            np.array([1.0]),
            np.array([0.0]),
            np.array([1.0]),
            np.array([2.0]),
            0.5,
            [0.5, 0.5],
        )
        assert v[0] == pytest.approx(3.5)


class TestPSORun:
    def test_personal_best_is_exact_history_minimum(self):
        spec = BENCHMARKS["f9"]
        history = {}
        calls = [0]

        # a plain callable is called once per agent per iteration, in agent
        # order (the initial population first), so call k evaluates agent k % 4
        def tracking(x):
            value = spec.evaluator(x)
            history.setdefault(calls[0] % 4, []).append(value)
            calls[0] += 1
            return value

        cfg = RunConfig(algorithm="pso", population=4, iterations=30, seed=5)
        group = bl.PSO.start(cfg, tracking, spec.space())
        for _ in range(30):
            group.advance()
        assert [len(history[i]) for i in range(4)] == [31] * 4
        for i in range(4):
            assert group.personal_best_f[0][i] == min(history[i])

    def test_gbest_matches_min_of_personal_bests(self):
        spec = BENCHMARKS["f1"]
        cfg = RunConfig(algorithm="pso", benchmark="f1", population=6, iterations=40, seed=9)
        record = bl.run_pso(cfg, spec)
        assert np.all(np.diff(record.trace) <= 0)
        assert record.evaluations == 6 + 6 * 40


def sso_velocity(velocity, position, personal_best, global_best, draws):
    """One agent's velocity from sso's group kernel, ``draws`` its damping,
    pH1, pH2, temperature1, pH3 and temperature2."""
    memory, social = bl._sso_memory(np.array([draws]), velocity, personal_best, position)
    return memory[0] + social[0] * (global_best - position)


class TestSSOVelocity:
    def test_all_terms_vanish(self):
        x = np.array([3.0, -1.0])
        v = sso_velocity(np.array([1.0, 1.0]), x, x, x, [0.0, 10.0, 10.0, 36.0, 10.0, 36.0])
        assert np.array_equal(v, np.zeros(2))

    def test_initial_term_with_unit_log(self):
        # damping=1, pH1=10 -> log10 = 1, so the start term is the velocity.
        x = np.array([0.0])
        v = sso_velocity(np.array([1.0]), x, x, x, [1.0, 10.0, 10.0, 36.0, 10.0, 36.0])
        assert v[0] == pytest.approx(1.0)

    def test_pinned_attraction_reduction(self):
        # pH draws pinned to 10 (log10 = 1) and both temperatures pinned to
        # the same value: the personal and global pulls reduce to the same
        # log-temperature scaling.
        temp = 36.0
        c = math.log10(temp)
        x = np.zeros(2)
        pb = np.array([1.0, 2.0])
        gb = np.array([-2.0, 4.0])
        v = sso_velocity(np.zeros(2), x, pb, gb, [0.0, 10.0, 10.0, temp, 10.0, temp])
        assert np.allclose(v, c * (pb - x) + c * (gb - x))


class TestSSORun:
    def test_budget_and_monotonicity(self):
        spec = BENCHMARKS["f1"]
        cfg = RunConfig(algorithm="sso", benchmark="f1", population=5, iterations=30, seed=2)
        record = bl.run_sso(cfg, spec)
        assert record.evaluations == 5 + 5 * 30
        assert np.all(np.diff(record.trace) <= 0)


class TestGWO:
    def test_candidate_fixed_point_with_pinned_draws(self):
        x = np.array([2.0, -3.0])
        a_coef, c_coef = bl._gwo_coefficients(np.array([0.3, 0.3, 0.5, 0.5] * 3), 0.0)
        out = bl._gwo_guided(np.array([x, x, x]), a_coef, c_coef, x)
        assert np.allclose(out, x)

    def test_leaders_stay_sorted_and_dominate_population(self):
        spec = BENCHMARKS["f9"]
        cfg = RunConfig(algorithm="gwo", population=6, iterations=25, seed=8)
        group = bl.GWO.start(cfg, spec.evaluator, spec.space())
        for _ in range(25):
            group.advance()
            fits = group.leaders_f[0]
            assert fits == sorted(fits)
            current = sorted(group.fitness[0])[:3]
            for leader_fit, current_fit in zip(fits, current):
                assert leader_fit <= current_fit
            assert fits[0] == group.best_f[0]

    def test_small_population_rejected(self):
        cfg = RunConfig(algorithm="gwo", population=2, iterations=5, seed=1)
        with pytest.raises(ConfigurationError):
            bl.run_gwo(cfg, BENCHMARKS["f1"])

    def test_budget(self):
        cfg = RunConfig(algorithm="gwo", benchmark="f1", population=5, iterations=20, seed=4)
        record = bl.run_gwo(cfg, BENCHMARKS["f1"])
        assert record.evaluations == 5 + 5 * 20


class TestCDO:
    def test_walk_speed_endpoints(self):
        assert bl.cdo_walk_speed(0, 1000) == 3.0
        assert bl.cdo_walk_speed(1000, 1000) == 0.0
        assert bl.cdo_walk_speed(500, 1000) == pytest.approx(1.5)

    def test_origin_is_fixed_point(self):
        x = np.zeros(2)
        area, rho = bl._cdo_terms(np.full(16, 0.5), 0.0)
        out = bl._cdo_descent(np.array([x, x, x]), area, rho, x)
        assert np.array_equal(out, np.zeros(2))

    def test_zero_distance_terms_scale_by_weights(self):
        # Leaders equal to the position and propagation areas pinned to one:
        # all distance terms vanish and the 1/0.5/0.25 weights average the
        # same point scaled by 7/12.
        x = np.array([4.0, -6.0])
        unit_area_draw = 1.0 / math.sqrt(math.pi)
        draws = [0.5, 0.5, unit_area_draw, unit_area_draw]
        draws += [100.0, 100.0, 0.5, 0.5] * 3
        area, rho = bl._cdo_terms(np.array(draws), 1.0)
        out = bl._cdo_descent(np.array([x, x, x]), area, rho, x)
        assert np.allclose(out, (1.0 + 0.5 + 0.25) / 3.0 * x)

    def test_leaders_ordered_over_run(self):
        spec = BENCHMARKS["f1"]
        cfg = RunConfig(algorithm="cdo", population=5, iterations=40, seed=12)
        group = bl.CDO.start(cfg, spec.evaluator, spec.space())
        for _ in range(40):
            group.advance()
            fits = group.leaders_f[0]
            assert fits == sorted(fits)
        assert group.leaders_f[0][0] == group.best_f[0]

    def test_budget_and_monotonicity(self):
        cfg = RunConfig(algorithm="cdo", benchmark="f5", population=6, iterations=25, seed=3)
        record = bl.run_cdo(cfg, BENCHMARKS["f5"])
        assert record.evaluations == 6 + 6 * 25
        assert np.all(np.diff(record.trace) <= 0)


def bto_acceleration(draw, decay):
    """An agent's acceleration ``draw * decay``, read through its pull scale
    with a chaos value that cancels the triangle area it picks."""
    row = np.array([[0.5, 0.5, 0.5, draw, 0.9]])
    return float(bl._bto_scales(np.array([[1.0 / bl.BTO_TRIANGLE_AREA]]), row, decay)[0, 0])


def force_probability(iteration, max_iterations, gforce):
    return float(bl._bto_force_probabilities(iteration, max_iterations, np.array([gforce]))[0])


def test_mean_of_three_adds_the_rows_in_order():
    rng = np.random.default_rng(2)
    for shape in ((3, 30), (7, 3, 30), (2, 5, 3, 4), (3, 1)):
        terms = rng.normal(size=shape) * 10.0 ** rng.integers(-20, 20, size=shape)
        terms.flat[::5] = -0.0
        want = terms[..., 0, :] + terms[..., 1, :] + terms[..., 2, :]
        assert bl._mean_of_three(terms).tobytes() == (want / 3.0).tobytes()


class TestBTO:
    def test_zone_endpoints(self):
        assert bl.bto_zone(0, 1000) == pytest.approx(math.log(500_000.0))
        assert bl.bto_zone(1000, 1000) == pytest.approx(math.log(1_510_000.0))
        mid = bl.bto_zone(500, 1000)
        assert mid == pytest.approx((math.log(500_000.0) + math.log(1_510_000.0)) / 2)

    def test_zone_monotone_increasing(self):
        values = [bl.bto_zone(t, 100) for t in range(101)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_acc_endpoints(self):
        assert bto_acceleration(0.77, bl.bto_decay(0, 1000)) == pytest.approx(0.77)
        assert bto_acceleration(1.0, bl.bto_decay(1000, 1000)) == pytest.approx(math.exp(-20.0))
        assert bto_acceleration(0.0, bl.bto_decay(500, 1000)) == 0.0

    def test_acc_monotone_decreasing_with_pinned_draw(self):
        values = [bto_acceleration(1.0, bl.bto_decay(t, 100)) for t in range(101)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_force_probability_clamped(self):
        assert 0.0 <= force_probability(5, 100, 1e-12) <= 1.0
        assert force_probability(5, 100, 0.0) == 0.0
        assert force_probability(5, 100, math.inf) == pytest.approx(0.95)
        rng = np.random.default_rng(3)
        for _ in range(500):
            g = 10.0 ** rng.uniform(-12, 3)
            assert 0.0 <= force_probability(17, 200, g) <= 1.0

    def test_force_probabilities_match_the_scalar_rule(self):
        def scalar(iteration, max_iterations, gforce):
            if gforce <= 0.0:
                return 0.0
            inverse = 1.0 / gforce
            denominator = max_iterations - inverse
            if denominator == 0.0:
                return 0.0
            raw = 1.0 - (iteration - inverse) / denominator
            if not math.isfinite(raw):
                return 0.0
            return min(1.0, max(0.0, raw))

        rng = np.random.default_rng(11)
        # 0, -0.0, a negative force, +inf, the 1/G pole (1/G == T), NaN,
        # forces around the pole and a log-uniform spread
        edges = [0.0, -0.0, -1.0, math.inf, 0.25, math.nan, 0.25 * (1 + 1e-15), 1e-300, 5e-324]
        gforce = np.array(edges + (10.0 ** rng.uniform(-12, 3, 20_000)).tolist())
        for iteration, max_iterations in ((0, 4), (3, 4), (5, 100), (17, 200), (200, 200)):
            got = bl._bto_force_probabilities(iteration, max_iterations, gforce.reshape(-1, 1))
            want = [scalar(iteration, max_iterations, g) for g in gforce.tolist()]
            assert got.shape == (gforce.size, 1)
            assert got.ravel().tobytes() == np.array(want).tobytes()
        assert bl._bto_force_probabilities(3, 4, np.array([0.25]))[0] == 0.0

    def test_zero_products_collapse_both_branches(self):
        # acceleration draw of zero and a vanishing force probability kill
        # the pull entirely, so triangle and ring branches propose the same
        # constant vector.
        spec = BENCHMARKS["f1"]
        space = spec.space()
        cfg = RunConfig(algorithm="bto", population=2, iterations=10)
        proposals = []
        for prescience in (0.9, 0.1):
            x = np.full((2, 30), 5.0)
            # the chaos seed, then each agent's masses, distance,
            # acceleration and prescience
            stub = StubStream([0.4] + [0.5, 0.5, 0.5, 0.0, prescience] * 2)
            group = hand_group(bl.BTO, cfg, x, [spec.evaluator(row) for row in x], spec.evaluator, space, stub)
            group.advance()
            proposals.append(group.x[0].copy())
        assert np.array_equal(proposals[0], proposals[1])

    def test_budget_and_monotonicity(self):
        cfg = RunConfig(algorithm="bto", benchmark="f9", population=5, iterations=30, seed=6)
        record = bl.run_bto(cfg, BENCHMARKS["f9"])
        assert record.evaluations == 5 + 5 * 30
        assert np.all(np.diff(record.trace) <= 0)


class TestGSA:
    def test_flat_population_has_equal_masses(self):
        masses = bl.gsa_masses(np.full(5, 3.3))
        assert np.allclose(masses, 0.2)

    def test_masses_normalized_and_best_heaviest(self):
        masses = bl.gsa_masses(np.array([1.0, 2.0, 10.0]))
        assert masses.sum() == pytest.approx(1.0)
        assert masses[0] == masses.max()
        assert masses[2] == 0.0

    def test_masses_of_a_stack_equal_each_run_alone(self):
        # the group's (R, N) masses hold each row's masses of the per-run
        # rule, bit for bit
        def one_run(fitness):
            finite = np.isfinite(fitness)
            if not finite.any():
                return np.zeros_like(fitness)
            best_f = float(np.min(fitness[finite]))
            worst_f = float(np.max(fitness[finite]))
            if best_f == worst_f:
                raw = finite.astype(float)
            else:
                raw = np.where(finite, (fitness - worst_f) / (best_f - worst_f), 0.0)
            return raw / np.sum(raw)

        rng = np.random.default_rng(5)
        for n in (1, 2, 7, 8, 9, 30, 31, 130):
            stack = rng.normal(size=(12, n)) * 10.0 ** rng.integers(-3, 4, size=(12, 1))
            stack[0] = 3.3
            stack[1, ::2] = -0.0
            stack[2] = math.nan
            stack[3, ::3] = math.inf
            stack[4, 1::2] = math.nan
            stack[5, : n // 2] = -math.inf
            masses = bl.gsa_masses(stack)
            ranking = bl._gsa_ranking(stack)
            for row, got, order in zip(stack, masses, ranking):
                assert got.tobytes() == one_run(row).tobytes()
                assert order.tolist() == bl._gsa_ranking(row).tolist()

    def test_initial_gravity_constant(self):
        assert bl.gsa_gravity(0, 1000) == 1.0

    def test_gravity_decays(self):
        values = [bl.gsa_gravity(t, 100) for t in range(101)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_kbest_shrinks_to_one(self):
        assert bl._gsa_kbest(10, 0, 200) == 10
        assert bl._gsa_kbest(10, 199, 200) == 1

    def test_non_finite_fitness_weighs_nothing(self):
        # one inf agent used to make every mass NaN (inf - inf) and, from the
        # next iteration on, every position NaN
        space = SearchSpace.cube(5, -5.0, 5.0)
        seen = []

        def walled_sphere(x):
            seen.append(np.array(x))
            return math.inf if x[0] > 4.0 else float(np.sum(x * x))

        cfg = RunConfig(algorithm="gsa", population=10, iterations=50, seed=3)
        record = bl.run_gsa(cfg, walled_sphere, space)
        assert record.evaluations == len(seen) == 10 + 10 * 50
        for x in seen:
            assert np.all(np.isfinite(x)) and space.contains(x)
        assert record.final_best < 8.0
        masses = bl.gsa_masses(np.array([1.0, math.inf, 3.0, math.nan, -math.inf]))
        assert masses.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]
        assert bl.gsa_masses(np.array([math.inf, math.nan])).tolist() == [0.0, 0.0]
        ranking = bl._gsa_ranking(np.array([math.nan, 2.0, -math.inf, 1.0, math.inf]))
        assert ranking.tolist() == [3, 1, 0, 2, 4]

    def test_budget_and_monotonicity(self):
        cfg = RunConfig(algorithm="gsa", benchmark="f1", population=6, iterations=25, seed=13)
        record = bl.run_gsa(cfg, BENCHMARKS["f1"])
        assert record.evaluations == 6 + 6 * 25
        assert np.all(np.diff(record.trace) <= 0)


class TestAllBaselines:
    @pytest.mark.parametrize("algo", sorted(RUNNERS))
    def test_seeded_determinism(self, algo):
        cfg = RunConfig(algorithm=algo, benchmark="f9", population=5, iterations=20, seed=99)
        a = RUNNERS[algo](cfg, BENCHMARKS["f9"])
        b = RUNNERS[algo](cfg, BENCHMARKS["f9"])
        assert np.array_equal(a.trace, b.trace)
        assert a.final_best == b.final_best

    @pytest.mark.parametrize("algo", sorted(RUNNERS))
    def test_in_bounds_evaluations(self, algo):
        spec = BENCHMARKS["f16"]
        space = spec.space()
        counter = CheckedObjective(spec.evaluator, space)
        cfg = RunConfig(algorithm=algo, population=5, iterations=25, seed=21)
        record = RUNNERS[algo](cfg, counter, space)
        assert record.evaluations == counter.n == 5 + 5 * 25

    @pytest.mark.parametrize("algo", sorted(RUNNERS))
    def test_final_best_matches_trace(self, algo):
        cfg = RunConfig(algorithm=algo, benchmark="f14", population=4, iterations=15, seed=31)
        record = RUNNERS[algo](cfg, BENCHMARKS["f14"])
        assert record.final_best == record.trace[-1]
        assert record.benchmark == "f14"
        assert record.algorithm == algo
