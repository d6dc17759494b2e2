import math

import numpy as np
import pytest

import beetleopt.baselines as bl
from beetleopt.benchmarks import BENCHMARKS
from beetleopt.core import (
    Agent,
    ConfigurationError,
    ContractViolation,
    Population,
    RandomStream,
    RunConfig,
    SearchSpace,
    update_best,
)
from beetleopt import kernels

from conftest import CheckedObjective, StubStream

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


class TestPSOVelocity:
    def test_all_terms_vanish(self):
        x = np.array([1.0, 2.0])
        v = bl.pso_velocity(np.zeros(2), x, x, x, 0.0, StubStream([0.1, 0.2, 0.3, 0.4]))
        assert np.array_equal(v, np.zeros(2))

    def test_pure_inertia(self):
        x = np.array([1.0, 2.0])
        velocity = np.array([3.0, -1.0])
        v = bl.pso_velocity(velocity, x, x, x, 0.5, StubStream([0.9, 0.9, 0.9, 0.9]))
        assert np.allclose(v, 0.5 * velocity)

    def test_direct_substitution(self):
        # w*v + 2*0.5*(pbest-x) + 2*0.5*(gbest-x) = 0.5 + 1 + 2 = 3.5
        v = bl.pso_velocity(
            np.array([1.0]),
            np.array([0.0]),
            np.array([1.0]),
            np.array([2.0]),
            0.5,
            StubStream([0.5, 0.5]),
        )
        assert v[0] == pytest.approx(3.5)


class TestPSORun:
    def test_personal_best_is_exact_history_minimum(self):
        spec = BENCHMARKS["f9"]
        space = spec.space()
        history = {}

        def tracking(x):
            value = spec.evaluator(x)
            key = tracking.current
            history.setdefault(key, []).append(value)
            return value

        rng = RandomStream(5)
        from beetleopt.core import initialize_population

        pop = initialize_population(space, 4, rng)
        for i, agent in enumerate(pop.agents):
            tracking.current = i
            agent.fitness = tracking(agent.position)
        update_best(pop)
        state = bl.PSOState(
            population=pop,
            velocities=[np.zeros(space.dim) for _ in pop.agents],
            personal_best=[a.copy() for a in pop.agents],
            max_iterations=30,
        )
        for _ in range(30):
            t = state.iteration + 1
            span = max(state.max_iterations - 1, 1)
            w = bl.PSO_INERTIA_START - (bl.PSO_INERTIA_START - bl.PSO_INERTIA_END) * (t - 1) / span
            for i, agent in enumerate(pop.agents):
                tracking.current = i
                v = bl.pso_velocity(
                    state.velocities[i], agent.position,
                    state.personal_best[i].position, pop.best.position, w, rng,
                )
                state.velocities[i] = v
                from beetleopt.core import clamp_to_bounds

                moved = Agent(clamp_to_bounds(agent.position + v, space, "clamp"))
                moved.fitness = tracking(moved.position)
                pop.agents[i] = moved
                if moved.fitness < state.personal_best[i].fitness:
                    state.personal_best[i] = moved.copy()
                if moved.fitness < pop.best.fitness:
                    pop.best = moved.copy()
            state.iteration += 1
        for i in range(4):
            assert state.personal_best[i].fitness == min(history[i])

    def test_gbest_matches_min_of_personal_bests(self):
        spec = BENCHMARKS["f1"]
        cfg = RunConfig(algorithm="pso", benchmark="f1", population=6, iterations=40, seed=9)
        record = bl.run_pso(cfg, spec)
        assert np.all(np.diff(record.trace) <= 0)
        assert record.evaluations == 6 + 6 * 40


class TestSSOVelocity:
    def test_all_terms_vanish(self):
        x = np.array([3.0, -1.0])
        stub = StubStream([0.0, 10.0, 10.0, 36.0, 10.0, 36.0])
        v = bl.sso_velocity(np.array([1.0, 1.0]), x, x, x, stub)
        assert np.array_equal(v, np.zeros(2))

    def test_initial_term_with_unit_log(self):
        # damping=1, pH1=10 -> log10 = 1, so the start term is the velocity.
        x = np.array([0.0])
        stub = StubStream([1.0, 10.0, 10.0, 36.0, 10.0, 36.0])
        v = bl.sso_velocity(np.array([1.0]), x, x, x, stub)
        assert v[0] == pytest.approx(1.0)

    def test_out_of_range_temperature_flagged(self):
        x = np.array([0.0])
        stub = StubStream([0.5, 10.0, 10.0, 10.0, 10.0, 36.0])
        with pytest.raises(ContractViolation):
            bl.sso_velocity(np.zeros(1), x, x, x, stub)

    def test_out_of_range_ph_flagged(self):
        x = np.array([0.0])
        stub = StubStream([0.5, 3.0, 10.0, 36.0, 10.0, 36.0])
        with pytest.raises(ContractViolation):
            bl.sso_velocity(np.zeros(1), x, x, x, stub)

    def test_pinned_attraction_reduction(self):
        # pH draws pinned to 10 (log10 = 1) and both temperatures pinned to
        # the same value: the personal and global pulls reduce to the same
        # log-temperature scaling.
        temp = 36.0
        c = math.log10(temp)
        x = np.zeros(2)
        pb = np.array([1.0, 2.0])
        gb = np.array([-2.0, 4.0])
        stub = StubStream([0.0, 10.0, 10.0, temp, 10.0, temp])
        v = bl.sso_velocity(np.zeros(2), x, pb, gb, stub)
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
        stub = StubStream([0.3, 0.3, 0.5, 0.5] * 3)
        out = bl.gwo_candidate(x, x, x, x, 0.0, stub)
        assert np.allclose(out, x)

    def test_leaders_stay_sorted_and_dominate_population(self):
        spec = BENCHMARKS["f9"]
        space = spec.space()
        rng = RandomStream(8)
        from beetleopt.core import initialize_population

        pop = initialize_population(space, 6, rng)
        for agent in pop.agents:
            agent.fitness = spec.evaluator(agent.position)
        update_best(pop)
        state = bl.GWOState(population=pop, leaders=bl._three_leaders(pop), max_iterations=25)
        for _ in range(25):
            bl.gwo_step(state, spec.evaluator, space, rng)
            fits = [leader.fitness for leader in state.leaders]
            assert fits == sorted(fits)
            current = sorted(pop.fitness_values())[:3]
            for leader_fit, current_fit in zip(fits, current):
                assert leader_fit <= current_fit
            assert state.leaders[0].fitness == pop.best.fitness

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

    def test_walk_speed_validation(self):
        with pytest.raises(ConfigurationError):
            bl.cdo_walk_speed(0, 0)
        with pytest.raises(ConfigurationError):
            bl.cdo_walk_speed(-1, 10)

    def test_origin_is_fixed_point(self):
        x = np.zeros(2)
        stub = StubStream([0.5] * 16)
        out = bl.cdo_candidate(x, x, x, x, 0.0, stub)
        assert np.array_equal(out, np.zeros(2))

    def test_zero_distance_terms_scale_by_weights(self):
        # Leaders equal to the position and propagation areas pinned to one:
        # all distance terms vanish and the 1/0.5/0.25 weights average the
        # same point scaled by 7/12.
        x = np.array([4.0, -6.0])
        unit_area_draw = 1.0 / math.sqrt(math.pi)
        script = [0.5, 0.5, unit_area_draw, unit_area_draw]
        script += [100.0, 100.0, 0.5, 0.5] * 3
        out = bl.cdo_candidate(x, x, x, x, 1.0, StubStream(script))
        assert np.allclose(out, (1.0 + 0.5 + 0.25) / 3.0 * x)

    def test_leaders_ordered_over_run(self):
        spec = BENCHMARKS["f1"]
        space = spec.space()
        rng = RandomStream(12)
        from beetleopt.core import initialize_population

        pop = initialize_population(space, 5, rng)
        for agent in pop.agents:
            agent.fitness = spec.evaluator(agent.position)
        update_best(pop)
        state = bl.CDOState(population=pop, leaders=bl._three_leaders(pop), max_iterations=40)
        for _ in range(40):
            bl.cdo_step(state, spec.evaluator, space, rng)
            fits = [leader.fitness for leader in state.leaders]
            assert fits == sorted(fits)
        assert state.leaders[0].fitness == pop.best.fitness

    def test_budget_and_monotonicity(self):
        cfg = RunConfig(algorithm="cdo", benchmark="f5", population=6, iterations=25, seed=3)
        record = bl.run_cdo(cfg, BENCHMARKS["f5"])
        assert record.evaluations == 6 + 6 * 25
        assert np.all(np.diff(record.trace) <= 0)


@pytest.mark.parametrize("chunks", [False, True])
@pytest.mark.parametrize("algo", ["gwo", "cdo"])
def test_leader_steps_refuse_a_population_below_three(monkeypatch, algo, chunks):
    # two agents give two leaders; cdo used to fail inside a NumPy broadcast
    monkeypatch.setattr(bl, "_chunks_pay", lambda changes, n: chunks)
    spec = BENCHMARKS["f1"]
    space = spec.space()
    rng = RandomStream(3)
    from beetleopt.core import initialize_population

    pop = initialize_population(space, 2, rng)
    for agent in pop.agents:
        agent.fitness = spec.evaluator(agent.position)
    update_best(pop)
    state_type, step = (bl.GWOState, bl.gwo_step) if algo == "gwo" else (bl.CDOState, bl.cdo_step)
    state = state_type(population=pop, leaders=bl._three_leaders(pop), max_iterations=5)
    with pytest.raises(ConfigurationError, match=f"{algo} needs a population of at least 3"):
        step(state, spec.evaluator, space, rng)


class TestBTO:
    def test_zone_endpoints(self):
        assert bl.bto_zone(0, 1000) == pytest.approx(math.log(500_000.0))
        assert bl.bto_zone(1000, 1000) == pytest.approx(math.log(1_510_000.0))
        mid = bl.bto_zone(500, 1000)
        assert mid == pytest.approx((math.log(500_000.0) + math.log(1_510_000.0)) / 2)

    def test_zone_monotone_increasing(self):
        values = [bl.bto_zone(t, 100) for t in range(101)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_zone_validation(self):
        with pytest.raises(ConfigurationError):
            bl.bto_zone(0, 0)

    def test_acc_endpoints(self):
        assert bl.bto_acc(0, 1000, StubStream([0.77])) == pytest.approx(0.77)
        assert bl.bto_acc(1000, 1000, StubStream([1.0])) == pytest.approx(math.exp(-20.0))
        assert bl.bto_acc(500, 1000, StubStream([0.0])) == 0.0

    def test_acc_monotone_decreasing_with_pinned_draw(self):
        values = [bl.bto_acc(t, 100, StubStream([1.0])) for t in range(101)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_force_probability_clamped(self):
        assert 0.0 <= bl._bto_force_probability(5, 100, 1e-12) <= 1.0
        assert bl._bto_force_probability(5, 100, 0.0) == 0.0
        assert bl._bto_force_probability(5, 100, math.inf) == pytest.approx(0.95)
        rng = np.random.default_rng(3)
        for _ in range(500):
            g = 10.0 ** rng.uniform(-12, 3)
            assert 0.0 <= bl._bto_force_probability(17, 200, g) <= 1.0

    def test_zero_products_collapse_both_branches(self):
        # acceleration draw of zero and a vanishing force probability kill
        # the pull entirely, so triangle and ring branches propose the same
        # constant vector.
        spec = BENCHMARKS["f1"]
        space = spec.space()
        proposals = []
        for prescience in (0.9, 0.1):
            pop = Population([Agent(np.full(30, 5.0), spec.evaluator(np.full(30, 5.0)))])
            update_best(pop)
            state = bl.BTOState(
                population=pop,
                chaos=kernels.make_chaos("tent", 0.4),
                max_iterations=10,
            )
            stub = StubStream([0.5, 0.5, 0.5, 0.0, prescience])
            bl.bto_step(state, spec.evaluator, space, stub)
            proposals.append(pop.agents[0].position.copy())
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
