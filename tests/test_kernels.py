import math

import numpy as np
import pytest

from beetleopt import kernels
from beetleopt.core import ConfigurationError, SearchSpace
from beetleopt.kernels import (
    CHAOS_DOMAIN_GUARD,
    CHAOS_MAPS,
    ChaosState,
    CirclePair,
    chaos_next,
    circle_intersection_area,
    escape_step,
    lift_magnitude,
    make_chaos,
    spray,
)


def monte_carlo_lens(radius_a, radius_b, distance, samples, rng):
    """Independent oracle: rejection sampling over the lens bounding box."""
    lo_x, hi_x = max(-radius_a, distance - radius_b), min(radius_a, distance + radius_b)
    lo_y, hi_y = -min(radius_a, radius_b), min(radius_a, radius_b)
    if lo_x >= hi_x or lo_y >= hi_y:
        return 0.0
    xs = rng.uniform(lo_x, hi_x, samples)
    ys = rng.uniform(lo_y, hi_y, samples)
    inside = (xs**2 + ys**2 <= radius_a**2) & ((xs - distance) ** 2 + ys**2 <= radius_b**2)
    return float(inside.mean() * (hi_x - lo_x) * (hi_y - lo_y))


class TestCircleIntersectionArea:
    def test_disjoint_is_zero(self):
        assert circle_intersection_area(CirclePair(1.0, 1.0, 3.0)) == 0.0
        assert circle_intersection_area(CirclePair(1.0, 1.0, 2.0)) == 0.0

    def test_containment_is_smaller_disk(self):
        area = circle_intersection_area(CirclePair(1.0, 0.5, 0.0))
        assert area == pytest.approx(math.pi * 0.25)
        assert circle_intersection_area(CirclePair(0.5, 1.0, 0.3)) == pytest.approx(math.pi * 0.25)

    def test_unit_lens_matches_oracle(self):
        # Frozen from the Monte-Carlo derivation run: equal unit circles one
        # radius apart share about 1.2284.
        area = circle_intersection_area(CirclePair(1.0, 1.0, 1.0))
        assert area == pytest.approx(1.228369698608757, abs=1e-12)
        mc = monte_carlo_lens(1.0, 1.0, 1.0, 2_000_000, np.random.default_rng(1))
        assert area == pytest.approx(mc, abs=5e-3)

    def test_against_monte_carlo_sample(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            radius_a, radius_b, distance = rng.random(3)
            exact = circle_intersection_area(CirclePair(radius_a, radius_b, distance))
            approx = monte_carlo_lens(radius_a, radius_b, distance, 200_000, rng)
            assert exact == pytest.approx(approx, abs=2e-2)

    def test_symmetry(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            radius_a, radius_b, distance = rng.random(3)
            ab = circle_intersection_area(CirclePair(radius_a, radius_b, distance))
            ba = circle_intersection_area(CirclePair(radius_b, radius_a, distance))
            assert ab == pytest.approx(ba, abs=1e-12)

    def test_boundary_continuity(self):
        for radius_a, radius_b in [(0.8, 0.3), (0.5, 0.5), (1.0, 0.2), (0.9, 0.75)]:
            for pivot in (radius_a + radius_b, abs(radius_a - radius_b)):
                below = circle_intersection_area(
                    CirclePair(radius_a, radius_b, max(0.0, pivot - 1e-9))
                )
                above = circle_intersection_area(CirclePair(radius_a, radius_b, pivot + 1e-9))
                assert abs(above - below) < 1e-6

    def test_result_bounded_by_smaller_disk(self):
        rng = np.random.default_rng(29)
        for _ in range(500):
            radius_a, radius_b, distance = rng.random(3)
            area = circle_intersection_area(CirclePair(radius_a, radius_b, distance))
            assert 0.0 <= area <= math.pi * min(radius_a, radius_b) ** 2 + 1e-12

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            CirclePair(-0.1, 1.0, 0.5)
        with pytest.raises(ValueError):
            CirclePair(1.0, 1.0, math.inf)


def scalar_lens_area(big, small, d):
    """The lens formula in Python floats, one pair at a time."""
    if d >= big + small:
        return 0.0
    if d <= abs(big - small):
        return math.pi * min(big, small) ** 2
    cos_b = (d * d + small * small - big * big) / (2.0 * d * small)
    cos_a = (d * d + big * big - small * small) / (2.0 * d * big)
    cos_b = max(-1.0, min(1.0, cos_b))
    cos_a = max(-1.0, min(1.0, cos_a))
    root = max(0.0, (-d + small + big) * (d + small - big) * (d - small + big) * (d + small + big))
    return small * small * math.acos(cos_b) + big * big * math.acos(cos_a) - 0.5 * math.sqrt(root)


class TestArrayKernels:
    """The array kernels bbo computes its per-agent terms with give every
    element the bits of the scalar formula in Python floats."""

    def test_lens_areas_equal_the_scalar_formula(self):
        rng = np.random.default_rng(17)
        # bbo's [0, 1) draws, then circle pairs of other scales
        triples = rng.random((300_000, 3))
        triples[200_000:] *= rng.uniform(0.0, 4.0, size=(100_000, 3))
        big, small = rng.random(2000), rng.random(2000)
        edges = [
            # disjoint and tangent from outside, containment and tangent
            # from inside, a point circle, concentric and equal circles
            *zip(big, small, big + small),
            *zip(big, small, np.abs(big - small)),
            *zip(big, small, np.nextafter(big + small, 0.0)),
            *zip(big, small, np.nextafter(np.abs(big - small), 1.0)),
            (0.0, 0.5, 0.2), (0.5, 0.0, 0.7), (0.0, 0.0, 0.0), (0.3, 0.8, 0.0),
            (0.6, 0.6, 0.0), (0.6, 0.6, 1.2), (0.6, 0.6, 0.6), (1.0, 1.0, 1.0),
            (0.0, 0.0, -0.0), (-0.0, 0.4, 0.1),
        ]
        triples = np.concatenate([triples, np.array(edges)])
        want = np.array([scalar_lens_area(*t) for t in triples.tolist()])
        got = kernels.lens_areas(triples[:, 0:1], triples[:, 1:2], triples[:, 2:3])
        assert got.shape == (len(triples), 1)
        assert got.ravel().tobytes() == want.tobytes()
        # scalars, and the checked public kernel, take the same path
        for t in edges:
            assert float(kernels.lens_areas(*t)).hex() == scalar_lens_area(*t).hex()
            assert circle_intersection_area(CirclePair(*t)).hex() == scalar_lens_area(*t).hex()

    def test_lifts_and_sprays_equal_the_scalar_formulas(self):
        rng = np.random.default_rng(19)
        draws = rng.random((300_000, 4))
        want = [c * 0.5 * rho * v**2 * a for c, rho, v, a in draws.tolist()]
        got = lift_magnitude(*(draws[:, k : k + 1] for k in range(4)))
        assert got.ravel().tobytes() == np.array(want).tobytes()
        chaos = np.concatenate([rng.uniform(-1.0, 1.0, 100_000), [0.0, -0.0, 1e-30, -1e-30]])
        for growth in (1.0, kernels.spray_growth(3, 7), kernels.spray_growth(1000, 1000)):
            want = [max(abs(c) * growth, kernels.SPRAY_FLOOR) for c in chaos.tolist()]
            assert kernels.spray_divisor(chaos, growth).tobytes() == np.array(want).tobytes()


# Iterate sequences frozen from direct evaluation of the adopted formulas,
# five steps from x0 = 0.7.
CHAOS_FIXTURES = {
    "sinusoidal": [0.9117621526605656, 0.5232620861415614, 0.6280664915203407],
    "chebyshev": [-0.9992, 0.9872255836192766, 0.8020702722275642],
    "circle": [0.9756826728640656, 0.18779408455543156, 0.3142179422439611],
    "singer": [0.7996427923750015, 0.6861594164388876, 0.8105473695693841],
    "gauss-mouse": [0.4285714285714286, 0.33333333333333304],
    "tent": [0.999999999999, 3.333259594266262e-12],
    "iterative": [1e-12, 0.00020182614826151353, 0.8632291941895092],
}


class TestChaosMaps:
    @pytest.mark.parametrize("map_id", sorted(CHAOS_MAPS))
    def test_fixture_sequence(self, map_id):
        state = make_chaos(map_id, 0.7)
        for expected in CHAOS_FIXTURES[map_id]:
            state = chaos_next(state)
            assert state.value == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_tent_spot_value(self):
        state = chaos_next(make_chaos("tent", 0.3))
        assert state.value == pytest.approx(0.3 / 0.7)

    def test_tent_boundary_maps_into_open_interval(self):
        state = chaos_next(make_chaos("tent", 0.7))
        assert 0.0 < state.value < 1.0

    def test_sinusoidal_spot_value(self):
        state = chaos_next(make_chaos("sinusoidal", 0.5))
        assert state.value == pytest.approx(0.575)

    def test_step_counter_advances(self):
        state = make_chaos("tent", 0.4)
        assert state.steps == 0
        assert chaos_next(chaos_next(state)).steps == 2

    def test_unknown_map_rejected(self):
        with pytest.raises(ConfigurationError):
            make_chaos("logistic", 0.5)
        with pytest.raises(ConfigurationError):
            chaos_next(ChaosState("nope", 0.5))

    @pytest.mark.parametrize("map_id", sorted(CHAOS_MAPS))
    def test_domain_invariant_long_runs(self, map_id):
        # 50 seeded trajectories advanced together through the same map
        # formula the scalar path uses.
        fn, guard, (low, high) = CHAOS_MAPS[map_id]
        values = np.random.default_rng(101).random(50)
        values = guard(values)
        for _ in range(100_000):
            values = guard(fn(values))
            assert np.all(values >= low) and np.all(values <= high)

    @pytest.mark.parametrize("map_id", sorted(CHAOS_MAPS))
    def test_scalar_path_matches_vector_path(self, map_id):
        fn, guard, _ = CHAOS_MAPS[map_id]
        state = make_chaos(map_id, 0.37)
        value = np.array([0.37])
        value = guard(value)
        for _ in range(50):
            state = chaos_next(state)
            value = guard(fn(value))
            assert state.value == value[0]


class TestSpray:
    def test_zero_exponent_limit(self):
        assert spray(0.5, 1, 10**9) == pytest.approx(0.5, abs=1e-6)

    def test_full_growth(self):
        # Oracle: exp(100 * ln 2.7) = 1.3689147905858927e+43.
        assert spray(1.0, 1000, 1000) == pytest.approx(math.exp(100 * math.log(2.7)), rel=1e-12)
        assert spray(1.0, 1000, 1000) == pytest.approx(1.3689147905858927e43, rel=1e-10)

    def test_half_growth(self):
        assert spray(1.0, 500, 1000) == pytest.approx(math.exp(50 * math.log(2.7)), rel=1e-12)
        assert spray(1.0, 500, 1000) == pytest.approx(3.6998848503512847e21, rel=1e-10)

    def test_floor_applies_to_tiny_chaos(self):
        assert spray(0.0, 1, 1000) == kernels.SPRAY_FLOOR
        assert spray(1e-30, 1, 1000) == kernels.SPRAY_FLOOR

    def test_negative_chaos_gives_positive_magnitude(self):
        assert spray(-0.5, 500, 1000) == spray(0.5, 500, 1000)

    def test_strictly_increasing_in_iteration(self):
        values = [spray(0.3, t, 100) for t in range(1, 101)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_counter_validation(self):
        with pytest.raises(ConfigurationError):
            spray(0.5, 1, 0)
        with pytest.raises(ConfigurationError):
            spray(0.5, 0, 10)
        with pytest.raises(ConfigurationError):
            spray(0.5, 11, 10)


class TestLift:
    def test_zero_velocity(self):
        assert lift_magnitude(1.0, 1.0, 0.0, 1.0) == 0.0

    def test_direct_substitution(self):
        assert lift_magnitude(1.0, 1.0, 2.0, 1.0) == pytest.approx(2.0)
        assert lift_magnitude(0.5, 0.5, 1.0, 1.0) == pytest.approx(0.125)

    def test_nonnegative(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            c, d, v, a = rng.random(4)
            assert lift_magnitude(c, d, v, a) >= 0.0


class TestEscapeStep:
    def space(self):
        return SearchSpace.cube(3, -100.0, 100.0)

    def test_zero_lift(self):
        assert np.array_equal(escape_step(0.0, self.space(), 1), np.zeros(3))

    def test_first_iteration_full_width(self):
        assert np.allclose(escape_step(1.0, self.space(), 1), 200.0)

    def test_late_iteration_shrinks(self):
        assert np.allclose(escape_step(1.0, self.space(), 1000), 0.2)

    def test_strictly_decreasing_in_iteration(self):
        space = self.space()
        sizes = [escape_step(0.7, space, t)[0] for t in range(1, 200)]
        assert all(b < a for a, b in zip(sizes, sizes[1:]))

    def test_iteration_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            escape_step(1.0, self.space(), 0)


class TestTentStep:
    @staticmethod
    def _reference(x):
        return float(kernels.guard_unit(kernels.tent_map(np.float64(x))))

    def test_matches_guarded_array_map_bit_for_bit(self):
        rng = np.random.default_rng(8)
        edges = [
            0.7,
            np.nextafter(0.7, 0.0),
            np.nextafter(0.7, 1.0),
            CHAOS_DOMAIN_GUARD,
            1.0 - CHAOS_DOMAIN_GUARD,
            0.0,
            -0.0,
            1.0,
            # iterates that land next to and on the guards
            CHAOS_DOMAIN_GUARD * 0.7,
            1.0 - CHAOS_DOMAIN_GUARD * 0.3,
            0.7 * (1.0 - CHAOS_DOMAIN_GUARD),
        ]
        inputs = [*rng.random(100_000).tolist(), *edges, -0.5, 1.5, math.inf, -math.inf]
        for x in inputs:
            got, want = np.float64(kernels.tent_step(float(x))), np.float64(self._reference(x))
            assert got.view(np.uint64) == want.view(np.uint64), x

    def test_nan_passes_through_like_the_array_map(self):
        assert math.isnan(kernels.tent_step(math.nan))
        assert math.isnan(self._reference(math.nan))

    def test_advance_chaos_takes_the_scalar_step(self):
        assert chaos_next(make_chaos("tent", 0.7)).value == 1.0 - CHAOS_DOMAIN_GUARD


class TestScalarChaosSteps:
    """Every map's scalar step against ``guard(fn(np.float64(x)))``."""

    EDGES = [
        0.0, -0.0, 1.0, -1.0, 0.5, 0.7, 0.25, 0.75,
        CHAOS_DOMAIN_GUARD, -CHAOS_DOMAIN_GUARD, 1.0 - CHAOS_DOMAIN_GUARD,
        CHAOS_DOMAIN_GUARD * 0.5, -CHAOS_DOMAIN_GUARD * 0.5,
        np.nextafter(CHAOS_DOMAIN_GUARD, 0.0), np.nextafter(1.0 - CHAOS_DOMAIN_GUARD, 1.0),
        5e-324, -5e-324, 2.2e-308, 1.5, -1.5, 1e300, -1e300,
        math.inf, -math.inf, math.nan, -math.nan,
    ]

    @pytest.mark.parametrize("map_id", sorted(kernels.CHAOS_MAPS))
    def test_bits_match_the_guarded_array_map(self, map_id):
        fn, guard, (low, high) = kernels.CHAOS_MAPS[map_id]
        step = kernels.chaos_step(map_id)
        rng = np.random.default_rng(len(map_id))
        inputs = [*rng.uniform(low, high, 100_000).tolist(), *rng.uniform(-3.0, 3.0, 1000).tolist(), *self.EDGES]
        with np.errstate(all="ignore"):
            for x in inputs:
                got = step(float(x))
                want = guard(fn(np.float64(x)))
                assert type(got) is float
                assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64), x

    @pytest.mark.parametrize("map_id", sorted(kernels.CHAOS_MAPS))
    def test_every_map_dispatches_through_the_table(self, map_id):
        fn, _ = kernels.chaos_map(map_id)
        step = kernels.chaos_step(map_id)
        assert kernels.SCALAR_STEPS[fn] is step
        state = make_chaos(map_id, 0.37)
        for _ in range(20):
            following = chaos_next(state)
            assert following.value == step(state.value)
            state = following

    def test_table_covers_every_map(self):
        assert set(kernels.SCALAR_STEPS) == {fn for fn, _, _ in kernels.CHAOS_MAPS.values()}

    def test_unknown_map_rejected(self):
        with pytest.raises(ConfigurationError):
            kernels.chaos_step("logistic")
