import numpy as np
import pytest

from beetleopt import benchmarks
from beetleopt.benchmarks import BENCHMARKS, evaluate, known_optimum, penalty_u
from beetleopt.core import RandomStream

from conftest import StubStream, reserve

ALL_IDS = [f"f{i}" for i in range(1, 24)]

# Dimensions and bounds for the whole suite.
EXPECTED_DOMAINS = {
    "f1": (30, -100, 100),
    "f2": (30, -10, 10),
    "f3": (30, -100, 100),
    "f4": (30, -100, 100),
    "f5": (30, -30, 30),
    "f6": (30, -100, 100),
    "f7": (30, -1.28, 1.28),
    "f8": (30, -500, 500),
    "f9": (30, -5.12, 5.12),
    "f10": (30, -32, 32),
    "f11": (30, -600, 600),
    "f12": (30, -50, 50),
    "f13": (30, -50, 50),
    "f14": (2, -65.536, 65.536),
    "f15": (4, -5, 5),
    "f16": (2, -5, 5),
    "f17": (2, -5, 5),
    "f18": (2, -2, 2),
    "f19": (3, 1, 3),
    "f20": (6, 0, 1),
    "f21": (4, 0, 10),
    "f22": (4, 0, 10),
    "f23": (4, 0, 10),
}

NONNEGATIVE_IDS = ["f1", "f2", "f3", "f4", "f5", "f6", "f9", "f10", "f11", "f12", "f13"]


class TestRegistry:
    def test_all_ids_present(self):
        assert sorted(BENCHMARKS) == sorted(ALL_IDS)
        assert benchmarks.ids() == ALL_IDS

    @pytest.mark.parametrize("fid", ALL_IDS)
    def test_domains_match_table(self, fid):
        spec = BENCHMARKS[fid]
        dim, lower, upper = EXPECTED_DOMAINS[fid]
        assert spec.dim == dim
        assert spec.lower == lower
        assert spec.upper == upper

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            benchmarks.get("f24")


class TestPenaltyU:
    def test_inside_region_is_zero(self):
        assert penalty_u(0.0, 10, 100, 4) == 0.0
        assert penalty_u(10.0, 10, 100, 4) == 0.0
        assert penalty_u(-10.0, 10, 100, 4) == 0.0

    def test_upper_branch(self):
        assert penalty_u(11.0, 10, 100, 4) == pytest.approx(100.0)

    def test_lower_branch(self):
        assert penalty_u(-12.0, 10, 100, 4) == pytest.approx(1600.0)

    def test_vectorized(self):
        out = penalty_u(np.array([0.0, 11.0, -12.0]), 10, 100, 4)
        assert np.allclose(out, [0.0, 100.0, 1600.0])


class TestSpotValues:
    def test_f1_origin_and_ones(self):
        spec = BENCHMARKS["f1"]
        assert evaluate(spec, np.zeros(30)) == 0.0
        assert evaluate(spec, np.ones(30)) == pytest.approx(30.0)

    def test_f8_at_schwefel_argmin(self):
        spec = BENCHMARKS["f8"]
        value = evaluate(spec, np.full(30, 420.9687))
        assert value == pytest.approx(-12569.5, abs=0.5)

    def test_f10_origin(self):
        assert evaluate(BENCHMARKS["f10"], np.zeros(30)) == pytest.approx(0.0, abs=1e-12)

    def test_f11_origin(self):
        assert evaluate(BENCHMARKS["f11"], np.zeros(30)) == 0.0

    def test_f18_known_point(self):
        assert evaluate(BENCHMARKS["f18"], np.array([0.0, -1.0])) == pytest.approx(3.0)

    def test_f6_flat_cell(self):
        assert evaluate(BENCHMARKS["f6"], np.full(30, 0.49)) == 0.0


class TestKnownOptima:
    def test_zero_targets(self):
        for fid in ["f1", "f2", "f3", "f4", "f5", "f6", "f7", "f9", "f10", "f11", "f12", "f13"]:
            assert known_optimum(fid) == 0.0

    def test_reported_values_are_close(self):
        # Rounded values commonly quoted for the suite sit within coarse
        # tolerance of the stored sharp targets.
        assert known_optimum("f8") == pytest.approx(-12569.5, abs=0.5)
        assert known_optimum("f14") == pytest.approx(0.998, abs=1e-3)
        assert known_optimum("f15") == pytest.approx(0.0003075, abs=1e-5)
        assert known_optimum("f16") == pytest.approx(-1.0316, abs=1e-3)
        assert known_optimum("f17") == pytest.approx(0.398, abs=1e-3)
        assert known_optimum("f18") == 3.0
        assert known_optimum("f19") == pytest.approx(-3.86, abs=5e-3)
        assert known_optimum("f20") == pytest.approx(-3.32, abs=5e-3)
        assert known_optimum("f21") == pytest.approx(-10.1532, abs=1e-3)
        assert known_optimum("f22") == pytest.approx(-10.4029, abs=1e-3)
        assert known_optimum("f23") == pytest.approx(-10.5364, abs=1e-3)

    @pytest.mark.parametrize("fid", [f for f in ALL_IDS if f != "f7"])
    def test_evaluator_hits_target_at_argmin(self, fid):
        spec = BENCHMARKS[fid]
        value = spec.evaluator(spec.argmin_array())
        tolerance = 0.5 if fid == "f8" else 1e-3
        assert value == pytest.approx(spec.known_optimum, abs=tolerance)

    def test_f7_argmin_value_is_noise_only(self):
        spec = BENCHMARKS["f7"]
        value = evaluate(spec, spec.argmin_array(), StubStream([0.25]))
        assert value == pytest.approx(0.25)


class TestEvaluatorContracts:
    @pytest.mark.parametrize("fid", ALL_IDS)
    def test_wrong_dimension_rejected(self, fid):
        spec = BENCHMARKS[fid]
        with pytest.raises(ValueError):
            evaluate(spec, np.zeros(spec.dim + 1), RandomStream(0))

    def test_f7_needs_stream(self):
        with pytest.raises(ValueError):
            evaluate(BENCHMARKS["f7"], np.zeros(30))

    def test_f7_noise_is_deterministic_per_stream(self):
        spec = BENCHMARKS["f7"]
        x = np.full(30, 0.3)
        a = evaluate(spec, x, RandomStream(77))
        b = evaluate(spec, x, RandomStream(77))
        assert a == b
        base = benchmarks.quartic(x)
        assert base <= a < base + 1.0

    @pytest.mark.parametrize("fid", [f for f in ALL_IDS if f != "f7"])
    def test_pure_given_position(self, fid):
        spec = BENCHMARKS[fid]
        rng = np.random.default_rng(3)
        x = spec.lower + rng.random(spec.dim) * (spec.upper - spec.lower)
        assert evaluate(spec, x) == evaluate(spec, x)

    @pytest.mark.parametrize("fid", NONNEGATIVE_IDS)
    def test_nonnegative_in_bounds(self, fid):
        spec = BENCHMARKS[fid]
        rng = np.random.default_rng(17)
        samples = spec.lower + rng.random((10_000, spec.dim)) * (spec.upper - spec.lower)
        for x in samples:
            assert spec.evaluator(x) >= 0.0

    @pytest.mark.parametrize("fid", ALL_IDS)
    def test_finite_in_bounds(self, fid):
        spec = BENCHMARKS[fid]
        rng = np.random.default_rng(23)
        samples = spec.lower + rng.random((200, spec.dim)) * (spec.upper - spec.lower)
        for x in samples:
            assert np.isfinite(spec.evaluator(x))


def _bits(value):
    return np.float64(value).view(np.uint64)


class TestBoundEvaluator:
    @pytest.mark.parametrize("fid", ALL_IDS)
    def test_matches_evaluate_bit_for_bit(self, fid):
        spec = BENCHMARKS[fid]
        bound_stream, plain_stream = RandomStream(19), RandomStream(19)
        bound = spec.bind(bound_stream)
        rng = np.random.default_rng(int(fid[1:]))
        for x in spec.lower + rng.random((200, spec.dim)) * (spec.upper - spec.lower):
            got = bound(x)
            assert type(got) is float
            assert _bits(got) == _bits(spec.evaluate(x, plain_stream))
        # f7 drew once per call from each stream; the others never drew
        assert bound_stream.uniform() == plain_stream.uniform()
        assert bound.n == 200

    @pytest.mark.parametrize("fid", ["f1", "f7", "f14", "f21"])
    def test_wrong_shape_rejected_and_not_counted(self, fid):
        spec = BENCHMARKS[fid]
        bound = spec.bind(RandomStream(0))
        for bad in (np.zeros(spec.dim + 1), np.zeros((1, spec.dim)), np.zeros(())):
            with pytest.raises(ValueError, match=fid):
                bound(bad)
        assert bound.n == 0

    def test_counts_every_call(self):
        bound = BENCHMARKS["f16"].bind(RandomStream(0))
        x = np.array([0.5, -0.25])
        for expected in range(1, 8):
            bound(x)
            assert bound.n == expected

    def test_noise_comes_from_the_bound_stream(self):
        x = np.full(30, 0.3)
        stub = StubStream([0.25, 0.5])
        bound = BENCHMARKS["f7"].bind(stub)
        assert bound(x) == benchmarks.quartic(x) + 0.25
        assert bound(x) == benchmarks.quartic(x) + 0.5

    def test_noisy_function_needs_a_stream(self):
        with pytest.raises(ValueError, match="f7"):
            BENCHMARKS["f7"].bind(None)
        assert BENCHMARKS["f1"].bind(None)(np.zeros(30)) == 0.0


# The expressions the hoisted objectives replaced, constants rebuilt per call.
def _quartic_reference(z):
    i = np.arange(1, z.size + 1)
    return float(np.add.reduce(i * z ** 4))


def _griewank_reference(z):
    i = np.arange(1, z.size + 1)
    return float(np.add.reduce(z * z) / 4000.0 - np.multiply.reduce(np.cos(z / np.sqrt(i))) + 1.0)


def _foxholes_reference(z):
    a = benchmarks._FOXHOLES_A
    sixth = (z[0] - a[0]) ** 6 + (z[1] - a[1]) ** 6
    return float(1.0 / (1.0 / 500.0 + np.add.reduce(1.0 / (np.arange(1, 26) + sixth))))


def _kowalik_reference(z):
    b = benchmarks._KOWALIK_B
    model = z[0] * (b ** 2 + b * z[1]) / (b ** 2 + b * z[2] + z[3])
    return float(np.add.reduce((benchmarks._KOWALIK_A - model) ** 2))


def _shekel_reference(m):
    def shekel(z):
        diff = z - benchmarks._SHEKEL_A[:m]
        return float(-np.add.reduce(1.0 / (np.add.reduce(diff * diff, axis=1) + benchmarks._SHEKEL_C[:m])))

    return shekel


HOISTED = {
    "f7": _quartic_reference,
    "f11": _griewank_reference,
    "f14": _foxholes_reference,
    "f15": _kowalik_reference,
    "f21": _shekel_reference(5),
    "f22": _shekel_reference(7),
    "f23": _shekel_reference(10),
}


class TestHoistedConstants:
    @pytest.mark.parametrize("fid", sorted(HOISTED))
    def test_matches_the_per_call_expression(self, fid):
        spec = BENCHMARKS[fid]
        rng = np.random.default_rng(int(fid[1:]) + 100)
        points = spec.lower + rng.random((3000, spec.dim)) * (spec.upper - spec.lower)
        for x in [*points, spec.argmin_array(), np.zeros(spec.dim)]:
            assert _bits(spec.evaluator(x)) == _bits(HOISTED[fid](x))

    @pytest.mark.parametrize("evaluator, reference", [
        (benchmarks.quartic, _quartic_reference),
        (benchmarks.griewank, _griewank_reference),
    ])
    def test_other_lengths_rebuild_the_constants(self, evaluator, reference):
        rng = np.random.default_rng(5)
        for dim in (1, 2, 10, 29, 31):
            for x in rng.uniform(-5.0, 5.0, (50, dim)):
                assert _bits(evaluator(x)) == _bits(reference(x))


class TestCachedSpace:
    @pytest.mark.parametrize("fid", ALL_IDS)
    def test_one_read_only_space_per_spec(self, fid):
        spec = BENCHMARKS[fid]
        space = spec.space()
        assert spec.space() is space
        dim, lower, upper = EXPECTED_DOMAINS[fid]
        assert space.dim == dim
        assert np.array_equal(space.lower, np.full(dim, float(lower)))
        assert np.array_equal(space.upper, np.full(dim, float(upper)))
        with pytest.raises(ValueError):
            space.lower[0] = 0.0
        with pytest.raises(ValueError):
            space.upper[...] = 1.0

    def test_cache_takes_no_part_in_equality(self):
        spec = BENCHMARKS["f16"]
        spec.space()
        fresh = benchmarks.BenchmarkSpec(
            spec.id, spec.dim, spec.lower, spec.upper, spec.known_optimum, spec.evaluator, spec.argmin
        )
        assert fresh == spec and hash(fresh) == hash(spec)


def _penalized_1_reference(z):
    d = z.size
    y = 1.0 + (z + 1.0) / 4.0
    core = 10.0 * np.sin(np.pi * y[0]) ** 2
    core += np.add.reduce((y[:-1] - 1.0) ** 2 * (1.0 + 10.0 * np.sin(np.pi * y[1:]) ** 2))
    core += (y[-1] - 1.0) ** 2
    return float(np.pi / d * core + np.add.reduce(penalty_u(z, 10.0, 100.0, 4.0)))


def _penalized_2_reference(z):
    core = np.sin(3.0 * np.pi * z[0]) ** 2
    core += np.add.reduce((z[:-1] - 1.0) ** 2 * (1.0 + np.sin(3.0 * np.pi * z[1:]) ** 2))
    core += (z[-1] - 1.0) ** 2 * (1.0 + np.sin(2.0 * np.pi * z[-1]) ** 2)
    return float(0.1 * core + np.add.reduce(penalty_u(z, 5.0, 100.0, 4.0)))


def _edge_vectors(a, dim=30):
    """Vectors holding the penalty's edge inputs: the bounds, signed zeros,
    the neighbours of the bounds, infinities and NaN."""
    edges = [a, -a, 0.0, -0.0, np.nextafter(a, np.inf), np.nextafter(-a, -np.inf),
             np.nextafter(a, 0.0), np.nextafter(-a, 0.0), np.inf, -np.inf, np.nan]
    vectors = [np.full(dim, value) for value in edges]
    vectors.append(np.resize(np.array(edges), dim))
    return vectors


class TestPenaltyOvershoot:
    @pytest.mark.parametrize("fid, a, reference", [
        ("f12", 10.0, _penalized_1_reference),
        ("f13", 5.0, _penalized_2_reference),
    ])
    def test_penalized_functions_match_the_penalty_u_expression(self, fid, a, reference):
        spec = BENCHMARKS[fid]
        rng = np.random.default_rng(int(fid[1:]) + 200)
        points = spec.lower + rng.random((3000, spec.dim)) * (spec.upper - spec.lower)
        with np.errstate(invalid="ignore", over="ignore"):  # the infinite and NaN edges
            for x in [*points, *_edge_vectors(a), spec.argmin_array()]:
                assert _bits(spec.evaluator(x)) == _bits(reference(x))

    @pytest.mark.parametrize("a", [10.0, 5.0])
    def test_overshoot_matches_the_penalty_u_expression(self, a):
        rng = np.random.default_rng(7)
        for z in [*rng.uniform(-50.0, 50.0, (3000, 30)), *_edge_vectors(a)]:
            old = np.where(z > a, z - a, np.where(z < -a, -z - a, 0.0))
            assert benchmarks._overshoot(z, a).tobytes() == old.tobytes()


def _block_cases(fid):
    """Rows for the block tests: random in-box points, the argmin, signed
    zeros, the box's corners and (f12, f13) the penalty's edge vectors."""
    spec = BENCHMARKS[fid]
    rng = np.random.default_rng(int(fid[1:]) + 500)
    rows = [*(spec.lower + rng.random((420, spec.dim)) * (spec.upper - spec.lower))]
    rows += [spec.argmin_array(), np.zeros(spec.dim), np.full(spec.dim, -0.0)]
    rows += [np.full(spec.dim, float(spec.lower)), np.full(spec.dim, float(spec.upper))]
    if fid in ("f12", "f13"):
        rows += _edge_vectors(10.0 if fid == "f12" else 5.0)
    return np.array(rows)


class TestBlocks:
    """A bound evaluator's block call gives each row the bits of the
    one-vector call, counts every row and takes f7's draws in row order."""

    @pytest.mark.parametrize("fid", ALL_IDS)
    @pytest.mark.parametrize("k", [1, 2, 7, 30])
    def test_each_row_gets_the_bits_of_its_own_call(self, fid, k):
        spec = BENCHMARKS[fid]
        rows = _block_cases(fid)
        block_stream, row_stream = RandomStream(31), RandomStream(31)
        bound, single = spec.bind(block_stream), spec.bind(row_stream)
        with np.errstate(invalid="ignore", over="ignore"):  # the infinite and NaN edges
            for start in range(0, len(rows) - k + 1, k):
                block = np.ascontiguousarray(rows[start : start + k])
                got = bound.block(block)
                assert [type(v) for v in got] == [float] * k
                assert [_bits(v) for v in got] == [_bits(single(x)) for x in block]
        assert bound.n == single.n == len(rows) // k * k
        assert block_stream.uniform() == row_stream.uniform()

    def test_f7_block_takes_one_draw_per_row_in_row_order(self):
        rows = _block_cases("f7")[:9]
        block_stream, row_stream = RandomStream(8), RandomStream(8)
        got = BENCHMARKS["f7"].bind(block_stream).block(rows)
        assert got == [BENCHMARKS["f7"].evaluate(x, row_stream) for x in rows]
        assert block_stream.uniform() == row_stream.uniform()

    def test_a_held_stream_gives_each_row_its_own_noise_slot(self):
        # inside a reservation each row's draw takes its own noise slot
        rows = _block_cases("f7")[:3]
        block_stream, row_stream = RandomStream(5), RandomStream(5)
        bound, single = BENCHMARKS["f7"].bind(block_stream), BENCHMARKS["f7"].bind(row_stream)
        for stream in (block_stream, row_stream):
            reserve(stream, len(rows), (2,), gap=1)
        assert bound.block(rows) == [single(x) for x in rows]
        block_stream.settle()
        row_stream.settle()

    def test_owners_count_their_rows_and_draw_from_their_streams(self):
        rows = _block_cases("f7")[:4]
        streams = [RandomStream(1), RandomStream(2)]
        first, second = (BENCHMARKS["f7"].bind(s) for s in streams)
        got = first.block(rows, [first, second, second, first])
        replay = [RandomStream(1), RandomStream(2)]
        expected = [BENCHMARKS["f7"].evaluate(x, replay[r]) for x, r in zip(rows[[0, 1, 2, 3]], [0, 1, 1, 0])]
        assert got == expected
        assert (first.n, second.n) == (2, 2)

    @pytest.mark.parametrize("fid", ["f1", "f12", "f16", "f21"])
    def test_transposed_and_fortran_blocks_are_refused(self, fid):
        spec = BENCHMARKS[fid]
        rows = _block_cases(fid)[:5]
        bound = spec.bind(RandomStream(0))
        for bad in (np.asfortranarray(rows), np.ascontiguousarray(rows.T).T, rows[:, ::-1], rows[::2]):
            assert bad.shape[1] == spec.dim
            with pytest.raises(ValueError, match="C-contiguous"):
                bound.block(bad)
        for bad in (rows[0], rows[:, :-1], rows[None]):
            with pytest.raises(ValueError, match=fid):
                bound.block(bad)
        assert bound.n == 0

    def test_square_rule_matches_the_float64_scalar_power(self):
        # array ``**`` may round differently from the scalar power the
        # one-coordinate terms of f12 and f13 have always used
        values = np.random.default_rng(2).uniform(-50.0, 50.0, 50_000)
        expected = np.array([np.float64(v) ** 2 for v in values])
        assert benchmarks._square(values).tobytes() == expected.tobytes()
        with np.errstate(over="ignore"):
            edges = np.array([1e200, -1e200, np.inf, -np.inf, np.nan, -0.0])
            expected = np.array([np.float64(v) ** 2 for v in edges])
        assert benchmarks._square(edges).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("fid", ["f16", "f17", "f18"])
    def test_coordinate_formulas_overflow_as_float64_scalars_do(self, fid):
        spec = BENCHMARKS[fid]
        formula = spec.evaluator.block.__wrapped__  # the formula over the coordinates
        rows = np.array([[1e200, 1.0], [0.5, -0.5], [1.0, -1e200]])
        with np.errstate(over="ignore", invalid="ignore"):
            # float64 scalars, as the one-vector form has always unpacked them
            expected = [_bits(formula(*map(np.float64, row))) for row in rows]
            assert [_bits(spec.evaluator(x)) for x in rows] == expected
            assert [_bits(v) for v in spec.bind(None).block(rows)] == expected


def test_a_spec_without_a_block_form_is_bound_row_by_row():
    calls = []

    def evaluator(x):
        calls.append(x.shape)
        return float(np.add.reduce(x * x))

    spec = benchmarks.BenchmarkSpec("sq", 3, -1.0, 1.0, 0.0, evaluator, (0.0, 0.0, 0.0))
    bound = spec.bind(RandomStream(0))
    rows = np.arange(12.0).reshape(4, 3)
    assert bound.block(rows) == [evaluator(x) for x in rows]
    assert bound(rows[1]) == evaluator(rows[1]) and bound.n == 5
    assert set(calls) == {(3,)}
