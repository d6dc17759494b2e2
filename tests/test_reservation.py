"""One stream reservation per iteration: the block's layout, the noise slots
handed to the objective, the measured gap and the generator calls a run
makes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beetleopt as bo
from beetleopt.benchmarks import BENCHMARKS
from beetleopt.baselines import PSO
from beetleopt.core import CallEvaluator, ContractViolation, RandomStream, RunConfig

from conftest import EvaluateOnly, reserve

# A draw taken outside a reservation: a scalar (None) or a block of that size.
outside_draws = st.lists(st.one_of(st.none(), st.integers(0, 4)), max_size=4)


def _flat(value):
    return [value] if isinstance(value, float) else list(value)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    before=outside_draws,
    rows=st.integers(1, 6),
    widths=st.lists(st.integers(0, 5), min_size=1, max_size=3),
    lead=st.integers(0, 5),
    gap=st.sampled_from([0, 1, 2]),
    noise_as_block=st.booleans(),
    after=outside_draws,
)
def test_reservation_consumes_the_scalar_draw_sequence(
    seed, before, rows, widths, lead, gap, noise_as_block, after
):
    stream = RandomStream(seed)
    seen = []
    for size in before:
        seen += _flat(stream.uniform(size=size))
    parts = reserve(stream, rows, widths, lead, gap=gap)
    if lead:
        seen += list(parts.pop(0))
    assert [part.shape for part in parts] == [(rows, width) for width in widths]
    for row in range(rows):
        for part in parts:
            seen += list(part[row])
            # the objective's own draws after each segment's evaluation
            if noise_as_block:
                seen += list(stream.uniform(size=gap))
            else:
                seen += [stream.uniform() for _ in range(gap)]
    stream.settle()
    for size in after:
        seen += _flat(stream.uniform(size=size))

    reference = RandomStream(seed)
    assert seen == [reference.uniform() for _ in seen]


@pytest.mark.parametrize("gap", [0, 1, 2])
def test_a_draw_beyond_the_noise_slots_raises(gap):
    stream = RandomStream(4)
    reserve(stream, 2, (3,), gap=gap)
    last = RandomStream(4).uniform(size=2 * (3 + gap))[-1]
    for _ in range(2 * gap - 1):
        stream.uniform()
    drawn = stream.draws
    # a refused draw takes nothing: the last slot is still the next one
    with pytest.raises(ContractViolation):
        stream.uniform(size=2)
    assert stream.draws == drawn
    if gap:
        assert stream.uniform() == last
    with pytest.raises(ContractViolation):
        stream.uniform()
    assert stream.draws == drawn + (1 if gap else 0)
    stream.settle()


@pytest.mark.parametrize("gap", [1, 2])
def test_unused_noise_slots_raise_on_settle(gap):
    stream = RandomStream(4)
    reserve(stream, 3, (1, 2), gap=gap)
    for _ in range(6 * gap - 1):
        stream.uniform()
    with pytest.raises(ContractViolation):
        stream.settle()


def test_reservations_do_not_nest_and_settle_needs_one():
    stream = RandomStream(4)
    with pytest.raises(ContractViolation):
        stream.settle()
    reserve(stream, 1, (2,))
    with pytest.raises(ContractViolation):
        reserve(stream, 1, (2,))
    stream.settle()
    reserve(stream, 1, (2,))
    stream.settle()


def _held(seed, rows, widths):
    """A stream with a reservation of one noise slot per evaluation open,
    and f7 bound to it."""
    stream = RandomStream(seed)
    evaluator = BENCHMARKS["f7"].bind(stream)
    parts = reserve(stream, rows, widths, gap=1)
    return stream, evaluator, parts


def test_peeking_past_the_noise_slots_raises():
    stream, _, _ = _held(4, 3, (2,))
    assert stream.peek(3).shape == (3,)
    with pytest.raises(ContractViolation):
        stream.peek(4)
    stream.take(2)
    slot, drawn = stream.peek(1).tolist(), stream.draws
    with pytest.raises(ContractViolation):
        stream.peek(2)
    with pytest.raises(ContractViolation):
        stream.take(2)
    # a refused peek or take takes nothing
    assert stream.peek(1).tolist() == slot and stream.draws == drawn
    stream.take(1)
    stream.settle()
    with pytest.raises(ContractViolation):
        stream.peek(1)


def test_taking_slots_then_settling_is_exact():
    stream, evaluator, (block,) = _held(7, 3, (2,))
    slots = stream.peek(3)
    assert stream.peek(3).tolist() == slots.tolist()
    evaluator.commit(3)
    assert evaluator.n == 3
    stream.settle()
    # each row: its two draws, then its evaluation's noise draw
    reference = RandomStream(7)
    expected = np.array([reference.uniform() for _ in range(9)]).reshape(3, 3)
    assert block.tolist() == expected[:, :2].tolist()
    assert slots.tolist() == expected[:, 2].tolist()
    assert stream.uniform() == reference.uniform()


def test_settling_after_taking_too_few_slots_raises():
    stream, _, _ = _held(7, 3, (2,))
    stream.take(2)
    with pytest.raises(ContractViolation):
        stream.settle()


def _gap(objective):
    config = RunConfig(algorithm="pso", population=4, iterations=1, seed=0)
    return PSO.start(config, objective).objectives[0].gap


@pytest.mark.parametrize("fid", sorted(BENCHMARKS, key=lambda f: int(f[1:])))
def test_measured_gap_of_every_registry_function(fid):
    spec = BENCHMARKS[fid]
    expected = 1 if fid == "f7" else 0
    assert _gap(spec) == expected
    assert _gap(EvaluateOnly(spec)) == expected


def test_a_plain_callable_takes_no_draws():
    spec = BENCHMARKS["f1"]
    config = RunConfig(algorithm="pso", population=4, iterations=1, seed=0)
    assert PSO.start(config, spec.evaluator, spec.space()).objectives[0].gap == 0


def _drawing(stream, counts):
    """A callable that takes ``counts[k]`` draws from ``stream`` on its
    ``k``-th call."""
    calls = iter(counts)

    def call(x):
        for _ in range(next(calls)):
            stream.uniform()
        return float(x.sum())

    return call


def test_a_call_evaluator_measures_its_gap_on_its_first_call():
    x = np.ones(2)
    stream = RandomStream(5)
    evaluator = CallEvaluator(_drawing(stream, [2, 2, 1, 2, 3]), stream)
    assert evaluator(x) == 2.0 and evaluator.gap == 2
    evaluator(x)
    with pytest.raises(ContractViolation, match="measured 2"):
        evaluator(x)
    # three rows of two noise slots: the second call's three draws fit in
    # the slots, and the call itself is refused
    reserve(stream, 3, (1,), gap=evaluator.gap)
    evaluator(x)
    with pytest.raises(ContractViolation, match="measured 2"):
        evaluator(x)
    assert (evaluator.n, evaluator.gap) == (5, 2)

    # a plain callable states no stream and is never checked
    plain = CallEvaluator(_drawing(RandomStream(5), [0, 3, 1]))
    for _ in range(3):
        plain(x)
    assert (plain.n, plain.gap) == (3, 0)


POPULATION = 4


@pytest.mark.parametrize("algorithm", sorted(bo.ALGORITHMS))
@pytest.mark.parametrize(
    "draws",
    [
        lambda call: 1 if call < POPULATION else 2,  # more than measured
        lambda call: 1 if call < POPULATION else 0,  # fewer than measured
        lambda call: 0 if call < POPULATION else 1,  # drawing only later
        lambda call: call % 2,  # a different count on every other call
        # the right total per iteration, but not one draw per evaluation
        lambda call: 1 if call < POPULATION else 2 * (call % 2),
    ],
    ids=["more", "fewer", "later", "uneven", "uneven-later"],
)
def test_an_objective_off_its_measured_gap_raises(algorithm, draws):
    config = RunConfig(algorithm=algorithm, population=POPULATION, iterations=3, seed=2)
    with pytest.raises(ContractViolation):
        bo.ALGORITHMS[algorithm](config, EvaluateOnly(BENCHMARKS["f1"], draws))


@pytest.mark.parametrize("algorithm", sorted(bo.ALGORITHMS))
@pytest.mark.parametrize("fid", ["f1", "f7"])
def test_evaluate_only_route_keeps_the_records(algorithm, fid):
    config = RunConfig(algorithm=algorithm, benchmark=fid, population=5, iterations=4, seed=6)
    bound = bo.ALGORITHMS[algorithm](config, BENCHMARKS[fid])
    proxied = bo.ALGORITHMS[algorithm](config, EvaluateOnly(BENCHMARKS[fid]))
    assert proxied.trace.tobytes() == bound.trace.tobytes()
    assert proxied.evaluations == bound.evaluations


class CountingGenerator:
    """``Generator`` stand-in that counts the calls made to it."""

    made = []

    def __init__(self, seed):
        self._gen = np.random.Generator(np.random.PCG64(seed))
        self.calls = 0
        CountingGenerator.made.append(self)

    def random(self, size=None, out=None):
        self.calls += 1
        return self._gen.random(size, out=out)


@pytest.mark.parametrize("algorithm", sorted(bo.ALGORITHMS))
@pytest.mark.parametrize("fid", ["f1", "f7"])
def test_one_generator_call_per_iteration(monkeypatch, algorithm, fid):
    population, iterations = 6, 9
    config = RunConfig(
        algorithm=algorithm, benchmark=fid, population=population, iterations=iterations, seed=8
    )
    plain = bo.ALGORITHMS[algorithm](config, BENCHMARKS[fid])

    CountingGenerator.made = []
    monkeypatch.setattr(np.random, "default_rng", CountingGenerator)
    counted = bo.ALGORITHMS[algorithm](config, BENCHMARKS[fid])
    (generator,) = CountingGenerator.made

    assert counted.trace.tobytes() == plain.trace.tobytes()
    # the prologue: the initial population, f7's noise on the initial
    # evaluations and the chaos seed; then one reservation per iteration
    prologue = 1 + (population if fid == "f7" else 0) + (1 if algorithm in ("bbo", "bto") else 0)
    assert generator.calls == prologue + iterations
