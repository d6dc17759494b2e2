import numpy as np
import pytest

from beetleopt.core import Group, RandomStream, SearchSpace, _split_reservation, bind


class StubStream:
    """Scripted stand-in for RandomStream: every draw pops the next value.

    Values are the final draw results (already in the target range), which
    lets tests pin exact inputs into the update rules.  A reservation takes
    its values in block order and leaves no noise slots.
    """

    def __init__(self, values):
        self._values = list(values)

    def _pop(self):
        if not self._values:
            raise AssertionError("stub stream exhausted")
        return self._values.pop(0)

    def uniform(self, size=None):
        if size is None:
            return self._pop()
        return np.array([self._pop() for _ in range(int(size))])

    def reserve_into(self, out, rows, widths, lead=0, gap=0):
        out[...] = [self._pop() for _ in range(out.size)]

    def settle(self):
        pass


def reserve(stream, rows, widths, lead=0, gap=0):
    """One stream's reservation as :meth:`Group.reserve` draws it: into a
    block of its own, returned as its parts."""
    block = np.empty(lead + rows * sum(widths))
    stream.reserve_into(block, rows, widths, lead, gap)
    return _split_reservation(block, rows, widths, lead)


def hand_group(algorithm, config, x, fitness, objective, space, rng=None):
    """A group of one run of ``algorithm`` whose agents sit at the hand-set
    positions ``x`` ``(N, dim)`` with the values ``fitness``, its state set
    by the algorithm's ``init``, ready for ``config.iterations`` advances.
    ``rng`` (by default the config's seeded stream) may be a
    :class:`StubStream`."""
    rng = RandomStream(config.seed) if rng is None else rng
    return Group(algorithm, config, [rng], [bind(objective, rng, space)[0]], [space], [x], [fitness])


class EvaluateOnly:
    """Benchmark-spec proxy with only ``space`` and ``evaluate``, like a
    timing wrapper, so that a run binds it as a :class:`CallEvaluator`;
    it counts its ``calls`` and takes ``draws(call)`` extra draws from the
    run's stream per evaluation."""

    def __init__(self, spec, draws=lambda call: 0):
        self._spec = spec
        self._draws = draws
        self.calls = 0

    def space(self):
        return self._spec.space()

    def evaluate(self, position, rng=None):
        for _ in range(self._draws(self.calls)):
            rng.uniform()
        self.calls += 1
        return self._spec.evaluate(position, rng)


class CheckedObjective:
    """Objective wrapper that counts calls and asserts in-bound arguments."""

    def __init__(self, func, space: SearchSpace):
        self.func = func
        self.space = space
        self.n = 0

    def __call__(self, x):
        assert np.all(x >= self.space.lower) and np.all(x <= self.space.upper), (
            f"out-of-bounds evaluation: {x}"
        )
        self.n += 1
        return float(self.func(x))


@pytest.fixture
def stub_stream():
    return StubStream


@pytest.fixture
def checked_objective():
    return CheckedObjective
