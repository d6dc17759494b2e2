"""Lockstep run groups: runs of one algorithm and one dimension stepped
together give every run the record it gets alone, a failing run costs only
itself, and the harness sends one task per group."""

import concurrent.futures

from hypothesis import given, settings
from hypothesis import strategies as st

import beetleopt as bo
from beetleopt import benchmarks, harness
from beetleopt.benchmarks import BENCHMARKS, BoundEvaluator
from beetleopt.core import MIN_POPULATION, RunConfig, drive

#: registry functions by dimension (f7, the noisy one, is among the 30s)
BY_DIM = {}
for _fid, _spec in BENCHMARKS.items():
    BY_DIM.setdefault(_spec.dim, []).append(_fid)

MODE_SETS = (
    dict(bound_mode="clamp", chaos_map="tent", predator_mode="global-best"),
    dict(bound_mode="reflect", chaos_map="chebyshev", predator_mode="random-agent"),
)


class EvaluateOnly:
    """Benchmark-spec proxy with only ``space`` and ``evaluate``."""

    def __init__(self, spec):
        self._spec = spec

    def space(self):
        return self._spec.space()

    def evaluate(self, position, rng=None):
        return self._spec.evaluate(position, rng)


def _objective(fid, route):
    """A fresh objective for one run: ``(objective, space)``."""
    spec = BENCHMARKS[fid]
    if route == "spec":
        return spec, None
    if route == "proxy":
        return EvaluateOnly(spec), None
    return spec.evaluator, spec.space()  # a plain callable


def _same(a, b):
    assert (a.algorithm, a.benchmark, a.seed, a.evaluations) == (b.algorithm, b.benchmark, b.seed, b.evaluations)
    assert a.trace.tobytes() == b.trace.tobytes()
    assert float(a.final_best).hex() == float(b.final_best).hex()


@st.composite
def groups(draw):
    algorithm = draw(st.sampled_from(sorted(bo.ALGORITHMS)))
    dim = draw(st.sampled_from(sorted(BY_DIM)))
    members = draw(
        st.lists(
            st.tuples(
                st.sampled_from(BY_DIM[dim]),
                st.sampled_from(["spec", "proxy", "plain"]),
                st.integers(0, 2**31 - 1),
            ),
            min_size=1,
            max_size=4,
        )
    )
    population = draw(st.integers(MIN_POPULATION[algorithm], 7))
    iterations = draw(st.integers(1, 5))
    modes = draw(st.sampled_from(MODE_SETS))
    return algorithm, members, population, iterations, modes


@settings(max_examples=60, deadline=None)
@given(groups())
def test_every_record_of_a_group_equals_its_solo_run(group):
    algorithm, members, population, iterations, modes = group
    configs = [
        RunConfig(algorithm=algorithm, benchmark=fid, population=population, iterations=iterations, seed=seed, **modes)
        for fid, _, seed in members
    ]
    objectives, spaces = zip(*(_objective(fid, route) for fid, route, _ in members))
    init, step = harness._GROUP_STEPS[algorithm]
    records = drive(algorithm, init, step, configs, objectives, spaces)
    for config, (fid, route, _), record in zip(configs, members, records):
        solo = bo.ALGORITHMS[algorithm](config, *_objective(fid, route))
        _same(record, solo)


class FailOnSeed:
    """A registry spec whose run with one seed raises after ``after`` calls."""

    def __init__(self, spec, seed, after):
        self._spec = spec
        self.dim = spec.dim
        self._seed = seed
        self._after = after

    def space(self):
        return self._spec.space()

    def bind(self, rng):
        inner = self._spec.bind(rng)
        return inner if rng.seed != self._seed else _Breaking(inner, self._after)


class _Breaking:
    def __init__(self, inner, after):
        self._inner = inner
        self._after = after

    @property
    def n(self):
        return self._inner.n

    def __call__(self, x):
        if self._inner.n >= self._after:
            raise RuntimeError("objective broke")
        return self._inner(x)


def _plan(**overrides):
    settings_ = dict(
        algorithms=tuple(sorted(bo.ALGORITHMS)),
        functions=("f1", "f7", "f9", "f16"),
        runs=2,
        population=6,
        iterations=8,
        base_seed=7,
    )
    settings_.update(overrides)
    return harness.ExperimentPlan(**settings_)


def test_a_clean_plan_steps_every_group_in_lockstep(monkeypatch):
    # a group that raises is repeated run by run, with the records those runs
    # get alone, so only this shows a fault on the group path
    raised = []

    def recording_drive(*args):
        try:
            return drive(*args)
        except Exception as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(harness, "drive", recording_drive)
    result = harness.run_experiment(_plan())
    assert raised == [] and result.failures == []


def test_a_failing_run_costs_only_itself(monkeypatch):
    plan = _plan()
    clean = harness.run_experiment(plan)
    real_get = benchmarks.get

    def get(fid):
        spec = real_get(fid)
        return FailOnSeed(spec, seed=8, after=40) if fid == "f9" else spec

    monkeypatch.setattr(benchmarks, "get", get)
    broken = harness.run_experiment(plan)
    assert broken.failures == [(a, "f9", 1, "objective broke") for a in sorted(plan.algorithms)]
    kept = [r for r in clean.records if (r.benchmark, r.seed) != ("f9", 8)]
    assert len(broken.records) == len(kept) == len(clean.records) - len(plan.algorithms)
    for a, b in zip(kept, broken.records):
        _same(a, b)


class _BreakingEvaluator(BoundEvaluator):
    """A bound evaluator that raises once it has counted ``after``
    evaluations, on the one-vector route and on the block route; ``routes``
    records where it raised."""

    routes = []

    def __init__(self, spec, rng, after):
        self._after = after
        self._route = "block"
        super().__init__(spec, rng)

    @property
    def n(self):
        return self._n

    @n.setter
    def n(self, value):
        if value > self._after:
            _BreakingEvaluator.routes.append(self._route)
            raise RuntimeError("objective broke")
        self._n = value

    def __call__(self, x):
        self._route = "call"
        try:
            return super().__call__(x)
        finally:
            self._route = "block"


class FailInBlockOnSeed(FailOnSeed):
    """A registry spec whose run with one seed raises inside the block calls
    it shares with the other runs of the function."""

    def bind(self, rng):
        if rng.seed != self._seed:
            return self._spec.bind(rng)
        return _BreakingEvaluator(self._spec, rng, self._after)


def test_a_run_failing_inside_a_shared_block_costs_only_itself(monkeypatch):
    plan = _plan(runs=3)
    clean = harness.run_experiment(plan)
    real_get = benchmarks.get

    def get(fid):
        spec = real_get(fid)
        return FailInBlockOnSeed(spec, seed=8, after=40) if fid in ("f7", "f9") else spec

    monkeypatch.setattr(benchmarks, "get", get)
    _BreakingEvaluator.routes = []
    broken = harness.run_experiment(plan)
    # seed 8 is the middle one of each function's three runs: each group
    # broke once, inside a block call seed 8 shared with seeds 7 and 9, and
    # each failing run broke again when repeated alone
    routes = _BreakingEvaluator.routes
    assert len(routes) == 3 * len(plan.algorithms) and routes.count("block") >= len(plan.algorithms)
    assert broken.failures == sorted((a, f, 1, "objective broke") for a in plan.algorithms for f in ("f7", "f9"))
    kept = [r for r in clean.records if not (r.benchmark in ("f7", "f9") and r.seed == 8)]
    assert len(broken.records) == len(kept) == len(clean.records) - 2 * len(plan.algorithms)
    for a, b in zip(kept, broken.records):
        _same(a, b)


class FakePool:
    """Synchronous stand-in for ``ProcessPoolExecutor`` that keeps the tasks."""

    tasks = []

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        FakePool.tasks.append(args)
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


def test_jobs_submit_one_task_per_algorithm_and_dimension(monkeypatch):
    plan = _plan(algorithms=("gwo", "bto"), functions=("f1", "f9", "f14", "f15", "f21"))
    serial = harness.run_experiment(plan)
    FakePool.tasks = []
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    pooled = harness.run_experiment(plan, jobs=2)

    keys = []
    for algorithm, runs in FakePool.tasks:
        dims = {BENCHMARKS[function].dim for function, _ in runs}
        assert len(dims) == 1 and all(config.algorithm == algorithm for _, config in runs)
        keys.append((algorithm, dims.pop()))
    assert sorted(keys) == sorted((a, d) for a in plan.algorithms for d in (30, 2, 4))
    assert sum(len(runs) for _, runs in FakePool.tasks) == len(plan.cells()) * plan.runs
    assert not pooled.failures and len(pooled.records) == len(serial.records)
    for a, b in zip(serial.records, pooled.records):
        _same(a, b)


def test_the_grid_and_protocol_shapes_group_by_dimension():
    grid = harness.parse_config("functions = all\nruns = 2\n")
    assert len(harness.plan_groups(grid)) == 35
    assert sum(len(runs) for _, runs in harness.plan_groups(grid)) == 322
    protocol = harness.parse_config("functions = f1 f9 f21\nruns = 1\n")
    assert [len(runs) for _, runs in harness.plan_groups(protocol)] == [2, 1] * 7
