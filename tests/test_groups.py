"""Lockstep run groups: runs of one algorithm and one dimension stepped
together give every run the record it gets alone, through every route an
objective can take, a failing run costs only itself, and the harness sends
one task per group."""

import dataclasses
import itertools
import math
import os
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beetleopt as bo
from beetleopt import baselines, benchmarks, harness
from beetleopt.benchmarks import BENCHMARKS, BoundEvaluator
from beetleopt.cli import main as cli_main
from beetleopt.core import (
    BOUND_MODES,
    CallEvaluator,
    ContractViolation,
    Group,
    RandomStream,
    RunConfig,
    clamp_to_bounds,
    drive,
    start_group,
)

from conftest import EvaluateOnly, hand_group

#: registry functions by dimension (f7, the noisy one, is among the 30s)
BY_DIM = {}
for _fid, _spec in BENCHMARKS.items():
    BY_DIM.setdefault(_spec.dim, []).append(_fid)

MODE_SETS = (
    dict(bound_mode="clamp", chaos_map="tent", predator_mode="global-best"),
    dict(bound_mode="reflect", chaos_map="chebyshev", predator_mode="random-agent"),
)


ROUTES = ("spec", "proxy", "plain")


def poisoned(fid, start, width, bad):
    """A registry spec like ``fid``'s, with a ``block`` form, whose function
    is ``bad`` (inf or NaN) where the first coordinate lies in a slab of the
    box: from ``start`` to ``start + width``, as fractions of its width."""
    spec = BENCHMARKS[fid]
    low = spec.lower + start * (spec.upper - spec.lower)
    high = low + width * (spec.upper - spec.lower)
    function = spec.evaluator.block

    def block(z):
        first = z[..., 0]
        return np.where((first >= low) & (first <= high), bad, function(z))

    def evaluator(z):
        return float(block(z))

    evaluator.block = block
    return dataclasses.replace(spec, id=f"{fid}-poisoned", evaluator=evaluator)


def _objective(fid, route, specs=BENCHMARKS):
    """A fresh objective for one run: ``(objective, space)``."""
    spec = specs[fid]
    if route == "spec":
        return spec, None
    if route == "proxy":
        return EvaluateOnly(spec), None
    return spec.evaluator, spec.space()  # a plain callable


def _same(a, b):
    assert (a.algorithm, a.benchmark, a.seed, a.evaluations) == (b.algorithm, b.benchmark, b.seed, b.evaluations)
    assert a.trace.tobytes() == b.trace.tobytes()
    assert float(a.final_best).hex() == float(b.final_best).hex()


def _first_run_busy(runs):
    """A ``baselines._busy`` that holds for run 0 of a group of ``runs`` runs
    alone: it is asked once per run, in run order, every iteration."""
    calls = itertools.count()
    return lambda changes, n: next(calls) % runs == 0


#: gwo's and cdo's choice of path, as a ``baselines._busy`` for a group of
#: ``runs`` runs: every run chunked, every run busy (lockstep, or a lone run
#: stepping alone), run 0 busy and the others chunked, or the real rule
LEADER_PATHS = {
    "chunks": lambda runs: lambda changes, n: False,
    "lockstep": lambda runs: lambda changes, n: True,
    "mixed": _first_run_busy,
    "rule": lambda runs: baselines._busy,
}


@st.composite
def groups(draw):
    algorithm = draw(st.sampled_from(sorted(bo.ALGORITHMS)))
    dim = draw(st.sampled_from(sorted(BY_DIM)))
    # one poisoned function per group, so that its runs share its blocks
    poison = (
        draw(st.sampled_from(BY_DIM[dim])),
        draw(st.floats(0.0, 0.9)),
        draw(st.floats(0.05, 0.6)),
        draw(st.sampled_from([math.inf, math.nan])),
    )
    members = draw(
        st.lists(
            st.tuples(
                st.sampled_from(BY_DIM[dim] + ["poisoned"]),
                st.sampled_from(ROUTES),
                st.integers(0, 2**31 - 1),
            ),
            min_size=1,
            max_size=4,
        )
    )
    population = draw(st.integers(harness.ENTRIES[algorithm].min_population, 7))
    iterations = draw(st.integers(1, 5))
    modes = draw(st.sampled_from(MODE_SETS))
    path = draw(st.sampled_from(sorted(LEADER_PATHS)))
    return algorithm, poison, members, population, iterations, modes, path


@settings(max_examples=60, deadline=None)
@given(groups())
def test_every_record_of_a_group_equals_its_solo_run(group):
    # a bound evaluator's blocks are speculative (a step may discard rows);
    # a proxy or a plain callable is evaluated row by row; every route must
    # give the same record and count only the evaluations the run makes,
    # and so must gwo's and cdo's groups on either path
    algorithm, poison, members, population, iterations, modes, path = group
    specs = {**BENCHMARKS, "poisoned": poisoned(*poison)}
    configs = [
        RunConfig(algorithm=algorithm, benchmark=fid, population=population, iterations=iterations, seed=seed, **modes)
        for fid, _, seed in members
    ]
    objectives, spaces = zip(*(_objective(fid, route, specs) for fid, route, _ in members))
    with mock.patch.object(baselines, "_busy", LEADER_PATHS[path](len(members))):
        records = drive(harness.ENTRIES[algorithm], configs, objectives, spaces)
    per_iteration = 2 if algorithm == "bbo" else 1
    for config, (fid, route, _), record in zip(configs, members, records):
        assert record.evaluations == population + per_iteration * population * iterations
        # a plain callable cannot reach the run's stream: for f7 it is the
        # function without its noise, another objective
        same = ROUTES if not specs[fid].noisy else ("plain",) if route == "plain" else ("spec", "proxy")
        for other in same:
            _same(record, bo.ALGORITHMS[algorithm](config, *_objective(fid, other, specs)))


@pytest.mark.parametrize("algorithm", ["pso", "bbo"])
def test_a_noisy_run_in_a_group_is_speculated(algorithm):
    # f7's chunks are evaluated as blocks, each row with its own noise slot,
    # and give the records of the evaluate-only proxy, called row by row
    noisy = []
    speculate = BoundEvaluator.speculate

    def spy(self, rows, *slots):
        noisy.append(self.gap)
        return speculate(self, rows, *slots)

    members = [("f7", 1), ("f1", 2), ("f7", 3)]
    configs = [RunConfig(algorithm=algorithm, benchmark=fid, population=6, iterations=4, seed=seed) for fid, seed in members]
    with mock.patch.object(BoundEvaluator, "speculate", spy):
        records = drive(harness.ENTRIES[algorithm], configs, [BENCHMARKS[fid] for fid, _ in members], [None] * 3)
    # at least one chunk per iteration of each f7 run
    assert noisy.count(1) >= 2 * 4
    for config, (fid, _), record in zip(configs, members, records):
        _same(record, bo.ALGORITHMS[algorithm](config, EvaluateOnly(BENCHMARKS[fid])))


#: the poisoned spec of :func:`poisoned`, inf or NaN on a slab of f9's box
SLABS = {"inf-slab": poisoned("f9", 0.3, 0.4, math.inf), "nan-slab": poisoned("f9", 0.2, 0.5, math.nan)}


@pytest.mark.parametrize("algorithm", ["gwo", "cdo"])
@pytest.mark.parametrize(
    "members",
    [
        # noisy f7, evaluated lazily, in a shared block with a noiseless run
        [("f7", "spec", 3), ("f7", "spec", 4), ("f1", "spec", 5)],
        [("f9", "spec", 1), ("f9", "spec", 2)],
        [("f21", "spec", 1)],
        [("f21", "plain", 2), ("f21", "proxy", 3)],
        [("inf-slab", "spec", 6), ("inf-slab", "spec", 7), ("nan-slab", "plain", 8)],
        [("nan-slab", "spec", 9), ("nan-slab", "spec", 10)],
    ],
)
def test_leader_steps_give_the_same_records_on_either_path(algorithm, members):
    # an agent that changes no leader leaves the next proposals as they were,
    # so chunks cut at the first leader change replay the lockstep loop; on
    # every path the first leader is the best-so-far, which is what lets a
    # chunk cut at the third
    specs = {**BENCHMARKS, **SLABS}
    population, iterations = 16, 40
    configs = [
        RunConfig(algorithm=algorithm, benchmark=fid, population=population, iterations=iterations, seed=seed)
        for fid, _, seed in members
    ]
    advance, checked = Group.advance, []

    def checked_advance(self):
        advance(self)
        first = np.array([rank[0] for rank in self.leaders_f])
        assert first.tobytes() == np.array(self.best_f).tobytes()
        assert self.leaders[:, 0].tobytes() == self.best_x.tobytes()
        checked.append(self.iteration)

    by_path = {}
    for path, rule in LEADER_PATHS.items():
        objectives, spaces = zip(*(_objective(fid, route, specs) for fid, route, _ in members))
        with mock.patch.object(baselines, "_busy", rule(len(members))):
            with mock.patch.object(Group, "advance", checked_advance):
                by_path[path] = drive(harness.ENTRIES[algorithm], configs, objectives, spaces)
    assert checked == list(range(1, iterations + 1)) * len(LEADER_PATHS)
    for records in zip(*by_path.values()):
        assert records[0].evaluations == population + population * iterations
        for other in records[1:]:
            _same(records[0], other)


@pytest.mark.parametrize("block", [1, 2**30])
def test_gsa_gives_the_same_records_whatever_its_attractor_blocks(block):
    # one attractor per block or all of them in one: the pulls are added in
    # attractor order either way, with inf and NaN values among the runs
    specs = {**BENCHMARKS, **SLABS}
    members = [("f9", 1), ("inf-slab", 2), ("nan-slab", 3), ("f7", 4), ("f9", 5)]
    configs = [RunConfig(algorithm="gsa", benchmark=fid, population=12, iterations=15, seed=seed) for fid, seed in members]
    objectives, spaces = [specs[fid] for fid, _ in members], [None] * len(members)
    # the default block holds 8192 elements: 4 attractors of these 5 runs,
    # so the 12 attractors of the first iteration take 3 blocks
    assert baselines._GSA_BLOCK // (len(members) * 12 * 30) == 4
    values = np.array(start_group(baselines.GSA, configs, objectives, spaces).fitness)
    assert np.isinf(values[1]).any() and np.isnan(values[2]).any()
    default = drive(baselines.GSA, configs, objectives, spaces)
    with mock.patch.object(baselines, "_GSA_BLOCK", block):
        patched = drive(baselines.GSA, configs, objectives, spaces)
    for a, b in zip(default, patched):
        _same(a, b)


@pytest.mark.parametrize("algorithm", ["pso", "sso"])
def test_a_nan_personal_best_gives_way_to_a_finite_value(algorithm):
    # every initial value is NaN and every later one finite: each agent's
    # personal best takes its first finite value, as the best-so-far does
    objective = NanFirst(6, speculative=True)
    config = RunConfig(algorithm=algorithm, population=6, iterations=10, seed=1)
    group = harness.ENTRIES[algorithm].start(config, objective, bo.SearchSpace.cube(2, -100.0, 100.0))
    assert np.isnan(group.personal_best_f).all()
    for _ in range(10):
        group.advance()
    assert np.isfinite(group.personal_best_f).all() and math.isfinite(group.best_f[0])
    assert group.best_f[0] == group.personal_best_f.min()


@pytest.mark.parametrize("algorithm", sorted(bo.ALGORITHMS))
def test_a_nan_first_agent_does_not_become_the_best(algorithm):
    # seed 1 puts agent 0 on the NaN slab; 7 of the 16 initial values are
    # finite, and the least of them is the best, which a run then improves
    spec = SLABS["nan-slab"]
    config = RunConfig(algorithm=algorithm, benchmark="nan-slab", population=16, iterations=20, seed=1)
    group = harness.ENTRIES[algorithm].start(config, spec)
    values = np.array(group.fitness[0])
    assert math.isnan(values[0]) and np.isfinite(values).sum() == 7
    assert group.best_f[0] == np.nanmin(values)
    record = bo.ALGORITHMS[algorithm](config, spec)
    assert np.all(np.isfinite(record.trace))
    assert record.trace[0] <= np.nanmin(values)


def test_a_nan_agent_ranks_after_every_leader():
    # seed 9 has NaN among the initial values; the leaders are the three
    # least of the others, best first
    config = RunConfig(algorithm="gwo", benchmark="nan-slab", population=16, iterations=1, seed=9)
    group = baselines.GWO.start(config, SLABS["nan-slab"])
    values = np.array(group.fitness[0])
    assert np.isnan(values).any()
    least = np.argsort(np.where(np.isnan(values), np.inf, values), kind="stable")[:3]
    assert group.leaders_f[0] == values[least].tolist()
    assert np.array_equal(group.leaders[0], group.x[0][least])
    assert baselines._best_three([math.nan, 2.0, math.nan, 1.0, math.inf]) == [3, 1, 4]


class NanFirst:
    """A run's evaluator of the sphere that is NaN on its first ``k``
    evaluations, in the order the run commits them.  A ``speculative`` one
    values a block's rows by the evaluations they become if committed, so
    chunks evaluate it as blocks.  ``values`` holds every committed value."""

    gap = 0
    function = None

    def __init__(self, k: int, speculative: bool):
        self.k = k
        self.speculative = speculative
        self.n = 0
        self.values = []
        self._pending = {}

    def _value(self, x, index):
        return math.nan if index < self.k else float(np.sum(x * x))

    def __call__(self, x):
        self.values.append(self._value(x, self.n))
        self.n += 1
        return self.values[-1]

    def block(self, rows, owners=None):
        return [self(row) for row in rows]

    def speculate(self, rows, offset=0, stride=1):
        indices = [self.n + offset + j * stride for j in range(len(rows))]
        self._pending.update((i, self._value(row, i)) for i, row in zip(indices, rows))
        return np.array([self._pending[i] for i in indices])

    def commit(self, m):
        self.values += [self._pending[i] for i in range(self.n, self.n + m)]
        self.n += m
        self._pending = {}


@pytest.mark.parametrize("modes", MODE_SETS, ids=["default-modes", "other-modes"])
@pytest.mark.parametrize("speculative", [False, True], ids=["rows", "blocks"])
@pytest.mark.parametrize("algorithm", sorted(bo.ALGORITHMS))
def test_a_run_whose_initial_values_are_all_nan_ends_at_its_least_finite_value(algorithm, speculative, modes):
    # every initial value of the 6 agents is NaN and every later one finite:
    # a later value replaces a NaN best-so-far, leader or greedy agent
    objective = NanFirst(6, speculative)
    config = RunConfig(algorithm=algorithm, population=6, iterations=10, seed=1, **modes)
    record = bo.ALGORITHMS[algorithm](config, objective, bo.SearchSpace.cube(2, -100.0, 100.0))
    per_iteration = 12 if algorithm == "bbo" else 6
    assert record.evaluations == len(objective.values) == 6 + 10 * per_iteration
    assert all(math.isnan(v) for v in objective.values[:6])
    assert record.final_best == min(objective.values[6:])


def test_a_group_refuses_runs_that_differ_in_any_setting_but_benchmark_and_seed():
    base = RunConfig(algorithm="pso", benchmark="f1", population=4, iterations=2, seed=1)
    other = dataclasses.replace(base, benchmark="f2", seed=2)
    assert start_group(baselines.PSO, [base, other], [BENCHMARKS["f1"], BENCHMARKS["f2"]], [None, None]).n == 4
    changes = dict(population=5, iterations=3, chaos_map="circle", predator_mode="random-agent", bound_mode="reflect")
    # every other field of a config is a setting the runs must share
    assert set(changes) == {f.name for f in dataclasses.fields(RunConfig)} - {"algorithm", "benchmark", "seed"}
    for field, value in changes.items():
        configs = [base, dataclasses.replace(base, **{field: value})]
        with pytest.raises(ContractViolation, match="share every setting"):
            start_group(baselines.PSO, configs, [BENCHMARKS["f1"]] * 2, [None, None])


def _two_runs(values):
    """A hand-built group of two runs of three agents in 2 dims, agent ``i``
    of run ``r`` at ``(r, i)`` with values 5, 3 and 4 (best: agent 1), whose
    objectives return ``values`` in call order, run 0 first."""
    script = iter(values)
    space = bo.SearchSpace.cube(2, -100.0, 100.0)
    positions = [[[float(r), float(i)] for i in range(3)] for r in range(2)]
    evaluators = [CallEvaluator(lambda x: next(script)) for _ in range(2)]
    config = RunConfig(algorithm="pso", population=3, iterations=1)
    return Group(baselines.PSO, config, [None, None], evaluators, [space, space], positions, [(5.0, 3.0, 4.0)] * 2)


ROWS = np.array([[10.0, 11.0], [20.0, 21.0]])


def test_a_greedy_move_keeps_only_a_finite_strictly_lower_value():
    # NaN, inf, -inf and an equal value never replace an agent
    for bad in ((math.nan, math.inf), (-math.inf, 5.0)):
        g = _two_runs(bad)
        assert g.move(0, ROWS, greedy=True)[1] == bad[1]
        assert g.x[:, 0].tolist() == [[0.0, 0.0], [1.0, 0.0]]
        assert g.fitness == [[5.0, 3.0, 4.0]] * 2
        assert g.best_f == [3.0, 3.0] and g.best_x.tolist() == [[0.0, 1.0], [1.0, 1.0]]
    # a lower value replaces; the best moves only where it is also below it
    g = _two_runs((4.5, 1.0))
    assert g.move(0, ROWS, greedy=True) == [4.5, 1.0]
    assert g.x[:, 0].tolist() == ROWS.tolist()
    assert [f[0] for f in g.fitness] == [4.5, 1.0]
    assert g.best_f == [3.0, 1.0] and g.best_x.tolist() == [[0.0, 1.0], ROWS[1].tolist()]


def test_an_outright_move_always_replaces_and_the_best_moves_only_below_it():
    g = _two_runs((math.nan, 3.0))
    assert g.move(2, ROWS)[1] == 3.0
    assert g.x[:, 2].tolist() == ROWS.tolist()
    assert math.isnan(g.fitness[0][2]) and g.fitness[1][2] == 3.0
    # an equal value does not take over the best-so-far
    assert g.best_f == [3.0, 3.0] and g.best_x.tolist() == [[0.0, 1.0], [1.0, 1.0]]
    g = _two_runs((7.0, 2.5))
    g.move(1, ROWS)
    assert g.x[:, 1].tolist() == ROWS.tolist() and [f[1] for f in g.fitness] == [7.0, 2.5]
    assert g.best_f == [3.0, 2.5] and g.best_x.tolist() == [[0.0, 1.0], ROWS[1].tolist()]


@pytest.mark.parametrize("mode", BOUND_MODES)
def test_the_writers_bound_every_proposal_they_evaluate(mode):
    # a step proposes raw positions; move, place, sweep and move_all store
    # and evaluate them bounded in the group's mode
    space = bo.SearchSpace.cube(2, -1.0, 1.0)
    seen = []

    def objective(x):
        seen.append(x.tolist())
        return 1.0  # above the best (0.0): a sweep commits its whole chunk

    config = RunConfig(algorithm="pso", population=3, iterations=1, bound_mode=mode)
    g = hand_group(baselines.PSO, config, np.zeros((3, 2)), [0.0] * 3, objective, space)
    outside = np.array([[3.0, -1.5], [-2.5, 0.5], [0.25, 1.75]])
    inside = [clamp_to_bounds(row, space, mode).tolist() for row in outside]
    assert all(space.contains(np.array(row)) for row in inside) and inside != outside.tolist()
    g.move(0, outside[:1])
    assert g.x[0, 0].tolist() == inside[0]
    g.place(0, 1, outside[1])
    assert g.x[0, 1].tolist() == inside[1]
    g.sweep(lambda r, start: outside[start:])
    assert g.x[0].tolist() == inside
    g.move_all(outside[None, ::-1])
    assert g.x[0].tolist() == inside[::-1]
    assert seen == [inside[0], inside[1], *inside, *inside[::-1]]


def test_a_nan_best_or_leader_reads_as_inf(monkeypatch):
    # any value below +inf replaces a NaN best-so-far; +inf and NaN do not
    g = _two_runs((math.inf, 7.0))
    g.best_f = [math.nan, math.nan]
    g.move(0, ROWS)
    assert math.isnan(g.best_f[0]) and g.best_f[1] == 7.0
    assert g.best_x[1].tolist() == ROWS[1].tolist()
    # a gwo chunk is cut below the third leader; a NaN one reads as +inf,
    # so the first agent (10.0) takes its place and cuts the next chunk
    cuts, commit = [], Group._commit_prefix

    def spy(self, r, start, rows, cut):
        cuts.append((r, start, cut))
        return commit(self, r, start, rows, cut)

    monkeypatch.setattr(Group, "_commit_prefix", spy)
    space = bo.SearchSpace.cube(2, -100.0, 100.0)
    config = RunConfig(algorithm="gwo", population=4, iterations=1)
    positions = [[[float(r), float(i)] for i in range(4)] for r in range(2)]
    evaluators = [CallEvaluator(lambda x: 10.0) for _ in range(2)]
    fitness = [(1.0, 2.0, math.nan, math.nan), (1.0, 2.0, 3.0, 4.0)]
    g = Group(baselines.GWO, config, [RandomStream(1), RandomStream(2)], evaluators, [space] * 2, positions, fitness)
    g.leader_changes = [0, 0]  # both runs quiet: they sweep in chunks
    g.advance()
    assert cuts == [(0, 0, math.inf), (0, 1, 10.0), (1, 0, 3.0)]
    assert g.leaders_f == [[1.0, 2.0, 10.0], [1.0, 2.0, 3.0]] and g.best_f == [1.0, 1.0]


def test_a_protocol_shaped_leader_plan_steps_in_chunks(monkeypatch):
    # a rule that never picks chunks changes no record, only the speed;
    # f1's leaders change often and f9's rarely, so f9 sweeps in chunks
    # while f1 steps alone
    chosen, steps = [], []
    rule, sweep, place = baselines._busy, Group.sweep, Group.place

    def spy(changes, n):
        chosen.append(rule(changes, n))
        return chosen[-1]

    def spy_sweep(self, *args, runs=None, **kwargs):
        steps.append(("sweep", runs))
        return sweep(self, *args, runs=runs, **kwargs)

    def spy_place(self, r, i, row):
        steps.append(("place", r, i))
        return place(self, r, i, row)

    monkeypatch.setattr(baselines, "_busy", spy)
    monkeypatch.setattr(Group, "sweep", spy_sweep)
    monkeypatch.setattr(Group, "place", spy_place)
    plan = harness.parse_config("algorithms = gwo cdo\nfunctions = f1 f9 f21\nruns = 1\npopulation = 30\niterations = 50\n")
    result = harness.run_experiment(plan)
    assert not result.failures and not result.fallbacks
    # two groups (f1 f9, f21) per algorithm, three runs, asked on each of
    # the 50 iterations (every run is busy before the first)
    assert len(chosen) == 2 * 3 * 50
    assert any(chosen) and not all(chosen)
    # the mixed path: f9 (run 1) chunked, then f1 (run 0) alone, agent by agent
    mixed = [k for k, step in enumerate(steps[:-30]) if step == ("sweep", [1])]
    assert len(mixed) > 10
    for k in mixed:
        assert steps[k + 1 : k + 31] == [("place", 0, i) for i in range(30)]


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


class _Breaking(CallEvaluator):
    """A bound evaluator's calls, row by row, raising once ``after`` are
    counted."""

    def __init__(self, inner, after):
        super().__init__(inner)
        self._after = after

    def __call__(self, x):
        if self.n >= self._after:
            raise RuntimeError("objective broke")
        return super().__call__(x)


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


def test_a_clean_plan_steps_every_group_in_lockstep():
    # a group that raises is repeated run by run, with the records those runs
    # get alone, so only its fallback shows a fault on the group path
    result = harness.run_experiment(_plan())
    assert result.fallbacks == [] and result.failures == []


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_group_that_falls_back_is_recorded(monkeypatch, jobs):
    plan = _plan(algorithms=("pso",), functions=("f1", "f9"))
    real_get = benchmarks.get

    def get(fid):
        spec = real_get(fid)
        # seed 8's run of f9 raises inside a chunk's commit, after its
        # initial population and a few iterations
        return FailInBlockOnSeed(spec, seed=8, after=20) if fid == "f9" else spec

    monkeypatch.setattr(benchmarks, "get", get)
    # two CPUs, so that jobs = 2 forks two workers on any host
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1}, raising=False)
    result = harness.run_experiment(plan, jobs=jobs)
    assert result.fallbacks == [("pso", ("f1", "f9"), "objective broke")]
    assert result.failures == [("pso", "f9", 1, "objective broke")]


def test_the_cli_reports_a_fallback_on_stderr_only(monkeypatch, tmp_path, capsys):
    real_get = benchmarks.get
    monkeypatch.setattr(
        benchmarks, "get", lambda fid: FailInBlockOnSeed(real_get(fid), seed=2, after=20) if fid == "f9" else real_get(fid)
    )
    config = tmp_path / "plan.txt"
    config.write_text("algorithms = pso\nfunctions = f1 f9\nruns = 2\npopulation = 6\niterations = 8\n")
    out = tmp_path / "out"
    assert cli_main(["run", str(config), "--out", str(out)]) == 1
    assert "pso group f1 f9 raised and ran run by run: objective broke" in capsys.readouterr().err
    assert not any("raised" in path.read_text() for path in out.rglob("*") if path.is_file())


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


def record_groups(monkeypatch, folder):
    """Make every ``execute_group`` call, in whichever forked worker runs
    it, leave its ``(algorithm, runs)`` in a file of its own under
    ``folder``; returns a reader of all calls so far."""
    execute_group = harness.execute_group

    def recorded(algorithm, runs):
        name = f"{os.getpid()}-{algorithm}-{runs[0][0]}"
        (folder / name).write_bytes(pickle.dumps((algorithm, runs)))
        return execute_group(algorithm, runs)

    monkeypatch.setattr(harness, "execute_group", recorded)
    return lambda: [pickle.loads(path.read_bytes()) for path in folder.iterdir()]


def test_jobs_submit_one_task_per_algorithm_and_dimension(monkeypatch, tmp_path):
    plan = _plan(algorithms=("gwo", "bto"), functions=("f1", "f9", "f14", "f15", "f21"))
    serial = harness.run_experiment(plan)
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1}, raising=False)
    tasks = record_groups(monkeypatch, tmp_path)
    pooled = harness.run_experiment(plan, jobs=2)

    keys = []
    for algorithm, runs in tasks():
        dims = {BENCHMARKS[function].dim for function, _ in runs}
        assert len(dims) == 1 and all(config.algorithm == algorithm for _, config in runs)
        keys.append((algorithm, dims.pop()))
    assert sorted(keys) == sorted((a, d) for a in plan.algorithms for d in (30, 2, 4))
    assert sum(len(runs) for _, runs in tasks()) == len(plan.cells()) * plan.runs
    assert not pooled.failures and len(pooled.records) == len(serial.records)
    for a, b in zip(serial.records, pooled.records):
        _same(a, b)


def test_the_grid_and_protocol_shapes_group_by_dimension():
    grid = harness.parse_config("functions = all\nruns = 2\n")
    assert len(harness.plan_groups(grid)) == 35
    assert sum(len(runs) for _, runs in harness.plan_groups(grid)) == 322
    protocol = harness.parse_config("functions = f1 f9 f21\nruns = 1\n")
    assert [len(runs) for _, runs in harness.plan_groups(protocol)] == [2, 1] * 7
