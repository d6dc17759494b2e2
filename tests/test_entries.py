"""One entry per algorithm: the harness's column order, ``beetleopt list``,
the plan's population minima and the benchmark's algorithm list name the
same ids in the same order, every public run function is a method of its
algorithm's entry, and a started group steps to the run's record."""

import ast
import dataclasses
import inspect
import itertools
import re
from pathlib import Path

import numpy as np
import pytest

import beetleopt as bo
from beetleopt import baselines, bbo, harness
from beetleopt.cli import main as cli_main
from beetleopt.core import Algorithm, ConfigurationError

ROOT = Path(__file__).resolve().parents[1]

#: algorithm id -> (module, public run name)
PUBLIC = {
    "cdo": (baselines, "run_cdo"),
    "sso": (baselines, "run_sso"),
    "gsa": (baselines, "run_gsa"),
    "pso": (baselines, "run_pso"),
    "bto": (baselines, "run_bto"),
    "gwo": (baselines, "run_gwo"),
    "bbo": (bbo, "bbo_run"),
}


def _perfbench_algorithms():
    """The ``ALGORITHMS`` tuple of ``perfbench/run.py``, read without running it."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "ALGORITHMS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py has no ALGORITHMS")


def _parse_minimum(algorithm):
    """The smallest population a plan of ``algorithm`` alone parses with."""
    for population in itertools.count(1):
        try:
            harness.parse_config(f"algorithms = {algorithm}\npopulation = {population}\n")
        except ConfigurationError:
            continue
        return population


def test_every_list_of_algorithms_names_the_entries_in_column_order(capsys):
    ids = [entry.id for entry in harness.ENTRIES.values()]
    assert ids == list(PUBLIC)
    assert list(harness.ENTRIES) == list(harness.ALGORITHMS) == ids
    assert cli_main(["list"]) == 0
    assert capsys.readouterr().out.splitlines()[0].split()[1:] == ids
    assert list(_perfbench_algorithms()) == ids
    minima = {algorithm: _parse_minimum(algorithm) for algorithm in harness.ALGORITHMS}
    assert list(minima.items()) == [(entry.id, entry.min_population) for entry in harness.ENTRIES.values()]
    # the default plan names every algorithm; those short of 2 agents are
    # reported in column order
    short = " ".join(entry.id for entry in harness.ENTRIES.values() if entry.min_population > 2)
    with pytest.raises(ConfigurationError, match=f"population must be >= 3 for {short}, got 2"):
        harness.parse_config("population = 2\n")


@pytest.mark.parametrize("algorithm", list(PUBLIC))
def test_public_run_and_step_are_the_entrys_methods(algorithm):
    module, run = PUBLIC[algorithm]
    entry = harness.ENTRIES[algorithm]
    assert isinstance(entry, Algorithm) and entry.id == algorithm
    # gwo and cdo steer by a run's three best agents, the rest by its best
    assert entry.leaders == (3 if algorithm in ("gwo", "cdo") else 1)
    assert getattr(module, run) == entry.run == harness.ALGORITHMS[algorithm]
    assert getattr(bo, run) == entry.run
    assert list(inspect.signature(getattr(module, run)).parameters) == ["config", "objective", "space"]
    assert inspect.signature(getattr(module, run)).parameters["space"].default is None
    # a run is stepped as a started group of one
    assert list(inspect.signature(entry.start).parameters) == ["config", "objective", "space"]
    assert inspect.signature(entry.start).parameters["space"].default is None


def test_no_module_exposes_a_per_state_step():
    # a run is stepped only as a started group (Algorithm.start, Group.advance)
    step_names = re.compile(r"State$|_step$|^bbo_iteration$|^step_state$")
    for module in (bo, baselines, bbo):
        public = [name for name in dir(module) if not name.startswith("_")]
        assert not [name for name in public if step_names.search(name)], module.__name__
    assert not hasattr(Algorithm, "step_state")


#: (algorithm, function, predator mode) of the start-and-advance checks
STARTED = [(a, f, "global-best") for a in PUBLIC for f in ("f1", "f7")] + [("bbo", "f1", "random-agent")]


@pytest.mark.parametrize("algorithm,fid,predator_mode", STARTED)
def test_a_started_group_advances_to_the_runs_record(algorithm, fid, predator_mode):
    config = bo.RunConfig(
        algorithm=algorithm, benchmark=fid, population=6, iterations=7, seed=4, predator_mode=predator_mode
    )
    entry = harness.ENTRIES[algorithm]
    record = entry.run(config, bo.BENCHMARKS[fid])
    group = entry.start(config, bo.BENCHMARKS[fid])
    trace = []
    for _ in range(config.iterations):
        group.advance()
        trace.append(group.best_f[0])
    assert np.array(trace).tobytes() == record.trace.tobytes()
    assert float(trace[-1]).hex() == record.final_best.hex()
    assert group.objectives[0].n == record.evaluations


@pytest.mark.parametrize("algorithm", list(PUBLIC))
def test_every_algorithm_refuses_to_advance_past_its_iterations(algorithm):
    config = bo.RunConfig(algorithm=algorithm, population=5, iterations=2, seed=1)
    group = harness.ENTRIES[algorithm].start(config, bo.BENCHMARKS["f1"])
    group.advance()
    group.advance()
    evaluations = group.objectives[0].n
    with pytest.raises(ConfigurationError, match="run already finished"):
        group.advance()
    assert group.iteration == 2 and group.objectives[0].n == evaluations


def test_a_runner_swapped_in_runs_run_by_run(monkeypatch):
    # a tracer or a test double in ALGORITHMS replaces the group path
    calls = []
    real = harness.ALGORITHMS["pso"]

    def traced(config, spec):
        calls.append(config.seed)
        return real(config, spec)

    monkeypatch.setitem(harness.ALGORITHMS, "pso", traced)
    plan = harness.ExperimentPlan(algorithms=("pso",), functions=("f1", "f9"), runs=2, population=4, iterations=2)
    result = harness.run_experiment(plan)
    assert sorted(calls) == [1, 1, 2, 2] and len(result.records) == 4


@pytest.mark.parametrize("algorithm", list(PUBLIC))
def test_a_run_refuses_a_config_that_names_another_algorithm(algorithm):
    other = "pso" if algorithm != "pso" else "gwo"
    config = bo.RunConfig(algorithm=other, population=6, iterations=2)
    with pytest.raises(ConfigurationError, match=f"'{other}' config cannot run as '{algorithm}'"):
        harness.ENTRIES[algorithm].run(config, bo.BENCHMARKS["f1"])
    record = harness.ENTRIES[algorithm].run(dataclasses.replace(config, algorithm=algorithm), bo.BENCHMARKS["f1"])
    assert record.algorithm == algorithm


def _unused_imports(source: str) -> list:
    """The names a module's top-level imports bind that nothing in it reads;
    a name listed in ``__all__`` is read."""
    tree = ast.parse(source)
    bound, read = [], {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [name for name in bound if name not in read]


def test_no_module_imports_a_name_it_does_not_read():
    sample = "import os\nimport sys as system, math\nfrom . import a\n__all__ = ['a']\nsystem.exit\n"
    assert _unused_imports(sample) == ["os", "math"]
    unused = {
        path.name: _unused_imports(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "beetleopt").glob("*.py"))
    }
    assert not {name: names for name, names in unused.items() if names}
