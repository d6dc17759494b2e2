"""One entry per algorithm: the harness's column order, ``beetleopt list``,
the plan's population minima and the benchmark's algorithm list name the
same ids in the same order, and every public run and step function is a
method of its algorithm's entry."""

import ast
import dataclasses
import inspect
import itertools
from pathlib import Path

import pytest

import beetleopt as bo
from beetleopt import baselines, bbo, harness
from beetleopt.cli import main as cli_main
from beetleopt.core import Algorithm, ConfigurationError

ROOT = Path(__file__).resolve().parents[1]

#: algorithm id -> (module, public run name, public step name)
PUBLIC = {
    "cdo": (baselines, "run_cdo", "cdo_step"),
    "sso": (baselines, "run_sso", "sso_step"),
    "gsa": (baselines, "run_gsa", "gsa_step"),
    "pso": (baselines, "run_pso", "pso_step"),
    "bto": (baselines, "run_bto", "bto_step"),
    "gwo": (baselines, "run_gwo", "gwo_step"),
    "bbo": (bbo, "bbo_run", "bbo_iteration"),
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
    module, run, step = PUBLIC[algorithm]
    entry = harness.ENTRIES[algorithm]
    assert isinstance(entry, Algorithm) and entry.id == algorithm
    assert getattr(module, run) == entry.run == harness.ALGORITHMS[algorithm]
    assert getattr(bo, run) == entry.run
    assert getattr(module, step) == entry.step_state
    assert list(inspect.signature(getattr(module, run)).parameters) == ["config", "objective", "space"]
    assert inspect.signature(getattr(module, run)).parameters["space"].default is None
    assert list(inspect.signature(getattr(module, step)).parameters) == ["state", "objective", "space", "rng"]


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
