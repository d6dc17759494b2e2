"""The plan file's keys: ``show-defaults`` output and the unknown-key hint,
pinned byte for byte, every key's parse round trip, the plans under
``tools/plans`` and the host class ``tools/bench_pairs.py`` reports."""

import importlib.util
import platform
from pathlib import Path

import numpy as np
import pytest

from beetleopt.cli import main as cli_main
from beetleopt.core import ConfigurationError
from beetleopt.harness import ExperimentPlan, parse_config

SHOW_DEFAULTS = (
    "algorithms = cdo sso gsa pso bto gwo bbo\n"
    "functions = f1 f2 f3 f4 f5 f6 f7 f8 f9 f10 f11 f12 f13 f14 f15 f16 f17 f18 f19 f20 f21 f22 f23\n"
    "runs = 10\n"
    "population = 30\n"
    "iterations = 1000\n"
    "chaos_map = tent\n"
    "predator_mode = global-best\n"
    "bound_mode = clamp\n"
    "rank_statistic = best\n"
)

UNKNOWN_KEY = (
    "line 1: unknown key 'swarm' (known: algorithms, functions, runs, population, iterations, "
    "chaos_map, predator_mode, bound_mode, rank_statistic)"
)


def test_show_defaults_output_is_pinned(capsys):
    assert cli_main(["show-defaults"]) == 0
    assert capsys.readouterr().out == SHOW_DEFAULTS


def test_show_defaults_parses_to_the_default_plan():
    assert parse_config(SHOW_DEFAULTS) == ExperimentPlan()


def test_unknown_key_hint_is_pinned():
    with pytest.raises(ConfigurationError) as info:
        parse_config("swarm = 1")
    assert str(info.value) == UNKNOWN_KEY


@pytest.mark.parametrize(
    "line, field, value",
    [
        ("algorithms = bbo gwo", "algorithms", ("bbo", "gwo")),
        ("functions = f3, f21", "functions", ("f3", "f21")),
        ("runs = 4", "runs", 4),
        ("population = 12", "population", 12),
        ("iterations = 77", "iterations", 77),
        ("chaos_map = singer", "chaos_map", "singer"),
        ("predator_mode = random-agent", "predator_mode", "random-agent"),
        ("bound_mode = reflect", "bound_mode", "reflect"),
        ("rank_statistic = mean", "rank_statistic", "mean"),
    ],
)
def test_every_key_sets_its_field(line, field, value):
    assert getattr(parse_config(line), field) == value


@pytest.mark.parametrize(
    "line, message",
    [
        ("runs = many", "line 1: runs must be an integer, got 'many'"),
        ("population = 1", "line 1: population must be >= 2, got 1"),
        ("iterations = 0", "line 1: iterations must be >= 1, got 0"),
        ("bound_mode = wrap", "line 1: bound_mode must be one of ('clamp', 'reflect'), got 'wrap'"),
        ("algorithms = bbo bbo", "line 1: duplicate algorithm id 'bbo'"),
        ("functions = ", "line 1: empty function list"),
    ],
)
def test_value_errors_are_pinned(line, message):
    with pytest.raises(ConfigurationError) as info:
        parse_config(line)
    assert str(info.value) == message


def test_a_key_given_twice_is_refused():
    # the second value used to replace the first without a word
    with pytest.raises(ConfigurationError) as info:
        parse_config("runs = 1\nalgorithms = pso\n\nruns = 2\n")
    assert str(info.value) == "line 4: duplicate key 'runs' (first on line 1)"
    with pytest.raises(ConfigurationError) as info:
        parse_config("runs = banana\nruns = 2\nruns = 3\n")
    assert str(info.value).splitlines() == [
        "line 1: runs must be an integer, got 'banana'",
        "line 2: duplicate key 'runs' (first on line 1)",
        "line 3: duplicate key 'runs' (first on line 1)",
    ]


#: the byte-compare and timing plans of ``tools/bench_pairs.py --plan``
PLANS = sorted((Path(__file__).resolve().parent.parent / "tools" / "plans").glob("*.plan"))


def test_the_referee_plans_are_found():
    assert {"complete.plan", "complete_modes.plan", "noisy.plan"} <= {path.name for path in PLANS}


@pytest.mark.parametrize("path", PLANS, ids=lambda path: path.name)
def test_every_referee_plan_parses(path):
    # each plan states its own shape, so none of them is the default plan
    assert parse_config(path.read_text()) != ExperimentPlan()


def test_bench_pairs_reports_the_host_class():
    path = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    host = bench_pairs.host()
    assert host["numpy"] == np.__version__
    assert host["libc"] == list(platform.libc_ver())
    assert isinstance(host["cpu_features"], list) and all(isinstance(name, str) for name in host["cpu_features"])
