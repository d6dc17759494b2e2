"""Bit-exact regression over whole seeded runs at the paper's population
(N = 30, T = 5, seed 3).

``golden_runs.json`` pins runs of seven agents.  These cases run the
protocol's thirty agents on f7 (one noise draw per evaluation, between the
agents' own draws) and f21, under both mode sets, for all seven algorithms:
thirty-row iterations with noise between the rows, and gsa's attractor set
shrinking from thirty to one.  Each case stores the final best as a hex
float, a SHA-256 of the trace bytes and the evaluation count.

Regenerate (only for an intended change of results) with

    PYTHONPATH=src python tests/test_golden_protocol_runs.py
"""

import hashlib
import json
from pathlib import Path

import pytest

import beetleopt as bo
from beetleopt.benchmarks import BENCHMARKS
from beetleopt.core import RunConfig

FIXTURE = Path(__file__).parent / "fixtures" / "golden_protocol_runs.json"

POPULATION = 30
ITERATIONS = 5
SEED = 3
FUNCTIONS = ("f7", "f21")
#: (bound_mode, chaos_map, predator_mode)
MODE_SETS = (("clamp", "tent", "global-best"), ("reflect", "chebyshev", "random-agent"))


def case_ids():
    return [
        "/".join((algo, func, *modes))
        for algo in sorted(bo.ALGORITHMS)
        for func in FUNCTIONS
        for modes in MODE_SETS
    ]


def run_case(case_id):
    algo, func, bound_mode, chaos_map, predator_mode = case_id.split("/")
    config = RunConfig(
        algorithm=algo,
        benchmark=func,
        population=POPULATION,
        iterations=ITERATIONS,
        seed=SEED,
        chaos_map=chaos_map,
        predator_mode=predator_mode,
        bound_mode=bound_mode,
    )
    record = bo.ALGORITHMS[algo](config, BENCHMARKS[func])
    return {
        "final_best": float(record.final_best).hex(),
        "trace_sha256": hashlib.sha256(record.trace.tobytes()).hexdigest(),
        "evaluations": record.evaluations,
    }


@pytest.mark.parametrize("case_id", case_ids())
def test_run_matches_frozen_fixture(case_id):
    assert run_case(case_id) == json.loads(FIXTURE.read_text())[case_id]


def test_fixture_covers_exactly_the_cases():
    assert sorted(json.loads(FIXTURE.read_text())) == sorted(case_ids())


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps({case_id: run_case(case_id) for case_id in case_ids()}, indent=1, sort_keys=True) + "\n"
    )
