"""Bit-exact regression over whole seeded runs (N = 7, T = 12, seed 3).

The single-iteration fixtures in ``golden_step.json`` use one noise-free
objective and the default modes.  These runs add what they cannot see: f7's
noise draw between an agent's draws, the random-agent predator index, reflect
bounds, every chaos map and gsa's shrinking attractor set.  Each case stores
the final best as a hex float, a SHA-256 of the trace bytes and the
evaluation count.

Regenerate (only for an intended change of results) with

    PYTHONPATH=src python tests/test_golden_runs.py
"""

import hashlib
import json
from pathlib import Path

import pytest

import beetleopt as bo
from beetleopt import kernels
from beetleopt.benchmarks import BENCHMARKS
from beetleopt.core import RunConfig

FIXTURE = Path(__file__).parent / "fixtures" / "golden_runs.json"

POPULATION = 7
ITERATIONS = 12
SEED = 3
FUNCTIONS = ("f7", "f15")
#: (bound_mode, chaos_map, predator_mode)
MODE_SETS = (("clamp", "tent", "global-best"), ("reflect", "chebyshev", "random-agent"))
CHAOS_ALGORITHMS = ("bbo", "bto")


def case_ids():
    cases = [
        (algo, func, *modes)
        for algo in sorted(bo.ALGORITHMS)
        for func in FUNCTIONS
        for modes in MODE_SETS
    ]
    for algo in CHAOS_ALGORITHMS:
        for func in FUNCTIONS:
            for chaos_map in sorted(kernels.CHAOS_MAPS):
                case = (algo, func, "clamp", chaos_map, "global-best")
                if case not in cases:
                    cases.append(case)
    return ["/".join(case) for case in cases]


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
