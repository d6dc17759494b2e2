"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The end-to-end check
(criterion 8) executes the reduced default plan twice and is the slow one.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import beetleopt as bo
from beetleopt import benchmarks, stats
from beetleopt.benchmarks import BENCHMARKS
from beetleopt.cli import main as cli_main
from beetleopt.core import RunConfig, SearchSpace
from beetleopt.harness import ALGORITHMS, ExperimentPlan, run_experiment
from beetleopt.kernels import CirclePair, circle_intersection_area

from conftest import CheckedObjective


def passed(number, name):
    print(f"[criterion {number}] {name}: PASS")


# --- criterion 1: benchmark fidelity -----------------------------------------


def test_criterion_1_benchmark_fidelity():
    for fid in benchmarks.ids():
        spec = BENCHMARKS[fid]
        argmin = spec.argmin_array()
        if fid == "f7":
            # noise-only at the origin: base term is zero, draw adds [0, 1)
            value = spec.evaluator(argmin)
            assert 0.0 <= value < 1.0
            continue
        value = spec.evaluator(argmin)
        tolerance = 0.5 if fid == "f8" else 1e-3
        assert abs(value - spec.known_optimum) <= tolerance, fid
    assert abs(BENCHMARKS["f8"].evaluator(BENCHMARKS["f8"].argmin_array()) - (-12569.5)) <= 0.5
    passed(1, "benchmark fidelity")


# --- criterion 2: geometry oracle ---------------------------------------------


def _monte_carlo_lens(radius_a, radius_b, distance, samples, rng):
    lo_x, hi_x = max(-radius_a, distance - radius_b), min(radius_a, distance + radius_b)
    lo_y, hi_y = -min(radius_a, radius_b), min(radius_a, radius_b)
    if lo_x >= hi_x or lo_y >= hi_y:
        return 0.0
    xs = rng.uniform(lo_x, hi_x, samples)
    ys = rng.uniform(lo_y, hi_y, samples)
    inside = (xs**2 + ys**2 <= radius_a**2) & ((xs - distance) ** 2 + ys**2 <= radius_b**2)
    return float(inside.mean() * (hi_x - lo_x) * (hi_y - lo_y))


def test_criterion_2_geometry_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        radius_a, radius_b, distance = rng.random(3)
        exact = circle_intersection_area(CirclePair(radius_a, radius_b, distance))
        approx = _monte_carlo_lens(radius_a, radius_b, distance, 1_000_000, rng)
        worst = max(worst, abs(exact - approx))
        # symmetry, exact
        flipped = circle_intersection_area(CirclePair(radius_b, radius_a, distance))
        assert abs(exact - flipped) <= 1e-12
    assert worst <= 2e-2, f"worst Monte-Carlo deviation {worst}"
    for radius_a, radius_b in [(0.8, 0.3), (0.5, 0.5), (1.0, 0.2), (0.33, 0.77)]:
        for pivot in (radius_a + radius_b, abs(radius_a - radius_b)):
            below = circle_intersection_area(CirclePair(radius_a, radius_b, max(0.0, pivot - 1e-9)))
            above = circle_intersection_area(CirclePair(radius_a, radius_b, pivot + 1e-9))
            assert abs(above - below) < 1e-6
    passed(2, f"geometry oracle (max |err| = {worst:.2e})")


# --- criterion 3: universal optimizer properties ------------------------------

BUDGET_PER_ITERATION = {algo: 1 for algo in ALGORITHMS}
BUDGET_PER_ITERATION["bbo"] = 2


def test_criterion_3_universal_properties():
    population, iterations = 10, 200
    seeds = (1, 2, 3, 4, 5)
    functions = ("f1", "f9", "f14")
    for algo, runner in ALGORITHMS.items():
        per_iter = BUDGET_PER_ITERATION[algo]
        for fid in functions:
            spec = BENCHMARKS[fid]
            space = spec.space()
            for seed in seeds:
                cfg = RunConfig(
                    algorithm=algo,
                    benchmark=fid,
                    population=population,
                    iterations=iterations,
                    seed=seed,
                )
                checked = CheckedObjective(lambda x, s=spec: s.evaluator(x), space)
                record = runner(cfg, checked, space)
                again = runner(cfg, spec)
                # non-increasing best-so-far
                assert np.all(np.diff(record.trace) <= 0), (algo, fid, seed)
                # bit-identical rerun (second one through the registry path)
                assert np.array_equal(record.trace, again.trace), (algo, fid, seed)
                # exact evaluation budget, counted at the objective
                expected = population + per_iter * population * iterations
                assert record.evaluations == checked.n == expected, (algo, fid, seed)
    passed(3, "universal optimizer properties (7 algorithms x 5 seeds x 3 functions)")


# --- criterion 4: desk-scale protocol reproduction ---------------------------


def _random_search_final(fid, budget, seed):
    """Uniform random search oracle with an independent vectorized evaluator."""
    spec = BENCHMARKS[fid]
    rng = np.random.default_rng(seed)
    samples = spec.lower + rng.random((budget, spec.dim)) * (spec.upper - spec.lower)
    if fid == "f1":
        values = np.sum(samples**2, axis=1)
    elif fid == "f9":
        values = np.sum(samples**2 - 10.0 * np.cos(2 * np.pi * samples) + 10.0, axis=1)
    elif fid == "f10":
        dim = spec.dim
        values = (
            -20.0 * np.exp(-0.2 * np.sqrt(np.sum(samples**2, axis=1) / dim))
            - np.exp(np.sum(np.cos(2 * np.pi * samples), axis=1) / dim)
            + 20.0
            + np.e
        )
    elif fid == "f11":
        idx = np.sqrt(np.arange(1, spec.dim + 1))
        values = (
            np.sum(samples**2, axis=1) / 4000.0
            - np.prod(np.cos(samples / idx), axis=1)
            + 1.0
        )
    else:
        raise AssertionError(fid)
    return float(values.min())


def test_criterion_4_desk_scale_protocol():
    population, iterations, runs = 30, 1000, 10
    budget = population + 2 * population * iterations
    functions = ("f1", "f9", "f10", "f11")
    # seeds 1-10 of each function, run as one lockstep group whose runs of
    # one function are evaluated in 10-row blocks
    plan = ExperimentPlan(
        algorithms=("bbo",), functions=functions, runs=runs, population=population, iterations=iterations
    )
    result = run_experiment(plan)
    assert not result.failures
    finals = {fid: [] for fid in functions}
    for record in result.records:
        assert record.evaluations == budget
        finals[record.benchmark].append(record.final_best)
    # the public one-run path gives each function's group record bit for bit
    for k, fid in enumerate(functions):
        cfg = RunConfig(algorithm="bbo", benchmark=fid, population=population, iterations=iterations, seed=1 + 3 * k)
        solo = bo.bbo_run(cfg, BENCHMARKS[fid])
        (grouped,) = [r for r in result.records if (r.benchmark, r.seed) == (fid, cfg.seed)]
        assert solo.trace.tobytes() == grouped.trace.tobytes()
        assert solo.evaluations == grouped.evaluations

    assert float(np.median(finals["f1"])) <= 1e-6
    assert min(finals["f9"]) <= 1e-3
    for fid in ("f1", "f9", "f10", "f11"):
        baseline = np.median(
            [_random_search_final(fid, budget, 9000 + r) for r in range(runs)]
        )
        ours = float(np.median(finals[fid]))
        assert ours < baseline, (fid, ours, baseline)
    passed(
        4,
        "desk-scale protocol (f1 median %.1e, f9 best %.1e, beats random search)"
        % (np.median(finals["f1"]), min(finals["f9"])),
    )


# --- criterion 5: statistics oracle -------------------------------------------


def test_criterion_5_statistics_oracle():
    rng = np.random.default_rng(55)
    for _ in range(1000):
        n = int(rng.integers(2, 60))
        values = list(rng.normal(scale=10.0 ** rng.integers(-6, 7), size=n))
        m = math.fsum(values) / n
        s = math.sqrt(math.fsum((v - m) ** 2 for v in values) / (n - 1))
        assert stats.mean(values) == pytest.approx(m, rel=1e-12)
        assert stats.best(values) == min(values)
        assert stats.stddev(values) == pytest.approx(s, rel=1e-12, abs=1e-300)
    assert stats.stddev([1.0, 2.0, 3.0]) == 1.0
    passed(5, "statistics oracle (1000 sequences, <= 1e-12 relative)")


# --- criterion 6: ranking arithmetic ------------------------------------------

ALGOS = ("cdo", "sso", "gsa", "pso", "bto", "gwo", "bbo")
PUBLISHED_BEST = {
    "f1": (2.29e-262, 7.58e-228, 1.01e-16, 2.60e-10, 0.00, 6.73e-60, 0.00),
    "f2": (2.79e-135, 1.24e-129, 7.53e-08, 6.52e-06, 3.1371e-310, 5.70e-35, 0.00),
    "f3": (1.83e-226, 5.68e-111, 5.79e02, 13.89951, 0.00, 7.54e-15, 0.00),
    "f4": (1.52e-126, 1.14e-90, 2.4705831, 0.6105174, 2.39e-303, 1.58e-15, 0.00),
    "f5": (27.2393, 28.08445, 26.834915, 22.63784, 8.91678572, 28.7275415, 0.00),
    "f6": (7.5, 4.6204259, 297.666, 2.72e-09, 0.46577979, 0.75328863, 0.00),
    "f7": (3.19e-05, 9.24e-06, 0.0725943, 0.043291, 6.06e-05, 0.00149316, 9.15e-06),
}
PUBLISHED_F2_RANKS = dict(zip(ALGOS, (3, 4, 6, 7, 2, 5, 1)))


def test_criterion_6_ranking_arithmetic():
    per_function = {}
    for fid, values in PUBLISHED_BEST.items():
        rows = {
            algo: stats.SummaryRow(best=v, mean=v, worst=v, std=0.0)
            for algo, v in zip(ALGOS, values)
        }
        per_function[fid] = stats.rank_functions(rows, "best")
    assert per_function["f2"] == PUBLISHED_F2_RANKS
    aggregate = stats.aggregate_ranks(per_function)
    assert aggregate["bbo"]["sum_rank"] == 7
    assert aggregate["bbo"]["mean_rank"] == 1.0
    passed(6, "ranking arithmetic (published block: f2 row, sum rank 7, mean rank 1)")


# --- criterion 7: golden-fixture regression -----------------------------------


def test_criterion_7_golden_fixtures():
    fixtures = json.loads(
        (Path(__file__).parent / "fixtures" / "golden_step.json").read_text()
    )
    space = SearchSpace.cube(2, -100.0, 100.0)
    for algo in sorted(ALGORITHMS):
        cfg = RunConfig(algorithm=algo, population=3, iterations=1, seed=123)
        record = ALGORITHMS[algo](cfg, benchmarks.sphere, space)
        assert record.final_best == float.fromhex(fixtures[algo]["best"]), algo
    passed(7, "golden-fixture regression (7 algorithms, bit-exact)")


# --- criterion 8: end-to-end determinism --------------------------------------


def _tree_digest(root: Path):
    files = sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())
    return {str(p): (root / p).read_bytes() for p in files}


def test_criterion_8_end_to_end(tmp_path):
    config = tmp_path / "plan.txt"
    config.write_text("runs = 3\npopulation = 10\niterations = 100\n")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", str(config), "--out", str(out_a), "--seed", "5"]) == 0
    assert cli_main(["run", str(config), "--out", str(out_b), "--seed", "5"]) == 0

    digest_a, digest_b = _tree_digest(out_a), _tree_digest(out_b)
    assert digest_a.keys() == digest_b.keys()
    for name in digest_a:
        assert digest_a[name] == digest_b[name], f"artifact differs: {name}"

    convergence = [n for n in digest_a if n.startswith("convergence/")]
    assert len(convergence) == 7 * 23
    for block in ("f1-f7", "f8-f13", "f14-f23"):
        assert f"summary/{block}.csv" in digest_a
        assert f"summary/{block}.txt" in digest_a
    assert "ranks.csv" in digest_a
    passed(8, f"end-to-end determinism ({len(digest_a)} byte-identical artifacts)")
