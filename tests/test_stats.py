import math

import numpy as np
import pytest

from beetleopt.stats import (
    SummaryRow,
    aggregate_ranks,
    best,
    mean,
    rank_functions,
    stddev,
    summarize,
)

ALGOS = ("cdo", "sso", "gsa", "pso", "bto", "gwo", "bbo")

# Best statistics reported in the literature for these seven optimizers on
# the unimodal block, with the rank rows quoted alongside them.  Used as a
# fixture for the ranking arithmetic only.
BLOCK1_BEST = {
    "f1": (2.29e-262, 7.58e-228, 1.01e-16, 2.60e-10, 0.00, 6.73e-60, 0.00),
    "f2": (2.79e-135, 1.24e-129, 7.53e-08, 6.52e-06, 3.1371e-310, 5.70e-35, 0.00),
    "f3": (1.83e-226, 5.68e-111, 5.79e02, 13.89951, 0.00, 7.54e-15, 0.00),
    "f4": (1.52e-126, 1.14e-90, 2.4705831, 0.6105174, 2.39e-303, 1.58e-15, 0.00),
    "f5": (27.2393, 28.08445, 26.834915, 22.63784, 8.91678572, 28.7275415, 0.00),
    "f6": (7.5, 4.6204259, 297.666, 2.72e-09, 0.46577979, 0.75328863, 0.00),
    "f7": (3.19e-05, 9.24e-06, 0.0725943, 0.043291, 6.06e-05, 0.00149316, 9.15e-06),
}
BLOCK1_RANKS = {
    "f1": (2, 3, 5, 6, 1, 4, 1),
    "f2": (3, 4, 6, 7, 2, 5, 1),
    "f3": (2, 3, 6, 5, 1, 4, 1),
    "f4": (3, 4, 7, 6, 2, 5, 1),
    "f5": (5, 6, 4, 3, 2, 7, 1),
    "f6": (6, 5, 7, 2, 3, 4, 1),
    "f7": (3, 2, 7, 6, 4, 5, 1),
}
BLOCK1_SUM_RANK = (24, 27, 42, 35, 15, 34, 7)


def rows_from_best(values):
    return {algo: SummaryRow(best=v, mean=v, worst=v, std=0.0) for algo, v in zip(ALGOS, values)}


def two_pass_mean(values):
    return math.fsum(values) / len(values)


def two_pass_std(values):
    m = two_pass_mean(values)
    return math.sqrt(math.fsum((v - m) ** 2 for v in values) / (len(values) - 1))


class TestBasicStatistics:
    def test_mean_examples(self):
        assert mean([1, 2, 3]) == 2.0
        assert mean([5]) == 5.0
        assert mean([0.5, 1.5, 2.5, 3.5]) == 2.0

    def test_stddev_examples(self):
        assert stddev([4.0, 4.0, 4.0]) == 0.0
        assert stddev([1, 2, 3]) == 1.0
        assert stddev([0, 2]) == pytest.approx(math.sqrt(2))

    def test_best_examples(self):
        assert best([3, 1, 2]) == 1
        assert best([-5]) == -5
        assert best([-12569.5, 0, 7]) == -12569.5

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            mean([])
        with pytest.raises(ValueError):
            best([])
        with pytest.raises(ValueError):
            stddev([1.0])

    def test_against_two_pass_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(1000):
            n = int(rng.integers(2, 50))
            values = list(rng.normal(scale=rng.uniform(1e-6, 1e6), size=n))
            assert mean(values) == pytest.approx(two_pass_mean(values), rel=1e-12)
            assert best(values) == min(values)
            oracle = two_pass_std(values)
            assert stddev(values) == pytest.approx(oracle, rel=1e-12, abs=1e-300)

    def test_summarize_ordering_invariant(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            values = list(rng.normal(size=int(rng.integers(2, 12))))
            row = summarize(values)
            assert row.best <= row.mean <= row.worst
            assert row.std >= 0.0

    def test_summarize_single_run_has_no_std(self):
        row = summarize([4.2])
        assert row.best == row.mean == row.worst == 4.2
        assert row.std is None


class TestRankFunctions:
    def test_published_rank_rows_reproduce(self):
        for fid, values in BLOCK1_BEST.items():
            ranks = rank_functions(rows_from_best(values), "best")
            expected = dict(zip(ALGOS, BLOCK1_RANKS[fid]))
            assert ranks == expected, fid

    def test_full_tie_all_rank_one(self):
        rows = rows_from_best([1.5] * len(ALGOS))
        assert set(rank_functions(rows, "best").values()) == {1}

    def test_block_aggregation_footer(self):
        per_function = {
            fid: rank_functions(rows_from_best(values), "best")
            for fid, values in BLOCK1_BEST.items()
        }
        aggregate = aggregate_ranks(per_function)
        for algo, expected_sum in zip(ALGOS, BLOCK1_SUM_RANK):
            assert aggregate[algo]["sum_rank"] == expected_sum
            assert aggregate[algo]["mean_rank"] == pytest.approx(expected_sum / 7)
        assert aggregate["bbo"]["sum_rank"] == 7
        assert aggregate["bbo"]["mean_rank"] == 1.0

    def test_ranks_are_dense_from_one(self):
        rng = np.random.default_rng(37)
        for _ in range(300):
            values = rng.integers(0, 5, size=len(ALGOS)).astype(float)
            ranks = rank_functions(rows_from_best(values), "best")
            observed = sorted(set(ranks.values()))
            assert observed == list(range(1, len(observed) + 1))
            assert max(ranks.values()) <= len(ALGOS)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            values = rng.normal(size=len(ALGOS))
            base = rank_functions(rows_from_best(values), "best")
            squashed = rank_functions(rows_from_best(np.exp(values) * 3.0 + 1.0), "best")
            assert base == squashed

    def test_mean_statistic_option(self):
        rows = {
            "a": SummaryRow(best=0.0, mean=5.0, worst=9.0, std=1.0),
            "b": SummaryRow(best=1.0, mean=2.0, worst=9.0, std=1.0),
        }
        assert rank_functions(rows, "best") == {"a": 1, "b": 2}
        assert rank_functions(rows, "mean") == {"a": 2, "b": 1}
        with pytest.raises(ValueError):
            rank_functions(rows, "worst")

    def test_rank_written_back_to_rows(self):
        rows = rows_from_best([3.0, 1.0, 2.0, 5.0, 4.0, 6.0, 0.0])
        ranks = rank_functions(rows, "best")
        for algo, row in rows.items():
            assert row.rank == ranks[algo]

    def test_mean_rank_consistent_with_sum(self):
        rng = np.random.default_rng(43)
        per_function = {
            f"f{i}": rank_functions(rows_from_best(rng.normal(size=len(ALGOS))), "best")
            for i in range(5)
        }
        aggregate = aggregate_ranks(per_function)
        for algo in ALGOS:
            total = sum(per_function[f]["%s" % algo] for f in per_function)
            assert aggregate[algo]["sum_rank"] == total
            assert aggregate[algo]["mean_rank"] == pytest.approx(total / 5)

    def test_non_finite_values_rank_last_as_one_tie(self):
        nan = float("nan")
        rows = {
            algo: SummaryRow(best=v, mean=v, worst=v, std=0.0)
            for algo, v in {"a": nan, "b": 1.0, "c": nan, "d": 0.5, "e": math.inf}.items()
        }
        assert rank_functions(rows, "best") == {"a": 3, "b": 2, "c": 3, "d": 1, "e": 3}

    def test_mismatched_algorithms_rejected(self):
        with pytest.raises(ValueError):
            aggregate_ranks({"f1": {"a": 1}, "f2": {"b": 1}})


class TestMissingCells:
    def test_missing_cell_ranks_last_with_non_finite(self):
        rows = {
            "a": SummaryRow(best=2.0, mean=2.0, worst=2.0, std=None),
            "b": SummaryRow(best=None, mean=None, worst=None, std=None),
            "c": SummaryRow(best=1.0, mean=1.0, worst=1.0, std=None),
            "d": SummaryRow(best=float("nan"), mean=float("nan"), worst=float("nan"), std=None),
        }
        assert rank_functions(rows, "best") == {"a": 2, "b": 3, "c": 1, "d": 3}
        assert rows["b"].rank == 3
