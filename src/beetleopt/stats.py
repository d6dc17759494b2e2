"""Run summaries and the rank aggregation used to compare algorithms.

A repeated cell (algorithm x function) reduces to best/mean/worst/std of
the runs' final values.  Per function, algorithms are ranked on a primary
statistic with dense shared ranks (every tie at the top is rank 1); ranks
are then summed and averaged across a block of functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

RANK_STATISTICS = ("best", "mean")


@dataclass(frozen=True)
class RunRecord:
    """Output of one seeded run: the best-so-far trace plus its summary."""

    algorithm: str
    benchmark: str
    seed: int
    trace: np.ndarray
    final_best: float
    evaluations: int


@dataclass
class SummaryRow:
    """Statistics of one cell's repeated runs, plus its rank once assigned.

    A cell with no completed run has ``None`` for every statistic.
    """

    best: Optional[float]
    mean: Optional[float]
    worst: Optional[float]
    std: Optional[float]
    rank: Optional[int] = None


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; rejects empty input."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("mean of an empty sequence")
    return float(np.mean(arr))


def stddev(values: Sequence[float]) -> float:
    """Sample standard deviation (1/(T-1) normalization); needs T >= 2."""
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        raise ValueError("stddev needs at least two values")
    return float(np.std(arr, ddof=1))


def best(values: Sequence[float]) -> float:
    """Minimum value; rejects empty input."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("best of an empty sequence")
    return float(np.min(arr))


def summarize(finals: Sequence[float]) -> SummaryRow:
    """Best/mean/worst/std of a cell's final values (std None for one run)."""
    return SummaryRow(
        best=best(finals),
        mean=mean(finals),
        worst=float(np.max(np.asarray(finals, dtype=float))),
        std=stddev(finals) if len(finals) >= 2 else None,
    )


def rank_functions(
    summaries: Mapping[str, SummaryRow], statistic: str = "best"
) -> Dict[str, int]:
    """Rank algorithms on one function; equal statistics share a dense rank.

    Rank 1 goes to the smallest value of the chosen statistic; ties share
    the rank and the next distinct value gets the next integer.  Non-finite
    statistics (NaN, +-inf) and missing ones (``None``) rank after every
    finite one and share that last rank.
    """
    if statistic not in RANK_STATISTICS:
        raise ValueError(f"rank statistic must be one of {RANK_STATISTICS}, got {statistic!r}")
    values = {algo: getattr(row, statistic) for algo, row in summaries.items()}
    distinct = sorted({v for v in values.values() if v is not None and math.isfinite(v)})
    position = {v: i + 1 for i, v in enumerate(distinct)}
    ranks = {algo: position.get(v, len(distinct) + 1) for algo, v in values.items()}
    for algo, row in summaries.items():
        row.rank = ranks[algo]
    return ranks


def aggregate_ranks(
    per_function: Mapping[str, Mapping[str, int]]
) -> Dict[str, Dict[str, float]]:
    """Sum and mean of each algorithm's ranks across a block of functions."""
    if not per_function:
        return {}
    algos = None
    for ranks in per_function.values():
        keys = set(ranks)
        if algos is None:
            algos = keys
        elif keys != algos:
            raise ValueError("every function must rank the same algorithms")
    totals = {a: sum(ranks[a] for ranks in per_function.values()) for a in algos}
    count = len(per_function)
    return {a: {"sum_rank": float(totals[a]), "mean_rank": totals[a] / count} for a in algos}
