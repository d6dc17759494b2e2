"""Experiment runner: parse a plan, execute seeded runs for every
(algorithm x function) cell, and emit convergence traces and summary tables.

Outputs under the chosen directory:

* ``convergence/<algo>_<func>.csv`` -- one row per (run, iteration) with the
  best-so-far value at 17 significant digits.
* ``summary/<block>.csv`` and ``summary/<block>.txt`` -- per function block,
  Best/Mean/Worst/Std/Rank per algorithm plus Sum Rank / Mean Rank footers.
* ``ranks.csv`` -- per-algorithm sum and mean rank across all functions.

Everything is deterministic given (config text, base seed): run ``r`` of any
cell uses seed ``base_seed + r``, records are merged by (algorithm,
function, run) before emission, and number formatting is fixed.
"""

from __future__ import annotations

import concurrent.futures
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from . import baselines, bbo, benchmarks, kernels, stats
from .core import (
    BOUND_MODES,
    DEFAULT_ITERATIONS,
    DEFAULT_POPULATION,
    PREDATOR_MODES,
    ConfigurationError,
    RunConfig,
    drive,
)
from .stats import RANK_STATISTICS, RunRecord, SummaryRow

#: algorithm id -> its :class:`~beetleopt.core.Algorithm` entry, in the
#: column order used by the summary tables
ENTRIES = {
    entry.id: entry
    for entry in (baselines.CDO, baselines.SSO, baselines.GSA, baselines.PSO, baselines.BTO, baselines.GWO, bbo.BBO)
}
#: algorithm id -> ``run(config, spec)``, which a tracer or a test double
#: may replace
ALGORITHMS = {algorithm: entry.run for algorithm, entry in ENTRIES.items()}

DEFAULT_RUNS = 10

#: Function blocks matching the three summary tables.
SUMMARY_BLOCKS = (
    ("f1-f7", tuple(f"f{i}" for i in range(1, 8))),
    ("f8-f13", tuple(f"f{i}" for i in range(8, 14))),
    ("f14-f23", tuple(f"f{i}" for i in range(14, 24))),
)

@dataclass
class ExperimentPlan:
    """A batch of cells plus the shared run settings."""

    algorithms: Tuple[str, ...] = tuple(ALGORITHMS)
    functions: Tuple[str, ...] = tuple(benchmarks.ids())
    runs: int = DEFAULT_RUNS
    population: int = DEFAULT_POPULATION
    iterations: int = DEFAULT_ITERATIONS
    chaos_map: str = RunConfig.chaos_map
    predator_mode: str = RunConfig.predator_mode
    bound_mode: str = RunConfig.bound_mode
    rank_statistic: str = "best"
    base_seed: int = 1
    out_dir: str = "results"

    def cells(self) -> List[Tuple[str, str]]:
        return [(a, f) for a in self.algorithms for f in self.functions]

    def config_for(self, algorithm: str, function: str, run_index: int) -> RunConfig:
        return RunConfig(
            algorithm=algorithm,
            benchmark=function,
            population=self.population,
            iterations=self.iterations,
            seed=self.base_seed + run_index,
            chaos_map=self.chaos_map,
            predator_mode=self.predator_mode,
            bound_mode=self.bound_mode,
        )


@dataclass
class ExperimentResult:
    records: List[RunRecord]
    failures: List[Tuple[str, str, int, str]]  # (algorithm, function, run, message)
    #: ``(algorithm, functions, message)`` of each group whose lockstep pass
    #: raised, so that its runs were repeated one by one; no artifact holds it
    fallbacks: List[Tuple[str, Tuple[str, ...], str]] = field(default_factory=list)


def _parse_list(value: str, known: Sequence[str], what: str) -> Tuple[str, ...]:
    if value.strip() == "all":
        return tuple(known)
    items = tuple(tok for tok in value.replace(",", " ").split() if tok)
    if not items:
        raise ValueError(f"empty {what} list")
    for index, item in enumerate(items):
        if item not in known:
            raise ValueError(f"unknown {what} id {item!r}")
        if item in items[:index]:
            raise ValueError(f"duplicate {what} id {item!r}")
    return items


def _parse_positive_int(value: str, minimum: int, what: str) -> int:
    try:
        number = int(value)
    except ValueError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if number < minimum:
        raise ValueError(f"{what} must be >= {minimum}, got {number}")
    return number


def _parse_choice(value: str, choices: Sequence[str], what: str) -> str:
    if value not in choices:
        raise ValueError(f"{what} must be one of {tuple(choices)}, got {value!r}")
    return value


#: The plan file's keys, in ``show-defaults`` order: each names the
#: :class:`ExperimentPlan` field it sets and maps to its value's parser.
_CONFIG_KEYS = {
    "algorithms": lambda value: _parse_list(value, tuple(ALGORITHMS), "algorithm"),
    "functions": lambda value: _parse_list(value, benchmarks.ids(), "function"),
    "runs": lambda value: _parse_positive_int(value, 1, "runs"),
    "population": lambda value: _parse_positive_int(
        value, min(entry.min_population for entry in ENTRIES.values()), "population"
    ),
    "iterations": lambda value: _parse_positive_int(value, 1, "iterations"),
    "chaos_map": lambda value: _parse_choice(value, sorted(kernels.CHAOS_MAPS), "chaos_map"),
    "predator_mode": lambda value: _parse_choice(value, PREDATOR_MODES, "predator_mode"),
    "bound_mode": lambda value: _parse_choice(value, BOUND_MODES, "bound_mode"),
    "rank_statistic": lambda value: _parse_choice(value, RANK_STATISTICS, "rank_statistic"),
}


def format_plan(plan: ExperimentPlan) -> str:
    """The plan's settings as config lines, one per key, which
    :func:`parse_config` reads back."""
    lines = []
    for key in _CONFIG_KEYS:
        value = getattr(plan, key)
        lines.append(f"{key} = {' '.join(value) if isinstance(value, tuple) else value}")
    return "\n".join(lines)


def parse_config(text: str) -> ExperimentPlan:
    """Parse the line-oriented ``key = value`` plan format.

    Unknown keys, malformed values and unknown ids are all collected and
    reported together, each with its line number.  Keys left out keep their
    defaults (all algorithms, all functions, 10 runs of 30 agents for 1000
    iterations).  A population below an algorithm's minimum (its entry's
    ``min_population``) is reported on the ``population`` line, whichever
    line lists the algorithms.  A key given twice is reported on its second
    line.
    """
    plan = ExperimentPlan()
    errors = []
    first_lines = {}
    population_line = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        parse = _CONFIG_KEYS.get(key)
        if parse is None:
            errors.append(f"line {lineno}: unknown key {key!r} (known: {', '.join(_CONFIG_KEYS)})")
            continue
        if key in first_lines:
            errors.append(f"line {lineno}: duplicate key {key!r} (first on line {first_lines[key]})")
            continue
        first_lines[key] = lineno
        try:
            setattr(plan, key, parse(value))
        except ValueError as exc:
            errors.append(f"line {lineno}: {exc}")
            continue
        if key == "population":
            population_line = lineno
    short = [a for a in plan.algorithms if plan.population < ENTRIES[a].min_population]
    if short:  # only a population line can go below the default
        minimum = max(ENTRIES[a].min_population for a in short)
        errors.append(
            f"line {population_line}: population must be >= {minimum} for {' '.join(short)}, "
            f"got {plan.population}"
        )
    if errors:
        raise ConfigurationError("\n".join(errors))
    return plan


def execute_group(algorithm: str, runs) -> tuple:
    """Run a group of ``(function, config)`` runs of one algorithm whose
    functions share a dimension; returns each run's record, or the
    exception it raised, in order, and the group's fallback or None.

    The runs advance in lockstep (:func:`core.drive`).  If that raises, each
    run is repeated alone, so only the failing one is lost and the others
    keep the records they get alone; the fallback ``(algorithm, functions,
    message)`` says so.  While ``ALGORITHMS[algorithm]`` is swapped for
    another callable (a tracer, a test double), that callable runs once per
    run instead, given the run's config and benchmark spec.
    """
    fallback = None
    entry = ENTRIES[algorithm]
    # a bound method equals another only with the same function and object
    if ALGORITHMS[algorithm] == entry.run:
        configs = [config for _, config in runs]
        try:
            records = drive(entry, configs, [benchmarks.get(f) for f, _ in runs], [None] * len(runs))
            return records, None
        except Exception as exc:  # recorded, not fatal
            if len(runs) == 1:
                return [exc], None
            fallback = (algorithm, tuple(dict.fromkeys(f for f, _ in runs)), str(exc))
    outcomes = []
    for function, config in runs:
        try:
            outcomes.append(ALGORITHMS[algorithm](config, benchmarks.get(function)))
        except Exception as exc:  # recorded, not fatal
            outcomes.append(exc)
    return outcomes, fallback


def plan_groups(plan: ExperimentPlan) -> List[Tuple[str, list]]:
    """The plan's runs as ``(algorithm, [(function, config), ...])`` groups,
    one per algorithm and function dimension, in plan order."""
    groups: Dict[Tuple[str, int], list] = {}
    for algorithm, function in plan.cells():
        runs = groups.setdefault((algorithm, benchmarks.get(function).dim), [])
        runs.extend((function, plan.config_for(algorithm, function, r)) for r in range(plan.runs))
    return [(algorithm, runs) for (algorithm, _), runs in groups.items()]


def worker_count(jobs: int, tasks: int) -> int:
    """Worker processes for ``jobs`` requested over ``tasks`` groups.

    Never more than the CPUs this process may run on (its affinity mask,
    where the platform has one, else the CPU count) or the groups there
    are; 1 means the serial path.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(jobs, cpus, tasks))


def run_experiment(plan: ExperimentPlan, jobs: int = 1) -> ExperimentResult:
    """Execute every cell x run of the plan.

    Runs of one algorithm whose functions share a dimension form a group
    (:func:`plan_groups`) that runs in lockstep, and ``jobs > 1`` fans the
    groups out to worker processes (at most :func:`worker_count` of them);
    results are merged by (algorithm, function, run) and are identical
    regardless of grouping and scheduling.  A failing run is recorded and
    skipped rather than aborting the experiment; a group that fell back to
    solo runs is listed in ``fallbacks``.
    """
    groups = plan_groups(plan)
    workers = worker_count(jobs, len(groups))
    if workers == 1:
        outcomes = [execute_group(algorithm, runs) for algorithm, runs in groups]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(execute_group, algorithm, runs) for algorithm, runs in groups]
            outcomes = []
            for future, (_, runs) in zip(futures, groups):
                try:
                    outcomes.append(future.result())
                except Exception as exc:  # a worker lost: every run of its group failed
                    outcomes.append(([exc] * len(runs), None))

    records: List[RunRecord] = []
    failures: List[Tuple[str, str, int, str]] = []
    fallbacks = [fallback for _, fallback in outcomes if fallback is not None]
    for (algorithm, runs), (group_outcomes, _) in zip(groups, outcomes):
        for (function, config), outcome in zip(runs, group_outcomes):
            if isinstance(outcome, Exception):
                failures.append((algorithm, function, config.seed - plan.base_seed, str(outcome)))
            else:
                records.append(outcome)

    records.sort(key=lambda r: (r.algorithm, r.benchmark, r.seed))
    failures.sort()
    return ExperimentResult(records=records, failures=failures, fallbacks=fallbacks)


# --- emission ----------------------------------------------------------------


def _fmt_sci(value: float) -> str:
    return f"{value:.2E}"


def _fmt_trace(value: float) -> str:
    return f"{value:.17g}"


def _group_records(records: Sequence[RunRecord]) -> Dict[Tuple[str, str], List[RunRecord]]:
    cells: Dict[Tuple[str, str], List[RunRecord]] = {}
    for record in records:
        cells.setdefault((record.algorithm, record.benchmark), []).append(record)
    for group in cells.values():
        group.sort(key=lambda r: r.seed)
    return cells


def emit_convergence(records: Sequence[RunRecord], out_dir) -> List[Path]:
    """Write one ``iteration,run,best_so_far`` csv per cell."""
    if not records:
        raise ValueError("no records to emit")
    root = Path(out_dir) / "convergence"
    root.mkdir(parents=True, exist_ok=True)
    written = []
    for (algorithm, function), group in sorted(_group_records(records).items()):
        lines = ["iteration,run,best_so_far"]
        for run_index, record in enumerate(group):
            for iteration, value in enumerate(record.trace, start=1):
                lines.append(f"{iteration},{run_index},{_fmt_trace(value)}")
        path = root / f"{algorithm}_{function}.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(path)
    return written


def summarize_cells(records: Sequence[RunRecord]) -> Dict[str, Dict[str, SummaryRow]]:
    """function -> algorithm -> SummaryRow over the runs' final values."""
    table: Dict[str, Dict[str, SummaryRow]] = {}
    for (algorithm, function), group in _group_records(records).items():
        finals = [r.final_best for r in group]
        table.setdefault(function, {})[algorithm] = stats.summarize(finals)
    return table


def _algorithms_in(records: Sequence[RunRecord], planned: Sequence[str] = ()) -> List[str]:
    present = {r.algorithm for r in records}.union(planned)
    ordered = [a for a in ALGORITHMS if a in present]
    ordered.extend(sorted(present - set(ALGORITHMS)))
    return ordered


def _function_order(functions) -> List[str]:
    known = {f: i for i, f in enumerate(benchmarks.ids())}
    return sorted(functions, key=lambda f: (known.get(f, len(known)), f))


def emit_summary(
    records: Sequence[RunRecord],
    out_dir,
    rank_statistic: str = "best",
    algorithms: Sequence[str] = (),
    functions: Sequence[str] = (),
) -> List[Path]:
    """Write the block summary tables (csv + aligned text) and ranks.csv.

    Every algorithm with a record, and every one named in ``algorithms``
    (the plan's, so one whose runs all failed stays in the tables), gets a
    column for every function with a record or named in ``functions``
    (likewise the plan's); a cell without a record prints ``NA`` and ranks
    last, so a function without any ranks every algorithm as one tie.
    """
    if not records:
        raise ValueError("no records to emit")
    root = Path(out_dir) / "summary"
    root.mkdir(parents=True, exist_ok=True)
    table = summarize_cells(records)
    for function in functions:
        table.setdefault(function, {})
    algorithms = _algorithms_in(records, algorithms)
    for rows in table.values():
        for algorithm in algorithms:
            # every run of this cell failed: NA statistics, ranked last
            rows.setdefault(algorithm, SummaryRow(None, None, None, None))

    ranks_by_function: Dict[str, Dict[str, int]] = {}
    for function, rows in table.items():
        ranks_by_function[function] = stats.rank_functions(rows, rank_statistic)

    written = []
    for block_name, block_functions in SUMMARY_BLOCKS:
        present = [f for f in block_functions if f in table]
        if not present:
            continue
        written.extend(
            _write_block(root, block_name, present, table, ranks_by_function, algorithms)
        )

    aggregate = stats.aggregate_ranks(ranks_by_function)
    lines = ["algorithm,sum_rank,mean_rank"]
    for algorithm in algorithms:
        entry = aggregate[algorithm]
        lines.append(f"{algorithm},{entry['sum_rank']:.0f},{entry['mean_rank']:.2f}")
    ranks_path = Path(out_dir) / "ranks.csv"
    ranks_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    written.append(ranks_path)
    return written


_STATISTICS = ("best", "mean", "worst", "std", "rank")


def _row_values(row: SummaryRow, statistic: str) -> str:
    if statistic == "rank":
        return str(row.rank)
    value = getattr(row, statistic)
    if value is None:
        return "NA"
    return _fmt_sci(value)


def _write_block(root, block_name, functions, table, ranks_by_function, algorithms):
    functions = _function_order(functions)
    block_ranks = {f: ranks_by_function[f] for f in functions}
    aggregate = stats.aggregate_ranks(block_ranks)

    rows = [["function", "statistic", *algorithms]]
    for function in functions:
        for statistic in _STATISTICS:
            cells = [
                _row_values(table[function][algorithm], statistic) for algorithm in algorithms
            ]
            rows.append([function, statistic, *cells])
    rows.append(["all", "sum_rank", *[f"{aggregate[a]['sum_rank']:.0f}" for a in algorithms]])
    rows.append(["all", "mean_rank", *[f"{aggregate[a]['mean_rank']:.2f}" for a in algorithms]])

    csv_path = root / f"{block_name}.csv"
    csv_path.write_text("\n".join(",".join(row) for row in rows) + "\n", encoding="utf-8")

    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    txt_lines = ["  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip() for row in rows]
    txt_path = root / f"{block_name}.txt"
    txt_path.write_text("\n".join(txt_lines) + "\n", encoding="utf-8")
    return [csv_path, txt_path]


def run_and_emit(plan: ExperimentPlan, jobs: int = 1) -> ExperimentResult:
    """Execute the plan and write all artifacts under ``plan.out_dir``,
    which is created first (:class:`ConfigurationError` before any run if it
    cannot be); ``failures.csv`` holds this experiment's failures only."""
    out_dir = Path(plan.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create output directory {out_dir}: {exc.strerror or exc}") from None
    result = run_experiment(plan, jobs=jobs)
    failures_path = out_dir / "failures.csv"
    failures_path.unlink(missing_ok=True)
    if result.failures:
        # imported here: only an experiment with failures needs it
        import csv

        with failures_path.open("w", encoding="utf-8", newline="") as fh:
            # quoting keeps a message with commas or newlines in one field
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("algorithm", "function", "run", "error"))
            writer.writerows(result.failures)
    if result.records:
        emit_convergence(result.records, plan.out_dir)
        emit_summary(
            result.records, plan.out_dir, plan.rank_statistic, plan.algorithms, plan.functions
        )
    return result
