"""beetleopt: a bombardier-beetle defense/escape optimizer, six baseline
metaheuristics and a reproducible benchmark harness over the 23 classic
test functions."""

import os
import sys

# NumPy's bundled OpenBLAS starts one worker thread per extra CPU when it
# loads, and that thread busy-waits for about 130 ms before it sleeps.
# beetleopt has nothing for a BLAS thread pool to do, so pin it to one thread,
# but only before NumPy is loaded (afterwards the pool already exists and the
# variable would only reach subprocesses). A value the caller set wins.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .baselines import run_bto, run_cdo, run_gsa, run_gwo, run_pso, run_sso
from .bbo import bbo_run
from .benchmarks import BENCHMARKS, BenchmarkSpec, known_optimum
from .core import (
    ConfigurationError,
    ContractViolation,
    RandomStream,
    RunConfig,
    SearchSpace,
)
from .harness import ALGORITHMS, ExperimentPlan, parse_config, run_and_emit, run_experiment
from .stats import RunRecord, SummaryRow

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "BENCHMARKS",
    "BenchmarkSpec",
    "ConfigurationError",
    "ContractViolation",
    "ExperimentPlan",
    "RandomStream",
    "RunConfig",
    "RunRecord",
    "SearchSpace",
    "SummaryRow",
    "bbo_run",
    "known_optimum",
    "parse_config",
    "run_and_emit",
    "run_bto",
    "run_cdo",
    "run_experiment",
    "run_gsa",
    "run_gwo",
    "run_pso",
    "run_sso",
    "__version__",
]
