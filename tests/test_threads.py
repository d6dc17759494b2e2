"""One OS thread per run (README, "Threads").

Importing ``beetleopt`` before NumPy pins NumPy's OpenBLAS pool to one
thread, so no idle BLAS worker spins beside a run.  Each check starts a
fresh interpreter, since the pool is made once, when NumPy loads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
    reason="counts threads in /proc/self/task; an idle BLAS worker needs a second CPU",
)


def fresh(imports, blas_threads=None):
    """``(threads, OPENBLAS_NUM_THREADS)`` of a fresh interpreter after ``imports``."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    code = (
        f"import json, os, sys; sys.path.insert(0, {str(SRC)!r}); {imports}; "
        "print(json.dumps([len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS')]))"
    )
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return tuple(json.loads(result.stdout))


def test_importing_beetleopt_first_leaves_one_thread():
    assert fresh("import beetleopt, numpy") == (1, "1")


def test_a_value_the_caller_set_wins():
    assert fresh("import beetleopt", blas_threads="2")[1] == "2"


def test_numpy_loaded_first_gets_no_variable():
    assert fresh("import numpy, beetleopt")[1] is None
