"""Bits per host class (README, "Determinism per host class").

With NumPy's AVX-512 loops switched off for one process, which is what an
x86 host with AVX2 only runs, exactly the declared golden cases change: a
new host-dependent operation shows at once, and so does a fix that removes
one.  The golden fixtures hold the bits of an AVX-512 host, so the check
runs only on one.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_features__

ROOT = Path(__file__).resolve().parents[1]

#: NumPy 2.4's dispatch targets above AVX2; the older names (``AVX512F``
#: ...) switch nothing off
AVX512_OFF = "X86_V4 AVX512_ICL AVX512_SPR"

GOLDEN_FILES = ("tests/test_golden_runs.py", "tests/test_golden_protocol_runs.py")

#: the cases whose records change: ``np.arccos`` in the chebyshev map (bbo,
#: bto) and ``np.log`` in cdo's spread factors, on f7, f15 and f21
HOST_DEPENDENT = {
    f"{path}::test_run_matches_frozen_fixture[{case}]"
    for path, cases in (
        (
            GOLDEN_FILES[0],
            (
                "bbo/f15/clamp/chebyshev/global-best",
                "bbo/f15/reflect/chebyshev/random-agent",
                "bto/f7/clamp/chebyshev/global-best",
                "bto/f7/reflect/chebyshev/random-agent",
                "bto/f15/clamp/chebyshev/global-best",
                "bto/f15/reflect/chebyshev/random-agent",
                "cdo/f7/clamp/tent/global-best",
            ),
        ),
        (
            GOLDEN_FILES[1],
            ("bto/f7/reflect/chebyshev/random-agent", "bto/f21/reflect/chebyshev/random-agent"),
        ),
    )
    for case in cases
}


@pytest.mark.skipif(not __cpu_features__.get("AVX512F"), reason="the golden fixtures hold an AVX-512 host's bits")
def test_exactly_the_declared_golden_cases_change_without_avx512():
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": AVX512_OFF}
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *GOLDEN_FILES],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    failed = {line.split()[1] for line in result.stdout.splitlines() if line.startswith("FAILED ")}
    assert failed == HOST_DEPENDENT, result.stdout[-2000:]
    assert " passed" in result.stdout.splitlines()[-1]
