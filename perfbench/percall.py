"""Per-call timing of the benchmarks, kernels and core layers, and of parse_config.

    python3 perfbench/percall.py SEED PLAN_FILE

Every name gets 64 inputs drawn from SEED, one warm-up pass, a loop count
calibrated so one sample lasts at least 5 ms, then SAMPLES samples.  Prints
one JSON line: name -> {"us_per_call": median, "spread": (q3 - q1) / median,
"samples": SAMPLES}.  Only the call itself is inside the timed loop; inputs
such as ``CirclePair`` objects and chaos states are built beforehand.
"""

import math
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from beetleopt import benchmarks, core, harness, kernels  # noqa: E402

INPUTS = 64
SAMPLES = 15
MIN_SAMPLE_S = 0.005


def time_calls(call, inputs):
    """Median and relative quartile spread of the cost of ``call(*args)``, in µs."""

    def batch(loops):
        start = time.perf_counter()
        for _ in range(loops):
            for args in inputs:
                call(*args)
        return time.perf_counter() - start

    loops = max(1, math.ceil(MIN_SAMPLE_S / max(batch(1), 1e-9)))
    samples = [batch(loops) / (loops * len(inputs)) * 1e6 for _ in range(SAMPLES)]
    median = statistics.median(samples)
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return {"us_per_call": median, "spread": (q3 - q1) / median, "samples": SAMPLES}


def cases(seed, plan_text):
    """name -> (callable, list of argument tuples), all inputs drawn from ``seed``."""
    draw = np.random.default_rng(seed)
    stream = core.RandomStream(seed)
    out = {"harness.parse_config": (harness.parse_config, [(plan_text,)] * INPUTS)}

    for fid in benchmarks.ids():
        spec = benchmarks.get(fid)
        points = draw.uniform(spec.lower, spec.upper, size=(INPUTS, spec.dim))
        out[f"benchmarks.{fid}"] = (spec.evaluate, [(x, stream) for x in points])

    pairs = [
        kernels.CirclePair(a, b, d)
        for a, b, d in zip(draw.uniform(0.1, 2.0, INPUTS), draw.uniform(0.1, 2.0, INPUTS), draw.uniform(0.0, 4.0, INPUTS))
    ]
    out["kernels.circle_intersection_area"] = (kernels.circle_intersection_area, [(p,) for p in pairs])
    for map_id, (_, _, (low, high)) in sorted(kernels.CHAOS_MAPS.items()):
        states = [kernels.make_chaos(map_id, u) for u in draw.uniform(low, high, INPUTS)]
        out[f"kernels.chaos_next.{map_id}"] = (kernels.chaos_next, [(s,) for s in states])
    out["kernels.spray"] = (
        kernels.spray,
        [(float(c), int(t), 1000) for c, t in zip(draw.uniform(0.0, 1.0, INPUTS), draw.integers(1, 1001, INPUTS))],
    )

    space = core.SearchSpace.cube(30, -100.0, 100.0)
    out["kernels.escape_step"] = (
        kernels.escape_step,
        [(float(v), space, int(t)) for v, t in zip(draw.uniform(0.0, 0.5, INPUTS), draw.integers(1, 1001, INPUTS))],
    )
    positions = draw.uniform(-150.0, 150.0, size=(INPUTS, space.dim))
    for mode in core.BOUND_MODES:
        out[f"core.clamp_to_bounds.{mode}"] = (core.clamp_to_bounds, [(x, space, mode) for x in positions])
    out["core.RandomStream.uniform"] = (stream.uniform, [()] * INPUTS)
    out["core.initialize_population"] = (core.initialize_population, [(space, 30, stream)] * INPUTS)
    return out


def main(argv):
    import json

    seed, plan_file = int(argv[0]), argv[1]
    with open(plan_file, encoding="utf-8") as fh:
        plan_text = fh.read()
    results = {name: time_calls(call, inputs) for name, (call, inputs) in cases(seed, plan_text).items()}
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
