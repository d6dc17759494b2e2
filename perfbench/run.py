"""Benchmark of the beetleopt experiment harness.

    python3 perfbench/run.py --workload protocol --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Each repetition is a fresh interpreter (``perfbench/child.py``) that makes the
calls ``beetleopt run`` makes.  Repetitions repeat until ``--seconds`` have
passed and every metric is the median over them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics instead: it alternates untraced and traced repetitions,
times ``run_experiment`` at one and two workers, and runs the per-call timing
layer (``perfbench/percall.py``).

Every repetition passes the correctness gate: exact evaluation budgets,
non-increasing traces, ``final_best == trace[-1]``, no failed run, one output
digest per run, the same traced and untraced and equal to the frozen digest
in ``digests.json``.  The plan's base seed is ``--seed`` mapped into
``FROZEN_SEEDS``, so every run is compared with a frozen digest.  A broken gate
prints ``"correct": false`` and exits 1.  The last stdout line is the result
object; the lines before it record the environment and per-name detail.
No CPU pinning is used.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
PERCALL = os.path.join(HERE, "percall.py")
DIGESTS = os.path.join(HERE, "digests.json")

#: A run must end within twice ``--seconds`` plus this many seconds.
DEADLINE_ALLOWANCE_S = 90.0
#: Setup-only interpreters started per run, on top of one per repetition.
SETUP_SAMPLES = 5
#: Base seeds whose output digests ``digests.json`` records.  Work per
#: repetition does not depend on the seed, so ``--seed`` is mapped into them.
FROZEN_SEEDS = range(32)

PLANS = {
    # The paper's N=30 shape on three cheap objectives: optimizer self time
    # dominates.  One seed per cell, so nothing can batch runs of a cell.
    "protocol": (
        "algorithms = all\n"
        "functions = f1 f9 f21\n"
        "runs = 1\n"
        "population = 30\n"
        "iterations = 50\n"
    ),
    # Every objective and the non-default bound, predator and chaos branches,
    # with many short runs: the most per-run set-up and emission.
    "grid": (
        "algorithms = all\n"
        "functions = all\n"
        "runs = 2\n"
        "population = 10\n"
        "iterations = 10\n"
        "bound_mode = reflect\n"
        "predator_mode = random-agent\n"
        "chaos_map = chebyshev\n"
    ),
    # Tiny plan for the benchmark's own smoke test.
    "smoke": (
        "algorithms = all\n"
        "functions = f1 f7 f15\n"
        "runs = 2\n"
        "population = 6\n"
        "iterations = 3\n"
    ),
}

#: workload -> (plan, worker processes)
WORKLOADS = {
    "protocol": ("protocol", 1),
    "grid": ("grid", 1),
    "protocol-jobs2": ("protocol", 2),
    "smoke": ("smoke", 1),
}

ALGORITHMS = ("cdo", "sso", "gsa", "pso", "bto", "gwo", "bbo")


class GateError(Exception):
    """The benchmark cannot run here; no result is printed."""


def nproc():
    return len(os.sched_getaffinity(0))


def check_jobs(jobs, available):
    """Refuse a worker count above the usable CPU count, before anything is spawned."""
    if jobs < 1:
        raise GateError(f"jobs must be >= 1, got {jobs}")
    if jobs > available:
        raise GateError(f"refusing jobs={jobs}: only {available} CPUs usable (nproc)")
    return jobs


def environment():
    env = {"python": sys.version.split()[0], "nproc": nproc(), "cpu_pinning": "none"}
    try:
        env["commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        env["commit"] = "unknown"
    env["cpu_model"] = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return env


class Runner:
    """Spawns child interpreters under one deadline, in one work directory."""

    def __init__(self, work, plan_text, seed, jobs, deadline_s):
        self.work = work
        self.seed = seed
        self.jobs = jobs
        self.deadline_s = deadline_s
        self.deadline = time.monotonic() + deadline_s
        self.plan_file = os.path.join(work, "plan.txt")
        with open(self.plan_file, "w", encoding="utf-8") as fh:
            fh.write(plan_text)
        self.count = 0

    def _spawn(self, args):
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise GateError(f"benchmark ran past its {self.deadline_s:.0f} s deadline")
        # own session, so a timeout also kills the child's worker processes
        proc = subprocess.Popen(args, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise GateError(f"{os.path.basename(args[1])} ran past the deadline") from None
        if proc.returncode != 0:
            raise GateError(f"{' '.join(args[1:3])} exited {proc.returncode}:\n{err.strip()}")
        return json.loads(out.strip().splitlines()[-1])

    def child(self, mode, jobs=None):
        self.count += 1
        out_dir = os.path.join(self.work, f"out{self.count}")
        jobs = self.jobs if jobs is None else jobs
        args = [sys.executable, CHILD, mode, self.plan_file, out_dir, str(self.seed), str(jobs)]
        try:
            return self._spawn(args + [repr(time.monotonic())])
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def percall(self):
        return self._spawn([sys.executable, PERCALL, str(self.seed), self.plan_file])

    def warm_up(self):
        """Import once unmeasured, so byte-code compilation is not counted as set-up."""
        self.child("setup")

    def setup_samples(self):
        return [self.child("setup")["setup_s"] for _ in range(SETUP_SAMPLES)]


def gate(reps, plan_name, seed):
    """Correctness problems across all repetitions of one run."""
    problems = [v for rep in reps for v in rep["violations"]]
    digests = {rep["digest"] for rep in reps}
    if len(digests) > 1:
        problems.append(f"repetitions disagree on the output digest: {sorted(digests)}")
    with open(DIGESTS, encoding="utf-8") as fh:
        frozen = json.load(fh).get(plan_name, {}).get(str(seed))
    if frozen is None:
        problems.append(f"no frozen digest for plan {plan_name} seed {seed}")
    elif digests != {frozen}:
        problems.append(f"output digest {sorted(digests)} != frozen {frozen} for seed {seed}")
    return problems


def end_to_end(runner, seconds):
    runner.warm_up()
    setups = runner.setup_samples()
    reps = []
    start = time.monotonic()
    while not reps or time.monotonic() - start < seconds:
        reps.append(runner.child("run"))
    setups += [rep["setup_s"] for rep in reps]
    attempted = sum(rep["runs"] for rep in reps)
    failed = sum(rep["failures"] for rep in reps)
    metrics = {
        "setup_s": (median(setups), "s"),
        "wall_s": (median([rep["wall_s"] for rep in reps]), "s"),
        "evals_per_s": (median([rep["evaluations"] / rep["wall_s"] for rep in reps]), "1/s"),
        "cpu_s": (median([rep["cpu_s"] for rep in reps]), "s"),
        "peak_rss_mb": (median([rep["peak_rss_kb"] / 1024.0 for rep in reps]), "MB"),
        "run_success_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    print(f"# {len(reps)} repetitions, {len(setups)} set-up samples")
    print("# wall_s per repetition: " + " ".join(f"{rep['wall_s']:.4f}" for rep in reps))
    return reps, metrics


def tail_percentile(count):
    """Highest percentile (0.1 steps, at least p50) with at least ten samples beyond it."""
    return max(50.0, math.floor((1.0 - 10.0 / count) * 1000.0) / 10.0) if count else 50.0


def nearest_rank(sorted_values, percentile):
    index = max(0, math.ceil(percentile / 100.0 * len(sorted_values)) - 1)
    return sorted_values[index]


def layer_prefix(algorithm):
    """``bbo`` is its own layer; the six others live in ``baselines``."""
    return "bbo" if algorithm == "bbo" else f"baselines.{algorithm}"


def layer_sums(spans):
    """Per traced repetition: durations of the harness calls and per-algorithm run totals."""
    out = {}
    runs = [s for s in spans if s["parent"] == "harness.run_experiment"]
    for s in spans:
        if s["parent"] != "harness.run_experiment":
            out[s["name"]] = s["end"] - s["start"]
    objective_s = sum(s["objective_s"] for s in runs)
    evals = sum(s["evaluations"] for s in runs)
    out["benchmarks.self_s"] = objective_s
    out["benchmarks.evals"] = evals
    out["benchmarks.us_per_eval"] = objective_s / evals * 1e6
    for algorithm in ALGORITHMS:
        mine = [s for s in runs if s["algorithm"] == algorithm]
        run_s = sum(s["end"] - s["start"] for s in mine)
        evals = sum(s["evaluations"] for s in mine)
        own = sum(s["objective_s"] for s in mine)
        prefix = layer_prefix(algorithm)
        out[f"{prefix}.run_s"] = run_s
        out[f"{prefix}.evals"] = evals
        out[f"{prefix}.self_us_per_eval"] = (run_s - own) / evals * 1e6
    return out, [(s["end"] - s["start"]) * 1e3 for s in runs]


def per_layer(runner, seconds):
    check_jobs(2, nproc())
    percall = runner.percall()
    untraced, traced, efficiency = [], [], []
    start = time.monotonic()
    while not traced or time.monotonic() - start < seconds:
        untraced.append(runner.child("run"))
        traced.append(runner.child("traced"))
        # one and two workers, timed in alternating order
        timing = runner.child("efficiency", jobs=1 + len(efficiency) % 2)
        efficiency.append(timing["run_experiment_jobs1_s"] / (2.0 * timing["run_experiment_jobs2_s"]))

    sums = [layer_sums(rep["spans"]) for rep in traced]
    run_ms = sorted(ms for _, durations in sums for ms in durations)
    tail = tail_percentile(len(run_ms))

    counts = sums[0][0]  # evaluation counts are exact and equal in every repetition

    def med(key):
        return median([s[key] for s, _ in sums])

    metrics = {
        "harness.parse_config_us": (percall["harness.parse_config"]["us_per_call"], "us"),
        "harness.run_experiment_s": (med("harness.run_experiment"), "s"),
        "harness.run_p50_ms": (nearest_rank(run_ms, 50.0), "ms"),
        "harness.run_tail_ms": (nearest_rank(run_ms, tail), "ms"),
        "harness.emit_convergence_s": (med("harness.emit_convergence"), "s"),
        "harness.emit_summary_s": (med("harness.emit_summary"), "s"),
        "harness.artifact_bytes": (traced[0]["artifact_bytes"], "count"),
        "harness.trace_rows": (traced[0]["trace_rows"], "count"),
        "harness.jobs_efficiency": (median(efficiency), "ratio"),
    }
    for algorithm in ALGORITHMS:
        prefix = layer_prefix(algorithm)
        metrics[f"{prefix}.run_s"] = (med(f"{prefix}.run_s"), "s")
        metrics[f"{prefix}.self_us_per_eval"] = (med(f"{prefix}.self_us_per_eval"), "us")
        metrics[f"{prefix}.evals"] = (counts[f"{prefix}.evals"], "count")
    metrics["benchmarks.self_s"] = (med("benchmarks.self_s"), "s")
    metrics["benchmarks.us_per_eval"] = (med("benchmarks.us_per_eval"), "us")
    metrics["benchmarks.evals"] = (counts["benchmarks.evals"], "count")
    for name, timing in percall.items():
        if name != "harness.parse_config":
            metrics[f"{name}.us_per_call"] = (timing["us_per_call"], "us")
    metrics["bench.trace_overhead_ratio"] = (
        median([rep["wall_s"] for rep in traced]) / median([rep["wall_s"] for rep in untraced]),
        "ratio",
    )

    print(f"# {len(untraced)} untraced and {len(traced)} traced repetitions")
    print("# jobs_efficiency per iteration: " + " ".join(f"{e:.3f}" for e in efficiency))
    print(f"# harness.run_tail_ms is p{tail:g} of {len(run_ms)} runs ({len(run_ms) - math.ceil(tail / 100.0 * len(run_ms))} beyond it)")
    for name, timing in sorted(percall.items()):
        print(f"# per-call {name}: median {timing['us_per_call']:.4f} us, spread {timing['spread']:.3f}, {timing['samples']} samples")
    return untraced + traced, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    plan_name, jobs = WORKLOADS[args.workload]
    seed = FROZEN_SEEDS[args.seed % len(FROZEN_SEEDS)]
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "beetleopt", "__init__.py")):
            raise GateError(f"no beetleopt package under {os.path.join(ROOT, 'src')}")
        check_jobs(jobs, nproc())
        env = environment()
        env["loadavg_start"] = os.getloadavg()
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
            runner = Runner(work, PLANS[plan_name], seed, jobs, 2.0 * args.seconds + DEADLINE_ALLOWANCE_S)
            measure = per_layer if args.trace else end_to_end
            reps, metrics = measure(runner, args.seconds)
        env["loadavg_end"] = os.getloadavg()
    except GateError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    env["numpy"] = reps[0]["numpy"]
    print("# env " + json.dumps(env, sort_keys=True))
    problems = gate(reps, plan_name, seed)
    for problem in problems:
        print(f"# INCORRECT: {problem}")
    result = {
        "correct": not problems,
        "attempted": sum(rep["runs"] for rep in reps),
        "failed": sum(rep["failures"] for rep in reps),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
