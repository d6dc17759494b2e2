"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/child.py MODE PLAN_FILE OUT_DIR SEED JOBS SPAWNED_AT

MODE is ``setup`` (stop once the plan is parsed), ``run`` (untraced
``run_and_emit``), ``traced`` (the same call with every layer traced) or
``efficiency`` (untraced ``run_experiment`` at one and at two workers, JOBS
workers first).  The child makes the calls ``beetleopt run`` makes: import the
package, read and parse the plan, set the base seed and output directory, and
call ``run_and_emit``.  It prints one JSON line with its timings, the output
digest and every correctness violation it found.

Only ``os``, ``sys`` and ``time`` are imported before the plan is parsed, so
that ``parsed_at - SPAWNED_AT`` is interpreter start plus ``import
beetleopt`` plus ``parse_config``.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def expected_evaluations(algorithm, population, iterations):
    """The exact budget: N initial evaluations, then N per iteration (2N for bbo)."""
    per_iteration = 2 * population if algorithm == "bbo" else population
    return population + per_iteration * iterations


def violations(plan, result):
    """Every broken output promise of one ``run_experiment`` result."""
    found = [f"run failed: {a} {f} run {r}: {msg}" for a, f, r, msg in result.failures]
    attempted = len(plan.cells()) * plan.runs
    if len(result.records) + len(result.failures) != attempted:
        found.append(f"{len(result.records)} records + {len(result.failures)} failures != {attempted} runs")
    for record in result.records:
        where = f"{record.algorithm} {record.benchmark} seed {record.seed}"
        budget = expected_evaluations(record.algorithm, plan.population, plan.iterations)
        if record.evaluations != budget:
            found.append(f"{where}: {record.evaluations} evaluations, expected {budget}")
        trace = list(record.trace)
        if len(trace) != plan.iterations:
            found.append(f"{where}: trace has {len(trace)} entries, expected {plan.iterations}")
        if any(later > earlier for earlier, later in zip(trace, trace[1:])):
            found.append(f"{where}: best-so-far trace increases")
        if not trace or record.final_best != trace[-1]:
            found.append(f"{where}: final_best != trace[-1]")
    return found


def digest_outputs(out_dir):
    """sha256 over every artifact's relative path and bytes, plus their total size."""
    import hashlib

    outer = hashlib.sha256()
    total = 0
    paths = sorted(
        os.path.relpath(os.path.join(parent, name), out_dir)
        for parent, _, names in os.walk(out_dir)
        for name in names
    )
    for rel in paths:
        with open(os.path.join(out_dir, rel), "rb") as fh:
            data = fh.read()
        total += len(data)
        outer.update(rel.replace(os.sep, "/").encode() + b"\0" + hashlib.sha256(data).digest())
    return outer.hexdigest(), total


def cpu_and_rss():
    """CPU seconds of this process plus its reaped workers, and the larger max RSS (KiB)."""
    import resource

    me = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + workers.ru_utime + workers.ru_stime
    return cpu, max(me.ru_maxrss, workers.ru_maxrss)


def main(argv):
    mode, plan_file, out_dir, seed, jobs, spawned_at = argv
    sys.path.insert(0, SRC)
    import beetleopt
    from beetleopt import harness

    with open(plan_file, encoding="utf-8") as fh:
        plan = harness.parse_config(fh.read())
    parsed_at = time.monotonic()

    import json

    import numpy

    if os.path.dirname(os.path.abspath(beetleopt.__file__)) != os.path.join(SRC, "beetleopt"):
        raise SystemExit(f"imported beetleopt from {beetleopt.__file__}, not from {SRC}")
    report = {"setup_s": parsed_at - float(spawned_at), "numpy": numpy.__version__}
    if mode == "setup":
        print(json.dumps(report))
        return 0

    plan.base_seed = int(seed)
    plan.out_dir = out_dir
    jobs = int(jobs)
    if mode == "efficiency":
        for workers in (jobs, 3 - jobs):
            start = time.perf_counter()
            harness.run_experiment(plan, jobs=workers)
            report[f"run_experiment_jobs{workers}_s"] = time.perf_counter() - start
        print(json.dumps(report))
        return 0
    tracer = None
    if mode == "traced":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    cpu_before, _ = cpu_and_rss()
    start = time.perf_counter()
    result = harness.run_and_emit(plan, jobs=jobs)
    end = time.perf_counter()
    cpu_after, peak_rss_kb = cpu_and_rss()
    if tracer is not None:
        tracer.restore()
        tracer.span("harness.run_and_emit", None, start, end)
        report["spans"] = tracer.spans

    digest, artifact_bytes = digest_outputs(out_dir)
    report.update(
        wall_s=end - start,
        cpu_s=cpu_after - cpu_before,
        peak_rss_kb=peak_rss_kb,
        runs=len(result.records) + len(result.failures),
        failures=len(result.failures),
        evaluations=sum(r.evaluations for r in result.records),
        trace_rows=sum(len(r.trace) for r in result.records),
        artifact_bytes=artifact_bytes,
        digest=digest,
        violations=violations(plan, result),
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
