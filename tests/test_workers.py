"""Forked ``--jobs`` workers: a dead worker costs only its own group, a
failure travels back with its text whatever its class, no worker outlives
``run_experiment``, and no process machinery is loaded in the parent."""

import json
import os
import select
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from beetleopt import benchmarks, harness

SRC = Path(__file__).resolve().parents[1] / "src"

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"), reason="workers are forked on Linux only")


@pytest.fixture(autouse=True)
def deadline():
    """A test whose workers hang fails after a minute instead of hanging."""

    def expire(signum, frame):
        raise TimeoutError("forked workers hung")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def two_cpus(monkeypatch):
    """Two CPUs for this process, so that ``jobs = 2`` forks two workers."""
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1}, raising=False)


class Objective:
    """A registry spec whose every evaluation calls ``act``."""

    def __init__(self, spec, act):
        self._spec = spec
        self.dim = spec.dim
        self._act = act

    def space(self):
        return self._spec.space()

    def evaluate(self, position, rng=None):
        self._act()


def replace_f9(monkeypatch, act):
    real_get = benchmarks.get
    monkeypatch.setattr(benchmarks, "get", lambda fid: Objective(real_get(fid), act) if fid == "f9" else real_get(fid))


def small_plan(algorithms, functions):
    return harness.ExperimentPlan(
        algorithms=algorithms, functions=functions, runs=1, population=6, iterations=3, base_seed=7
    )


def same_records(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert (x.algorithm, x.benchmark, x.seed, x.evaluations) == (y.algorithm, y.benchmark, y.seed, y.evaluations)
        assert x.trace.tobytes() == y.trace.tobytes()
        assert float(x.final_best).hex() == float(y.final_best).hex()


@pytest.mark.parametrize(
    "death, ended",
    [
        pytest.param(lambda: os._exit(3), "exited with status 3", id="exit"),
        pytest.param(
            lambda: os.kill(os.getpid(), signal.SIGKILL), f"was killed by signal {int(signal.SIGKILL)}", id="sigkill"
        ),
    ],
)
def test_a_dead_worker_loses_only_its_own_group(monkeypatch, two_cpus, death, ended):
    algorithms = ("pso", "gwo", "sso")
    kept = harness.run_experiment(small_plan(algorithms, ("f21", "f14")))
    replace_f9(monkeypatch, death)
    forks, fork = [], os.fork
    monkeypatch.setattr("os.fork", lambda: forks.append(1) or fork())
    result = harness.run_experiment(small_plan(algorithms, ("f1", "f9", "f21", "f14")), jobs=2)
    # f1 and f9 share a dimension, so each algorithm's f1 runs share the
    # dead worker's group; every other group ran in a replacement
    message = f"the worker process running this group {ended}"
    assert result.failures == sorted((a, f, 0, message) for a in algorithms for f in ("f1", "f9"))
    same_records(result.records, kept.records)
    assert len(forks) <= 2 + 3  # at most one replacement per lost group


def test_workers_that_die_before_taking_a_group_fail_every_group(monkeypatch, two_cpus):
    # no group was lost in a worker, so none is replaced and the call returns
    monkeypatch.setattr(harness, "_serve", lambda *args: os._exit(1))
    result = harness.run_experiment(small_plan(("pso", "bto"), ("f1", "f21")), jobs=2)
    assert result.records == []
    assert result.failures == sorted(
        (a, f, 0, "no worker process reported this group") for a in ("pso", "bto") for f in ("f1", "f21")
    )


def test_a_group_larger_than_a_pipe_comes_back_whole(two_cpus):
    # 80 runs x 300 iterations of trace alone pickle to about 190 kB,
    # against the 64 kB a Linux pipe holds
    plan = harness.ExperimentPlan(
        algorithms=("pso",), functions=("f1", "f9", "f21"), runs=40, population=6, iterations=300
    )
    same_records(harness.run_experiment(plan, jobs=2).records, harness.run_experiment(plan).records)


def make_local_failure():
    class Local(Exception):
        pass

    return Local


def test_a_failure_that_cannot_be_pickled_keeps_the_results_of_one_job(monkeypatch, two_cpus):
    local = make_local_failure()

    def fail():
        raise local("local failure")

    replace_f9(monkeypatch, fail)
    plan = small_plan(("pso", "gwo"), ("f1", "f9", "f21"))
    serial = harness.run_experiment(plan, jobs=1)
    forked = harness.run_experiment(plan, jobs=2)
    assert serial.failures == [("gwo", "f9", 0, "local failure"), ("pso", "f9", 0, "local failure")]
    assert serial.fallbacks == [("pso", ("f1", "f9"), "local failure"), ("gwo", ("f1", "f9"), "local failure")]
    assert forked.failures == serial.failures and forked.fallbacks == serial.fallbacks
    assert len(serial.records) == 4
    same_records(forked.records, serial.records)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_no_worker_outlives_run_experiment(two_cpus):
    result = harness.run_experiment(small_plan(("pso", "bto"), ("f1", "f21")), jobs=2)
    assert len(result.records) == 4
    assert_no_child_left()


def test_no_worker_outlives_an_interrupted_collection(monkeypatch, two_cpus):
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(select, "select", interrupted)
    with pytest.raises(KeyboardInterrupt):
        harness.run_experiment(small_plan(("pso", "bto"), ("f1", "f21")), jobs=2)
    assert_no_child_left()


def parent_modules(jobs, tmp_path):
    """The process-related modules a fresh interpreter holds after it runs
    a small plan through the CLI with ``--jobs jobs`` on two CPUs."""
    plan = tmp_path / "plan.txt"
    plan.write_text("algorithms = pso bto\nfunctions = f1 f21\nruns = 1\npopulation = 6\niterations = 3\n")
    code = (
        f"import json, os, sys; sys.path.insert(0, {str(SRC)!r}); "
        "os.sched_getaffinity = lambda pid: {0, 1}; "
        "from beetleopt.cli import main; "
        f"assert main(['run', {str(plan)!r}, '--out', {str(tmp_path / 'out')!r}, '--jobs', '{jobs}']) == 0; "
        "print(json.dumps(sorted(m for m in ('concurrent.futures', 'multiprocessing', 'numpy.random') "
        "if m in sys.modules)))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120)
    return json.loads(result.stdout.splitlines()[-1])


def test_the_serial_path_loads_no_process_machinery(tmp_path):
    assert parent_modules(1, tmp_path) == ["numpy.random"]


def test_the_forked_path_loads_no_process_machinery_and_runs_no_group_in_the_parent(tmp_path):
    assert parent_modules(2, tmp_path) == []
