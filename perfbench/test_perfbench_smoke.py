"""Smoke test of the benchmark itself, on its tiny ``smoke`` plan.

    python3 -m pytest perfbench -q
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

_spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(HERE, "run.py"))
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


def _bench(cwd, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize(
    "trace,kind",
    [
        (0, "end_to_end"),
        pytest.param(1, "per_layer", marks=pytest.mark.skipif(run.nproc() < 2, reason="traced run needs 2 CPUs")),
    ],
)
def test_every_declared_metric_is_printed_and_the_gate_passes(trace, kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[kind]}
    proc = _bench(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert "# env " in proc.stdout


def test_digest_gate_uses_the_frozen_digest():
    with open(run.DIGESTS, encoding="utf-8") as fh:
        frozen = json.load(fh)["smoke"]["1"]
    good = {"violations": [], "digest": frozen}
    assert run.gate([good, good], "smoke", 1) == []
    assert run.gate([good, dict(good, digest="0" * 64)], "smoke", 1)
    assert run.gate([dict(good, digest="0" * 64)], "smoke", 1)
    assert run.gate([dict(good, violations=["bbo f1 seed 1: best-so-far trace increases"])], "smoke", 1)
    assert run.gate([good], "smoke", len(run.FROZEN_SEEDS))  # no frozen digest is a failure


def test_every_frozen_seed_has_a_digest_for_every_plan():
    with open(run.DIGESTS, encoding="utf-8") as fh:
        frozen = json.load(fh)
    for plan_name in run.PLANS:
        assert sorted(frozen[plan_name], key=int) == [str(seed) for seed in run.FROZEN_SEEDS]


def test_jobs_guard_refuses_more_workers_than_cpus():
    assert run.check_jobs(2, 2) == 2
    with pytest.raises(run.GateError, match="refusing jobs=3"):
        run.check_jobs(3, 2)
    with pytest.raises(run.GateError, match="refusing jobs=2"):
        run.check_jobs(2, 1)
    with pytest.raises(run.GateError):
        run.check_jobs(0, 2)


def test_without_the_package_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench(tmp_path, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
