"""Paired benchmark runs of a parent commit against this checkout.

    python3 tools/bench_pairs.py --parent REV --out BENCH_6.json \
        --workloads grid protocol --seeds 3001-3010 --seconds 36
    python3 tools/bench_pairs.py --parent REV --plan PLAN_FILE --pairs 5 \
        [--jobs K] [--out FILE]

The parent's committed files are exported with ``git archive`` into a
temporary directory (no worktree is registered in the repository), and the
change is the working tree this script lives in.  For each workload and
seed, ``perfbench/run.py --trace 0`` runs once on each side, the two sides
taking turns at running first.  The output file records, per workload and
end-to-end metric of ``BENCHMARK.json``: each side's median and quartiles,
how many pairs the change won, whether the medians differ by more than the
parent's interquartile range in the better direction ("gain beyond the
parent's IQR"), and whether the change is worse than the parent by more than
the metric's bound; plus every repetition's metrics and ``# env`` line.

With ``--plan``, each pair instead runs ``beetleopt run PLAN_FILE`` once on
each side (first side alternating), each in a fresh interpreter that imports
that side's ``src``.  It prints each side's median and quartile wall times
(and writes them to ``--out`` if given), and exits with status 1 if the two
sides' artifact trees differ in any file name or byte in any pair.

Either report has a top-level ``host`` block naming the host class whose
bits the runs produced: the NumPy version, its enabled CPU dispatch targets
and the C library.  Golden bits differ between, say, NumPy's AVX2 and
AVX-512 loops.  Standard library only; the block is read by a child of the
running interpreter, which imports NumPy.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    """``3001-3010`` or ``5,7,9`` (or both, comma separated) as a list."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def export(rev, dest):
    """Write the files of commit ``rev`` under ``dest``."""
    archive = os.path.join(dest, "tree.tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", rev], cwd=ROOT, stdout=fh, check=True)
    tree = os.path.join(dest, "tree")
    with tarfile.open(archive) as tar:
        tar.extractall(tree)
    os.remove(archive)
    return tree


def run_once(tree, workload, seed, seconds):
    """One ``perfbench/run.py`` run: ``(result object, env object)``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"perfbench failed in {tree} (exit {proc.returncode}): {proc.stderr.strip()}")
    env = next((json.loads(line[len("# env "):]) for line in lines if line.startswith("# env ")), None)
    return json.loads(lines[-1]), env


#: run ``beetleopt run`` with the ``beetleopt`` package of the ``src`` given first
_RUN_CLI = "import sys; sys.path.insert(0, sys.argv[1]); from beetleopt.cli import main; sys.exit(main(sys.argv[2:]))"


def run_plan(tree, plan, out, jobs):
    """Wall seconds of one ``beetleopt run`` of ``plan`` from ``tree``'s sources into ``out``."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_CLI, os.path.join(tree, "src"), "run", plan, "--out", out,
         "--jobs", str(jobs)],
        capture_output=True, text=True, check=False,
    )
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"beetleopt run failed in {tree} (exit {proc.returncode}): {proc.stderr.strip()}")
    return seconds


#: print the host class as JSON: NumPy's version and enabled dispatch targets, and the C library
_HOST = """
import json, platform, numpy
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # NumPy 1.x
    from numpy.core._multiarray_umath import __cpu_features__
print(json.dumps({
    "numpy": numpy.__version__,
    "cpu_features": [name for name, enabled in __cpu_features__.items() if enabled],
    "libc": list(platform.libc_ver()),
}))
"""


def host():
    """The host class of this interpreter (see ``_HOST``)."""
    proc = subprocess.run([sys.executable, "-c", _HOST], capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def tree_bytes(root):
    """Relative path -> bytes of every file under ``root``."""
    files = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


def plan_pairs(args, trees, scratch):
    """``--plan`` mode: the report, and whether every pair's artifact trees were identical."""
    plan = os.path.abspath(args.plan)
    walls = {"parent": [], "change": []}
    differing = []
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        outs = {}
        for side in order:
            outs[side] = os.path.join(scratch, f"out-{k}-{side}")
            walls[side].append(run_plan(trees[side], plan, outs[side], args.jobs))
        parent, change = tree_bytes(outs["parent"]), tree_bytes(outs["change"])
        if parent != change:
            differing.append(k)
        for out in outs.values():
            shutil.rmtree(out)
        print(f"pair {k}: parent {walls['parent'][-1]:.2f} s, change {walls['change'][-1]:.2f} s, "
              f"{len(parent)} files, {'identical' if parent == change else 'DIFFERENT'}", file=sys.stderr, flush=True)
    report = {
        "plan": args.plan, "jobs": args.jobs, "pairs": args.pairs,
        "wall_s": {side: quartiles(values) for side, values in walls.items()},
        "runs": walls, "identical": not differing, "differing_pairs": differing,
    }
    p, c = report["wall_s"]["parent"], report["wall_s"]["change"]
    print(f"wall s, median [q1, q3]: parent {p['median']:.2f} [{p['q1']:.2f}, {p['q3']:.2f}], "
          f"change {c['median']:.2f} [{c['q1']:.2f}, {c['q3']:.2f}] ({p['median'] / c['median']:.2f}x); "
          f"artifacts {'identical' if not differing else 'DIFFER in pairs ' + str(differing)}")
    return report, not differing


def quartiles(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(metric, parent, change):
    """The paired comparison of one metric's values, in pair order."""
    lower = metric["better"] == "lower"
    wins = sum(1 for p, c in zip(parent, change) if (c < p if lower else c > p))
    p, c = quartiles(parent), quartiles(change)
    gain = (p["median"] - c["median"]) if lower else (c["median"] - p["median"])
    worse = -gain / abs(p["median"]) if p["median"] else 0.0
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "parent": p,
        "change": c,
        "change_over_parent": c["median"] / p["median"] if p["median"] else None,
        "wins": wins,
        "pairs": len(parent),
        "gain_beyond_parent_iqr": gain > p["q3"] - p["q1"],
        "claim_holds": wins >= 0.9 * len(parent) and gain > p["q3"] - p["q1"],
        "worse_beyond_bound": worse > metric["bound"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--out", help="JSON file to write (required with --workloads)")
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seeds", type=parse_seeds, help="e.g. 3001-3010")
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--plan", help="plan file to run with beetleopt run instead of the workloads")
    parser.add_argument("--pairs", type=int, default=5, help="--plan: alternating pairs")
    parser.add_argument("--jobs", type=int, default=1, help="--plan: beetleopt run --jobs")
    args = parser.parse_args(argv)
    if not args.plan and not (args.workloads and args.seeds and args.out):
        parser.error("give --plan, or --workloads, --seeds and --out")

    parent_sha = subprocess.run(
        ["git", "rev-parse", args.parent], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        trees = {"parent": export(parent_sha, scratch), "change": ROOT}
        if args.plan:
            report, ok = plan_pairs(args, trees, scratch)
        else:
            report, ok = workload_pairs(args, trees), True
    report.update(parent=parent_sha, change="working tree", host=host())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


def workload_pairs(args, trees):
    """The report of the perfbench workloads' alternating pairs."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    report = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        pairs = []
        for k, seed in enumerate(args.seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                result, env = run_once(trees[side], workload, seed, args.seconds)
                pair[side] = {
                    "correct": result["correct"],
                    "attempted": result["attempted"],
                    "failed": result["failed"],
                    "metrics": {name: m["value"] for name, m in result["metrics"].items()},
                    "env": env,
                }
            print(f"{workload} seed {seed}: " + " ".join(
                f"{side} {pair[side]['metrics'].get('evals_per_s', float('nan')):.0f} evals/s"
                for side in ("parent", "change")), file=sys.stderr, flush=True)
            pairs.append(pair)
        report["workloads"][workload] = {
            "all_correct": all(p[s]["correct"] for p in pairs for s in ("parent", "change")),
            "metrics": {
                m["name"]: compare(
                    m,
                    [p["parent"]["metrics"][m["name"]] for p in pairs],
                    [p["change"]["metrics"][m["name"]] for p in pairs],
                )
                for m in metrics
            },
            "pairs": pairs,
        }
    return report


if __name__ == "__main__":
    sys.exit(main())
