"""Paired benchmark runs of a parent commit against this checkout.

    python3 tools/bench_pairs.py --parent REV --out BENCH_6.json \
        --workloads grid protocol --seeds 3001-3010 --seconds 36

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
Standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

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
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 3001-3010")
    parser.add_argument("--seconds", type=float, default=36.0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    parent_sha = subprocess.run(
        ["git", "rev-parse", args.parent], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()
    report = {"parent": parent_sha, "change": "working tree", "seconds": args.seconds,
              "seeds": args.seeds, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        trees = {"parent": export(parent_sha, scratch), "change": ROOT}
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
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
