"""Record the output digests that the benchmark's correctness gate compares against.

    python3 perfbench/freeze_digests.py

Runs every plan of ``run.py`` once per seed of ``run.FROZEN_SEEDS``, untraced
and with one worker, checks the run's own invariants, and rewrites
``perfbench/digests.json``.  Only rerun it when a change is meant to alter
the program's outputs.
"""

import json
import sys
import tempfile

import run


def main():
    digests = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as work:
        for plan_name, plan_text in run.PLANS.items():
            for seed in run.FROZEN_SEEDS:
                runner = run.Runner(work, plan_text, seed, 1, run.DEADLINE_ALLOWANCE_S)
                rep = runner.child("run")
                if rep["violations"]:
                    raise SystemExit(f"{plan_name} seed {seed}: {rep['violations']}")
                digests.setdefault(plan_name, {})[str(seed)] = rep["digest"]
            print(f"{plan_name}: {len(run.FROZEN_SEEDS)} seeds recorded")
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
