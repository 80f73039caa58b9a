"""Every end-to-end metric for every workload, with the output check.

    python3 perfbench/report.py                       # one pass, seed 1
    python3 perfbench/report.py --seeds 1 2 3 --seconds 40

For each workload and seed it makes the same timed run as run.py
--trace 0, then pools the samples of all seeds and prints each metric's
median, its highest percentile with at least ten samples above it (once
there are 11 or more) and the sample count, plus how many runs were
attempted and how many failed the output check.  Exits 1 if any failed.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List

from run import (END_TO_END, Runner, RunFailed, describe, pin_to_one_cpu,
                 scratch_dir, timed)
from workloads import WORKLOADS, ProgramMissing, load_luxnet


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--seconds", type=float, default=40.0)
    args = parser.parse_args()
    try:
        load_luxnet()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    any_failed = False
    for name, workload in WORKLOADS.items():
        pooled: Dict[str, List[float]] = {m: [] for m in END_TO_END}
        attempted, failed = 0, 0
        for seed in args.seeds:
            try:
                with scratch_dir(name) as work:
                    runs, failures, samples = timed(
                        Runner(workload, seed, work), args.seconds)
            except RunFailed as exc:
                print(f"{name} seed {seed}: {exc}", file=sys.stderr)
                any_failed = True
                continue
            attempted += runs
            failed += len(failures)
            for run, problem in sorted(failures.items()):
                print(f"{name} seed {seed} run {run}: {problem}",
                      file=sys.stderr)
            for metric in END_TO_END:
                pooled[metric] += samples[metric]
        any_failed |= failed > 0
        print(f"{name}: {attempted} runs attempted, {failed} failed the "
              f"output check")
        for metric, unit in END_TO_END.items():
            if pooled[metric]:
                print(f"  {describe(metric, unit, pooled[metric])}")
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
