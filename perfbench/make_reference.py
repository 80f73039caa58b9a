"""Record the output references that every benchmark run is checked against.

    python3 perfbench/make_reference.py                  # all workloads
    python3 perfbench/make_reference.py crowd-dense --seeds 0 1 2

paper-a and paper-b get one reference each, since their inputs do not
depend on the seed.  crowd-dense gets one per seed, for seeds 0-15 unless
--seeds says otherwise; a run on any other seed is checked against its
own first run (for repeatability), conservation and liveness instead.

Record again only for a change that is meant to alter simulated outputs.
A speed-only change must pass against the references as they stand.
"""

from __future__ import annotations

import argparse
import gzip
import json
import sys

from check import reference_path, seed_key
from run import Runner, scratch_dir
from workloads import WORKLOADS

DEFAULT_SEEDS = range(16)


def record(name: str, seeds) -> None:
    workload = WORKLOADS[name]
    path = reference_path(name)
    table = {}
    if path.is_file():
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            table = json.load(fh)
    for seed in seeds if workload.seeded else [0]:
        with scratch_dir(f"ref-{name}") as work:
            runner = Runner(workload, seed, work, use_reference=False)
            _, problems = runner.run()
        if problems:
            raise SystemExit(f"{name} seed {seed}: " + "; ".join(problems))
        key = seed_key(workload.seeded, seed)
        table[key] = runner.first
        print(f"{name} [{key}]: {runner.first['counts']}")
    path.parent.mkdir(exist_ok=True)
    # mtime=0: the same table always gives the same bytes
    with gzip.GzipFile(path, "wb", mtime=0) as fh:
        fh.write((json.dumps(table, sort_keys=True) + "\n").encode())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                        help=f"any of {', '.join(sorted(WORKLOADS))}")
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=list(DEFAULT_SEEDS))
    args = parser.parse_args()
    unknown = set(args.workloads) - set(WORKLOADS)
    if unknown:
        parser.error(f"unknown workloads: {sorted(unknown)}")
    for name in args.workloads or sorted(WORKLOADS):
        record(name, args.seeds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
