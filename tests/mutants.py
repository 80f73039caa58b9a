"""Mutation catalogue: small breaks of the program that the tests catch.

Each mutant replaces one exact text in one file with another and names
the tests that must fail on it.  Run from anywhere

    python tests/mutants.py [NAME ...]

to apply each named mutant (every one by default) to a temporary copy of
the repository's src, tests and perfbench, run its tests there, and
print it as killed (each named test fails) or survived (naming the tests
that passed).  The exit status is 1 if any survived.  The tier-1 suite
only checks, in test_mutants.py, that each old text occurs exactly once
and that each named test exists.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent
# what a copy holds: the tests read perfbench/workloads.py
COPIED = ("src", "tests", "perfbench", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str                   # from the repository root
    old: str                    # occurs exactly once in path
    new: str
    kills: Tuple[str, ...]      # test ids, each of which must fail


WORK_PINS = (
    "tests/test_simkernel.py::test_shipped_run_digests[paper_a]",
    "tests/test_simkernel.py::test_shipped_run_digests[paper_b]",
    "tests/test_simkernel.py::test_crowd_dense_digests[1]",
    "tests/test_simkernel.py::test_crowd_dense_digests[3]",
)

MUTANTS = (
    # a lane whose draw changes on the next tick stepped for that tick
    # without an anchor
    Mutant(
        "one-tick-lane", "src/luxnet/simkernel.py",
        """\
                lane.timer = (first_tick(due, dt, dt, i + 1) if p_out
                              == state_draw_w(record, (i + 1) * dt, dt)
                              else i + 1)
""",
        """\
                if p_out != state_draw_w(record, (i + 1) * dt, dt):
                    lane.p_out, lane.event = p_out, i + 1
                    lane.net = net_per_tick(lane.harvest_w, p_out, dt)
                    continue
                lane.timer = first_tick(due, dt, dt, i + 1)
""",
        ("tests/test_kernel_equivalence.py::"
         "test_every_lane_step_ends_one_anchor",) + WORK_PINS),
    # the band searched to the run's end, then cut at the timer
    Mutant(
        "band-exit-to-run-end", "src/luxnet/simkernel.py",
        """\
            lane.event = i + band_exit(
                record.storage.energy, lane.net,
                min(lane.timer, self.n_steps) - i, lane.low, lane.high)
""",
        """\
            lane.event = min(lane.timer, i + band_exit(
                record.storage.energy, lane.net, self.n_steps - i,
                lane.low, lane.high))
""",
        WORK_PINS),
    # every quiet stretch cut in two
    Mutant(
        "stretch-cut-in-two", "src/luxnet/simkernel.py",
        "        return end - i\n",
        "        return (end - i + 1) // 2\n",
        WORK_PINS),
    # the clamp loss read back through the voltage: a rounding residue
    # where no clamp bites
    Mutant(
        "clamp-loss-through-voltage", "src/luxnet/energy.py",
        "    return e - stored\n",
        "    return e - stored_j(voltage)\n",
        ("tests/test_kernel_equivalence.py::"
         "test_a_clamp_loss_is_booked_only_where_a_clamp_bites",
         "tests/test_simkernel.py::test_shipped_run_digests[paper_a]",
         "tests/test_simkernel.py::test_shipped_run_digests[paper_b]")),
    # one one-lane sample instant per lane
    Mutant(
        "one-lane-sample-instants", "src/luxnet/simkernel.py",
        "        self.discrete.append(SampleInstant(i * dt, fixed, v_caps, "
        "harvests))\n",
        "        self.discrete.extend(\n"
        "            SampleInstant(i * dt, [row], [v_cap], [harvested])\n"
        "            for row, v_cap, harvested in zip(fixed, v_caps, "
        "harvests))\n",
        ("tests/test_simkernel.py::"
         "test_sample_rows_share_the_segment_row_templates",) + WORK_PINS),
)


def apply(mutant: Mutant, root: Path) -> None:
    """Write the mutant into the tree at root."""
    path = root / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: old text occurs "
                         f"{text.count(mutant.old)} times in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def survivors(mutant: Mutant) -> List[str]:
    """The mutant's tests that pass on a copy of the tree with it."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name, ignore=shutil.
                                ignore_patterns("__pycache__"))
            else:
                shutil.copy(source, copy / name)
        apply(mutant, copy)
        env = {key: value for key, value in os.environ.items()
               if key != "PYTHONPATH"}
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfEp",
             "-p", "no:cacheprovider", *mutant.kills],
            cwd=copy, env=env, capture_output=True, text=True)
    # 0: all passed, 1: some failed; any other is a usage or collection
    # error, a missing test id among them
    if result.returncode not in (0, 1):
        raise RuntimeError(f"{mutant.name}: pytest exited "
                           f"{result.returncode}\n{result.stdout}")
    passed = {line.split()[1] for line in result.stdout.splitlines()
              if line.startswith("PASSED ")}
    return [test for test in mutant.kills if test in passed]


def main(names: List[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}",
              file=sys.stderr)
        return 2
    survived = 0
    for mutant in chosen:
        alive = survivors(mutant)
        survived += bool(alive)
        print(f"{mutant.name}: "
              + ("survived: " + " ".join(alive) if alive else "killed"),
              flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
