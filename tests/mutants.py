"""Mutation catalogue: small breaks of the program that the tests catch.

Each mutant replaces one exact text in one file with another and names
the tests that must fail on it.  Run from anywhere

    python tests/mutants.py [NAME ...]

to apply each named mutant (every one by default) to a temporary copy of
the repository's src, tests and perfbench, run its tests there, and
print it as killed (each named test fails) or survived (naming the tests
that passed).  The exit status is 1 if any survived.  The tier-1 suite
only checks, in test_mutants.py, that each old text occurs exactly once
and that each named test exists.  RETIRED names the mutants that no
longer apply, each with the reason.
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
        "        # trace instants n ticks in, before the last (the caller "
        "samples\n",
        "        end = i + (end - i + 1) // 2\n"
        "        # trace instants n ticks in, before the last (the caller "
        "samples\n",
        WORK_PINS),
    # a quiet stretch cut at the stale event of a lane whose light its
    # own first tick changes
    Mutant(
        "stale-stretch-bound", "src/luxnet/simkernel.py",
        "            if event == i:\n"
        "                ticks = 0\n",
        "            if event - i < ticks:\n"
        "                ticks = event - i\n",
        ("tests/test_simkernel.py::"
         "test_crowd_dense_cuts_no_quiet_stretch_where_nothing_acts",
         "tests/test_simkernel.py::test_crowd_dense_digests[1]")),
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
    # a sample at a stretch's end booked as one segment per lane: the
    # same bytes, more records
    Mutant(
        "one-segment-per-lane", "src/luxnet/simkernel.py",
        "        self.records.append(TraceSegment(i, instants, dt, lanes))\n",
        "        if len(instants) == 1:\n"
        "            self.records.extend(TraceSegment(i, instants, dt, "
        "(lane,))\n"
        "                                for lane in lanes)\n"
        "        else:\n"
        "            self.records.append(TraceSegment(i, instants, dt, "
        "lanes))\n",
        ("tests/test_simkernel.py::"
         "test_sample_rows_share_the_segment_row_templates[7]",
         "tests/test_simkernel.py::"
         "test_sample_rows_share_the_segment_row_templates[2048]",
         ) + WORK_PINS),
    # every segment rendered through _segment_block: the same bytes, more
    # blocks
    Mutant(
        "every-segment-through-segment-block", "src/luxnet/trace.py",
        "            type(record) is TraceRow or len(record.instants) == 1))"
        ":\n",
        "            type(record) is TraceRow)):\n",
        WORK_PINS),
    # the stretch's segment read after its lanes are stepped
    Mutant(
        "sample-after-the-steps", "src/luxnet/simkernel.py",
        """\
        if instants:
            self._sample_stretch(i, instants)
        t_last = (end - 1) * dt
        for lane, result in zip(self.lanes, results):
            events = () if result is None else result.events
            if lane.event == end:
                lane.step_to(end, dt)
                lane.event = None
                if not lane.low <= lane.record.storage.voltage < lane.high:
                    event = apply_hysteresis(lane.record, t_last + dt)
                    if event:
                        events = [*events, event]
                        if (event == "depleted"
                                and lane.agg.depleted_at is None):
                            lane.agg.depleted_at = t_last
            if events:
                self.event_rows(lane, end, events)
        return end\n""",
        """\
        t_last = (end - 1) * dt
        for lane, result in zip(self.lanes, results):
            events = () if result is None else result.events
            if lane.event == end:
                lane.step_to(end, dt)
                lane.event = None
                if not lane.low <= lane.record.storage.voltage < lane.high:
                    event = apply_hysteresis(lane.record, t_last + dt)
                    if event:
                        events = [*events, event]
                        if (event == "depleted"
                                and lane.agg.depleted_at is None):
                            lane.agg.depleted_at = t_last
            if events:
                self.event_rows(lane, end, events)
        if instants:
            self._sample_stretch(i, instants)
        return end\n""",
        ("tests/test_metamorphic.py::"
         "test_paper_a_is_a_prefix_of_its_longer_run",
         "tests/test_metamorphic.py::"
         "test_a_drawn_network_is_a_prefix_of_its_longer_run",
         "tests/test_kernel_equivalence.py::"
         "test_generated_networks_match_the_reference",
         "tests/test_simkernel.py::test_crowd_dense_digests[1]")),
    # an instant's rows in a segment block with no empty piece for its
    # time text to join onto
    Mutant(
        "no-blank-piece", "src/luxnet/trace.py",
        '    pieces = [b""]\n',
        "    pieces = []\n",
        tuple(f"tests/test_simkernel.py::"
              f"test_segment_blocks_render_as_row_by_row[{case}-{rows}]"
              for case in ("lanes0-ticks0-2", "lanes1-ticks1-0",
                           "lanes2-ticks2-1") for rows in (7, 2048))
        + tuple(f"tests/test_simkernel.py::"
                f"test_a_one_node_network_renders_as_row_by_row[{rows}]"
                for rows in (7, 2048))),
    # the dot product of two faces reading bx for by
    Mutant(
        "angle-reads-bx-for-by", "src/luxnet/channel.py",
        "    cosine = min(max(ax * bx + ay * by + az * bz, -1.0), 1.0)\n",
        "    cosine = min(max(ax * bx + ay * bx + az * bz, -1.0), 1.0)\n",
        tuple(f"tests/test_metamorphic.py::"
              f"test_a_turned_or_mirrored_network_runs_bit_for_bit_alike"
              f"[{name}]" for name in ("paper-b-10h", "crowd-dense-0",
                                       "crowd-dense-1", "crowd-dense-3"))),
    # a node assesses itself primary from 2 V of PV open voltage
    Mutant(
        "psn-threshold-2v", "src/luxnet/node.py",
        "PSN_PV_THRESHOLD_V = 3.0\n",
        "PSN_PV_THRESHOLD_V = 2.0\n",
        ("tests/test_metamorphic.py::test_more_light_never_shortens_a_life",)),
    # a depleted node's quiet band reaching past V_CHARGE_READY, where
    # the hysteresis recovers it
    Mutant(
        "depleted-band-past-charge-ready", "src/luxnet/node.py",
        "        low, high = -math.inf, V_CHARGE_READY\n",
        "        low, high = -math.inf, math.nextafter(V_CHARGE_READY, "
        "math.inf)\n",
        ("tests/test_node.py::"
         "test_the_hysteresis_does_nothing_inside_the_quiet_band"
         "[Depleted-PSN]",
         "tests/test_node.py::"
         "test_the_hysteresis_does_nothing_inside_the_quiet_band"
         "[Depleted-SSN]")),
)

# mutants named once that no longer apply, with the reason
RETIRED = {
    "full-slack-removed": "StorageCapacitor's 1e-9 V top slack, which it "
                          "dropped, is itself gone (start_voltage_v is "
                          "(0, 4.5])",
    "one-lane-sample-instants": "SampleInstant is gone: a sample at a "
                                "stretch's end is a segment, and "
                                "one-segment-per-lane books the same fault "
                                "there",
}


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
    # a test named without its parameters survives if any case passed
    return [test for test in mutant.kills
            if any(case == test or case.startswith(test + "[")
                   for case in passed)]


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
