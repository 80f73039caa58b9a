"""luxnet benchmark: time or trace one workload; the last line is JSON.

    python3 perfbench/run.py --workload paper-a --seed 1 --seconds 40 --trace 0

With --trace 0 it makes closed-loop `luxnet run` jobs one at a time, each
in a fresh process, until the next one would end past --seconds (always
at least one).  Between the runs it takes SETUP_SAMPLES samples of
setup_s, spread over the window in step with the time used: a fresh
interpreter importing luxnet and returning a validated scenario.  Every
run's outputs are checked (see check.py).

The shared host changes speed by up to 1.7x from one second to the next.
So the harness keeps itself and its workers on one CPU, times a fixed
calibration loop after each run and each setup sample, and scales each
sample by CAL_REF_S over the mean calibration time just before and just
after it: the time it would have taken on a host where the loop takes
CAL_REF_S.  It reports wall_s and setup_s so scaled, and peak_rss_mb, as
medians over the samples, and prints the unscaled host seconds too.

With --trace 1 it makes one untraced run and two runs under the span
tracer, checks all three, asserts that every layer's call count repeats,
and reports the per-layer metrics.  --seconds does not apply there.

Exit code 0 whenever a result line is printed, with "correct": false if
any run failed; 2 when the checkout holds no luxnet sources.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from check import compare, fingerprint, invariants, load_reference, seed_key
from workloads import (
    ROOT,
    WORKLOADS,
    SRC,
    ProgramMissing,
    Workload,
    load_luxnet,
    run_argv,
    scenario_file,
)

WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / ".perfbench-out"
# what setup_s times, in a fresh interpreter: argv is [src, scenario]
SETUP_PROGRAM = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from luxnet.cli import parse_scenario_file; "
    "from luxnet.simkernel import validate_scenario; "
    "validate_scenario(parse_scenario_file(sys.argv[2]))")
# setup_s samples per invocation, whatever the number of runs
SETUP_SAMPLES = 20
CAL_ITERATIONS = 500_000
# reference host speed: the calibration loop's time, close to its median
# on the host of the README baseline
CAL_REF_S = 0.1
TRACED_RUNS = 2
WORKER_TIMEOUT_S = 170

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> (unit, source).  "layer" sources read the traced
# runs' span statistics, "fact" sources read simulated counts, and
# "derived" ones are computed in traced() from the untraced run.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "cli.parse_scenario_file.self_s": ("s", "layer"),
    "cli.cmd_run.self_s": ("s", "layer"),
    "simkernel.ticks": ("count", "fact"),
    "simkernel.tick_ns": ("ns", "derived"),
    "simkernel.run_scenario.self_s": ("s", "layer"),
    "node.step_node.calls": ("count", "layer"),
    "node.step_node.self_s": ("s", "layer"),
    "node.state_draw_w.self_s": ("s", "layer"),
    "node.apply_hysteresis.self_s": ("s", "layer"),
    "node.etx_sessions": ("count", "fact"),
    "energy.storage_step.calls": ("count", "layer"),
    "energy.storage_step.self_s": ("s", "layer"),
    "energy.harvest_power.calls": ("count", "layer"),
    "energy.harvest_power.self_s": ("s", "layer"),
    "controller.step.calls": ("count", "layer"),
    "controller.step.self_s": ("s", "layer"),
    "controller.on_uplink.calls": ("count", "layer"),
    "controller.on_uplink.self_s": ("s", "layer"),
    "channel.illuminance_at.calls": ("count", "layer"),
    "channel.frame_failure_probability.calls": ("count", "layer"),
    "channel.interference_drops": ("count", "fact"),
    "simkernel.trace_rows": ("count", "fact"),
    "simkernel.event_rows": ("count", "fact"),
    "simkernel.frames_sent": ("count", "fact"),
    "simkernel.delivery_ratio": ("ratio", "fact"),
    "simkernel.summarize.self_s": ("s", "layer"),
    "simkernel.format_trace_csv.self_s": ("s", "layer"),
    "simkernel.render_summary.self_s": ("s", "layer"),
    "trace.overhead_s": ("s", "derived"),
}


class RunFailed(Exception):
    pass


@contextlib.contextmanager
def scratch_dir(prefix: str) -> Iterator[Path]:
    """A fresh directory under OUT_DIR, removed afterwards."""
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{prefix}-", dir=OUT_DIR))
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _worker(args: List[str]) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    try:
        proc = subprocess.run([sys.executable, str(WORKER)] + args,
                              capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"worker timed out after {WORKER_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise RunFailed(f"worker exited {proc.returncode}: {tail}")
    return json.loads(lines[-1])


class Runner:
    """Makes and checks the runs of one workload and seed."""

    def __init__(self, workload: Workload, seed: int, work: Path,
                 use_reference: bool = True):
        self.workload = workload
        self.work = work
        self.scenario = scenario_file(workload, seed, work)
        self.reference = None
        if use_reference:
            self.reference = load_reference(workload.name,
                                            seed_key(workload.seeded, seed))
        if use_reference and self.reference is None:
            print(f"note: no stored reference for {workload.name} seed "
                  f"{seed}; runs are checked for conservation, liveness "
                  f"and repeatability only", file=sys.stderr)
        self.runs = 0
        # fingerprint of the first run, which later runs must repeat
        self.first: Optional[dict] = None

    def setup_s(self) -> float:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROGRAM,
                               str(SRC), str(self.scenario)],
                              capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RunFailed(f"setup exited {proc.returncode}: "
                            + proc.stderr.strip()[-300:])
        return elapsed

    def run(self, spans: Optional[Path] = None) -> Tuple[dict, List[str]]:
        """One luxnet run: (worker result, problems found by the check)."""
        self.runs += 1
        out = self.work / f"run{self.runs}"
        args = ["--spans", str(spans)] if spans else []
        result = _worker(args + run_argv(self.workload, self.scenario, out))
        try:
            if result["exit_code"] != 0:
                return result, [f"luxnet exited {result['exit_code']}"]
            stem = self._output_stem(out)
            stride = self.reference["stride"] if self.reference else None
            try:
                got = fingerprint(stem.with_suffix(".csv"),
                                  stem.with_suffix(".summary.txt"), result,
                                  stride=stride)
            except (OSError, ValueError, IndexError) as exc:
                return result, [f"unreadable output: {exc}"]
            problems = invariants(result, got, self.workload.live)
            if self.reference is not None:
                problems += compare(self.reference, got)
            # same code, same inputs: outputs must repeat exactly,
            # traced or not
            if self.first is None:
                self.first = got
            elif got != self.first:
                problems.append("outputs differ from the first run of this "
                                "invocation")
            result["counts"] = got["counts"]
            return result, problems
        finally:
            shutil.rmtree(out, ignore_errors=True)

    @staticmethod
    def _output_stem(out: Path) -> Path:
        csvs = list(out.glob("*.csv"))
        if len(csvs) != 1:
            raise RunFailed(f"expected one CSV in the output, found "
                            f"{len(csvs)}")
        return csvs[0].with_suffix("")


def _attempt(runner: Runner, failures: Dict[int, str],
             **kwargs) -> Optional[dict]:
    """One run; failures are recorded by run number.  None if it crashed."""
    try:
        result, problems = runner.run(**kwargs)
    except RunFailed as exc:
        failures[runner.runs] = str(exc)
        return None
    if problems:
        failures[runner.runs] = "; ".join(problems)
    return result


def tail_percentile(samples: List[float]) -> Optional[Tuple[int, float]]:
    """Highest nearest-rank percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    rank = n - 10
    return math.floor(100.0 * rank / n), sorted(samples)[rank - 1]


def describe(name: str, unit: str, samples: List[float]) -> str:
    tail = tail_percentile(samples)
    tail_text = (f"p{tail[0]} {tail[1]:.6g}" if tail
                 else "no tail percentile (needs 11+ samples)")
    return (f"{name}: median {statistics.median(samples):.6g} {unit}, "
            f"{tail_text}, n={len(samples)}")


class _Cell:
    __slots__ = ("v", "c")


def _cal_step(cell: _Cell, i: int) -> bool:
    cell.v += (1e-6 * (i % 13) - 2e-7) / cell.c
    return cell.v > 3.0


def calibration_s() -> float:
    """Host seconds for a fixed loop of calls, attribute and float work.

    It is the kind of work the kernel's per-tick loop does, so a host
    that slows one down slows the other about as much.
    """
    cell = _Cell()
    cell.v, cell.c = 4.0, 0.047
    t0 = time.perf_counter()
    for i in range(CAL_ITERATIONS):
        _cal_step(cell, i)
    return time.perf_counter() - t0


def pin_to_one_cpu() -> None:
    """Keep this process and every process it starts on one CPU.

    The CPUs of a shared host change speed independently, so the
    calibration loop only tells the speed a run saw when both ran on the
    same one.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def timed(runner: Runner, seconds: float):
    """Runs and setup probes for one window.

    Returns the runs attempted, the failures and the samples: wall_s and
    setup_s (scaled to the reference host speed), peak_rss_mb, and the
    host_wall_s, host_setup_s and cal_s behind the scaled ones.
    """
    failures: Dict[int, str] = {}
    # the first import compiles bytecode; users pay that once
    runner.setup_s()
    samples: Dict[str, List[float]] = {name: [] for name in (
        "wall_s", "setup_s", "peak_rss_mb", "host_wall_s", "host_setup_s",
        "cal_s")}
    # calibration samples taken since the last measurement
    cal_before = [calibration_s(), calibration_s()]

    def at_reference_speed(host_s: float, cal_after: int) -> float:
        """host_s scaled by the calibrations just before and just after."""
        nonlocal cal_before
        after = [calibration_s() for _ in range(cal_after)]
        samples["cal_s"] += after
        speed = statistics.mean(cal_before + after) / CAL_REF_S
        cal_before = after
        return host_s / speed

    def probe(count: int) -> None:
        for _ in range(count):
            host_s = runner.setup_s()
            samples["host_setup_s"].append(host_s)
            samples["setup_s"].append(at_reference_speed(host_s, 1))

    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        # keep the probes level with the share of the window used
        due = math.ceil(SETUP_SAMPLES * (began - start) / seconds)
        probe(max(1, min(due, SETUP_SAMPLES) - len(samples["setup_s"])))
        result = _attempt(runner, failures)
        # a run that ended early with an error would read as a fast one
        if result is not None and "counts" in result:
            samples["host_wall_s"].append(result["wall_s"])
            samples["wall_s"].append(at_reference_speed(result["wall_s"], 2))
            samples["peak_rss_mb"].append(result["peak_rss_mb"])
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break
    probe(max(0, SETUP_SAMPLES - len(samples["setup_s"])))
    if not samples["wall_s"]:
        raise RunFailed("no run completed: "
                        + " | ".join(failures.values()))
    return runner.runs, failures, samples


def traced(runner: Runner):
    failures: Dict[int, str] = {}
    untraced = _attempt(runner, failures)
    spans_dir = OUT_DIR / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    # each traced run overwrites the file, leaving the last run's spans
    spans = spans_dir / f"{runner.workload.name}.npz"
    traced_results = [_attempt(runner, failures, spans=spans)
                      for _ in range(TRACED_RUNS)]
    if not all(r is not None and "counts" in r
               for r in [untraced] + traced_results):
        raise RunFailed("traced runs incomplete: "
                        + " | ".join(failures.values()))

    per_run = []
    for result in traced_results:
        values = {}
        for name, (_, source) in PER_LAYER.items():
            layer, _, field = name.rpartition(".")
            if source == "layer":
                values[name] = result["layers"][layer][
                    "calls" if field == "calls" else "self_s"]
            elif source == "fact":
                values[name] = result["counts"][field]
        per_run.append(values)
    # Runner.run has already held every run's simulated counts to the
    # first run's; the call counts are what the tracer alone sees
    for layer in traced_results[0]["layers"]:
        seen = {r["layers"][layer]["calls"] for r in traced_results}
        if len(seen) != 1:
            failures.setdefault(runner.runs, f"{layer}.calls did not "
                                             f"repeat: {sorted(seen)}")

    metrics = {}
    for name, (unit, source) in PER_LAYER.items():
        if source == "derived":
            continue
        # times are medians over the traced runs; counts are the first
        # run's, since the exact ones were just shown to repeat
        value = (statistics.median(values[name] for values in per_run)
                 if unit == "s" else per_run[0][name])
        metrics[name] = {"value": value, "unit": unit}
    ticks = metrics["simkernel.ticks"]["value"]
    metrics["simkernel.tick_ns"] = {
        "value": untraced["run_scenario_s"] / ticks * 1e9, "unit": "ns"}
    traced_wall = statistics.median(r["wall_s"] for r in traced_results)
    metrics["trace.overhead_s"] = {
        "value": traced_wall - untraced["wall_s"], "unit": "s"}
    metrics = {name: metrics[name] for name in PER_LAYER}

    print(f"untraced wall_s {untraced['wall_s']:.4f} s, traced wall_s "
          f"{traced_wall:.4f} s (median of {TRACED_RUNS}), traced peak RSS "
          f"{max(r['peak_rss_mb'] for r in traced_results):.1f} MB; spans "
          f"in {spans}")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}" if m["unit"] != "count"
              else f"{name}: {m['value']} count")
    return runner.runs, failures, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        load_luxnet()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    try:
        with scratch_dir(args.workload) as work:
            runner = Runner(WORKLOADS[args.workload], args.seed, work)
            if args.trace:
                attempted, failures, metrics = traced(runner)
            else:
                attempted, failures, samples = timed(runner, args.seconds)
                for name, unit in dict(END_TO_END, host_wall_s="s",
                                       host_setup_s="s", cal_s="s").items():
                    print(describe(name, unit, samples[name]))
                    print(f"{name} samples: "
                          + " ".join(f"{v:.6g}" for v in samples[name]))
                metrics = {name: {"value": statistics.median(samples[name]),
                                  "unit": unit}
                           for name, unit in END_TO_END.items()}
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for run, problem in sorted(failures.items()):
        print(f"run {run} failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
