"""One measured luxnet run in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py [--spans FILE] LUXNET_ARGS...

It makes one `luxnet run` through ``luxnet.cli.main`` and reports its
wall time (after import), the process's peak resident memory and what
the output check needs from the trace.  With --spans it runs under the
span tracer, writes the spans to FILE and adds per-layer figures.  Each
run gets its own process so that peak memory belongs to that run alone.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from workloads import load_luxnet


def _trace_facts(trace) -> dict:
    """Simulated outputs that the CSV and summary do not carry."""
    from luxnet.simkernel import audit_conservation

    return {
        "ticks": int(round(trace.duration_s / trace.step_s)),
        "frames_sent": trace.frames_sent,
        "delivery_ratio": (trace.deliveries_made / trace.deliveries_intended
                           if trace.deliveries_intended else 1.0),
        "interference_drops": sum(1 for e in trace.frame_log
                                  if e.outcome == "failed"
                                  and e.cause == "interference"),
        "max_conservation_residual": max(
            audit_conservation(trace).values()),
    }


def _run(argv, spans_path) -> dict:
    load_luxnet()
    from luxnet import cli, simkernel

    captured = {}
    real_run = cli.run_scenario
    real_ffp = simkernel.frame_failure_probability
    ffp_calls = [0]

    # the output check needs the TraceSet and the interference call
    # count; both wrappers run rarely (once per run, once per downlink
    # frame per node during a burst), so the timing is unaffected
    def run_scenario(scenario):
        t0 = time.perf_counter()
        captured["trace"] = real_run(scenario)
        captured["run_scenario_s"] = time.perf_counter() - t0
        return captured["trace"]

    def frame_failure_probability(*args, **kwargs):
        ffp_calls[0] += 1
        return real_ffp(*args, **kwargs)

    cli.run_scenario = run_scenario
    simkernel.frame_failure_probability = frame_failure_probability
    try:
        if spans_path is None:
            t0 = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - t0
            layers = None
        else:
            from tracer import Tracer, layer_targets

            with Tracer(layer_targets()) as tracer:
                t0 = time.perf_counter()
                code = cli.main(argv)
                wall = time.perf_counter() - t0
            layers = tracer.layer_stats()
            tracer.save(Path(spans_path))
    finally:
        cli.run_scenario = real_run
        simkernel.frame_failure_probability = real_ffp
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "exit_code": code,
        "wall_s": wall,
        "peak_rss_mb": peak_kib / 1024.0,
        "frame_failure_probability_calls": ffp_calls[0],
    }
    if "trace" in captured:
        result["run_scenario_s"] = captured["run_scenario_s"]
        result.update(_trace_facts(captured["trace"]))
    if layers is not None:
        result["layers"] = layers
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans", default=None)
    parser.add_argument("args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    result = _run(args.args, args.spans)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
