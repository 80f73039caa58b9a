"""The floats of a few runs and of the interference sweep, as float.hex
text, for comparison across interpreters.

It imports only the standard library and luxnet, so any interpreter that
runs luxnet runs it:

    PYTHONPATH=src python tests/float_figures.py

prints the figures as one JSON document.  test_interpreters.py compares
that output under each interpreter it finds with the running one's.
guard_scenario lives here for that reason; test_simkernel pins its
digests.
"""

import json

from luxnet.channel import InterferenceModel
from luxnet.cli import parse_scenario_file, shipped_scenario_path
from luxnet.controller import ControllerConfig
from luxnet.experiments import interference_sweep
from luxnet.simkernel import (
    FaceSpec,
    NodeSpec,
    OapSpec,
    Scenario,
    run_scenario,
)
from luxnet.trace import summarize


def guard_scenario():
    """Four nodes, scheduled sharing, interference, a row every tick.

    The first sharing round comes at t_data_req (480 s), so 600 s takes
    in both emitter sessions, and with seed 1 one sharing request is lost
    to interference while the other emitter is on the air.
    """
    def node(node_id, position, lux, **kw):
        return NodeSpec(
            node_id=node_id, position=position,
            faces=(FaceSpec((0.0, 1.0, 0.0), lux[0]),
                   FaceSpec((1.0, 0.0, 0.0), lux[1]),
                   FaceSpec((0.0, 0.0, 1.0), lux[2])),
            **kw)

    bright = (1000.0, 1000.0, 1000.0)
    return Scenario(
        name="guard", duration_s=600.0, step_s=0.1, seed=1,
        trace_interval_s=0.1, etx_policy="oap",
        nodes=(node(1, (-0.075, 0.1299, 0.0), bright, v_min=3.8,
                    led_power_w=27.8e-3, led_aim=(0.075, -0.1299, 0.0)),
               node(2, (0.0, 0.0, 0.0), (150.0, 0.0, 0.0), v_min=3.4),
               node(3, (0.075, 0.1299, 0.0), bright, v_min=3.8,
                    led_power_w=27.8e-3, led_aim=(-0.075, -0.1299, 0.0)),
               node(4, (0.0, -0.1, 0.0), (90.0, 40.0, 0.0), v_min=3.4,
                    start_voltage=4.2)),
        oap=OapSpec(config=ControllerConfig(
            t_data_req=480.0, t_int=600.0, slot_spacing_s=5.0,
            etx_offset_s=20.0, etx_spacing_s=30.0)),
        interference=InterferenceModel(midpoint_lux=1000.0,
                                       steepness_per_lux=0.01, floor=0.05))


def encode(value):
    """value as JSON data with every float as its float.hex text: tuples,
    lists and slotted records as lists, dicts and ranges as pairs."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [encode(item) for item in value]
    if isinstance(value, dict):
        return [[encode(k), encode(v)] for k, v in value.items()]
    if isinstance(value, range):
        return ["range", value.start, value.stop, value.step]
    if hasattr(value, "__slots__"):
        return [[name, encode(getattr(value, name))]
                for name in value.__slots__]
    return value


def figures():
    """Each run's lane aggregates, segment constants, discrete records and
    summary, for paper-a's and paper-b's first two hours and
    guard_scenario, and the points of interference_sweep()."""
    scenarios = {
        stem: parse_scenario_file(shipped_scenario_path(stem))._replace(
            duration_s=7200.0)
        for stem in ("paper_a", "paper_b")}
    scenarios["guard"] = guard_scenario()
    result = {}
    for name, scenario in scenarios.items():
        trace = run_scenario(scenario)
        result[name] = encode({
            "aggregates": trace.aggregates,
            "segments": trace.segments,
            "discrete": trace.discrete,
            "summary": summarize(trace),
        })
    result["sweep"] = encode(interference_sweep())
    return result


if __name__ == "__main__":
    print(json.dumps(figures()))
