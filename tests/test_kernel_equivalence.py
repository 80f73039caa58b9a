"""Differential tests: the kernel against the per-tick reference loop.

The kernel runs the full tick only where a frame, the controller or a
node can act, and advances each quiet stretch in between in one
closed-form step.  Every TraceSet it returns must match the one from the
loop that runs every tick in full (kernel_oracle.py): the same events,
frames, states and depletion instants, and storage voltages and float
tallies that differ only by the rounding of one step against many.
"""

import math
from dataclasses import asdict, replace

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from kernel_oracle import run_scenario as oracle_run
from luxnet.channel import InterferenceModel
from luxnet.cli import parse_scenario_file, shipped_scenario_path
from luxnet.controller import ControllerConfig
from luxnet.energy import DEFAULT_PROFILE
from luxnet.simkernel import (
    FaceSpec,
    NodeSpec,
    OapSpec,
    Scenario,
    _Runtime,
    audit_conservation,
    run_scenario,
)
from test_simkernel import guard_scenario


def shipped(stem, **changes):
    return replace(parse_scenario_file(shipped_scenario_path(stem)),
                   **changes)


# what one closed-form step may differ by from the per-tick sums
VOLTS = 1e-9
RELATIVE = 1e-9
ENERGY_TALLIES = ("harvested_j", "consumed_j", "leaked_j", "clamp_loss_j",
                  "start_energy_j", "final_energy_j")


def assert_same_trace(scenario):
    """The kernel's trace is the reference's, up to the rounding of
    closed-form stretches, and a rerun repeats it exactly."""
    trace = run_scenario(scenario)
    assert asdict(trace) == asdict(run_scenario(scenario))
    reference = oracle_run(scenario)
    assert len(trace.rows) == len(reference.rows)
    for got, want in zip(trace.rows, reference.rows):
        assert (replace(got, v_cap=0.0, harvested_j=0.0)
                == replace(want, v_cap=0.0, harvested_j=0.0))
        assert abs(got.v_cap - want.v_cap) <= VOLTS, got
        assert got.harvested_j == pytest.approx(want.harvested_j,
                                                rel=RELATIVE), got
    assert trace.frame_log == reference.frame_log
    assert trace.controller_log == reference.controller_log
    for nid, got in trace.aggregates.items():
        want = reference.aggregates[nid]
        assert ((got.depleted_at, got.lux_min, got.lux_max)
                == (want.depleted_at, want.lux_min, want.lux_max))
        assert abs(got.final_voltage - want.final_voltage) <= VOLTS
        assert got.lux_integral == pytest.approx(want.lux_integral,
                                                 rel=RELATIVE)
        assert got.time_by_state == pytest.approx(want.time_by_state,
                                                  rel=RELATIVE)
        # relative to the energy the node moved: a clamp loss sums
        # rounding residues near zero
        moved = want.harvested_j + want.consumed_j + want.leaked_j
        for name in ENERGY_TALLIES:
            assert abs(getattr(got, name) - getattr(want, name)) <= (
                RELATIVE * moved), (nid, name)
    assert max(audit_conservation(trace).values()) <= 1e-9
    return trace


@pytest.mark.parametrize("stem", ["paper_a", "paper_b"])
def test_first_two_hours_of_shipped_scenarios(stem):
    assert_same_trace(shipped(stem, duration_s=7200.0))


def test_autonomous_sharing():
    trace = assert_same_trace(shipped("paper_b", duration_s=3600.0,
                                      etx_policy="autonomous"))
    assert any(r.event == "etx start" for r in trace.rows)


def test_row_every_tick_at_a_finer_step():
    trace = assert_same_trace(shipped("paper_b", duration_s=900.0,
                                      step_s=0.05, trace_interval_s=0.05))
    assert any(r.event == "etx start" for r in trace.rows)


def test_lone_node_depletes_and_recovers():
    # sleep outdraws the 300 uW harvest, so the node runs down into the
    # lockout; locked out it draws nothing and charges back past v_chrdy
    node = NodeSpec(node_id=1, position=(0.0, 0.0, 0.0),
                    faces=(FaceSpec((0.0, 1.0, 0.0), 1000.0 / 3.0),
                           FaceSpec((0.0, 0.0, 1.0), 0.0),
                           FaceSpec((0.0, 0.0, -1.0), 0.0)),
                    start_voltage=3.3)
    profile = replace(DEFAULT_PROFILE, sleep=0.4e-3, standby=0.5e-3)
    trace = assert_same_trace(Scenario(
        name="relapse", duration_s=5000.0, nodes=(node,), profile=profile))
    events = [r.event for r in trace.rows if r.event]
    assert "depleted" in events
    assert "recovered from depletion" in events


def test_four_node_interference_guard():
    assert_same_trace(guard_scenario())


def test_a_session_cut_at_its_floor_when_a_neighbour_goes_dark():
    # node 1's short burst charges node 2 to full, so node 2 starts its
    # session in node 1's light and budgets with it.  Node 1 goes dark a
    # tenth of a second later, node 2 drains faster than budgeted, and
    # step_node cuts its session at v_min, ending a quiet stretch
    faces = (FaceSpec((0.0, 1.0, 0.0), 1000.0),
             FaceSpec((0.0, 0.0, 1.0), 1000.0))
    first = NodeSpec(node_id=1, position=(0.0, 0.0, 0.0),
                     faces=faces + (FaceSpec((1.0, 0.0, 0.0), 0.0),),
                     start_voltage=4.5, v_min=4.3, led_power_w=27.8e-3,
                     led_aim=(1.0, 0.0, 0.0))
    second = NodeSpec(node_id=2, position=(0.2, 0.0, 0.0),
                      faces=(FaceSpec((-1.0, 0.0, 0.0), 1000.0),) + faces,
                      start_voltage=4.49, v_min=3.8, led_power_w=27.8e-3,
                      led_aim=(-1.0, 0.0, 0.0))
    trace = assert_same_trace(Scenario(
        name="cut", duration_s=60.0, nodes=(first, second),
        etx_policy="autonomous"))
    sessions = [(r.time_s, r.node_id, r.event) for r in trace.rows
                if r.event.startswith("etx")]
    assert sessions == [(0.1, 1, "etx start"), (6.9, 2, "etx start"),
                        (7.0, 1, "etx end (floor)"),
                        (30.200000000000003, 2, "etx end (floor)")]
    # node 2 is on the air 23.3 s of the 23.48 s budgeted in node 1's light


def test_quiet_stretches_move_only_storage_voltage(monkeypatch):
    # node timers are instants, so a stretch writes nothing on a node but
    # its storage voltage, unless the last tick's hysteresis moves the
    # node into or out of the lockout; that holds for a full tick's
    # one-tick stretch too, after its step_node calls
    def snapshot(record):
        fields = dict(vars(record))
        storage = dict(vars(fields.pop("storage")))
        del storage["voltage"]
        return fields, storage

    stretch = _Runtime.stretch
    compared = []

    def checked(rt, i, ticks, results=None):
        records = [lane.record for lane in rt.lanes]
        before = [snapshot(record) for record in records]
        states = [record.state for record in records]
        after_last = stretch(rt, i, ticks, results)
        for record, was, state in zip(records, before, states):
            if record.state is state:
                assert snapshot(record) == was, (record.node_id, i)
                compared.append(results is None)
        return after_last

    monkeypatch.setattr(_Runtime, "stretch", checked)
    run_scenario(shipped("paper_b", duration_s=7200.0))
    assert compared.count(True) > 100 and compared.count(False) > 100


# ---------------------------------------------------------------------------
# generated networks

RING_RADIUS_M = 0.15


def ring_position(index, count):
    angle = 2.0 * math.pi * index / count
    return (RING_RADIUS_M * math.cos(angle), RING_RADIUS_M * math.sin(angle),
            0.0)


@st.composite
def networks(draw):
    count = draw(st.integers(1, 4))
    lux = st.sampled_from([0.0, 60.0, 150.0, 400.0, 1000.0, 1500.0])
    nodes = []
    for index in range(count):
        here = ring_position(index, count)
        there = ring_position((index + 1) % count, count)
        aim = tuple(b - a for a, b in zip(here, there))
        emitter = count > 1 and draw(st.booleans())
        nodes.append(NodeSpec(
            node_id=index + 1, position=here,
            faces=(FaceSpec((0.0, 1.0, 0.0), draw(lux)),
                   FaceSpec((1.0, 0.0, 0.0), draw(lux)),
                   FaceSpec((0.0, 0.0, 1.0), draw(lux))),
            start_voltage=draw(st.floats(3.1, 4.5)),
            v_min=draw(st.sampled_from([3.2, 3.3, 3.4, 3.8])),
            led_power_w=27.8e-3 if emitter else 0.0,
            led_aim=aim if emitter else None,
            sensing_enabled=draw(st.booleans())))
    policies = ["disabled"]
    if any(n.led_power_w > 0.0 for n in nodes):
        policies += ["oap", "autonomous"]
    step_s = draw(st.sampled_from([0.05, 0.1, 0.2]))
    interference = draw(st.sampled_from([
        None, InterferenceModel(midpoint_lux=1000.0, steepness_per_lux=0.01,
                                floor=0.05)]))
    return Scenario(
        name="generated",
        duration_s=draw(st.floats(60.0, 900.0)),
        nodes=tuple(nodes),
        oap=OapSpec(config=ControllerConfig(
            t_data_req=draw(st.sampled_from([480.0, 600.0])), t_int=600.0,
            slot_spacing_s=5.0, etx_offset_s=20.0, etx_spacing_s=30.0)),
        step_s=step_s,
        seed=draw(st.integers(0, 2 ** 16)),
        trace_interval_s=step_s * draw(st.sampled_from([1, 7, 100])),
        etx_policy=draw(st.sampled_from(policies)),
        interference=interference)


# each shrink step runs the kernel twice and the per-tick loop once, so a
# failure reports the drawn network as it is
@settings(phases=(Phase.explicit, Phase.generate))
@given(networks())
def test_generated_networks_match_the_reference(scenario):
    assert_same_trace(scenario)
