"""Differential tests: the kernel against the per-tick reference loop.

The kernel runs the full tick only where a frame, the controller or a
node can act, and advances each quiet stretch in between in one
closed-form step.  Every TraceSet it returns must match the one from the
loop that runs every tick in full (kernel_oracle.py): the same events,
frames, states and depletion instants, and storage voltages and float
tallies that differ only by the rounding of one step against many.
The same generated networks also run at two step sizes against each
other (the step-halving property).
"""

import math
from bisect import bisect_left

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from kernel_oracle import run_scenario as oracle_run
from luxnet import simkernel
from luxnet import trace as trace_module
from luxnet.channel import InterferenceModel
from luxnet.cli import parse_scenario_file, shipped_scenario_path
from luxnet.controller import DUE_TOLERANCE_S, ControllerConfig
from luxnet.energy import (
    STORAGE_FULL_J,
    V_OVERDISCHARGE,
    _closed_form,
    clamp_runs,
    storage_step,
    voltage_after,
)
from luxnet.node import (
    SESSION_FLOOR_TOL_V,
    NodeState,
    NodeStepResult,
    apply_hysteresis,
    quiet_band,
    step_node,
)
from luxnet.protocol import Command, NodeToOap, OapToNode, decode44, encode44
from luxnet.simkernel import (
    FaceSpec,
    NodeSpec,
    OapSpec,
    Scenario,
    _Runtime,
    audit_conservation,
    run_scenario,
    tick_count,
)
from luxnet.trace import (
    CSV_BLOCK_ROWS,
    SegmentLane,
    TraceRow,
    TraceSegment,
    TraceSet,
    segment_values,
    summarize,
)
from test_node import slot_values
from test_simkernel import (
    count_work,
    csv_text,
    events_for,
    guard_scenario,
    row_by_row_csv,
    rows_outside,
    sharing_every_tick_scenario,
)


def shipped(stem, **changes):
    return parse_scenario_file(shipped_scenario_path(stem))._replace(
        **changes)


# what one closed-form step may differ by from the per-tick sums
VOLTS = 1e-9
RELATIVE = 1e-9
ENERGY_TALLIES = ("harvested_j", "consumed_j", "leaked_j", "clamp_loss_j",
                  "start_energy_j", "final_energy_j")


def trace_values(trace):
    """Everything a TraceSet holds, its aggregates as field dicts."""
    values = slot_values(trace)
    values["aggregates"] = {nid: slot_values(agg)
                            for nid, agg in trace.aggregates.items()}
    return values


def assert_same_trace(scenario):
    """The kernel's trace is the reference's, up to the rounding of
    closed-form stretches, and a rerun repeats it exactly."""
    trace = run_scenario(scenario)
    assert trace_values(trace) == trace_values(run_scenario(scenario))
    reference = oracle_run(scenario)
    assert len(trace.rows) == len(reference.rows)
    for got, want in zip(trace.rows, reference.rows):
        assert (got._replace(v_cap=0.0, harvested_j=0.0)
                == want._replace(v_cap=0.0, harvested_j=0.0))
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
    # sleep and the leak outdraw the 135 uW harvest of 150 lx, so the
    # node runs down into the lockout; locked out it draws nothing and
    # charges back past v_chrdy
    node = NodeSpec(node_id=1, position=(0.0, 0.0, 0.0),
                    faces=(FaceSpec((0.0, 1.0, 0.0), 150.0),
                           FaceSpec((0.0, 0.0, 1.0), 0.0),
                           FaceSpec((0.0, 0.0, -1.0), 0.0)),
                    start_voltage=3.3)
    trace = assert_same_trace(Scenario(
        name="relapse", duration_s=10000.0, nodes=(node,)))
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
    # its storage's energy and voltage, unless the last tick's hysteresis
    # moves the node into or out of the lockout; that holds for a full
    # tick's one-tick stretch too, after its step_node calls
    def snapshot(record):
        fields = slot_values(record)
        storage = slot_values(fields.pop("storage"))
        del storage["energy"], storage["voltage"]
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


@pytest.mark.parametrize("scenario", [
    shipped("paper_b", duration_s=7200.0), guard_scenario()],
    ids=["paper_b", "guard"])
def test_every_full_tick_has_something_due(monkeypatch, scenario):
    # a full tick is spent only where a frame lands, the controller's
    # step acts (due <= now + DUE_TOLERANCE_S) or a node's step_node may
    # (due <= now + dt); any other tick belongs to a quiet stretch
    full_tick = _Runtime.full_tick
    ticks = []

    def checked(rt, i):
        now = i * rt.dt
        assert ((rt.in_flight and rt.in_flight[0][0] <= i)
                or rt.controller.next_due_s() <= now + DUE_TOLERANCE_S
                or any(quiet_band(lane.record)[2] <= now + rt.dt
                       for lane in rt.lanes)), i
        ticks.append(i)
        return full_tick(rt, i)

    monkeypatch.setattr(_Runtime, "full_tick", checked)
    run_scenario(scenario)
    assert ticks


def test_a_full_tick_steps_only_the_nodes_that_can_act(monkeypatch):
    # step_node leaves a node without a frame alone until it is due, so a
    # full tick steps only the nodes that hold a frame or are due by
    # quiet_run's test; the reference loop steps every node on every
    # tick, so the comparisons above cover the nodes left out
    calls = []

    def counting(record, dt, now, lux_per_face, harvest_w, frames=()):
        assert frames or quiet_band(record)[2] <= now + dt, (
            record.node_id, now)
        calls.append(record.node_id)
        return step_node(record, dt, now, lux_per_face, harvest_w, frames)

    monkeypatch.setattr(simkernel, "step_node", counting)
    run_scenario(shipped("paper_b", duration_s=10800.0))
    # stepping every node on every full tick made 942 calls
    assert len(calls) == 352


@pytest.mark.parametrize("scenario", [
    shipped("paper_b", duration_s=3600.0), sharing_every_tick_scenario(),
    shipped("paper_a", duration_s=27000.0)],
    ids=["paper_b", "sharing_every_tick", "paper_a"])
def test_only_a_node_that_acts_gets_a_step_result(monkeypatch, scenario):
    # step_node builds the only results, one per call: the kernel builds
    # none, for a node that did nothing in a stretch or on whose last
    # tick the depletion hysteresis acts (paper-a's 7.5 h hold a lockout,
    # which a quiet stretch ends; the others hold none)
    built, stepped, acted = [], [], []

    class Counted(NodeStepResult):
        __slots__ = ()

        def __init__(self):
            built.append(1)
            super().__init__()

    def stepping(*args):
        stepped.append(step_node(*args))
        return stepped[-1]

    def hysteresis(record, end):
        event = apply_hysteresis(record, end)
        if event:
            acted.append((record.node_id, end, event))
        return event

    monkeypatch.setattr("luxnet.node.NodeStepResult", Counted)
    monkeypatch.setattr(simkernel, "NodeStepResult", Counted)
    monkeypatch.setattr(simkernel, "step_node", stepping)
    monkeypatch.setattr(simkernel, "apply_hysteresis", hysteresis)
    run_scenario(scenario)
    assert stepped
    assert len(built) == len(stepped)
    assert bool(acted) is (scenario.name == "paper-a")


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


@given(networks())
def test_every_drawn_value_lies_in_its_key_interval(scenario):
    # the networks() domain stays inside the scenario file's key ranges
    assert rows_outside(scenario) == []


def sharing_pair(policy, duration_s):
    """A network networks() can draw that starts a sharing session: a
    full, bright emitter aimed at a dim neighbour.  Its session runs out
    its budget mid-step at 0.1 s and at 0.05 s."""
    bright = (1000.0, 1000.0, 1000.0)
    dim = (150.0, 0.0, 0.0)
    nodes = []
    for index, (lux, start, v_min, emitter) in enumerate(
            [(bright, 4.5, 3.8, True), (dim, 4.0, 3.4, False)]):
        here = ring_position(index, 2)
        there = ring_position((index + 1) % 2, 2)
        nodes.append(NodeSpec(
            node_id=index + 1, position=here,
            faces=(FaceSpec((0.0, 1.0, 0.0), lux[0]),
                   FaceSpec((1.0, 0.0, 0.0), lux[1]),
                   FaceSpec((0.0, 0.0, 1.0), lux[2])),
            start_voltage=start, v_min=v_min,
            led_power_w=27.8e-3 if emitter else 0.0,
            led_aim=(tuple(b - a for a, b in zip(here, there))
                     if emitter else None),
            sensing_enabled=False))
    return Scenario(
        name="generated", duration_s=duration_s, nodes=tuple(nodes),
        oap=OapSpec(config=ControllerConfig(
            t_data_req=480.0, t_int=600.0, slot_spacing_s=5.0,
            etx_offset_s=20.0, etx_spacing_s=30.0)),
        step_s=0.1, seed=0, trace_interval_s=0.7, etx_policy=policy)


# the derandomized draws start no session, so these two do
SHARING_PAIRS = (sharing_pair("autonomous", 120.0),
                 sharing_pair("oap", 900.0))


def test_the_sharing_pairs_start_a_session():
    for scenario in SHARING_PAIRS:
        trace = run_scenario(halving_domain(scenario))
        assert "etx start" in [r.event for r in events_for(trace, 1)]


# each shrink step runs the kernel twice and the per-tick loop once, so a
# failure reports the drawn network as it is
@settings(phases=(Phase.explicit, Phase.generate))
@given(networks())
@example(SHARING_PAIRS[0])
@example(SHARING_PAIRS[1])
def test_generated_networks_match_the_reference(scenario):
    assert_same_trace(scenario)


@given(networks())
def test_a_clamp_loss_is_booked_only_where_a_clamp_bites(scenario):
    # storage_step returns e0 + ticks * net minus the energy it stores,
    # which is 0.0 unless that sum lies outside 0..STORAGE_FULL_J
    steps = []

    def noting(cap, net, ticks):
        e0 = cap.energy
        loss = storage_step(cap, net, ticks)
        steps.append((e0 + ticks * net, loss))
        return loss

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simkernel, "storage_step", noting)
        run_scenario(scenario)
    assert steps
    assert [(e, loss) for e, loss in steps
            if loss and 0.0 <= e <= STORAGE_FULL_J] == []


@given(networks())
def test_every_lane_step_ends_one_anchor(scenario):
    # every lane between its events is an anchor, a lane that acted for
    # one tick included: each anchor sets its net once and ends in one
    # storage step, and no lane is stepped but from an anchor
    with pytest.MonkeyPatch.context() as patch:
        counts = count_work(patch)
        run_scenario(scenario)
    assert counts["lane-steps"]
    assert (counts["anchors"] == counts["lane-steps"]
            == counts["net_per_tick"])


# ---------------------------------------------------------------------------
# each node on its own clock


def anchor_trio():
    """Three nodes on networks()'s ring, reporting every 20 s: node 1
    wakes to sense at each report, node 3's burst lights node 2 until it
    ends at its floor at 23.3 s, and node 2, which senses only when
    asked, is asked once, at 6.1 s.  From then on node 2 neither acts nor
    sees its light change, while node 1's cycles take a full tick every
    few seconds."""
    def node(nid, lux, start, v_min=3.4, target=None):
        here = ring_position(nid - 1, 3)
        aim = None if target is None else tuple(
            b - a for a, b in zip(here, ring_position(target - 1, 3)))
        return NodeSpec(
            node_id=nid, position=here,
            faces=(FaceSpec((0.0, 1.0, 0.0), lux[0]),
                   FaceSpec((1.0, 0.0, 0.0), lux[1]),
                   FaceSpec((0.0, 0.0, 1.0), lux[2])),
            start_voltage=start, v_min=v_min,
            led_power_w=0.0 if target is None else 27.8e-3, led_aim=aim,
            sensing_enabled=nid != 2)

    dim = (150.0, 0.0, 0.0)
    return Scenario(
        name="anchor", duration_s=300.0,
        nodes=(node(1, dim, 4.0), node(2, dim, 3.9),
               node(3, (1000.0,) * 3, 4.5, 3.8, target=2)),
        oap=OapSpec(config=ControllerConfig(
            t_data_req=480.0, t_int=20.0, slot_spacing_s=5.0,
            etx_offset_s=20.0, etx_spacing_s=30.0)),
        step_s=0.1, seed=0, trace_interval_s=1.0, etx_policy="autonomous")


def test_an_idle_lane_is_stepped_once_per_anchor(monkeypatch):
    # a lane is stepped only where it acts, its light changes or its
    # event falls, each time in one closed-form step from its anchor;
    # node 2's last anchor is set where node 3's burst leaves it, at
    # tick 234, and holds through 28 full ticks of node 1 to the end.
    # Its rows there read the anchor's closed form
    counts = count_work(monkeypatch)
    spans, lit, full = [], [], []
    step_to = simkernel._Lane.step_to
    refresh = _Runtime._refresh_lux
    full_tick = _Runtime.full_tick

    def stepping(lane, tick, dt):
        if tick != lane.at:
            spans.append((lane.record.node_id, lane.at, tick))
        step_to(lane, tick, dt)

    def refreshing(rt, signature, i):
        before = [lane.lux for lane in rt.lanes]
        refresh(rt, signature, i)
        lit.extend((lane.record.node_id, i) for lane, was
                   in zip(rt.lanes, before) if lane.lux != was and i)

    def counting(rt, i):
        full.append(i)
        return full_tick(rt, i)

    monkeypatch.setattr(simkernel._Lane, "step_to", stepping)
    monkeypatch.setattr(_Runtime, "_refresh_lux", refreshing)
    monkeypatch.setattr(_Runtime, "full_tick", counting)
    trace = run_scenario(anchor_trio())
    # every lane-step is one lane's step from its anchor
    assert counts["lane-steps"] == len(spans)
    node_2 = [(start, end) for nid, start, end in spans if nid == 2]
    # each change of node 2's light ends its anchor there
    assert [i for nid, i in lit if nid == 2] == [1, 233, 234]
    assert {1, 233, 234} <= {end for _, end in node_2}
    assert node_2[-1] == (234, 3000)
    assert len([i for i in full if 234 < i < 3000]) == 28
    # the last quiet stretch's segment (not a sample at a stretch's end,
    # at instant 0) reads node 2's anchor: its energy and net there, and
    # its offset from it
    last = [record for record in trace.records
            if type(record) is TraceSegment and record.instants[0]][-1]
    [lane] = [lane for lane in last.lanes if lane.node_id == 2]
    assert last.i - lane.offset == 234
    e0, net = lane.e0, lane.net
    rows = [row for row in trace.rows
            if row.node_id == 2 and 23.4 < row.time_s and not row.event]
    assert len(rows) == 277
    for row in rows:
        v_cap = voltage_after(e0, net, round(row.time_s / 0.1) - 234)
        assert row.v_cap.hex() == v_cap.hex(), row
    csv_rows = [line for line in csv_text(trace).splitlines()[1:]
                if line.split(",")[1] == "2" and 23.4 < float(
                    line.split(",")[0])]
    assert [line.split(",")[2] for line in csv_rows] == [
        f"{row.v_cap:.6f}" for row in rows]


def test_the_anchor_trio_matches_the_reference():
    assert_same_trace(anchor_trio())


def row_based_steady(trace):
    """Each node's steady voltage mean and band as summarize read them
    when the trace was a list of rows: the sample rows from the first row
    at 0.75 of the run on."""
    rows = trace.rows
    first = bisect_left([row.time_s for row in rows], 0.75 * trace.duration_s)
    steady = {nid: [] for nid in trace.aggregates}
    for row in rows[first:]:
        if not row.event:
            steady[row.node_id].append(row.v_cap)
    figures = {}
    for nid, volts in steady.items():
        if volts:
            # left to right, as summarize adds: from Python 3.12 on sum()
            # adds floats with compensation
            total = 0.0
            for v in volts:
                total += v
            mean = total / len(volts)
            figures[nid] = (mean, max(abs(v - mean) for v in volts))
        else:
            figures[nid] = (trace.aggregates[nid].final_voltage, 0.0)
    return figures


def quiet_pair(lit=(400.0, 400.0), start_voltage=(3.9, 3.9)):
    """Two lit nodes networks() can draw, without emitters or sensing,
    sampled every tick for 60 s: most of the run is one quiet stretch,
    and so one segment."""
    nodes = tuple(NodeSpec(
        node_id=index + 1, position=ring_position(index, 2),
        faces=(FaceSpec((0.0, 1.0, 0.0), lux), FaceSpec((1.0, 0.0, 0.0), lux),
               FaceSpec((0.0, 0.0, 1.0), lux)),
        start_voltage=start, v_min=3.4, sensing_enabled=False)
        for index, (lux, start) in enumerate(zip(lit, start_voltage)))
    return Scenario(
        name="generated", duration_s=60.0, nodes=nodes,
        oap=OapSpec(config=ControllerConfig(
            t_data_req=480.0, t_int=600.0, slot_spacing_s=5.0,
            etx_offset_s=20.0, etx_spacing_s=30.0)),
        step_s=0.1, seed=0, trace_interval_s=0.1)


def held_pair():
    """The quiet pair with node 1 full under 1000 lx: the clamp holds its
    storage at STORAGE_FULL_J through most of its segment rows."""
    return quiet_pair(lit=(1000.0, 400.0), start_voltage=(4.5, 3.9))


def test_a_block_of_the_held_pair_starts_inside_a_held_run():
    # at 7 rows a block (3 instants of 2 lanes), blocks start where node
    # 1's storage is held both before and after: in its first segment,
    # and after it charges back to full in its last
    trace = run_scenario(held_pair())
    per_block = 7 // 2
    starts = [start for segment in trace.records
              if type(segment) is TraceSegment
              for (lo, hi, _, _) in clamp_runs(
                  [segment.lanes[0][5:8]], segment.instants)
              for start in range(per_block, len(segment.instants), per_block)
              if start < lo or hi < start]
    assert len(starts) > 30


def every_tick(scenario):
    """The scenario with a trace row every tick."""
    return scenario._replace(trace_interval_s=scenario.step_s)


def dark_node():
    """A lone node networks() can draw, in the dark and under its guard
    floor from the start: it depletes at about 150 s."""
    return Scenario(
        name="generated", duration_s=300.0,
        nodes=(NodeSpec(node_id=1, position=ring_position(0, 1),
                        faces=(FaceSpec((0.0, 1.0, 0.0), 0.0),
                               FaceSpec((1.0, 0.0, 0.0), 0.0),
                               FaceSpec((0.0, 0.0, 1.0), 0.0)),
                        start_voltage=3.22, v_min=3.3),),
        oap=OapSpec(config=ControllerConfig(
            t_data_req=480.0, t_int=600.0, slot_spacing_s=5.0,
            etx_offset_s=20.0, etx_spacing_s=30.0)),
        step_s=0.1, seed=0, trace_interval_s=0.1)


LIGHT_CHANGE = "a light change at a quiet stretch's start"
STATE_CHANGE = "a state change on a full tick"
DEPLETION = "a depletion"
# a session's light, and a depletion, sampled every tick
DENSE_EXAMPLES = (every_tick(SHARING_PAIRS[0]), dark_node())


def dense_situations(scenario):
    """Which of LIGHT_CHANGE, STATE_CHANGE and DEPLETION a run of the
    scenario holds: the light is set at a stretch's start alone, and
    step_node runs on full ticks alone."""
    seen = set()
    stretch = _Runtime.stretch

    def stretching(rt, i, ticks, results=None):
        lit = [lane.lux for lane in rt.lanes]
        end = stretch(rt, i, ticks, results)
        if results is None and lit != [lane.lux for lane in rt.lanes]:
            seen.add(LIGHT_CHANGE)
        return end

    def stepping(record, *args):
        state = record.state
        result = step_node(record, *args)
        if record.state != state:
            seen.add(STATE_CHANGE)
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Runtime, "stretch", stretching)
        patch.setattr(simkernel, "step_node", stepping)
        trace = run_scenario(scenario)
    if "depleted" in {row.event for row in trace.rows}:
        seen.add(DEPLETION)
    return seen


def test_the_dense_examples_hold_each_situation():
    sharing, dark = map(dense_situations, DENSE_EXAMPLES)
    assert sharing >= {LIGHT_CHANGE, STATE_CHANGE}
    assert dark >= {STATE_CHANGE, DEPLETION}


BLOCK_SIZES = st.sampled_from([1, 2, 7, 50, CSV_BLOCK_ROWS])


@given(networks().map(every_tick), BLOCK_SIZES)
@example(held_pair(), 7)
@example(DENSE_EXAMPLES[0], 7)
@example(DENSE_EXAMPLES[1], CSV_BLOCK_ROWS)
def test_segments_render_and_summarize_as_their_rows(scenario, block_rows):
    # a row every tick puts every quiet stretch's rows in a segment and
    # every other instant's in a sample instant; at 7 rows a block,
    # blocks start inside the runs a clamp holds
    trace = run_scenario(scenario)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("luxnet.trace.CSV_BLOCK_ROWS", block_rows)
        assert csv_text(trace) == row_by_row_csv(trace)
    summary = summarize(trace)
    assert {nid: (s.steady_mean_v, s.steady_band_v)
            for nid, s in summary.nodes.items()} == row_based_steady(trace)


def steady_figures(summary):
    return {nid: (s.steady_mean_v.hex(), s.steady_band_v.hex())
            for nid, s in summary.nodes.items()}


def test_the_final_quarter_of_the_quiet_pair_starts_inside_a_block():
    # 0.75 of the run falls inside a segment's instants, and at 7 rows a
    # block (3 instants of 2 lanes) inside one of its blocks
    trace = run_scenario(quiet_pair())
    since = 0.75 * trace.duration_s
    [segment] = [s for s in trace.records if type(s) is TraceSegment
                 and (s.i + s.instants[0]) * s.dt < since
                 <= (s.i + s.instants[-1]) * s.dt]
    k = bisect_left(segment.instants, since,
                    key=lambda n: (segment.i + n) * segment.dt)
    assert k % (7 // len(segment.lanes)) != 0


@given(networks(), BLOCK_SIZES)
@example(quiet_pair(), 7)
def test_the_csv_pass_tallies_the_summary_as_summarize_does(scenario,
                                                            block_rows):
    # summarize reads the final-quarter tally that format_trace_csv
    # booked, whatever the block size, or walks the rows itself; both
    # agree bit for bit with each other and with the rows
    trace = run_scenario(scenario)
    fresh = summarize(trace)
    assert trace.steady_tally is None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("luxnet.trace.CSV_BLOCK_ROWS", block_rows)
        csv_text(trace)
    assert trace.steady_tally is not None
    rendered = summarize(trace)
    assert rendered == fresh
    assert steady_figures(rendered) == steady_figures(fresh)
    assert steady_figures(rendered) == {
        nid: (mean.hex(), band.hex())
        for nid, (mean, band) in row_based_steady(trace).items()}


def one_instant_segments(trace):
    """The same trace with every segment cut into one per instant, and
    no final-quarter tally yet."""
    fields = slot_values(trace)
    del fields["steady_tally"]
    return TraceSet(**{**fields, "records": [
        piece for record in trace.records
        for piece in ([record] if type(record) is TraceRow else [
            record._replace(instants=record.instants[k:k + 1])
            for k in range(len(record.instants))])]})


@given(networks(), BLOCK_SIZES)
@example(DENSE_EXAMPLES[0], 2)
@example(DENSE_EXAMPLES[1], 1)
def test_csv_blocks_render_as_row_by_row(scenario, block_rows):
    # at a small block size a segment of more than one instant spans
    # several blocks; cut into one-instant segments, every segment is
    # one instant and renders as a block of its own
    trace = run_scenario(scenario)
    expected = row_by_row_csv(trace)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("luxnet.trace.CSV_BLOCK_ROWS", block_rows)
        assert csv_text(trace) == expected
        assert csv_text(one_instant_segments(trace)) == expected


@given(networks())
def test_a_one_instant_segment_renders_alike_through_either_block(scenario):
    # the CSV renders a segment of one instant among the event rows
    # (_discrete_block) and a longer one on its own (_segment_block): for
    # a one-instant segment both give the same bytes and book the same
    # final-quarter tally.  The records' rows are in time order
    trace = run_scenario(scenario)
    times = [time for record in trace.records for time in (
        (record.time_s,) if type(record) is TraceRow else
        ((record.i + record.instants[0]) * record.dt,
         (record.i + record.instants[-1]) * record.dt))]
    assert times == sorted(times)
    since = 0.75 * trace.duration_s
    row_templates = trace_module._RowTemplates()
    singles = [record for record in trace.records
               if type(record) is TraceSegment and len(record.instants) == 1]
    # the samples at tick 0 and at the run's end at least
    assert len(singles) >= 2
    for segment in singles:
        tallies = [{lane.node_id: [0.0, 0, math.inf, -math.inf]
                    for lane in segment.lanes} for _ in range(2)]
        lane_rows = [row_templates[lane[:5]] for lane in segment.lanes]
        assert trace_module._segment_block(
            segment, lane_rows, segment.instants, since, tallies[0]
        ) == trace_module._discrete_block(
            [segment], row_templates, since, tallies[1])
        assert tallies[0] == tallies[1]


def clamped_voltages(lane, instants):
    """A lane's storage voltage at each instant: the voltage storage_step
    steps to from the lane's e0, offset + n ticks of its net on
    (energy._closed_form)."""
    *_, e0, net, offset, _, _ = lane
    return [_closed_form(e0, net, offset + n)[2] for n in instants]


@st.composite
def segments(draw):
    """A segment whose lanes start inside, at the edges of or outside
    0..STORAGE_FULL_J, some with a net that reaches 0 or STORAGE_FULL_J
    at one of its instants, some with a net of +-0, each anchored up to
    10,000 ticks before the segment's tick."""
    start = draw(st.integers(0, 10_000))
    step = draw(st.integers(1, 3))
    instants = range(start, start + step * draw(st.integers(1, 300)), step)
    full = STORAGE_FULL_J
    lanes = []
    for nid in range(1, draw(st.integers(1, 4)) + 1):
        e0 = draw(st.sampled_from([-0.0, 0.0, full])
                  | st.floats(-full, 2.0 * full))
        offset = draw(st.sampled_from([0]) | st.integers(0, 10_000))
        n = offset + draw(st.sampled_from(instants)) or 1
        edge = draw(st.sampled_from([0.0, full]))
        net = draw(st.sampled_from([0.0, -0.0, (edge - e0) / n])
                   | st.floats(-full / 100, full / 100))
        lanes.append(SegmentLane(nid, 0.0, "SSN", "sleep", 0.0, e0, net,
                                 offset, 0.0, 0.0))
    return TraceSegment(draw(st.integers(0, 100)), instants, 0.1,
                        tuple(lanes))


# lanes that reach 0 and STORAGE_FULL_J partway, one that starts at
# -0.0 J, one with no net flow, and one anchored 3 ticks before the
# segment that reaches 0 partway
EDGE_SEGMENT = TraceSegment(0, range(1, 11), 0.1, (
    SegmentLane(1, 0.0, "SSN", "sleep", 0.0, 2.0, -0.4, 0, 0.0, 0.0),
    SegmentLane(2, 0.0, "SSN", "sleep", 0.0, 2.05, 0.4, 0, 0.0, 0.0),
    SegmentLane(3, 0.0, "SSN", "sleep", 0.0, -0.0, 0.0, 0, 0.0, 0.0),
    SegmentLane(4, 0.0, "SSN", "sleep", 0.0, 0.3, -0.0, 0, 0.0, 0.0),
    SegmentLane(5, 0.0, "SSN", "sleep", 0.0, 2.0, -0.2, 3, 0.0, 0.0),
))


def lane_segment(e0, net, offset=0):
    """One lane over instants 1..10 from e0 joules at net joules a tick,
    anchored offset ticks before the segment."""
    return TraceSegment(0, range(1, 11), 0.1, (
        SegmentLane(1, 0.0, "SSN", "sleep", 0.0, e0, net, offset, 0.0,
                    0.0),))


@given(segments(), st.integers(0, 10 ** 6))
@example(EDGE_SEGMENT, 4)
# held at STORAGE_FULL_J throughout
@example(lane_segment(STORAGE_FULL_J, 0.01), 4)
# above STORAGE_FULL_J and draining: held for two instants, then live
@example(lane_segment(STORAGE_FULL_J + 0.05, -0.02), 1)
# live, then held at 0 from the fourth instant on
@example(lane_segment(0.1, -0.03), 2)
# anchored 5 ticks back: live, then held at 0 from the second instant on
@example(lane_segment(0.2, -0.03, 5), 3)
def test_segment_values_are_the_clamped_closed_form(segment, pick):
    # each voltage is bit for bit the one storage_step steps to, for the
    # whole segment, one instant and a tail of it; each lane's runs hold
    # exactly where the clamp bites
    every = segment.instants
    k = pick % len(every)
    anchors = [lane[5:8] for lane in segment.lanes]
    for instants in (every, every[k:k + 1], every[k:]):
        _, values = segment_values(segment, instants)
        for lane, v_caps, (lo, hi, _, _) in zip(
                segment.lanes, values, clamp_runs(anchors, instants)):
            assert ([v.hex() for v in v_caps]
                    == [v.hex() for v in clamped_voltages(lane, instants)])
            assert [not 0.0 <= lane.e0 + (lane.offset + n) * lane.net
                    <= STORAGE_FULL_J for n in instants] == [
                        not lo <= index < hi for index in range(len(instants))]


def halving_domain(scenario):
    """A drawn network at 0.1 s without interference, off two edges that
    only a threshold tested at step ends tells apart.

    - Lockout edge: a node that starts within 1 mV of v_ovdis can end the
      step that decodes its INIT_CONFIG on either side of it, depending on
      how much harvest shares that step; it moves 1 mV off, on its side.
    - Session budget: etx_session sizes a session without the decode
      step_node books on the same step, so an emitter whose floor is
      v_ovdis can end its session just under the lockout at one step size
      only; its floor moves to 3.3 V.
    Both runs cover the coarse run's ticks, at a trace interval both
    step sizes accept.
    """
    nodes = []
    for spec in scenario.nodes:
        start = spec.start_voltage
        if abs(start - V_OVERDISCHARGE) < 1e-3:
            start = V_OVERDISCHARGE + math.copysign(
                1e-3, start - V_OVERDISCHARGE)
        v_min = spec.v_min
        if spec.led_power_w > 0.0 and v_min == V_OVERDISCHARGE:
            v_min = 3.3
        nodes.append(spec._replace(start_voltage=start, v_min=v_min))
    return scenario._replace(nodes=tuple(nodes), interference=None,
                   step_s=0.1,
                   duration_s=tick_count(scenario.duration_s, 0.1) * 0.1,
                   trace_interval_s=max(scenario.trace_interval_s, 0.1))


def run_noting_sessions(scenario):
    """The run's trace, and the ids of the nodes whose session step_node
    cut at its floor or that end the run in a session."""
    noted = set()

    def noting(record, *args):
        if (record.state == NodeState.ENERGY_RELAY
                and record.storage.voltage
                <= record.storage.v_min + SESSION_FLOOR_TOL_V):
            noted.add(record.node_id)
        return step_node(record, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simkernel, "step_node", noting)
        trace = run_scenario(scenario)
    noted.update(nid for nid in trace.aggregates
                 if [r for r in trace.rows if r.node_id == nid][-1].state
                 == NodeState.ENERGY_RELAY)
    return trace, noted


@given(networks().map(halving_domain))
@example(halving_domain(SHARING_PAIRS[0]))
@example(halving_domain(SHARING_PAIRS[1]))
def test_step_halving_keeps_events_and_final_voltages(scenario):
    # every node logs the same events in the same order at 0.05 s as at
    # 0.1 s, and ends within 1 mV, unless either run has a session that
    # the grid places: a session's floor cut and its start on reaching
    # full are tested at step ends, so a cut overshoots v_min by up to a
    # step of drain (2.8 mV at 0.1 s), and a run that ends in a session
    # that started one fine step later ends one fine step less into its
    # drain (1.4 mV at 4.5 V).  Such a node's voltage is not compared
    coarse, coarse_noted = run_noting_sessions(scenario)
    fine, fine_noted = run_noting_sessions(scenario._replace(step_s=0.05))
    for spec in scenario.nodes:
        nid = spec.node_id
        assert ([r.event for r in events_for(coarse, nid)]
                == [r.event for r in events_for(fine, nid)]), nid
        if nid not in coarse_noted | fine_noted:
            assert abs(coarse.aggregates[nid].final_voltage
                       - fine.aggregates[nid].final_voltage) <= 1e-3, nid


# ---------------------------------------------------------------------------
# frames on the air: encode44 is the only place a frame's fields are
# checked, so every frame a run sends must pass it

def sent_frames(scenario):
    """Every frame a run of the scenario puts on the air."""
    frames = []
    send = _Runtime.send

    def noting(rt, frame, origin, now_tick):
        frames.append(frame)
        send(rt, frame, origin, now_tick)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Runtime, "send", noting)
        run_scenario(scenario)
    return frames


def assert_frames_encode(frames):
    for frame in frames:
        assert decode44(encode44(frame)) == frame, frame


def test_the_frames_of_the_shipped_scenarios_encode():
    commands = set()
    for stem in ("paper_a", "paper_b"):
        frames = sent_frames(shipped(stem, duration_s=3600.0))
        assert_frames_encode(frames)
        commands.update(f.payload.command for f in frames
                        if isinstance(f.payload, OapToNode))
        assert any(isinstance(f.payload, NodeToOap) for f in frames), stem
    assert commands == set(Command)


@given(networks())
@example(SHARING_PAIRS[0])
@example(SHARING_PAIRS[1])
def test_the_frames_of_generated_networks_encode(scenario):
    assert_frames_encode(sent_frames(scenario))
