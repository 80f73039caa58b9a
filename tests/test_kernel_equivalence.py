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

import io
import math
from bisect import bisect_left

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from kernel_oracle import run_scenario as oracle_run
from luxnet import simkernel
from luxnet.channel import InterferenceModel
from luxnet.cli import parse_scenario_file, shipped_scenario_path
from luxnet.controller import ControllerConfig
from luxnet.energy import DEFAULT_PROFILE, V_OVERDISCHARGE
from luxnet.node import NodeState, next_due_s, step_node
from luxnet.protocol import Command, NodeToOap, OapToNode, decode44, encode44
from luxnet.simkernel import (
    FaceSpec,
    NodeSpec,
    OapSpec,
    Scenario,
    SegmentLane,
    TraceSegment,
    TraceSet,
    _Runtime,
    audit_conservation,
    format_trace_csv,
    run_scenario,
    segment_values,
    summarize,
    tick_count,
)
from test_node import slot_values
from test_simkernel import (
    csv_text,
    events_for,
    guard_scenario,
    row_by_row_csv,
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
    # sleep outdraws the 300 uW harvest, so the node runs down into the
    # lockout; locked out it draws nothing and charges back past v_chrdy
    node = NodeSpec(node_id=1, position=(0.0, 0.0, 0.0),
                    faces=(FaceSpec((0.0, 1.0, 0.0), 1000.0 / 3.0),
                           FaceSpec((0.0, 0.0, 1.0), 0.0),
                           FaceSpec((0.0, 0.0, -1.0), 0.0)),
                    start_voltage=3.3)
    profile = DEFAULT_PROFILE._replace(sleep=0.4e-3, standby=0.5e-3)
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
        fields = slot_values(record)
        storage = slot_values(fields.pop("storage"))
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


@pytest.mark.parametrize("scenario", [
    shipped("paper_b", duration_s=7200.0), guard_scenario()],
    ids=["paper_b", "guard"])
def test_every_full_tick_has_something_due(monkeypatch, scenario):
    # a full tick is spent only where a frame lands, the controller's
    # step acts (due <= now + 1e-9) or a node's step_node may (due <=
    # now + dt); any other tick belongs to a quiet stretch
    full_tick = _Runtime.full_tick
    ticks = []

    def checked(rt, i):
        now = i * rt.dt
        assert ((rt.in_flight and rt.in_flight[0][0] <= i)
                or rt.controller.next_due_s() <= now + 1e-9
                or any(next_due_s(lane.record) <= now + rt.dt
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
        assert frames or next_due_s(record) <= now + dt, (record.node_id, now)
        calls.append(record.node_id)
        return step_node(record, dt, now, lux_per_face, harvest_w, frames)

    monkeypatch.setattr(simkernel, "step_node", counting)
    run_scenario(shipped("paper_b", duration_s=10800.0))
    # stepping every node on every full tick made 942 calls
    assert len(calls) == 352


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


@given(networks().map(lambda sc: sc._replace(trace_interval_s=sc.step_s)))
def test_segments_render_and_summarize_as_their_rows(scenario):
    # a row every tick puts every quiet stretch's rows in a segment
    trace = run_scenario(scenario)
    assert csv_text(trace) == row_by_row_csv(trace)
    summary = summarize(trace)
    assert {nid: (s.steady_mean_v, s.steady_band_v)
            for nid, s in summary.nodes.items()} == row_based_steady(trace)


def quiet_pair():
    """Two lit nodes networks() can draw, without emitters or sensing,
    sampled every tick for 60 s: most of the run is one quiet stretch,
    and so one segment."""
    lit = 400.0
    nodes = tuple(NodeSpec(
        node_id=index + 1, position=ring_position(index, 2),
        faces=(FaceSpec((0.0, 1.0, 0.0), lit), FaceSpec((1.0, 0.0, 0.0), lit),
               FaceSpec((0.0, 0.0, 1.0), lit)),
        start_voltage=3.9, v_min=3.4, sensing_enabled=False)
        for index in range(2))
    return Scenario(
        name="generated", duration_s=60.0, nodes=nodes,
        oap=OapSpec(config=ControllerConfig(
            t_data_req=480.0, t_int=600.0, slot_spacing_s=5.0,
            etx_offset_s=20.0, etx_spacing_s=30.0)),
        step_s=0.1, seed=0, trace_interval_s=0.1)


def steady_figures(summary):
    return {nid: (s.steady_mean_v.hex(), s.steady_band_v.hex())
            for nid, s in summary.nodes.items()}


def test_the_final_quarter_of_the_quiet_pair_starts_inside_a_block():
    # 0.75 of the run falls inside a segment's instants, and at 7 rows a
    # block (3 instants of 2 lanes) inside one of its blocks
    trace = run_scenario(quiet_pair())
    since = 0.75 * trace.duration_s
    [segment] = [s for s in trace.segments
                 if (s.i + s.instants[0]) * s.dt < since
                 <= (s.i + s.instants[-1]) * s.dt]
    k = bisect_left(segment.instants, since,
                    key=lambda n: (segment.i + n) * segment.dt)
    assert k % (7 // len(segment.lanes)) != 0


@given(networks(), st.sampled_from([1, 2, 7, 50, simkernel.CSV_BLOCK_ROWS]))
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
        patch.setattr(simkernel, "CSV_BLOCK_ROWS", block_rows)
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
    return TraceSet(**{**fields, "segments": [
        segment._replace(instants=segment.instants[k:k + 1])
        for segment in trace.segments
        for k in range(len(segment.instants))]})


class CountedWrites(io.StringIO):
    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@given(networks(), st.sampled_from([1, 2, 7, 50, simkernel.CSV_BLOCK_ROWS]))
def test_csv_blocks_render_as_row_by_row(scenario, block_rows):
    # at a small block size a segment of more than one instant spans
    # several blocks; cut into one-instant segments, every segment is
    # one instant and the renderer joins them into shared writes: any
    # two writes in a row hold more than one block
    trace = run_scenario(scenario)
    expected = row_by_row_csv(trace)
    rows = expected.count("\n") - 1
    out = CountedWrites()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simkernel, "CSV_BLOCK_ROWS", block_rows)
        assert csv_text(trace) == expected
        format_trace_csv(one_instant_segments(trace), out)
    assert out.getvalue() == expected
    assert out.writes <= 2 + 2 * rows // block_rows


def clamped_voltages(lane, instants):
    """A lane's storage voltage at each instant through the clamp to
    0..energy_full, in the kernel's float order, one list element per
    instant's energy."""
    *_, e0, full, net, capacitance, _, _ = lane
    return [math.sqrt(2.0 * (0.0 if e < 0.0 else full if e > full else e)
                      / capacitance)
            for n in instants for e in [e0 + n * net]]


@st.composite
def segments(draw):
    """A segment whose lanes start inside, at the edges of or outside
    0..energy_full, some with a net that reaches 0 or energy_full at one
    of its instants, some with a net of +-0."""
    start = draw(st.integers(0, 10_000))
    step = draw(st.integers(1, 3))
    instants = range(start, start + step * draw(st.integers(1, 300)), step)
    lanes = []
    for nid in range(1, draw(st.integers(1, 4)) + 1):
        full = draw(st.floats(1e-3, 2.0))
        e0 = draw(st.sampled_from([-0.0, 0.0, full])
                  | st.floats(-full, 2.0 * full))
        n = draw(st.sampled_from(instants)) or 1
        edge = draw(st.sampled_from([0.0, full]))
        net = draw(st.sampled_from([0.0, -0.0, (edge - e0) / n])
                   | st.floats(-full / 100, full / 100))
        lanes.append(SegmentLane(nid, 0.0, "SSN", "sleep", 0.0, e0, full,
                                 net, draw(st.floats(0.05, 1.0)), 0.0, 0.0))
    return TraceSegment(0, draw(st.integers(0, 100)), instants, 0.1,
                        tuple(lanes))


# lanes that reach 0 and energy_full partway, one that starts at -0.0 J
# and one with no net flow
EDGE_SEGMENT = TraceSegment(0, 0, range(1, 11), 0.1, (
    SegmentLane(1, 0.0, "SSN", "sleep", 0.0, 0.5, 1.0, -0.1, 0.5, 0.0, 0.0),
    SegmentLane(2, 0.0, "SSN", "sleep", 0.0, 0.5, 1.0, 0.1, 0.5, 0.0, 0.0),
    SegmentLane(3, 0.0, "SSN", "sleep", 0.0, -0.0, 1.0, 0.0, 0.5, 0.0, 0.0),
    SegmentLane(4, 0.0, "SSN", "sleep", 0.0, 0.3, 1.0, -0.0, 0.5, 0.0, 0.0),
))


@given(segments(), st.integers(0, 10 ** 6))
@example(EDGE_SEGMENT, 4)
def test_segment_values_are_the_clamped_closed_form(segment, pick):
    # bit for bit, for the whole segment, one instant and a tail of it
    every = segment.instants
    k = pick % len(every)
    for instants in (every, every[k:k + 1], every[k:]):
        _, values = segment_values(segment, instants)
        for lane, v_caps in zip(segment.lanes, values):
            assert ([v.hex() for v in v_caps]
                    == [v.hex() for v in clamped_voltages(lane, instants)])


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
        if (record.state is NodeState.ENERGY_RELAY
                and record.storage.voltage <= record.storage.v_min + 1e-12):
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
