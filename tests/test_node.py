"""Node state machine tests: roles, guards, sessions, hysteresis."""

import copy
import math

import pytest

from luxnet.channel import OpticalReceiver, OpticalTransmitter
from luxnet.energy import (
    DEFAULT_PROFILE,
    LEAK_POWER_W,
    V_CHARGE_READY,
    V_OVERDISCHARGE,
    V_STORAGE_MAX,
    PV_OPEN_VOLTAGE_MAX,
    HarvesterArray,
    StorageCapacitor,
    band_exit,
    net_per_tick,
    pv_open_voltage,
    storage_step,
)
from luxnet.node import (
    DEFAULT_TIMING,
    _build_report,
    SESSION_FLOOR_TOL_V,
    NodeMode,
    NodeRecord,
    NodeState,
    TimingParams,
    apply_hysteresis,
    energy_guard,
    etx_session,
    phase_share,
    quiet_band,
    select_role,
    state_draw_w,
    step_node,
    timer_due_s,
)
from luxnet.protocol import (
    FRAME_AIRTIME_S,
    Command,
    Frame44,
    NodeToOap,
    OapToNode,
    OAP_ADDRESS,
    VOLTAGE_MAX_V,
    quantize_voltage,
)
from luxnet.simkernel import first_tick


def slot_values(obj):
    """A run-state object's fields by name, a snapshot to compare."""
    return {name: getattr(obj, name) for name in type(obj).__slots__}


def make_node(node_id=1, voltage=4.5, v_min=3.3, led=False,
              etx_autonomous=False, **state):
    """A node built from its configuration, then put in the given run
    state (mode, state, t_int, next_report_s, ...)."""
    rec = NodeRecord(
        node_id=node_id,
        storage=StorageCapacitor(voltage=voltage, v_min=v_min),
        led=OpticalTransmitter(optical_power_w=0.0278) if led else None,
        etx_autonomous=etx_autonomous,
    )
    for name, value in state.items():
        setattr(rec, name, value)
    return rec


def set_voltage(node, voltage):
    """Put the node's storage at voltage, with its guard floor kept."""
    node.storage = StorageCapacitor(voltage, node.storage.v_min)


# three PV cells, as on every scenario node
HARVESTER = HarvesterArray(cells=(OpticalReceiver(),) * 3)


def tick(node, now, lux, frames=(), dt=0.1):
    """One kernel-style step: state logic, then energy integration."""
    harvest = HARVESTER.harvest_power(lux)
    res = step_node(node, dt, now, lux, harvest, frames)
    p_out = state_draw_w(node, now, dt) + res.cost_j / dt
    storage_step(node.storage, net_per_tick(harvest, p_out, dt))
    event = apply_hysteresis(node, now + dt)
    if event:
        res.events.append(event)
    return res


FULL = (1000.0, 1000.0, 1000.0)
DIM = (150.0, 0.0, 0.0)


def test_select_role_rule():
    assert select_role(3.1) == NodeMode.PSN
    assert select_role(3.0) == NodeMode.SSN  # strict inequality


def test_timing_params_validation_and_consistency():
    with pytest.raises(ValueError):
        TimingParams(t_int=0.0)


def test_energy_guard_boundaries():
    node = make_node(voltage=4.5, v_min=3.2)
    assert energy_guard(node, 0.0)
    assert energy_guard(node, 1.0)   # margin is 2.0025 J
    node_low = make_node(voltage=3.2, v_min=3.2)
    assert energy_guard(node_low, 0.0)
    assert not energy_guard(node_low, 1e-6)
    with pytest.raises(ValueError):
        energy_guard(node, -1.0)


def test_etx_session_frozen_durations():
    # net drain of exactly 50 mW against the full 4.5 -> 3.2 V span
    # would take 40.05 s, so the 40 s window caps the session
    node = make_node(voltage=4.5, v_min=3.2, led=True)
    harvest = DEFAULT_PROFILE.etx + LEAK_POWER_W - 50e-3
    assert etx_session(node, harvest_power_w=harvest) == pytest.approx(40.0)

    # with the guard floor at 3.8 V the span is 1.162 J and the floor
    # is reached first
    node_hi = make_node(voltage=4.5, v_min=3.8, led=True)
    duration2 = etx_session(node_hi, harvest_power_w=harvest)
    assert duration2 == pytest.approx(1.162 / 50e-3, rel=1e-6)
    assert duration2 < DEFAULT_TIMING.t_energy_net


def test_etx_session_empty_at_floor():
    node = make_node(voltage=3.3, v_min=3.3, led=True)
    assert etx_session(node) == 0.0


def test_init_selects_role_from_light():
    bright = make_node(node_id=1)
    for k in range(3):
        tick(bright, k * 0.1, FULL)
    assert bright.mode == NodeMode.PSN
    assert bright.state == NodeState.STANDBY
    assert bright.v_pv == pytest.approx(4.4 * 1000.0 / 1350.0, rel=1e-9)

    dim = make_node(node_id=2)
    for k in range(3):
        tick(dim, k * 0.1, DIM)
    assert dim.mode == NodeMode.SSN
    assert dim.v_pv == pytest.approx(4.4 * 150.0 / 500.0, rel=1e-9)


def booted(node_id=1, lux=FULL, **kw):
    node = make_node(node_id=node_id, **kw)
    t = 0.0
    for _ in range(4):
        tick(node, t, lux)
        t += 0.1
    assert node.state == NodeState.STANDBY
    return node, t


def test_false_wakeup_charges_decode_only():
    node, t = booted()
    # drop off the ceiling so the top clamp cannot hide the cost
    set_voltage(node, 4.2)
    e_before = node.storage.energy
    stray = Frame44(dest_address=0x000A,
                    payload=OapToNode(command=Command.DATA_REQUEST, param=0))
    res = tick(node, t, FULL, frames=[stray])
    assert "false wakeup" in res.events
    assert node.state == NodeState.STANDBY
    decode_cost = DEFAULT_PROFILE.decode * FRAME_AIRTIME_S
    harvest = HARVESTER.harvest_power(FULL)
    drawn = (e_before - node.storage.energy
             + (harvest - DEFAULT_PROFILE.standby - LEAK_POWER_W) * 0.1)
    assert drawn == pytest.approx(decode_cost, rel=1e-6)


def test_data_request_sense_reply_cycle():
    node, t = booted(node_id=3)
    req = Frame44(dest_address=3,
                  payload=OapToNode(command=Command.DATA_REQUEST, param=0))
    res = tick(node, t, FULL, frames=[req])
    assert node.state == NodeState.SENSING
    emitted = []
    for k in range(1, 98):
        res = tick(node, t + 0.1 * k, FULL)
        emitted.extend(res.emitted)
        if node.state != NodeState.SENSING:
            break
    assert len(emitted) == 1
    frame = emitted[0]
    assert frame.dest_address == OAP_ADDRESS
    assert isinstance(frame.payload, NodeToOap)
    assert frame.payload.sender_id == 3
    # a bright node keeps listening after the reply
    assert node.state == NodeState.STANDBY


@pytest.mark.parametrize("v_pv, code", [
    # no reading yet, a dark read, and the open voltage's saturation and
    # the brightest light a scenario allows just under it
    (0.0, 0), (pv_open_voltage(0.0), 0), (PV_OPEN_VOLTAGE_MAX, 220),
    (pv_open_voltage(1.44e6), 220)])
def test_a_report_codes_the_pv_reading_unclamped(v_pv, code):
    # a PV reading lies inside the code's range, so the report codes it as
    # the 0..VOLTAGE_MAX_V clamp it no longer takes would have
    node = make_node(v_pv=v_pv)
    assert _build_report(node).payload.pv_level == code == quantize_voltage(
        min(max(v_pv, 0.0), VOLTAGE_MAX_V))


def test_ssn_timer_report_and_periodicity():
    node = make_node(node_id=2, t_int=100.0)
    t = 0.0
    tx_times = []
    while t < 350.0:
        res = tick(node, t, DIM)
        if any(e == "report sent" for e in res.events):
            tx_times.append(t)
        t += 0.1
    # booted into standby, idled to sleep, then reported at each multiple
    assert len(tx_times) == 3
    gaps = [b - a for a, b in zip(tx_times, tx_times[1:])]
    for g in gaps:
        assert g == pytest.approx(100.0, abs=0.2)


def test_ssn_guard_skip_defers_one_interval():
    # storage sits just above the guard floor: wake is unaffordable
    node = make_node(node_id=2, voltage=3.401, v_min=3.4, t_int=50.0)
    node.mode = NodeMode.SSN
    node.state = NodeState.SLEEP
    node.next_report_s = 50.0
    events = []
    t = 49.5
    for k in range(12):
        events += tick(node, t + 0.1 * k, DIM).events
    assert "sense skipped (guard)" in events
    assert node.state == NodeState.SLEEP
    assert node.next_report_s == pytest.approx(100.0)


def test_etx_request_starts_session_at_full_charge():
    node, t = booted(node_id=1, led=True, v_min=3.8)
    req = Frame44(dest_address=1,
                  payload=OapToNode(command=Command.ETX_REQUEST, param=1))
    # capacitor is full, so the session begins within the decode step
    res = tick(node, t, FULL, frames=[req])
    assert "etx start" in res.events
    assert node.state == NodeState.ENERGY_RELAY
    assert phase_share(node, t, 0.1) == 1.0
    assert node.pending_n == 0


def test_etx_request_deferred_until_full():
    node, t = booted(node_id=1, led=True, v_min=3.8)
    set_voltage(node, 4.4)
    req = Frame44(dest_address=1,
                  payload=OapToNode(command=Command.ETX_REQUEST, param=1))
    tick(node, t, FULL, frames=[req])
    res = tick(node, t + 0.1, FULL)
    assert node.state == NodeState.STANDBY
    assert node.pending_n == 1
    # charge back to full, then the pending session fires
    steps = 0
    while node.state == NodeState.STANDBY and steps < 20000:
        res = tick(node, t + 0.2 + 0.1 * steps, FULL)
        steps += 1
    assert node.state == NodeState.ENERGY_RELAY


def test_etx_session_stops_at_guard_floor_then_recovers():
    node, t = booted(node_id=1, led=True, v_min=3.8)
    req = Frame44(dest_address=1,
                  payload=OapToNode(command=Command.ETX_REQUEST, param=1))
    tick(node, t, FULL, frames=[req])
    tick(node, t + 0.1, FULL)
    assert node.state == NodeState.ENERGY_RELAY
    t += 0.2
    session_ticks = 0
    while node.state == NodeState.ENERGY_RELAY:
        tick(node, t, FULL)
        t += 0.1
        session_ticks += 1
        assert session_ticks < 500
    # lands on the floor: the emitter is metered against the session's
    # interval, and only the closing step's idle remainder recharges a hair
    assert node.storage.voltage >= node.storage.v_min - 1e-9
    assert node.storage.voltage <= node.storage.v_min + 3e-4
    assert node.state == NodeState.SLEEP
    assert phase_share(node, t, 0.1) == 0.0
    # duration close to the analytic 23.2 s figure
    assert session_ticks * 0.1 == pytest.approx(23.3, abs=0.3)
    # sleeps until full, then returns to listening
    while node.state == NodeState.SLEEP:
        tick(node, t, FULL)
        t += 0.1
        assert t < 600.0
    assert node.state == NodeState.STANDBY
    assert node.storage.voltage == pytest.approx(4.5, abs=1e-6)


def test_etx_session_window_cap():
    # at ten times full light the harvest pays half the drive, so the
    # floor is out of reach and the window rules
    bright = (10000.0,) * 3
    node, t = booted(node_id=1, led=True, v_min=3.2)
    node.etx_autonomous = True
    res = tick(node, t, bright)
    assert node.state == NodeState.ENERGY_RELAY
    ticks = 0
    while node.state == NodeState.ENERGY_RELAY:
        res = tick(node, t + 0.1 * (1 + ticks), bright)
        ticks += 1
        assert ticks < 450
    assert ticks * 0.1 == pytest.approx(40.0, abs=0.2)
    assert any(e.startswith("etx end (window)") for e in res.events)


def test_depletion_hysteresis():
    node, t = booted(node_id=2, lux=DIM)
    set_voltage(node, 3.19)
    res = tick(node, t, DIM)
    assert node.state == NodeState.DEPLETED
    # frames are lost while depleted, at no cost
    e_before = node.storage.energy
    req = Frame44(dest_address=2,
                  payload=OapToNode(command=Command.DATA_REQUEST, param=0))
    res = tick(node, t + 0.1, DIM, frames=[req])
    assert res.causes == ["depleted receiver"]
    assert node.state == NodeState.DEPLETED
    # no reconnect below v_chrdy
    set_voltage(node, 3.7)
    tick(node, t + 0.2, DIM)
    assert node.state == NodeState.DEPLETED
    # reconnect at v_chrdy goes through a fresh boot
    set_voltage(node, 3.81)
    res = tick(node, t + 0.3, DIM)
    assert node.state == NodeState.INIT
    assert "recovered from depletion" in res.events


def test_depleted_node_draws_only_leak():
    node, t = booted(node_id=2, lux=DIM)
    set_voltage(node, 3.0)
    tick(node, t, DIM)
    assert node.state == NodeState.DEPLETED
    e0 = node.storage.energy
    harvest = HARVESTER.harvest_power((0.0, 0.0, 0.0))
    tick(node, t + 0.1, (0.0, 0.0, 0.0))
    de = node.storage.energy - e0
    assert de == pytest.approx((harvest - LEAK_POWER_W) * 0.1,
                               rel=1e-9)


def test_standby_idle_ssn_sleeps():
    node, t = booted(node_id=2, lux=DIM)
    steps = 0
    while node.state == NodeState.STANDBY:
        tick(node, t + 0.1 * steps, DIM)
        steps += 1
        assert steps < 400
    assert node.state == NodeState.SLEEP
    assert steps * 0.1 == pytest.approx(30.0, abs=0.5)


@pytest.mark.parametrize("dt", [0.05, 0.1, 0.2, 0.25, 0.3])
def test_standby_idle_fires_on_the_step_ending_30_s_in(dt):
    # the clock starts at the end of the step that picks the role, and
    # the timeout is an instant on it, so no step size can delay it
    node = make_node(node_id=2)
    harvest = HARVESTER.harvest_power(DIM)
    clock_start = None
    for i in range(int(40.0 / dt)):
        now = i * dt
        events = step_node(node, dt, now, DIM, harvest).events
        if "role SSN" in events:
            clock_start = now + dt
        if "standby idle" in events:
            break
    else:
        pytest.fail("no standby idle within 40 s")
    assert node.state == NodeState.SLEEP
    assert now + dt - clock_start == pytest.approx(30.0, abs=1e-9)


@pytest.mark.parametrize("dt", [0.05, 0.1, 0.2, 0.3])
def test_quiet_ticks_end_before_the_step_that_fires_a_timer(dt):
    # the tick first_tick finds for quiet_band's due instant must be
    # exactly the step on which each timer fires:
    # Init's role window (it spans two steps at 0.05 s), a secondary's
    # standby idle, report wake and sensing cycle, and a primary's burst
    # sessions (without integration its storage stays full, so each
    # session starts on the step after the one that ends the last)
    for lux, led, fires in (
            (DIM, False, ["standby idle", "timer wake", "report sent"]),
            (FULL, True, ["etx end (floor)", "etx end (floor)"])):
        node = make_node(node_id=2, led=led, etx_autonomous=led,
                         t_int=100.0)
        if dt == 0.05:
            role = select_role(pv_open_voltage(max(lux)))
            fires = [f"role {role}"] + fires
        harvest = HARVESTER.harvest_power(lux)
        fired = []
        i = 0
        while len(fired) < len(fires):
            quiet = first_tick(quiet_band(node)[2], dt, dt, i) - i
            for _ in range(quiet):
                before = slot_values(node)
                assert step_node(node, dt, i * dt, lux, harvest).events == []
                assert slot_values(node) == before, f"tick {i}"
                i += 1
            events = step_node(node, dt, i * dt, lux, harvest).events
            if quiet:
                assert events, f"nothing fired on tick {i}"
                fired.append(events[0])
            i += 1
            assert i * dt < 200.0
        assert fired == fires


def baseline_w(node):
    """The draw of the node's state without its phase."""
    if node.state == NodeState.DEPLETED:
        return 0.0
    if node.state in (NodeState.INIT, NodeState.STANDBY):
        return DEFAULT_PROFILE.standby
    return DEFAULT_PROFILE.sleep


def step_phase(node, dt, first_tick, lux=FULL):
    """Step node from first_tick with now = i * dt, as the kernel does,
    through the step that closes the phase it enters or runs.

    Returns, per step, (now, events, share, watts above the baseline)
    as the kernel reads them after step_node's transitions.
    """
    harvest = HARVESTER.harvest_power(lux)
    steps = []
    i = first_tick
    while True:
        now = i * dt
        events = step_node(node, dt, now, lux, harvest).events
        steps.append((now, events, phase_share(node, now, dt),
                      state_draw_w(node, now, dt) - baseline_w(node)))
        if "report sent" in events or any(e.startswith("etx end")
                                          for e in events):
            return steps
        i += 1
        assert len(steps) < 100.0 / dt


def sensing_node(wake_s):
    return make_node(node_id=2, mode=NodeMode.SSN, state=NodeState.SLEEP,
                     next_report_s=wake_s)


def session_node(v_min):
    # a listening primary at full charge starts its session on its next
    # step; its storage is not integrated here, so no floor cuts it
    return make_node(node_id=1, led=True, v_min=v_min, mode=NodeMode.PSN,
                     state=NodeState.STANDBY, etx_autonomous=True)


@pytest.mark.parametrize("dt", [0.01, 0.05, 0.1, 0.3])
def test_a_sensing_cycle_books_its_phase_power_at_any_step(dt):
    node = sensing_node(100.0)
    steps = step_phase(node, dt, math.floor(99.0 / dt))
    entering = [s for s in steps if "timer wake" in s[1]]
    assert len(entering) == 1
    # the cycle starts at the end of the step that enters it
    assert entering[0][2] == 0.0
    booked = sum(extra * dt for _, _, _, extra in steps)
    assert booked == pytest.approx(
        (DEFAULT_PROFILE.sense - DEFAULT_PROFILE.sleep)
        * DEFAULT_TIMING.t_sense, rel=1e-12)


@pytest.mark.parametrize("dt", [0.01, 0.05, 0.1, 0.3])
@pytest.mark.parametrize("v_min, cause", [(3.2, "window"), (3.8, "floor")])
def test_a_session_books_its_phase_power_at_any_step(dt, v_min, cause):
    node = session_node(v_min)
    steps = step_phase(node, dt, math.floor(77.7 / dt))
    assert steps[0][1] == ["etx start"]
    assert steps[-1][1] == [f"etx end ({cause})"]
    duration = node.phase_end_s - node.phase_start_s
    # on the air from the start of its first step
    assert node.phase_start_s == steps[0][0]
    assert len(steps) == math.ceil(duration / dt - 1e-6)
    booked = sum(extra * dt for _, _, _, extra in steps)
    assert booked == pytest.approx(
        (DEFAULT_PROFILE.etx - DEFAULT_PROFILE.sleep) * duration, rel=1e-12)


@pytest.mark.parametrize("start_s", [0.0, 13.37, 77.7, 1234.56, 9999.99])
def test_a_window_session_takes_its_steps_wherever_it_starts(start_s):
    # 40 s at 0.1 s is 400 steps, though the step ends and the session's
    # end, counted from different instants, round apart by a few ulps
    node = session_node(3.2)
    steps = step_phase(node, 0.1, round(start_s / 0.1))
    assert steps[-1][1] == ["etx end (window)"]
    assert len(steps) == 400


def test_shares_at_a_fine_step_are_whole_or_none():
    # at 0.01 s a step's now + dt and the next step's i * dt round apart:
    # after the sensing cycle below closes, the next step starts 3.6e-15 s
    # before the phase's end.  That sliver counts as none, and mid-phase
    # the share is exactly 1.0
    dt = 0.01
    slivers = []
    for node, first_tick in ((sensing_node(21.06), 2000),
                             (session_node(3.8), 3059)):
        steps = step_phase(node, dt, first_tick)
        close = round(steps[-1][0] / dt)
        shares = [share for _, _, share, _ in steps]
        first = next(k for k, share in enumerate(shares) if share)
        assert shares[first + 1:-1] == [1.0] * (len(shares) - first - 2)
        after = [phase_share(node, i * dt, dt) for i in range(close + 1,
                                                              close + 100)]
        assert after == [0.0] * 99
        slivers.append(node.phase_end_s - (close + 1) * dt)
    assert slivers[0] == pytest.approx(3.6e-15, rel=0.1)


def test_a_session_due_just_past_its_last_step_ends_with_it():
    # the timer closes a session up to 1e-9 s before its end; at 0.1 ms
    # steps that remainder is more than the sliver a share ignores, so
    # the closing step ends the phase
    dt = 1e-4
    harvest = HARVESTER.harvest_power(FULL)
    node = session_node(3.8)
    step_node(node, dt, 0.0, FULL, harvest)
    node.phase_end_s = 1.0 + 5e-10
    events = step_node(node, dt, 9999 * dt, FULL, harvest).events
    assert events == ["etx end (floor)"]
    assert phase_share(node, 10000 * dt, dt) == 0.0


def test_a_floor_cut_ends_the_quiet_stretch_where_step_node_cuts():
    # the session is budgeted in full light; the light drops to DIM five
    # seconds in, so the storage sags to v_min before the budget runs
    # out.  Advanced as the kernel does, in closed-form quiet stretches,
    # the session must end on the same step as when stepped tick by tick
    dt = 0.1
    drop = 50

    def run(quiet):
        node = session_node(3.8)
        log = []
        i = 0
        while i < 400:
            lux = FULL if i < drop else DIM
            harvest = HARVESTER.harvest_power(lux)
            ticks = 0
            if quiet:
                low, high, due = quiet_band(node)
                ticks = min(first_tick(due, dt, dt, i),
                            drop if i < drop else 400) - i
            if ticks:
                net = net_per_tick(harvest, state_draw_w(node, i * dt, dt),
                                   dt)
                ticks = band_exit(node.storage.energy, net, ticks, low, high)
                storage_step(node.storage, net, ticks)
                events = [apply_hysteresis(node, (i + ticks) * dt)]
                i += ticks
            else:
                events = tick(node, i * dt, lux, dt=dt).events
                i += 1
            log += [(i, event) for event in events if event]
        return log

    log = run(quiet=True)
    assert log == run(quiet=False)
    ends = [i for i, event in log if event.startswith("etx end")]
    assert log[0] == (1, "etx start") and len(ends) == 1
    assert log[1] == (ends[0], "etx end (floor)")
    # cut short: its budget, taken in full light, ran further
    budget = etx_session(session_node(3.8), HARVESTER.harvest_power(FULL))
    assert ends[0] * dt < budget - 0.5


def test_the_quiet_band_of_a_session_starts_above_its_floor_cut():
    # step_node cuts a session whose storage sits at v_min +
    # SESSION_FLOOR_TOL_V, so a quiet stretch must stop there, and not one
    # voltage step above
    harvest = HARVESTER.harvest_power(FULL)
    node = session_node(3.8)
    assert step_node(node, 0.1, 0.0, FULL, harvest).events == ["etx start"]
    edge = node.storage.v_min + SESSION_FLOOR_TOL_V
    for voltage, cut in ((edge, True), (math.nextafter(edge, math.inf), False)):
        session = copy.deepcopy(node)
        set_voltage(session, voltage)
        assert (quiet_band(session)[2] == -math.inf) is cut
        events = step_node(session, 0.1, 0.1, FULL, harvest).events
        assert (events == ["etx end (floor)"]) is cut


# every state in both roles; a listening primary with and without an
# emitter and a pending or autonomous session, which set its full
# trigger; and a session on the air, at the default v_min and at the
# lowest a scenario takes
SESSION = dict(led=True, phase_lit=True, phase_end_s=40.0)
QUIET_CASES = [(state, mode, {}) for state in (
    NodeState.INIT, NodeState.STANDBY, NodeState.SENSING, NodeState.SLEEP,
    NodeState.DEPLETED) for mode in (NodeMode.PSN, NodeMode.SSN)] + [
    (NodeState.STANDBY, NodeMode.PSN, dict(led=True)),
    (NodeState.STANDBY, NodeMode.PSN, dict(led=True, pending_n=2)),
    (NodeState.STANDBY, NodeMode.PSN, dict(led=True, etx_autonomous=True)),
    (NodeState.STANDBY, NodeMode.PSN, dict(pending_n=2)),
    (NodeState.ENERGY_RELAY, NodeMode.PSN, SESSION),
    (NodeState.ENERGY_RELAY, NodeMode.PSN,
     dict(SESSION, v_min=V_OVERDISCHARGE)),
]


@pytest.mark.parametrize("state, mode, fitted", QUIET_CASES, ids=[
    "-".join([state, mode, *fitted]) for state, mode, fitted in QUIET_CASES])
def test_the_hysteresis_does_nothing_inside_the_quiet_band(state, mode,
                                                           fitted):
    # the kernel skips apply_hysteresis for a node that did not act while
    # its voltage stays inside the band quiet_band gave, so the band must
    # lie inside the hysteresis' no-action range; its ends are probed
    # within the storage's 0..V_STORAGE_MAX
    node = make_node(mode=mode, state=state, **fitted)
    low, high, _ = quiet_band(node)
    lowest = max(low, 0.0)
    highest = (math.nextafter(high, -math.inf) if high < math.inf
               else V_STORAGE_MAX)
    for voltage in (lowest, (lowest + highest) / 2.0, highest):
        probe = copy.deepcopy(node)
        set_voltage(probe, voltage)
        assert quiet_band(probe)[2] == timer_due_s(probe), voltage
        before = slot_values(probe)
        assert apply_hysteresis(probe, 10.0) == "", voltage
        assert slot_values(probe) == before, voltage
    for voltage in filter(math.isfinite,
                          (math.nextafter(low, -math.inf), high)):
        probe = copy.deepcopy(node)
        set_voltage(probe, voltage)
        assert quiet_band(probe)[2] == -math.inf, voltage
    # and the hysteresis acts where its range ends
    if state == NodeState.DEPLETED:
        set_voltage(node, V_CHARGE_READY)
        assert apply_hysteresis(node, 10.0) == "recovered from depletion"
        assert node.state == NodeState.INIT
    else:
        set_voltage(node, math.nextafter(V_OVERDISCHARGE, -math.inf))
        assert apply_hysteresis(node, 10.0) == "depleted"
        assert node.state == NodeState.DEPLETED
        assert node.phase_end_s <= 10.0


def test_the_lockout_darkens_a_running_session():
    node = session_node(3.2)
    tick(node, 0.0, FULL)
    assert node.state == NodeState.ENERGY_RELAY
    # one step of the burst drains about 4 mV here, through v_ovdis
    set_voltage(node, 3.202)
    res = tick(node, 0.1, FULL)
    assert res.events == ["depleted"]
    assert phase_share(node, 0.2, 0.1) == 0.0
    assert state_draw_w(node, 0.2, 0.1) == 0.0


def test_node_record_validation():
    with pytest.raises(ValueError):
        make_node(node_id=0)
    with pytest.raises(ValueError):
        make_node(node_id=16)


def test_init_config_updates_interval():
    node, t = booted(node_id=2, lux=DIM)
    frame = Frame44(dest_address=0xFFFF,
                    payload=OapToNode(command=Command.INIT_CONFIG, param=1800))
    res = tick(node, t, DIM, frames=[frame])
    assert node.t_int == 1800.0
    assert any(e.startswith("config") for e in res.events)


def test_set_n_updates_assignment():
    node, t = booted(node_id=1)
    frame = Frame44(dest_address=1,
                    payload=OapToNode(command=Command.SET_N, param=6))
    res = tick(node, t, FULL, frames=[frame])
    assert "assigned n=6" in res.events
