"""Access-point scheduling tests: duty math, selection rules, rounds."""

import math

import numpy as np
import pytest

from luxnet.controller import (
    Controller,
    ControllerConfig,
    DutyCycle,
    RegistryEntry,
    assign_n,
    duty_cycle,
    select_t_data_req,
    standby_time,
)
from luxnet.energy import illuminance_for_open_voltage
from luxnet.node import DEFAULT_TIMING, NodeMode, TimingParams
from luxnet.protocol import (
    BROADCAST_ADDRESS,
    Command,
    Frame44,
    NodeToOap,
    OapToNode,
    OAP_ADDRESS,
)


def test_duty_cycle_frozen_points():
    assert duty_cycle(DEFAULT_TIMING, 0).ratio == pytest.approx(0.9862416667,
                                                                abs=1e-9)
    six = duty_cycle(DEFAULT_TIMING, 6)
    assert six.ratio == pytest.approx(0.169575, abs=1e-9)
    assert six.feasible


def test_duty_cycle_clamps_when_overbooked():
    assert duty_cycle(DEFAULT_TIMING, 7).feasible
    over = duty_cycle(DEFAULT_TIMING, 8)
    assert over == DutyCycle(ratio=0.0, feasible=False)
    with pytest.raises(ValueError):
        duty_cycle(DEFAULT_TIMING, -1)


def test_duty_cycle_affine_until_clamp():
    rng = np.random.default_rng(11)
    r0 = duty_cycle(DEFAULT_TIMING, 0).ratio
    slope = duty_cycle(DEFAULT_TIMING, 1).ratio - r0
    assert slope < 0.0
    for n in rng.integers(0, 8, size=20):
        expected = r0 + int(n) * slope
        assert duty_cycle(DEFAULT_TIMING, int(n)).ratio == pytest.approx(
            expected, abs=1e-12)


def test_standby_time_frozen_points():
    assert standby_time(DEFAULT_TIMING, 6) == pytest.approx(600.94, abs=1e-9)
    assert standby_time(DEFAULT_TIMING, 0) == pytest.approx(3540.94, abs=1e-9)
    flat = TimingParams(t_int=100.0, t_sense=10.0, t_data_net_rec=80.0)
    assert standby_time(flat, 0) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        standby_time(DEFAULT_TIMING, 8)


def test_select_t_data_req_rules():
    assert select_t_data_req([DEFAULT_TIMING], preferred=600.0) == 600.0
    assert select_t_data_req([DEFAULT_TIMING]) == 525.0
    single = TimingParams(t_energy_net_rec=100.0, t_standby=200.0)
    assert select_t_data_req([single]) == 150.0
    with pytest.raises(ValueError, match="650"):
        select_t_data_req([TimingParams(t_energy_net_rec=650.0)])
    with pytest.raises(ValueError):
        select_t_data_req([DEFAULT_TIMING], preferred=450.0)
    with pytest.raises(ValueError):
        select_t_data_req([DEFAULT_TIMING], preferred=601.0)
    with pytest.raises(ValueError):
        select_t_data_req([])


def test_select_t_data_req_bounds_property():
    rng = np.random.default_rng(12)
    for _ in range(50):
        timings = []
        for _ in range(rng.integers(1, 5)):
            rec = float(rng.uniform(50.0, 400.0))
            timings.append(TimingParams(t_energy_net_rec=rec,
                                        t_standby=rec + float(rng.uniform(2.0, 300.0))))
        lower = max(t.t_energy_net_rec for t in timings)
        upper = min(t.t_standby for t in timings)
        if lower >= upper:
            continue
        picked = select_t_data_req(timings)
        assert lower < picked <= upper


def registry_entry(node_id, pv, role):
    entry = RegistryEntry(node_id)
    entry.last_pv, entry.role = pv, role
    return entry


def psn_entry(node_id=1, pv=3.26):
    return registry_entry(node_id, pv, NodeMode.PSN)


def test_assign_n_reference_and_bright():
    config = ControllerConfig()
    assert assign_n(psn_entry(), config, 1000.0) == 6
    assert assign_n(psn_entry(), config, 999.0) == 6
    assert assign_n(psn_entry(), config, 2000.0) > 6
    ssn = registry_entry(2, 1.3, NodeMode.SSN)
    assert assign_n(ssn, config, 5000.0) == 0


def test_assign_n_floors_at_minimum():
    # the budget fits 6 sessions at the reference light; n_min lifts that
    assert assign_n(psn_entry(), ControllerConfig(t_data_req=500.0, n_min=0),
                    1000.0) == 6
    config = ControllerConfig(t_data_req=500.0, n_min=8)
    assert assign_n(psn_entry(), config, 1000.0) == 8


def test_config_validation():
    with pytest.raises(ValueError):
        ControllerConfig(t_data_req=450.0)   # not above the recovery bound
    with pytest.raises(ValueError):
        ControllerConfig(t_data_req=601.0)   # beyond the standby budget
    with pytest.raises(ValueError):
        ControllerConfig(n_min=-1)


def report(sender, pv_code):
    return Frame44(dest_address=OAP_ADDRESS,
                   payload=NodeToOap(sender_id=sender, pv_level=pv_code,
                                     cap_level=170, sensor=130))


def drive(controller, t_end, replies=(), dt=0.1):
    emissions = []
    schedule = sorted(replies)
    k = 0
    while True:
        now = k * dt
        if now > t_end + 1e-9:
            break
        for frame in controller.step(now):
            emissions.append((now, frame))
        while schedule and schedule[0][0] <= now + 1e-9:
            _, frame = schedule.pop(0)
            controller.on_uplink(frame, now)
        k += 1
    return emissions


def command_log(emissions, command):
    return [(t, f.dest_address, f.payload.param) for t, f in emissions
            if isinstance(f.payload, OapToNode) and f.payload.command == command]


def test_controller_startup_sequence():
    controller = Controller(config=ControllerConfig(), node_ids=[3, 1, 2])
    emissions = drive(controller, 30.0)
    first_time, first = emissions[0]
    assert first_time == 0.0
    assert first.dest_address == BROADCAST_ADDRESS
    assert first.payload.command == Command.INIT_CONFIG
    assert first.payload.param == 3600
    polls = command_log(emissions, Command.DATA_REQUEST)
    assert [(round(t, 3), d) for t, d, _ in polls] == [
        (1.0, 1), (11.0, 2), (21.0, 3)]


def test_controller_round_with_classified_roles():
    controller = Controller(config=ControllerConfig(), node_ids=[1, 2, 3])
    replies = [
        (11.0, report(1, 163)),   # 3.26 V: bright
        (21.0, report(2, 66)),    # 1.32 V: dim
        (31.0, report(3, 163)),
        (610.0, report(1, 163)),
        (620.0, report(3, 163)),
    ]
    emissions = drive(controller, 700.0, replies)
    polls = command_log(emissions, Command.DATA_REQUEST)
    round_polls = [(t, d) for t, d, _ in polls if t >= 599.0]
    assert [(round(t, 3), d) for t, d in round_polls] == [(600.0, 1), (610.0, 3)]

    etx = command_log(emissions, Command.ETX_REQUEST)
    assert [(round(t, 3), d, p) for t, d, p in etx] == [
        (630.0, 1, 1), (690.0, 3, 1)]

    setn = command_log(emissions, Command.SET_N)
    assert {(d, p) for _, d, p in setn} == {(1, 6), (3, 6)}


def test_a_saturated_pv_report_books_no_recovery():
    # 220 codes 4.40 V, the open-circuit ceiling: the light is bounded
    # only from below, so recovery is free and the whole budget is sessions
    assert illuminance_for_open_voltage(4.40) == math.inf
    with pytest.raises(ValueError):
        illuminance_for_open_voltage(-0.02)
    for code in (220, 255):
        controller = Controller(config=ControllerConfig(), node_ids=[1])
        emissions = drive(controller, 20.0, [(11.0, report(1, code))])
        setn = command_log(emissions, Command.SET_N)
        assert [(round(t, 3), d, n) for t, d, n in setn] == [(11.5, 1, 73)]


def test_controller_skips_stale_nodes():
    controller = Controller(config=ControllerConfig(), node_ids=[1, 3])
    replies = [(11.0, report(1, 163)), (21.0, report(3, 163))]
    # node 1 keeps answering its polls; node 3 goes quiet after boot
    for k in range(1, 6):
        replies.append((600.0 * k + 15.0, report(1, 163)))
    emissions = drive(controller, 3000.0, replies)
    polls = command_log(emissions, Command.DATA_REQUEST)
    per_round = {}
    for t, dest, _ in polls:
        per_round.setdefault(int(t // 600.0), []).append(dest)
    # both polled while fresh, node 3 dropped once three periods pass
    assert per_round[1] == [1, 3]
    assert per_round[3] == [1, 3]
    assert per_round[4] == [1]
    etx_late = [d for t, d, _ in command_log(emissions, Command.ETX_REQUEST)
                if t >= 2400.0]
    assert set(etx_late) == {1}


def test_the_controller_acts_exactly_when_it_is_due(monkeypatch):
    # the kernel skips every tick before next_due_s, so step must change
    # nothing before it and act on the first tick that reaches it: pop a
    # frame, or open a round, which may find no fresh primary to poll
    controller = Controller(config=ControllerConfig(), node_ids=[1, 3])
    replies = [(11.0, report(1, 163)), (21.0, report(3, 163))]
    replies += [(600.0 * k + 15.0, report(1, 163)) for k in range(1, 6)]
    step = Controller.step
    acted = []

    def checked(controller, now):
        due = controller.next_due_s() <= now + 1e-9
        before = (controller._next_round, list(controller._pending))
        frames = step(controller, now)
        after = (controller._next_round, list(controller._pending))
        assert bool(frames or after != before) is due, now
        acted.append((due, bool(frames)))
        return frames

    monkeypatch.setattr(Controller, "step", checked)
    drive(controller, 6000.0, replies)
    # rounds at 5400 s and 6000 s poll nobody, yet are due
    assert (True, False) in acted and (True, True) in acted
    assert acted.count((False, False)) > 50000


def test_controller_windows_never_overlap():
    controller = Controller(config=ControllerConfig(), node_ids=[1, 2, 3])
    replies = [(11.0, report(1, 163)), (21.0, report(2, 163)),
               (31.0, report(3, 163))]
    for k in range(1, 4):
        for rank, node in enumerate([1, 2, 3]):
            replies.append((600.0 * k + 10.0 * rank + 5.0, report(node, 163)))
    emissions = drive(controller, 2000.0, replies)
    polls = sorted((t, d) for t, d, _ in
                   command_log(emissions, Command.DATA_REQUEST))
    for (t_a, d_a), (t_b, d_b) in zip(polls, polls[1:]):
        if d_a != d_b:
            assert t_b - t_a >= controller.config.slot_spacing_s - 1e-6
