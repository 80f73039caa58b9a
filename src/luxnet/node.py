"""Sensor node state machine.

A node is a capacitor-backed microcontroller with photovoltaic faces, an
optical downlink receiver, an uplink LED, and (on well-lit nodes) a power
LED for energy transmission.  Its life is a loop over a handful of states:

    Init         boot, sample the PV terminal, pick a role
    Standby      receiver on, waiting for frames
    Sensing      measurement cycle, ends with one uplink report
    EnergyRelay  power LED on, draining the capacitor into a neighbour
    Sleep        everything off except the wake timer
    Depleted     undervoltage lockout, load disconnected

Role selection reads the PV terminal after a 90 ms Init window, once
the storage is above v_ovdis (below it the load is off): the hardware
keeps the minimum of three reads 30 ms apart against flicker, and the
simulated light is static over the window, so one read stands for all
three.  A node calls itself primary (PSN) only when the read clears
3.0 V.
Primary nodes keep their receiver on and serve requests; secondary nodes
(SSN) sleep and wake on an internal timer every t_int seconds to report.

Every task is gated by an energy guard: the stored energy after paying
for the task must not fall below the guard floor 1/2 C v_min^2.  A failed
guard forces sleep until the storage recovers.  Separately from v_min,
the hardware hysteresis pair (v_ovdis, v_chrdy) defines Depleted: load
cut below v_ovdis, reconnect only above v_chrdy.

Energy transmission is deliberately greedy: a session starts only from a
full capacitor and runs until the storage sags to v_min or the configured
burst length elapses, whichever is first, then the node sleeps back up to
full.  Requests that arrive before the capacitor is full stay pending and
fire as soon as it fills.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import List, Optional, Sequence, Tuple

from .channel import OpticalTransmitter
from .energy import (
    DEFAULT_PROFILE,
    V_CHARGE_READY,
    V_OVERDISCHARGE,
    V_STORAGE_MAX,
    PowerProfile,
    StorageCapacitor,
    pv_open_voltage,
)
from .protocol import (
    TEMP_MAX_C,
    TEMP_MIN_C,
    VOLTAGE_MAX_V,
    Command,
    Frame44,
    NodeToOap,
    OapToNode,
    OAP_ADDRESS,
    BROADCAST_ADDRESS,
    FRAME_AIRTIME_S,
    quantize_temperature,
    quantize_voltage,
)

PSN_PV_THRESHOLD_V = 3.0
# three PV reads 30 ms apart; on the step that closes this window the
# node picks its role before it handles that step's frames, so at any step
# size a freshly booted node hears the opening broadcast
ROLE_SAMPLE_WINDOW_S = 0.09

# a node lingering in Standby with nothing to do for this long goes to
# sleep; primaries never do (their job is to listen)
STANDBY_IDLE_TIMEOUT_S = 30.0


class NodeMode(Enum):
    PSN = "PSN"
    SSN = "SSN"


class NodeState(Enum):
    INIT = "Init"
    STANDBY = "Standby"
    SENSING = "Sensing"
    ENERGY_RELAY = "EnergyRelay"
    SLEEP = "Sleep"
    DEPLETED = "Depleted"


@dataclass(frozen=True)
class TimingParams:
    """Protocol timing constants shared by nodes and the access point."""

    t_int: float = 3600.0
    t_sense: float = 9.53
    t_energy_net: float = 40.0
    t_energy_net_rec: float = 450.0
    t_data_net_rec: float = 40.0
    t_standby: float = 600.94

    def __post_init__(self):
        for name in ("t_int", "t_sense", "t_energy_net", "t_energy_net_rec",
                     "t_data_net_rec", "t_standby"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


DEFAULT_TIMING = TimingParams()


def select_role(v_pv: float) -> NodeMode:
    """Role from the PV terminal reading: primary iff it exceeds 3.0 V."""
    return NodeMode.PSN if v_pv > PSN_PV_THRESHOLD_V else NodeMode.SSN


@dataclass
class NodeRecord:
    """Full state of one node, owned and advanced by the simulation kernel."""

    node_id: int
    storage: StorageCapacitor
    profile: PowerProfile = DEFAULT_PROFILE
    timing: TimingParams = DEFAULT_TIMING
    mode: NodeMode = NodeMode.SSN
    state: NodeState = NodeState.INIT
    v_pv: float = 0.0
    pending_n: int = 0

    # geometry and policy
    led: Optional[OpticalTransmitter] = None   # energy-burst emitter, if fitted
    etx_autonomous: bool = False
    sensing_enabled: bool = True
    sensor_base_c: float = 25.0

    # bookkeeping, managed by step_node; state_since is the instant the
    # state's clock starts: the end of the step that entered the state,
    # or a stray frame's arrival, which restarts Standby's
    state_since: float = 0.0
    next_report_s: float = 0.0
    instant_cost_j: float = 0.0
    # remaining seconds of the running burst session, and the on-air
    # share of the current step (1.0 mid-session, fractional on the
    # closing step so the emitted energy is exact at any step size, 0.0
    # when the emitter is dark)
    session_remaining_s: float = 0.0
    session_cause: str = ""
    led_fraction: float = 0.0

    def __post_init__(self):
        if not 1 <= self.node_id <= 15:
            raise ValueError("node id must be 1..15 (0 is the access point)")
        if self.pending_n < 0:
            raise ValueError("pending burst count must be non-negative")

    # -- energy helpers ------------------------------------------------

    @property
    def guard_floor_j(self) -> float:
        return self.storage.energy_at(self.storage.v_min)

    def sense_cycle_cost_j(self) -> float:
        """Energy for one full measurement-and-report cycle."""
        return (self.profile.sense * self.timing.t_sense
                + self.profile.data_tx * FRAME_AIRTIME_S)


def energy_guard(node: NodeRecord, task_cost: float) -> bool:
    """True when the storage can pay task_cost without breaching v_min."""
    if task_cost < 0.0:
        raise ValueError("task cost must be non-negative")
    return node.storage.energy - task_cost >= node.guard_floor_j - 1e-12


def etx_session(node: NodeRecord, harvest_power_w: float = 0.0) -> float:
    """Seconds of the energy-burst session the node's charge can run.

    The session ends when storage reaches v_min or after t_energy_net
    seconds, whichever comes first; 0.0 when the storage is at or below
    the guard floor.
    """
    available = node.storage.energy - node.guard_floor_j
    if available <= 0.0:
        return 0.0
    net_drain = node.profile.etx + node.storage.leak_power - harvest_power_w
    if net_drain <= 0.0:
        return node.timing.t_energy_net
    return min(node.timing.t_energy_net, available / net_drain)


@dataclass
class NodeStepResult:
    emitted: List[Frame44] = field(default_factory=list)
    events: List[str] = field(default_factory=list)
    # one per frame handed in, in order: why the receiver never took it,
    # or "" when it did
    causes: List[str] = field(default_factory=list)


# Sensing and burst sessions are metered exactly against their phase
# clocks through instant costs, so those states carry only the sleep
# baseline here; the metering adds (phase power - sleep) per in-phase
# second.  Totals then come out independent of the integration step.
_STATE_DRAW_ATTR = {
    NodeState.INIT: "standby",
    NodeState.STANDBY: "standby",
    NodeState.SENSING: "sleep",
    NodeState.ENERGY_RELAY: "sleep",
    NodeState.SLEEP: "sleep",
}


def state_draw_w(node: NodeRecord) -> float:
    """Baseline draw of the current state (Depleted draws nothing)."""
    if node.state is NodeState.DEPLETED:
        return 0.0
    return getattr(node.profile, _STATE_DRAW_ATTR[node.state])


def _read_pv(lux_per_face: Sequence[float]) -> float:
    """The PV terminal voltage; the brightest face sets it."""
    return pv_open_voltage(max(lux_per_face))


def _enter(node: NodeRecord, state: NodeState, since: float) -> None:
    node.state = state
    node.state_since = since


def _schedule_next_report(node: NodeRecord, now: float) -> None:
    k = math.floor((now + 1e-9) / node.timing.t_int) + 1
    node.next_report_s = k * node.timing.t_int


def _build_report(node: NodeRecord) -> Frame44:
    """The node's telemetry report, addressed to the access point."""
    cap_v = min(node.storage.voltage, V_STORAGE_MAX)
    payload = NodeToOap(
        sender_id=node.node_id,
        pv_level=quantize_voltage(min(max(node.v_pv, 0.0), VOLTAGE_MAX_V)),
        cap_level=quantize_voltage(min(max(cap_v, 0.0), VOLTAGE_MAX_V)),
        sensor=quantize_temperature(
            min(max(node.sensor_base_c, TEMP_MIN_C), TEMP_MAX_C)),
    )
    return Frame44(dest_address=OAP_ADDRESS, payload=payload)


def handle_frame(node: NodeRecord, frame: Frame44, result: NodeStepResult,
                 now: float, dt: float) -> None:
    """Dispatch one downlink frame delivered on the step from now to now + dt.

    Nodes hear only the access point: every node-authored frame goes to
    the controller, never to a node.  The node must be listening.
    Address mismatch is a false wakeup: the decode energy is spent and the
    listening clock restarts from the frame's arrival at now.  A frame
    addressed to this node, or broadcast, switches state by command.
    """
    if node.state is NodeState.DEPLETED:
        result.causes.append("depleted receiver")
        return
    if node.state is not NodeState.STANDBY:
        result.causes.append("receiver not listening")
        return
    result.causes.append("")

    decode_cost = node.profile.decode * FRAME_AIRTIME_S
    node.instant_cost_j += decode_cost

    if frame.dest_address not in (node.node_id, BROADCAST_ADDRESS):
        result.events.append("false wakeup")
        _enter(node, NodeState.STANDBY, now)
        return

    payload: OapToNode = frame.payload
    command = payload.command
    if command == Command.INIT_CONFIG:
        if payload.param > 0:
            node.timing = replace(node.timing, t_int=float(payload.param))
        result.events.append(f"config t_int={payload.param}")
    elif command == Command.DATA_REQUEST:
        cost = node.sense_cycle_cost_j()
        if energy_guard(node, cost):
            _enter(node, NodeState.SENSING, now + dt)
            result.events.append("data request accepted")
        else:
            # not enough margin: sleep it off rather than brown out
            result.events.append("data request refused (guard)")
            if node.mode is NodeMode.SSN:
                _schedule_next_report(node, now)
            _enter(node, NodeState.SLEEP, now + dt)
    elif command == Command.ETX_REQUEST:
        if node.mode is NodeMode.PSN and node.led is not None:
            node.pending_n = payload.param
            result.events.append(f"etx request pending_n={payload.param}")
        else:
            result.events.append("etx request ignored (no emitter)")
    elif command == Command.SET_N:
        result.events.append(f"assigned n={payload.param}")
    else:
        result.events.append(f"unknown command {int(command)}")


def _session_tick(node: NodeRecord, now: float, dt: float,
                  result: NodeStepResult) -> None:
    """Consume one step of the running burst session.

    The emitter is metered against the session clock, not the step
    grid: a closing step burns and radiates only the leftover fraction,
    so the session's total energy is exact at any step size.
    """
    take = min(dt, node.session_remaining_s)
    node.session_remaining_s -= take
    node.instant_cost_j += (node.profile.etx - node.profile.sleep) * take
    node.led_fraction = take / dt
    if node.session_remaining_s <= 1e-12:
        node.session_remaining_s = 0.0
        _enter(node, NodeState.SLEEP, now + dt)
        result.events.append(f"etx end ({node.session_cause})")


def _full_trigger_v(node: NodeRecord) -> float:
    """Storage voltage from which a primary acts, inf if it waits for none.

    A primary in Sleep goes back to listening once full, and one in
    Standby with an emitter and a pending or autonomous session starts
    that session once full.
    """
    if node.mode is NodeMode.PSN and (
            node.state is NodeState.SLEEP
            or (node.state is NodeState.STANDBY and node.led is not None
                and (node.pending_n > 0 or node.etx_autonomous))):
        return V_STORAGE_MAX - 1e-9
    return math.inf


def timer_due_s(node: NodeRecord) -> float:
    """The instant the current state's timer fires, inf for a state with none.

    step_node fires it on the step whose end reaches it, and quiet_ticks
    counts the idle ticks before that step.
    """
    state = node.state
    if state is NodeState.INIT:
        return node.state_since + ROLE_SAMPLE_WINDOW_S
    if state is NodeState.SENSING:
        return node.state_since + node.timing.t_sense
    if node.mode is NodeMode.SSN:
        if state is NodeState.STANDBY:
            return node.state_since + STANDBY_IDLE_TIMEOUT_S
        if state is NodeState.SLEEP and node.sensing_enabled:
            return node.next_report_s - 1e-9
    return math.inf


def _maybe_start_etx(node: NodeRecord, harvest_w: float, now: float,
                     dt: float, result: NodeStepResult) -> None:
    if node.storage.voltage < _full_trigger_v(node):
        return
    duration = etx_session(node, harvest_power_w=harvest_w)
    if duration <= 0.0:
        return
    if node.pending_n > 0:
        node.pending_n -= 1
    node.session_remaining_s = duration
    node.session_cause = ("window" if duration
                          >= node.timing.t_energy_net - 1e-9 else "floor")
    _enter(node, NodeState.ENERGY_RELAY, now + dt)
    result.events.append("etx start")
    _session_tick(node, now, dt, result)


def step_node(node: NodeRecord, dt: float, now: float,
              lux_per_face: Sequence[float], harvest_w: float,
              frames: Sequence[Frame44] = ()) -> NodeStepResult:
    """Advance the node by one step starting at `now`: frames, state logic.

    lux_per_face is the light on each face and harvest_w the electrical
    watts it makes; the kernel computes both once per light-field change.
    The kernel integrates storage separately (it owns the conservation
    audit); this function accumulates instantaneous costs on the record
    and performs every state transition.  A state's timer fires on the
    step whose end, now + dt, reaches timer_due_s, and a state entered on
    a step starts its clock at that step's end.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    result = NodeStepResult()
    if node.state is not NodeState.ENERGY_RELAY:
        # a closing step's fractional emission has been consumed by now
        node.led_fraction = 0.0
    end = now + dt

    if node.state is NodeState.INIT:
        # the load is off below v_ovdis, so the role waits for the lockout
        if (end >= timer_due_s(node)
                and node.storage.voltage >= V_OVERDISCHARGE):
            # pick the role before this step's frames, so the node that
            # closes its window here is already listening for them
            node.v_pv = _read_pv(lux_per_face)
            node.mode = select_role(node.v_pv)
            _enter(node, NodeState.STANDBY, end)
            result.events.append(f"role {node.mode.value}")
        for frame in frames:
            handle_frame(node, frame, result, now, dt)
        return result

    entry_state = node.state
    for frame in frames:
        handle_frame(node, frame, result, now, dt)
    if node.state is not entry_state:
        # decoding and switching consumed this step; the new state's
        # clock starts on the next one
        return result

    state = node.state
    if state is NodeState.SENSING:
        # meter the sensing chain against its phase clock so the cycle
        # cost is exactly sense power times t_sense at any step size
        t_sense = node.timing.t_sense
        phase_before = min(now - node.state_since, t_sense)
        phase_after = min(end - node.state_since, t_sense)
        node.instant_cost_j += ((node.profile.sense - node.profile.sleep)
                                * (phase_after - phase_before))
        if end >= timer_due_s(node):
            node.v_pv = _read_pv(lux_per_face)
            tx_cost = node.profile.data_tx * FRAME_AIRTIME_S
            if energy_guard(node, tx_cost):
                node.instant_cost_j += tx_cost
                result.emitted.append(_build_report(node))
                result.events.append("report sent")
            else:
                result.events.append("report suppressed (guard)")
            # end-of-cycle self-assessment
            new_mode = select_role(node.v_pv)
            if new_mode is not node.mode:
                node.mode = new_mode
                result.events.append(f"role {node.mode.value}")
            if node.mode is NodeMode.SSN:
                _schedule_next_report(node, now)
                _enter(node, NodeState.SLEEP, end)
            else:
                _enter(node, NodeState.STANDBY, end)
        return result

    if state is NodeState.ENERGY_RELAY:
        drained_early = (node.storage.voltage <= node.storage.v_min + 1e-12
                         and node.session_remaining_s > 1e-9)
        if drained_early:
            # the light budget moved under us; cut the session short
            node.session_remaining_s = 0.0
            node.led_fraction = 0.0
            _enter(node, NodeState.SLEEP, end)
            result.events.append("etx end (floor)")
        else:
            _session_tick(node, now, dt, result)
        return result

    if state is NodeState.SLEEP:
        if end >= timer_due_s(node):
            # a secondary's report wake
            cost = node.sense_cycle_cost_j()
            if energy_guard(node, cost):
                _enter(node, NodeState.SENSING, end)
                result.events.append("timer wake")
            else:
                node.next_report_s += node.timing.t_int
                result.events.append("sense skipped (guard)")
        elif node.storage.voltage >= _full_trigger_v(node):
            _enter(node, NodeState.STANDBY, end)
            result.events.append("recovered")
        return result

    if state is NodeState.STANDBY:
        _maybe_start_etx(node, harvest_w, now, dt, result)
        if node.state is NodeState.STANDBY and end >= timer_due_s(node):
            # a secondary idle for STANDBY_IDLE_TIMEOUT_S
            _schedule_next_report(node, now)
            _enter(node, NodeState.SLEEP, end)
            result.events.append("standby idle")
        return result

    return result


# With no frame, no metered cost and no emission, step_node leaves a node
# in one of these states alone until its timer (timer_due_s) or a voltage
# threshold fires.  The kernel advances such quiet stretches without
# calling step_node; the two functions below say when they end.
_QUIET_STATES = (NodeState.SLEEP, NodeState.STANDBY, NodeState.DEPLETED)


def quiet_ticks(node: NodeRecord, tick: int, dt: float, limit: int) -> int:
    """Ticks from `tick` on, at most limit, that step_node spends idle.

    Tick j starts at j * dt.  The count assumes no frames arrive; it is 0
    when step_node may act on this very tick.  Otherwise it runs up to
    the first tick whose end reaches timer_due_s, found with step_node's
    own float expression, so the count is exact rather than rounded tick
    arithmetic.
    """
    if (node.state not in _QUIET_STATES or node.instant_cost_j != 0.0
            or node.led_fraction != 0.0
            or node.storage.voltage >= _full_trigger_v(node)):
        return 0
    due = timer_due_s(node)
    if due == math.inf:
        return limit
    # a guess off by a tick or two, then the first tick whose end is due
    j = min(max(tick, math.floor(due / dt) - 1), tick + limit)
    while j > tick and (j - 1) * dt + dt >= due:
        j -= 1
    while j < tick + limit and j * dt + dt < due:
        j += 1
    return j - tick


def quiet_voltage_band(node: NodeRecord) -> Tuple[float, float]:
    """[low, high): a quiet node's storage voltages that change nothing.

    A tick whose storage step leaves the band ends the quiet stretch:
    below v_ovdis (or from v_chrdy up, while Depleted) apply_hysteresis
    acts on that tick; a primary that reaches full in Sleep, or in
    Standby with a session to run, acts on the next one.
    """
    if node.state is NodeState.DEPLETED:
        return -math.inf, V_CHARGE_READY
    return V_OVERDISCHARGE, _full_trigger_v(node)


def apply_hysteresis(node: NodeRecord, result: NodeStepResult,
                     end: float) -> None:
    """Depletion lockout, applied by the kernel after integration.

    end is the end of the integrated step, where a new state's clock
    starts.
    """
    v = node.storage.voltage
    if node.state is NodeState.DEPLETED:
        if v >= V_CHARGE_READY:
            node.pending_n = 0
            _enter(node, NodeState.INIT, end)
            result.events.append("recovered from depletion")
    elif v < V_OVERDISCHARGE:
        node.led_fraction = 0.0
        node.session_remaining_s = 0.0
        node.pending_n = 0
        _enter(node, NodeState.DEPLETED, end)
        result.events.append("depleted")
