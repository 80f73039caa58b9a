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
from typing import List, NamedTuple, Optional, Sequence, Tuple

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


# a node's role and state are plain strings, the text the trace writes;
# these classes only name them
class NodeMode:
    PSN = "PSN"
    SSN = "SSN"


class NodeState:
    INIT = "Init"
    STANDBY = "Standby"
    SENSING = "Sensing"
    ENERGY_RELAY = "EnergyRelay"
    SLEEP = "Sleep"
    DEPLETED = "Depleted"


class _Timing(NamedTuple):
    t_int: float = 3600.0
    t_sense: float = 9.53
    t_energy_net: float = 40.0
    t_energy_net_rec: float = 450.0
    t_data_net_rec: float = 40.0
    t_standby: float = 600.94


class TimingParams(_Timing):
    """Protocol durations, the input of the duty planners.

    duty_cycle, standby_time, select_t_data_req and `luxnet duty-table`
    take one of these.  A run reads the fixed durations from
    DEFAULT_TIMING; the one that varies, the reporting interval t_int,
    is set by the access point's INIT_CONFIG and lives on each node.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            if value <= 0.0:
                raise ValueError(f"{name} must be positive")
        return self


DEFAULT_TIMING = TimingParams()


def select_role(v_pv: float) -> str:
    """Role from the PV terminal reading: primary iff it exceeds 3.0 V."""
    return NodeMode.PSN if v_pv > PSN_PV_THRESHOLD_V else NodeMode.SSN


class NodeRecord:
    """Full state of one node, owned and advanced by the simulation kernel.

    The constructor takes the node's configuration; every other field is
    run state, and a node starts booting (Init) as a secondary with the
    default reporting interval, no PV reading, no pending session and no
    metered phase.
    """

    __slots__ = ("node_id", "storage", "profile", "t_int", "mode", "state",
                 "v_pv", "pending_n", "led", "etx_autonomous",
                 "sensing_enabled", "sensor_base_c", "state_since",
                 "next_report_s", "phase_lit", "phase_start_s", "phase_end_s")

    def __init__(self, node_id: int, storage: StorageCapacitor,
                 profile: PowerProfile = DEFAULT_PROFILE,
                 led: Optional[OpticalTransmitter] = None,
                 etx_autonomous: bool = False, sensing_enabled: bool = True,
                 sensor_base_c: float = 25.0):
        if not 1 <= node_id <= 15:
            raise ValueError("node id must be 1..15 (0 is the access point)")
        self.node_id = node_id
        self.storage = storage
        self.profile = profile
        # geometry and policy
        self.led = led          # energy-burst emitter, if fitted
        self.etx_autonomous = etx_autonomous
        self.sensing_enabled = sensing_enabled
        self.sensor_base_c = sensor_base_c
        self.t_int = DEFAULT_TIMING.t_int   # set by INIT_CONFIG
        self.mode = NodeMode.SSN
        self.state = NodeState.INIT
        self.v_pv = 0.0
        self.pending_n = 0
        # bookkeeping, managed by step_node; state_since is the instant
        # the state's clock starts: the end of the step that entered the
        # state, or a stray frame's arrival, which restarts Standby's
        self.state_since = 0.0
        self.next_report_s = 0.0
        # the last metered phase, [phase_start_s, phase_end_s): a sensing
        # cycle, or a burst session if phase_lit; it draws its power on
        # top of sleep for the share of each step it covers (phase_share)
        self.phase_lit = False
        self.phase_start_s = 0.0
        self.phase_end_s = 0.0

    # -- energy helpers ------------------------------------------------

    @property
    def guard_floor_j(self) -> float:
        return self.storage.energy_at(self.storage.v_min)


def sense_cycle_cost_j(profile: PowerProfile) -> float:
    """Energy for one full measurement-and-report cycle."""
    return (profile.sense * DEFAULT_TIMING.t_sense
            + profile.data_tx * FRAME_AIRTIME_S)


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
        return DEFAULT_TIMING.t_energy_net
    return min(DEFAULT_TIMING.t_energy_net, available / net_drain)


class NodeStepResult:
    """What one step_node call produced: the frames it emitted, its event
    texts, one cause per frame handed in (why the receiver never took
    it, or "" when it did) and cost_j, the joules of the step's frames
    (decodes and the report) on top of state_draw_w."""

    __slots__ = ("emitted", "events", "causes", "cost_j")

    def __init__(self):
        self.emitted: List[Frame44] = []
        self.events: List[str] = []
        self.causes: List[str] = []
        self.cost_j = 0.0


# Sensing and burst sessions are metered against their phase interval,
# so those states carry only the sleep baseline here; state_draw_w adds
# (phase power - sleep) for the share of the step the phase covers.
# Totals then come out independent of the integration step.
_STATE_DRAW_ATTR = {
    NodeState.INIT: "standby",
    NodeState.STANDBY: "standby",
    NodeState.SENSING: "sleep",
    NodeState.ENERGY_RELAY: "sleep",
    NodeState.SLEEP: "sleep",
}


def phase_share(node: NodeRecord, now: float, dt: float) -> float:
    """The share of the step from now to now + dt that the phase covers.

    1.0 mid-phase and on a session's first step (it starts at now, so
    the last term is dt exactly), the leftover fraction on the closing
    step, 0.0 outside the phase.  Less than 1e-6 of the step counts as
    none: that sliver is the rounding between one step's now + dt and
    the next step's i * dt.
    """
    take = min(dt, node.phase_end_s - now, dt - (node.phase_start_s - now))
    return take / dt if take >= 1e-6 * dt else 0.0


def state_draw_w(node: NodeRecord, now: float, dt: float) -> float:
    """Draw over the step from now to now + dt: the state's baseline plus
    the phase's power above sleep for its share (Depleted draws nothing)."""
    if node.state == NodeState.DEPLETED:
        return 0.0
    profile = node.profile
    phase_w = profile.etx if node.phase_lit else profile.sense
    return (getattr(profile, _STATE_DRAW_ATTR[node.state])
            + (phase_w - profile.sleep) * phase_share(node, now, dt))


def _read_pv(lux_per_face: Sequence[float]) -> float:
    """The PV terminal voltage; the brightest face sets it."""
    return pv_open_voltage(max(lux_per_face))


def _enter(node: NodeRecord, state: str, since: float) -> None:
    node.state = state
    node.state_since = since


def _enter_sensing(node: NodeRecord, since: float) -> None:
    _enter(node, NodeState.SENSING, since)
    node.phase_lit, node.phase_start_s = False, since
    node.phase_end_s = since + DEFAULT_TIMING.t_sense


def _schedule_next_report(node: NodeRecord, now: float) -> None:
    k = math.floor((now + 1e-9) / node.t_int) + 1
    node.next_report_s = k * node.t_int


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
    if node.state == NodeState.DEPLETED:
        result.causes.append("depleted receiver")
        return
    if node.state != NodeState.STANDBY:
        result.causes.append("receiver not listening")
        return
    result.causes.append("")

    result.cost_j += node.profile.decode * FRAME_AIRTIME_S

    if frame.dest_address not in (node.node_id, BROADCAST_ADDRESS):
        result.events.append("false wakeup")
        _enter(node, NodeState.STANDBY, now)
        return

    payload: OapToNode = frame.payload
    command = payload.command
    if command == Command.INIT_CONFIG:
        if payload.param > 0:
            node.t_int = float(payload.param)
        result.events.append(f"config t_int={payload.param}")
    elif command == Command.DATA_REQUEST:
        cost = sense_cycle_cost_j(node.profile)
        if energy_guard(node, cost):
            _enter_sensing(node, now + dt)
            result.events.append("data request accepted")
        else:
            # not enough margin: sleep it off rather than brown out
            result.events.append("data request refused (guard)")
            if node.mode == NodeMode.SSN:
                _schedule_next_report(node, now)
            _enter(node, NodeState.SLEEP, now + dt)
    elif command == Command.ETX_REQUEST:
        if node.mode == NodeMode.PSN and node.led is not None:
            node.pending_n = payload.param
            result.events.append(f"etx request pending_n={payload.param}")
        else:
            result.events.append("etx request ignored (no emitter)")
    elif command == Command.SET_N:
        result.events.append(f"assigned n={payload.param}")
    else:
        result.events.append(f"unknown command {int(command)}")


def _full_trigger_v(node: NodeRecord) -> float:
    """Storage voltage from which a primary acts, inf if it waits for none.

    A primary in Sleep goes back to listening once full, and one in
    Standby with an emitter and a pending or autonomous session starts
    that session once full.
    """
    if node.mode == NodeMode.PSN and (
            node.state == NodeState.SLEEP
            or (node.state == NodeState.STANDBY and node.led is not None
                and (node.pending_n > 0 or node.etx_autonomous))):
        return V_STORAGE_MAX - 1e-9
    return math.inf


def timer_due_s(node: NodeRecord) -> float:
    """The instant the current state's timer fires, inf for a state with none.

    step_node fires it on the step whose end reaches it, and next_due_s
    hands it to the kernel.
    """
    state = node.state
    if state == NodeState.INIT:
        return node.state_since + ROLE_SAMPLE_WINDOW_S
    if state == NodeState.SENSING:
        return node.phase_end_s
    if state == NodeState.ENERGY_RELAY:
        return node.phase_end_s - 1e-9
    if node.mode == NodeMode.SSN:
        if state == NodeState.STANDBY:
            return node.state_since + STANDBY_IDLE_TIMEOUT_S
        if state == NodeState.SLEEP and node.sensing_enabled:
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
    # the session is on the air from this step's start
    _enter(node, NodeState.ENERGY_RELAY, now + dt)
    node.phase_lit, node.phase_start_s = True, now
    node.phase_end_s = now + duration
    result.events.append("etx start")
    _end_session_if_due(node, now + dt, result)


def _end_session_if_due(node: NodeRecord, end: float,
                        result: NodeStepResult) -> None:
    """Close the session on the step whose end reaches its timer."""
    if end < timer_due_s(node):
        return
    length = node.phase_end_s - node.phase_start_s
    cause = ("window" if length >= DEFAULT_TIMING.t_energy_net - 1e-9
             else "floor")
    # a session due up to 1e-9 s past the step ends with it, so none of
    # it falls on the next step at any step size
    node.phase_end_s = min(node.phase_end_s, end)
    _enter(node, NodeState.SLEEP, end)
    result.events.append(f"etx end ({cause})")


def step_node(node: NodeRecord, dt: float, now: float,
              lux_per_face: Sequence[float], harvest_w: float,
              frames: Sequence[Frame44] = ()) -> NodeStepResult:
    """Advance the node by one step starting at `now`: frames, state logic.

    lux_per_face is the light on each face and harvest_w the electrical
    watts it makes; the kernel computes both once per light-field change.
    The kernel integrates storage separately (it owns the conservation
    audit); this function performs every state transition and returns
    the step's frame costs in result.cost_j.  A state's timer fires on the
    step whose end, now + dt, reaches timer_due_s, and a state entered on
    a step starts its clock at that step's end.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    result = NodeStepResult()
    end = now + dt

    if node.state == NodeState.INIT:
        # the load is off below v_ovdis, so the role waits for the lockout
        if (end >= timer_due_s(node)
                and node.storage.voltage >= V_OVERDISCHARGE):
            # pick the role before this step's frames, so the node that
            # closes its window here is already listening for them
            node.v_pv = _read_pv(lux_per_face)
            node.mode = select_role(node.v_pv)
            _enter(node, NodeState.STANDBY, end)
            result.events.append(f"role {node.mode}")
        for frame in frames:
            handle_frame(node, frame, result, now, dt)
        return result

    entry_state = node.state
    for frame in frames:
        handle_frame(node, frame, result, now, dt)
    if node.state != entry_state:
        # decoding and switching consumed this step; the new state's
        # clock starts on the next one
        return result

    state = node.state
    if state == NodeState.SENSING:
        if end >= timer_due_s(node):
            node.v_pv = _read_pv(lux_per_face)
            tx_cost = node.profile.data_tx * FRAME_AIRTIME_S
            if energy_guard(node, tx_cost):
                result.cost_j += tx_cost
                result.emitted.append(_build_report(node))
                result.events.append("report sent")
            else:
                result.events.append("report suppressed (guard)")
            # end-of-cycle self-assessment
            new_mode = select_role(node.v_pv)
            if new_mode != node.mode:
                node.mode = new_mode
                result.events.append(f"role {node.mode}")
            if node.mode == NodeMode.SSN:
                _schedule_next_report(node, now)
                _enter(node, NodeState.SLEEP, end)
            else:
                _enter(node, NodeState.STANDBY, end)
        return result

    if state == NodeState.ENERGY_RELAY:
        if node.storage.voltage <= node.storage.v_min + 1e-12:
            # the light budget moved under us; cut the session short
            node.phase_end_s = now
            _enter(node, NodeState.SLEEP, end)
            result.events.append("etx end (floor)")
        else:
            _end_session_if_due(node, end, result)
        return result

    if state == NodeState.SLEEP:
        if end >= timer_due_s(node):
            # a secondary's report wake
            cost = sense_cycle_cost_j(node.profile)
            if energy_guard(node, cost):
                _enter_sensing(node, end)
                result.events.append("timer wake")
            else:
                node.next_report_s += node.t_int
                result.events.append("sense skipped (guard)")
        elif node.storage.voltage >= _full_trigger_v(node):
            _enter(node, NodeState.STANDBY, end)
            result.events.append("recovered")
        return result

    if state == NodeState.STANDBY:
        _maybe_start_etx(node, harvest_w, now, dt, result)
        if node.state == NodeState.STANDBY and end >= timer_due_s(node):
            # a secondary idle for STANDBY_IDLE_TIMEOUT_S
            _schedule_next_report(node, now)
            _enter(node, NodeState.SLEEP, end)
            result.events.append("standby idle")
        return result

    return result


# With no frame, step_node leaves a node alone until its timer
# (timer_due_s) fires or its storage voltage leaves a band.  A phase's
# power is constant between its first and closing steps, so the kernel
# advances such quiet stretches without calling step_node, and on a full
# tick steps only the nodes that hold a frame or are due; the two
# functions below say when they end.
def next_due_s(node: NodeRecord) -> float:
    """The instant from which step_node may act on a node that hears no
    frame: -inf while its storage is outside its quiet band, else its
    timer (timer_due_s), inf for none.

    step_node acts on the first step whose end reaches it.
    """
    low, high = quiet_voltage_band(node)
    if not low <= node.storage.voltage < high:
        return -math.inf
    return timer_due_s(node)


def quiet_voltage_band(node: NodeRecord) -> Tuple[float, float]:
    """[low, high): the storage voltages at which a node's state acts on
    nothing.

    A tick whose storage step leaves the band ends the quiet stretch:
    below v_ovdis (or from v_chrdy up, while Depleted) apply_hysteresis
    acts on that tick; a primary that reaches full in Sleep, or in
    Standby with a session to run, acts on the next one, as does a
    session that sags to v_min + 1e-12, which step_node cuts.
    """
    if node.state == NodeState.DEPLETED:
        return -math.inf, V_CHARGE_READY
    if node.state == NodeState.ENERGY_RELAY:
        return math.nextafter(node.storage.v_min + 1e-12, math.inf), math.inf
    return V_OVERDISCHARGE, _full_trigger_v(node)


def apply_hysteresis(node: NodeRecord, result: NodeStepResult,
                     end: float) -> None:
    """Depletion lockout, applied by the kernel after integration.

    end is the end of the integrated step, where a new state's clock
    starts.
    """
    v = node.storage.voltage
    if node.state == NodeState.DEPLETED:
        if v >= V_CHARGE_READY:
            node.pending_n = 0
            _enter(node, NodeState.INIT, end)
            result.events.append("recovered from depletion")
    elif v < V_OVERDISCHARGE:
        # the load is cut: a running phase ends with this step
        node.phase_end_s = min(node.phase_end_s, end)
        node.pending_n = 0
        _enter(node, NodeState.DEPLETED, end)
        result.events.append("depleted")
