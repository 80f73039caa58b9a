"""Deterministic scenario engine.

Control traffic is event-driven over a fixed integration grid: frames
land on the first grid tick after their airtime, nodes advance in
ascending id order, and storage is integrated once per tick from each
node's draw (node.state_draw_w) plus the step's frame costs.  Identical
scenarios with identical seeds reproduce byte-identical traces.

Time advances to the next tick on which anything discrete can act: the
head of the in-flight queue, or the first tick that reaches the instant the
controller or a node is next due (Controller.next_due_s,
node.next_due_s).  A node is due at its timer (node.timer_due_s), which
for Sensing and EnergyRelay is the end of its metered phase, or at once
while its storage is outside its quiet band.  first_tick is the one
conversion from an instant to a tick; it tests the float expression the
instant's consumer tests, so no full tick is spent on which nothing is
due.  The tick so found runs its discrete half: frame delivery, the
controller, and step_node for every node that holds a frame or is due by
the same test (any other, step_node would leave alone).  Storage is then
integrated in one place for every tick.  Between full ticks every phase
covers whole steps, so every node draws constant power, its stored
energy is linear in time, and a stretch of ticks advances in one
closed-form step (energy.storage_step) with its tallies booked by
multiplication; a full tick is a one-tick stretch whose draw adds the
step's frame costs.  A stretch refreshes the light field, steps the
storage, books the tallies and runs the depletion hysteresis on its last
tick.  A node's timers are instants, not clocks, so a quiet stretch
leaves every node field but the storage voltage alone.  It ends on the
first tick on which some node's voltage leaves its quiet band
(node.quiet_voltage_band, energy.band_exit).  Events, states and frames
therefore match stepping every tick in full, which tests/kernel_oracle.py
still does; voltages and float tallies differ only by the rounding of
one step against many.

Each node's run state is one lane (_Lane): its record, faces, light,
harvest, tallies and interference generator, kept in node-id order.

Burst light superposes onto the static ambient field through a gain
matrix precomputed from the scenario geometry, scaled per step by each
emitter's on-air share (node.phase_share), so the radiated and
harvested energies agree exactly with the session accounting inside the
nodes.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from functools import reduce
from operator import add
from typing import (
    Deque,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    TextIO,
    Tuple,
)

from .channel import (
    InterferenceModel,
    OpticalReceiver,
    OpticalTransmitter,
    Vec3,
    frame_failure_probability,
    illuminance_at,
    norm,
    uniform_draws,
)
from .controller import Controller, ControllerConfig
from .energy import (
    DEFAULT_PROFILE,
    DEFAULT_V_MIN,
    PV_CELL_AREA_M2,
    V_OVERDISCHARGE,
    V_STORAGE_MAX,
    HarvesterArray,
    PowerProfile,
    StorageCapacitor,
    band_exit,
    storage_step,
)
from .errors import InfeasibleError, ScenarioError
from .node import (
    NodeRecord,
    NodeState,
    NodeStepResult,
    apply_hysteresis,
    next_due_s,
    phase_share,
    quiet_voltage_band,
    state_draw_w,
    step_node,
)
from .protocol import (
    BROADCAST_ADDRESS,
    FRAME_AIRTIME_S,
    Frame44,
    NodeToOap,
)

ETX_POLICIES = ("disabled", "oap", "autonomous")

# longest run accepted, in ticks; the shipped paper-b scenario (60 h at
# 0.1 s) takes 2.16 M
MAX_TICKS = 10 ** 8
# most sample rows a run may write, about 4.8 GB of CSV at 48 bytes a
# row; 15 nodes sampled every 100th of MAX_TICKS ticks write 15 M, and
# the shipped scenarios and crowd-dense at most 270,015
MAX_TRACE_ROWS = 10 ** 8


class FaceSpec(NamedTuple):
    """One harvesting face: outward normal and its static ambient light."""

    normal: Vec3
    ambient_lux: float


class NodeSpec(NamedTuple):
    """Scenario-level initializer for one node."""

    node_id: int
    position: Vec3
    faces: Tuple[FaceSpec, ...]
    start_voltage: float = V_STORAGE_MAX
    v_min: float = DEFAULT_V_MIN
    led_power_w: float = 0.0
    led_half_angle_deg: float = 15.0
    led_aim: Optional[Vec3] = None
    sensing_enabled: bool = True
    sensor_base_c: float = 25.0


class OapSpec(NamedTuple):
    """Access point: controller settings plus its mounting position."""

    config: ControllerConfig = ControllerConfig()
    position: Vec3 = (0.0, 0.0866, 0.4)


class Scenario(NamedTuple):
    name: str
    duration_s: float
    nodes: Tuple[NodeSpec, ...]
    oap: OapSpec = OapSpec()
    step_s: float = 0.1
    seed: int = 0
    trace_interval_s: float = 10.0
    etx_policy: str = "disabled"
    interference: Optional[InterferenceModel] = None
    profile: PowerProfile = DEFAULT_PROFILE


# The scenario file format: one table per spec type, each row
# (file key, field, reader), in file order.  The reader is one of text,
# number, integer, flag or vector.  A field without a default is a
# required key, and a None default makes the key optional.
# cli parses and writes files through these tables, and validate_scenario
# checks every number row for finiteness.
SCENARIO_KEYS = (
    ("name", "name", "text"),
    ("duration_s", "duration_s", "number"),
    ("step_s", "step_s", "number"),
    ("seed", "seed", "integer"),
    ("trace_interval_s", "trace_interval_s", "number"),
    ("etx_policy", "etx_policy", "text"),
)
# [oap] holds the OapSpec rows, then the ControllerConfig rows
OAP_KEYS = (("position_m", "position", "vector"),)
CONTROLLER_KEYS = (
    ("t_data_req_s", "t_data_req", "number"),
    ("t_int_s", "t_int", "number"),
    ("n_min", "n_min", "integer"),
    ("psn_pv_threshold_v", "psn_pv_threshold", "number"),
    ("slot_spacing_s", "slot_spacing_s", "number"),
    ("etx_offset_s", "etx_offset_s", "number"),
    ("etx_spacing_s", "etx_spacing_s", "number"),
    ("etx_bursts_per_request", "etx_bursts_per_request", "integer"),
    ("stale_after_rounds", "stale_after_rounds", "number"),
)
INTERFERENCE_KEYS = (
    ("midpoint_lux", "midpoint_lux", "number"),
    ("steepness_per_lux", "steepness_per_lux", "number"),
    ("floor", "floor", "number"),
)
# [calibration] defaults to DEFAULT_PROFILE, not to field defaults
CALIBRATION_KEYS = (
    ("sleep_w", "sleep", "number"),
    ("standby_w", "standby", "number"),
    ("sense_w", "sense", "number"),
    ("data_tx_w", "data_tx", "number"),
    ("etx_w", "etx", "number"),
    ("decode_w", "decode", "number"),
)
# in a [node.<id>] section the three face groups, each FACE_KEYS under
# its face_<letter>_ prefix, sit between position_m and the other rows
NODE_KEYS = (
    ("position_m", "position", "vector"),
    ("start_voltage_v", "start_voltage", "number"),
    ("v_min_v", "v_min", "number"),
    ("led_power_w", "led_power_w", "number"),
    ("led_half_angle_deg", "led_half_angle_deg", "number"),
    ("led_aim", "led_aim", "vector"),
    ("sensing_enabled", "sensing_enabled", "flag"),
    ("sensor_base_c", "sensor_base_c", "number"),
)
FACE_KEYS = (
    ("normal", "normal", "vector"),
    ("ambient_lux", "ambient_lux", "number"),
)
FACE_LETTERS = "abc"


class TraceRow(NamedTuple):
    """One node at one instant: a sample row, or an event row if event is set.

    harvested_j is the node's cumulative harvest at time_s.  The sample
    rows, written at the trace instants, are the harvest checkpoints that
    recharge-time questions interpolate between; the CSV omits it.
    """

    time_s: float
    node_id: int
    v_cap: float
    v_pv: float
    mode: str
    state: str
    lux: float
    harvested_j: float
    event: str = ""


class SegmentLane(NamedTuple):
    """One node's constants over a trace segment, read before the
    stretch's storage step: its fixed row fields, then what the closed
    form needs for its storage energy (e0 plus net per tick, clamped to
    0..energy_full) and its harvest tally (h0 plus harvest_dt per tick).
    """

    node_id: int
    v_pv: float
    mode: str
    state: str
    lux: float
    e0: float
    energy_full: float
    net: float
    capacitance: float
    h0: float
    harvest_dt: float


class TraceSegment(NamedTuple):
    """The sample rows of one quiet stretch, run-end encoded.

    Its rows sit after the first `at` discrete rows of the trace, one per
    lane, in lane order, at each tick i + n for n in instants.
    segment_values expands them.
    """

    at: int
    i: int
    instants: range
    dt: float
    lanes: Tuple[SegmentLane, ...]


def segment_values(segment: TraceSegment,
                   instants: Optional[range] = None,
                   harvest: bool = False):
    """A segment's values at `instants` (all of its own by default):
    the time of each instant, and per lane a list of the storage voltage
    at each, or with harvest set a pair of that list and one of the
    harvest tally at each.

    These are storage_step's closed form and the tally's harvest in the
    float order the kernel books them.
    """
    if instants is None:
        instants = segment.instants
    i, dt = segment.i, segment.dt
    sqrt = math.sqrt
    lanes = []
    for *_, e0, full, net, capacitance, h0, harvest_dt in segment.lanes:
        v_caps = [sqrt(2.0 * (0.0 if (e := e0 + n * net) < 0.0
                              else full if e > full else e) / capacitance)
                  for n in instants]
        lanes.append((v_caps, [h0 + n * harvest_dt for n in instants])
                     if harvest else v_caps)
    return [(i + n) * dt for n in instants], lanes


class FrameLogEntry(NamedTuple):
    time_s: float
    outcome: str          # sent | delivered | failed
    origin: str
    dest: int
    cause: str = ""


class NodeAggregate:
    """Per-node tallies, booked once per stretch; a full tick is a one-tick
    stretch.  They start at zero, the light's minimum at inf, with no
    depletion; the run books the final energy and voltage at its end."""

    __slots__ = ("node_id", "lux_integral", "lux_min", "lux_max",
                 "time_by_state", "depleted_at", "harvested_j", "consumed_j",
                 "leaked_j", "clamp_loss_j", "start_energy_j",
                 "final_energy_j", "final_voltage")

    def __init__(self, node_id: int, start_energy_j: float):
        self.node_id = node_id
        self.start_energy_j = start_energy_j
        self.lux_integral = 0.0
        self.lux_min = math.inf
        self.lux_max = 0.0
        self.time_by_state: Dict[str, float] = {}
        self.depleted_at: Optional[float] = None
        self.harvested_j = 0.0
        self.consumed_j = 0.0
        self.leaked_j = 0.0
        self.clamp_loss_j = 0.0
        self.final_energy_j = 0.0
        self.final_voltage = 0.0


class TraceSet:
    """Everything one run recorded.

    The trace rows are the discrete rows, written one at a time (the
    event rows and the samples between stretches), and the segments,
    each the samples inside one quiet stretch; runs() walks both in row
    order, and rows expands them into one list.  frame_log is the only
    record of frames: each is logged once as sent, then once per node it
    was addressed to as delivered or failed (an uplink, once as
    delivered).  The frame counts are read from it.  steady_tally is
    each node's final-quarter tally (see _tally_steady), which
    format_trace_csv books as it renders the rows and summarize reads;
    a trace starts without one (None).
    """

    __slots__ = ("scenario_name", "duration_s", "step_s", "discrete",
                 "segments", "frame_log", "controller_log", "aggregates",
                 "steady_tally")

    def __init__(self, scenario_name: str, duration_s: float, step_s: float,
                 discrete: List[TraceRow], segments: List[TraceSegment],
                 frame_log: List[FrameLogEntry], controller_log: List[str],
                 aggregates: Dict[int, NodeAggregate]):
        self.scenario_name = scenario_name
        self.duration_s = duration_s
        self.step_s = step_s
        self.discrete = discrete
        self.segments = segments
        self.frame_log = frame_log
        self.controller_log = controller_log
        self.aggregates = aggregates
        self.steady_tally: Optional[Dict[int, List]] = None

    def runs(self, since: float = -math.inf
             ) -> Iterator[Tuple[List[TraceRow], Optional[TraceSegment]]]:
        """The rows at or after time `since`, in row order: (discrete
        rows, the segment after them) pairs, the last with no segment.

        The rows are in time order, so those rows are a tail: it starts
        in the first segment that ends at or after since, trimmed to its
        instants from since on, or in the discrete rows before it.
        """
        segments = self.segments[bisect_left(
            self.segments, since,
            key=lambda s: (s.i + s.instants[-1]) * s.dt):]
        if segments:
            _, i, instants, dt, _ = head = segments[0]
            segments[0] = head._replace(instants=instants[bisect_left(
                instants, since, key=lambda n: (i + n) * dt):])
        done = bisect_left(self.discrete, since, key=lambda row: row.time_s)
        for segment in segments:
            yield self.discrete[done:segment.at], segment
            done = segment.at
        yield self.discrete[done:], None

    @property
    def rows(self) -> List[TraceRow]:
        """A fresh list of every row, segments expanded, for readers that
        want one at a time; the run's own outputs read the segments."""
        rows: List[TraceRow] = []
        for discrete, segment in self.runs():
            rows += discrete
            if segment is None:
                continue
            times, values = segment_values(segment, harvest=True)
            fixed = [lane[:5] for lane in segment.lanes]
            for k, time_s in enumerate(times):
                rows += [TraceRow(time_s, nid, v_caps[k], v_pv, mode, state,
                                  lux, harvests[k])
                         for (nid, v_pv, mode, state, lux), (v_caps, harvests)
                         in zip(fixed, values)]
        return rows

    def _outcomes(self, *outcomes: str) -> int:
        return sum(1 for entry in self.frame_log if entry.outcome in outcomes)

    @property
    def frames_sent(self) -> int:
        return self._outcomes("sent")

    @property
    def deliveries_made(self) -> int:
        return self._outcomes("delivered")

    @property
    def deliveries_intended(self) -> int:
        return self._outcomes("delivered", "failed")


def _as_vec(value, what: str) -> Vec3:
    try:
        vec = tuple(float(c) for c in value)
    except (TypeError, ValueError, OverflowError):
        vec = ()
    if (isinstance(value, str) or len(vec) != 3
            or not all(map(math.isfinite, vec))):
        raise ScenarioError(f"{what} must be a finite 3-vector")
    return vec


def _require_finite(label: str, obj, table, prefix: str = "") -> None:
    """Reject a non-finite value in any number row of a format table."""
    for key, name, reader in table:
        value = getattr(obj, name)
        if reader == "number" and not math.isfinite(value):
            raise ScenarioError(
                f"{label}{prefix}{key} must be finite, got {value}")


def tick_count(duration_s: float, step_s: float) -> int:
    """Ticks a run of duration_s takes at step_s, at least one.

    Raises InfeasibleError above MAX_TICKS, before any work starts.  The
    ratio is compared unrounded because an overflowed one is infinite.
    """
    ratio = duration_s / step_s
    if ratio > MAX_TICKS:
        raise InfeasibleError(
            f"duration_s / step_s asks for {ratio:.3g} ticks, "
            f"more than the {MAX_TICKS} a run may take")
    return max(1, int(round(ratio)))


def sample_every(scenario: Scenario) -> int:
    """Ticks from one trace instant to the next, at least one."""
    return max(1, int(round(scenario.trace_interval_s / scenario.step_s)))


def first_tick(instant: float, offset: float, dt: float, start: int) -> float:
    """The first tick j >= start with instant <= j * dt + offset.

    This is the one conversion from an instant to a tick.  It tests that
    exact float expression, the one the instant's consumer tests, so the
    answer is exact rather than rounded tick arithmetic.  An instant
    already reached (-inf among them) gives start, and inf gives inf.
    """
    if instant <= start * dt + offset:
        return start
    if instant == math.inf:
        return math.inf
    # a guess off by a tick or two, then the first tick that reaches it
    j = max(start, math.floor((instant - offset) / dt) - 1)
    while j > start and instant <= (j - 1) * dt + offset:
        j -= 1
    while instant > j * dt + offset:
        j += 1
    return j


def validate_scenario(scenario: Scenario) -> None:
    """Reject malformed scenarios before any work starts.

    Every number must be finite: a NaN compares false against every
    bound below, and an infinity overflows the tick count.  A run of
    more than MAX_TICKS ticks, or of more than MAX_TRACE_ROWS sample
    rows, is infeasible rather than malformed.
    """
    _require_finite("", scenario, SCENARIO_KEYS)
    _require_finite("oap: ", scenario.oap.config, CONTROLLER_KEYS)
    if scenario.interference is not None:
        _require_finite("interference: ", scenario.interference,
                        INTERFERENCE_KEYS)
    _require_finite("calibration: ", scenario.profile, CALIBRATION_KEYS)
    # _replace builds a value without its constructor's checks, so each
    # checked value is built again: a zero t_data_req would never end
    for label, value in (("oap", scenario.oap.config),
                         ("interference", scenario.interference),
                         ("calibration", scenario.profile)):
        if value is None:
            continue
        try:
            type(value)(*value)
        except ValueError as exc:
            raise ScenarioError(f"{label}: {exc}") from exc
    if scenario.duration_s <= 0.0:
        raise ScenarioError("duration_s must be positive")
    if scenario.step_s <= 0.0:
        raise ScenarioError("step_s must be positive")
    if scenario.duration_s < scenario.step_s - 1e-12:
        raise ScenarioError("duration_s must cover at least one step")
    if scenario.trace_interval_s < scenario.step_s - 1e-12:
        raise ScenarioError("trace_interval_s must be at least step_s")
    if scenario.seed < 0:
        raise ScenarioError(f"seed must be >= 0, got {scenario.seed}")
    if scenario.etx_policy not in ETX_POLICIES:
        raise ScenarioError(
            f"etx_policy must be one of {ETX_POLICIES}, "
            f"got {scenario.etx_policy!r}")
    if not scenario.nodes:
        raise ScenarioError("at least one node is required")
    seen = set()
    for spec in scenario.nodes:
        label = f"node.{spec.node_id}"
        if not 1 <= spec.node_id <= 15:
            raise ScenarioError(f"{label}: node ids must be 1..15")
        if spec.node_id in seen:
            raise ScenarioError(f"{label}: duplicate node id")
        seen.add(spec.node_id)
        if len(spec.faces) != 3:
            raise ScenarioError(f"{label}: exactly three faces are required")
        for letter, face in zip(FACE_LETTERS, spec.faces):
            _require_finite(f"{label}: ", face, FACE_KEYS, f"face_{letter}_")
            if norm(_as_vec(face.normal, f"{label} face normal")) <= 0.0:
                raise ScenarioError(f"{label}: face normal must be nonzero")
            if face.ambient_lux < 0.0:
                raise ScenarioError(f"{label}: ambient_lux must be >= 0")
        _as_vec(spec.position, f"{label} position")
        _require_finite(f"{label}: ", spec, NODE_KEYS)
        if not 0.0 < spec.start_voltage <= V_STORAGE_MAX + 1e-9:
            raise ScenarioError(
                f"{label}: start_voltage_v must be in (0, {V_STORAGE_MAX}]")
        if spec.v_min < V_OVERDISCHARGE:
            raise ScenarioError(f"{label}: v_min must not sit below v_ovdis")
        if spec.led_power_w < 0.0:
            raise ScenarioError(f"{label}: led_power_w must be >= 0")
        if spec.led_power_w > 0.0:
            if spec.led_aim is None:
                raise ScenarioError(
                    f"{label}: led_aim is required when an emitter is fitted")
            if norm(_as_vec(spec.led_aim, f"{label} led_aim")) <= 0.0:
                raise ScenarioError(f"{label}: led_aim must be nonzero")
            if not 0.0 < spec.led_half_angle_deg < 90.0:
                raise ScenarioError(
                    f"{label}: led_half_angle_deg must be in (0, 90)")
    # the burst gain (channel.link_between) needs a nonzero distance from
    # each emitter to every other node
    nodes = sorted(scenario.nodes, key=lambda spec: spec.node_id)
    emitters = [spec for spec in nodes if spec.led_power_w > 0.0]
    for src in emitters:
        for dst in nodes:
            sep = tuple(float(r) - float(t)
                        for r, t in zip(dst.position, src.position))
            if dst is not src and norm(sep) <= 0.0:
                raise ScenarioError(
                    f"node.{src.node_id} to node.{dst.node_id} link: "
                    "transmitter and receiver are co-located")
    if scenario.etx_policy != "disabled" and not emitters:
        raise InfeasibleError(
            "energy sharing requested but no node has an emitter")
    cfg = scenario.oap.config
    if not (1 <= cfg.t_int <= 65535 and cfg.t_int == int(cfg.t_int)):
        raise ScenarioError(
            "oap: t_int_s must be a whole number of seconds in 1..65535 "
            f"(a 16-bit config field), got {cfg.t_int}")
    # the integer [oap] keys, n_min and etx_bursts_per_request, travel as
    # 16-bit frame parameters; out of range, the run would stop at the
    # first frame that carries one
    for key, name, reader in CONTROLLER_KEYS:
        value = getattr(cfg, name)
        if reader == "integer" and not 0 <= value <= 65535:
            raise ScenarioError(f"oap: {key} must be 0..65535, got {value}")
    _as_vec(scenario.oap.position, "oap position")
    ticks = tick_count(scenario.duration_s, scenario.step_s)
    # every node at tick 0, at each trace instant after it and at the end
    rows = len(scenario.nodes) * (-(-ticks // sample_every(scenario)) + 1)
    if rows > MAX_TRACE_ROWS:
        raise InfeasibleError(
            f"the trace asks for {rows:.3g} sample rows, "
            f"more than the {MAX_TRACE_ROWS} a run may write")


def _harvester(spec: NodeSpec) -> HarvesterArray:
    """The node's PV cells: one receiver per face, at the node."""
    position = tuple(float(x) for x in spec.position)
    return HarvesterArray(cells=tuple(
        OpticalReceiver(area_m2=PV_CELL_AREA_M2, position=position,
                        normal=tuple(float(x) for x in face.normal))
        for face in spec.faces))


def _build_node(spec: NodeSpec, profile: PowerProfile,
                autonomous: bool = False) -> NodeRecord:
    """The node's record at the start of a run; autonomous (the
    scenario's etx_policy) lets an emitter run sessions unasked."""
    led = None
    if spec.led_power_w > 0.0:
        led = OpticalTransmitter(
            optical_power_w=spec.led_power_w,
            half_angle_deg=spec.led_half_angle_deg,
            position=tuple(float(x) for x in spec.position),
            boresight=tuple(float(x) for x in spec.led_aim),
        )
    return NodeRecord(
        node_id=spec.node_id,
        storage=StorageCapacitor(voltage=spec.start_voltage,
                                 v_min=spec.v_min),
        profile=profile,
        led=led,
        etx_autonomous=autonomous and led is not None,
        sensing_enabled=spec.sensing_enabled,
        sensor_base_c=spec.sensor_base_c,
    )


class _Lane:
    """One node's run state: its record, its light and its tallies.

    incoming holds each emitter's illuminance on this node's faces at
    full drive, keyed by the emitter's id; rng is the node's stream of
    interference draws, numpy's default_rng((seed, id)) in pure Python
    (channel.uniform_draws), None in a run without interference.  lux
    and harvest_w, the light on each face and the watts it makes, change
    only with the on-air set; _Runtime._refresh_lux sets them, first
    before tick 0.
    """

    __slots__ = ("record", "harvester", "ambient", "incoming", "lux",
                 "harvest_w", "agg", "rng")

    def __init__(self, spec: NodeSpec, scenario: Scenario):
        self.record = _build_node(spec, scenario.profile,
                                  scenario.etx_policy == "autonomous")
        self.harvester = _harvester(spec)
        # abs turns a validated -0.0 into 0.0, so no trace column holds -0.0
        self.ambient = tuple(abs(float(f.ambient_lux)) for f in spec.faces)
        self.incoming: Dict[int, Tuple[float, ...]] = {}
        self.agg = NodeAggregate(spec.node_id, self.record.storage.energy)
        self.rng = (None if scenario.interference is None
                    else uniform_draws(scenario.seed, spec.node_id))

    def tally(self, dt: float, p_in: float, p_out: float, clamp_loss: float,
              ticks: int) -> None:
        """Book `ticks` ticks at this harvest, draw and light, with their
        clamp loss."""
        agg = self.agg
        record = self.record
        agg.clamp_loss_j += clamp_loss
        agg.harvested_j += ticks * (p_in * dt)
        agg.consumed_j += ticks * (p_out * dt)
        agg.leaked_j += ticks * (record.storage.leak_power * dt)
        state = record.state
        agg.time_by_state[state] = (
            agg.time_by_state.get(state, 0.0) + ticks * dt)
        face_a = self.lux[0]
        agg.lux_integral += ticks * (face_a * dt)
        agg.lux_min = min(agg.lux_min, face_a)
        agg.lux_max = max(agg.lux_max, face_a)


class _Runtime:
    """Mutable per-run machinery, internal to run_scenario."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.dt = scenario.step_s
        self.n_steps = tick_count(scenario.duration_s, scenario.step_s)
        # one lane per node, in node-id order
        self.lanes = [_Lane(spec, scenario) for spec in
                      sorted(scenario.nodes, key=lambda s: s.node_id)]
        self.controller = Controller(
            config=scenario.oap.config,
            node_ids=[lane.record.node_id for lane in self.lanes],
            etx_enabled=(scenario.etx_policy == "oap"),
        )

        # emitter-to-face illuminance at full drive; scaled by the
        # on-air share at use.  A node never lights itself.
        for src in self.lanes:
            led = src.record.led
            if led is None:
                continue
            for dst in self.lanes:
                if dst is not src:
                    dst.incoming[src.record.node_id] = tuple(
                        illuminance_at(face, 0.0, [led])
                        for face in dst.harvester.cells)

        self._lux_signature: Optional[Tuple] = None
        self._refresh_lux(())

        # (due tick, frame): every frame takes airtime_ticks and send is
        # never called at an earlier tick than the last, so due order is
        # send order
        self.in_flight: Deque[Tuple[int, Frame44]] = deque()
        self.airtime_ticks = max(
            1, int(math.ceil(FRAME_AIRTIME_S / self.dt - 1e-9)))

        self.discrete: List[TraceRow] = []
        self.segments: List[TraceSegment] = []
        self.frame_log: List[FrameLogEntry] = []
        self.sample_every = sample_every(scenario)
        # each lane's next_due_s, as the last quiet_run found it
        self.due_s: List[float] = []

    # -- light field -----------------------------------------------------

    def _emitter_signature(self, now: float) -> Tuple:
        """(emitter, on-air share) for each session on the air in the
        step from now to now + dt."""
        lit = [(lane.record.node_id, phase_share(lane.record, now, self.dt))
               for lane in self.lanes if lane.record.phase_lit]
        return tuple((nid, share) for nid, share in lit if share)

    def _refresh_lux(self, signature: Tuple) -> None:
        if signature == self._lux_signature:
            return
        self._lux_signature = signature
        for lane in self.lanes:
            total = lane.ambient
            extra = None
            for src, fraction in signature:
                contribution = lane.incoming.get(src)
                if contribution is not None:
                    scaled = tuple(c * fraction for c in contribution)
                    extra = (scaled if extra is None
                             else tuple(e + c for e, c in zip(extra, scaled)))
            if extra is not None:
                total = tuple(a + e for a, e in zip(total, extra))
            lane.lux = total
            lane.harvest_w = lane.harvester.harvest_power(total)

    # -- frame plumbing ----------------------------------------------------

    def send(self, frame: Frame44, origin: str, now_tick: int) -> None:
        due = now_tick + self.airtime_ticks
        self.in_flight.append((due, frame))
        self.frame_log.append(FrameLogEntry(
            time_s=now_tick * self.dt, outcome="sent", origin=origin,
            dest=frame.dest_address))

    def _interference_lost(self, lane: _Lane) -> bool:
        """Draw whether the lane's node misses a downlink frame to burst
        interference.

        Any emitter on the air exposes every node, whatever its gain onto
        this one; the failure probability follows the ambient light on
        the node's brightest face.
        """
        model = self.scenario.interference
        if model is None or not self._lux_signature:
            return False
        p = frame_failure_probability(max(lane.ambient), model)
        if p <= 0.0:
            return False
        return next(lane.rng) < p

    def deliver_due(self, tick: int) -> List[List[Frame44]]:
        """Pop due frames and route them by direction, not by address;
        return one inbox per lane.

        Every uplink (a NodeToOap payload) goes to the access point, and
        every downlink floods the node inboxes, so a node hears only the
        access point.
        """
        inboxes: List[List[Frame44]] = [[] for _ in self.lanes]
        now = tick * self.dt
        while self.in_flight and self.in_flight[0][0] <= tick:
            _, frame = self.in_flight.popleft()
            if isinstance(frame.payload, NodeToOap):
                self.controller.on_uplink(frame, now)
                self.frame_log.append(FrameLogEntry(
                    time_s=now, outcome="delivered", origin="network",
                    dest=frame.dest_address))
                continue
            # an optical downlink floods every node in the cell; the
            # address field sorts out who acts on it
            for lane, inbox in zip(self.lanes, inboxes):
                if self._interference_lost(lane):
                    nid = lane.record.node_id
                    if frame.dest_address in (nid, BROADCAST_ADDRESS):
                        self.frame_log.append(FrameLogEntry(
                            time_s=now, outcome="failed", origin="network",
                            dest=nid, cause="interference"))
                    continue
                inbox.append(frame)
        return inboxes

    def account_deliveries(self, nid: int, delivered: List[Frame44],
                           result: NodeStepResult, now: float) -> None:
        """Log per-node outcomes for frames addressed to this node.

        result.causes pairs with the frames handed in: a frame with a
        cause never reached the receiver and failed; any other was
        delivered.
        """
        for frame, cause in zip(delivered, result.causes):
            if frame.dest_address in (nid, BROADCAST_ADDRESS):
                self.frame_log.append(FrameLogEntry(
                    time_s=now, outcome="failed" if cause else "delivered",
                    origin="network", dest=nid, cause=cause))

    # -- ticks -------------------------------------------------------------

    def full_tick(self, i: int) -> int:
        """Tick i in full: frames, the controller and the logic of every
        node that can act, then the storage as a one-tick stretch; return
        the next tick.

        A node can act if it holds a frame or is due by the test
        quiet_run applies, to the instant quiet_run just read (due_s):
        neither frame delivery nor the controller changes a node record.
        step_node would leave any other node alone, so it gets an empty
        result, fresh because the hysteresis appends to it.
        """
        dt = self.dt
        now = i * dt
        end = now + dt
        inboxes = self.deliver_due(i)

        for frame in self.controller.step(now):
            self.send(frame, "oap", i)

        results = []
        for lane, inbox, due in zip(self.lanes, inboxes, self.due_s):
            record = lane.record
            if not inbox and due > end:
                results.append(NodeStepResult())
                continue
            nid = record.node_id
            result = step_node(record, dt, now, lane.lux,
                               lane.harvest_w, inbox)
            for frame in result.emitted:
                self.send(frame, f"node {nid}", i)
            if inbox:
                self.account_deliveries(nid, inbox, result, now)
            results.append(result)
        return self.stretch(i, 1, results)

    def quiet_run(self, i: int) -> int:
        """Ticks from i on in which nothing discrete can happen, 0 if i
        itself may need the full path.

        A stretch ends before the first tick on which a frame lands, the
        controller is due (its step tests due <= now + 1e-9) or a node is
        due (step_node tests due <= now + dt).  Each node's due instant is
        read once, into due_s, which full_tick tests again.
        """
        dt = self.dt
        end = min(self.n_steps,
                  first_tick(self.controller.next_due_s(), 1e-9, dt, i))
        if self.in_flight:
            end = min(end, self.in_flight[0][0])
        self.due_s = [next_due_s(lane.record) for lane in self.lanes]
        for due in self.due_s:
            if end == i:
                break
            end = min(end, first_tick(due, dt, dt, i))
        return end - i

    def stretch(self, i: int, ticks: int,
                results: Optional[List[NodeStepResult]] = None) -> int:
        """Integrate up to `ticks` ticks from i at constant power; return
        the next tick.

        Each node's storage moves in one closed-form step
        (energy.storage_step), the tallies are booked by multiplication,
        and the trace instants before the last tick read the same closed
        form.  The stretch ends early on the first tick on which some
        node's voltage leaves its quiet band; the hysteresis runs on its
        last tick.  A full tick is a one-tick stretch that hands in its
        step results, whose frame costs join each node's draw; a quiet
        stretch has none.
        """
        dt = self.dt
        now = i * dt
        if results is None:
            results = [NodeStepResult() for _ in self.lanes]
        # the on-air set reflects the transitions a full tick just took,
        # and the last hysteresis, which may have darkened an emitter; a
        # phase's share may also have moved to 1.0 or to none
        self._refresh_lux(self._emitter_signature(now))
        # a stretch ends before any phase's closing step, and a phase's
        # share is 1.0 from its second step on, so a quiet node draws on
        # every tick what it draws on the first
        nodes = [(lane, lane.record.storage, lane.harvest_w,
                  state_draw_w(lane.record, now, dt) + result.cost_j / dt)
                 for lane, result in zip(self.lanes, results)]
        # a single tick, such as a full tick's, cannot end early and has
        # no trace instant before its last
        if ticks > 1:
            for lane, cap, harvest_w, p_out in nodes:
                ticks = band_exit(cap, harvest_w, p_out, dt, ticks,
                                  *quiet_voltage_band(lane.record))
            # trace instants n ticks in, before the last (the caller
            # samples it after the hysteresis)
            every = self.sample_every
            instants = range(every - i % every, ticks, every)
            if instants:
                self._sample_stretch(i, instants, nodes)
        last = i + ticks - 1
        for (lane, cap, harvest_w, p_out), result in zip(nodes, results):
            lane.tally(dt, harvest_w, p_out,
                       storage_step(cap, harvest_w, p_out, dt, ticks), ticks)
            self._hysteresis(lane, last * dt, result)
        return last + 1

    def _hysteresis(self, lane: _Lane, now: float,
                    result: NodeStepResult) -> None:
        """Depletion lockout after the storage step, then the event rows."""
        record = lane.record
        agg = lane.agg
        was_depleted = record.state == NodeState.DEPLETED
        apply_hysteresis(record, result, now + self.dt)
        if (record.state == NodeState.DEPLETED and not was_depleted
                and agg.depleted_at is None):
            agg.depleted_at = now
        if result.events:
            self.event_rows(lane, now, result.events)

    # -- trace -------------------------------------------------------------

    def sample_rows(self, time_s: float) -> None:
        for lane in self.lanes:
            self._sample(lane, time_s)

    def event_rows(self, lane: _Lane, time_s: float,
                   events: List[str]) -> None:
        for text in events:
            self._sample(lane, time_s, text)

    def _sample(self, lane: _Lane, time_s: float, event: str = "") -> None:
        record = lane.record
        self.discrete.append(TraceRow(
            time_s, record.node_id, record.storage.voltage, record.v_pv,
            record.mode, record.state, lane.lux[0],
            lane.agg.harvested_j, event))

    def _sample_stretch(self, i: int, instants: range, nodes) -> None:
        """The sample rows `instants` ticks into a quiet stretch from i,
        kept as one segment read before its storage step: every node
        field but the storage voltage and the harvest tally holds still
        in a quiet stretch, and those two are linear in the tick."""
        dt = self.dt
        self.segments.append(TraceSegment(
            len(self.discrete), i, instants, dt, tuple(
                SegmentLane(
                    lane.record.node_id, lane.record.v_pv,
                    lane.record.mode, lane.record.state,
                    lane.lux[0], cap.energy, cap.energy_full,
                    (harvest_w - p_out - cap.leak_power) * dt,
                    cap.capacitance, lane.agg.harvested_j, harvest_w * dt)
                for lane, cap, harvest_w, p_out in nodes)))

    def trace(self) -> TraceSet:
        """Book each node's final energy and return the run's TraceSet."""
        aggregates = {}
        for lane in self.lanes:
            storage = lane.record.storage
            lane.agg.final_energy_j = storage.energy
            lane.agg.final_voltage = storage.voltage
            aggregates[lane.record.node_id] = lane.agg
        return TraceSet(
            scenario_name=self.scenario.name,
            duration_s=self.n_steps * self.dt,
            step_s=self.dt,
            discrete=self.discrete,
            segments=self.segments,
            frame_log=self.frame_log,
            controller_log=list(self.controller.events),
            aggregates=aggregates,
        )


def run_scenario(scenario: Scenario) -> TraceSet:
    """Execute one scenario to completion and return its trace."""
    validate_scenario(scenario)
    rt = _Runtime(scenario)
    rt.sample_rows(0.0)
    i = 0
    while i < rt.n_steps:
        ticks = rt.quiet_run(i)
        i = rt.stretch(i, ticks) if ticks else rt.full_tick(i)
        if i % rt.sample_every == 0 or i == rt.n_steps:
            rt.sample_rows(i * rt.dt)
    return rt.trace()


def audit_conservation(trace: TraceSet) -> Dict[int, float]:
    """Relative bookkeeping residual per node.

    Harvest in, consumption and leakage out, clamp losses aside: what
    remains must equal the stored-energy change.  The residual is
    normalized by the total energy moved.
    """
    residuals = {}
    for nid, agg in trace.aggregates.items():
        delta = agg.final_energy_j - agg.start_energy_j
        balance = (agg.harvested_j - agg.consumed_j - agg.leaked_j
                   - agg.clamp_loss_j)
        moved = max(agg.harvested_j + agg.consumed_j + agg.leaked_j
                    + abs(agg.clamp_loss_j), 1e-12)
        residuals[nid] = abs(balance - delta) / moved
    return residuals


class NodeSummary(NamedTuple):
    node_id: int
    lifetime_s: float
    lux_mean: float
    lux_min: float
    lux_max: float
    idle_fraction: float
    steady_mean_v: float
    steady_band_v: float
    final_v: float


class Summary(NamedTuple):
    scenario_name: str
    duration_s: float
    nodes: Dict[int, NodeSummary]
    frames_sent: int
    delivery_ratio: float


def _steady_since(trace: TraceSet) -> float:
    """The start of the final quarter, over which summarize measures
    the steady voltage."""
    return 0.75 * trace.duration_s


def _tally_steady(steady: Dict[int, List], rows: List[TraceRow],
                  lanes: Tuple[SegmentLane, ...] = (),
                  values: List[List[float]] = ()) -> None:
    """Book sample rows into each node's final-quarter tally, the list
    [sum, count, minimum, maximum] of its storage voltages: the sample
    rows among rows, then each lane's voltages (segment_values' lists,
    none of them empty).

    Called in row order, it adds every node's voltages left to right,
    so the sum does not depend on how the rows are cut into calls.
    """
    for row in rows:
        if not row.event:
            acc = steady[row.node_id]
            v = row.v_cap
            acc[0] += v
            acc[1] += 1
            if v < acc[2]:
                acc[2] = v
            if v > acc[3]:
                acc[3] = v
    for lane, v_caps in zip(lanes, values):
        acc = steady[lane.node_id]
        acc[0] = reduce(add, v_caps, acc[0])
        acc[1] += len(v_caps)
        # each float step of segment_values' closed form is monotone in
        # the tick, so a lane's extremes are its first and last
        low, high = v_caps[0], v_caps[-1]
        if low > high:
            low, high = high, low
        if low < acc[2]:
            acc[2] = low
        if high > acc[3]:
            acc[3] = high


def _new_steady_tally(trace: TraceSet) -> Dict[int, List]:
    return {nid: [0.0, 0, math.inf, -math.inf] for nid in trace.aggregates}


def summarize(trace: TraceSet) -> Summary:
    """Reduce a trace to the headline per-node figures.

    Illuminance statistics come from the exact per-step aggregates, not
    the sampled rows: short bursts land between trace samples, and their
    time-weighted contribution is what uplift questions need.  The
    steady-voltage band is measured over the sampled rows in the final
    quarter of the run: from the tally format_trace_csv booked on the
    trace when it rendered it, or else from those rows, walked once
    through trace.runs and expanded only there.
    """
    if not (trace.discrete or trace.segments):
        raise ValueError("empty trace")
    nodes = {}
    # per node the sum of its samples, added left to right in row order,
    # their count, minimum and maximum.  Subtracting a fixed mean is
    # monotone, so the band max(vmax - mean, mean - vmin) is
    # max(abs(v - mean)) exactly
    steady = trace.steady_tally
    if steady is None:
        steady = _new_steady_tally(trace)
        for discrete, segment in trace.runs(since=_steady_since(trace)):
            _tally_steady(steady, discrete)
            if segment is not None:
                _tally_steady(steady, (), segment.lanes,
                              segment_values(segment)[1])
    for nid, agg in trace.aggregates.items():
        duration = trace.duration_s
        lifetime = agg.depleted_at if agg.depleted_at is not None else duration
        idle = (agg.time_by_state.get(NodeState.SLEEP, 0.0)
                + agg.time_by_state.get(NodeState.STANDBY, 0.0))
        total, count, v_low, v_high = steady[nid]
        if count:
            mean_v = total / count
            band = max(v_high - mean_v, mean_v - v_low)
        else:
            mean_v = agg.final_voltage
            band = 0.0
        nodes[nid] = NodeSummary(
            node_id=nid,
            lifetime_s=lifetime,
            lux_mean=agg.lux_integral / duration,
            lux_min=agg.lux_min,
            lux_max=agg.lux_max,
            idle_fraction=idle / duration,
            steady_mean_v=mean_v,
            steady_band_v=band,
            final_v=agg.final_voltage,
        )
    intended = trace.deliveries_intended
    ratio = trace.deliveries_made / intended if intended else 1.0
    return Summary(
        scenario_name=trace.scenario_name,
        duration_s=trace.duration_s,
        nodes=nodes,
        frames_sent=trace.frames_sent,
        delivery_ratio=ratio,
    )


CSV_HEADER = "time_s,node_id,v_cap,v_pv,mode,state,lux,event"


# rows per write of format_trace_csv
CSV_BLOCK_ROWS = 8192


def _csv_blocks(trace: TraceSet, steady: Dict[int, List]
                ) -> Iterator[Tuple[int, str]]:
    """The CSV text of the trace rows, in row order, as (rows, text)
    pieces of at most CSV_BLOCK_ROWS rows each, booking the rows of the
    final quarter into steady as it expands them.

    A discrete row is one f-string.  A segment builds one %-template for
    an instant, each lane's fixed fields formatted into it once, and
    renders each block of instants with one % over the instants' times
    (each formatted once) and the lanes' voltages, interleaved.
    """
    since = _steady_since(trace)
    for discrete, segment in trace.runs():
        for start in range(0, len(discrete), CSV_BLOCK_ROWS):
            rows = discrete[start:start + CSV_BLOCK_ROWS]
            yield len(rows), "".join([
                f"{r.time_s:.2f},{r.node_id},{r.v_cap:.6f},{r.v_pv:.6f},"
                f"{r.mode},{r.state},{r.lux:.3f},{r.event}\n" for r in rows])
        # the rows are in time order, as for trace.runs(since)
        _tally_steady(steady, discrete[bisect_left(
            discrete, since, key=lambda row: row.time_s):])
        if segment is None:
            continue
        # "<time>,<nid>,<v_cap>,<the fixed fields>" per lane; a mode or
        # state name holds no %
        template = "".join(
            f"%s,{nid},%.6f,{v_pv:.6f},{mode},{state},{lux:.3f},\n"
            for nid, v_pv, mode, state, lux, *_ in segment.lanes)
        lanes = len(segment.lanes)
        instants = segment.instants
        per_block = max(1, CSV_BLOCK_ROWS // lanes)
        for start in range(0, len(instants), per_block):
            block = instants[start:start + per_block]
            yield len(block) * lanes, _segment_block(
                segment, template, block, since, steady)


def _segment_block(segment: TraceSegment, template: str, instants: range,
                   since: float, steady: Dict[int, List]) -> str:
    """The CSV text of a segment's rows at instants, template holding
    one instant's rows, booking the rows at or after since into steady.

    A function of its own because a generator's locals live across its
    yield: returning frees the block's voltages and % arguments before
    _csv_blocks hands the text on to be written."""
    times, values = segment_values(segment, instants)
    count = len(times)
    tail = bisect_left(times, since)
    if tail < count:
        _tally_steady(steady, (), segment.lanes, [
            v_caps[tail:] for v_caps in values] if tail else values)
    # per instant, each lane's row: the time, then its voltage
    width = 2 * len(values)
    args = [None] * (count * width)
    times = ["%.2f" % t for t in times]
    for k, v_caps in enumerate(values):
        args[2 * k::width] = times
        args[2 * k + 1::width] = v_caps
    return template * count % tuple(args)


def format_trace_csv(trace: TraceSet, out: TextIO) -> None:
    """Write the trace rows to out as CSV (LF endings, fixed precision),
    the header, then the rows in writes of at most CSV_BLOCK_ROWS rows:
    consecutive pieces of _csv_blocks are joined up to that size, so a
    run of short segments costs one write, not one each.

    The same pass books each node's final-quarter tally, which it keeps
    on the trace (steady_tally) once every row is written, so summarize
    need not expand those rows again."""
    steady = _new_steady_tally(trace)
    out.write(CSV_HEADER + "\n")
    block: List[str] = []
    rows = 0
    for count, text in _csv_blocks(trace, steady):
        if rows + count > CSV_BLOCK_ROWS:
            out.write("".join(block))
            block, rows = [], 0
        block.append(text)
        rows += count
    out.write("".join(block))
    trace.steady_tally = steady


def render_summary(summary: Summary) -> str:
    """Human-readable summary block, stable across runs."""
    lines = [
        f"scenario: {summary.scenario_name}",
        f"duration_s: {summary.duration_s:.1f}",
        f"frames_sent: {summary.frames_sent}",
        f"delivery_ratio: {summary.delivery_ratio:.4f}",
    ]
    for nid in sorted(summary.nodes):
        s = summary.nodes[nid]
        lines.append(
            f"node {nid}: lifetime_s={s.lifetime_s:.1f}"
            f" lux_mean={s.lux_mean:.3f} lux_min={s.lux_min:.3f}"
            f" lux_max={s.lux_max:.3f} idle={s.idle_fraction:.4f}"
            f" steady_v={s.steady_mean_v:.6f} band_v={s.steady_band_v:.6f}"
            f" final_v={s.final_v:.6f}")
    return "\n".join(lines) + "\n"
