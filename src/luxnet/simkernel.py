"""Deterministic scenario engine.

Control traffic is event-driven over a fixed integration grid: frames
land on the first grid tick after their airtime, nodes advance in
ascending id order, and storage is integrated once per tick from each
node's draw (node.state_draw_w) plus the step's frame costs.  Identical
scenarios with identical seeds reproduce byte-identical traces.

Time advances to the next tick on which anything discrete can act: the
head of the in-flight queue, or the first tick that reaches the instant the
controller or a node is next due (Controller.next_due_s, and the due
instant of node.quiet_band).  A node is due at its timer, which for
Sensing and EnergyRelay is the end of its metered phase, or at once
while its storage is outside its quiet band.  first_tick is the one
conversion from an instant to a tick; it tests the float expression the
instant's consumer tests, so no full tick is spent on which nothing is
due.  The tick so found runs its discrete half: frame delivery, the
controller, and step_node for every node that holds a frame or is due by
the same test (any other, step_node would leave alone, and it gets no
step result).  Storage is then
integrated in one place for every tick.  Between full ticks every phase
covers whole steps, so every node draws constant power, its stored
energy is linear in time, and a stretch of ticks advances in one
closed-form step (energy.storage_step) with its tallies booked by
multiplication; a full tick is a one-tick stretch whose draw adds the
step's frame costs.  A stretch refreshes the light field, steps the
storage, books the tallies and runs the depletion hysteresis on its last
tick, for a node without a step result only once its voltage leaves its
quiet band, which lies inside the range in which the hysteresis does
nothing.  A node's timers are instants, not clocks, so a quiet stretch
leaves every node field but the storage's energy and voltage alone.  It
ends on the first tick on which some node's voltage leaves its quiet
band (energy.band_exit).  Events, states and frames therefore match
stepping every tick in full, which tests/kernel_oracle.py still does;
voltages and float tallies differ only by the rounding of one step
against many.
The kernel evaluates no storage law of its own: a stretch of more than
one tick reads each node's stored energy and net joules a tick
(energy.net_per_tick) once, and hands that pair to band_exit and to
the stretch's trace segment.

Each node's run state is one lane (_Lane): its record, faces, light,
harvest, tallies and interference generator, kept in node-id order.

Burst light superposes onto the static ambient field through a gain
matrix precomputed from the scenario geometry, scaled per step by each
emitter's on-air share (node.phase_share), so the radiated and
harvested energies agree exactly with the session accounting inside the
nodes.

run_scenario returns the run's record, a trace.TraceSet, built from the
data classes of luxnet.trace, which writes every output read from it.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from typing import Deque, Dict, List, NamedTuple, Optional, Tuple

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
from .controller import DUE_TOLERANCE_S, Controller, ControllerConfig
from .energy import (
    DEFAULT_PROFILE,
    DEFAULT_V_MIN,
    LEAK_POWER_W,
    PV_CELLS_PER_NODE,
    V_OVERDISCHARGE,
    V_STORAGE_MAX,
    HarvesterArray,
    StorageCapacitor,
    band_exit,
    net_per_tick,
    storage_step,
)
from .errors import InfeasibleError, ScenarioError
from .node import (
    DEFAULT_TIMING,
    NodeRecord,
    NodeStepResult,
    apply_hysteresis,
    phase_share,
    quiet_band,
    state_draw_w,
    step_node,
)
from .protocol import (
    BROADCAST_ADDRESS,
    FRAME_AIRTIME_S,
    Frame44,
    NodeToOap,
)
from .trace import (
    FrameLogEntry,
    NodeAggregate,
    SegmentLane,
    TraceRow,
    TraceSegment,
    TraceSet,
)

ETX_POLICIES = ("disabled", "oap", "autonomous")

# longest run accepted, in ticks; the shipped paper-b scenario (60 h at
# 0.1 s) takes 2.16 M
MAX_TICKS = 10 ** 8
# most sample rows a run may write, about 4.8 GB of CSV at 48 bytes a
# row; 15 nodes sampled every 100th of MAX_TICKS ticks write 15 M, and
# the shipped scenarios and crowd-dense at most 270,015
MAX_TRACE_ROWS = 10 ** 8
# most request rounds a run may pass, duration_s / t_data_req_s: the
# controller works through each, however few ticks hold them.  That is
# about 19 years of 600 s rounds; paper-b takes 360, and a run of
# MAX_TICKS one-second ticks at most 222,223
MAX_ROUNDS = 10 ** 6
# the closest an emitter may sit to any other node, well under the
# 0.15 m spacing of the shipped triangle
MIN_EMITTER_DISTANCE_M = 0.01


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


class Interval(NamedTuple):
    """lo to hi, each end closed or open as ends says ("[)" holds lo but
    not hi); finite ends hold neither NaN nor an infinity."""

    lo: float
    hi: float
    ends: str = "[]"

    def __contains__(self, x) -> bool:
        return ((self.lo <= x if self.ends[0] == "[" else self.lo < x)
                and (x <= self.hi if self.ends[1] == "]" else x < self.hi))

    def __str__(self) -> str:
        return f"{self.ends[0]}{self.lo}, {self.hi}{self.ends[1]}"


FINITE = Interval(-sys.float_info.max, sys.float_info.max)
POSITIVE = Interval(0.0, FINITE.hi, "(]")

# The scenario file format: one table per spec type, each row (file key,
# field, reader, interval), in file order.  The reader is text, number,
# integer, flag or vector; a number or integer row gives the interval
# its value must lie in.  A field without a default is a required key,
# and a None default makes the key optional.  cli parses and writes
# files through these tables; validate_scenario checks every row.
SCENARIO_KEYS = (
    ("name", "name", "text", None),
    ("duration_s", "duration_s", "number", POSITIVE),
    ("step_s", "step_s", "number", POSITIVE),
    ("seed", "seed", "integer", Interval(0, math.inf, "[)")),
    ("trace_interval_s", "trace_interval_s", "number", POSITIVE),
    ("etx_policy", "etx_policy", "text", None),
)
# [oap] holds the OapSpec rows, then the ControllerConfig rows
OAP_KEYS = (("position_m", "position", "vector", None),)
CONTROLLER_KEYS = (
    ("t_data_req_s", "t_data_req", "number", Interval(
        DEFAULT_TIMING.t_energy_net_rec, DEFAULT_TIMING.t_standby, "(]")),
    ("t_int_s", "t_int", "number", Interval(1, 65535)),
    ("slot_spacing_s", "slot_spacing_s", "number", POSITIVE),
    ("etx_offset_s", "etx_offset_s", "number", FINITE),
    ("etx_spacing_s", "etx_spacing_s", "number", POSITIVE),
)
INTERFERENCE_KEYS = (
    ("midpoint_lux", "midpoint_lux", "number", FINITE),
    ("steepness_per_lux", "steepness_per_lux", "number", POSITIVE),
    ("floor", "floor", "number", Interval(0.0, 1.0, "[)")),
)
# in a [node.<id>] section the three face groups, each FACE_KEYS under
# its face_<letter>_ prefix, sit between position_m and the other rows.
# An emitter radiates at most the electrical power its session draws,
# DEFAULT_PROFILE.etx, all of which would be light at full efficiency
NODE_KEYS = (
    ("position_m", "position", "vector", None),
    ("start_voltage_v", "start_voltage", "number",
     Interval(0.0, V_STORAGE_MAX, "(]")),
    ("v_min_v", "v_min", "number",
     Interval(V_OVERDISCHARGE, V_STORAGE_MAX, "[)")),
    ("led_power_w", "led_power_w", "number",
     Interval(0.0, DEFAULT_PROFILE.etx)),
    ("led_aim", "led_aim", "vector", None),
    ("sensing_enabled", "sensing_enabled", "flag", None),
    ("sensor_base_c", "sensor_base_c", "number", FINITE),
)
# ambient light up to 1e6 lx, some eight times direct sunlight
FACE_KEYS = (
    ("normal", "normal", "vector", None),
    ("ambient_lux", "ambient_lux", "number", Interval(0.0, 1e6)),
)
FACE_LETTERS = "abc"


def scenario_sections(scenario: Scenario) -> List[Tuple[str, List]]:
    """The scenario's file sections in file order, each (title, parts)
    with each part (object, key table, key prefix).  An absent
    [interference] is left out."""
    sections = [("scenario", [(scenario, SCENARIO_KEYS, "")]),
                ("oap", [(scenario.oap, OAP_KEYS, ""),
                         (scenario.oap.config, CONTROLLER_KEYS, "")])]
    if scenario.interference is not None:
        sections.append(("interference",
                         [(scenario.interference, INTERFERENCE_KEYS, "")]))
    for spec in scenario.nodes:
        faces = [(face, FACE_KEYS, f"face_{letter}_")
                 for letter, face in zip(FACE_LETTERS, spec.faces)]
        sections.append((f"node.{spec.node_id}",
                         [(spec, NODE_KEYS[:1], "")] + faces
                         + [(spec, NODE_KEYS[1:], "")]))
    return sections


def _is_vector(value) -> bool:
    """Whether value is three finite numbers."""
    try:
        return len(value) == 3 and all(map(math.isfinite, value))
    except (TypeError, OverflowError):
        return False


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
    """Ticks from one trace instant to the next: at least one, and at
    most the run's tick count, since any longer interval samples only
    tick 0 and the end, as that count does.  The ratio is compared
    unrounded, as in tick_count, because an overflowed one is infinite.
    """
    ticks = tick_count(scenario.duration_s, scenario.step_s)
    ratio = scenario.trace_interval_s / scenario.step_s
    if ratio > ticks:
        return ticks
    return max(1, int(round(ratio)))


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
    """Reject malformed scenarios before any work starts: every key row
    of scenario_sections, then the rules that tie keys together.  More
    than MAX_TICKS ticks, MAX_ROUNDS request rounds or MAX_TRACE_ROWS
    sample rows is infeasible.

    The light on a face is bounded.  Every emitter has the same 15 degree
    beam (Lambertian order m = 19.99), at most DEFAULT_PROFILE.etx
    optical watts and at least MIN_EMITTER_DISTANCE_M to any node, so
    one emitter lights a face with at most 250 lm/W * 0.0527 W * (m + 1)
    / (2 pi (0.01 m)^2), about 4.4e5 lx, on top of at most 1e6 lx of
    ambient light.
    """
    for title, parts in scenario_sections(scenario):
        for obj, table, prefix in parts:
            for key, name, reader, interval in table:
                value = getattr(obj, name)
                if reader == "vector":
                    # None is a left-out optional key (a None default)
                    optional = obj._field_defaults.get(name, ()) is None
                    if _is_vector(value) or optional and value is None:
                        continue
                    wanted = "three finite numbers"
                elif interval is None or value in interval:
                    continue
                else:
                    wanted = f"in {interval}"
                raise ScenarioError(
                    f"{title}: {prefix}{key} must be {wanted}, got {value!r}")
    if scenario.duration_s < scenario.step_s - 1e-12:
        raise ScenarioError("duration_s must cover at least one step")
    if scenario.trace_interval_s < scenario.step_s - 1e-12:
        raise ScenarioError("trace_interval_s must be at least step_s")
    if scenario.etx_policy not in ETX_POLICIES:
        raise ScenarioError(f"etx_policy must be one of {ETX_POLICIES}, "
                            f"got {scenario.etx_policy!r}")
    t_int = scenario.oap.config.t_int
    if t_int != int(t_int):
        raise ScenarioError(
            f"oap: t_int_s must be a whole number of seconds, got {t_int!r}")
    if not scenario.nodes:
        raise ScenarioError("at least one node is required")
    ids = [spec.node_id for spec in scenario.nodes]
    for spec in scenario.nodes:
        label = f"node.{spec.node_id}"
        if not 1 <= spec.node_id <= 15:
            raise ScenarioError(f"{label}: node ids must be 1..15")
        if ids.count(spec.node_id) > 1:
            raise ScenarioError(f"{label}: duplicate node id")
        if len(spec.faces) != PV_CELLS_PER_NODE:
            raise ScenarioError(f"{label}: exactly three faces are required")
        if not all(norm(face.normal) > 0.0 for face in spec.faces):
            raise ScenarioError(f"{label}: face normal must be nonzero")
        if spec.led_power_w > 0.0:
            if spec.led_aim is None:
                raise ScenarioError(
                    f"{label}: led_aim is required when an emitter is fitted")
            if norm(spec.led_aim) <= 0.0:
                raise ScenarioError(f"{label}: led_aim must be nonzero")
    # the burst gain (channel.illuminance_at) grows as the inverse square
    # of the distance from each emitter to every other node
    nodes = sorted(scenario.nodes, key=lambda spec: spec.node_id)
    emitters = [spec for spec in nodes if spec.led_power_w > 0.0]
    for src in emitters:
        for dst in nodes:
            sep = norm(tuple(r - t for r, t in zip(dst.position,
                                                   src.position)))
            if dst is not src and sep < MIN_EMITTER_DISTANCE_M:
                raise ScenarioError(
                    f"node.{src.node_id} to node.{dst.node_id} link: "
                    f"{sep:.3g} m apart, closer than the "
                    f"{MIN_EMITTER_DISTANCE_M} m an emitter keeps")
    if scenario.etx_policy != "disabled" and not emitters:
        raise InfeasibleError(
            "energy sharing requested but no node has an emitter")
    ticks = tick_count(scenario.duration_s, scenario.step_s)
    rounds = scenario.duration_s / scenario.oap.config.t_data_req
    if rounds > MAX_ROUNDS:
        raise InfeasibleError(
            f"duration_s / t_data_req_s asks for {rounds:.3g} request "
            f"rounds, more than the {MAX_ROUNDS} a run may take")
    # every node at tick 0, at each trace instant after it and at the end
    rows = len(scenario.nodes) * (-(-ticks // sample_every(scenario)) + 1)
    if rows > MAX_TRACE_ROWS:
        raise InfeasibleError(
            f"the trace asks for {rows:.3g} sample rows, "
            f"more than the {MAX_TRACE_ROWS} a run may write")


def _build_node(spec: NodeSpec, autonomous: bool = False) -> NodeRecord:
    """The node's record at the start of a run; autonomous (the
    scenario's etx_policy) lets an emitter run sessions unasked."""
    led = None
    if spec.led_power_w > 0.0:
        led = OpticalTransmitter(
            optical_power_w=spec.led_power_w,
            position=tuple(float(x) for x in spec.position),
            boresight=tuple(float(x) for x in spec.led_aim),
        )
    return NodeRecord(
        node_id=spec.node_id,
        storage=StorageCapacitor(voltage=spec.start_voltage,
                                 v_min=spec.v_min),
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
        self.record = _build_node(spec, scenario.etx_policy == "autonomous")
        # the node's PV cells: one receiver per face, at the node
        position = tuple(float(x) for x in spec.position)
        self.harvester = HarvesterArray(cells=tuple(
            OpticalReceiver(position=position,
                            normal=tuple(float(x) for x in face.normal))
            for face in spec.faces))
        # abs turns a validated -0.0 into 0.0, so no trace column holds -0.0
        self.ambient = tuple(abs(float(f.ambient_lux)) for f in spec.faces)
        self.incoming: Dict[int, Tuple[float, ...]] = {}
        self.agg = NodeAggregate(spec.node_id, self.record.storage.energy)
        self.rng = (None if scenario.interference is None
                    else uniform_draws(scenario.seed, spec.node_id))

    def tally(self, dt: float, p_in: float, p_out: float, clamp_loss: float,
              ticks: int) -> None:
        """Book `ticks` ticks at this harvest, draw, state and light, with
        their clamp loss; _Runtime._refresh_lux books the light's
        extremes."""
        agg = self.agg
        record = self.record
        agg.clamp_loss_j += clamp_loss
        agg.harvested_j += ticks * (p_in * dt)
        agg.consumed_j += ticks * (p_out * dt)
        agg.leaked_j += ticks * (LEAK_POWER_W * dt)
        state = record.state
        agg.time_by_state[state] = (
            agg.time_by_state.get(state, 0.0) + ticks * dt)
        agg.lux_integral += ticks * (self.lux[0] * dt)


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
                        illuminance_at(face, led)
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
        # each lane's node.quiet_band, as quiet_run found it
        self.bands: List[Tuple[float, float, float]] = []

    # -- light field -----------------------------------------------------

    def _emitter_signature(self, now: float) -> Tuple:
        """(emitter, on-air share) for each session on the air in the
        step from now to now + dt."""
        lit = [(lane.record.node_id, phase_share(lane.record, now, self.dt))
               for lane in self.lanes if lane.record.phase_lit]
        return tuple((nid, share) for nid, share in lit if share)

    def _refresh_lux(self, signature: Tuple) -> None:
        """Set each lane's light and harvest for a new on-air set and book
        the light's extremes.  Each light set is held a tick at least: a
        stretch tallies after it, and no node is on the air in tick 0."""
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
            agg = lane.agg
            agg.lux_min = min(agg.lux_min, total[0])
            agg.lux_max = max(agg.lux_max, total[0])

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
        quiet_run applies, to the due instant of the quiet band quiet_run
        just read (bands): neither frame delivery nor the controller
        changes a node record.  step_node would leave any other node
        alone, so it gets no result (None).
        """
        dt = self.dt
        now = i * dt
        end = now + dt
        inboxes = self.deliver_due(i)

        for frame in self.controller.step(now):
            self.send(frame, "oap", i)

        results = []
        for lane, inbox, (_, _, due) in zip(self.lanes, inboxes, self.bands):
            record = lane.record
            if not inbox and due > end:
                results.append(None)
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
        controller is due (its step tests due <= now + DUE_TOLERANCE_S) or
        a node is due (step_node tests due <= now + dt).  Each node's
        quiet band (node.quiet_band) is read once, into bands: full_tick
        tests its due instant again, and stretch reads its voltage range
        for band_exit and to skip the hysteresis.
        """
        dt = self.dt
        end = min(self.n_steps, first_tick(self.controller.next_due_s(),
                                           DUE_TOLERANCE_S, dt, i))
        if self.in_flight:
            end = min(end, self.in_flight[0][0])
        self.bands = [quiet_band(lane.record) for lane in self.lanes]
        for _, _, due in self.bands:
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
        step results (None for a node that did not act), whose frame costs
        join each node's draw; a quiet stretch has none.  A node without
        one is still in the state its band was read for, and the band
        lies inside the hysteresis' no-action range, so the hysteresis
        runs on it only once its voltage leaves the band.
        """
        dt = self.dt
        now = i * dt
        if results is None:
            results = [None] * len(self.lanes)
        # the on-air set reflects the transitions a full tick just took,
        # and the last hysteresis, which may have darkened an emitter; a
        # phase's share may also have moved to 1.0 or to none
        self._refresh_lux(self._emitter_signature(now))
        # a stretch ends before any phase's closing step, and a phase's
        # share is 1.0 from its second step on, so a quiet node draws on
        # every tick what it draws on the first
        nodes = [(lane, lane.record.storage, lane.harvest_w,
                  state_draw_w(lane.record, now, dt)
                  + (0.0 if result is None else result.cost_j / dt))
                 for lane, result in zip(self.lanes, results)]
        # a single tick, such as a full tick's, cannot end early and has
        # no trace instant before its last
        if ticks > 1:
            # each lane's storage energy and net joules a tick, the
            # closed form its storage_step takes
            closed = [(cap.energy, net_per_tick(harvest_w, p_out, dt))
                      for _, cap, harvest_w, p_out in nodes]
            for (e0, net), (low, high, _) in zip(closed, self.bands):
                ticks = band_exit(e0, net, ticks, low, high)
            # trace instants n ticks in, before the last (the caller
            # samples it after the hysteresis)
            every = self.sample_every
            instants = range(every - i % every, ticks, every)
            if instants:
                self._sample_stretch(i, instants, nodes, closed)
        last = i + ticks - 1
        t_last = last * dt
        for (lane, cap, harvest_w, p_out), result, (low, high, _) in zip(
                nodes, results, self.bands):
            lane.tally(dt, harvest_w, p_out,
                       storage_step(cap, harvest_w, p_out, dt, ticks), ticks)
            events = () if result is None else result.events
            if result is not None or not low <= cap.voltage < high:
                event = apply_hysteresis(lane.record, t_last + dt)
                if event:
                    events = [*events, event]
                    if event == "depleted" and lane.agg.depleted_at is None:
                        lane.agg.depleted_at = t_last
            if events:
                self.event_rows(lane, t_last, events)
        return last + 1

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

    def _sample_stretch(self, i: int, instants: range, nodes, closed) -> None:
        """The sample rows `instants` ticks into a quiet stretch from i,
        kept as one segment read before its storage step: every node
        field but the storage voltage and the harvest tally holds still
        in a quiet stretch, and those two are linear in the tick, the
        voltage from each lane's closed form (e0, net)."""
        dt = self.dt
        self.segments.append(TraceSegment(
            len(self.discrete), i, instants, dt, tuple(
                SegmentLane(
                    lane.record.node_id, lane.record.v_pv,
                    lane.record.mode, lane.record.state,
                    lane.lux[0], e0, net, lane.agg.harvested_j, harvest_w * dt)
                for (lane, _, harvest_w, _), (e0, net) in zip(nodes, closed))))

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
