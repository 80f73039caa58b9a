"""Deterministic scenario engine.

Control traffic is event-driven over a fixed integration grid: frames
land on the first grid tick after their airtime, nodes advance in
ascending id order, and each node's storage integrates its draw
(node.state_draw_w) plus its steps' frame costs over the grid.  Identical
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
step result).

Each node's run state is one lane (_Lane), kept in node-id order: its
record, faces, light, harvest, tallies and interference generator, and
its own clock.  Between its own events a node draws constant power, so
its stored energy is linear in time.  A lane therefore keeps an anchor:
the tick its storage was last stepped to, its draw and harvest from
there, and its quiet band, with its next event, the tick its voltage
leaves the band (energy.band_exit) or its timer, if sooner.  It is
stepped (energy.storage_step, its tallies booked by multiplication) and
anchored anew only where it acts, where its light changes bit for bit,
or where its event falls, and once more at the end of the run; any other
tick, quiet or full, leaves it alone.  Every lane between its events is
an anchor, and each anchor ends in one step.  A stretch ends on the
first lane event; a full tick is a one-tick stretch in which a node that
acted draws its state's power plus the step's frame costs, anchored with
its timer on the next tick where its draw changes there.  The depletion
hysteresis runs only on a stepped lane that left its band, which lies
inside the range in which the hysteresis does nothing.  A node's timers
are instants, not clocks, so an anchor leaves every node field but the
storage's energy and voltage alone.  Events, states and frames therefore
match stepping every tick in full, which tests/kernel_oracle.py still
does; voltages and float tallies differ only by the rounding of one step
against many, and a node's no longer depend on where other nodes' events
cut time.
The kernel evaluates no storage law of its own: an anchor reads its
node's stored energy and net joules a tick (energy.net_per_tick) once,
hands that pair to band_exit, steps the storage by that net
(energy.storage_step), and the trace rows and segments read the storage
voltage at later ticks from it (energy.voltage_after, and
energy.run_voltages through the segment).

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
    voltage_after,
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
    Record,
    SampleInstant,
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
    """One node's run state: its record, its light, its tallies and its
    anchor.

    incoming holds each emitter's illuminance on this node's faces at
    full drive, keyed by the emitter's id; rng is the node's stream of
    interference draws, numpy's default_rng((seed, id)) in pure Python
    (channel.uniform_draws), None in a run without interference.  lux
    and harvest_w, the light on each face and the watts it makes, change
    only with the on-air set; _Runtime._refresh_lux sets them, first
    before tick 0.

    The anchor is the tick `at` to which the storage was last stepped,
    the draw p_out held from there and its net joules a tick
    (energy.net_per_tick) at harvest_w, and the quiet band [low, high)
    with timer, the first tick on which step_node may act or the draw
    changes.  event is the tick on which the lane is next stepped: the
    tick its storage leaves the band on (energy.band_exit), searched no
    further than its timer and the run's end.  It is None while the lane
    is stepped to the present tick but not anchored there, and a lane is
    never stepped but from an anchor.
    """

    __slots__ = ("record", "harvester", "ambient", "incoming", "lux",
                 "harvest_w", "agg", "rng", "at", "p_out", "net", "low",
                 "high", "timer", "event")

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
        self.lux: Optional[Tuple[float, ...]] = None
        self.agg = NodeAggregate(spec.node_id, self.record.storage.energy)
        self.rng = (None if scenario.interference is None
                    else uniform_draws(scenario.seed, spec.node_id))
        self.at = 0
        self.event: Optional[int] = None

    def step_to(self, tick: int, dt: float) -> None:
        """Step the storage from the anchor to tick in one closed-form
        step by the anchor's net (energy.storage_step) and book the
        ticks between, at the anchor's harvest, draw, state and light,
        with their clamp loss; _Runtime._refresh_lux books the light's
        extremes."""
        ticks = tick - self.at
        if not ticks:
            return
        self.at = tick
        agg = self.agg
        p_in, p_out = self.harvest_w, self.p_out
        agg.clamp_loss_j += storage_step(self.record.storage, self.net, ticks)
        agg.harvested_j += ticks * (p_in * dt)
        agg.consumed_j += ticks * (p_out * dt)
        agg.leaked_j += ticks * (LEAK_POWER_W * dt)
        state = self.record.state
        agg.time_by_state[state] = (
            agg.time_by_state.get(state, 0.0) + ticks * dt)
        agg.lux_integral += ticks * (self.lux[0] * dt)

    def read(self, tick: int, dt: float) -> Tuple[float, float]:
        """The storage voltage and harvest tally at tick, read from the
        anchor."""
        storage = self.record.storage
        ticks = tick - self.at
        if not ticks:
            return storage.voltage, self.agg.harvested_j
        return (voltage_after(storage.energy, self.net, ticks),
                self.agg.harvested_j + ticks * (self.harvest_w * dt))


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
        self._refresh_lux((), 0)

        # (due tick, frame): every frame takes airtime_ticks and send is
        # never called at an earlier tick than the last, so due order is
        # send order
        self.in_flight: Deque[Tuple[int, Frame44]] = deque()
        self.airtime_ticks = max(
            1, int(math.ceil(FRAME_AIRTIME_S / self.dt - 1e-9)))

        self.discrete: List[Record] = []
        self.segments: List[TraceSegment] = []
        self.frame_log: List[FrameLogEntry] = []
        self.sample_every = sample_every(scenario)

    # -- light field -----------------------------------------------------

    def _emitter_signature(self, now: float) -> Tuple:
        """(emitter, on-air share) for each session on the air in the
        step from now to now + dt."""
        lit = [(lane.record.node_id, phase_share(lane.record, now, self.dt))
               for lane in self.lanes if lane.record.phase_lit]
        return tuple((nid, share) for nid, share in lit if share)

    def _refresh_lux(self, signature: Tuple, i: int) -> None:
        """Set each lane's light and harvest for a new on-air set from
        tick i on, and book the light's extremes.  A lane whose light
        changes is stepped to i at its old light and left to be anchored
        again; any other keeps its anchor.  Each light set is held a tick
        at least: a stretch tallies after it, and no node is on the air
        in tick 0."""
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
            # the harvest is a function of the light, so equal light
            # (no face holds -0.0) leaves it bit for bit as it is
            if total == lane.lux:
                continue
            lane.step_to(i, self.dt)
            lane.event = None
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
        node that can act, then a one-tick stretch; return the next
        tick.

        A node can act if it holds a frame or its timer falls on i:
        neither frame delivery nor the controller changes a node record.
        Its lane is stepped to i first, since step_node reads the
        storage.  step_node would leave any other node alone, so it gets
        no result (None).
        """
        dt = self.dt
        now = i * dt
        inboxes = self.deliver_due(i)

        for frame in self.controller.step(now):
            self.send(frame, "oap", i)

        results = []
        for lane, inbox in zip(self.lanes, inboxes):
            record = lane.record
            if not inbox and lane.timer > i:
                results.append(None)
                continue
            lane.step_to(i, dt)
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
        a lane's event falls.  A lane stepped to i and not yet anchored
        reads its quiet band (node.quiet_band) here, and its timer is the
        first tick on which step_node may act (it tests due <= now + dt);
        any other lane's event is stored.
        """
        dt = self.dt
        end = min(self.n_steps, first_tick(self.controller.next_due_s(),
                                           DUE_TOLERANCE_S, dt, i))
        if self.in_flight:
            end = min(end, self.in_flight[0][0])
        for lane in self.lanes:
            event = lane.event
            if event is None:
                lane.low, lane.high, due = quiet_band(lane.record)
                event = lane.timer = first_tick(due, dt, dt, i)
            if event < end:
                end = event
        return end - i

    def stretch(self, i: int, ticks: int,
                results: Optional[List[NodeStepResult]] = None) -> int:
        """Integrate up to `ticks` ticks from i at constant power; return
        the next tick.

        The light is set for i first, and each lane that is not anchored
        (stepped to i, or whose light just changed) or that acted is
        anchored at i, in this one place; the stretch ends early on the
        first lane event.  A stretch ends before any phase's closing
        step, the timer of the node's state, so a lane draws on every
        tick of its anchor what it draws on the first, a phase's first
        step included (a share a few ulps off 1.0 at most, held until the
        phase closes).  The trace instants before the last tick read each
        lane's closed form from its anchor.

        A full tick is a one-tick stretch that hands in its step results
        (None for a node that did not act).  A lane that acted draws its
        state's power plus the step's frame costs on tick i, and it is
        anchored at i with its band read anew; where that is not what it
        draws from the next tick on, its timer is the next tick, so its
        anchor spans the one tick.  At the end, only the lanes whose
        event falls there are stepped, in one closed-form step each from
        the anchor, and the hysteresis runs on a lane whose voltage left
        its band, which lies inside the hysteresis' no-action range.
        """
        dt = self.dt
        now = i * dt
        if results is None:
            results = [None] * len(self.lanes)
        # the on-air set reflects the transitions a full tick just took,
        # and the last hysteresis, which may have darkened an emitter; a
        # phase's share may also have moved to 1.0 or to none
        self._refresh_lux(self._emitter_signature(now), i)
        end = i + ticks
        for lane, result in zip(self.lanes, results):
            record = lane.record
            if result is not None:
                # the band of the state it acted into; a draw that
                # changes on the next tick ends the anchor there
                lane.low, lane.high, due = quiet_band(record)
                p_out = state_draw_w(record, now, dt) + result.cost_j / dt
                lane.timer = (first_tick(due, dt, dt, i + 1) if p_out
                              == state_draw_w(record, (i + 1) * dt, dt)
                              else i + 1)
            elif lane.event is None:
                p_out = state_draw_w(record, now, dt)
            else:
                continue
            lane.p_out = p_out
            lane.net = net_per_tick(lane.harvest_w, p_out, dt)
            lane.event = i + band_exit(
                record.storage.energy, lane.net,
                min(lane.timer, self.n_steps) - i, lane.low, lane.high)
            end = min(end, lane.event)
        # trace instants n ticks in, before the last (the caller samples
        # it after the hysteresis); a single tick has none
        every = self.sample_every
        instants = range(every - i % every, end - i, every)
        if instants:
            self._sample_stretch(i, instants)
        t_last = (end - 1) * dt
        for lane, result in zip(self.lanes, results):
            events = () if result is None else result.events
            if lane.event == end:
                lane.step_to(end, dt)
                lane.event = None
                if not lane.low <= lane.record.storage.voltage < lane.high:
                    event = apply_hysteresis(lane.record, t_last + dt)
                    if event:
                        events = [*events, event]
                        if (event == "depleted"
                                and lane.agg.depleted_at is None):
                            lane.agg.depleted_at = t_last
            if events:
                self.event_rows(lane, end, events)
        return end

    # -- trace -------------------------------------------------------------

    def sample_rows(self, i: int) -> None:
        """Every lane's sample row at tick i, booked as one
        SampleInstant: each lane's fixed row fields, and its storage
        voltage and harvest tally read from its anchor."""
        dt = self.dt
        fixed, v_caps, harvests = [], [], []
        for lane in self.lanes:
            record = lane.record
            fixed.append((record.node_id, record.v_pv, record.mode,
                          record.state, lane.lux[0]))
            v_cap, harvested = lane.read(i, dt)
            v_caps.append(v_cap)
            harvests.append(harvested)
        self.discrete.append(SampleInstant(i * dt, fixed, v_caps, harvests))

    def event_rows(self, lane: _Lane, tick: int, events: List[str]) -> None:
        """The lane's event rows for the tick that ends at `tick`: timed
        at that tick's start, its storage as it stands at `tick`,
        read from its anchor."""
        record = lane.record
        time_s = (tick - 1) * self.dt
        v_cap, harvested = lane.read(tick, self.dt)
        for text in events:
            self.discrete.append(TraceRow(
                time_s, record.node_id, v_cap, record.v_pv, record.mode,
                record.state, lane.lux[0], harvested, text))

    def _sample_stretch(self, i: int, instants: range) -> None:
        """The sample rows `instants` ticks into a quiet stretch from i,
        kept as one segment: every node field but the storage voltage
        and the harvest tally holds still in a quiet stretch, and those
        two are linear in the tick, read from each lane's anchor."""
        dt = self.dt
        self.segments.append(TraceSegment(
            len(self.discrete), i, instants, dt, tuple(
                SegmentLane(
                    lane.record.node_id, lane.record.v_pv,
                    lane.record.mode, lane.record.state, lane.lux[0],
                    lane.record.storage.energy, lane.net, i - lane.at,
                    lane.agg.harvested_j, lane.harvest_w * dt)
                for lane in self.lanes)))

    def trace(self) -> TraceSet:
        """Book each node's final energy and return the run's TraceSet;
        the last stretch has stepped every lane to the end."""
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
    rt.sample_rows(0)
    i = 0
    while i < rt.n_steps:
        ticks = rt.quiet_run(i)
        i = rt.stretch(i, ticks) if ticks else rt.full_tick(i)
        if i % rt.sample_every == 0 or i == rt.n_steps:
            rt.sample_rows(i)
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
