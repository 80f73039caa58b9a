"""What one run recorded, and the outputs read from it.

A run's trace (TraceSet) holds its rows, its frame log, the controller
log and each node's tallies (NodeAggregate).  The rows are kept as the
discrete records, written one at a time: the event rows, and the sample
instants between stretches, each every node's sample row at one instant
held column by column.  The rest are the segments, each the sample rows
of one quiet stretch, run-end encoded as the closed form the kernel
steps them by: per node its anchor (e0, net, offset), which
segment_values expands through energy's clamp_runs and run_voltages, so
this module evaluates no storage law of its own.  summarize reduces a
trace to the headline per-node figures and render_summary prints them;
format_trace_csv writes the rows as CSV to a binary stream, rendering
each sample instant and segment straight from its columns or closed
form rather than expanding it into rows first: each block of rows is one
bytes % whose template holds every time and fixed field, so it formats
only the voltages that change from row to row.  Each voltage's spec is
a bare %f, which bytes % writes straight into its output, where a spec
with a precision, even %.6f, which prints the same digits, builds a
temporary object per float.  The CSV's encoding (UTF-8) and line ending
(LF) are known here alone.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import reduce
from operator import add
from typing import (BinaryIO, Dict, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple, Union)

from .energy import Anchor, Runs, clamp_runs, run_voltages
from .node import NodeState


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


class SampleInstant(NamedTuple):
    """Every node's sample row at one trace instant, column by column:
    per lane, in lane order, its fixed row fields (node_id, v_pv, mode,
    state, lux), its storage voltage and its harvest tally."""

    time_s: float
    fixed: List[Tuple[int, float, str, str, float]]
    v_caps: Sequence[float]
    harvested: Sequence[float]

    def rows(self) -> List[TraceRow]:
        """Its rows, one per lane, in lane order."""
        return [TraceRow(self.time_s, nid, v_cap, v_pv, mode, state, lux, h)
                for (nid, v_pv, mode, state, lux), v_cap, h
                in zip(self.fixed, self.v_caps, self.harvested)]


# a discrete record: an event row, or every node's sample row at one
# instant
Record = Union[TraceRow, SampleInstant]


class SegmentLane(NamedTuple):
    """One node's constants over a trace segment, read at its anchor,
    offset ticks before the segment's tick i: its fixed row fields, then
    what the closed form needs for its storage energy (e0 plus net per
    tick since the anchor, clamped to 0..STORAGE_FULL_J) and its harvest
    tally (h0 plus harvest_dt per tick since the anchor).
    """

    node_id: int
    v_pv: float
    mode: str
    state: str
    lux: float
    e0: float
    net: float
    offset: int
    h0: float
    harvest_dt: float


class TraceSegment(NamedTuple):
    """The sample rows of one quiet stretch, run-end encoded.

    Its rows sit after the first `at` discrete records of the trace, one
    per lane, in lane order, at each tick i + n for n in instants.
    segment_values expands them.
    """

    at: int
    i: int
    instants: range
    dt: float
    lanes: Tuple[SegmentLane, ...]


def segment_values(segment: TraceSegment, instants: Optional[range] = None,
                   runs: Optional[List[Runs]] = None):
    """A segment's values at `instants` (all of its own by default):
    the time of each instant, and per lane a list of the storage voltage
    at each.

    The voltages are storage_step's closed form from each lane's anchor
    (e0, net, offset), in the float order the kernel books it
    (energy.run_voltages), built from the lane's runs over instants
    (energy.clamp_runs, unless the caller hands them in).
    """
    if instants is None:
        instants = segment.instants
    anchors = _anchors(segment)
    if runs is None:
        runs = clamp_runs(anchors, instants)
    i, dt = segment.i, segment.dt
    return ([(i + n) * dt for n in instants],
            run_voltages(anchors, instants, runs))


def _anchors(segment: TraceSegment) -> List[Anchor]:
    return [(lane.e0, lane.net, lane.offset) for lane in segment.lanes]


class FrameLogEntry(NamedTuple):
    time_s: float
    outcome: str          # sent | delivered | failed
    origin: str
    dest: int
    cause: str = ""


class NodeAggregate:
    """Per-node tallies, booked once per stretch (a full tick is a one-tick
    stretch), the light's extremes where it changes.  They start at zero,
    the light's minimum at inf, with no depletion; the run books the
    final energy and voltage at its end."""

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

    The trace rows are the discrete records, written one at a time (the
    event rows, and the sample instants between stretches, each every
    node's sample row at one instant), and the segments, each the
    samples inside one quiet stretch; runs() walks both in row order,
    and rows expands them into one list.  frame_log is the only
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
                 discrete: List[Record], segments: List[TraceSegment],
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
             ) -> Iterator[Tuple[List[Record], Optional[TraceSegment]]]:
        """The rows at or after time `since`, in row order: (discrete
        records, the segment after them) pairs, the last with no segment.

        The rows are in time order, so those rows are a tail: it starts
        in the first segment that ends at or after since, trimmed to its
        instants from since on, or in the discrete records before it.
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
            for record in discrete:
                rows += [record] if type(record) is TraceRow else record.rows()
            if segment is None:
                continue
            times, values = segment_values(segment)
            # the tally's harvest in the float order the kernel books it
            harvests = [[h0 + (n + offset) * harvest_dt
                         for n in segment.instants]
                        for *_, offset, h0, harvest_dt in segment.lanes]
            fixed = [lane[:5] for lane in segment.lanes]
            for time_s, v_caps, tally in zip(times, zip(*values),
                                             zip(*harvests)):
                rows += SampleInstant(time_s, fixed, v_caps, tally).rows()
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


def _tally_steady(steady: Dict[int, List], records: List[Record],
                  lanes: Tuple[SegmentLane, ...] = (),
                  values: List[List[float]] = ()) -> None:
    """Book sample rows into each node's final-quarter tally, the list
    [sum, count, minimum, maximum] of its storage voltages: the sample
    instants among records, then each lane's voltages (segment_values'
    lists, none of them empty).

    Called in row order, it adds every node's voltages left to right,
    so the sum does not depend on how the rows are cut into calls.
    """
    for record in records:
        if type(record) is TraceRow:
            continue
        for fixed, v in zip(record.fixed, record.v_caps):
            acc = steady[fixed[0]]
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


# rows per block _csv_blocks renders, which bounds each block's memory;
# a block holds one instant at least
CSV_BLOCK_ROWS = 2048
# one event row, from its fields but harvested_j, which the CSV omits.
# Each voltage is a bare %f: bytes % writes a float with no width or
# precision straight into its output, where any other spec builds a
# temporary object first, and %f's precision is 6 by definition
DISCRETE_ROW = b"%.2f,%d,%f,%f,%b,%b,%.3f,%b\n"
# a lane's row after its time, with its voltage left to fill in,
# ",<nid>,%f,<v_pv>,<mode>,<state>,<lux>,\n", from the lane's fixed
# fields (node_id, v_pv, mode, state, lux); the voltage's spec is a
# bare %f, as in DISCRETE_ROW, and a mode or state name holds no %
LANE_ROW = ",%s,%%f,%f,%s,%s,%.3f,\n"


class _RowTemplates(dict):
    """Each lane's LANE_ROW by its fixed fields, formatted on first use."""

    fixed = pieces = None

    def __missing__(self, fixed: Tuple) -> bytes:
        row = self[fixed] = (LANE_ROW % fixed).encode()
        return row

    def instant(self, fixed: List[Tuple]) -> List[bytes]:
        """A sample instant's row templates, from its lanes' fixed
        fields, after an empty piece that its time text joins onto: the
        last instant's again where its fields are equal, which a compare
        tells without hashing a key."""
        if fixed != self.fixed:
            self.fixed = fixed
            self.pieces = [b"", *map(self.__getitem__, fixed)]
        return self.pieces


def _csv_blocks(trace: TraceSet, steady: Dict[int, List]
                ) -> Iterator[bytes]:
    """The CSV rows of the trace, in row order, as UTF-8 blocks of at
    most CSV_BLOCK_ROWS rows each, booking the rows of the final quarter
    into steady as it expands them.

    A block is one bytes % over a template that holds every row but the
    voltages it fills in: bytes % finds each % with memchr, where str %
    reads its template one character at a time.  Each lane's row
    template holds its fixed fields, formatted once per render pass,
    since they recur from segment to segment and among the sample
    instants, and each instant's time is formatted once, into the
    template in front of each of its rows (see _discrete_block and
    _segment_block).
    """
    since = _steady_since(trace)
    row_templates = _RowTemplates()
    # a sample instant holds a row per node
    records = max(1, CSV_BLOCK_ROWS // max(1, len(trace.aggregates)))
    for discrete, segment in trace.runs():
        for start in range(0, len(discrete), records):
            yield _discrete_block(discrete[start:start + records],
                                  row_templates)
        # the rows are in time order, as for trace.runs(since)
        if discrete and discrete[-1].time_s >= since:
            _tally_steady(steady, discrete[bisect_left(
                discrete, since, key=lambda record: record.time_s):])
        if segment is None:
            continue
        lane_rows = [row_templates[lane[:5]] for lane in segment.lanes]
        instants = segment.instants
        per_block = max(1, CSV_BLOCK_ROWS // len(lane_rows))
        for start in range(0, len(instants), per_block):
            yield _segment_block(segment, lane_rows,
                                 instants[start:start + per_block], since,
                                 steady)


def _discrete_block(records: List[Record], row_templates: _RowTemplates
                    ) -> bytes:
    """The CSV bytes of discrete records, one % over their formats
    joined: an event row's DISCRETE_ROW, and a sample instant's rows,
    its time text, formatted once, joined onto its lanes' row templates,
    each of which leaves its voltage to fill in.  A function of its own
    for the reason _segment_block gives."""
    template = []
    args = []
    for record in records:
        if type(record) is TraceRow:
            t, nid, v_cap, v_pv, mode, state, lux, _, event = record
            template.append(DISCRETE_ROW)
            args += (t, nid, v_cap, v_pv, mode.encode(), state.encode(), lux,
                     event.encode())
            continue
        time_s, fixed, v_caps, _ = record
        template.append((b"%.2f" % time_s).join(row_templates.instant(fixed)))
        args += v_caps
    return b"".join(template) % tuple(args)


def _segment_block(segment: TraceSegment, lane_rows: List[bytes],
                   instants: range, since: float,
                   steady: Dict[int, List]) -> bytes:
    """The CSV bytes of a segment's rows at instants, lane_rows holding
    each lane's row template, booking the rows at or after since into
    steady.

    Each lane's piece is its row template, but a lane held at a clamp
    over the whole block has its voltage formatted into it once.  An
    instant's rows are its pieces joined on its time text, and one %
    over those instants' templates and the live lanes' voltages, per
    instant in lane order, renders the block.

    A function of its own because a generator's locals live across its
    yield: returning frees the block's voltages and % arguments before
    _csv_blocks hands the block on to be written."""
    count = len(instants)
    runs = clamp_runs(_anchors(segment), instants)
    times, values = segment_values(segment, instants, runs=runs)
    tail = bisect_left(times, since)
    if tail < count:
        _tally_steady(steady, (), segment.lanes, [
            v_caps[tail:] for v_caps in values] if tail else values)
    # a lane held throughout (lo == count) is held at before
    pieces = [b""]
    columns = []
    for row, v_caps, (lo, _, before, _) in zip(lane_rows, values, runs):
        if lo == count:
            pieces.append(row % before)
        else:
            pieces.append(row)
            columns.append(v_caps)
    width = len(columns)
    args = [None] * (count * width)
    for k, column in enumerate(columns):
        args[k::width] = column
    texts = (b"%.2f " * count % tuple(times)).split()
    return b"".join([text.join(pieces) for text in texts]) % tuple(args)


def format_trace_csv(trace: TraceSet, out: BinaryIO) -> None:
    """Write the trace rows to the binary stream out as UTF-8 CSV (LF
    endings, fixed precision): the header, then each block _csv_blocks
    renders.  A buffered stream batches runs of short blocks, such as
    one-instant segments, into its own writes.

    The same pass books each node's final-quarter tally, which it keeps
    on the trace (steady_tally) once every row is written, so summarize
    need not expand those rows again."""
    steady = _new_steady_tally(trace)
    out.write((CSV_HEADER + "\n").encode())
    out.writelines(_csv_blocks(trace, steady))
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
