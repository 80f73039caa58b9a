"""Access-point scheduling: registry, polling rounds, and sharing budgets.

The access point keeps a registry of every node it has heard from,
polls the well-lit ones for data on a fixed request period, and asks
them to light their sharing emitters in between.  The arithmetic that
ties the request period to the nodes' standby budgets lives here too,
as plain functions usable without a running network.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .energy import illuminance_for_open_voltage
from .node import DEFAULT_TIMING, PSN_PV_THRESHOLD_V, NodeMode, TimingParams
from .protocol import (
    BROADCAST_ADDRESS,
    Command,
    Frame44,
    NodeToOap,
    OapToNode,
    voltage_from_code,
)

REFERENCE_ILLUMINANCE_LUX = 1000.0


class DutyCycle(NamedTuple):
    """Fraction of the reporting interval a node spends powered down."""

    ratio: float
    feasible: bool


def duty_cycle(timing: TimingParams, n: int) -> DutyCycle:
    """Sleep fraction left after data traffic and n sharing sessions.

    The receive window, the sensing phase and each sharing session
    (recovery plus emission) all eat into the reporting interval; what
    remains, as a fraction, is the duty ratio.  A schedule that does
    not fit returns zero flagged infeasible rather than going negative.
    """
    if n < 0:
        raise ValueError("session count must be non-negative")
    data_share = (timing.t_data_net_rec + timing.t_sense) / timing.t_int
    # no sessions cost nothing, even when one session's length overflows
    share_share = (n * (timing.t_energy_net_rec + timing.t_energy_net)
                   / timing.t_int if n else 0.0)
    ratio = 1.0 - data_share - share_share
    if ratio < 0.0:
        return DutyCycle(ratio=0.0, feasible=False)
    return DutyCycle(ratio=min(ratio, 1.0), feasible=True)


def standby_time(timing: TimingParams, n: int) -> float:
    """Seconds of standby per interval once n sharing sessions are booked."""
    duty = duty_cycle(timing, n)
    if not duty.feasible:
        raise ValueError(f"no standby budget left with n={n}")
    return duty.ratio * timing.t_int - timing.t_sense


def select_t_data_req(timings: Sequence[TimingParams],
                      preferred: Optional[float] = None) -> float:
    """Pick a request period every sharing node can keep up with.

    The period must exceed every node's recovery time (so a drained
    emitter can refill between rounds) while fitting inside every
    node's standby budget.  A preferred value is validated against the
    same bounds; otherwise the midpoint, rounded down to a whole
    second, is returned.
    """
    if not timings:
        raise ValueError("at least one node timing is required")
    lower = max(t.t_energy_net_rec for t in timings)
    upper = min(t.t_standby for t in timings)
    if lower >= upper:
        raise ValueError(
            f"request period infeasible: recovery bound {lower:.2f} s is not "
            f"below the standby bound {upper:.2f} s")
    if preferred is not None:
        if not lower < preferred <= upper:
            raise ValueError(
                f"preferred period {preferred:.2f} s violates "
                f"({lower:.2f}, {upper:.2f}]")
        return float(preferred)
    return float(math.floor((lower + upper) / 2.0))


class RegistryEntry:
    """Last known telemetry for one node, as decoded from its reports;
    a node not yet heard from is an unseen secondary with no reading and
    no sessions assigned."""

    __slots__ = ("node_id", "last_pv", "role", "assigned_n", "last_seen")

    def __init__(self, node_id: int):
        self.node_id = node_id
        self.last_pv = 0.0
        self.role = NodeMode.SSN
        self.assigned_n = 0
        self.last_seen = -math.inf


class _Config(NamedTuple):
    t_data_req: float = 600.0
    t_int: float = DEFAULT_TIMING.t_int
    n_min: int = 1
    psn_pv_threshold: float = PSN_PV_THRESHOLD_V
    slot_spacing_s: float = 10.0
    etx_offset_s: float = 30.0
    etx_spacing_s: float = 60.0
    etx_bursts_per_request: int = 1
    stale_after_rounds: float = 3.0


class ControllerConfig(_Config):
    """The access point's settings, the [oap] rows of a scenario file."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.t_data_req <= 0.0 or self.t_int <= 0.0:
            raise ValueError("periods must be positive")
        if self.n_min < 0:
            raise ValueError("n_min must be non-negative")
        if not (DEFAULT_TIMING.t_energy_net_rec < self.t_data_req
                <= DEFAULT_TIMING.t_standby):
            raise ValueError(
                f"t_data_req {self.t_data_req:.2f} s outside "
                f"({DEFAULT_TIMING.t_energy_net_rec:.2f}, "
                f"{DEFAULT_TIMING.t_standby:.2f}]")
        if self.slot_spacing_s <= 0.0 or self.etx_spacing_s <= 0.0:
            raise ValueError("slot spacings must be positive")
        return self


def assign_n(entry: RegistryEntry, config: ControllerConfig,
             observed_illuminance: float) -> int:
    """Sharing sessions per interval for one node.

    Brighter nodes recover faster, so their recovery time shrinks in
    proportion to the light above the reference level and they can
    afford more sessions.  The count is the largest one that leaves a
    standby budget of at least one request period, floored at the
    configured minimum.  Nodes without surplus light get zero.
    """
    if entry.role != NodeMode.PSN:
        return 0
    timing = DEFAULT_TIMING
    recovery = timing.t_energy_net_rec
    if observed_illuminance > REFERENCE_ILLUMINANCE_LUX:
        recovery = recovery * REFERENCE_ILLUMINANCE_LUX / observed_illuminance
    # the default interval, not the broadcast config.t_int, until the
    # budget follows the interval the nodes adopt (ROADMAP item 3)
    budget = (timing.t_int - timing.t_data_net_rec - 2.0 * timing.t_sense
              - config.t_data_req)
    per_session = recovery + timing.t_energy_net
    n = int(budget / per_session) if budget > 0.0 else 0
    return max(n, config.n_min)


class Controller:
    """The access point's scheduling core.

    Drives the request timeline: one configuration broadcast at start,
    a staggered first poll of every known node, then data rounds on
    the request period with sharing requests in between.  Uplink
    reports keep the registry current and trigger session-count
    updates when a node's light budget moves.  Queued frames wait in a
    heap by due instant, then queue order; next_due_s tells the kernel
    when step next acts, as an instant it turns into a tick.
    """

    __slots__ = ("config", "node_ids", "etx_enabled", "registry", "events",
                 "_pending", "_seq", "_next_round")

    def __init__(self, config: ControllerConfig, node_ids: Sequence[int],
                 etx_enabled: bool = True):
        self.config = config
        self.node_ids: List[int] = sorted(set(node_ids))
        if not self.node_ids:
            raise ValueError("controller needs at least one node id")
        self.etx_enabled = etx_enabled
        self.registry: Dict[int, RegistryEntry] = {}
        self.events: List[str] = []
        self._pending: List[Tuple[float, int, Frame44]] = []
        self._seq = 0
        self._next_round = config.t_data_req
        # the run starts at t = 0 with the config broadcast and the polls
        self._queue(0.0, Frame44(
            dest_address=BROADCAST_ADDRESS,
            payload=OapToNode(command=Command.INIT_CONFIG,
                              param=int(config.t_int))))
        for rank, node_id in enumerate(self.node_ids):
            due = 1.0 + rank * config.slot_spacing_s
            self._queue(due, Frame44(
                dest_address=node_id,
                payload=OapToNode(command=Command.DATA_REQUEST, param=0)))
        self.events.append("0.0s start: config broadcast and "
                           f"{len(self.node_ids)} initial polls")

    def _queue(self, due: float, frame: Frame44) -> None:
        heapq.heappush(self._pending, (due, self._seq, frame))
        self._seq += 1

    def _fresh_psns(self, now: float) -> List[int]:
        limit = self.config.stale_after_rounds * self.config.t_data_req
        out = []
        for node_id in self.node_ids:
            entry = self.registry.get(node_id)
            if entry is None or entry.role != NodeMode.PSN:
                continue
            if now - entry.last_seen <= limit:
                out.append(node_id)
        return out

    def _schedule_round(self, boundary: float) -> None:
        psns = self._fresh_psns(boundary)
        for rank, node_id in enumerate(psns):
            due = boundary + rank * self.config.slot_spacing_s
            self._queue(due, Frame44(
                dest_address=node_id,
                payload=OapToNode(command=Command.DATA_REQUEST, param=0)))
        if self.etx_enabled:
            for rank, node_id in enumerate(psns):
                due = (boundary + self.config.etx_offset_s
                       + rank * self.config.etx_spacing_s)
                self._queue(due, Frame44(
                    dest_address=node_id,
                    payload=OapToNode(
                        command=Command.ETX_REQUEST,
                        param=self.config.etx_bursts_per_request)))
        if psns:
            self.events.append(
                f"{boundary:.1f}s round: polling {psns}"
                + (" with sharing requests" if self.etx_enabled else ""))

    def step(self, now: float) -> List[Frame44]:
        """Frames the access point puts on the air at this instant, in the
        order they were queued when due together."""
        while self._next_round <= now + 1e-9:
            self._schedule_round(self._next_round)
            self._next_round += self.config.t_data_req
        frames = []
        while self._pending and self._pending[0][0] <= now + 1e-9:
            frames.append(heapq.heappop(self._pending)[2])
        return frames

    def next_due_s(self) -> float:
        """The next round or queued frame: the earliest instant `due` at
        which step may act, on the first `now` with due <= now + 1e-9.

        For any earlier `now`, step(now) returns no frame and changes
        nothing.
        """
        due = self._pending[0][0] if self._pending else math.inf
        return min(self._next_round, due)

    def on_uplink(self, frame: Frame44, now: float) -> None:
        """Fold one node report (an uplink frame) into the registry."""
        payload: NodeToOap = frame.payload
        node_id = payload.sender_id
        entry = self.registry.setdefault(node_id, RegistryEntry(node_id=node_id))
        entry.last_pv = voltage_from_code(payload.pv_level)
        entry.last_seen = now
        role = (NodeMode.PSN if entry.last_pv > self.config.psn_pv_threshold
                else NodeMode.SSN)
        if role != entry.role:
            entry.role = role
            self.events.append(f"{now:.1f}s node {node_id} is {role}")
        if role == NodeMode.PSN:
            lux = illuminance_for_open_voltage(entry.last_pv)
            n = assign_n(entry, self.config, lux)
            if n != entry.assigned_n:
                entry.assigned_n = n
                self._queue(now + 0.5, Frame44(
                    dest_address=node_id,
                    payload=OapToNode(command=Command.SET_N, param=n)))
                self.events.append(f"{now:.1f}s node {node_id} gets n={n}")
        else:
            entry.assigned_n = 0
