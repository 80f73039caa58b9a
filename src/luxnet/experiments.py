"""Scenario-level experiments built on the simulation kernel.

Two studies ship with the library.  The recharge study places a dim
node between two bright emitter nodes on a 20 cm triangle and measures
how much sooner the dim node accumulates a fixed amount of harvested
energy when scheduled light sharing is on.  The interference study
sweeps ambient light on a receiving face and measures the frame
failure ratio while a share burst is on the air.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Sequence

from .calibration import burst_power_for_peak
from .channel import (
    InterferenceModel,
    frame_failure_probability,
    pv_input_power,
    uniform_draws,
)
from .energy import PV_CELLS_PER_NODE
from .errors import InfeasibleError
from .simkernel import FaceSpec, NodeSpec, Scenario, run_scenario
from .trace import TraceSet

TRIANGLE_SIDE_M = 0.2
RELAY_AMBIENT_LUX = 1000.0
RELAY_IDS = (1, 3)
TARGET_NODE_ID = 2
# the dim node's harvest target, and the step its runs take
RECHARGE_TARGET_J = 1.0
RECHARGE_STEP_S = 0.1
# the ambient levels of the interference study, 50 to 450 lx in steps of
# 50, and its failure curve
SWEEP_LUX = tuple(50.0 + 50.0 * k for k in range(9))
SWEEP_MODEL = InterferenceModel()


class RechargePoint(NamedTuple):
    """One ambient level of the recharge study."""

    ambient_lux: float
    time_without_s: float
    time_with_s: float
    improvement: float


class SweepPoint(NamedTuple):
    """One ambient level of the interference study."""

    ambient_lux: float
    failure_probability: float
    failure_ratio: float


def _relay_spec(node_id: int, x: float, y: float) -> NodeSpec:
    bright = RELAY_AMBIENT_LUX
    return NodeSpec(
        node_id=node_id,
        position=(x, y, 0.0),
        faces=(
            FaceSpec((0.0, 1.0, 0.0), bright),
            FaceSpec((1.0, 0.0, 0.0), bright),
            FaceSpec((0.0, 0.0, 1.0), bright),
        ),
        start_voltage=4.5,
        v_min=3.8,
        led_power_w=burst_power_for_peak(),
        led_aim=(-x, -y, 0.0),
    )


def _triangle_scenario(name: str, ambient_lux: float, policy: str,
                       duration_s: float) -> Scenario:
    """Dim node at the origin, two bright relays one side length away."""
    x = TRIANGLE_SIDE_M * math.sin(math.radians(30.0))
    y = TRIANGLE_SIDE_M * math.cos(math.radians(30.0))
    dim = NodeSpec(
        node_id=TARGET_NODE_ID,
        position=(0.0, 0.0, 0.0),
        faces=(
            FaceSpec((0.0, 1.0, 0.0), ambient_lux),
            FaceSpec((0.0, 0.0, 1.0), ambient_lux),
            FaceSpec((0.0, 0.0, -1.0), ambient_lux),
        ),
        start_voltage=3.5,
        sensing_enabled=False,
    )
    nodes = (
        _relay_spec(RELAY_IDS[0], -x, y),
        dim,
        _relay_spec(RELAY_IDS[1], x, y),
    )
    return Scenario(
        name=name,
        duration_s=duration_s,
        nodes=nodes,
        step_s=RECHARGE_STEP_S,
        trace_interval_s=1.0,
        etx_policy=policy,
    )


def time_to_harvest(trace: TraceSet, node_id: int, target_j: float) -> float:
    """First time the node's cumulative harvest reaches the target.

    Linear interpolation between the node's sample rows, the trace's
    harvest checkpoints; raises if the run ended short of the target.
    """
    prev_t, prev_e = 0.0, 0.0
    for row in trace.rows:
        if row.node_id != node_id or row.event:
            continue
        t, e = row.time_s, row.harvested_j
        if e >= target_j:
            if e == prev_e:
                return t
            return prev_t + (target_j - prev_e) * (t - prev_t) / (e - prev_e)
        prev_t, prev_e = t, e
    raise InfeasibleError(
        f"node {node_id} harvested {prev_e:.3f} J of {target_j:.3f} J "
        f"in {trace.duration_s:.0f} s")


def _baseline_power_w(ambient_lux: float) -> float:
    return PV_CELLS_PER_NODE * pv_input_power(ambient_lux)


def recharge_improvement(
        ambient_levels: Sequence[float] = (150.0, 250.0, 400.0)
) -> List[RechargePoint]:
    """Time saved harvesting RECHARGE_TARGET_J with scheduled sharing on.

    For each ambient level the same triangle runs twice, once with the
    relays dark and once with autonomous share sessions, and the dim
    node's time to the energy target is compared.
    """
    points = []
    for lux in ambient_levels:
        if lux <= 0.0:
            raise ValueError("ambient must be positive")
        # generous run length: sharing only shortens the baseline time
        duration = 1.25 * RECHARGE_TARGET_J / _baseline_power_w(lux) + 300.0
        bare = run_scenario(_triangle_scenario(
            f"recharge-{lux:.0f}lx-ambient", lux, "disabled", duration))
        shared = run_scenario(_triangle_scenario(
            f"recharge-{lux:.0f}lx-shared", lux, "autonomous", duration))
        t_bare = time_to_harvest(bare, TARGET_NODE_ID, RECHARGE_TARGET_J)
        t_shared = time_to_harvest(shared, TARGET_NODE_ID, RECHARGE_TARGET_J)
        points.append(RechargePoint(
            ambient_lux=lux,
            time_without_s=t_bare,
            time_with_s=t_shared,
            improvement=(t_bare - t_shared) / t_bare,
        ))
    return points


def interference_sweep(frames_per_point: int = 1000,
                       seed: int = 1) -> List[SweepPoint]:
    """Frame failure ratio versus ambient light during a share burst.

    Each point of SWEEP_LUX draws `frames_per_point` independent frame
    outcomes at SWEEP_MODEL's failure probability for that ambient
    level.  The draws are numpy's default_rng(seed) stream, taken in
    order.
    """
    if frames_per_point < 1:
        raise ValueError("frames_per_point must be at least 1")
    draws = uniform_draws(seed)
    points = []
    for lux in SWEEP_LUX:
        p = frame_failure_probability(lux, SWEEP_MODEL)
        failures = sum(next(draws) < p for _ in range(frames_per_point))
        points.append(SweepPoint(lux, p, failures / frames_per_point))
    return points


def render_recharge_table(points: Sequence[RechargePoint]) -> str:
    lines = ["ambient_lux,time_without_s,time_with_s,improvement_pct"]
    for pt in points:
        lines.append(f"{pt.ambient_lux:.0f},{pt.time_without_s:.1f},"
                     f"{pt.time_with_s:.1f},{pt.improvement * 100:.2f}")
    return "\n".join(lines) + "\n"


def render_sweep_table(points: Sequence[SweepPoint]) -> str:
    lines = ["ambient_lux,failure_probability,failure_ratio"]
    for pt in points:
        lines.append(f"{pt.ambient_lux:.0f},{pt.failure_probability:.4f},"
                     f"{pt.failure_ratio:.4f}")
    return "\n".join(lines) + "\n"
