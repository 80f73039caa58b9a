"""Reference kernel for the differential tests: the per-tick loop.

run_scenario below is the loop the kernel ran before it learned to skip
quiet ticks, kept verbatim but for the node's draw and the emitters'
on-air shares, which read the phase share of the step (node.phase_share)
and the step's frame costs (NodeStepResult.cost_j), and for reading each
node's state from its lane: every tick delivers frames, steps the
controller and every node, integrates the storage and applies the
hysteresis, node by node.  It shares the _Runtime machinery with the
kernel, so the two differ only in which ticks take the full path and how
a stretch adds up: the kernel steps each lane only at its own events, in
a single closed-form step from its anchor, this loop every lane tick by
tick in its own body.  It moves each lane's anchor tick (`at`) with the
storage, so the shared light and row machinery reads the storage as it
stands.
test_kernel_equivalence.py states how close the two TraceSets must be.
"""

from __future__ import annotations

from luxnet.energy import LEAK_POWER_W, net_per_tick, storage_step
from luxnet.node import (
    NodeState,
    apply_hysteresis,
    state_draw_w,
    step_node,
)
from luxnet.simkernel import Scenario, _Runtime, validate_scenario
from luxnet.trace import TraceSet


def run_scenario(scenario: Scenario) -> TraceSet:
    """Execute one scenario to completion and return its trace."""
    validate_scenario(scenario)
    rt = _Runtime(scenario)
    dt = rt.dt

    rt.sample_rows(0)

    for i in range(rt.n_steps):
        now = i * dt
        inboxes = rt.deliver_due(i)

        for frame in rt.controller.step(now):
            rt.send(frame, "oap", i)

        results = []
        for lane, inbox in zip(rt.lanes, inboxes):
            nid = lane.record.node_id
            result = step_node(lane.record, dt, now, lane.lux,
                               lane.harvest_w, inbox)
            for frame in result.emitted:
                rt.send(frame, f"node {nid}", i)
            if inbox:
                rt.account_deliveries(nid, inbox, result, now)
            results.append(result)

        # the on-air set for this step reflects the transitions just taken
        rt._refresh_lux(rt._emitter_signature(now), i)

        for lane, result in zip(rt.lanes, results):
            record = lane.record
            agg = lane.agg
            lux_faces = lane.lux
            harvest = lane.harvest_w
            p_out = state_draw_w(record, now, dt) + result.cost_j / dt
            storage = record.storage
            agg.clamp_loss_j += storage_step(
                storage, net_per_tick(harvest, p_out, dt))
            lane.at = i + 1
            agg.harvested_j += harvest * dt
            agg.consumed_j += p_out * dt
            agg.leaked_j += LEAK_POWER_W * dt
            state_name = record.state
            agg.time_by_state[state_name] = (
                agg.time_by_state.get(state_name, 0.0) + dt)
            face_a = lux_faces[0]
            agg.lux_integral += face_a * dt
            if face_a < agg.lux_min:
                agg.lux_min = face_a
            if face_a > agg.lux_max:
                agg.lux_max = face_a

            was_depleted = record.state == NodeState.DEPLETED
            event = apply_hysteresis(record, now + dt)
            if event:
                result.events.append(event)
            if (record.state == NodeState.DEPLETED and not was_depleted
                    and agg.depleted_at is None):
                agg.depleted_at = now
            if result.events:
                rt.event_rows(lane, i + 1, result.events)

        if (i + 1) % rt.sample_every == 0 or (i + 1) == rt.n_steps:
            rt.sample_rows(i + 1)

    return rt.trace()
