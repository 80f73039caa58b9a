"""Reference kernel for the differential tests: the per-tick loop.

run_scenario below is the loop the kernel ran before it learned to skip
quiet ticks, kept verbatim but for the node's draw and the emitters'
on-air shares, which read the phase share of the step (node.phase_share)
and the step's frame costs (NodeStepResult.cost_j): every tick delivers
frames, steps the controller and every node, and applies the
hysteresis.  It shares the _Runtime machinery with the kernel, so the
two differ only in which ticks take the full path and how a quiet
stretch adds up: the kernel advances one in a single closed-form step,
this loop tick by tick.
test_kernel_equivalence.py states how close the two TraceSets must be.
"""

from __future__ import annotations

from typing import Dict

from luxnet.energy import storage_step
from luxnet.node import (
    NodeState,
    NodeStepResult,
    apply_hysteresis,
    state_draw_w,
    step_node,
)
from luxnet.simkernel import Scenario, TraceSet, _Runtime, validate_scenario


def run_scenario(scenario: Scenario) -> TraceSet:
    """Execute one scenario to completion and return its trace."""
    validate_scenario(scenario)
    rt = _Runtime(scenario)
    dt = rt.dt

    rt.sample_rows(0.0)

    for i in range(rt.n_steps):
        now = i * dt
        inbox = rt.deliver_due(i)

        for frame in rt.controller.step(now):
            rt.send(frame, "oap", i)

        results: Dict[int, NodeStepResult] = {}
        for nid in rt.node_ids:
            record = rt.records[nid]
            result = step_node(record, dt, now, rt.lux[nid],
                               rt.harvest_w[nid], inbox[nid])
            for frame in result.emitted:
                rt.send(frame, f"node {nid}", i)
            if inbox[nid]:
                rt.account_deliveries(nid, inbox[nid], result, now)
            results[nid] = result

        # the on-air set for this step reflects the transitions just taken
        rt._refresh_lux(rt._emitter_signature(now))

        for nid in rt.node_ids:
            record = rt.records[nid]
            agg = rt.agg[nid]
            lux_faces = rt.lux[nid]
            harvest = rt.harvest_w[nid]
            p_out = state_draw_w(record, now, dt) + results[nid].cost_j / dt
            storage = record.storage
            agg.clamp_loss_j += storage_step(storage, harvest, p_out, dt)
            agg.harvested_j += harvest * dt
            agg.consumed_j += p_out * dt
            agg.leaked_j += storage.leak_power * dt
            state_name = record.state.value
            agg.time_by_state[state_name] = (
                agg.time_by_state.get(state_name, 0.0) + dt)
            face_a = lux_faces[0]
            agg.lux_integral += face_a * dt
            if face_a < agg.lux_min:
                agg.lux_min = face_a
            if face_a > agg.lux_max:
                agg.lux_max = face_a

            result = results[nid]
            was_depleted = record.state is NodeState.DEPLETED
            apply_hysteresis(record, result, now + dt)
            if (record.state is NodeState.DEPLETED and not was_depleted
                    and agg.depleted_at is None):
                agg.depleted_at = now
            if result.events:
                rt.event_rows(nid, now, result.events)

        if (i + 1) % rt.sample_every == 0 or (i + 1) == rt.n_steps:
            rt.sample_rows((i + 1) * dt)

    for nid in rt.node_ids:
        record = rt.records[nid]
        agg = rt.agg[nid]
        agg.final_energy_j = record.storage.energy
        agg.final_voltage = record.storage.voltage

    return TraceSet(
        scenario_name=scenario.name,
        duration_s=rt.n_steps * dt,
        step_s=dt,
        seed=scenario.seed,
        rows=rt.rows,
        frame_log=rt.frame_log,
        controller_log=list(rt.controller.events),
        aggregates=rt.agg,
    )
