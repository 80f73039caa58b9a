"""Every value and run-state class that bounds a field checks it when it
is built (channel.OpticalReceiver, a bare pose, bounds none), a run-state
class takes only configuration and starts in a fixed state, and the
scenario values are immutable and hash by value."""

import inspect
import math

import pytest

from luxnet.channel import InterferenceModel, OpticalTransmitter
from luxnet.controller import Controller, ControllerConfig, RegistryEntry
from luxnet.energy import (
    DEFAULT_PROFILE,
    DEFAULT_V_MIN,
    STORAGE_CAPACITANCE_F,
    HarvesterArray,
    PowerProfile,
    StorageCapacitor,
)
from luxnet.node import (
    NodeMode,
    NodeRecord,
    NodeState,
    NodeStepResult,
    TimingParams,
)
from luxnet.protocol import GenericFrame
from luxnet.simkernel import FaceSpec, NodeSpec, Scenario
from luxnet.trace import NodeAggregate, TraceSet


def profile(**changes):
    draws = dict(sleep=180e-6, standby=550e-6, sense=11.0e-3,
                 data_tx=12.0e-3, etx=52.7e-3, decode=2.0e-3)
    return PowerProfile(**{**draws, **changes})


# one bad input for each check a constructor makes, with its exact message
CHECKS = [
    (lambda: OpticalTransmitter(optical_power_w=-1.0),
     "optical power must be non-negative"),
    (lambda: InterferenceModel(steepness_per_lux=0.0),
     "steepness must be positive"),
    (lambda: InterferenceModel(floor=1.0),
     "floor must be in [0, 1)"),
    (lambda: ControllerConfig(t_int=0.0),
     "periods must be positive"),
    (lambda: ControllerConfig(t_data_req=700.0),
     "t_data_req 700.00 s outside (450.00, 600.94]"),
    (lambda: ControllerConfig(etx_spacing_s=0.0),
     "slot spacings must be positive"),
    (lambda: Controller(config=ControllerConfig(), node_ids=[]),
     "controller needs at least one node id"),
    (lambda: StorageCapacitor(voltage=5.0),
     "voltage 5.0 outside [0, v_max]"),
    (lambda: StorageCapacitor(v_min=3.0),
     "v_min must not sit below v_ovdis"),
    (lambda: profile(decode=-1.0),
     "power draws must be non-negative"),
    (lambda: profile(sleep=600e-6),
     "sleep draw must sit below standby draw"),
    (lambda: profile(standby=0.9e-3),
     "standby draw must stay below single-cell generation"),
    (lambda: HarvesterArray(cells=()),
     "harvester needs at least one cell"),
    (lambda: TimingParams(t_standby=0.0),
     "t_standby must be positive"),
    (lambda: NodeRecord(node_id=0, storage=StorageCapacitor()),
     "node id must be 1..15 (0 is the access point)"),
    (lambda: GenericFrame(address=0x10000),
     "address must be 16 bit, got 65536"),
    (lambda: GenericFrame(address=1, data=bytes(256)),
     "data exceeds 255 bytes"),
]


@pytest.mark.parametrize("build, message", CHECKS,
                         ids=[message for _, message in CHECKS])
def test_constructors_reject_bad_fields(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def scenario():
    node = NodeSpec(node_id=1, position=(0.0, 0.0, 0.0),
                    faces=(FaceSpec((0.0, 1.0, 0.0), 150.0),) * 3)
    return Scenario(name="t", duration_s=10.0, nodes=(node,))


def test_specs_are_immutable_values():
    for value, field in ((scenario(), "seed"),
                         (ControllerConfig(), "t_data_req"),
                         (DEFAULT_PROFILE, "sleep")):
        with pytest.raises(AttributeError):
            setattr(value, field, 1)
    assert scenario() == scenario()
    assert hash(scenario()) == hash(scenario())


# each run-state class and the configuration its constructor takes; the
# rest of its fields are run state
CONFIGURATION = {
    NodeRecord: ("node_id", "storage", "led", "etx_autonomous",
                 "sensing_enabled", "sensor_base_c"),
    NodeAggregate: ("node_id", "start_energy_j"),
    NodeStepResult: (),
    RegistryEntry: ("node_id",),
    StorageCapacitor: ("voltage", "v_min"),
    TraceSet: ("scenario_name", "duration_s", "step_s", "discrete",
               "segments", "frame_log", "controller_log", "aggregates"),
}


@pytest.mark.parametrize("cls", CONFIGURATION,
                         ids=[cls.__name__ for cls in CONFIGURATION])
def test_run_state_constructors_take_only_configuration(cls):
    assert tuple(inspect.signature(cls).parameters) == CONFIGURATION[cls]


def test_run_state_starts_fixed():
    node = NodeRecord(node_id=3, storage=StorageCapacitor(voltage=4.0))
    assert (node.state, node.mode, node.t_int) == (
        NodeState.INIT, NodeMode.SSN, 3600.0)
    assert (node.v_pv, node.pending_n, node.state_since,
            node.next_report_s) == (0.0, 0, 0.0, 0.0)
    assert (node.phase_lit, node.phase_start_s, node.phase_end_s) == (
        False, 0.0, 0.0)
    # every node stores in the one capacitor the module constants name
    assert node.storage.energy == 0.5 * STORAGE_CAPACITANCE_F * 4.0 ** 2

    agg = NodeAggregate(node_id=3, start_energy_j=3.2)
    assert agg.start_energy_j == 3.2
    assert (agg.lux_integral, agg.lux_min, agg.lux_max) == (
        0.0, math.inf, 0.0)
    assert (agg.harvested_j, agg.consumed_j, agg.leaked_j, agg.clamp_loss_j,
            agg.final_energy_j, agg.final_voltage) == (0.0,) * 6
    assert agg.time_by_state == {} and agg.depleted_at is None

    first, second = NodeStepResult(), NodeStepResult()
    assert (first.emitted, first.events, first.causes, first.cost_j) == (
        [], [], [], 0.0)
    # each result owns its lists
    first.events.append("etx start")
    assert second.events == []

    entry = RegistryEntry(node_id=3)
    assert (entry.last_pv, entry.role, entry.assigned_n, entry.last_seen) == (
        0.0, NodeMode.SSN, 0, -math.inf)

    trace = TraceSet(scenario_name="t", duration_s=1.0, step_s=0.1,
                     discrete=[], segments=[], frame_log=[],
                     controller_log=[], aggregates={})
    assert trace.steady_tally is None


def test_one_default_guard_floor():
    assert StorageCapacitor().v_min == DEFAULT_V_MIN
    assert NodeSpec(node_id=1, position=(0.0, 0.0, 0.0),
                    faces=()).v_min == DEFAULT_V_MIN
