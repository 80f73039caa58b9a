"""Metamorphic relations: properties that tie the outputs of two related
runs together, so they need no stored reference and keep holding when a
reference is re-recorded.

Prefix: a run of duration T is the run of duration 2T cut at T.  Every
CSV row before the shorter run's end is the same row of the longer run,
and the shorter run adds only its final sample rows.

Rotation and mirror: a quarter turn about z, (x, y, z) -> (-y, x, z), or
a mirror, x -> -x, of every node position, face normal and emitter aim
and of the access point's position leaves the CSV, every node aggregate
and the controller log bit-identical.  Both maps are exact in floating
point, and every gain reads the geometry only through differences,
norms and dot products, whose terms they permute or negate in pairs.

More light never shortens a life: with everything else fixed, raising
a node's ambient light never moves its lockout (depleted_at) earlier.

Adding a node is not such a relation: every downlink floods every node,
so a far node's frames cost the others decode energy and wake-ups.
"""

import math

import pytest
from hypothesis import given

from luxnet.cli import parse_scenario_file, shipped_scenario_path
from luxnet.simkernel import Scenario, run_scenario
from test_kernel_equivalence import networks
from test_simkernel import benchmark_workloads, csv_text


def csv_rows(scenario):
    return csv_text(run_scenario(scenario)).splitlines()[1:]


def assert_prefix(scenario, duration_s):
    short = csv_rows(scenario._replace(duration_s=duration_s))
    long = csv_rows(scenario._replace(duration_s=2.0 * duration_s))
    nodes = len(scenario.nodes)
    # the short run ends on a sample row per node, at its end
    final = short[-nodes:]
    end = final[0].split(",", 1)[0]
    assert [row.split(",", 1)[0] for row in final] == [end] * nodes
    assert all(row.endswith(",") for row in final)
    cut = len(short) - nodes
    assert long[:cut] == short[:cut]
    # and the long run holds no other row before that end
    assert float(long[cut].split(",", 1)[0]) >= float(end)


def test_paper_a_is_a_prefix_of_its_longer_run():
    assert_prefix(parse_scenario_file(shipped_scenario_path("paper_a")),
                  12_345.6)


@pytest.mark.parametrize("seed", [1, 3])
def test_crowd_dense_is_a_prefix_of_its_longer_run(seed):
    assert_prefix(benchmark_workloads().crowd_dense_scenario(seed), 777.7)


@given(networks())
def test_a_drawn_network_is_a_prefix_of_its_longer_run(scenario):
    assert_prefix(scenario, scenario.duration_s / 2.0)


def quarter_turn(v):
    x, y, z = v
    return (-y, x, z)


def mirror(v):
    x, y, z = v
    return (-x, y, z)


def moved(scenario: Scenario, move) -> Scenario:
    """scenario with every position, face normal and aim mapped by move."""
    nodes = tuple(node._replace(
        position=move(node.position),
        faces=tuple(face._replace(normal=move(face.normal))
                    for face in node.faces),
        led_aim=None if node.led_aim is None else move(node.led_aim))
        for node in scenario.nodes)
    return scenario._replace(nodes=nodes, oap=scenario.oap._replace(
        position=move(scenario.oap.position)))


def bits(value):
    """value with every float, also inside a dict, as its hex string."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: bits(item) for key, item in value.items()}
    return value


def outputs(scenario):
    """A run's CSV, each node aggregate's fields, bit for bit, and its
    controller log."""
    trace = run_scenario(scenario)
    aggregates = {nid: {name: bits(getattr(agg, name))
                        for name in agg.__slots__}
                  for nid, agg in trace.aggregates.items()}
    return csv_text(trace), aggregates, trace.controller_log


def shipped(stem, duration_s=None):
    scenario = parse_scenario_file(shipped_scenario_path(stem))
    return scenario._replace(duration_s=duration_s or scenario.duration_s)


ROTATION_RUNS = {
    "paper-a": lambda: shipped("paper_a"),
    "paper-b-10h": lambda: shipped("paper_b", 36_000.0),
    **{f"crowd-dense-{seed}": lambda seed=seed:
       benchmark_workloads().crowd_dense_scenario(seed) for seed in (0, 1, 3)},
}


@pytest.mark.parametrize("name", sorted(ROTATION_RUNS))
def test_a_turned_or_mirrored_network_runs_bit_for_bit_alike(name):
    scenario = ROTATION_RUNS[name]()
    base = outputs(scenario)
    for move in (quarter_turn, mirror):
        assert outputs(moved(scenario, move)) == base, move.__name__


@given(networks())
def test_a_drawn_network_turned_or_mirrored_runs_bit_for_bit_alike(scenario):
    base = outputs(scenario)
    for move in (quarter_turn, mirror):
        assert outputs(moved(scenario, move)) == base, move.__name__


def with_face_a_ambient(scenario: Scenario, node_id, lux) -> Scenario:
    """scenario with node node_id's face a under lux of ambient light."""
    nodes = tuple(node._replace(faces=(node.faces[0]._replace(
        ambient_lux=lux), *node.faces[1:])) if node.node_id == node_id
        else node for node in scenario.nodes)
    return scenario._replace(nodes=nodes)


def test_more_light_never_shortens_a_life():
    # paper-a's dim node under 100 to 400 lx on its lit face, in 20 lx
    # steps: each step never moves its lockout earlier, and once it
    # lasts the run (depleted_at None) it keeps lasting it
    scenario = shipped("paper_a")
    lifetimes = []
    for lux in range(100, 401, 20):
        trace = run_scenario(with_face_a_ambient(scenario, 2, float(lux)))
        depleted_at = trace.aggregates[2].depleted_at
        lifetimes.append(math.inf if depleted_at is None else depleted_at)
    assert lifetimes == sorted(lifetimes), lifetimes
    # the sweep crosses from a lockout inside the run to none
    assert lifetimes[0] < scenario.duration_s and lifetimes[-1] == math.inf


def lit_by(scenario: Scenario, node_id, factor) -> Scenario:
    """scenario with node node_id's ambient light scaled by factor on
    each face."""
    nodes = tuple(node._replace(faces=tuple(
        face._replace(ambient_lux=face.ambient_lux * factor)
        for face in node.faces)) if node.node_id == node_id else node
        for node in scenario.nodes)
    return scenario._replace(nodes=nodes)


@given(networks())
def test_more_light_never_shortens_a_drawn_life(scenario):
    # node 1 starts 5 mV above the lockout, so a dim one locks out within
    # the run; from dark to its drawn light, every face lit alike, its
    # lockout never moves earlier
    first = scenario.nodes[0]._replace(start_voltage=3.205)
    scenario = scenario._replace(nodes=(first, *scenario.nodes[1:]))
    lifetimes = []
    for factor in (0.0, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0):
        trace = run_scenario(lit_by(scenario, 1, factor))
        depleted_at = trace.aggregates[1].depleted_at
        lifetimes.append(math.inf if depleted_at is None else depleted_at)
    assert lifetimes == sorted(lifetimes), lifetimes
