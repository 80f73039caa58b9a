"""Self-tests of the benchmark harness (run: python3 -m pytest perfbench/tests).

They stay outside tier-1, whose testpaths is tests/.
"""

import json
import math
import types

import pytest

import check
import run
from tracer import Tracer
from workloads import ROOT, WORKLOADS, crowd_dense_scenario, load_luxnet

load_luxnet()

from luxnet.channel import illuminance_at  # noqa: E402
from luxnet.cli import parse_scenario_text, serialize_scenario  # noqa: E402
from luxnet.simkernel import _build_node, validate_scenario  # noqa: E402

SEEDS = list(range(12)) + [-7, 2**31 - 1, 10**12]


@pytest.mark.parametrize("seed", SEEDS)
def test_crowd_dense_is_deterministic_and_valid(seed):
    text = serialize_scenario(crowd_dense_scenario(seed))
    assert serialize_scenario(crowd_dense_scenario(seed)) == text
    scenario = parse_scenario_text(text)
    validate_scenario(scenario)
    assert serialize_scenario(scenario) == text


def test_other_seeds_give_other_valid_networks():
    texts = {serialize_scenario(crowd_dense_scenario(s)) for s in SEEDS}
    assert len(texts) == len(SEEDS)


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_crowd_dense_layout(seed):
    scenario = crowd_dense_scenario(seed)
    assert scenario.trace_interval_s == scenario.step_s
    assert scenario.etx_policy == "oap" and scenario.interference is not None
    nodes = {spec.node_id: spec for spec in scenario.nodes}
    dim = [nid for nid in nodes if nid % 3 == 2]
    assert len(nodes) == 15 and len(dim) == 5
    for nid, spec in nodes.items():
        lux = [face.ambient_lux for face in spec.faces]
        if nid in dim:
            assert spec.led_power_w == 0.0
            assert all(100.0 <= x <= 250.0 for x in lux[:2])
            continue
        assert all(800.0 <= x <= 1200.0 for x in lux)
        # the emitter lands on a lit face of a dim ring neighbour
        neighbours = {(nid - 2) % 15 + 1, nid % 15 + 1}
        (target,) = [n for n in neighbours if n in dim]
        led = _build_node(spec, scenario.profile).led
        cells = _build_node(nodes[target], scenario.profile).harvesters.cells
        gains = [illuminance_at(c.receiver, 0.0, [led]) for c in cells]
        assert max(gains[:2]) > 100.0


def _write_run(tmp_path, rows, summary="scenario: x\nnode 1: v=1.000000\n"):
    csv = tmp_path / "x.csv"
    csv.write_text("\n".join([check.CSV_HEADER] + rows) + "\n")
    text = tmp_path / "x.summary.txt"
    text.write_text(summary)
    facts = {"ticks": 2, "frames_sent": 1, "interference_drops": 0,
             "delivery_ratio": 1.0}
    return check.fingerprint(csv, text, facts)


ROWS = ["0.00,1,4.500000,4.100000,PSN,Standby,1000.000,",
        "0.10,1,4.499999,4.100000,PSN,Standby,1000.000,etx start",
        "0.20,1,4.499998,4.100000,PSN,EnergyRelay,1000.000,"]


def test_check_accepts_last_digit_changes(tmp_path):
    ref = _write_run(tmp_path, ROWS)
    rows = ROWS[:2] + ["0.20,1,4.499997,4.100001,PSN,EnergyRelay,1000.001,"]
    got = _write_run(tmp_path, rows, "scenario: x\nnode 1: v=1.000001\n")
    assert check.compare(ref, got) == []
    assert ref["counts"]["etx_sessions"] == 1


@pytest.mark.parametrize("row, summary", [
    ("0.20,1,4.499990,4.100000,PSN,EnergyRelay,1000.000,", None),
    ("0.20,1,4.499998,4.100000,PSN,Sleep,1000.000,", None),
    ("0.30,1,4.499998,4.100000,PSN,EnergyRelay,1000.000,", None),
    (None, "scenario: x\nnode 1: v=1.000002\n"),
    (None, "scenario: y\nnode 1: v=1.000000\n"),
])
def test_check_rejects_real_differences(tmp_path, row, summary):
    ref = _write_run(tmp_path, ROWS)
    rows = ROWS[:2] + [row] if row else ROWS
    got = _write_run(tmp_path, rows, summary or "scenario: x\nnode 1: "
                                                "v=1.000000\n")
    assert check.compare(ref, got)


def test_check_holds_every_row_of_a_short_trace(tmp_path):
    rows = [f"{i / 10:.2f},1,4.500000,4.100000,PSN,Standby,1000.000,"
            for i in range(500)]
    ref = _write_run(tmp_path, rows)
    assert ref["stride"] == 1
    # one odd row off by two units: no evenly spaced checkpoint would
    # land on it, and the per-node sum stays within rows x unit
    rows[251] = rows[251].replace("4.500000", "4.500002")
    assert check.compare(ref, _write_run(tmp_path, rows))


def test_invariants_flag_residual_and_liveness(tmp_path):
    got = _write_run(tmp_path, ROWS)
    facts = {"max_conservation_residual": 2e-9,
             "frame_failure_probability_calls": 0}
    problems = check.invariants(
        facts, got, ("etx_sessions", "frame_failure_probability_calls"))
    assert len(problems) == 2


def test_tracer_self_time_and_restore():
    def leaf(x):
        return x + 1

    def outer(x):
        return space.leaf(x) + space.leaf(x)

    space = types.SimpleNamespace(leaf=leaf, outer=outer)
    with Tracer([("outer", space, "outer"), ("leaf", space, "leaf")]) as t:
        assert space.outer(1) == 4
    assert space.leaf is leaf and space.outer is outer
    stats = t.layer_stats()
    assert stats["outer"]["calls"] == 1 and stats["leaf"]["calls"] == 2
    outer_stats = stats["outer"]
    assert math.isclose(outer_stats["self_s"] + stats["leaf"]["inclusive_s"],
                        outer_stats["inclusive_s"])
    assert 0.0 <= outer_stats["self_s"] <= outer_stats["inclusive_s"]


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    for m in spec["end_to_end"]:
        assert m["unit"] == run.END_TO_END[m["name"]]
    for m in spec["per_layer"]:
        assert m["unit"] == run.PER_LAYER[m["name"]][0]


def test_tail_percentile():
    assert run.tail_percentile(list(range(10))) is None
    assert run.tail_percentile([float(i) for i in range(11)]) == (9, 0.0)
    p, value = run.tail_percentile([float(i) for i in range(100)])
    assert (p, value) == (90, 89.0)
