"""Scenario engine tests: validation, delivery timing, light superposition,
determinism, and the conservation audit."""

import functools
import hashlib
import importlib.util
import io
import math
import re
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from float_figures import guard_scenario
from luxnet import energy, simkernel, trace as trace_module
from luxnet.channel import (
    InterferenceModel,
    OpticalReceiver,
    OpticalTransmitter,
    illuminance_at,
)
from luxnet.cli import (
    main,
    parse_scenario_file,
    serialize_scenario,
    shipped_scenario_path,
)
from luxnet.controller import Controller, ControllerConfig
from luxnet.energy import (
    DEFAULT_PROFILE,
    PV_CELLS_PER_NODE,
    STORAGE_FULL_J,
    V_STORAGE_MAX,
    StorageCapacitor,
    clamp_runs,
    net_per_tick,
    storage_step,
    stored_j,
    voltages_after,
)
from luxnet.errors import InfeasibleError, ScenarioError
from luxnet.node import NodeState
from luxnet.protocol import NodeToOap, OapToNode
from luxnet.simkernel import (
    FACE_LETTERS,
    MAX_ROUNDS,
    MAX_TICKS,
    MAX_TRACE_ROWS,
    MIN_EMITTER_DISTANCE_M,
    FaceSpec,
    NodeSpec,
    OapSpec,
    Scenario,
    audit_conservation,
    first_tick,
    run_scenario,
    scenario_sections,
    tick_count,
    validate_scenario,
)
from luxnet.trace import (
    CSV_BLOCK_ROWS,
    CSV_HEADER,
    DISCRETE_ROW,
    LANE_ROW,
    NodeAggregate,
    SegmentLane,
    TraceRow,
    TraceSegment,
    TraceSet,
    format_trace_csv,
    render_summary,
    segment_values,
    summarize,
)


def lone_node(node_id=1, ambient=150.0, **kw):
    return NodeSpec(
        node_id=node_id, position=(0.0, 0.0, 0.0),
        faces=(FaceSpec((0.0, 1.0, 0.0), ambient),
               FaceSpec((0.0, 0.0, 1.0), 0.0),
               FaceSpec((0.0, 0.0, -1.0), 0.0)),
        **kw)


def triangle_nodes(ssn_ambient=150.0, ssn_v_min=3.4, led_power_w=27.8e-3):
    """Two lit emitter nodes aimed at one dim node 15 cm away."""
    ssn = NodeSpec(
        node_id=2, position=(0.0, 0.0, 0.0),
        faces=(FaceSpec((0.0, 1.0, 0.0), ssn_ambient),
               FaceSpec((0.0, 0.0, 1.0), 0.0),
               FaceSpec((0.0, 0.0, -1.0), 0.0)),
        v_min=ssn_v_min)
    bright = (FaceSpec((0.0, 1.0, 0.0), 1000.0),
              FaceSpec((1.0, 0.0, 0.0), 1000.0),
              FaceSpec((0.0, 0.0, 1.0), 1000.0))
    psn1 = NodeSpec(node_id=1, position=(-0.075, 0.1299, 0.0), faces=bright,
                    v_min=3.8, led_power_w=led_power_w,
                    led_aim=(0.075, -0.1299, 0.0))
    psn3 = NodeSpec(node_id=3, position=(0.075, 0.1299, 0.0), faces=bright,
                    v_min=3.8, led_power_w=led_power_w,
                    led_aim=(-0.075, -0.1299, 0.0))
    return (psn1, ssn, psn3)


def csv_text(trace):
    """format_trace_csv's output as one string."""
    out = io.BytesIO()
    format_trace_csv(trace, out)
    return out.getvalue().decode()


def samples_for(trace, node_id):
    return [r for r in trace.rows if r.node_id == node_id and r.event == ""]


def events_for(trace, node_id):
    return [r for r in trace.rows if r.node_id == node_id and r.event]


# ---------------------------------------------------------------------------
# validation


def test_trivial_scenario_one_step():
    sc = Scenario(name="t", duration_s=0.1, nodes=(lone_node(),))
    trace = run_scenario(sc)
    times = sorted({r.time_s for r in samples_for(trace, 1)})
    assert times == [0.0, pytest.approx(0.1)]

    # independent integration of the single step: the node boots in its
    # startup state (standby-class draw) while face A harvests 150 lx
    cap = StorageCapacitor(voltage=4.5, v_min=3.3)
    harvest = 0.9e-3 * 150.0 / 1000.0
    storage_step(cap, net_per_tick(harvest, 550e-6, 0.1))
    assert samples_for(trace, 1)[-1].v_cap == pytest.approx(cap.voltage,
                                                            abs=1e-12)


def out_of_range(key, value):
    """The message of a value outside its key row's interval, as a
    pattern: key is the file key, with its section, such as
    'node.1: v_min_v', or without it."""
    return (rf"^([\w.]+: )?{re.escape(key)} must be in "
            rf"[\[(][^,]+, [^,]+[\])], got {re.escape(repr(value))}$")


@pytest.mark.parametrize("mutate, fragment", [
    (dict(duration_s=-1.0), "duration_s"),
    (dict(duration_s=0.0), "duration_s"),
    (dict(step_s=0.0), "step_s"),
    (dict(trace_interval_s=0.01), "trace_interval_s"),
    (dict(etx_policy="sometimes"), "etx_policy"),
    (dict(nodes=()), "at least one node"),
    (dict(seed=-1), "seed"),
])
def test_scenario_field_validation(mutate, fragment):
    sc = Scenario(name="t", duration_s=10.0, nodes=(lone_node(),))
    with pytest.raises(ScenarioError, match=fragment) as err:
        validate_scenario(sc._replace(**mutate))
    (key, value), = mutate.items()
    if key in ("duration_s", "step_s", "seed"):    # outside its interval
        assert re.match(out_of_range(f"scenario: {key}", value),
                        str(err.value))


@pytest.mark.parametrize("build, message", [
    (lambda sc: sc._replace(oap=OapSpec(
        config=sc.oap.config._replace(t_data_req=0.0))),
     "oap: t_data_req_s must be in (450.0, 600.94], got 0.0"),
    (lambda sc: sc._replace(interference=InterferenceModel()._replace(
        floor=1.0)), "interference: floor must be in [0.0, 1.0), got 1.0"),
])
def test_replaced_values_are_checked_again(build, message):
    # _replace skips a value's constructor checks; validate_scenario checks
    # each row's interval, so a zero request period cannot start a run
    # that never ends
    sc = Scenario(name="t", duration_s=10.0, nodes=(lone_node(),))
    with pytest.raises(ScenarioError, match=re.escape(message)):
        validate_scenario(build(sc))


@pytest.mark.parametrize("spec_kw, fragment", [
    (dict(node_id=0), "1..15"),
    (dict(node_id=16), "1..15"),
    (dict(start_voltage=0.0), "start_voltage"),
    (dict(start_voltage=4.7), "start_voltage"),
    (dict(led_power_w=-1e-3), "led_power"),
    (dict(led_power_w=5e-3), "led_aim"),
    (dict(led_power_w=5e-3, led_aim=(0.0, 0.0, 0.0)), "led_aim"),
    # over the electrical power a session draws
    (dict(led_power_w=0.06, led_aim=(0.0, -1.0, 0.0)), "led_power_w"),
    (dict(ambient=-5.0), "ambient_lux"),
])
def test_node_spec_validation(spec_kw, fragment):
    sc = Scenario(name="t", duration_s=10.0, nodes=(lone_node(**spec_kw),))
    with pytest.raises(ScenarioError, match=fragment):
        validate_scenario(sc)


@pytest.mark.parametrize("height, ok", [
    (MIN_EMITTER_DISTANCE_M, True),
    (math.nextafter(MIN_EMITTER_DISTANCE_M, 0.0), False),
    (0.0, False),
])
def test_an_emitter_keeps_its_distance_from_every_node(height, ok):
    # node 1 straight above node 2's upward face b, aimed at it at the
    # power ceiling
    emitter = NodeSpec(node_id=1, position=(0.0, 0.0, height),
                       faces=lone_node().faces,
                       led_power_w=DEFAULT_PROFILE.etx,
                       led_aim=(0.0, 0.0, -1.0))
    sc = Scenario(name="t", duration_s=10.0,
                  nodes=(emitter, lone_node(node_id=2)))
    if not ok:
        with pytest.raises(ScenarioError, match=(
                r"^node\.1 to node\.2 link: \S+ m apart, closer than the "
                r"0\.01 m an emitter keeps$")):
            validate_scenario(sc)
        return
    validate_scenario(sc)
    # the brightest one emitter makes a face, as validate_scenario states
    face_b = OpticalReceiver(normal=(0.0, 0.0, 1.0))
    led = OpticalTransmitter(DEFAULT_PROFILE.etx, emitter.position,
                             emitter.led_aim)
    assert illuminance_at(face_b, led) == pytest.approx(4.4e5, rel=1e-3)


# each named tuple a scenario file fills, with its table of key rows
KEY_TABLES = (
    (Scenario, simkernel.SCENARIO_KEYS),
    (OapSpec, simkernel.OAP_KEYS),
    (ControllerConfig, simkernel.CONTROLLER_KEYS),
    (NodeSpec, simkernel.NODE_KEYS),
    (FaceSpec, simkernel.FACE_KEYS),
    (InterferenceModel, simkernel.INTERFERENCE_KEYS),
)
# the fields filled from a section, a section name or a face group
SECTION_FIELDS = {"nodes", "oap", "config", "interference", "node_id",
                  "faces"}


def rows_outside(scenario, keys=None):
    """'section: key = value' for each number or integer row of the
    scenario's file sections, of table keys if given, that lies outside
    its row's interval."""
    return [f"{title}: {prefix}{key} = {getattr(obj, name)!r}"
            for title, parts in scenario_sections(scenario)
            for obj, table, prefix in parts if keys is None or table is keys
            for key, name, _, interval in table
            if interval is not None and getattr(obj, name) not in interval]


@functools.lru_cache(maxsize=None)
def shipped_and_crowd_dense():
    """Both shipped scenarios, then crowd-dense seeds 0-15."""
    return tuple([parse_scenario_file(shipped_scenario_path(stem))
                  for stem in ("paper_a", "paper_b")]
                 + [benchmark_workloads().crowd_dense_scenario(seed)
                    for seed in range(16)])


@pytest.mark.parametrize("cls, keys", KEY_TABLES,
                         ids=[cls.__name__ for cls, _ in KEY_TABLES])
def test_every_setting_is_a_scenario_key(cls, keys):
    # a field that is neither is a setting no scenario can set
    rows = {name for _, name, _, _ in keys}
    assert set(cls._fields) - SECTION_FIELDS == rows
    # each number and integer row, and no other, has an interval; a
    # number's is finite at both ends, so it holds no NaN and no infinity
    for key, _, reader, interval in keys:
        assert (interval is not None) == (reader in ("number", "integer"))
        if reader == "number":
            assert math.isfinite(interval.lo), key
            assert math.isfinite(interval.hi), key
    # each holds its field's default, and the values of both shipped
    # files and crowd-dense seeds 0-15
    defaults = cls._field_defaults
    assert [key for key, name, _, interval in keys
            if interval is not None and name in defaults
            and defaults[name] not in interval] == []
    for scenario in shipped_and_crowd_dense():
        assert rows_outside(scenario, keys) == []


def interval_ends(interval):
    """A number row's closed ends, and the float just inside each open
    one."""
    lo, hi, ends = interval
    return [lo if ends[0] == "[" else math.nextafter(lo, hi),
            hi if ends[1] == "]" else math.nextafter(hi, lo)]


def with_row(scenario, cls, name, value):
    """The scenario with field name of its cls part set to value; a node
    or face row goes on the first node, an emitter, and its face a."""
    def put(obj):
        return obj._replace(**{name: value})

    oap = scenario.oap
    if cls is Scenario:
        return put(scenario)
    if cls is OapSpec:
        return scenario._replace(oap=put(oap))
    if cls is ControllerConfig:
        return scenario._replace(oap=oap._replace(config=put(oap.config)))
    if cls is InterferenceModel:
        return scenario._replace(interference=put(scenario.interference))
    node, *others = scenario.nodes
    node = (put(node) if cls is NodeSpec else
            node._replace(faces=(put(node.faces[0]), *node.faces[1:])))
    return scenario._replace(nodes=(node, *others))


NUMBER_ENDS = [(cls, name, value) for cls, keys in KEY_TABLES
               for _, name, reader, interval in keys if reader == "number"
               for value in interval_ends(interval)]


@pytest.mark.parametrize("cls, name, value", NUMBER_ENDS, ids=[
    f"{cls.__name__}.{name}={value!r}" for cls, name, value in NUMBER_ENDS])
def test_each_end_of_a_number_range_is_rejected_or_builds(cls, name, value):
    # a value that validates must build its run: a key row whose end
    # lies past what a constructor accepts lets a valid scenario raise a
    # traceback in _build_node
    scenario = with_row(
        Scenario(name="t", duration_s=600.0, nodes=triangle_nodes(),
                 etx_policy="oap", interference=InterferenceModel()),
        cls, name, value)
    try:
        validate_scenario(scenario)
    except (ScenarioError, InfeasibleError):
        return
    simkernel._Runtime(scenario)


def test_led_power_error_names_the_key():
    sc = Scenario(name="t", duration_s=10.0,
                  nodes=(lone_node(led_power_w=-1e-3),))
    with pytest.raises(ScenarioError, match=r"node\.1: led_power_w must"):
        validate_scenario(sc)


@pytest.mark.parametrize("duration_s, step_s", [
    (10.0, 1e-300),                  # about 1e301 ticks
    (1e300, 1e-300),                 # the tick count overflows to inf
    (MAX_TICKS * 0.1 + 1.0, 0.1),    # ten ticks over the cap
])
def test_tick_cap_is_infeasible(duration_s, step_s):
    # validation only: none of these runs is ever started
    sc = Scenario(name="t", duration_s=duration_s, step_s=step_s,
                  trace_interval_s=step_s, nodes=(lone_node(),))
    with pytest.raises(InfeasibleError, match="ticks"):
        validate_scenario(sc)


def test_tick_cap_admits_a_run_at_the_cap():
    sc = Scenario(name="t", duration_s=MAX_TICKS * 1.0, step_s=1.0,
                  nodes=(lone_node(),))
    validate_scenario(sc)


@functools.lru_cache(maxsize=None)
def benchmark_workloads():
    """perfbench/workloads.py, which builds the crowd-dense network."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up by name
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    return workloads


def stretched_crowd_dense():
    # 15 nodes sampled every tick for 99.9 M ticks: about 1.5e9 rows, a
    # CSV of some 72 GB
    return benchmark_workloads().crowd_dense_scenario(1)._replace(
        duration_s=9.99e6)


def test_trace_row_cap_is_infeasible():
    # validation only: the run is never started
    with pytest.raises(InfeasibleError,
                       match=r"asks for 1\.5e\+09 sample rows"):
        validate_scenario(stretched_crowd_dense())


@pytest.mark.parametrize("ticks, rows_ok", [(MAX_TRACE_ROWS - 1, True),
                                            (MAX_TRACE_ROWS, False)])
def test_trace_row_cap_edge(ticks, rows_ok):
    # one node sampled every tick writes a row at tick 0 and one per tick
    sc = Scenario(name="t", duration_s=float(ticks), step_s=1.0,
                  trace_interval_s=1.0, nodes=(lone_node(),))
    assert ticks <= MAX_TICKS
    if rows_ok:
        validate_scenario(sc)
    else:
        with pytest.raises(InfeasibleError, match="sample rows"):
            validate_scenario(sc)


def test_trace_row_cap_admits_the_shipped_and_benchmark_runs():
    for stem in ("paper_a", "paper_b"):
        validate_scenario(parse_scenario_file(shipped_scenario_path(stem)))
    workloads = benchmark_workloads()
    for seed in range(16):
        validate_scenario(workloads.crowd_dense_scenario(seed))


@pytest.mark.parametrize("dt", [0.05, 0.1, 0.3])
@pytest.mark.parametrize("offset", [1e-9, "dt"])
def test_first_tick_is_the_first_tick_that_reaches_the_instant(dt, offset):
    # against a scan of the same float expression, on and around the grid
    offset = dt if offset == "dt" else offset
    for k in range(0, 1500, 37):
        for instant in (k * dt, k * dt + offset, k * dt + 1e-9, k * dt - 1e-9,
                        math.nextafter(k * dt + offset, math.inf)):
            for start in (0, k // 2, k + 3):
                j = start
                while instant > j * dt + offset:
                    j += 1
                assert first_tick(instant, offset, dt, start) == j


def test_first_tick_edges():
    # an on-grid instant is due on its own tick, not on the one before it
    for k in (1, 3, 6000, 36000):
        assert first_tick(k * 0.1, 1e-9, 0.1, 0) == k
        assert first_tick(float(k) / 10.0, 1e-9, 0.1, 0) == k
    assert first_tick(-math.inf, 0.1, 0.1, 42) == 42
    assert first_tick(math.inf, 1e-9, 0.1, 42) == math.inf


@pytest.fixture
def no_run(monkeypatch):
    """Fail the test if a run starts: validation must stop it first."""
    def refuse(scenario):
        raise AssertionError("a run that validation rejects was started")

    monkeypatch.setattr("luxnet.simkernel._Runtime", refuse)


def test_cli_tick_cap_exits_3_before_the_run(tmp_path, capsys, no_run):
    code = main(["run", shipped_scenario_path("paper_a"), "--step-s",
                 "1e-300", "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert "ticks" in err
    assert not (tmp_path / "paper-a.csv").exists()


def test_cli_trace_row_cap_exits_3_before_the_run(tmp_path, capsys, no_run):
    scn = tmp_path / "crowd.scn"
    scn.write_text(serialize_scenario(stretched_crowd_dense()))
    code = main(["run", str(scn), "--out-dir", str(tmp_path)])
    assert code == 3
    assert "sample rows" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def paper_b_with(title, line):
    """Shipped paper-b's text with line added to section [title], to a
    new section if the file has none."""
    text = open(shipped_scenario_path("paper_b"), encoding="utf-8").read()
    header = f"[{title}]\n"
    if header in text:
        return text.replace(header, header + line + "\n", 1)
    return text + f"\n{header}{line}\n"


@pytest.mark.parametrize("key, value", [
    ("etx_bursts_per_request", "70000"),
    ("etx_bursts_per_request", "-1"),
    ("n_min", "70000"),
])
def test_cli_16_bit_oap_params_exit_2_before_the_run(tmp_path, capsys, no_run,
                                                     key, value):
    # each travelled as a 16-bit frame parameter, and a value outside 16
    # bits once stopped a run at the first frame carrying it.  Both are
    # fixed now (controller.ETX_BURSTS_PER_REQUEST and N_MIN), so a file
    # that sets one, at any value, exits 2 naming it
    scn = tmp_path / "in.scn"
    scn.write_text(paper_b_with("oap", f"{key} = {value}"))
    code = main(["run", str(scn), "--duration-s", "3600",
                 "--out-dir", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == f"error: oap: unknown key '{key}'\n"
    assert not (tmp_path / "paper-b.csv").exists()


@pytest.mark.parametrize("title, line, message", [
    # a node picks its own role with node.select_role; another threshold
    # here once made the access point poll a secondary that sleeps
    ("oap", "psn_pv_threshold_v = 1.0",
     "oap: unknown key 'psn_pv_threshold_v'"),
    ("oap", "stale_after_rounds = 3.0",
     "oap: unknown key 'stale_after_rounds'"),
    ("node.1", "led_half_angle_deg = 15.0",
     "node.1: unknown key 'led_half_angle_deg'"),
    ("calibration", "sleep_w = 0.0002", "unknown section 'calibration'"),
], ids=["psn_pv_threshold_v", "stale_after_rounds", "led_half_angle_deg",
        "calibration"])
def test_cli_removed_settings_exit_2_before_the_run(tmp_path, capsys, no_run,
                                                    title, line, message):
    # every node draws DEFAULT_PROFILE and has the LED_HALF_ANGLE_DEG beam,
    # and the access point's policies are controller constants; n_min and
    # etx_bursts_per_request are the cases of the test above
    scn = tmp_path / "in.scn"
    scn.write_text(paper_b_with(title, line))
    code = main(["run", str(scn), "--out-dir", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "paper-b.csv").exists()


def test_cli_round_cap_exits_3_before_the_run(tmp_path, capsys, no_run):
    # ten ticks, but the controller would work through some 1.7e297
    # request rounds, one at a time
    text = open(shipped_scenario_path("paper_b"), encoding="utf-8").read()
    for key in ("step_s = 0.1", "trace_interval_s = 10.0"):
        text = text.replace(key, key.split(" = ")[0] + " = 1e299")
    scn = tmp_path / "in.scn"
    scn.write_text(text)
    out = tmp_path / "out"
    start = time.perf_counter()
    code = main(["run", str(scn), "--duration-s", "1e300",
                 "--out-dir", str(out)])
    assert time.perf_counter() - start < 5.0
    assert code == 3
    assert capsys.readouterr().err == (
        "error: duration_s / t_data_req_s asks for 1.67e+297 request rounds, "
        "more than the 1000000 a run may take\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("extra_s, ok", [(0.0, True), (600.0, False)])
def test_round_cap_edge(extra_s, ok):
    # 600 s request rounds: MAX_ROUNDS of them fit, one more does not
    sc = Scenario(name="t", duration_s=MAX_ROUNDS * 600.0 + extra_s,
                  step_s=10.0, nodes=(lone_node(),))
    assert sc.oap.config.t_data_req == 600.0
    if ok:
        validate_scenario(sc)
    else:
        with pytest.raises(InfeasibleError, match=r"asks for 1e\+06 request "
                           r"rounds, more than the 1000000 "):
            validate_scenario(sc)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("bad", [NAN, INF])
@pytest.mark.parametrize("build, key", [
    (lambda sc, x: sc._replace(duration_s=x), "duration_s"),
    (lambda sc, x: sc._replace(step_s=x), "step_s"),
    (lambda sc, x: sc._replace(trace_interval_s=x), "trace_interval_s"),
    (lambda sc, x: sc._replace(nodes=(lone_node(ambient=x),)),
     "face_a_ambient_lux"),
    (lambda sc, x: sc._replace(nodes=(lone_node(start_voltage=x),)),
     "start_voltage_v"),
    (lambda sc, x: sc._replace(nodes=(lone_node(v_min=x),)), "v_min_v"),
    (lambda sc, x: sc._replace(nodes=(lone_node(led_power_w=x),)),
     "led_power_w"),
    (lambda sc, x: sc._replace(nodes=(lone_node(sensor_base_c=x),)),
     "sensor_base_c"),
    (lambda sc, x: sc._replace(oap=OapSpec(
        config=sc.oap.config._replace(etx_offset_s=x))), "etx_offset_s"),
    (lambda sc, x: sc._replace(interference=InterferenceModel(
        midpoint_lux=x)), "midpoint_lux"),
    (lambda sc, x: sc._replace(interference=InterferenceModel(
        steepness_per_lux=x)), "steepness_per_lux"),
])
def test_non_finite_numbers_rejected(build, key, bad):
    # every number interval is finite at both ends, and NaN is in none
    sc = Scenario(name="t", duration_s=10.0, nodes=(lone_node(),))
    with pytest.raises(ScenarioError, match=out_of_range(key, bad)):
        validate_scenario(build(sc, bad))


def with_face_a_normal(sc, normal):
    node = lone_node()
    faces = (node.faces[0]._replace(normal=normal),) + node.faces[1:]
    return sc._replace(nodes=(node._replace(faces=faces),))


def with_led_aim(sc, aim):
    return sc._replace(nodes=(lone_node(led_power_w=5e-3, led_aim=aim),))


# each vector the cases below set, with its section and file key
VECTOR_KEYS = {"node.1 position": "node.1: position_m",
               "node.1 face normal": "node.1: face_a_normal",
               "node.1 led_aim": "node.1: led_aim",
               "oap position": "oap: position_m"}


@pytest.mark.parametrize("bad", [
    (NAN, 0.0, 1.0), (0.0, INF, 1.0), (0.0, 0.0, -INF),
    (0.0, 1.0), (0.0, 1.0, 0.0, 0.0),
])
@pytest.mark.parametrize("build, what", [
    (lambda sc, v: sc._replace(nodes=(lone_node()._replace(position=v),)),
     "node.1 position"),
    (with_face_a_normal, "node.1 face normal"),
    (with_led_aim, "node.1 led_aim"),
    (lambda sc, v: sc._replace(oap=sc.oap._replace(position=v)),
     "oap position"),
])
def test_non_finite_or_misshapen_vectors_rejected(build, what, bad):
    sc = Scenario(name="t", duration_s=10.0, nodes=(lone_node(),))
    message = f"{VECTOR_KEYS[what]} must be three finite numbers, got {bad!r}"
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        validate_scenario(build(sc, bad))


@pytest.mark.parametrize("bad", ["123", (0.0, 1.0, "x"), (10 ** 400, 0, 0)])
def test_vectors_that_are_not_three_floats_rejected(bad):
    sc = Scenario(name="t", duration_s=10.0, nodes=(lone_node(),))
    message = f"oap: position_m must be three finite numbers, got {bad!r}"
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        validate_scenario(sc._replace(oap=sc.oap._replace(position=bad)))


@pytest.mark.parametrize("build, message", [
    (with_face_a_normal, "node.1: face normal must be nonzero"),
    (with_led_aim, "node.1: led_aim must be nonzero"),
])
def test_zero_direction_vectors_rejected(build, message):
    sc = Scenario(name="t", duration_s=10.0, nodes=(lone_node(),))
    with pytest.raises(ScenarioError, match=re.escape(message)):
        validate_scenario(build(sc, (0.0, 0.0, 0.0)))


def test_duplicate_and_bad_shape_rejected():
    sc = Scenario(name="t", duration_s=10.0,
                  nodes=(lone_node(1), lone_node(1)))
    with pytest.raises(ScenarioError, match="duplicate"):
        validate_scenario(sc)

    two_faces = NodeSpec(node_id=1, position=(0, 0, 0),
                         faces=(FaceSpec((0, 1, 0), 10.0),
                                FaceSpec((0, 0, 1), 0.0)))
    with pytest.raises(ScenarioError, match="three faces"):
        validate_scenario(Scenario(name="t", duration_s=10.0,
                                   nodes=(two_faces,)))
    # the file format names one face per PV cell
    assert len(FACE_LETTERS) == PV_CELLS_PER_NODE

    with pytest.raises(ScenarioError, match=out_of_range(
            "oap: t_int_s", 70000.0)):
        validate_scenario(Scenario(
            name="t", duration_s=10.0, nodes=(lone_node(),),
            oap=OapSpec(config=ControllerConfig(t_int=70000.0))))


def test_storage_limits_wrapped_with_node_label():
    bad = lone_node(v_min=3.0)   # sits below the lockout threshold
    with pytest.raises(ScenarioError, match="node.1"):
        run_scenario(Scenario(name="t", duration_s=1.0, nodes=(bad,)))


def test_sharing_needs_an_emitter():
    sc = Scenario(name="t", duration_s=10.0, nodes=(lone_node(),),
                  etx_policy="oap")
    with pytest.raises(InfeasibleError, match="emitter"):
        run_scenario(sc)
    with pytest.raises(InfeasibleError, match="emitter"):
        run_scenario(sc._replace(etx_policy="autonomous"))


# ---------------------------------------------------------------------------
# frame timing and flooding


def test_delivery_lands_on_next_grid_tick():
    # the opening poll goes on the air at t=1.0; with a 44 ms airtime it
    # must land on the first grid boundary after that, whatever the grid
    for dt, expected in ((0.1, 1.1), (0.5, 1.5)):
        sc = Scenario(name="t", duration_s=3.0, step_s=dt,
                      nodes=(lone_node(ambient=1000.0),))
        trace = run_scenario(sc)
        accepted = [r for r in events_for(trace, 1)
                    if r.event == "data request accepted"]
        assert len(accepted) == 1
        assert accepted[0].time_s == pytest.approx(expected)


def test_broadcast_floods_and_unicast_wakes_bystanders():
    sc = Scenario(name="t", duration_s=3.0,
                  nodes=(lone_node(1, ambient=1000.0),
                         lone_node(2, ambient=1000.0)))
    trace = run_scenario(sc)
    # both nodes decode the configuration broadcast
    for nid in (1, 2):
        assert any(r.event.startswith("config") for r in events_for(trace, nid))
    # the poll addressed to node 1 costs node 2 a false wakeup
    assert any(r.event == "false wakeup" and r.time_s == pytest.approx(1.1)
               for r in events_for(trace, 2))
    assert any(r.event == "data request accepted" for r in events_for(trace, 1))
    assert summarize(trace).delivery_ratio == 1.0


def test_report_reaches_controller_registry():
    sc = Scenario(name="t", duration_s=30.0,
                  nodes=(lone_node(1, ambient=1000.0),))
    trace = run_scenario(sc)
    assert any("node 1 is PSN" in line for line in trace.controller_log)
    sent = [e for e in trace.frame_log if e.origin == "node 1"]
    assert len(sent) >= 1
    delivered_up = [e for e in trace.frame_log
                    if e.outcome == "delivered" and e.dest == 0]
    assert len(delivered_up) == len(sent)


# ---------------------------------------------------------------------------
# burst light superposition


# SHA-256 of every emitter-to-face illuminance at full drive that a run
# builds (_Lane.incoming), one "scenario emitter node face float.hex"
# line each, over shipped_and_crowd_dense(): 6,744 floats
GAIN_TABLE_DIGEST = (
    "65a5b3d9796bfdfc3e8fac75ba97fb05f042123e37ce8bb2f717d9ca9daa439d")


def lambertian_lux(face, led):
    """The lux led adds on face by the generalised Lambertian gain, float
    operation by float operation as the recorded table was computed: a
    15 degree beam, 2.5e-3 m^2 faces, 250 lm/W, and each angle from its
    unit vectors' dot product, clamped to 90 degrees."""
    def norm(v):
        return math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])

    def angle_deg(a, b):
        na, nb = norm(a), norm(b)
        (ax, ay, az), (bx, by, bz) = ([x / na for x in a],
                                      [x / nb for x in b])
        cosine = min(max(ax * bx + ay * by + az * bz, -1.0), 1.0)
        return math.degrees(math.acos(cosine))

    sep = [r - t for r, t in zip(face.position, led.position)]
    m = -math.log(2.0) / math.log(math.cos(math.radians(15.0)))
    alpha = math.radians(min(angle_deg(led.boresight, sep), 90.0))
    beta = math.radians(min(angle_deg(face.normal, [-x for x in sep]), 90.0))
    geometric = (m + 1.0) * 2.5e-3 / (2.0 * math.pi * norm(sep) ** 2)
    gain = geometric * math.cos(alpha) ** m * math.cos(beta)
    return 250.0 * (led.optical_power_w * gain / 2.5e-3)


def test_gain_table_keeps_its_bits():
    lines = []
    for index, scenario in enumerate(shipped_and_crowd_dense()):
        lanes = simkernel._Runtime(scenario).lanes
        leds = {lane.record.node_id: lane.record.led for lane in lanes}
        for lane in lanes:
            node = lane.record.node_id
            for emitter, row in sorted(lane.incoming.items()):
                for face, lux in enumerate(row):
                    expected = lambertian_lux(lane.harvester.cells[face],
                                              leds[emitter])
                    assert lux.hex() == expected.hex(), (
                        f"{scenario.name}: emitter {emitter} on node {node} "
                        f"face {FACE_LETTERS[face]}")
                    lines.append(f"{index} {emitter} {node} {face} "
                                 f"{lux.hex()}")
    assert len(lines) == 6744
    assert sha256_hex("\n".join(lines).encode()) == GAIN_TABLE_DIGEST


def test_burst_lux_matches_link_budget():
    """During a session the dim node's face A sees ambient plus the gain
    computed straight from the channel module, and the time-weighted lux
    integral carries exactly one analytic session duration per emitter."""
    sc = Scenario(name="t", duration_s=800.0, nodes=triangle_nodes(),
                  etx_policy="oap")
    trace = run_scenario(sc)
    summ = summarize(trace)

    runtime_ssn = [r for r in trace.rows if r.node_id == 2]
    peak = max(r.lux for r in runtime_ssn)

    # link budget recomputed independent of the kernel plumbing
    led = OpticalTransmitter(optical_power_w=27.8e-3,
                             position=(-0.075, 0.1299, 0.0),
                             boresight=(0.075, -0.1299, 0.0))
    face_a = OpticalReceiver(position=(0.0, 0.0, 0.0), normal=(0.0, 1.0, 0.0))
    gain = illuminance_at(face_a, led)
    assert peak == pytest.approx(150.0 + gain, rel=1e-9)

    # each emitter runs one floor-limited session: available energy over
    # the floor divided by the net drain while lit at 1000 lx per face
    available = 0.5 * 0.4 * (4.5 ** 2 - 3.8 ** 2)
    net_drain = 52.7e-3 + 10e-6 - 3 * 0.9e-3
    session_s = available / net_drain
    excess = trace.aggregates[2].lux_integral - 150.0 * trace.duration_s
    assert excess == pytest.approx(2.0 * gain * session_s, rel=1e-6)
    assert summ.nodes[2].lux_max == pytest.approx(peak)


def test_sessions_do_not_overlap():
    sc = Scenario(name="t", duration_s=800.0, nodes=triangle_nodes(),
                  etx_policy="oap")
    trace = run_scenario(sc)
    windows = {}
    for nid in (1, 3):
        evs = events_for(trace, nid)
        start = [r.time_s for r in evs if r.event == "etx start"]
        end = [r.time_s for r in evs if r.event.startswith("etx end")]
        assert len(start) == 1 and len(end) == 1
        windows[nid] = (start[0], end[0])
    a, b = sorted(windows.values())
    assert a[1] < b[0]


def test_autonomous_policy_needs_no_requests():
    psn = NodeSpec(node_id=1, position=(0.0, 0.1, 0.0),
                   faces=(FaceSpec((0.0, 1.0, 0.0), 1000.0),
                          FaceSpec((1.0, 0.0, 0.0), 1000.0),
                          FaceSpec((0.0, 0.0, 1.0), 1000.0)),
                   v_min=3.8, led_power_w=27.8e-3, led_aim=(0.0, -1.0, 0.0))
    sc = Scenario(name="t", duration_s=1000.0,
                  nodes=(psn, lone_node(2, ambient=150.0, v_min=3.4)),
                  etx_policy="autonomous")
    trace = run_scenario(sc)
    evs = events_for(trace, 1)
    starts = [r for r in evs if r.event == "etx start"]
    assert len(starts) >= 2
    assert not any("etx request" in r.event for r in evs)


# ---------------------------------------------------------------------------
# interference gating


def test_interference_applies_only_while_burst_is_on_air():
    # a dark bystander node misses downlink frames during a burst but
    # decodes the broadcast that goes out before any emitter lights up
    psn = NodeSpec(node_id=1, position=(0.0, 0.1, 0.0),
                   faces=(FaceSpec((0.0, 1.0, 0.0), 60000.0),
                          FaceSpec((1.0, 0.0, 0.0), 60000.0),
                          FaceSpec((0.0, 0.0, 1.0), 60000.0)),
                   v_min=3.8, led_power_w=27.8e-3, led_aim=(0.0, -1.0, 0.0))
    dark = NodeSpec(node_id=2, position=(0.0, 0.0, 0.0),
                    faces=(FaceSpec((0.0, 1.0, 0.0), 0.0),
                           FaceSpec((0.0, 0.0, 1.0), 0.0),
                           FaceSpec((0.0, 0.0, -1.0), 0.0)))
    sc = Scenario(name="t", duration_s=120.0, nodes=(psn, dark),
                  etx_policy="autonomous", seed=0,
                  interference=InterferenceModel(midpoint_lux=300.0,
                                                 steepness_per_lux=0.02))
    trace = run_scenario(sc)
    # broadcast at t=0 precedes the first session tick and must get through
    assert any(r.event.startswith("config") for r in events_for(trace, 2))
    # the harvest at 60 klx outruns the emitter, so sessions run the full
    # window back to back and the staggered poll lands mid-burst
    lost = [e for e in trace.frame_log
            if e.outcome == "failed" and e.cause == "interference"
            and e.dest == 2]
    assert len(lost) >= 1


def test_no_interference_without_model():
    sc = Scenario(name="t", duration_s=800.0, nodes=triangle_nodes(),
                  etx_policy="oap")
    trace = run_scenario(sc)
    assert not any(e.cause == "interference" for e in trace.frame_log)
    assert summarize(trace).delivery_ratio == 1.0


def test_no_interference_draw_without_a_burst(monkeypatch):
    # an interference model on a cell whose emitters never light: the
    # kernel asks for no failure probability and loses no frame
    def no_burst_on_air(*args, **kwargs):
        raise AssertionError("frame_failure_probability called")

    monkeypatch.setattr(simkernel, "frame_failure_probability",
                        no_burst_on_air)
    sc = Scenario(name="t", duration_s=800.0, nodes=triangle_nodes(),
                  interference=InterferenceModel())
    trace = run_scenario(sc)
    assert any(e.outcome == "delivered" and e.dest != 0
               for e in trace.frame_log)
    assert not any(e.cause == "interference" for e in trace.frame_log)


# ---------------------------------------------------------------------------
# determinism and numerics


def test_identical_runs_are_byte_identical():
    sc = Scenario(name="t", duration_s=800.0, nodes=triangle_nodes(),
                  etx_policy="oap", seed=7,
                  interference=InterferenceModel())
    a = csv_text(run_scenario(sc))
    b = csv_text(run_scenario(sc))
    assert a == b


def test_seed_is_inert_without_stochastic_inputs():
    sc = Scenario(name="t", duration_s=300.0, nodes=triangle_nodes(),
                  etx_policy="oap")
    a = csv_text(run_scenario(sc))
    b = csv_text(run_scenario(sc._replace(seed=99)))
    assert a == b


def test_step_halving_converges_below_millivolt():
    # 800 s covers boot, the first full round, both burst sessions, and
    # ends in a quiet recovery stretch where nothing steep is running
    sc = Scenario(name="t", duration_s=800.0, nodes=triangle_nodes(),
                  etx_policy="oap")
    coarse = run_scenario(sc)
    fine = run_scenario(sc._replace(step_s=0.05))
    for nid in (1, 2, 3):
        va = coarse.aggregates[nid].final_voltage
        vb = fine.aggregates[nid].final_voltage
        assert abs(va - vb) < 1e-3, f"node {nid}: {va} vs {vb}"


def test_step_halving_keeps_events_once_config_matters():
    # the opening config broadcast (t_int=600 s) lands on the second tick
    # at either step; at 0.05 s that is the tick on which the 90 ms Init
    # window closes, and the dim node must still hear it and wake at 600 s
    sc = Scenario(name="t", duration_s=760.0, nodes=triangle_nodes(),
                  oap=OapSpec(config=ControllerConfig(t_int=600.0)),
                  etx_policy="oap")
    coarse = run_scenario(sc)
    fine = run_scenario(sc._replace(step_s=0.05))
    assert "timer wake" in [r.event for r in events_for(coarse, 2)]
    for nid in (1, 2, 3):
        assert ([r.event for r in events_for(coarse, nid)]
                == [r.event for r in events_for(fine, nid)]), f"node {nid}"
        va = coarse.aggregates[nid].final_voltage
        vb = fine.aggregates[nid].final_voltage
        assert abs(va - vb) < 1e-3, f"node {nid}: {va} vs {vb}"


def test_step_halving_keeps_events_below_the_lockout():
    # the node boots below v_ovdis with its load cut, so it picks no role
    # before the lockout, whether its Init window closes on the first
    # tick (0.1 s) or the second (0.05 s); it recharges and boots later
    node = NodeSpec(node_id=1, position=(0.0, 0.0, 0.0),
                    faces=(FaceSpec((0.0, 1.0, 0.0), 1000.0),
                           FaceSpec((1.0, 0.0, 0.0), 1000.0),
                           FaceSpec((0.0, 0.0, 1.0), 1000.0)),
                    start_voltage=3.1)
    sc = Scenario(name="t", duration_s=900.0, nodes=(node,))
    coarse = run_scenario(sc)
    fine = run_scenario(sc._replace(step_s=0.05))
    events = [r.event for r in events_for(coarse, 1)]
    assert events[:2] == ["depleted", "recovered from depletion"]
    assert events == [r.event for r in events_for(fine, 1)]
    va = coarse.aggregates[1].final_voltage
    vb = fine.aggregates[1].final_voltage
    assert abs(va - vb) < 1e-3, f"{va} vs {vb}"


def test_conservation_audit_is_tight():
    sc = Scenario(name="t", duration_s=800.0, nodes=triangle_nodes(),
                  etx_policy="oap")
    residuals = audit_conservation(run_scenario(sc))
    assert all(r < 1e-9 for r in residuals.values())


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_paper_b_first_hour_digests(tmp_path):
    # emitter sessions change the light field, and so the harvest,
    # mid-run; any change to the per-tick arithmetic moves these bytes
    code = main(["run", shipped_scenario_path("paper_b"),
                 "--duration-s", "3600", "--out-dir", str(tmp_path)])
    assert code == 0
    assert sha256_hex((tmp_path / "paper-b.csv").read_bytes()) == (
        "b0befeba7029f014f1620b1a8d923b7057be603f75bac6236424619de4f24e21")
    assert sha256_hex((tmp_path / "paper-b.summary.txt").read_bytes()) == (
        "bb50943520bb31a42948b557774c32fff4fecf87b66dec280165b65e2bc24ef3")


# CSV and summary of `luxnet run` on each shipped file as shipped:
# paper-a for 12 h, paper-b for 60 h
SHIPPED_DIGESTS = {
    "paper_a": (
        "d61b83cc3db8dca09b031cea34043e42cdebf74df739c15063663a8729da685f",
        "5aca1b15e6be20332b105b00fba5935d6aebe791efaf94397ad3be366454a914"),
    "paper_b": (
        "a22b10d92a8fdcd502fe108b3fb0f5eac30b1c805849b13e86aa7c7fd3a533c7",
        "9caa6269f65d91e8d6dac3a97d2e2741c954d0b12b46049f83016b9f255afebe"),
}


def keep_traces(monkeypatch):
    """The traces `luxnet run` computes from here on, in run order."""
    traces = []

    def keeping(scenario):
        traces.append(run_scenario(scenario))
        return traces[-1]

    monkeypatch.setattr("luxnet.cli.run_scenario", keeping)
    return traces


# the work a run and its CSV do, counted by wrapping the names the kernel
# and the renderer look up at call time: a full tick is a one-tick
# stretch, an anchor is one band_exit, a lane-step is one storage_step,
# and only the kernel calls net_per_tick, once per anchor.  The kernel's
# records are its event rows and its segments, one per quiet stretch
# that holds trace instants and one per sample at a stretch's end,
# however many nodes it samples
WORK_TARGETS = {
    "stretches": [(simkernel._Runtime, "stretch")],
    "full ticks": [(simkernel._Runtime, "full_tick")],
    "anchors": [(simkernel, "band_exit")],
    "lane-steps": [(simkernel, "storage_step")],
    "step_node": [(simkernel, "step_node")],
    "apply_hysteresis": [(simkernel, "apply_hysteresis")],
    "_closed_form": [(energy, "_closed_form")],
    "net_per_tick": [(simkernel, "net_per_tick"), (energy, "net_per_tick")],
    "_segment_block": [(trace_module, "_segment_block")],
    "_discrete_block": [(trace_module, "_discrete_block")],
    "records": [(simkernel, "TraceRow"), (simkernel, "TraceSegment")],
}


def work(*counts):
    """The counts, in WORK_TARGETS order, by name."""
    return dict(zip(WORK_TARGETS, counts, strict=True))


# the work of each run below: deterministic, so pinned exactly like a
# digest; a change that moves a count re-records it and says why.  Each
# anchor ends in one lane-step, and one net_per_tick sets its net
SHIPPED_WORK = {
    "paper_a": work(908, 611, 1_070, 1_070, 610, 3, 2_860, 1_070, 76, 77,
                    691),
    "paper_b": work(10_199, 6_241, 13_475, 13_475, 6_935, 1_077, 41_814,
                    13_475, 1_796, 1_797, 9_810),
}
CROWD_DENSE_WORK = {
    1: work(448, 284, 2_422, 2_422, 1_414, 22, 7_696, 2_422, 208, 130,
            1_273),
    3: work(454, 287, 2_402, 2_402, 1_390, 22, 7_559, 2_402, 211, 132,
            1_296),
}


def count_work(monkeypatch):
    """The calls of each WORK_TARGETS count from here on."""
    counts = dict.fromkeys(WORK_TARGETS, 0)
    for name, targets in WORK_TARGETS.items():
        for owner, attr in targets:
            def counting(*args, real=getattr(owner, attr), name=name):
                counts[name] += 1
                return real(*args)

            monkeypatch.setattr(owner, attr, counting)
    return counts


# the nodes of each shipped run whose storage never reaches full or
# empty: they book no clamp loss, not even a rounding residue
UNCLAMPED = {"paper_a": [2], "paper_b": [2]}


@pytest.mark.parametrize("stem", sorted(SHIPPED_DIGESTS))
def test_shipped_run_digests(tmp_path, capsys, monkeypatch, stem):
    counts = count_work(monkeypatch)
    traces = keep_traces(monkeypatch)
    assert main(["run", shipped_scenario_path(stem),
                 "--out-dir", str(tmp_path)]) == 0
    name = stem.replace("_", "-")
    assert (sha256_hex((tmp_path / f"{name}.csv").read_bytes()),
            sha256_hex((tmp_path / f"{name}.summary.txt").read_bytes())
            ) == SHIPPED_DIGESTS[stem]
    assert counts == SHIPPED_WORK[stem]
    [trace] = traces
    assert [nid for nid, agg in trace.aggregates.items()
            if agg.clamp_loss_j == 0.0] == UNCLAMPED[stem]


def test_shared_light_with_interference_digests():
    sc = guard_scenario()
    trace = run_scenario(sc)
    assert any(e.cause == "interference" for e in trace.frame_log)
    assert sha256_hex(csv_text(trace).encode()) == (
        "8ac156b97aaf15ae1d302eaa17e76abd59dd412c5a53cc00ea91a792701e0fbc")
    assert sha256_hex(render_summary(summarize(trace)).encode()) == (
        "14b7f3b152cb610a5fb5d2688a1373f5b88dabbb8af348d32b8ae38038cf8f1f")


# CSV and summary of `luxnet run` on crowd-dense, recorded before the CSV
# pass booked the summary's final quarter, and its controller log, one
# line per entry, recorded before the storage read its capacitance and
# leak from module constants
CROWD_DENSE_DIGESTS = {
    1: ("a757bd7c3b46ee51bad731a1b966acb43a502a04d0a8b86f93898cc883f527ef",
        "091b0b361c47660740dfa850bd2a6da08ee0b9b20ecf69ccc37688c1152e466f",
        "5bb8beedf3059b4ee31e76ec8adc9510612d021fb574bc3ee2a3d420a10e2a3a"),
    3: ("6e1b2bd4c9bf459173397cf03645ea3ba41624e70f6ffdfd19f6a0f1a0b09fcb",
        "6284d0ac4c26bd5f35275a9dcf990162462e8fadacb35225f7dbe4c74ce950a1",
        "f7d09c1e5a02e5b96b79ccba07d6629ab5ba9c76f5ea3f9e8047ccc1a65807ee"),
}


def run_crowd_dense(tmp_path, seed):
    """`luxnet run` on crowd-dense at seed; the paths of its CSV and
    summary."""
    scn = tmp_path / "crowd.scn"
    scn.write_text(serialize_scenario(
        benchmark_workloads().crowd_dense_scenario(seed)))
    assert main(["run", str(scn), "--out-dir", str(tmp_path)]) == 0
    stem = tmp_path / f"crowd-dense-{seed}"
    return stem.with_suffix(".csv"), stem.with_suffix(".summary.txt")


@pytest.mark.parametrize("seed", sorted(CROWD_DENSE_DIGESTS))
def test_crowd_dense_digests(tmp_path, capsys, monkeypatch, seed):
    # fifteen nodes sampled every tick: nearly every row sits in a
    # segment, and the summary's final quarter in a few of them
    counts = count_work(monkeypatch)
    traces = keep_traces(monkeypatch)
    csv_path, summary_path = run_crowd_dense(tmp_path, seed)
    [trace] = traces
    log = "".join(line + "\n" for line in trace.controller_log)
    assert (sha256_hex(csv_path.read_bytes()),
            sha256_hex(summary_path.read_bytes()),
            sha256_hex(log.encode())) == CROWD_DENSE_DIGESTS[seed]
    assert counts == CROWD_DENSE_WORK[seed]


def test_crowd_dense_cuts_no_quiet_stretch_where_nothing_acts(monkeypatch):
    # a quiet stretch ends where a lane's event falls, so that lane is
    # stepped there, or on a tick that takes the full path, or at the
    # run's end; never at the stale event of a lane whose light the
    # stretch's own first tick changed, which crowd-dense seed 1 once cut
    # at tick 17,566
    runtime = simkernel._Runtime
    stretch, full_tick = runtime.stretch, runtime.full_tick
    step_to = simkernel._Lane.step_to
    stepped, full, quiet = set(), set(), []

    def stepping(lane, tick, dt):
        if tick != lane.at:
            stepped.add(tick)
        step_to(lane, tick, dt)

    def stretching(rt, i, ticks, results=None):
        end = stretch(rt, i, ticks, results)
        if results is None:
            quiet.append(end)
        return end

    def counting(rt, i):
        full.add(i)
        return full_tick(rt, i)

    monkeypatch.setattr(simkernel._Lane, "step_to", stepping)
    monkeypatch.setattr(runtime, "stretch", stretching)
    monkeypatch.setattr(runtime, "full_tick", counting)
    scenario = benchmark_workloads().crowd_dense_scenario(1)
    run_scenario(scenario)
    n_steps = tick_count(scenario.duration_s, scenario.step_s)
    assert [end for end in quiet
            if end not in stepped and end not in full and end != n_steps
            ] == []
    assert len(quiet) == 448 - 284


@pytest.mark.parametrize("name", [
    "frame_failure_probability", "storage_step", "state_draw_w",
    "apply_hysteresis", "step_node"])
def test_the_kernel_looks_its_layers_up_at_call_time(monkeypatch, name):
    # the benchmark worker swaps simkernel.frame_failure_probability for
    # a counter, which crowd-dense's liveness check reads, and its tracer
    # wraps the others in simkernel's globals; a kernel that kept any of
    # them in a local would read as idle there
    real = getattr(simkernel, name)
    calls = []

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(simkernel, name, counting)
    run_scenario(benchmark_workloads().crowd_dense_scenario(1))
    assert calls


# the sample rows of crowd-dense seed 1, all of them in segments
ROWS_IN_SEGMENTS = 270_015


def test_a_run_expands_each_segment_once(tmp_path, capsys, monkeypatch):
    # the CSV pass books the summary's final quarter as it renders it,
    # so summarize expands no voltage again; a segment of one instant is
    # read through voltages_after, a longer one through segment_values
    expanded = []
    held = []
    read = []

    def reading(anchors):
        read.append(len(anchors))
        return voltages_after(anchors)

    def counting(segment, instants=None, runs=None):
        times, values = segment_values(segment, instants, runs)
        expanded.append(len(times) * len(values))
        if runs is not None:
            held.append(sum(lo + len(times) - hi for lo, hi, _, _ in runs))
        return times, values

    monkeypatch.setattr("luxnet.trace.segment_values", counting)
    monkeypatch.setattr("luxnet.trace.voltages_after", reading)
    traces = keep_traces(monkeypatch)
    run_crowd_dense(tmp_path, 1)
    [trace] = traces
    segments = [s for s in trace.records if type(s) is TraceSegment]
    rows = sum(len(s.instants) * len(s.lanes) for s in segments)
    # summarize expanding the final quarter again made 329,310
    assert sum(expanded) + sum(read) == rows == ROWS_IN_SEGMENTS
    assert sum(read) == 15 * sum(len(s.instants) == 1 for s in segments)
    # the CSV pass hands in each lane's runs: the rows of a storage held
    # at a clamp print one voltage formatted once
    assert sum(held) == 52_495


# ---------------------------------------------------------------------------
# traffic direction and the frame log


def traffic_scenarios():
    paper_b = parse_scenario_file(shipped_scenario_path("paper_b"))
    return {
        # emitter sessions under the access point's sharing schedule
        "paper-b-2h": paper_b._replace(duration_s=7200.0),
        # frames lost to interference while an emitter is on the air
        "guard": guard_scenario(),
        # in the dark, node 1 is locked out from the start and node 2
        # sleeps through its poll at 41 s: each drops what it is sent
        "drops": Scenario(
            name="t", duration_s=60.0,
            nodes=(lone_node(1, ambient=0.0, start_voltage=3.1),
                   lone_node(2, ambient=0.0)),
            oap=OapSpec(config=ControllerConfig(slot_spacing_s=40.0))),
    }


@pytest.fixture(scope="module", params=sorted(traffic_scenarios()))
def traffic(request):
    """One run with every frame a node is handed and every uplink recorded."""
    handed, uplinks = [], []
    step_node = simkernel.step_node
    on_uplink = Controller.on_uplink

    def spy_step_node(record, dt, now, lux_per_face, harvest_w, frames=()):
        handed.extend(frames)
        return step_node(record, dt, now, lux_per_face, harvest_w, frames)

    def spy_on_uplink(controller, frame, now):
        uplinks.append(frame)
        on_uplink(controller, frame, now)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simkernel, "step_node", spy_step_node)
        mp.setattr(Controller, "on_uplink", spy_on_uplink)
        trace = run_scenario(traffic_scenarios()[request.param])
    return request.param, trace, handed, uplinks


def test_nodes_hear_only_the_access_point(traffic):
    name, _, handed, uplinks = traffic
    assert handed
    assert all(isinstance(f.payload, OapToNode) for f in handed)
    assert all(isinstance(f.payload, NodeToOap) for f in uplinks)
    if name != "drops":
        assert uplinks


def test_frame_log_balances_the_counters(traffic):
    name, trace, _, _ = traffic
    by_outcome = {}
    for entry in trace.frame_log:
        by_outcome.setdefault(entry.outcome, []).append(entry)
    sent = by_outcome.get("sent", [])
    delivered = by_outcome.get("delivered", [])
    failed = by_outcome.get("failed", [])
    assert set(by_outcome) <= {"sent", "delivered", "failed"}
    assert all(entry.cause for entry in failed)
    assert all(entry.cause == "" for entry in delivered)
    assert trace.frames_sent == len(sent)
    assert trace.deliveries_made == len(delivered)
    assert trace.deliveries_intended == len(delivered) + len(failed)
    expected_causes = {
        "paper-b-2h": set(), "guard": {"interference"},
        "drops": {"depleted receiver", "receiver not listening"}}
    assert {entry.cause for entry in failed} == expected_causes[name]


def test_sample_rows_carry_the_harvest_tally(traffic):
    _, trace, _, _ = traffic
    for nid, agg in trace.aggregates.items():
        tally = [row.harvested_j for row in samples_for(trace, nid)]
        assert tally[0] == 0.0
        assert all(a <= b for a, b in zip(tally, tally[1:]))
        assert tally[-1] == agg.harvested_j


# ---------------------------------------------------------------------------
# summary reductions


def test_lifetime_is_first_depletion():
    # a nearly flat node in the dark: boots, gets refused, sleeps, dies
    node = lone_node(1, ambient=0.0, start_voltage=3.22, v_min=3.3)
    sc = Scenario(name="t", duration_s=300.0, nodes=(node,))
    trace = run_scenario(sc)
    agg = trace.aggregates[1]
    assert agg.depleted_at is not None
    assert 100.0 < agg.depleted_at < 200.0
    summ = summarize(trace)
    assert summ.nodes[1].lifetime_s == agg.depleted_at
    assert any(r.event == "data request refused (guard)"
               for r in events_for(trace, 1))
    assert any(r.event == "depleted" for r in events_for(trace, 1))
    assert summ.nodes[1].lux_mean == 0.0
    assert summ.nodes[1].lux_max == 0.0


def test_lux_statistics_are_time_weighted():
    sc = Scenario(name="t", duration_s=800.0, nodes=triangle_nodes(),
                  etx_policy="oap")
    summ = summarize(run_scenario(sc))
    ssn = summ.nodes[2]
    assert ssn.lux_min == pytest.approx(150.0)
    assert ssn.lux_max > 1000.0
    # two ~23 s bursts inside 800 s lift the mean by a few tens of lux;
    # a 10 s row sampler would see almost none of that
    assert 155.0 < ssn.lux_mean < 250.0


def test_undepleted_lifetime_is_run_length():
    sc = Scenario(name="t", duration_s=50.0, nodes=(lone_node(ambient=1000.0),))
    summ = summarize(run_scenario(sc))
    assert summ.nodes[1].lifetime_s == pytest.approx(50.0)


# ---------------------------------------------------------------------------
# trace formatting


def test_csv_shape_and_precision():
    sc = Scenario(name="t", duration_s=30.0, nodes=(lone_node(ambient=1000.0),))
    text = csv_text(run_scenario(sc))
    lines = text.split("\n")
    assert lines[0] == CSV_HEADER
    assert text.endswith("\n")
    assert "\r" not in text
    for line in lines[1:-1]:
        fields = line.split(",")
        assert len(fields) == 8, line
        float(fields[0])
        int(fields[1])
        assert len(fields[2].split(".")[1]) == 6
        assert len(fields[3].split(".")[1]) == 6
        assert fields[4] in ("PSN", "SSN")
        assert len(fields[6].split(".")[1]) == 3


def row_by_row_csv(trace):
    """format_trace_csv as it was when the trace was a list of rows: one
    f-string per row."""
    lines = [CSV_HEADER]
    for row in trace.rows:
        lines.append(
            f"{row.time_s:.2f},{row.node_id},{row.v_cap:.6f},"
            f"{row.v_pv:.6f},{row.mode},{row.state},{row.lux:.3f},"
            f"{row.event}")
    return "\n".join(lines) + "\n"


def clamped_and_signed_zero_scenario():
    """A row every tick: node 1 harvests more than even its sensing
    draws, so the closed form holds its voltage at the clamp, and nodes
    2 and 3 are dark, one under -0.0 lx, which the run stores as 0.0."""
    return Scenario(
        name="t", duration_s=30.0, trace_interval_s=0.1,
        nodes=(lone_node(1, ambient=20000.0),
               lone_node(2, ambient=-0.0, start_voltage=4.0),
               lone_node(3, ambient=0.0, start_voltage=4.0)))


def sharing_every_tick_scenario():
    """A row every tick through the access point's sharing sessions:
    most rows sit in segments, and the longest quiet stretch holds more
    rows than one block of the CSV."""
    return Scenario(name="t", duration_s=800.0, nodes=triangle_nodes(),
                    etx_policy="oap", trace_interval_s=0.1)


@pytest.mark.parametrize("build", [guard_scenario,
                                   clamped_and_signed_zero_scenario,
                                   sharing_every_tick_scenario])
def test_csv_renders_as_row_by_row(build):
    trace = run_scenario(build())
    rows = trace.rows
    assert TraceRow._fields == ("time_s", "node_id", "v_cap", "v_pv", "mode",
                                "state", "lux", "harvested_j", "event")
    assert TraceRow._field_defaults == {"event": ""}
    assert all(type(row) is TraceRow for row in rows)
    assert any(row.event for row in rows)
    assert csv_text(trace) == row_by_row_csv(trace)
    if build is clamped_and_signed_zero_scenario:
        # most of node 1's rows come from quiet stretches
        assert sum(row.v_cap == V_STORAGE_MAX
                   for row in samples_for(trace, 1)) > 200
        assert ",-0.000" not in csv_text(trace)
        assert ",0.000," in csv_text(trace)
    if build is sharing_every_tick_scenario:
        assert "etx start" in [row.event for row in rows]
        assert len(trace.records) < len(rows) / 10
        assert max(len(record.instants) * len(record.lanes)
                   for record in trace.records
                   if type(record) is TraceSegment) > CSV_BLOCK_ROWS


@pytest.mark.parametrize("block_rows", [7, CSV_BLOCK_ROWS])
def test_sample_rows_share_the_segment_row_templates(monkeypatch,
                                                     block_rows):
    # a one-instant segment's rows render through their nodes' row
    # templates, the ones longer segments use, and an event row through
    # its own format
    trace = run_scenario(sharing_every_tick_scenario())
    segments = [s for s in trace.records if type(s) is TraceSegment]
    samples = {}
    for segment in segments:
        if len(segment.instants) == 1:
            for lane in segment.lanes:
                samples.setdefault(lane.node_id, []).append(lane[:5])
    # some node's v_pv, mode or state changes between two of its sample
    # rows, and a template serves sample rows and segment rows alike
    assert any(a[:4] != b[:4] for keys in samples.values()
               for a, b in zip(keys, keys[1:]))
    assert {key for keys in samples.values() for key in keys} & {
        lane[:5] for segment in segments if len(segment.instants) > 1
        for lane in segment.lanes}
    # event rows between the sample rows of tick 0, which a longer
    # segment's rows follow: its instant cut in two around them, so the
    # instants on either side hold different lanes
    first = trace.records[0]
    assert (first.i, first.instants) == (0, range(1))
    assert len(first.lanes) == 3
    _, second, third = trace.rows[:3]
    head, tail = (first._replace(lanes=first.lanes[cut])
                  for cut in (slice(1), slice(1, None)))
    trace.records[:1] = [head, second._replace(event="depleted"),
                         third._replace(event="role PSN"), tail]
    monkeypatch.setattr("luxnet.trace.CSV_BLOCK_ROWS", block_rows)
    text = csv_text(trace)
    assert text.splitlines()[1:6] == [
        "0.00,1,4.500000,0.000000,SSN,Init,1000.000,",
        "0.00,2,4.500000,0.000000,SSN,Init,150.000,depleted",
        "0.00,3,4.500000,0.000000,SSN,Init,1000.000,role PSN",
        "0.00,2,4.500000,0.000000,SSN,Init,150.000,",
        "0.00,3,4.500000,0.000000,SSN,Init,1000.000,"]
    assert text == row_by_row_csv(trace)


# the voltages the CSV prints lie in 0..V_STORAGE_MAX
@given(st.floats(0.0, V_STORAGE_MAX))
@example(0.0)
@example(5e-324)
@example(V_STORAGE_MAX)
@example(math.nextafter(V_STORAGE_MAX, 0.0))
# an exact tie at the sixth decimal, which rounds half to even
@example(0.0078125)
def test_a_bare_f_prints_each_voltage_as_six_decimals_do(v):
    # the CSV's voltage specs are a bare %f, the one bytes % writes
    # straight into its output; its precision is 6 by definition
    assert b"%f" % v == b"%.6f" % v == f"{v:.6f}".encode()
    assert b".6f" not in DISCRETE_ROW and ".6f" not in LANE_ROW
    # as v_cap and v_pv, in a sample row and an event row
    fixed = (1, v, "SSN", NodeState.SLEEP, 150.0)
    trace = TraceSet("t", 0.1, 0.1, [
        TraceSegment(0, range(1), 0.1, (
            SegmentLane(*fixed, stored_j(v), 0.0, 0, 0.0, 0.0),)),
        TraceRow(0.0, 1, v, *fixed[1:], 0.0, "depleted")],
        [], [], {1: NodeAggregate(1, 0.0)})
    assert csv_text(trace) == row_by_row_csv(trace)


def one_segment_trace(lanes, ticks):
    """A trace of nothing but one segment at ticks, 0.1 s apart, its
    lanes given as (node_id, e0, net)."""
    return TraceSet(
        "t", ticks[-1] * 0.1, 0.1,
        [TraceSegment(0, ticks, 0.1, tuple(
            SegmentLane(nid, 0.5, "SSN", NodeState.SLEEP, 150.0, e0, net, 0,
                        0.0, 1e-4)
            for nid, e0, net in lanes))],
        [], [], {nid: NodeAggregate(nid, e0) for nid, e0, _ in lanes})


# from tick 1 on, a clamp holds the first full and the second empty
HELD = [(1, STORAGE_FULL_J, 1e-3), (3, 0.0, -1e-3)]


@pytest.mark.parametrize("block_rows", [7, CSV_BLOCK_ROWS])
@pytest.mark.parametrize("lanes, ticks, live", [
    # the time text widens inside a block, from 9.90 to 10.00 s and from
    # 99.90 to 100.00 s: at 7 rows, blocks of 3 instants start at ticks
    # 98 and 998
    ([(1, stored_j(4.0), -1e-6), (2, stored_j(3.5), 2e-6)],
     range(95, 1003), 2),
    # every lane held: the block's % has no voltage to fill in
    (HELD, range(1, 40), 0),
    ([HELD[0], (2, stored_j(3.5), 2e-6), HELD[1]], range(1, 40), 1),
])
def test_segment_blocks_render_as_row_by_row(monkeypatch, block_rows,
                                             lanes, ticks, live):
    runs = clamp_runs([(e0, net, 0) for _, e0, net in lanes], ticks)
    assert sum(lo < len(ticks) for lo, *_ in runs) == live
    trace = one_segment_trace(lanes, ticks)
    monkeypatch.setattr("luxnet.trace.CSV_BLOCK_ROWS", block_rows)
    assert csv_text(trace) == row_by_row_csv(trace)


@pytest.mark.parametrize("block_rows", [7, CSV_BLOCK_ROWS])
def test_a_one_node_network_renders_as_row_by_row(monkeypatch, block_rows):
    # a row every tick, past 10 s and 100 s, of segments with one lane
    trace = run_scenario(Scenario(name="t", duration_s=120.0,
                                  nodes=(lone_node(),), trace_interval_s=0.1))
    assert {len(record.lanes) for record in trace.records
            if type(record) is TraceSegment} == {1}
    monkeypatch.setattr("luxnet.trace.CSV_BLOCK_ROWS", block_rows)
    text = csv_text(trace)
    assert "\n99.90,1," in text and "\n100.00,1," in text
    assert text == row_by_row_csv(trace)


def test_rows_are_time_sorted():
    sc = Scenario(name="t", duration_s=800.0, nodes=triangle_nodes(),
                  etx_policy="oap")
    trace = run_scenario(sc)
    times = [r.time_s for r in trace.rows]
    assert times == sorted(times)
