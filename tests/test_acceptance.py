"""Acceptance gate: the ten shipped design claims, one test each.

Every test ends with a single PASS line naming the criterion and the
measured values (visible under `pytest -s`); a failing criterion names
itself in the assertion message.  The slow scenario runs are shared
through module-scoped fixtures so the whole gate stays inside the
stated runtime budgets.
"""

import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from luxnet.channel import lambertian_order, photon_energy
from luxnet.cli import main, parse_scenario_file, shipped_scenario_path
from luxnet.controller import duty_cycle, select_t_data_req, standby_time
from luxnet.energy import (
    LEAK_POWER_W,
    PMIC_EFFICIENCY,
    STORAGE_CAPACITANCE_F,
    V_OVERDISCHARGE,
    V_STORAGE_MAX,
    StorageCapacitor,
    min_capacitance,
    net_per_tick,
    storage_step,
)
from luxnet.experiments import interference_sweep, recharge_improvement
from luxnet.node import DEFAULT_TIMING
from luxnet.protocol import (
    Command,
    Frame44,
    FrameError,
    GenericFrame,
    NodeToOap,
    OapToNode,
    decode_frame,
    decode44,
    encode_frame,
    encode44,
    quantize_temperature,
    quantize_voltage,
    temperature_from_code,
    voltage_from_code,
)
from luxnet.simkernel import (
    audit_conservation,
    run_scenario,
)
from test_simkernel import csv_text as trace_csv

HOUR = 3600.0


def _rows(csv_text):
    rows = []
    for line in csv_text.splitlines()[1:]:
        t, nid, v_cap, v_pv, mode, state, lux, event = line.split(",")
        rows.append((float(t), int(nid), float(v_cap), state, event))
    return rows


@pytest.fixture(scope="module")
def scenario_a_csv(tmp_path_factory):
    """Scenario A through the CLI, as shipped: 12 h at 100 ms steps."""
    out = tmp_path_factory.mktemp("acceptance-a")
    start = time.perf_counter()
    rc = main(["run", shipped_scenario_path("paper_a"),
               "--out-dir", str(out)])
    wall = time.perf_counter() - start
    assert rc == 0, "C3 FAIL: scenario A run did not exit 0"
    with open(out / "paper-a.csv", encoding="utf-8", newline="") as fh:
        return fh.read(), wall


@pytest.fixture(scope="module")
def trace_b():
    """Scenario B as shipped: 60 h with OAP-scheduled sharing."""
    scenario = parse_scenario_file(shipped_scenario_path("paper_b"))
    start = time.perf_counter()
    trace = run_scenario(scenario)
    wall = time.perf_counter() - start
    return trace, wall


def test_c1_duty_cycle_table():
    start = time.perf_counter()
    ratios = [duty_cycle(DEFAULT_TIMING, n).ratio for n in range(11)]
    wall = time.perf_counter() - start
    assert ratios[6] == pytest.approx(0.1696, abs=1e-4), \
        f"C1 FAIL: duty_cycle(6) = {ratios[6]:.4f}, expected 0.1696"
    assert abs(ratios[6] - 0.18) <= 0.02, \
        f"C1 FAIL: duty_cycle(6) = {ratios[6]:.4f} not within 0.18 +/- 0.02"
    assert all(a >= b for a, b in zip(ratios, ratios[1:])), \
        f"C1 FAIL: duty table not monotone decreasing: {ratios}"
    feasible = [r for r in ratios if r > 0.0]
    assert all(a > b for a, b in zip(feasible, feasible[1:])), \
        "C1 FAIL: feasible duty rows not strictly decreasing"
    assert wall < 1.0, f"C1 FAIL: took {wall:.2f} s, budget 1 s"
    print(f"\nC1 PASS: duty_cycle(6)={ratios[6]:.4f} (ref 0.18+/-0.02), "
          f"table of 11 monotone, {wall * 1e3:.1f} ms")


def test_c2_request_period_bounds():
    start = time.perf_counter()
    standby = standby_time(DEFAULT_TIMING, 6)
    chosen = select_t_data_req([DEFAULT_TIMING] * 3, preferred=600.0)
    wall = time.perf_counter() - start
    assert DEFAULT_TIMING.t_energy_net_rec < 600.0 <= standby, \
        f"C2 FAIL: 450 < 600 <= {standby:.2f} does not hold"
    assert standby == pytest.approx(601.0, abs=1.0), \
        f"C2 FAIL: standby_time(6) = {standby:.2f}, expected about 601"
    assert chosen == 600.0, f"C2 FAIL: select_t_data_req returned {chosen}"
    assert wall < 1.0, f"C2 FAIL: took {wall:.2f} s, budget 1 s"
    print(f"\nC2 PASS: standby_time(6)={standby:.2f} s, period 600 s "
          f"accepted, {wall * 1e3:.1f} ms")


def test_c3_scenario_a_lifetimes(scenario_a_csv):
    csv_text, wall = scenario_a_csv
    rows = _rows(csv_text)
    depleted = [t for t, nid, v, state, event in rows
                if nid == 2 and event == "depleted"]
    assert depleted, "C3 FAIL: no depleted event row for node 2"
    hours = depleted[0] / HOUR
    assert 6.0 <= hours <= 10.0, \
        f"C3 FAIL: node 2 depleted at {hours:.2f} h, expected 8 h +/- 25%"
    for nid in (1, 3):
        volts = [v for t, n, v, state, event in rows if n == nid]
        mean = sum(volts) / len(volts)
        dev = max(abs(v - mean) for v in volts)
        assert dev <= 0.05, \
            f"C3 FAIL: node {nid} voltage deviates {dev:.3f} V from flat"
    assert wall < 60.0, f"C3 FAIL: took {wall:.1f} s, budget 60 s"
    print(f"\nC3 PASS: node 2 depleted at {hours:.2f} h, PSN max deviation "
          f"within 0.05 V, wall {wall:.1f} s")


def test_c4_scenario_b_endurance(trace_b):
    trace, wall = trace_b
    ssn = trace.aggregates[2]
    assert ssn.depleted_at is None, \
        f"C4 FAIL: node 2 depleted at {ssn.depleted_at / HOUR:.2f} h"
    late = [row.v_cap for row in trace.rows
            if row.node_id == 2 and row.time_s >= 20.0 * HOUR]
    lo, hi = min(late), max(late)
    assert 3.3 <= lo and hi <= 3.7, \
        f"C4 FAIL: node 2 settles to [{lo:.4f}, {hi:.4f}], not 3.5 +/- 0.2"
    for nid in (1, 3):
        volts = [row.v_cap for row in trace.rows if row.node_id == nid]
        assert min(volts) <= 3.82 and max(volts) >= 4.48, \
            (f"C4 FAIL: node {nid} spans [{min(volts):.3f}, "
             f"{max(volts):.3f}], expected floor-to-full swings")
    assert wall < 300.0, f"C4 FAIL: took {wall:.1f} s, budget 300 s"
    print(f"\nC4 PASS: node 2 never depleted over 60 h, settles "
          f"[{lo:.3f}, {hi:.3f}] V after hour 20, PSNs swing "
          f"floor-to-full, wall {wall:.1f} s")


def test_c5_illuminance_uplift(trace_b):
    trace, _ = trace_b
    ssn = trace.aggregates[2]
    peak = ssn.lux_max
    mean = ssn.lux_integral / trace.duration_s
    uplift = mean / 150.0 - 1.0
    assert abs(peak - 1043.8) <= 0.10 * 1043.8, \
        f"C5 FAIL: peak {peak:.1f} lx outside 1043.8 +/- 10%"
    assert uplift >= 0.40, \
        f"C5 FAIL: mean uplift {uplift * 100:.1f}% below 40%"
    print(f"\nC5 PASS: peak {peak:.1f} lx (ref 1043.8), mean {mean:.1f} lx "
          f"(ref 225), uplift {uplift * 100:.1f}% >= 40%")


def test_c6_recharge_improvement():
    points = recharge_improvement(ambient_levels=(150.0, 250.0, 400.0))
    by_lux = {p.ambient_lux: p.improvement for p in points}
    assert abs(by_lux[150.0] - 0.128) <= 0.05, \
        f"C6 FAIL: 150 lx improvement {by_lux[150.0] * 100:.1f}%, ref 12.8 +/- 5"
    assert abs(by_lux[250.0] - 0.067) <= 0.05, \
        f"C6 FAIL: 250 lx improvement {by_lux[250.0] * 100:.1f}%, ref 6.7 +/- 5"
    seq = [by_lux[l] for l in (150.0, 250.0, 400.0)]
    assert seq[0] > seq[1] > seq[2], \
        f"C6 FAIL: improvement not strictly decreasing: {seq}"
    print(f"\nC6 PASS: improvements {seq[0] * 100:.1f}% / {seq[1] * 100:.1f}% "
          f"/ {seq[2] * 100:.1f}% at 150/250/400 lx, strictly decreasing")


def test_c7_interference_monotonicity():
    points = interference_sweep(frames_per_point=1000)
    assert len(points) >= 8, f"C7 FAIL: only {len(points)} sweep points"
    rho, _ = spearmanr([p.ambient_lux for p in points],
                       [p.failure_ratio for p in points])
    assert rho <= -0.95, f"C7 FAIL: Spearman {rho:.3f} above -0.95"
    print(f"\nC7 PASS: Spearman {rho:.3f} over {len(points)} points, "
          f"1000 frames each")


def test_c8_codec_properties():
    start = time.perf_counter()
    rng = np.random.default_rng(8)
    words = rng.integers(0, 1 << 44, size=1_000_000, dtype=np.uint64)
    for w in words.tolist():
        if encode44(decode44(w)) != w:
            pytest.fail(f"C8 FAIL: word {w:011X} does not round-trip")

    for dest in (0, 1, 0xFFFE, 0xFFFF):
        for payload in (
                NodeToOap(sender_id=1, pv_level=0, cap_level=255, sensor=0),
                NodeToOap(sender_id=15, pv_level=255, cap_level=0, sensor=255),
                OapToNode(command=Command.INIT_CONFIG, param=0),
                OapToNode(command=15, param=0xFFFF)):
            frame = Frame44(dest_address=dest, payload=payload)
            assert decode44(encode44(frame)) == frame, \
                f"C8 FAIL: boundary frame {frame} does not round-trip"

    for volts in np.arange(0.0, 5.1001, 0.001):
        err = abs(voltage_from_code(quantize_voltage(float(volts))) - volts)
        assert err <= 0.01 + 1e-9, \
            f"C8 FAIL: voltage error {err:.4f} V at {volts:.3f} V"
    for deg in np.arange(-40.0, 87.5001, 0.01):
        err = abs(temperature_from_code(quantize_temperature(float(deg))) - deg)
        assert err <= 0.25 + 1e-9, \
            f"C8 FAIL: temperature error {err:.3f} C at {deg:.2f} C"

    flips = 0
    for i in range(1000):
        data = rng.integers(0, 256, size=int(rng.integers(0, 9))).astype(
            np.uint8).tobytes()
        buf = encode_frame(GenericFrame(address=int(rng.integers(0, 0x10000)),
                                        data=data))
        for bit in range(len(buf) * 8):
            damaged = bytearray(buf)
            damaged[bit // 8] ^= 1 << (bit % 8)
            try:
                decode_frame(bytes(damaged))
            except FrameError:
                flips += 1
            else:
                pytest.fail(f"C8 FAIL: single-bit flip at bit {bit} "
                            f"of frame {i} went undetected")
    wall = time.perf_counter() - start
    assert wall < 30.0, f"C8 FAIL: took {wall:.1f} s, budget 30 s"
    print(f"\nC8 PASS: 1e6 round-trips, boundary frames, quantization "
          f"sweeps, {flips} flipped bits all detected, wall {wall:.1f} s")


def test_c9_physics_calculators():
    e = photon_energy(550e-9)
    assert e == pytest.approx(3.6117e-19, rel=1e-3), \
        f"C9 FAIL: photon energy {e:.5e} J"
    m = lambertian_order(15.0)
    assert m == pytest.approx(19.99, abs=0.01), \
        f"C9 FAIL: lambertian order {m:.4f}"
    c = min_capacitance(e_peak=2.0, eta_pmic_l=PMIC_EFFICIENCY,
                        p_leak=LEAK_POWER_W, t_peak=40.0, v_max=V_STORAGE_MAX,
                        v_min=V_OVERDISCHARGE)
    assert c == pytest.approx(0.4702, rel=1e-3), \
        f"C9 FAIL: sized capacitance {c:.4f} F"

    cap = StorageCapacitor(voltage=4.5)
    p_out = 10e-3
    stepped = StorageCapacitor(voltage=4.5)
    for _ in range(1000):
        storage_step(stepped, net_per_tick(0.0, p_out, 0.01))
    drained = (p_out + LEAK_POWER_W) * 10.0
    analytic = ((cap.energy - drained) ** 0.5
                / (0.5 * STORAGE_CAPACITANCE_F) ** 0.5)
    assert abs(stepped.voltage - analytic) <= 1e-6, \
        (f"C9 FAIL: discharge gives {stepped.voltage:.8f} V, "
         f"oracle {analytic:.8f} V")
    print(f"\nC9 PASS: photon {e:.4e} J, order {m:.2f}, capacitor "
          f"{c:.4f} F, discharge within 1e-6 V")


def test_c10_determinism_and_numerics(trace_b):
    scenario = parse_scenario_file(shipped_scenario_path("paper_a"))
    short = scenario._replace(duration_s=1200.0)
    first = trace_csv(run_scenario(short))
    second = trace_csv(run_scenario(short))
    assert first == second, "C10 FAIL: identical runs differ byte-wise"

    plan_b = parse_scenario_file(shipped_scenario_path("paper_b"))
    coarse = run_scenario(plan_b._replace(duration_s=800.0))
    fine = run_scenario(plan_b._replace(duration_s=800.0, step_s=0.05))
    worst = max(abs(coarse.aggregates[n].final_voltage
                    - fine.aggregates[n].final_voltage)
                for n in coarse.aggregates)
    assert worst < 1e-3, \
        f"C10 FAIL: step halving moves a final voltage by {worst * 1e3:.3f} mV"

    trace, _ = trace_b
    residual = max(audit_conservation(trace).values())
    assert residual <= 1e-3, \
        f"C10 FAIL: conservation residual {residual:.2e} above 1e-3"
    print(f"\nC10 PASS: byte-identical reruns, step-halving moves "
          f"{worst * 1e6:.1f} uV, 60 h conservation residual {residual:.1e}")
