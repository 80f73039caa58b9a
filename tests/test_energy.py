"""Energy model tests: storage integration, budgets, sizing."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from luxnet import energy
from luxnet.channel import OpticalReceiver
from luxnet.energy import (
    DEFAULT_PROFILE,
    LEAK_POWER_W,
    STORAGE_FULL_J,
    HarvesterArray,
    PowerProfile,
    StorageCapacitor,
    band_exit,
    min_capacitance,
    net_per_tick,
    pv_open_voltage,
    storage_step,
    stored_j,
)


def make_cap(voltage=4.5, v_min=3.3):
    return StorageCapacitor(voltage=voltage, v_min=v_min)


def test_capacitor_energy_from_voltage():
    cap = make_cap(voltage=3.7)
    assert cap.energy == pytest.approx(0.5 * 0.4 * 3.7 ** 2)
    assert stored_j(3.7) == cap.energy
    assert STORAGE_FULL_J == pytest.approx(0.5 * 0.4 * 4.5 ** 2)


def test_capacitor_invariants():
    with pytest.raises(ValueError):
        StorageCapacitor(voltage=4.6)
    with pytest.raises(ValueError):
        StorageCapacitor(voltage=math.nextafter(4.5, math.inf))
    with pytest.raises(ValueError):
        StorageCapacitor(voltage=-0.1)
    with pytest.raises(ValueError):
        StorageCapacitor(v_min=3.0)  # below the hard undervoltage floor


def test_power_profile_invariants():
    with pytest.raises(ValueError):
        PowerProfile(sleep=600e-6, standby=550e-6, sense=3e-3,
                     data_tx=12e-3, etx=20e-3, decode=2e-3)
    with pytest.raises(ValueError):
        PowerProfile(sleep=15e-6, standby=0.95e-3, sense=3e-3,
                     data_tx=12e-3, etx=20e-3, decode=2e-3)
    with pytest.raises(ValueError):
        PowerProfile(sleep=-1e-6, standby=550e-6, sense=3e-3,
                     data_tx=12e-3, etx=20e-3, decode=2e-3)


def test_default_profile_idle_draws_below_single_cell_generation():
    assert DEFAULT_PROFILE.sleep < DEFAULT_PROFILE.standby < 0.9e-3


def test_storage_step_equilibrium():
    cap = make_cap(voltage=4.0)
    storage_step(cap, net_per_tick(1e-3 + LEAK_POWER_W, 1e-3, 10.0))
    assert cap.voltage == pytest.approx(4.0, abs=1e-12)


def test_storage_step_frozen_discharge():
    # 2.0025 J net drain from full, leak included, is exactly the
    # 4.5 -> 3.2 V span
    cap = make_cap(voltage=4.5)
    storage_step(cap, net_per_tick(0.0, 2.0025 - LEAK_POWER_W, 1.0))
    assert cap.voltage == pytest.approx(3.2, abs=1e-3)


def test_storage_step_clamps_at_v_max_and_zero():
    cap = make_cap(voltage=4.5)
    storage_step(cap, net_per_tick(1.0 + LEAK_POWER_W, 0.0, 100.0))
    assert cap.voltage == pytest.approx(4.5)
    cap_low = make_cap(voltage=0.5)
    storage_step(cap_low, net_per_tick(0.0, 1.0 - LEAK_POWER_W, 100.0))
    assert cap_low.voltage == 0.0


def test_storage_step_leak_only():
    cap = make_cap(voltage=4.5)
    expected_v = math.sqrt(2.0 * (cap.energy - LEAK_POWER_W * 3600.0) / 0.4)
    storage_step(cap, net_per_tick(0.0, 0.0, 3600.0))
    assert cap.voltage == pytest.approx(expected_v, rel=1e-12)


def test_storage_step_matches_fine_integration_without_clamp():
    # the energy model is linear in time, so one coarse step equals
    # many fine ones exactly when no clamp fires
    rng = np.random.default_rng(31)
    for _ in range(20):
        v0 = float(rng.uniform(3.3, 4.4))
        p_in = float(rng.uniform(0.0, 3e-3))
        p_out = float(rng.uniform(0.0, 3e-3))
        coarse = make_cap(voltage=v0)
        storage_step(coarse, net_per_tick(p_in, p_out, 10.0))
        fine = make_cap(voltage=v0)
        for _ in range(100):
            storage_step(fine, net_per_tick(p_in, p_out, 0.1))
        assert fine.voltage == pytest.approx(coarse.voltage, abs=1e-9)


def test_net_per_tick_validation():
    with pytest.raises(ValueError, match="dt"):
        net_per_tick(p_in=0.0, p_out=0.0, dt=0.0)
    with pytest.raises(ValueError, match="powers"):
        net_per_tick(p_in=-1.0, p_out=0.0, dt=1.0)
    with pytest.raises(ValueError, match="powers"):
        net_per_tick(p_in=0.0, p_out=-1.0, dt=1.0)


def test_storage_step_advances_in_place():
    cap = make_cap(voltage=4.0)
    expected_v = math.sqrt(2.0 * (cap.energy - 0.05) / 0.4)
    storage_step(cap, net_per_tick(0.0, 5e-3 - LEAK_POWER_W, 10.0))
    assert cap.voltage == pytest.approx(expected_v, rel=1e-12)
    storage_step(cap, net_per_tick(5e-3 + LEAK_POWER_W, 0.0, 10.0))
    assert cap.voltage == pytest.approx(4.0, rel=1e-12)


def test_storage_step_returns_clamp_loss():
    # top clamp: the spilled harvest
    cap = make_cap(voltage=4.4)
    unclamped = cap.energy + (1e-2 - 1e-3 - LEAK_POWER_W) * 100.0
    loss = storage_step(cap, net_per_tick(1e-2, 1e-3, 100.0))
    assert cap.voltage == pytest.approx(4.5)
    assert loss == unclamped - cap.energy
    assert loss == pytest.approx(unclamped - STORAGE_FULL_J, rel=1e-12)
    assert loss > 0.0

    # floor: the draw the storage could not pay, a negative loss
    cap = make_cap(voltage=0.5)
    unclamped = cap.energy + (0.0 - 1.0 - LEAK_POWER_W) * 100.0
    loss = storage_step(cap, net_per_tick(0.0, 1.0, 100.0))
    assert cap.voltage == 0.0
    assert loss == unclamped - cap.energy == unclamped
    assert loss < 0.0

    # in between nothing is clamped; what remains is the rounding of
    # the square-root round trip, a few ulps of the stored energy
    cap = make_cap(voltage=3.9)
    unclamped = cap.energy + (2e-3 - 1e-3 - LEAK_POWER_W) * 10.0
    loss = storage_step(cap, net_per_tick(2e-3, 1e-3, 10.0))
    assert loss == unclamped - cap.energy
    assert abs(loss) <= 4.0 * math.ulp(unclamped)


@pytest.mark.parametrize("p_in, p_out", [
    (float("nan"), 0.0),
    (0.0, float("nan")),
])
def test_storage_step_rejects_nan_power(p_in, p_out):
    cap = make_cap(voltage=4.0)
    with pytest.raises(ValueError, match="voltage nan"):
        storage_step(cap, net_per_tick(p_in, p_out, 0.1))
    assert cap.voltage == 4.0


def test_a_many_tick_storage_step_matches_repeated_single_ticks():
    # filling into the top clamp, so clamped and unclamped ticks both run
    for ticks in (1, 50, 200):
        stepped = make_cap(voltage=4.49)
        stepped_loss = sum(storage_step(stepped, net_per_tick(2e-3, 1e-3, 0.1))
                           for _ in range(ticks))
        run = make_cap(voltage=4.49)
        loss = storage_step(run, net_per_tick(2e-3, 1e-3, 0.1), ticks)
        assert abs(run.voltage - stepped.voltage) <= 1e-12
        assert loss == pytest.approx(stepped_loss, abs=1e-12)
    assert run.voltage == 4.5


def test_a_many_tick_storage_step_returns_the_closed_form_clamp_loss():
    for p_in, p_out in ((2e-3, 1e-3), (0.0, 1.0), (1e-3, 1e-3)):
        cap = make_cap(voltage=4.0)
        e0 = cap.energy
        net = (p_in - p_out - LEAK_POWER_W) * 0.1
        loss = storage_step(cap, net_per_tick(p_in, p_out, 0.1), 9000)
        assert loss == e0 + 9000 * net - cap.energy


@pytest.mark.parametrize("p_in, p_out, band", [
    (0.0, 1e-2, (3.2, math.inf)),       # draining through the lower edge
    (1e-2, 0.0, (-math.inf, 4.1)),      # charging up to the upper edge
    (1e-2, 0.0, (3.2, 4.5 - 1e-9)),     # the full trigger
], ids=["lower", "upper", "full"])
def test_band_exit_is_the_first_tick_outside_the_band(p_in, p_out, band):
    def voltage_after(ticks):
        cap = make_cap(voltage=3.9)
        storage_step(cap, net_per_tick(p_in, p_out, 0.1), ticks)
        return cap.voltage

    low, high = band
    e0 = make_cap(voltage=3.9).energy
    net = net_per_tick(p_in, p_out, 0.1)
    exit_tick = band_exit(e0, net, 10 ** 6, low, high)
    assert 1 < exit_tick < 10 ** 6
    assert not low <= voltage_after(exit_tick) < high
    assert low <= voltage_after(exit_tick - 1) < high
    # a shorter run ends before the exit, and one already outside at once
    assert band_exit(e0, net, exit_tick - 1, low, high) == exit_tick - 1
    assert band_exit(e0, net, 10 ** 6, 3.95, 4.0) == 1
    # a one-tick stretch, which is how the kernel integrates a full tick,
    # ends on that tick whatever the band
    for edges in (band, (3.95, 4.0)):
        assert band_exit(e0, net, 1, *edges) == 1


# band edges as quiet_band sets them: a voltage, or no edge at all
EDGES = st.one_of(st.floats(0.0, 5.0),
                  st.sampled_from([-math.inf, math.inf]))


@given(e0=st.floats(0.0, STORAGE_FULL_J),
       net=st.one_of(st.just(0.0), st.floats(-1e-2, 1e-2)),
       edges=st.tuples(EDGES, EDGES), ticks=st.integers(1, 3000),
       more=st.integers(0, 3000))
@example(e0=stored_j(3.9), net=-1e-3, edges=(3.95, 4.0), ticks=5, more=9)
@example(e0=stored_j(3.9), net=0.0, edges=(3.2, 4.0), ticks=5, more=9)
@example(e0=stored_j(3.9), net=1e-3, edges=(3.2, 4.0), ticks=50, more=900)
def test_band_exit_searched_to_a_timer_is_the_longer_search_cut_there(
        e0, net, edges, ticks, more):
    # the kernel searches a lane's band only up to its timer, which gives
    # the exit of a search to the run's end, or the timer if sooner; a
    # start outside the band or a net of 0 included
    low, high = sorted(edges)
    assert band_exit(e0, net, ticks, low, high) == min(
        ticks, band_exit(e0, net, ticks + more, low, high))


def test_a_one_tick_band_exit_evaluates_no_closed_form(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    real = energy._closed_form
    monkeypatch.setattr(energy, "_closed_form", counting)
    e0 = stored_j(3.9)
    for band in ((3.2, 4.0), (3.95, 4.0), (-math.inf, math.inf)):
        for net in (-1e-3, 0.0, 1e-3):
            assert band_exit(e0, net, 1, *band) == 1
    assert calls == []
    assert band_exit(e0, 1e-3, 2, 3.2, 4.0) == 2
    assert calls


def test_min_capacitance_frozen_value():
    c = min_capacitance(e_peak=2.0, eta_pmic_l=0.85, p_leak=10e-6,
                        t_peak=40.0, v_max=4.5, v_min=3.2)
    assert c == pytest.approx(0.4702, rel=1e-3)


def test_min_capacitance_edges():
    assert min_capacitance(0.0, 0.85, 0.0, 40.0, 4.5, 3.2) == 0.0
    base = min_capacitance(1.0, 0.9, 1e-5, 10.0, 4.5, 3.2)
    # halving the voltage-squared span doubles the result
    span = 4.5 ** 2 - 3.2 ** 2
    v_min2 = math.sqrt(4.5 ** 2 - span / 2.0)
    assert min_capacitance(1.0, 0.9, 1e-5, 10.0, 4.5, v_min2) == pytest.approx(
        2.0 * base, rel=1e-9)
    with pytest.raises(ValueError):
        min_capacitance(1.0, 0.85, 0.0, 1.0, 3.2, 4.5)
    with pytest.raises(ValueError):
        min_capacitance(1.0, 0.0, 0.0, 1.0, 4.5, 3.2)


def test_min_capacitance_cross_check_by_integration():
    # the band of exactly C_min, 1/2 C (v_max^2 - v_min^2), pays the
    # peak through the PMIC plus the leak over the peak; drained by
    # both tick by tick, its energy lands on v_min
    c_min = min_capacitance(2.0, 0.85, 10e-6, 40.0, 4.5, 3.2)
    band = 0.5 * c_min * (4.5 ** 2 - 3.2 ** 2)
    assert band == pytest.approx(2.0 / 0.85 + 10e-6 * 40.0, rel=1e-12)
    energy = 0.5 * c_min * 4.5 ** 2
    p_drain = (2.0 / 0.85) / 40.0 + 10e-6
    for _ in range(4000):
        energy -= p_drain * 0.01
    assert math.sqrt(2.0 * energy / c_min) == pytest.approx(3.2, abs=1e-6)


def test_harvester_power_sums_cells():
    harv = HarvesterArray(cells=(OpticalReceiver(),) * 3)
    p = harv.harvest_power([1000.0, 1000.0, 1000.0])
    assert p == pytest.approx(3 * 0.9e-3, rel=1e-9)
    assert harv.harvest_power([150.0, 0.0, 0.0]) == pytest.approx(0.135e-3, rel=1e-9)
    with pytest.raises(ValueError):
        harv.harvest_power([100.0])


def test_pv_open_voltage_shape():
    assert pv_open_voltage(0.0) == 0.0
    assert pv_open_voltage(350.0) == pytest.approx(2.2)
    assert pv_open_voltage(1000.0) == pytest.approx(3.2593, rel=1e-3)
    # strictly increasing, saturating below the asymptote
    lux = np.linspace(0.0, 5000.0, 50)
    v = [pv_open_voltage(float(x)) for x in lux]
    assert all(a < b for a, b in zip(v, v[1:]))
    assert v[-1] < 4.4
    # the 3.0 V threshold falls between dim and bright room light
    assert pv_open_voltage(150.0) < 3.0 < pv_open_voltage(1000.0)
