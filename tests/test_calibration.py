"""Tests for the design-point calibration behind the shipped defaults."""

import math

import pytest

from luxnet.calibration import (
    EMITTERS_PER_ROUND,
    REFERENCE_PEAK_LUX,
    REQUEST_ROUND_S,
    SSN_AMBIENT_LUX,
    CalibrationReport,
    burst_gain_lux,
    burst_power_for_peak,
    calibrate,
    derive_power_profile,
    endurance_estimate_h,
    mean_uplift_fraction,
    recovery_duration_s,
    render_report,
    session_duration_s,
)
from luxnet.channel import OpticalReceiver, OpticalTransmitter, illuminance_at
from luxnet.energy import DEFAULT_PROFILE


def test_shipped_profile_is_rederivable():
    assert derive_power_profile() == DEFAULT_PROFILE


def test_burst_drive_setting():
    # (1043.8 - 150) lx divided by the per-watt face gain at 15 cm and
    # 30 degrees incidence, rounded to the 0.1 mW drive resolution
    assert burst_power_for_peak() == 0.0278


def test_burst_gain_matches_vector_channel():
    # same geometry expressed as positions and normals; the vector
    # link code must agree with the closed-form gain
    power = burst_power_for_peak()
    rx = OpticalReceiver(position=(0.0, 0.0, 0.0), normal=(0.0, 1.0, 0.0))
    d = 0.15
    tx_pos = (d * math.sin(math.radians(30.0)),
              d * math.cos(math.radians(30.0)),
              0.0)
    tx = OpticalTransmitter(
        optical_power_w=power,
        position=tx_pos,
        boresight=(-tx_pos[0], -tx_pos[1], 0.0),
    )
    vector_lux = illuminance_at(rx, tx)
    assert vector_lux == pytest.approx(burst_gain_lux(power), rel=1e-9)


def test_peak_lands_on_design_target():
    report = calibrate()
    assert report.peak_lux == pytest.approx(REFERENCE_PEAK_LUX, abs=0.05)
    assert report.peak_lux == SSN_AMBIENT_LUX + report.burst_gain_lux


def test_session_fits_share_window():
    # share band 0.2 * (4.5^2 - 3.8^2) = 1.162 J drained at
    # 52.7 mW + 10 uW leak - 2.7 mW harvest = 50.01 mW
    session = session_duration_s()
    assert session == pytest.approx(1.162 / 0.05001, rel=1e-9)
    assert session <= 40.0


def test_recovery_fits_allowance():
    # the same 1.162 J refilled at 2.7 mW - 180 uW - 10 uW = 2.51 mW
    recovery = recovery_duration_s()
    assert recovery == pytest.approx(1.162 / 0.00251, rel=1e-9)
    report = calibrate()
    assert report.recovery_allowance_s == pytest.approx(490.0)
    assert recovery <= report.recovery_allowance_s


def test_endurance_inside_band():
    # full-to-lockout budget 0.2 * (4.5^2 - 3.2^2) = 2.002 J; idle net
    # 180 uW + 10 uW - 135 uW one-face harvest = 55 uW; one hourly
    # cycle 11 mW * 9.53 s + 12 mW * 0.044 s = 105.3584 mJ
    hours = endurance_estimate_h()
    cycle = 11.0e-3 * 9.53 + 12.0e-3 * 0.044
    expected = 2.002 / (55e-6 * 3600.0 + cycle)
    assert hours == pytest.approx(expected, rel=1e-9)
    assert 6.0 <= hours <= 10.0


def test_bright_light_makes_idle_unbounded():
    # a 100 uW sleep draw sits under the 150 lx one-face harvest less
    # leak, 135 uW - 10 uW, so idling never drains the storage
    assert math.isinf(endurance_estimate_h(DEFAULT_PROFILE._replace(
        sleep=100e-6)))


def test_uplift_exceeds_target():
    uplift = mean_uplift_fraction()
    gain = burst_gain_lux(burst_power_for_peak())
    expected = gain * EMITTERS_PER_ROUND * session_duration_s() / (
        REQUEST_ROUND_S * SSN_AMBIENT_LUX)
    assert uplift == pytest.approx(expected, rel=1e-9)
    assert uplift >= 0.40


def test_calibrate_meets_all_targets():
    report = calibrate()
    assert isinstance(report, CalibrationReport)
    assert report.profile == DEFAULT_PROFILE
    assert report.targets_met


def test_report_text_carries_key_figures():
    text = render_report(calibrate())
    assert "optical power: 27.8 mW" in text
    assert "session: 23.24 s" in text
    assert "recovery: 462.9 s" in text
    assert "endurance: 6.60 h" in text
    assert "mean uplift: 46.2%" in text
    assert "targets met: yes" in text


def test_negative_drive_is_rejected():
    with pytest.raises(ValueError):
        burst_gain_lux(-1e-3)
