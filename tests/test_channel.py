"""Optical channel tests: Lambertian gain, photometry, interference."""

import math
from itertools import islice

import numpy as np
import pytest

from luxnet.channel import (
    InterferenceModel,
    OpticalLink,
    OpticalReceiver,
    OpticalTransmitter,
    frame_failure_probability,
    illuminance_at,
    lambertian_order,
    link_between,
    path_loss,
    photon_energy,
    pv_input_power,
    uniform_draws,
)


def test_lambertian_order_frozen_points():
    # closed form -ln2 / ln cos(half angle)
    assert lambertian_order(60.0) == pytest.approx(1.0, abs=1e-12)
    assert lambertian_order(15.0) == pytest.approx(19.9937, abs=0.01)
    assert lambertian_order(30.0) == pytest.approx(4.81884, abs=0.01)


def test_lambertian_order_monotone_decreasing_in_half_angle():
    angles = np.linspace(5.0, 85.0, 17)
    orders = [lambertian_order(a) for a in angles]
    assert all(a > b for a, b in zip(orders, orders[1:]))


def test_lambertian_order_domain():
    for bad in (0.0, -5.0, 90.0, 120.0):
        with pytest.raises(ValueError):
            lambertian_order(bad)


def test_path_loss_frozen_on_axis_values():
    link = OpticalLink(distance_m=1.0, irradiance_angle_deg=0.0,
                       incidence_angle_deg=0.0, order=1.0)
    assert path_loss(link, 1e-4) == pytest.approx(3.1831e-5, rel=1e-4)

    narrow = OpticalLink(distance_m=0.2, irradiance_angle_deg=0.0,
                         incidence_angle_deg=0.0, order=20.0)
    assert path_loss(narrow, 1e-4) == pytest.approx(8.3556e-3, rel=1e-4)


def test_path_loss_monotone_in_distance_and_angles():
    rng = np.random.default_rng(21)
    for _ in range(50):
        m = float(rng.uniform(1.0, 30.0))
        area = float(rng.uniform(1e-5, 1e-2))
        dists = np.sort(rng.uniform(0.05, 3.0, size=6))
        gains = [path_loss(OpticalLink(d, 0.0, 0.0, m), area) for d in dists]
        assert all(a > b for a, b in zip(gains, gains[1:]))

    alphas = np.linspace(0.0, 89.0, 12)
    g_alpha = [path_loss(OpticalLink(1.0, a, 0.0, 5.0), 1e-3) for a in alphas]
    assert all(a > b for a, b in zip(g_alpha, g_alpha[1:]))
    g_beta = [path_loss(OpticalLink(1.0, 0.0, b, 5.0), 1e-3) for b in alphas]
    assert all(a > b for a, b in zip(g_beta, g_beta[1:]))


def test_received_power_scales_with_transmit_power():
    # received optical power is the source's part of the face illuminance,
    # converted back to watts through the efficacy and the receiver area
    rx = OpticalReceiver(area_m2=1e-4, position=(0.0, 0.0, 0.0),
                         normal=(0.0, 0.0, 1.0))

    def received_power(tx):
        return illuminance_at(rx, 0.0, [tx]) * rx.area_m2 / 250.0

    tx = OpticalTransmitter(optical_power_w=0.1, half_angle_deg=60.0,
                            position=(0.0, 0.0, 1.0), boresight=(0.0, 0.0, -1.0))
    p = received_power(tx)
    assert p == pytest.approx(0.1 * 3.1831e-5, rel=1e-4)
    tx2 = OpticalTransmitter(optical_power_w=0.2, half_angle_deg=60.0,
                             position=(0.0, 0.0, 1.0), boresight=(0.0, 0.0, -1.0))
    assert received_power(tx2) == pytest.approx(2.0 * p, rel=1e-12)


def test_link_between_recovers_plain_geometry():
    tx = OpticalTransmitter(optical_power_w=0.05, half_angle_deg=15.0,
                            position=(0.0, 0.0, 0.0), boresight=(1.0, 0.0, 0.0))
    rx = OpticalReceiver(area_m2=2.5e-3, position=(0.15, 0.0, 0.0),
                         normal=(-1.0, 0.0, 0.0))
    link = link_between(tx, rx)
    assert link.distance_m == pytest.approx(0.15)
    assert link.irradiance_angle_deg == pytest.approx(0.0, abs=1e-9)
    assert link.incidence_angle_deg == pytest.approx(0.0, abs=1e-9)
    assert link.order == pytest.approx(lambertian_order(15.0))


def test_link_between_tilted_receiver():
    # receiver normal turned 30 degrees away from the incoming ray
    c30, s30 = math.cos(math.radians(30.0)), math.sin(math.radians(30.0))
    tx = OpticalTransmitter(optical_power_w=0.05, position=(0.0, 1.0, 0.0),
                            boresight=(0.0, -1.0, 0.0))
    rx = OpticalReceiver(area_m2=1e-3, position=(0.0, 0.0, 0.0),
                         normal=(s30, c30, 0.0))
    link = link_between(tx, rx)
    assert link.incidence_angle_deg == pytest.approx(30.0, abs=1e-9)
    assert link.irradiance_angle_deg == pytest.approx(0.0, abs=1e-9)


def test_link_between_back_facing_clamps_to_90():
    tx = OpticalTransmitter(optical_power_w=0.05, position=(0.0, 0.0, 1.0),
                            boresight=(0.0, 0.0, -1.0))
    rx = OpticalReceiver(area_m2=1e-3, position=(0.0, 0.0, 0.0),
                         normal=(0.0, 0.0, -1.0))
    link = link_between(tx, rx)
    assert link.incidence_angle_deg == 90.0
    assert path_loss(link, rx.area_m2) == pytest.approx(0.0, abs=1e-15)


def test_photon_energy_frozen_values():
    assert photon_energy(550e-9) == pytest.approx(3.6117e-19, rel=1e-3)
    assert photon_energy(940e-9) == pytest.approx(2.1132e-19, rel=1e-3)


def test_photon_energy_inverse_wavelength_ratio():
    rng = np.random.default_rng(22)
    for _ in range(100):
        l1, l2 = rng.uniform(200e-9, 2000e-9, size=2)
        ratio = photon_energy(l1) / photon_energy(l2)
        assert ratio == pytest.approx(l2 / l1, rel=1e-12)


def test_pv_input_power_linear_through_calibration_point():
    assert pv_input_power(1000.0) == pytest.approx(0.9e-3, rel=1e-12)
    assert pv_input_power(150.0) == pytest.approx(0.135e-3, rel=1e-12)
    assert pv_input_power(0.0) == 0.0
    # linearity
    rng = np.random.default_rng(23)
    for lux in rng.uniform(0.0, 2000.0, size=50):
        assert pv_input_power(2.0 * lux) == pytest.approx(
            2.0 * pv_input_power(lux), rel=1e-12)


def test_illuminance_superposes_ambient_and_sources():
    rx = OpticalReceiver(area_m2=2.5e-3, position=(0.0, 0.0, 0.0),
                         normal=(0.0, 1.0, 0.0))
    tx = OpticalTransmitter(optical_power_w=0.0278, half_angle_deg=15.0,
                            position=(0.0, 0.3, 0.0), boresight=(0.0, -1.0, 0.0))
    base = illuminance_at(rx, 150.0)
    assert base == 150.0
    lit = illuminance_at(rx, 150.0, [tx])
    gain = path_loss(link_between(tx, rx), rx.area_m2)
    expected = 150.0 + 250.0 * 0.0278 * gain / rx.area_m2
    assert lit == pytest.approx(expected, rel=1e-12)
    # two identical sources double the added part
    lit2 = illuminance_at(rx, 150.0, [tx, tx])
    assert lit2 - 150.0 == pytest.approx(2.0 * (lit - 150.0), rel=1e-12)


def test_frame_failure_logistic_shape():
    model = InterferenceModel(midpoint_lux=300.0, steepness_per_lux=0.02,
                              floor=0.0)
    assert frame_failure_probability(300.0, model) == pytest.approx(0.5)
    assert frame_failure_probability(0.0, model) == pytest.approx(
        1.0 / (1.0 + math.exp(-6.0)), rel=1e-9)
    # monotone non-increasing in illuminance
    lux = np.linspace(0.0, 2000.0, 81)
    p = [frame_failure_probability(float(x), model) for x in lux]
    assert all(a >= b for a, b in zip(p, p[1:]))
    assert p[0] > 0.99
    assert p[-1] < 1e-6


def test_frame_failure_floor_respected():
    model = InterferenceModel(floor=0.05)
    assert frame_failure_probability(1e6, model) == pytest.approx(0.05)
    assert frame_failure_probability(0.0, model) <= 1.0


def test_validation_errors():
    with pytest.raises(ValueError):
        OpticalTransmitter(optical_power_w=-1.0)
    with pytest.raises(ValueError):
        OpticalReceiver(area_m2=0.0)
    with pytest.raises(ValueError):
        OpticalLink(distance_m=0.0, irradiance_angle_deg=0.0,
                    incidence_angle_deg=0.0)
    with pytest.raises(ValueError):
        InterferenceModel(steepness_per_lux=0.0)
    with pytest.raises(ValueError):
        pv_input_power(-1.0)
    with pytest.raises(ValueError):
        photon_energy(0.0)


# seeds of one 32-bit word, then ones that SeedSequence splits into two
# and three words
DRAW_SEEDS = list(range(32)) + [2 ** 32, 2 ** 64 + 1]


@pytest.mark.parametrize("seed", DRAW_SEEDS)
def test_interference_draws_are_numpys_default_rng(seed):
    # a node's stream, entropy (seed, node_id), and the interference
    # sweep's, entropy seed alone
    for node_id in range(1, 16):
        ours = list(islice(uniform_draws(seed, node_id), 1000))
        theirs = np.random.default_rng((seed, node_id)).random(1000)
        assert ours == theirs.tolist(), (seed, node_id)
    ours = list(islice(uniform_draws(seed), 9000))
    assert ours == np.random.default_rng(seed).random(9000).tolist(), seed
