"""Optical channel tests: Lambertian gain, photometry, interference."""

import math
from itertools import islice

import numpy as np
import pytest

from luxnet.channel import (
    LED_ORDER,
    InterferenceModel,
    OpticalReceiver,
    OpticalTransmitter,
    frame_failure_probability,
    illuminance_at,
    lambertian_order,
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


def toward(rx, distance, boresight=(0.0, 0.0, -1.0), power=1.0):
    """An emitter `distance` m above the face at rx, aimed along boresight."""
    return OpticalTransmitter(optical_power_w=power,
                              position=(rx.position[0], rx.position[1],
                                        rx.position[2] + distance),
                              boresight=boresight)


def on_axis_lux(power, distance):
    """250 lm/W * P * (m + 1) / (2 pi D^2): the face area cancels."""
    return 250.0 * power * (LED_ORDER + 1.0) / (2.0 * math.pi * distance ** 2)


def test_path_loss_frozen_on_axis_values():
    # dead on axis the path loss is (m + 1) A / (2 pi D^2), and m is the
    # 15 degree beam's 19.9937
    rx = OpticalReceiver(position=(0.0, 0.0, 0.0), normal=(0.0, 0.0, 1.0))
    assert LED_ORDER == lambertian_order(15.0)
    assert illuminance_at(rx, toward(rx, 1.0)) == pytest.approx(
        835.314, rel=1e-5)
    assert illuminance_at(rx, toward(rx, 0.2)) == pytest.approx(
        on_axis_lux(1.0, 0.2), rel=1e-12)


def test_link_between_recovers_plain_geometry():
    # the reference geometry: 50 mW one triangle side away, emitter and
    # face squarely facing each other, so both angles are zero
    side = OpticalReceiver(position=(0.15, 0.0, 0.0),
                           normal=(-1.0, 0.0, 0.0))
    tx = OpticalTransmitter(optical_power_w=0.05, position=(0.0, 0.0, 0.0),
                            boresight=(1.0, 0.0, 0.0))
    assert illuminance_at(side, tx) == pytest.approx(1856.25, rel=1e-5)
    assert illuminance_at(side, tx) == pytest.approx(
        on_axis_lux(0.05, 0.15), rel=1e-12)


def test_illuminance_monotone_in_distance_and_angles():
    rng = np.random.default_rng(21)
    rx = OpticalReceiver(position=(0.0, 0.0, 0.0), normal=(0.0, 0.0, 1.0))
    for _ in range(50):
        dists = np.sort(rng.uniform(0.05, 3.0, size=6))
        lux = [illuminance_at(rx, toward(rx, float(d))) for d in dists]
        assert all(a > b for a, b in zip(lux, lux[1:]))

    angles = np.radians(np.linspace(0.0, 89.0, 12))
    # the emitter's boresight turned off the face, then the face turned
    # off the emitter
    off_boresight = [illuminance_at(rx, toward(
        rx, 1.0, (math.sin(a), 0.0, -math.cos(a)))) for a in angles]
    assert all(a > b for a, b in zip(off_boresight, off_boresight[1:]))
    off_normal = [illuminance_at(
        OpticalReceiver(normal=(math.sin(a), 0.0, math.cos(a))),
        toward(rx, 1.0)) for a in angles]
    assert all(a > b for a, b in zip(off_normal, off_normal[1:]))


def test_received_power_scales_with_transmit_power():
    rx = OpticalReceiver(position=(0.0, 0.0, 0.0), normal=(0.0, 0.0, 1.0))
    one = illuminance_at(rx, toward(rx, 1.0, power=0.1))
    assert one == pytest.approx(83.5314, rel=1e-5)
    assert illuminance_at(rx, toward(rx, 1.0, power=0.2)) == pytest.approx(
        2.0 * one, rel=1e-12)
    assert illuminance_at(rx, toward(rx, 1.0, power=0.0)) == 0.0


def test_illuminance_follows_the_incidence_cosine():
    # face normal turned 30 degrees away from the incoming ray
    c30, s30 = math.cos(math.radians(30.0)), math.sin(math.radians(30.0))
    rx = OpticalReceiver(position=(0.0, 0.0, 0.0), normal=(0.0, 0.0, 1.0))
    tilted = OpticalReceiver(position=(0.0, 0.0, 0.0),
                             normal=(s30, 0.0, c30))
    assert illuminance_at(tilted, toward(rx, 1.0)) == pytest.approx(
        c30 * illuminance_at(rx, toward(rx, 1.0)), rel=1e-12)


def test_back_facing_face_gets_about_zero():
    rx = OpticalReceiver(position=(0.0, 0.0, 0.0), normal=(0.0, 0.0, -1.0))
    lux = illuminance_at(rx, toward(rx, 1.0))
    # the 90 degree clamp leaves cos(radians(90)) = 6.1e-17 of the gain
    assert 0.0 <= lux < 1e-12
    # an emitter aimed away lights the face about as little
    up = OpticalReceiver(position=(0.0, 0.0, 0.0), normal=(0.0, 0.0, 1.0))
    assert 0.0 <= illuminance_at(up, toward(up, 1.0, (0.0, 0.0, 1.0))) < 1e-12


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
    with pytest.raises(ValueError, match="co-located"):
        illuminance_at(OpticalReceiver(), OpticalTransmitter(1.0))
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
