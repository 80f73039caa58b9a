"""Walk the optical link budget from emitter drive to harvested power.

Places a small LED emitter at increasing distances from a photovoltaic
face and prints what arrives: illuminance under the beam, the same
face tilted 30 degrees off, and the electrical power the cell makes of
it.  Ends with the two scalar calculators the layout work leans on.
"""

from luxnet.calibration import burst_power_for_peak
from luxnet.channel import (
    LED_HALF_ANGLE_DEG,
    LED_ORDER,
    OpticalReceiver,
    OpticalTransmitter,
    illuminance_at,
    photon_energy,
    pv_input_power,
)


def main():
    power = burst_power_for_peak()
    print(f"emitter: {power * 1e3:.1f} mW optical, "
          f"{LED_HALF_ANGLE_DEG:.0f} deg half angle "
          f"(order {LED_ORDER:.2f})")
    print(f"{'distance_m':>10} {'head_on_lx':>10} {'tilted_lx':>10} "
          f"{'cell_mw':>8}")
    for d in (0.10, 0.15, 0.20, 0.30, 0.50):
        led = OpticalTransmitter(optical_power_w=power,
                                 position=(0.0, d, 0.0),
                                 boresight=(0.0, -1.0, 0.0))
        head_on = OpticalReceiver(position=(0.0, 0.0, 0.0),
                                  normal=(0.0, 1.0, 0.0))
        tilted = OpticalReceiver(position=(0.0, 0.0, 0.0),
                                 normal=(0.0, 0.866, 0.5))
        lux = illuminance_at(head_on, led)
        lux_tilted = illuminance_at(tilted, led)
        print(f"{d:>10.2f} {lux:>10.1f} {lux_tilted:>10.1f} "
              f"{pv_input_power(lux) * 1e3:>8.4f}")
    print()
    print(f"a 550 nm photon carries {photon_energy(550e-9):.4e} J; the "
          f"burst above moves ~{power / photon_energy(550e-9):.2e} of "
          f"them per second")


if __name__ == "__main__":
    main()
