"""Size the schedule and the storage for a sharing deployment.

Three planning questions, answered with the library calculators: how
much sleep is left once a node serves n share sessions per interval,
what request period every emitter can keep up with, and how much
capacitance rides out the worst session without sagging below the
retention floor.
"""

from luxnet.controller import duty_cycle, select_t_data_req, standby_time
from luxnet.energy import (
    DEFAULT_V_MIN,
    LEAK_POWER_W,
    PMIC_EFFICIENCY,
    STORAGE_CAPACITANCE_F,
    V_OVERDISCHARGE,
    V_STORAGE_MAX,
    min_capacitance,
)
from luxnet.node import DEFAULT_TIMING


def main():
    print("sessions  duty_ratio  standby_s")
    for n in range(0, 9):
        duty = duty_cycle(DEFAULT_TIMING, n)
        if duty.feasible:
            print(f"{n:>8} {duty.ratio:>11.4f} {standby_time(DEFAULT_TIMING, n):>10.2f}")
        else:
            print(f"{n:>8} {duty.ratio:>11.4f} {'(does not fit)':>14}")
    print()

    period = select_t_data_req([DEFAULT_TIMING] * 3)
    print(f"request period every node sustains: {period:.0f} s "
          f"(recovery bound {DEFAULT_TIMING.t_energy_net_rec:.0f} s, "
          f"standby bound {DEFAULT_TIMING.t_standby:.2f} s)")
    print(f"the schedule used by the shipped scenarios, 600 s, "
          f"fits the same window: "
          f"{select_t_data_req([DEFAULT_TIMING] * 3, preferred=600.0):.0f} s")
    print()

    farads = min_capacitance(e_peak=2.0, eta_pmic_l=PMIC_EFFICIENCY,
                             p_leak=LEAK_POWER_W, t_peak=40.0,
                             v_max=V_STORAGE_MAX, v_min=V_OVERDISCHARGE)
    print(f"storage for a 2 J peak over 40 s at {PMIC_EFFICIENCY:.0%} "
          f"converter efficiency: {farads:.4f} F (shipped nodes carry "
          f"{STORAGE_CAPACITANCE_F} F and a {DEFAULT_V_MIN} V guard floor "
          f"instead)")


if __name__ == "__main__":
    main()
