"""Harvester, storage, and consumption models.

Storage is an ideal supercapacitor, E = 1/2 C V^2, drained by a constant
leak and clamped to [0, full].  The power-management hysteresis lives in
two thresholds: below v_ovdis the load must disconnect (deep undervoltage),
and it may only reconnect once the cell has climbed back past v_chrdy.
v_min is the software guard floor a node keeps above the hard v_ovdis so
that scheduled work never strands it in the dead band.

Harvest is a set of photovoltaic cells, each with its own geometry (an
OpticalReceiver face).  Every cell converts illuminance to electrical
watts through the one shared calibration point in the channel module,
and a node's harvest is the sum over its cells:

    P_harvest = sum_i CELL_REFERENCE_W * E_v(i) / CELL_REFERENCE_LUX

with E_v(i) the ambient plus burst illuminance on face i.

The default power profile was fit against three targets at once: standby
and sleep below what a single cell makes at full room light, an unassisted
node at 150 lx lasting on the order of a working day, and burst-assisted
recovery fitting inside one reporting interval.  See the calibration
module, which re-derives the numbers.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence, Tuple

from .channel import CELL_REFERENCE_W, OpticalReceiver, pv_input_power

# hard undervoltage thresholds of the power-management front end
V_OVERDISCHARGE = 3.2
V_CHARGE_READY = 3.8
V_STORAGE_MAX = 4.5
# the guard floor a node keeps unless its scenario sets another
DEFAULT_V_MIN = 3.3
STORAGE_CAPACITANCE_F = 0.4
LEAK_POWER_W = 10e-6

PV_CELL_AREA_M2 = 2.5e-3
PV_CELLS_PER_NODE = 3

# open-circuit voltage of one cell saturates with illuminance; used by the
# role self-assessment sampling, not by the power integration
PV_OPEN_VOLTAGE_MAX = 4.4
PV_OPEN_VOLTAGE_KNEE_LUX = 350.0


def pv_open_voltage(illuminance_lux: float) -> float:
    """Open-circuit voltage of one cell at the given illuminance."""
    if illuminance_lux < 0.0:
        raise ValueError("illuminance must be non-negative")
    return PV_OPEN_VOLTAGE_MAX * illuminance_lux / (illuminance_lux + PV_OPEN_VOLTAGE_KNEE_LUX)


def illuminance_for_open_voltage(volts: float) -> float:
    """Invert pv_open_voltage: the illuminance producing this reading.

    A reading at or above the saturation voltage bounds the light only
    from below, so it inverts to infinity.
    """
    if not volts >= 0.0:    # negative or NaN
        raise ValueError("voltage outside the invertible range")
    if volts >= PV_OPEN_VOLTAGE_MAX:
        return math.inf
    return PV_OPEN_VOLTAGE_KNEE_LUX * volts / (PV_OPEN_VOLTAGE_MAX - volts)


class StorageCapacitor:
    """Ideal supercapacitor state plus the node's guard floor v_min.

    The hardware thresholds are the module constants V_STORAGE_MAX (full),
    V_OVERDISCHARGE (v_ovdis) and V_CHARGE_READY (v_chrdy).  Mutable:
    storage_step advances the voltage in place, over one tick or over a
    quiet stretch of many in one closed-form step.
    """

    __slots__ = ("capacitance", "voltage", "v_min", "leak_power")

    def __init__(self, capacitance: float = STORAGE_CAPACITANCE_F,
                 voltage: float = 0.0, v_min: float = DEFAULT_V_MIN,
                 leak_power: float = LEAK_POWER_W):
        if capacitance <= 0.0:
            raise ValueError("capacitance must be positive")
        if not 0.0 <= voltage <= V_STORAGE_MAX + 1e-9:
            raise ValueError(f"voltage {voltage} outside [0, v_max]")
        if v_min < V_OVERDISCHARGE:
            raise ValueError("v_min must not sit below v_ovdis")
        if leak_power < 0.0:
            raise ValueError("leak power must be non-negative")
        self.capacitance = capacitance
        self.voltage = voltage
        self.v_min = v_min
        self.leak_power = leak_power

    @property
    def energy(self) -> float:
        """Stored energy, 1/2 C V^2, joules."""
        return 0.5 * self.capacitance * self.voltage ** 2

    @property
    def energy_full(self) -> float:
        return 0.5 * self.capacitance * V_STORAGE_MAX ** 2

    def energy_at(self, voltage: float) -> float:
        return 0.5 * self.capacitance * voltage ** 2


class _Profile(NamedTuple):
    sleep: float
    standby: float
    sense: float
    data_tx: float
    etx: float
    decode: float


class PowerProfile(_Profile):
    """Electrical draw of each node activity, watts.

    Sleep and standby must both stay under what a single cell produces
    at full room light (CELL_REFERENCE_W), otherwise idle life is not
    sustainable.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if any(p < 0.0 for p in self):
            raise ValueError("power draws must be non-negative")
        if not self.sleep < self.standby:
            raise ValueError("sleep draw must sit below standby draw")
        if self.standby >= CELL_REFERENCE_W:
            raise ValueError("standby draw must stay below single-cell generation")
        return self


# Fit by the calibration module; see its docstring for the three targets.
DEFAULT_PROFILE = PowerProfile(
    sleep=180e-6,
    standby=550e-6,
    sense=11.0e-3,
    data_tx=12.0e-3,
    etx=52.7e-3,
    decode=2.0e-3,
)


class _Harvester(NamedTuple):
    cells: Tuple[OpticalReceiver, ...]


class HarvesterArray(_Harvester):
    """The full set of cells on one node, one receiver face per cell."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if len(self.cells) == 0:
            raise ValueError("harvester needs at least one cell")
        return self

    def harvest_power(self, illuminance_per_cell: Sequence[float]) -> float:
        """Total electrical watts given per-face illuminance."""
        if len(illuminance_per_cell) != len(self.cells):
            raise ValueError("one illuminance value per cell required")
        # left to right: Python 3.12's sum() of floats rounds otherwise
        total = 0.0
        for lux in illuminance_per_cell:
            total += pv_input_power(lux)
        return total


def min_capacitance(e_peak: float, eta_pmic_l: float, p_leak: float,
                    t_peak: float, v_max: float, v_min: float) -> float:
    """Smallest capacitance that rides out a peak load of e_peak joules.

    C = 2 (e_peak / eta + p_leak t_peak) / (v_max^2 - v_min^2)
    """
    if not 0.0 < eta_pmic_l <= 1.0:
        raise ValueError("PMIC efficiency must be in (0, 1]")
    if e_peak < 0.0 or p_leak < 0.0 or t_peak < 0.0:
        raise ValueError("energy, leak, and duration must be non-negative")
    if not v_max > v_min >= 0.0:
        raise ValueError("need v_max > v_min >= 0")
    return 2.0 * (e_peak / eta_pmic_l + p_leak * t_peak) / (v_max ** 2 - v_min ** 2)


def _closed_form(e0: float, full: float, capacitance: float, net: float,
                 ticks: int) -> Tuple[float, float]:
    """Unclamped energy and voltage after `ticks` ticks of net joules
    each from e0 joules, in storage of capacitance farads that holds
    full joules."""
    e = e0 + ticks * net
    # min(max(e, 0), full), spelled out; a NaN passes through
    stored = 0.0 if e < 0.0 else full if e > full else e
    return e, math.sqrt(2.0 * stored / capacitance)


def storage_step(cap: StorageCapacitor, p_in: float, p_out: float, dt: float,
                 ticks: int = 1) -> float:
    """Advance cap.voltage in place by `ticks` ticks at constant power.

    Between events the stored energy is linear in time, so any number of
    ticks is one step: E = clamp(E0 + ticks * net), net = (p_in - p_out -
    leak) * dt, clamped to [0, full].  Returns the clamp loss: E0 + ticks
    * net minus the energy now stored, joules, which is the sum of the
    losses of clamping tick by tick.  It is positive when the top clamp
    spilled harvest, negative when the floor refused a draw the storage
    could not pay, and within a few ulps of zero otherwise (the square
    root and its square do not round-trip exactly).
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if p_in < 0.0 or p_out < 0.0:
        raise ValueError("powers must be non-negative")
    e, voltage = _closed_form(cap.energy, cap.energy_full, cap.capacitance,
                              (p_in - p_out - cap.leak_power) * dt, ticks)
    # the clamp bounds every finite result, so this rejects a NaN input
    if not 0.0 <= voltage <= V_STORAGE_MAX + 1e-9:
        raise ValueError(f"voltage {voltage} outside [0, v_max]")
    cap.voltage = voltage
    return e - 0.5 * cap.capacitance * voltage ** 2


def band_exit(cap: StorageCapacitor, p_in: float, p_out: float, dt: float,
              ticks: int, v_low: float, v_high: float) -> int:
    """The first of `ticks` ticks whose storage_step voltage leaves
    [v_low, v_high), or ticks if none does; 1 when ticks is 1.

    At constant power the voltage moves one way, so the exit is guessed
    from the energy of the edge it moves toward, then corrected against
    storage_step's own expression.
    """
    net = (p_in - p_out - cap.leak_power) * dt
    e0, full, capacitance = cap.energy, cap.energy_full, cap.capacitance

    def inside(n: int) -> bool:
        return v_low <= _closed_form(e0, full, capacitance, net, n)[1] < v_high

    # a NaN voltage is outside, and storage_step then rejects it
    if not inside(1):
        return 1
    if inside(ticks):
        return ticks
    # the exit lies in (1, ticks], past a finite edge
    edge = v_high if net > 0.0 else v_low
    n = min(max(math.ceil((cap.energy_at(edge) - e0) / net), 2), ticks)
    while not inside(n - 1):
        n -= 1
    while inside(n):
        n += 1
    return n

