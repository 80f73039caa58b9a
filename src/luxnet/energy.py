"""Harvester, storage, and consumption models.

Storage is an ideal supercapacitor, E = 1/2 C V^2, drained by a constant
leak and clamped to [0, STORAGE_FULL_J].  Every node has the same one:
its capacitance and leak are the module constants STORAGE_CAPACITANCE_F
and LEAK_POWER_W, and a node sets only its start voltage and its guard
floor v_min.  The storage holds its energy; its voltage follows from it.
The power-management hysteresis lives in two thresholds: below v_ovdis
the load must disconnect (deep undervoltage), and it may only reconnect
once the cell has climbed back past v_chrdy.  v_min is the software
guard floor a node keeps above the hard v_ovdis so that scheduled work
never strands it in the dead band.

This module is the one place the storage law is evaluated: from e0
joules at net = (p_in - p_out - leak) * dt joules a tick (net_per_tick,
the one conversion from watts), the energy n ticks on is
clamp(e0 + n * net) and the voltage sqrt(2 E / C).  storage_step steps
a capacitor by a net, band_exit finds the tick on which a storage leaves
a voltage band, voltage_after reads the voltage n ticks on, and
clamp_runs and run_voltages expand a trace segment's instants bit for
bit as storage_step steps them, each lane n ticks from its anchor;
stored_j is 1/2 C V^2 at a given voltage, band_energy_j the joules
between two voltages, and drain_w the watts a storage loses, leak
included, which the session planners divide into.

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
from bisect import bisect_left
from typing import List, NamedTuple, Sequence, Tuple

from .channel import CELL_REFERENCE_W, OpticalReceiver, pv_input_power

# hard undervoltage thresholds of the power-management front end
V_OVERDISCHARGE = 3.2
V_CHARGE_READY = 3.8
V_STORAGE_MAX = 4.5
# a storage voltage this close to V_STORAGE_MAX counts as full: a primary
# that waits for full acts from V_STORAGE_MAX - FULL_TOLERANCE_V
FULL_TOLERANCE_V = 1e-9
# the guard floor a node keeps unless its scenario sets another
DEFAULT_V_MIN = 3.3
STORAGE_CAPACITANCE_F = 0.4
LEAK_POWER_W = 10e-6
# the power-management converter's efficiency under load, which sizes the
# storage for a peak (min_capacitance)
PMIC_EFFICIENCY = 0.85
# what the storage holds at V_STORAGE_MAX, 1/2 C V^2, joules
STORAGE_FULL_J = 0.5 * STORAGE_CAPACITANCE_F * V_STORAGE_MAX ** 2

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


def stored_j(voltage: float) -> float:
    """What the storage holds at `voltage`, 1/2 C V^2, joules."""
    return 0.5 * STORAGE_CAPACITANCE_F * voltage ** 2


class StorageCapacitor:
    """Ideal supercapacitor state plus the node's guard floor v_min.

    Every node stores in the same STORAGE_CAPACITANCE_F farads, drained
    by the same LEAK_POWER_W.  The hardware thresholds are the module
    constants V_STORAGE_MAX (full), V_OVERDISCHARGE (v_ovdis) and
    V_CHARGE_READY (v_chrdy).  The state is the stored energy, joules.
    voltage is kept beside it, since the node logic reads it on every
    step: the start voltage as given, then the voltage storage_step
    steps to.  Mutable: only storage_step writes the two, in place, over
    one tick or over a quiet stretch of many in one closed-form step.
    """

    __slots__ = ("energy", "voltage", "v_min")

    def __init__(self, voltage: float = 0.0, v_min: float = DEFAULT_V_MIN):
        if not 0.0 <= voltage <= V_STORAGE_MAX:
            raise ValueError(f"voltage {voltage} outside [0, v_max]")
        if v_min < V_OVERDISCHARGE:
            raise ValueError("v_min must not sit below v_ovdis")
        self.energy = stored_j(voltage)
        self.voltage = voltage
        self.v_min = v_min


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


def net_per_tick(p_in: float, p_out: float, dt: float) -> float:
    """Joules one tick of dt seconds adds to the storage at p_in watts
    harvested and p_out drawn, net of the leak (negative for a drain)."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if p_in < 0.0 or p_out < 0.0:
        raise ValueError("powers must be non-negative")
    return (p_in - p_out - LEAK_POWER_W) * dt


def drain_w(p_in: float, p_out: float) -> float:
    """Watts the storage loses at p_in watts harvested and p_out drawn,
    the leak included (negative for a gain)."""
    return p_out + LEAK_POWER_W - p_in


def band_energy_j(v_high: float, v_low: float) -> float:
    """Joules the storage gives up from v_high down to v_low."""
    return 0.5 * STORAGE_CAPACITANCE_F * (v_high ** 2 - v_low ** 2)


def _closed_form(e0: float, net: float, ticks: int
                 ) -> Tuple[float, float, float]:
    """Unclamped energy, clamped energy and voltage after `ticks` ticks
    of net joules each from e0 joules."""
    e = e0 + ticks * net
    # min(max(e, 0), full), spelled out; a NaN passes through
    stored = 0.0 if e < 0.0 else STORAGE_FULL_J if e > STORAGE_FULL_J else e
    return e, stored, math.sqrt(2.0 * stored / STORAGE_CAPACITANCE_F)


def storage_step(cap: StorageCapacitor, net: float, ticks: int = 1) -> float:
    """Advance cap's energy and voltage in place by `ticks` ticks of net
    joules each (net_per_tick).

    Between events the stored energy is linear in time, so any number of
    ticks is one step: E = clamp(E0 + ticks * net), clamped to [0, full].
    Returns the clamp loss: E0 + ticks * net minus the energy now stored,
    joules, which is the sum of the losses of clamping tick by tick.  It
    is positive when the top clamp spilled harvest, negative when the
    floor refused a draw the storage could not pay, and 0.0 when no clamp
    bites.
    """
    e, stored, voltage = _closed_form(cap.energy, net, ticks)
    # the clamp bounds every finite result, so this rejects a NaN input
    if not 0.0 <= voltage <= V_STORAGE_MAX:
        raise ValueError(f"voltage {voltage} outside [0, v_max]")
    cap.energy = stored
    cap.voltage = voltage
    return e - stored


def voltage_after(e0: float, net: float, ticks: int) -> float:
    """The voltage storage_step steps to over `ticks` ticks of net joules
    each from e0 joules."""
    return _closed_form(e0, net, ticks)[2]


def band_exit(e0: float, net: float, ticks: int, v_low: float,
              v_high: float) -> int:
    """The first of `ticks` ticks whose storage_step voltage, from e0
    joules at net joules a tick, leaves [v_low, v_high), or ticks if
    none does; 1 when ticks is 1.

    At constant power the voltage moves one way, so the exit is guessed
    from the energy of the edge it moves toward, then corrected against
    storage_step's own expression.
    """
    def inside(n: int) -> bool:
        return v_low <= _closed_form(e0, net, n)[2] < v_high

    # a NaN voltage is outside, and storage_step then rejects it
    if ticks == 1 or not inside(1):
        return 1
    if inside(ticks):
        return ticks
    # the exit lies in (1, ticks], past a finite edge
    edge = v_high if net > 0.0 else v_low
    n = min(max(math.ceil((stored_j(edge) - e0) / net), 2), ticks)
    while not inside(n - 1):
        n -= 1
    while inside(n):
        n += 1
    return n


# the voltage of a storage held at STORAGE_FULL_J
_V_FULL = _closed_form(STORAGE_FULL_J, 0.0, 0)[2]
# a lane's closed form over some instants: (e0, net, offset), e0 joules
# at its anchor, net joules a tick, the instants counted from offset
# ticks after the anchor
Anchor = Tuple[float, float, int]
# one anchor's runs over some instants: (lo, hi, before, after)
Runs = Tuple[int, int, float, float]


def _shifted(instants: range, offset: int) -> range:
    """instants counted from the anchor, offset ticks before their origin."""
    return range(instants.start + offset, instants.stop + offset,
                 instants.step)


def clamp_runs(anchors: Sequence[Anchor], instants: range) -> List[Runs]:
    """Each anchor's runs over instants, as (lo, hi, before, after), the
    instants a non-empty range.

    The closed-form energy e0 + (offset + n) * net is live, inside
    0..STORAGE_FULL_J, at instants[lo:hi]; at instants[:lo] and at
    instants[hi:] a clamp holds it, and the storage voltage is before
    and after there.  An anchor held throughout has lo == len(instants).
    The energy moves one way and each float step is monotone in n, so
    the energies at the first and last instant settle an anchor live
    throughout; any other goes to _clamped_runs.
    """
    live = (0, len(instants), 0.0, 0.0)
    full = STORAGE_FULL_J
    n0, n1 = instants[0], instants[-1]
    return [live if 0.0 <= e0 + (n0 + offset) * net <= full
            and 0.0 <= e0 + (n1 + offset) * net <= full
            else _clamped_runs(e0, net, _shifted(instants, offset))
            for e0, net, offset in anchors]


def _clamped_runs(e0: float, net: float, instants: range) -> Runs:
    """clamp_runs for one anchor that a clamp may hold, its instants
    counted from the anchor.

    A clamp bites only from an end: an anchor it holds at both ends, on
    the same side, is held throughout, and otherwise a bisection finds
    where the first instant's clamp stops biting and where the last
    instant's starts.  A NaN energy is live, as the closed form passes
    it through.
    """
    full = STORAGE_FULL_J
    count = len(instants)
    lo, hi, before, after = 0, count, 0.0, 0.0
    first, last = e0 + instants[0] * net, e0 + instants[-1] * net
    if first < 0.0:
        if last < 0.0:
            return count, count, before, before
        lo = bisect_left(instants, True, key=lambda n: not e0 + n * net < 0.0)
    elif first > full:
        before = _V_FULL
        if last > full:
            return count, count, before, before
        lo = bisect_left(instants, True, key=lambda n: not e0 + n * net > full)
    if last < 0.0:
        hi = bisect_left(instants, True, lo, key=lambda n: e0 + n * net < 0.0)
    elif last > full:
        after = _V_FULL
        hi = bisect_left(instants, True, lo, key=lambda n: e0 + n * net > full)
    return lo, hi, before, after


def run_voltages(anchors: Sequence[Anchor], instants: range,
                 runs: Sequence[Runs]) -> List[List[float]]:
    """Per anchor, with its runs over instants (clamp_runs), the storage
    voltage at each instant: _closed_form's, bit for bit.

    A held run repeats its one voltage, and a live run takes the closed
    form, whose clamp never bites there, in the float order storage_step
    books it.
    """
    sqrt = math.sqrt
    # e / (C / 2) rounds as 2 e / C does, both halving and doubling being
    # exact, and a float n gives n * net the same bits, as does n plus a
    # float offset, both whole numbers below 2 ** 53: each is cheaper
    half_capacitance = STORAGE_CAPACITANCE_F / 2.0
    count = len(instants)
    floats = list(map(float, instants))
    lanes = []
    for (e0, net, offset), (lo, hi, before, after) in zip(anchors, runs):
        offset = float(offset)
        v_caps = [sqrt((e0 + (n + offset) * net) / half_capacitance)
                  for n in floats[lo:hi]]
        if lo or hi < count:
            v_caps = [before] * lo + v_caps + [after] * (count - hi)
        lanes.append(v_caps)
    return lanes
