"""Line-of-sight optical channel: geometry, path loss, photometry.

The propagation model is the generalised Lambertian emitter.  A source with
half-intensity angle Phi_1/2 has mode number

    m = -ln 2 / ln(cos Phi_1/2)

so m = 1 for a 60 degree source and m ~ 20 for a 15 degree spot LED.  The
line-of-sight channel gain onto a detector of area A at distance D is

    L = (m + 1) A / (2 pi D^2) * cos(alpha)^m * cos(beta)

with alpha the angle off the transmitter boresight and beta the angle of
incidence at the receiver.  Incidence beyond the receiver field of view
contributes nothing.

Photometric and radiometric quantities are tied together by a single
luminous efficacy constant (lm emitted per radiated watt).  That single
knob is deliberate: the sources in play are white phosphor LEDs whose
spectra we do not track, so illuminance at a face is

    E_v [lux] = efficacy * irradiance [W/m^2]

Photovoltaic harvest is linear in illuminance through one calibration
point, CELL_REFERENCE_W produced at CELL_REFERENCE_LUX with conversion
losses folded in, which holds well for small indoor cells over the range
the network operates in.

Optical interference: while any energy burst is on the air anywhere in
the cell, every node's downlink decoding degrades as its own ambient
light falls.  The burst's gain onto the receiving node does not enter.
The failure ratio is modelled as a logistic curve in ambient
illuminance; with no burst in progress frames are assumed clean.
Whether a frame is lost is drawn from each node's own uniform stream,
uniform_draws(seed, node_id), which is numpy's
default_rng((seed, node_id)) in pure Python.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, List, NamedTuple, Tuple

PLANCK_J_S = 6.62607015e-34
LIGHT_SPEED_M_S = 2.99792458e8

# lm per radiated watt for a generic warm-white phosphor LED spectrum
LUMINOUS_EFFICACY_LM_W = 250.0

# one photovoltaic cell's electrical output at the calibration point,
# conversion and regulator losses folded in
CELL_REFERENCE_W = 0.9e-3
CELL_REFERENCE_LUX = 1000.0

Vec3 = Tuple[float, float, float]


def lambertian_order(half_angle_deg: float) -> float:
    """Lambertian mode number m for a given half-intensity angle.

    half_angle_deg must lie strictly inside (0, 90).
    """
    if not 0.0 < half_angle_deg < 90.0:
        raise ValueError(f"half angle must be in (0, 90) deg, got {half_angle_deg}")
    return -math.log(2.0) / math.log(math.cos(math.radians(half_angle_deg)))


def photon_energy(wavelength_m: float) -> float:
    """Energy of one photon, h*c/lambda, in joules."""
    if wavelength_m <= 0.0:
        raise ValueError(f"wavelength must be positive, got {wavelength_m}")
    return PLANCK_J_S * LIGHT_SPEED_M_S / wavelength_m


class _Transmitter(NamedTuple):
    optical_power_w: float
    half_angle_deg: float = 60.0
    position: Vec3 = (0.0, 0.0, 0.0)
    boresight: Vec3 = (0.0, 0.0, -1.0)


class OpticalTransmitter(_Transmitter):
    """A Lambertian source: radiated power, beam width, pose."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.optical_power_w < 0.0:
            raise ValueError("optical power must be non-negative")
        if not 0.0 < self.half_angle_deg < 90.0:
            raise ValueError("half angle must be in (0, 90) deg")
        return self

    @property
    def order(self) -> float:
        return lambertian_order(self.half_angle_deg)


class _Receiver(NamedTuple):
    area_m2: float
    field_of_view_half_angle_deg: float = 90.0
    position: Vec3 = (0.0, 0.0, 0.0)
    normal: Vec3 = (0.0, 0.0, 1.0)


class OpticalReceiver(_Receiver):
    """A flat detector or photovoltaic face: area, field of view, pose."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.area_m2 <= 0.0:
            raise ValueError("receiver area must be positive")
        if not 0.0 < self.field_of_view_half_angle_deg <= 90.0:
            raise ValueError("field of view half angle must be in (0, 90] deg")
        return self


class _Link(NamedTuple):
    distance_m: float
    irradiance_angle_deg: float   # alpha, off transmitter boresight
    incidence_angle_deg: float    # beta, off receiver normal
    order: float = 1.0            # Lambertian mode number of the source


class OpticalLink(_Link):
    """Resolved geometry of one transmitter-receiver pair."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.distance_m <= 0.0:
            raise ValueError("link distance must be positive")
        for name, angle in (("irradiance", self.irradiance_angle_deg),
                            ("incidence", self.incidence_angle_deg)):
            if not 0.0 <= angle <= 90.0:
                raise ValueError(f"{name} angle must be in [0, 90] deg, got {angle}")
        return self


def norm(v: Vec3) -> float:
    """Euclidean length of a 3-vector."""
    return math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])


def _unit(v: Vec3) -> Vec3:
    n = norm(v)
    if n == 0.0:
        raise ValueError("zero-length direction vector")
    return (v[0] / n, v[1] / n, v[2] / n)


def _angle_deg(a: Vec3, b: Vec3) -> float:
    (ax, ay, az), (bx, by, bz) = _unit(a), _unit(b)
    cosine = min(max(ax * bx + ay * by + az * bz, -1.0), 1.0)
    return math.degrees(math.acos(cosine))


def link_between(tx: OpticalTransmitter, rx: OpticalReceiver) -> OpticalLink:
    """Compute the link geometry from the two poses.

    Angles beyond 90 degrees (source behind the face, or face turned away)
    are clamped to 90 so the cosine terms zero the gain rather than going
    negative for back-facing geometry.
    """
    sep = tuple(r - t for r, t in zip(rx.position, tx.position))
    distance = norm(sep)
    if distance <= 0.0:
        raise ValueError("transmitter and receiver are co-located")
    alpha = _angle_deg(tx.boresight, sep)
    beta = _angle_deg(rx.normal, tuple(-x for x in sep))
    return OpticalLink(distance_m=distance,
                       irradiance_angle_deg=min(alpha, 90.0),
                       incidence_angle_deg=min(beta, 90.0),
                       order=tx.order)


def path_loss(link: OpticalLink, area_m2: float,
              field_of_view_half_angle_deg: float = 90.0) -> float:
    """Line-of-sight channel gain (dimensionless power ratio).

    Returns 0 when the incidence angle lies outside the receiver field of
    view.  Raises for non-positive distance or area (enforced on the types).
    """
    if area_m2 <= 0.0:
        raise ValueError("receiver area must be positive")
    if link.incidence_angle_deg > field_of_view_half_angle_deg:
        return 0.0
    m = link.order
    alpha = math.radians(link.irradiance_angle_deg)
    beta = math.radians(link.incidence_angle_deg)
    geometric = (m + 1.0) * area_m2 / (2.0 * math.pi * link.distance_m ** 2)
    return geometric * math.cos(alpha) ** m * math.cos(beta)


def illuminance_at(rx: OpticalReceiver, ambient_lux: float,
                   active_sources: Iterable[OpticalTransmitter] = ()) -> float:
    """Total illuminance on a face: ambient plus every active source.

    Contributions superpose; ambient_lux stands in for the room light that
    the scenario does not trace ray by ray.
    """
    if ambient_lux < 0.0:
        raise ValueError("ambient illuminance must be non-negative")
    lux = ambient_lux
    for tx in active_sources:
        gain = path_loss(link_between(tx, rx), rx.area_m2,
                         rx.field_of_view_half_angle_deg)
        # irradiance on the face, W/m^2, times the efficacy
        lux += LUMINOUS_EFFICACY_LM_W * (tx.optical_power_w * gain
                                         / rx.area_m2)
    return lux


def pv_input_power(illuminance_lux: float) -> float:
    """Electrical watts from one cell at the given illuminance (linear model)."""
    if illuminance_lux < 0.0:
        raise ValueError("illuminance must be non-negative")
    return CELL_REFERENCE_W * illuminance_lux / CELL_REFERENCE_LUX


class _Interference(NamedTuple):
    midpoint_lux: float = 300.0
    steepness_per_lux: float = 0.02
    floor: float = 0.0


class InterferenceModel(_Interference):
    """Logistic frame-failure curve against ambient illuminance.

    failure = floor + (1 - floor) / (1 + exp(steepness * (lux - midpoint)))

    Monotone non-increasing in lux; approaches 1 - o(1) in the dark and
    `floor` under strong ambient light.  Applies to every receiver while
    any energy burst is on the air, wherever its emitter points.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.steepness_per_lux <= 0.0:
            raise ValueError("steepness must be positive")
        if not 0.0 <= self.floor < 1.0:
            raise ValueError("floor must be in [0, 1)")
        return self


def frame_failure_probability(ambient_lux: float,
                              model: InterferenceModel = InterferenceModel()) -> float:
    """Probability that a downlink frame is lost while a burst is on the air."""
    if ambient_lux < 0.0:
        raise ValueError("ambient illuminance must be non-negative")
    z = model.steepness_per_lux * (ambient_lux - model.midpoint_lux)
    # exp overflow guard: the curve is flat to double precision out here
    if z > 700.0:
        logistic = 0.0
    elif z < -700.0:
        logistic = 1.0
    else:
        logistic = 1.0 / (1.0 + math.exp(z))
    return model.floor + (1.0 - model.floor) * logistic


# numpy.random.SeedSequence's hash constants, its 4-word pool and the
# PCG64 multiplier (O'Neill, "PCG: a family of simple fast
# space-efficient statistically good algorithms for random number
# generation", HMC-CS-2014-0905)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_WORDS = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


def _hasher(hash_const: int, mult: int) -> Callable[[int], int]:
    """SeedSequence's hashmix: each call hashes one 32-bit word and steps
    the hash constant it shares with the calls before it."""

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * mult & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    return hashmix


def _seed_pool(entropy: List[int]) -> List[int]:
    """SeedSequence's entropy pool: every word hashed into 4 mixed words."""
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    padded = entropy + [0] * (_POOL_WORDS - len(entropy))
    pool = [hashmix(word) for word in padded[:_POOL_WORDS]]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_WORDS:]:
        for dst in range(_POOL_WORDS):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def uniform_draws(*entropy: int) -> Iterator[float]:
    """Uniform doubles in [0, 1), the values of successive
    numpy.random.default_rng(entropy).random() calls; one integer's are
    default_rng(seed)'s.

    SeedSequence hashes the integers' 32-bit words into its pool and
    expands that to four 64-bit words, which seed PCG64 (a 128-bit LCG
    with XSL-RR output) as numpy's srandom_r does; each double is the top
    53 bits of one output.  A negative integer raises ValueError, as
    numpy's does.
    """
    if min(entropy) < 0:
        raise ValueError("expected non-negative integer")
    # each integer as little-endian 32-bit words, [0] for 0
    pool = _seed_pool([n >> shift & _MASK32 for n in entropy
                       for shift in range(0, max(n.bit_length(), 1), 32)])
    # generate_state(4, uint64): the pool hashed twice over, in 32-bit
    # halves, low half first
    hashmix = _hasher(_INIT_B, _MULT_B)
    halves = [hashmix(pool[k % _POOL_WORDS]) for k in range(2 * _POOL_WORDS)]
    w0, w1, w2, w3 = (lo | hi << 32 for lo, hi in zip(halves[::2],
                                                       halves[1::2]))
    # srandom_r: from state 0, step, add the initial state, step
    inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
    state = ((inc + (w0 << 64 | w1)) * _PCG64_MULT + inc) & _MASK128
    return _pcg64_doubles(state, inc)


def _pcg64_doubles(state: int, inc: int) -> Iterator[float]:
    """PCG64's doubles from a seeded state and increment."""
    mult, mask64, mask128, unit = _PCG64_MULT, _MASK64, _MASK128, 2.0 ** -53
    while True:
        state = (state * mult + inc) & mask128
        word = (state >> 64 ^ state) & mask64
        rot = state >> 122
        yield (((word >> rot | word << (64 - rot)) & mask64) >> 11) * unit
