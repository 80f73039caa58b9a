"""44-bit command/telemetry words and the byte-level frame container.

Every over-the-air exchange in the network fits into a single 44-bit word.
The word layout is fixed, MSB first (bit 43 transmitted first):

    bits 43..28   destination address (16 bit)
    bits 27..24   sender id (4 bit); sender 0 is reserved for the access point
    bits 23..0    payload, interpreted by sender id:

    sender != 0 (node uplink)          sender == 0 (access point downlink)
    ---------------------------        -----------------------------------
    bits 23..16  PV voltage code       bits 23..20  command id
    bits 15..8   storage voltage code  bits 19..4   command parameter
    bits  7..0   sensor reading        bits  3..0   reserved, carried as-is

Voltages are carried as 8-bit codes in 0.02 V steps over 0.00..5.10 V, and
the sensor byte carries temperature in 0.5 degC steps from -40.0 degC.
Rounding is to the nearest code with ties away from zero.

For storage or piping between tools a word is rendered as 11 hex digits.
The byte-level container used on slower serial-style links wraps a word
(or any short payload) as

    preamble (0xAA) | address hi | address lo | length | data | crc8

with CRC-8 (poly 0x07, init 0x00, no reflection) computed over the two
address bytes followed by the data bytes.
"""

from __future__ import annotations

import math
from enum import IntEnum
from typing import NamedTuple, Union

WORD_BITS = 44
WORD_MASK = (1 << WORD_BITS) - 1

OAP_SENDER_ID = 0
OAP_ADDRESS = 0x0000
BROADCAST_ADDRESS = 0xFFFF

VOLTAGE_STEP_V = 0.02
VOLTAGE_MAX_V = 5.10
TEMP_STEP_C = 0.5
TEMP_MIN_C = -40.0
TEMP_MAX_C = 87.5

DEFAULT_BITRATE_BPS = 1000.0
# every frame is one 44-bit word at the default bitrate
FRAME_AIRTIME_S = WORD_BITS / DEFAULT_BITRATE_BPS

PREAMBLE = 0xAA
MAX_DATA_BYTES = 255


class Command(IntEnum):
    """Downlink command ids (4 bit).  Values 4..15 are reserved."""

    INIT_CONFIG = 0
    DATA_REQUEST = 1
    ETX_REQUEST = 2
    SET_N = 3


class NodeToOap(NamedTuple):
    """Uplink payload: quantised telemetry snapshot of one node."""

    sender_id: int
    pv_level: int
    cap_level: int
    sensor: int


class OapToNode(NamedTuple):
    """Downlink payload: a command with a 16-bit parameter.

    The trailing reserved nibble carries no meaning yet but is kept so
    that any 44-bit word survives a decode/encode round trip bit-exactly.
    """

    command: int
    param: int
    reserved: int = 0

    @property
    def command_name(self) -> str:
        try:
            return Command(int(self.command)).name
        except ValueError:
            return f"RESERVED_{int(self.command)}"


Payload = Union[NodeToOap, OapToNode]


class Frame44(NamedTuple):
    """One addressed 44-bit word."""

    dest_address: int
    payload: Payload


_new = tuple.__new__

# decode44's command field: the Command for a known id, the int otherwise
_COMMANDS = tuple(Command) + tuple(range(len(Command), 16))

# each payload type's field ranges in declaration order, the bounds
# encode44 tests inline; once a test fails, it names the first field broken
_FIELD_RANGES = {
    NodeToOap: ((1, 15, "1..15"), (0, 255, "0..255"), (0, 255, "0..255"),
                (0, 255, "0..255")),
    OapToNode: ((0, 15, "0..15"), (0, 0xFFFF, "0..65535"), (0, 15, "0..15")),
}


def encode44(frame: Frame44) -> int:
    """Pack a frame into its 44-bit word.

    The one place a frame's fields are checked: the first field out of
    its range, payload fields in order and then dest_address, raises
    ValueError.
    """
    dest, p = frame
    if isinstance(p, NodeToOap):
        sender, pv, cap, sensor = p
        if (1 <= sender <= 15 and 0 <= pv <= 255 and 0 <= cap <= 255
                and 0 <= sensor <= 255 and 0 <= dest <= 0xFFFF):
            return dest << 28 | sender << 24 | pv << 16 | cap << 8 | sensor
    else:
        # the sender id field stays 0 to mark the downlink direction
        command, param, reserved = p
        if (0 <= command <= 15 and 0 <= param <= 0xFFFF
                and 0 <= reserved <= 15 and 0 <= dest <= 0xFFFF):
            return dest << 28 | command << 20 | param << 4 | reserved
    for name, value, (low, high, span) in zip(p._fields, p,
                                              _FIELD_RANGES[type(p)]):
        if not low <= value <= high:
            raise ValueError(f"{name} must be {span}, got {value}")
    raise ValueError(f"dest_address must be 16 bit, got {dest}")


def decode44(word: int) -> Frame44:
    """Unpack a 44-bit word.  Total: every word decodes to some frame,
    and re-encoding the frame reproduces the word bit-exactly.

    A zero sender id marks a downlink word.  The tuples are built with
    tuple.__new__, which skips the generated constructors: every field
    comes from a masked bit field, so none needs a check.
    """
    if not 0 <= word <= WORD_MASK:
        raise ValueError(f"word out of 44-bit range: {word:#x}")
    sender = (word >> 24) & 0xF
    if sender == OAP_SENDER_ID:
        payload: Payload = _new(OapToNode, (
            _COMMANDS[(word >> 20) & 0xF], (word >> 4) & 0xFFFF, word & 0xF))
    else:
        payload = _new(NodeToOap, (sender, (word >> 16) & 0xFF,
                                   (word >> 8) & 0xFF, word & 0xFF))
    return _new(Frame44, (word >> 28, payload))


def format_word(word: int) -> str:
    """Render a word as 11 upper-case hex digits."""
    if not 0 <= word <= WORD_MASK:
        raise ValueError(f"word out of 44-bit range: {word:#x}")
    return f"{word:011X}"


_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def parse_word(text: str) -> int:
    """Parse the 11-hex-digit rendering (an optional 0x prefix is accepted).

    Exactly eleven ASCII hex digits: int(s, 16) alone would also take a
    sign, underscores and non-ASCII digits.
    """
    s = text.strip()
    if s.lower().startswith("0x"):
        s = s[2:]
    if len(s) != 11 or not _HEX_DIGITS.issuperset(s):
        raise ValueError(f"expected 11 hex digits, got {s!r}")
    return int(s, 16)


# ---------------------------------------------------------------------------
# quantisation


def _round_half_away(x: float) -> int:
    # floor(x + 0.5) rounds half away from zero for x >= 0; the small guard
    # absorbs binary representation error so that e.g. 4.51/0.02 counts as
    # the tie it is mathematically (see quantize_voltage)
    if x < 0:
        return -_round_half_away(-x)
    return int(math.floor(x + 0.5 + 1e-9))


def quantize_voltage(volts: float) -> int:
    """Voltage -> 8-bit code, 0.02 V per step, ties away from zero."""
    if not 0.0 <= volts <= VOLTAGE_MAX_V + VOLTAGE_STEP_V / 2:
        raise ValueError(f"voltage out of range 0..{VOLTAGE_MAX_V}: {volts}")
    return min(255, _round_half_away(volts / VOLTAGE_STEP_V))


def voltage_from_code(code: int) -> float:
    if not 0 <= code <= 255:
        raise ValueError(f"code must be 0..255, got {code}")
    return code * VOLTAGE_STEP_V


def quantize_temperature(deg_c: float) -> int:
    """Temperature -> 8-bit code, 0.5 degC per step from -40.0 degC."""
    if not TEMP_MIN_C <= deg_c <= TEMP_MAX_C + TEMP_STEP_C / 2:
        raise ValueError(f"temperature out of range {TEMP_MIN_C}..{TEMP_MAX_C}: {deg_c}")
    return min(255, _round_half_away((deg_c - TEMP_MIN_C) / TEMP_STEP_C))


def temperature_from_code(code: int) -> float:
    if not 0 <= code <= 255:
        raise ValueError(f"code must be 0..255, got {code}")
    return TEMP_MIN_C + code * TEMP_STEP_C


# ---------------------------------------------------------------------------
# byte-level container

_CRC8_TABLE = []


def _build_crc_table():
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = ((crc << 1) ^ 0x07) & 0xFF if crc & 0x80 else (crc << 1) & 0xFF
        _CRC8_TABLE.append(crc)


_build_crc_table()


def crc8(data: bytes, init: int = 0x00) -> int:
    """CRC-8, polynomial 0x07, no reflection, no final xor."""
    crc = init
    for byte in data:
        crc = _CRC8_TABLE[crc ^ byte]
    return crc


class FrameError(ValueError):
    """Raised when a byte buffer fails to parse as a frame."""


class _Frame(NamedTuple):
    address: int
    data: bytes = b""


class GenericFrame(_Frame):
    """Byte-level frame: a 16-bit address plus up to 255 data bytes."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0 <= self.address <= 0xFFFF:
            raise ValueError(f"address must be 16 bit, got {self.address}")
        if len(self.data) > MAX_DATA_BYTES:
            raise ValueError(f"data exceeds {MAX_DATA_BYTES} bytes")
        return self

    @property
    def checksum(self) -> int:
        return crc8(self.address.to_bytes(2, "big") + self.data)


def encode_frame(frame: GenericFrame) -> bytes:
    """Serialise: preamble, address (2 B), length, data, crc."""
    body = frame.address.to_bytes(2, "big") + bytes([len(frame.data)]) + frame.data
    return bytes([PREAMBLE]) + body + bytes([frame.checksum])


def decode_frame(buf: bytes) -> GenericFrame:
    """Parse and verify a serialised frame.  Raises FrameError on any damage."""
    if len(buf) < 5:
        raise FrameError(f"frame too short: {len(buf)} bytes")
    if buf[0] != PREAMBLE:
        raise FrameError(f"bad preamble: {buf[0]:#04x}")
    length = buf[3]
    if len(buf) != 5 + length:
        raise FrameError(f"length byte says {length} data bytes, buffer has {len(buf) - 5}")
    address = int.from_bytes(buf[1:3], "big")
    data = buf[4:4 + length]
    received = buf[-1]
    expected = crc8(buf[1:3] + data)
    if received != expected:
        raise FrameError(f"crc mismatch: got {received:#04x}, expected {expected:#04x}")
    return GenericFrame(address=address, data=data)
