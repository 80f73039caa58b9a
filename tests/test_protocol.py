"""Codec tests: 44-bit word packing, quantization, CRC, generic frames."""

import numpy as np
import pytest

from luxnet import protocol as proto
from luxnet.protocol import (
    Command,
    Frame44,
    FrameError,
    GenericFrame,
    NodeToOap,
    OapToNode,
    crc8,
    decode44,
    decode_frame,
    encode44,
    encode_frame,
    format_word,
    parse_word,
    quantize_temperature,
    quantize_voltage,
    temperature_from_code,
    voltage_from_code,
)


def test_crc8_check_value():
    # standard check string for the 0x07 polynomial, init 0
    assert crc8(b"123456789") == 0xF4


def test_crc8_empty_and_zeros():
    assert crc8(b"") == 0x00
    assert crc8(bytes(2)) == 0x00


def test_crc8_incremental_matches_one_shot():
    rng = np.random.default_rng(11)
    data = bytes(rng.integers(0, 256, size=64, dtype=np.uint8))
    split = 23
    partial = crc8(data[:split])
    assert crc8(data[split:], init=partial) == crc8(data)


def test_quantize_voltage_frozen_points():
    assert quantize_voltage(0.0) == 0
    assert quantize_voltage(3.2) == 160
    # 4.51 V sits exactly between codes; ties round away from zero
    assert quantize_voltage(4.51) == 226
    assert quantize_voltage(5.10) == 255


def test_voltage_code_round_trip_within_half_step():
    rng = np.random.default_rng(3)
    for v in rng.uniform(0.0, 5.10, size=500):
        code = quantize_voltage(float(v))
        assert 0 <= code <= 255
        assert abs(voltage_from_code(code) - v) <= 0.01 + 1e-12


def test_quantize_voltage_rejects_out_of_range():
    with pytest.raises(ValueError):
        quantize_voltage(-0.02)
    with pytest.raises(ValueError):
        quantize_voltage(5.2)


def test_quantize_temperature_frozen_points():
    assert quantize_temperature(-40.0) == 0
    assert quantize_temperature(25.0) == 130
    assert quantize_temperature(87.5) == 255


def test_temperature_code_round_trip():
    rng = np.random.default_rng(4)
    for t in rng.uniform(-40.0, 87.5, size=300):
        code = quantize_temperature(float(t))
        assert abs(temperature_from_code(code) - t) <= 0.25 + 1e-12


def test_all_zero_word_is_init_config_broadcast_shape():
    frame = decode44(0)
    assert frame.dest_address == 0
    assert isinstance(frame.payload, OapToNode)
    assert frame.payload.command == Command.INIT_CONFIG
    assert frame.payload.param == 0


def test_uplink_word_layout_frozen():
    frame = Frame44(
        dest_address=proto.OAP_ADDRESS,
        payload=NodeToOap(sender_id=5, pv_level=200, cap_level=190, sensor=77),
    )
    # dest 0x0000 | sender 5 | pv 0xC8 | cap 0xBE | sensor 0x4D
    assert encode44(frame) == 0x00005C8BE4D
    assert format_word(encode44(frame)) == "00005C8BE4D"


def test_downlink_word_layout_frozen():
    frame = Frame44(
        dest_address=0x0002,
        payload=OapToNode(command=Command.DATA_REQUEST, param=600),
    )
    assert encode44(frame) == 0x00020102580


def test_downlink_reserved_nibble_survives_round_trip():
    word = 0x00020102580 | 0xF  # same word with reserved bits set
    frame = decode44(word)
    assert isinstance(frame.payload, OapToNode)
    assert frame.payload.command == Command.DATA_REQUEST
    assert frame.payload.param == 600
    assert frame.payload.reserved == 0xF
    assert encode44(frame) == word


def test_round_trip_random_uplink_words():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        frame = Frame44(
            dest_address=int(rng.integers(0, 1 << 16)),
            payload=NodeToOap(
                sender_id=int(rng.integers(1, 16)),
                pv_level=int(rng.integers(0, 256)),
                cap_level=int(rng.integers(0, 256)),
                sensor=int(rng.integers(0, 256)),
            ),
        )
        word = encode44(frame)
        assert 0 <= word <= proto.WORD_MASK
        assert decode44(word) == frame


def test_round_trip_random_downlink_words():
    rng = np.random.default_rng(8)
    for _ in range(2000):
        frame = Frame44(
            dest_address=int(rng.integers(0, 1 << 16)),
            payload=OapToNode(
                command=int(rng.integers(0, 16)),
                param=int(rng.integers(0, 1 << 16)),
            ),
        )
        back = decode44(encode44(frame))
        assert back.dest_address == frame.dest_address
        assert int(back.payload.command) == int(frame.payload.command)
        assert back.payload.param == frame.payload.param


def test_decode_encode_bijection_on_words():
    # every 44-bit word survives decode -> encode exactly
    rng = np.random.default_rng(9)
    for _ in range(5000):
        word = int(rng.integers(0, proto.WORD_MASK + 1, dtype=np.uint64))
        assert encode44(decode44(word)) == word


def test_word_hex_round_trips():
    rng = np.random.default_rng(10)
    for _ in range(500):
        word = int(rng.integers(0, proto.WORD_MASK + 1, dtype=np.uint64))
        assert parse_word(format_word(word)) == word


def test_parse_word_accepts_0x_prefix():
    assert parse_word("0x00005C8BE4D") == 0x00005C8BE4D


def test_word_out_of_range_rejected():
    with pytest.raises(ValueError):
        encode_word = proto.WORD_MASK + 1
        decode44(encode_word)


def test_airtime_default_rate():
    # one 44-bit word at 1 kbit/s
    assert proto.FRAME_AIRTIME_S == 0.044


def test_node_payload_validation():
    # encode44 is where a frame's fields are checked: each field packs at
    # both of its bounds, and one past either bound names the field
    uplink = NodeToOap(sender_id=1, pv_level=0, cap_level=0, sensor=0)
    downlink = OapToNode(command=0, param=0)
    cases = [(uplink, "sender_id", 1, 15, "1..15"),
             (uplink, "pv_level", 0, 255, "0..255"),
             (uplink, "cap_level", 0, 255, "0..255"),
             (uplink, "sensor", 0, 255, "0..255"),
             (downlink, "command", 0, 15, "0..15"),
             (downlink, "param", 0, 0xFFFF, "0..65535"),
             (downlink, "reserved", 0, 15, "0..15")]
    for payload, name, low, high, span in cases:
        for value in (low, high):
            frame = Frame44(0, payload._replace(**{name: value}))
            assert decode44(encode44(frame)) == frame
        for value in (low - 1, high + 1):
            with pytest.raises(ValueError) as bad:
                encode44(Frame44(0, payload._replace(**{name: value})))
            assert str(bad.value) == f"{name} must be {span}, got {value}"
    for payload in (uplink, downlink):
        for dest in (0, 0xFFFF):
            frame = Frame44(dest, payload)
            assert decode44(encode44(frame)) == frame
        for dest in (-1, 0x10000):
            with pytest.raises(ValueError) as bad:
                encode44(Frame44(dest, payload))
            assert str(bad.value) == f"dest_address must be 16 bit, got {dest}"
    # with several bad fields, the first payload field is named, and the
    # address only after them
    for payload, first in ((NodeToOap(0, 0, 256, 0), "sender_id"),
                           (OapToNode(0, -1, 16), "param"),
                           (NodeToOap(1, 0, 0, 256), "sensor")):
        with pytest.raises(ValueError, match=f"^{first} "):
            encode44(Frame44(-1, payload))


def test_frames_are_plain_values():
    frame = Frame44(dest_address=2,
                    payload=OapToNode(command=Command.SET_N, param=6))
    assert repr(frame) == ("Frame44(dest_address=2, payload=OapToNode("
                           "command=<Command.SET_N: 3>, param=6, reserved=0))")
    assert frame == decode44(encode44(frame))
    assert hash(frame) == hash(decode44(encode44(frame)))
    assert decode44(0x00005C8BE4D) == Frame44(0, NodeToOap(5, 200, 190, 77))
    # a known command id decodes to its Command, a reserved one to an int
    assert decode44(0x00000300000).payload.command is Command.SET_N
    assert type(decode44(0x00000900000).payload.command) is int


def test_generic_frame_round_trip_and_crc():
    frame = GenericFrame(address=0x0001, data=bytes([1, 2, 3]))
    raw = encode_frame(frame)
    assert raw[0] == proto.PREAMBLE
    assert raw[1:3] == b"\x00\x01"
    assert raw[3] == 3
    assert decode_frame(raw) == frame


def test_generic_frame_empty_data_zero_address_checksum():
    frame = GenericFrame(address=0, data=b"")
    assert frame.checksum == 0x00
    assert decode_frame(encode_frame(frame)) == frame


def test_generic_frame_single_bit_flips_detected():
    rng = np.random.default_rng(12)
    lengths = [0, 1, 2, 3, 8, 32, 255]
    for n in lengths:
        data = bytes(rng.integers(0, 256, size=n, dtype=np.uint8))
        raw = bytearray(encode_frame(GenericFrame(address=0x0042, data=data)))
        # flip a handful of random single bits; every flip must be caught
        for _ in range(16):
            i = int(rng.integers(0, len(raw)))
            bit = 1 << int(rng.integers(0, 8))
            raw[i] ^= bit
            with pytest.raises(FrameError):
                decode_frame(bytes(raw))
            raw[i] ^= bit
        assert decode_frame(bytes(raw)) == GenericFrame(address=0x0042, data=data)


def test_generic_frame_truncation_detected():
    raw = encode_frame(GenericFrame(address=7, data=b"abcdef"))
    for cut in range(len(raw)):
        with pytest.raises(FrameError):
            decode_frame(raw[:cut])


def test_generic_frame_length_cap():
    GenericFrame(address=0, data=bytes(255))
    with pytest.raises(ValueError):
        GenericFrame(address=0, data=bytes(256))


def test_command_names():
    assert OapToNode(command=Command.SET_N, param=6).command_name == "SET_N"
    assert OapToNode(command=9, param=0).command_name == "RESERVED_9"
