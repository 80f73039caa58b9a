"""Command-line front end: scenario runs, planning tables, frame tools.

Subcommands:

  run             simulate scenario files and write trace CSVs
  duty-table      duty ratio and standby budget for n = 0..n_max
  size-capacitor  smallest storage capacitance for a peak load
  frame           encode or decode a 44-bit protocol word
  calibrate       re-derive the default power profile and print it

Scenario files are INI-style text with sections [scenario], [oap],
[node.<id>], and optionally [interference] and [calibration]; keys
carry their unit as a suffix (duration_s, ambient_lux, v_min_v).
Unknown sections or keys are rejected, naming the offender.  Exit
codes: 0 on success, 2 on validation errors, 3 when a requested run is
infeasible.  Multiple scenario files run independently in argument
order; the output directory defaults to $LUXNET_OUT_DIR, then the
working directory.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import io
import os
import re
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from .calibration import calibrate, render_report
from .channel import InterferenceModel
from .controller import ControllerConfig, duty_cycle, standby_time
from .energy import DEFAULT_PROFILE, PowerProfile, min_capacitance
from .errors import InfeasibleError, ScenarioError
from .node import DEFAULT_TIMING, TimingParams
from .protocol import (
    BROADCAST_ADDRESS,
    OAP_ADDRESS,
    Frame44,
    FrameError,
    NodeToOap,
    OapToNode,
    decode44,
    encode44,
    format_word,
    parse_word,
    temperature_from_code,
    voltage_from_code,
)
from .simkernel import (
    FaceSpec,
    NodeSpec,
    OapSpec,
    Scenario,
    Vec3,
    format_trace_csv,
    render_summary,
    run_scenario,
    summarize,
)

OUT_DIR_ENV = "LUXNET_OUT_DIR"


def shipped_scenario_path(stem: str) -> str:
    """Path of a scenario file bundled with the package (e.g. 'paper_a')."""
    return os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "scenarios", stem + ".scn")

_SCENARIO_KEYS = ("name", "duration_s", "step_s", "seed", "trace_interval_s",
                  "etx_policy")
_OAP_KEYS = ("position_m", "t_data_req_s", "t_int_s", "n_min",
             "psn_pv_threshold_v", "slot_spacing_s", "etx_offset_s",
             "etx_spacing_s", "etx_bursts_per_request", "stale_after_rounds")
_NODE_KEYS = ("position_m",
              "face_a_normal", "face_a_ambient_lux",
              "face_b_normal", "face_b_ambient_lux",
              "face_c_normal", "face_c_ambient_lux",
              "start_voltage_v", "v_min_v", "led_power_w",
              "led_half_angle_deg", "led_aim", "sensing_enabled",
              "sensor_base_c")
_INTERFERENCE_KEYS = ("midpoint_lux", "steepness_per_lux", "floor")
_CALIBRATION_KEYS = ("sleep_w", "standby_w", "sense_w", "data_tx_w",
                     "etx_w", "decode_w")

_BOOL_WORDS = {"yes": True, "true": True, "on": True, "1": True,
               "no": False, "false": False, "off": False, "0": False}


# ---------------------------------------------------------------------------
# scenario file parsing


class _Section:
    """One INI section with typed accessors and unknown-key rejection."""

    def __init__(self, name: str, raw: Dict[str, str], allowed: Sequence[str]):
        self.name = name
        self.raw = dict(raw)
        for key in self.raw:
            if key not in allowed:
                raise ScenarioError(f"{name}: unknown key '{key}'")

    def has(self, key: str) -> bool:
        return key in self.raw

    def text(self, key: str, default: Optional[str] = None) -> str:
        if key not in self.raw:
            if default is None:
                raise ScenarioError(f"{self.name}: missing required key '{key}'")
            return default
        value = self.raw[key].strip()
        if not value:
            raise ScenarioError(f"{self.name}: {key}: empty value")
        return value

    def number(self, key: str, default: Optional[float] = None) -> float:
        if key not in self.raw and default is not None:
            return default
        text = self.text(key)
        try:
            return float(text)
        except ValueError:
            raise ScenarioError(
                f"{self.name}: {key}: expected a number, got '{text}'") from None

    def integer(self, key: str, default: Optional[int] = None) -> int:
        if key not in self.raw and default is not None:
            return default
        text = self.text(key)
        try:
            return int(text)
        except ValueError:
            raise ScenarioError(
                f"{self.name}: {key}: expected an integer, got '{text}'") from None

    def flag(self, key: str, default: bool) -> bool:
        if key not in self.raw:
            return default
        text = self.text(key).lower()
        if text not in _BOOL_WORDS:
            raise ScenarioError(
                f"{self.name}: {key}: expected yes/no, got '{text}'")
        return _BOOL_WORDS[text]

    def vector(self, key: str, default: Optional[Vec3] = None) -> Vec3:
        if key not in self.raw and default is not None:
            return default
        parts = self.text(key).split()
        if len(parts) != 3:
            raise ScenarioError(
                f"{self.name}: {key}: expected three numbers")
        try:
            x, y, z = (float(p) for p in parts)
        except ValueError:
            raise ScenarioError(
                f"{self.name}: {key}: expected three numbers") from None
        return (x, y, z)


def _parse_node(section: _Section, node_id: int) -> NodeSpec:
    faces = []
    for letter in ("a", "b", "c"):
        normal = section.vector(f"face_{letter}_normal")
        ambient = section.number(f"face_{letter}_ambient_lux")
        faces.append(FaceSpec(normal=normal, ambient_lux=ambient))
    led_aim = section.vector("led_aim") if section.has("led_aim") else None
    return NodeSpec(
        node_id=node_id,
        position=section.vector("position_m"),
        faces=tuple(faces),
        start_voltage=section.number("start_voltage_v", 4.5),
        v_min=section.number("v_min_v", 3.3),
        led_power_w=section.number("led_power_w", 0.0),
        led_half_angle_deg=section.number("led_half_angle_deg", 15.0),
        led_aim=led_aim,
        sensing_enabled=section.flag("sensing_enabled", True),
        sensor_base_c=section.number("sensor_base_c", 25.0),
    )


def _parse_oap(section: _Section) -> OapSpec:
    d = OapSpec()
    c = d.config
    try:
        config = ControllerConfig(
            t_data_req=section.number("t_data_req_s", c.t_data_req),
            t_int=section.number("t_int_s", c.t_int),
            n_min=section.integer("n_min", c.n_min),
            psn_pv_threshold=section.number("psn_pv_threshold_v",
                                            c.psn_pv_threshold),
            slot_spacing_s=section.number("slot_spacing_s", c.slot_spacing_s),
            etx_offset_s=section.number("etx_offset_s", c.etx_offset_s),
            etx_spacing_s=section.number("etx_spacing_s", c.etx_spacing_s),
            etx_bursts_per_request=section.integer("etx_bursts_per_request",
                                                   c.etx_bursts_per_request),
            stale_after_rounds=section.number("stale_after_rounds",
                                              c.stale_after_rounds),
        )
    except ValueError as exc:
        raise ScenarioError(f"oap: {exc}") from exc
    return OapSpec(config=config,
                   position=section.vector("position_m", d.position))


def _parse_interference(section: _Section) -> InterferenceModel:
    d = InterferenceModel()
    try:
        return InterferenceModel(
            midpoint_lux=section.number("midpoint_lux", d.midpoint_lux),
            steepness_per_lux=section.number("steepness_per_lux",
                                             d.steepness_per_lux),
            floor=section.number("floor", d.floor),
        )
    except ValueError as exc:
        raise ScenarioError(f"interference: {exc}") from exc


def _parse_profile(section: _Section) -> PowerProfile:
    d = DEFAULT_PROFILE
    try:
        return PowerProfile(
            sleep=section.number("sleep_w", d.sleep),
            standby=section.number("standby_w", d.standby),
            sense=section.number("sense_w", d.sense),
            data_tx=section.number("data_tx_w", d.data_tx),
            etx=section.number("etx_w", d.etx),
            decode=section.number("decode_w", d.decode),
        )
    except ValueError as exc:
        raise ScenarioError(f"calibration: {exc}") from exc


def parse_scenario_text(text: str, source: str = "<string>") -> Scenario:
    """Parse one scenario document; raises ScenarioError with diagnostics."""
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ScenarioError(f"{source}: {exc}") from exc

    sections = {}
    node_sections: List[Tuple[int, _Section]] = []
    for name in parser.sections():
        raw = dict(parser.items(name))
        if name == "scenario":
            sections[name] = _Section(name, raw, _SCENARIO_KEYS)
        elif name == "oap":
            sections[name] = _Section(name, raw, _OAP_KEYS)
        elif name == "interference":
            sections[name] = _Section(name, raw, _INTERFERENCE_KEYS)
        elif name == "calibration":
            sections[name] = _Section(name, raw, _CALIBRATION_KEYS)
        elif name.startswith("node."):
            suffix = name[len("node."):]
            if not suffix.isdigit():
                raise ScenarioError(
                    f"{name}: node sections are named node.<id>")
            node_sections.append((int(suffix), _Section(name, raw, _NODE_KEYS)))
        else:
            raise ScenarioError(f"unknown section '{name}'")
    if "scenario" not in sections:
        raise ScenarioError("missing required section [scenario]")
    if not node_sections:
        raise ScenarioError("at least one [node.<id>] section is required")

    head = sections["scenario"]
    oap = (_parse_oap(sections["oap"]) if "oap" in sections else OapSpec())
    interference = (_parse_interference(sections["interference"])
                    if "interference" in sections else None)
    profile = (_parse_profile(sections["calibration"])
               if "calibration" in sections else DEFAULT_PROFILE)
    nodes = tuple(_parse_node(sec, nid) for nid, sec in node_sections)
    return Scenario(
        name=head.text("name"),
        duration_s=head.number("duration_s"),
        nodes=nodes,
        oap=oap,
        step_s=head.number("step_s", 0.1),
        seed=head.integer("seed", 0),
        trace_interval_s=head.number("trace_interval_s", 10.0),
        etx_policy=head.text("etx_policy", "disabled"),
        interference=interference,
        profile=profile,
    )


def parse_scenario_file(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    return parse_scenario_text(text, source=path)


# ---------------------------------------------------------------------------
# scenario serialization


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _vec(value) -> str:
    return " ".join(repr(float(x)) for x in value)


def serialize_scenario(scenario: Scenario) -> str:
    """Render a Scenario back to its file form (parse round-trips)."""
    out = io.StringIO()

    def line(key, value):
        out.write(f"{key} = {value}\n")

    out.write("[scenario]\n")
    line("name", scenario.name)
    line("duration_s", _fmt(scenario.duration_s))
    line("step_s", _fmt(scenario.step_s))
    line("seed", scenario.seed)
    line("trace_interval_s", _fmt(scenario.trace_interval_s))
    line("etx_policy", scenario.etx_policy)

    cfg = scenario.oap.config
    out.write("\n[oap]\n")
    line("position_m", _vec(scenario.oap.position))
    line("t_data_req_s", _fmt(cfg.t_data_req))
    line("t_int_s", _fmt(cfg.t_int))
    line("n_min", cfg.n_min)
    line("psn_pv_threshold_v", _fmt(cfg.psn_pv_threshold))
    line("slot_spacing_s", _fmt(cfg.slot_spacing_s))
    line("etx_offset_s", _fmt(cfg.etx_offset_s))
    line("etx_spacing_s", _fmt(cfg.etx_spacing_s))
    line("etx_bursts_per_request", cfg.etx_bursts_per_request)
    line("stale_after_rounds", _fmt(cfg.stale_after_rounds))

    if scenario.interference is not None:
        m = scenario.interference
        out.write("\n[interference]\n")
        line("midpoint_lux", _fmt(m.midpoint_lux))
        line("steepness_per_lux", _fmt(m.steepness_per_lux))
        line("floor", _fmt(m.floor))

    if scenario.profile != DEFAULT_PROFILE:
        p = scenario.profile
        out.write("\n[calibration]\n")
        line("sleep_w", _fmt(p.sleep))
        line("standby_w", _fmt(p.standby))
        line("sense_w", _fmt(p.sense))
        line("data_tx_w", _fmt(p.data_tx))
        line("etx_w", _fmt(p.etx))
        line("decode_w", _fmt(p.decode))

    for spec in scenario.nodes:
        out.write(f"\n[node.{spec.node_id}]\n")
        line("position_m", _vec(spec.position))
        for letter, face in zip(("a", "b", "c"), spec.faces):
            line(f"face_{letter}_normal", _vec(face.normal))
            line(f"face_{letter}_ambient_lux", _fmt(face.ambient_lux))
        line("start_voltage_v", _fmt(spec.start_voltage))
        line("v_min_v", _fmt(spec.v_min))
        line("led_power_w", _fmt(spec.led_power_w))
        line("led_half_angle_deg", _fmt(spec.led_half_angle_deg))
        if spec.led_aim is not None:
            line("led_aim", _vec(spec.led_aim))
        line("sensing_enabled", _fmt(spec.sensing_enabled))
        line("sensor_base_c", _fmt(spec.sensor_base_c))
    return out.getvalue()


# ---------------------------------------------------------------------------
# subcommands


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "-", name) or "scenario"


def cmd_run(args) -> int:
    out_dir = args.out_dir or os.environ.get(OUT_DIR_ENV) or "."
    os.makedirs(out_dir, exist_ok=True)
    for path in args.scenario:
        scenario = parse_scenario_file(path)
        if args.duration_s is not None:
            scenario = dataclasses.replace(scenario, duration_s=args.duration_s)
        if args.step_s is not None:
            scenario = dataclasses.replace(scenario, step_s=args.step_s)
        if args.seed is not None:
            scenario = dataclasses.replace(scenario, seed=args.seed)
        trace = run_scenario(scenario)
        stem = _safe_name(scenario.name)
        csv_path = os.path.join(out_dir, stem + ".csv")
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(format_trace_csv(trace))
        summary_path = os.path.join(out_dir, stem + ".summary.txt")
        with open(summary_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(render_summary(summarize(trace)))
        print(f"{scenario.name}: wrote {csv_path}")
        print(f"{scenario.name}: wrote {summary_path}")
    return 0


def _timing_from_args(args) -> TimingParams:
    return TimingParams(
        t_int=args.t_int_s,
        t_sense=args.t_sense_s,
        t_energy_net=args.t_energy_net_s,
        t_energy_net_rec=args.t_energy_net_rec_s,
        t_data_net_rec=args.t_data_net_rec_s,
    )


def cmd_duty_table(args) -> int:
    if args.n_max < 0:
        raise ValueError("n_max must be non-negative")
    timing = _timing_from_args(args)
    print("n,duty_ratio,standby_s,feasible")
    for n in range(args.n_max + 1):
        duty = duty_cycle(timing, n)
        if duty.feasible:
            print(f"{n},{duty.ratio:.4f},{standby_time(timing, n):.2f},yes")
        else:
            print(f"{n},{duty.ratio:.4f},,no")
    return 0


def cmd_size_capacitor(args) -> int:
    farads = min_capacitance(
        e_peak=args.e_peak_j,
        eta_pmic_l=args.eta_pmic,
        p_leak=args.p_leak_w,
        t_peak=args.t_peak_s,
        v_max=args.v_max_v,
        v_min=args.v_min_v,
    )
    print(f"{farads:.4f} F")
    return 0


def _render_frame(frame: Frame44) -> str:
    word = encode44(frame)
    lines = [f"word {format_word(word)}"]
    dest = frame.dest_address
    if dest == BROADCAST_ADDRESS:
        lines.append(f"dest_address {dest} (broadcast)")
    elif dest == OAP_ADDRESS:
        lines.append(f"dest_address {dest} (access point)")
    else:
        lines.append(f"dest_address {dest}")
    p = frame.payload
    if isinstance(p, NodeToOap):
        lines.append("kind uplink")
        lines.append(f"sender_id {p.sender_id}")
        lines.append(f"pv_level {p.pv_level} ({voltage_from_code(p.pv_level):.2f} V)")
        lines.append(f"cap_level {p.cap_level} ({voltage_from_code(p.cap_level):.2f} V)")
        lines.append(f"sensor {p.sensor} ({temperature_from_code(p.sensor):.2f} C)")
    else:
        lines.append("kind downlink")
        lines.append(f"command {int(p.command)} ({p.command_name})")
        lines.append(f"param {p.param}")
    return "\n".join(lines) + "\n"


def cmd_frame(args) -> int:
    if args.frame_op == "decode":
        word = parse_word(args.word)
        sys.stdout.write(_render_frame(decode44(word)))
        return 0
    uplink = args.sender is not None
    downlink = args.command is not None
    if uplink == downlink:
        raise ValueError(
            "encode needs either --sender (uplink) or --command (downlink)")
    if uplink:
        payload = NodeToOap(sender_id=args.sender, pv_level=args.pv_level,
                            cap_level=args.cap_level, sensor=args.sensor)
        dest = OAP_ADDRESS if args.dest is None else args.dest
    else:
        payload = OapToNode(command=args.command, param=args.param)
        dest = BROADCAST_ADDRESS if args.dest is None else args.dest
    sys.stdout.write(_render_frame(Frame44(dest_address=dest, payload=payload)))
    return 0


def cmd_calibrate(args) -> int:
    sys.stdout.write(render_report(calibrate()))
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="luxnet",
        description="Light-powered sensor network simulator and planning tools.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="simulate scenario files")
    p_run.add_argument("scenario", nargs="+", help="scenario file paths")
    p_run.add_argument("--out-dir", default=None,
                       help=f"output directory (default ${OUT_DIR_ENV} or .)")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    p_run.add_argument("--step-s", type=float, default=None,
                       help="override the integration step")
    p_run.add_argument("--duration-s", type=float, default=None,
                       help="override the simulated duration")
    p_run.set_defaults(func=cmd_run)

    p_duty = sub.add_parser("duty-table",
                            help="duty ratio and standby budget per n")
    p_duty.add_argument("--n-max", type=int, default=10)
    p_duty.add_argument("--t-int-s", type=float, default=DEFAULT_TIMING.t_int)
    p_duty.add_argument("--t-sense-s", type=float,
                        default=DEFAULT_TIMING.t_sense)
    p_duty.add_argument("--t-data-net-rec-s", type=float,
                        default=DEFAULT_TIMING.t_data_net_rec)
    p_duty.add_argument("--t-energy-net-s", type=float,
                        default=DEFAULT_TIMING.t_energy_net)
    p_duty.add_argument("--t-energy-net-rec-s", type=float,
                        default=DEFAULT_TIMING.t_energy_net_rec)
    p_duty.set_defaults(func=cmd_duty_table)

    p_size = sub.add_parser("size-capacitor",
                            help="smallest capacitance for a peak load")
    p_size.add_argument("--e-peak-j", type=float, required=True)
    p_size.add_argument("--eta-pmic", type=float, default=0.85)
    p_size.add_argument("--p-leak-w", type=float, default=10e-6)
    p_size.add_argument("--t-peak-s", type=float, required=True)
    p_size.add_argument("--v-max-v", type=float, default=4.5)
    p_size.add_argument("--v-min-v", type=float, default=3.2)
    p_size.set_defaults(func=cmd_size_capacitor)

    p_frame = sub.add_parser("frame", help="encode or decode 44-bit words")
    frame_sub = p_frame.add_subparsers(dest="frame_op", required=True)
    p_enc = frame_sub.add_parser("encode")
    p_enc.add_argument("--dest", type=int, default=None,
                       help="destination address (defaults per direction)")
    p_enc.add_argument("--sender", type=int, default=None,
                       help="uplink sender id 1..15")
    p_enc.add_argument("--pv-level", type=int, default=0)
    p_enc.add_argument("--cap-level", type=int, default=0)
    p_enc.add_argument("--sensor", type=int, default=0)
    p_enc.add_argument("--command", type=int, default=None,
                       help="downlink command 0..15")
    p_enc.add_argument("--param", type=int, default=0)
    p_enc.set_defaults(func=cmd_frame)
    p_dec = frame_sub.add_parser("decode")
    p_dec.add_argument("word", help="11 hex digits")
    p_dec.set_defaults(func=cmd_frame)

    p_cal = sub.add_parser("calibrate",
                           help="re-derive the default power profile")
    p_cal.set_defaults(func=cmd_calibrate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ScenarioError, FrameError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
