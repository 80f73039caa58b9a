"""Command-line front end: scenario runs, planning tables, frame tools.

Subcommands:

  run             simulate scenario files and write trace CSVs
  duty-table      duty ratio and standby budget for n = 0..n_max
  size-capacitor  smallest storage capacitance for a peak load
  frame           encode or decode a 44-bit protocol word
  calibrate       re-derive the default power profile and print it

Scenario files are INI-style text with sections [scenario], [oap],
[node.<id>], and optionally [interference]; keys carry their unit as a
suffix (duration_s, ambient_lux, v_min_v).  A file sets only what runs
vary: every node draws the calibrated power profile and has the same
LED beam, and the access point's role rule and session policies are
fixed.  Unknown sections or keys are rejected, naming the offender.  Exit
codes: 0 on success, 2 on validation errors, 3 when a requested run is
infeasible.  Multiple scenario files are all read and validated before
the first one runs, then run in argument order; two that would write
the same output name are rejected.  The output directory defaults to
$LUXNET_OUT_DIR, then the working directory.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import io
import math
import os
import re
import sys
from typing import (BinaryIO, Callable, Dict, Iterator, List, Optional,
                    Sequence, Set, Tuple)

from .channel import InterferenceModel, Vec3
from .controller import ControllerConfig, duty_cycle, standby_time
from .energy import (
    LEAK_POWER_W,
    PMIC_EFFICIENCY,
    V_OVERDISCHARGE,
    V_STORAGE_MAX,
    min_capacitance,
)
from .errors import InfeasibleError, ScenarioError
from .node import DEFAULT_TIMING, TimingParams
from .protocol import (
    BROADCAST_ADDRESS,
    OAP_ADDRESS,
    Frame44,
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
    CONTROLLER_KEYS,
    FACE_KEYS,
    FACE_LETTERS,
    INTERFERENCE_KEYS,
    NODE_KEYS,
    OAP_KEYS,
    SCENARIO_KEYS,
    FaceSpec,
    NodeSpec,
    OapSpec,
    Scenario,
    run_scenario,
    scenario_sections,
    validate_scenario,
)
from .trace import format_trace_csv, render_summary, summarize

OUT_DIR_ENV = "LUXNET_OUT_DIR"


def shipped_scenario_path(stem: str) -> str:
    """Path of a scenario file bundled with the package (e.g. 'paper_a')."""
    return os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "scenarios", stem + ".scn")

_BOOL_WORDS = {"yes": True, "true": True, "on": True, "1": True,
               "no": False, "false": False, "off": False, "0": False}


def _decimal(text: str) -> str:
    """text, for int or float to read: ASCII with no underscore, since
    both also read digit-group underscores and non-ASCII digits, which
    no number in a scenario file or an option is; ValueError otherwise."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not ASCII decimal text: {text!r}")
    return text


# ---------------------------------------------------------------------------
# scenario file parsing


def _keys(table, prefix: str = "") -> List[str]:
    return [prefix + row[0] for row in table]


_SECTION_KEYS = {
    "scenario": _keys(SCENARIO_KEYS),
    "oap": _keys(OAP_KEYS + CONTROLLER_KEYS),
    "interference": _keys(INTERFERENCE_KEYS),
}
_NODE_SECTION_KEYS = _keys(NODE_KEYS) + [
    key for letter in FACE_LETTERS
    for key in _keys(FACE_KEYS, f"face_{letter}_")]


class _Parser(configparser.ConfigParser):
    """The scenario file's INI parser.  noting(text, spaced) hands it the
    lines of text and adds to spaced each (section, key) whose value
    holds non-ASCII whitespace, which the parser's str.strip drops
    unseen.

    The parser takes each line in full before it asks for the next: a
    line that added a section was a header, one whose option name the
    parser read (optionxform) starts that option's value after its "=",
    and any other that is neither blank nor a comment continues the last
    option's value.
    """

    def optionxform(self, optionstr: str) -> str:
        self.key = optionstr.lower()
        return self.key

    def noting(self, text: str, spaced: Set[Tuple[str, str]]
               ) -> Iterator[str]:
        section = key = None
        # split as read_string splits, at "\n" alone
        for line in io.StringIO(text):
            sections, self.key = len(self.sections()), None
            yield line
            value = line
            if len(self.sections()) > sections:
                section, key = self.sections()[-1], None
            elif self.key is not None:
                key, value = self.key, line.partition("=")[2]
            elif line.strip()[:1] in ("", "#", ";"):
                continue
            if key and not value.isascii() and any(
                    c.isspace() and not c.isascii() for c in value):
                spaced.add((section, key))


class _Section:
    """One INI section with typed readers and unknown-key rejection.

    Each reader reads a value as the parser stripped it; read refuses a
    value noted in spaced (_Parser), which held non-ASCII whitespace, for
    any reader but text, since the rest read ASCII text alone."""

    def __init__(self, name: str, raw: Dict[str, str], allowed: Sequence[str],
                 spaced: Set[Tuple[str, str]]):
        self.name = name
        self.raw = dict(raw)
        self.spaced = spaced
        for key in self.raw:
            if key not in allowed:
                raise ScenarioError(f"{name}: unknown key '{key}'")

    def read(self, cls, table, prefix: str = "", **given):
        """An instance of cls from the given fields plus one per table row.

        An absent key takes the field default of the named tuple cls; a
        key without one is required.  The instance is built as _replace
        builds one, without its constructor's checks: validate_scenario
        checks every row.
        """
        defaults = cls._field_defaults
        for key, name, reader, _ in table:
            key = prefix + key
            if reader != "text" and (self.name, key) in self.spaced:
                raise ScenarioError(
                    f"{self.name}: {key}: non-ASCII whitespace in the value")
            if key in self.raw:
                given[name] = getattr(self, reader)(key)
            elif name not in defaults:
                raise ScenarioError(
                    f"{self.name}: missing required key '{key}'")
            else:
                given[name] = defaults[name]
        return cls._make(given[name] for name in cls._fields)

    def text(self, key: str) -> str:
        value = self.raw[key].strip()
        if not value:
            raise ScenarioError(f"{self.name}: {key}: empty value")
        return value

    def number(self, key: str) -> float:
        text = self.text(key)
        try:
            return float(_decimal(text))
        except ValueError:
            raise ScenarioError(
                f"{self.name}: {key}: expected a number, got '{text}'") from None

    def integer(self, key: str) -> int:
        text = self.text(key)
        try:
            return int(_decimal(text))
        except ValueError:
            raise ScenarioError(
                f"{self.name}: {key}: expected an integer, got '{text}'") from None

    def flag(self, key: str) -> bool:
        text = self.text(key).lower()
        if text not in _BOOL_WORDS:
            raise ScenarioError(
                f"{self.name}: {key}: expected yes/no, got '{text}'")
        return _BOOL_WORDS[text]

    def vector(self, key: str) -> Vec3:
        try:    # a count other than three fails the unpacking
            x, y, z = (float(p) for p in _decimal(self.text(key)).split())
        except ValueError:
            raise ScenarioError(
                f"{self.name}: {key}: expected three numbers") from None
        return (x, y, z)


def _parse_node(section: _Section, node_id: int) -> NodeSpec:
    faces = tuple(section.read(FaceSpec, FACE_KEYS, prefix=f"face_{letter}_")
                  for letter in FACE_LETTERS)
    return section.read(NodeSpec, NODE_KEYS, node_id=node_id, faces=faces)


def parse_scenario_text(text: str, source: str = "<string>") -> Scenario:
    """Parse one scenario document; raises ScenarioError with diagnostics."""
    parser = _Parser(interpolation=None, delimiters=("=",))
    spaced: Set[Tuple[str, str]] = set()
    try:
        parser.read_file(parser.noting(text, spaced), source)
    except configparser.Error as exc:
        raise ScenarioError(f"{source}: {exc}") from exc

    sections = {}
    node_sections: List[Tuple[int, _Section]] = []
    for name in parser.sections():
        raw = dict(parser.items(name))
        if name in _SECTION_KEYS:
            sections[name] = _Section(name, raw, _SECTION_KEYS[name],
                                      spaced)
        elif name.startswith("node."):
            suffix = name[len("node."):]
            if not (suffix.isascii() and suffix.isdigit()):
                raise ScenarioError(
                    f"{name}: node sections are named node.<id>")
            node_sections.append((int(suffix), _Section(
                name, raw, _NODE_SECTION_KEYS, spaced)))
        else:
            raise ScenarioError(f"unknown section '{name}'")
    if "scenario" not in sections:
        raise ScenarioError("missing required section [scenario]")
    if not node_sections:
        raise ScenarioError("at least one [node.<id>] section is required")

    oap = OapSpec()
    if "oap" in sections:
        section = sections["oap"]
        oap = section.read(OapSpec, OAP_KEYS, config=section.read(
            ControllerConfig, CONTROLLER_KEYS))
    interference = None
    if "interference" in sections:
        interference = sections["interference"].read(
            InterferenceModel, INTERFERENCE_KEYS)
    return sections["scenario"].read(
        Scenario, SCENARIO_KEYS,
        nodes=tuple(_parse_node(sec, nid) for nid, sec in node_sections),
        oap=oap, interference=interference)


def parse_scenario_file(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    return parse_scenario_text(text, source=path)


# ---------------------------------------------------------------------------
# scenario serialization


def _fmt(value, reader: str) -> str:
    if reader == "vector":
        return " ".join(repr(float(x)) for x in value)
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_section(title: str, parts) -> str:
    """One section: the rows of each (object, table, key prefix) part."""
    lines = [f"[{title}]"]
    for obj, table, prefix in parts:
        for key, name, reader, _ in table:
            value = getattr(obj, name)
            if value is not None:
                lines.append(f"{prefix}{key} = {_fmt(value, reader)}")
    return "\n".join(lines) + "\n"


def serialize_scenario(scenario: Scenario) -> str:
    """Render a Scenario back to its file form (parse round-trips)."""
    return "\n".join(_write_section(title, parts)
                     for title, parts in scenario_sections(scenario))


# ---------------------------------------------------------------------------
# subcommands


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "-", name) or "scenario"


def _write_output(path: str, write: Callable[[BinaryIO], object]) -> None:
    """Open path for bytes and hand the stream to write; any OSError on
    the way, the last flush among them, is a ValueError naming path.  A
    file it opened is removed then, so no partial output is left."""
    opened = False
    try:
        with open(path, "wb") as fh:
            opened = True
            write(fh)
    except OSError as exc:
        if opened:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise ValueError(f"cannot write {path}: {exc.strerror}") from exc


def cmd_run(args) -> int:
    out_dir = args.out_dir or os.environ.get(OUT_DIR_ENV) or "."
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ValueError(
            f"output directory {out_dir}: {exc.strerror}") from exc
    overrides = {name: value for name, value in (
        ("duration_s", args.duration_s), ("step_s", args.step_s),
        ("seed", args.seed)) if value is not None}
    # read and check every file first: a bad or clashing one writes nothing
    runs: Dict[str, Tuple[str, Scenario]] = {}
    for path in args.scenario:
        scenario = parse_scenario_file(path)._replace(**overrides)
        validate_scenario(scenario)
        stem = _safe_name(scenario.name)
        if stem in runs:
            raise ScenarioError(
                f"{runs[stem][0]} and {path} both write outputs named "
                f"'{stem}'")
        runs[stem] = (path, scenario)
    for stem, (_, scenario) in runs.items():
        trace = run_scenario(scenario)
        csv_path = os.path.join(out_dir, stem + ".csv")
        _write_output(csv_path, lambda fh: format_trace_csv(trace, fh))
        summary_path = os.path.join(out_dir, stem + ".summary.txt")
        text = render_summary(summarize(trace)).encode()
        _write_output(summary_path, lambda fh: fh.write(text))
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
    # a SET_N parameter carries at most 16 bits
    if not 0 <= args.n_max <= 0xFFFF:
        raise ValueError(f"n_max must be 0..65535, got {args.n_max}")
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
    try:
        farads = min_capacitance(
            e_peak=args.e_peak_j,
            eta_pmic_l=args.eta_pmic,
            p_leak=args.p_leak_w,
            t_peak=args.t_peak_s,
            v_max=args.v_max_v,
            v_min=args.v_min_v,
        )
    except ArithmeticError:     # a square overflows or the band underflows
        farads = math.inf
    if not math.isfinite(farads):
        raise ValueError("the capacitance for these inputs is not a finite "
                         "number")
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
    if uplink == (args.command is not None):
        raise ValueError(
            "encode needs either --sender (uplink) or --command (downlink)")
    # payload options default to None, so one of the other direction's
    # is rejected rather than dropped
    levels = {"--pv-level": args.pv_level, "--cap-level": args.cap_level,
              "--sensor": args.sensor}
    stray = {"--param": args.param} if uplink else levels
    for option, value in stray.items():
        if value is not None:
            kind = "an uplink" if uplink else "a downlink"
            raise ValueError(f"{option} is not an option of {kind} frame")
    if uplink:
        payload = NodeToOap(args.sender, args.pv_level or 0,
                            args.cap_level or 0, args.sensor or 0)
        dest = OAP_ADDRESS if args.dest is None else args.dest
    else:
        payload = OapToNode(command=args.command, param=args.param or 0)
        dest = BROADCAST_ADDRESS if args.dest is None else args.dest
    sys.stdout.write(_render_frame(Frame44(dest_address=dest, payload=payload)))
    return 0


def cmd_calibrate(args) -> int:
    # imported here, so no other command compiles the calibration module
    from .calibration import calibrate, render_report

    sys.stdout.write(render_report(calibrate()))
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _ascii(kind: Callable[[str], object]) -> Callable[[str], object]:
    """argparse type of an option that kind (int or float) reads from
    ASCII decimal text; argparse names kind in its error."""
    def read(text: str):
        return kind(_decimal(text))

    read.__name__ = kind.__name__
    return read


def _finite_float(text: str) -> float:
    """argparse type of the planning options: a finite number."""
    try:
        value = float(_decimal(text))
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"expected a finite number, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="luxnet",
        description="Light-powered sensor network simulator and planning tools.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="simulate scenario files")
    p_run.add_argument("scenario", nargs="+", help="scenario file paths")
    p_run.add_argument("--out-dir", default=None,
                       help=f"output directory (default ${OUT_DIR_ENV} or .)")
    p_run.add_argument("--seed", type=_ascii(int), default=None,
                       help="override the scenario seed")
    p_run.add_argument("--step-s", type=_ascii(float), default=None,
                       help="override the integration step")
    p_run.add_argument("--duration-s", type=_ascii(float), default=None,
                       help="override the simulated duration")
    p_run.set_defaults(func=cmd_run)

    p_duty = sub.add_parser("duty-table",
                            help="duty ratio and standby budget per n")
    p_duty.add_argument("--n-max", type=_ascii(int), default=10)
    p_duty.add_argument("--t-int-s", type=_finite_float,
                        default=DEFAULT_TIMING.t_int)
    p_duty.add_argument("--t-sense-s", type=_finite_float,
                        default=DEFAULT_TIMING.t_sense)
    p_duty.add_argument("--t-data-net-rec-s", type=_finite_float,
                        default=DEFAULT_TIMING.t_data_net_rec)
    p_duty.add_argument("--t-energy-net-s", type=_finite_float,
                        default=DEFAULT_TIMING.t_energy_net)
    p_duty.add_argument("--t-energy-net-rec-s", type=_finite_float,
                        default=DEFAULT_TIMING.t_energy_net_rec)
    p_duty.set_defaults(func=cmd_duty_table)

    p_size = sub.add_parser("size-capacitor",
                            help="smallest capacitance for a peak load")
    p_size.add_argument("--e-peak-j", type=_finite_float, required=True)
    p_size.add_argument("--eta-pmic", type=_finite_float,
                        default=PMIC_EFFICIENCY)
    p_size.add_argument("--p-leak-w", type=_finite_float, default=LEAK_POWER_W)
    p_size.add_argument("--t-peak-s", type=_finite_float, required=True)
    p_size.add_argument("--v-max-v", type=_finite_float, default=V_STORAGE_MAX)
    p_size.add_argument("--v-min-v", type=_finite_float,
                        default=V_OVERDISCHARGE)
    p_size.set_defaults(func=cmd_size_capacitor)

    p_frame = sub.add_parser("frame", help="encode or decode 44-bit words")
    frame_sub = p_frame.add_subparsers(dest="frame_op", required=True)
    p_enc = frame_sub.add_parser("encode")
    p_enc.add_argument("--dest", type=_ascii(int), default=None,
                       help="destination address (defaults per direction)")
    p_enc.add_argument("--sender", type=_ascii(int), default=None,
                       help="uplink sender id 1..15")
    p_enc.add_argument("--pv-level", type=_ascii(int), default=None)
    p_enc.add_argument("--cap-level", type=_ascii(int), default=None)
    p_enc.add_argument("--sensor", type=_ascii(int), default=None)
    p_enc.add_argument("--command", type=_ascii(int), default=None,
                       help="downlink command 0..15")
    p_enc.add_argument("--param", type=_ascii(int), default=None)
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
    except ValueError as exc:   # ScenarioError and FrameError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
