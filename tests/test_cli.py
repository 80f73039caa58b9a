"""Golden-file and contract tests for the command-line front end."""

import argparse
import contextlib
import errno
import hashlib
import io
import os
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import luxnet
from luxnet.cli import (
    _build_parser,
    main,
    parse_scenario_file,
    parse_scenario_text,
    serialize_scenario,
    shipped_scenario_path,
)
from luxnet.channel import InterferenceModel
from luxnet.controller import ControllerConfig
from luxnet.errors import ScenarioError
from luxnet.simkernel import (
    CONTROLLER_KEYS,
    ETX_POLICIES,
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
    validate_scenario,
)
from luxnet.trace import (
    CSV_HEADER,
    format_trace_csv,
    render_summary,
    summarize,
)

DUTY_TABLE_GOLDEN = """\
n,duty_ratio,standby_s,feasible
0,0.9862,3540.94,yes
1,0.8501,3050.94,yes
2,0.7140,2560.94,yes
3,0.5779,2070.94,yes
4,0.4418,1580.94,yes
5,0.3057,1090.94,yes
6,0.1696,600.94,yes
7,0.0335,110.94,yes
8,0.0000,,no
9,0.0000,,no
10,0.0000,,no
"""

UPLINK_GOLDEN = """\
word 00001A22BC4
dest_address 0 (access point)
kind uplink
sender_id 1
pv_level 162 (3.24 V)
cap_level 43 (0.86 V)
sensor 196 (58.00 C)
"""

DOWNLINK_GOLDEN = """\
word 00030201F40
dest_address 3
kind downlink
command 2 (ETX_REQUEST)
param 500
"""

CALIBRATE_GOLDEN = """\
burst drive calibration
  optical power: 27.8 mW
  face gain: 893.8 lx (peak 1043.8 lx)
power profile (W)
  sleep=0.000180 standby=0.000550 sense=0.011000
  data_tx=0.012000 etx=0.052700 decode=0.002000
design targets
  session: 23.24 s (window 40 s)
  recovery: 462.9 s (allowance 490 s)
  endurance: 6.60 h (target 8 h within 25%)
  mean uplift: 46.2% (target 40%)
targets met: yes
"""

RUN_CSV_GOLDEN = """\
time_s,node_id,v_cap,v_pv,mode,state,lux,event
0.00,1,4.500000,0.000000,SSN,Init,1000.000,
0.00,2,4.500000,0.000000,SSN,Init,150.000,
0.00,3,4.500000,0.000000,SSN,Init,1000.000,
0.00,1,4.500000,3.259259,PSN,Standby,1000.000,role PSN
0.00,2,4.499976,1.320000,SSN,Standby,150.000,role SSN
0.00,3,4.500000,3.259259,PSN,Standby,1000.000,role PSN
0.10,1,4.500000,3.259259,PSN,Standby,1000.000,config t_int=3600
0.10,2,4.499904,1.320000,SSN,Standby,150.000,config t_int=3600
0.10,3,4.500000,3.259259,PSN,Standby,1000.000,config t_int=3600
1.10,1,4.500000,3.259259,PSN,Sensing,1000.000,data request accepted
1.10,2,4.499619,1.320000,SSN,Standby,150.000,false wakeup
1.10,3,4.500000,3.259259,PSN,Standby,1000.000,false wakeup
10.00,1,4.459188,3.259259,PSN,Sensing,1000.000,
10.00,2,4.497540,1.320000,SSN,Standby,150.000,
10.00,3,4.500000,3.259259,PSN,Standby,1000.000,
10.70,1,4.455568,3.259259,PSN,Standby,1000.000,report sent
11.10,1,4.455998,3.259259,PSN,Standby,1000.000,false wakeup
11.10,2,4.497229,1.320000,SSN,Sensing,150.000,data request accepted
11.10,3,4.500000,3.259259,PSN,Standby,1000.000,false wakeup
11.40,1,4.456309,3.259259,PSN,Standby,1000.000,assigned n=6
11.40,3,4.500000,3.259259,PSN,Standby,1000.000,false wakeup
20.00,1,4.466502,3.259259,PSN,Standby,1000.000,
20.00,2,4.443711,1.320000,SSN,Sensing,150.000,
20.00,3,4.500000,3.259259,PSN,Standby,1000.000,
20.70,2,4.438943,1.320000,SSN,Sleep,150.000,report sent
21.10,1,4.467890,3.259259,PSN,Standby,1000.000,false wakeup
21.10,3,4.500000,3.259259,PSN,Sensing,1000.000,data request accepted
30.00,1,4.478415,3.259259,PSN,Standby,1000.000,
30.00,2,4.438658,1.320000,SSN,Sleep,150.000,
30.00,3,4.459188,3.259259,PSN,Sensing,1000.000,
"""

RUN_SUMMARY_GOLDEN = """\
scenario: paper-a
duration_s: 30.0
frames_sent: 7
delivery_ratio: 1.0000
node 1: lifetime_s=30.0 lux_mean=1000.000 lux_min=1000.000 lux_max=1000.000 idle=0.6800 steady_v=4.478415 band_v=0.000000 final_v=4.478415
node 2: lifetime_s=30.0 lux_mean=150.000 lux_min=150.000 lux_max=150.000 idle=0.6800 steady_v=4.438658 band_v=0.000000 final_v=4.438658
node 3: lifetime_s=30.0 lux_mean=1000.000 lux_min=1000.000 lux_max=1000.000 idle=0.7033 steady_v=4.459188 band_v=0.000000 final_v=4.459188
"""

INTERFERED_SCENARIO = """\
[scenario]
name = seeded
duration_s = 40.0
etx_policy = autonomous

[interference]
midpoint_lux = 300.0

[node.1]
position_m = 0.0 0.1 0.0
face_a_normal = 0.0 1.0 0.0
face_a_ambient_lux = 60000.0
face_b_normal = 1.0 0.0 0.0
face_b_ambient_lux = 60000.0
face_c_normal = 0.0 0.0 1.0
face_c_ambient_lux = 60000.0
v_min_v = 3.8
led_power_w = 0.0278
led_aim = 0.0 -1.0 0.0

[node.2]
position_m = 0.0 0.0 0.0
face_a_normal = 0.0 1.0 0.0
face_a_ambient_lux = 300.0
face_b_normal = 0.0 0.0 1.0
face_b_ambient_lux = 300.0
face_c_normal = 0.0 0.0 -1.0
face_c_ambient_lux = 300.0
"""


def read(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return fh.read()


def test_duty_table_golden(capsys):
    assert main(["duty-table"]) == 0
    assert capsys.readouterr().out == DUTY_TABLE_GOLDEN


def test_size_capacitor_worked_example(capsys):
    assert main(["size-capacitor", "--e-peak-j", "2.0",
                 "--t-peak-s", "40.0"]) == 0
    assert capsys.readouterr().out == "0.4702 F\n"


def test_size_capacitor_zero_case(capsys):
    assert main(["size-capacitor", "--e-peak-j", "0.0", "--t-peak-s", "40.0",
                 "--p-leak-w", "0.0"]) == 0
    assert capsys.readouterr().out == "0.0000 F\n"


def test_size_capacitor_rejects_inverted_band(capsys):
    assert main(["size-capacitor", "--e-peak-j", "2.0", "--t-peak-s", "40.0",
                 "--v-max-v", "3.0", "--v-min-v", "3.2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_duty_table_row_zero_ignores_an_overflowing_session(capsys):
    # one session lasts longer than a float holds; zero sessions still fit
    assert main(["duty-table", "--n-max", "1", "--t-energy-net-s", "1.7e308",
                 "--t-energy-net-rec-s", "1.7e308"]) == 0
    assert capsys.readouterr().out == (
        "n,duty_ratio,standby_s,feasible\n0,0.9862,3540.94,yes\n"
        "1,0.0000,,no\n")


@pytest.mark.parametrize("argv, option", [
    (["duty-table", "--t-int-s", "nan"], "--t-int-s"),
    (["size-capacitor", "--e-peak-j", "nan", "--t-peak-s", "40"],
     "--e-peak-j"),
    (["size-capacitor", "--e-peak-j", "2", "--t-peak-s", "inf"],
     "--t-peak-s"),
])
def test_planning_options_must_be_finite(capsys, argv, option):
    with pytest.raises(SystemExit) as exited:
        main(argv)
    out, err = capsys.readouterr()
    assert exited.value.code == 2
    assert out == ""
    assert f"argument {option}: expected a finite number" in err


@pytest.mark.parametrize("extra", [
    ["--v-max-v", "1e200"],                    # the square overflows
    ["--v-max-v", "1e-200", "--v-min-v", "0"],  # the band underflows to 0
    ["--eta-pmic", "1e-320"],                   # e_peak / eta overflows
])
def test_size_capacitor_out_of_float_range(capsys, extra):
    assert main(["size-capacitor", "--e-peak-j", "2", "--t-peak-s", "40"]
                + extra) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "not a finite number" in err


def test_frame_encode_uplink_golden(capsys):
    # layout oracle: dest 16 | sender 4 | pv 8 | cap 8 | sensor 8
    word = (0 << 28) | (1 << 24) | (162 << 16) | (43 << 8) | 196
    assert f"{word:011X}" == "00001A22BC4"
    assert main(["frame", "encode", "--sender", "1", "--pv-level", "162",
                 "--cap-level", "43", "--sensor", "196"]) == 0
    assert capsys.readouterr().out == UPLINK_GOLDEN


def test_frame_encode_downlink_golden(capsys):
    word = (3 << 28) | (2 << 20) | (500 << 4)
    assert f"{word:011X}" == "00030201F40"
    assert main(["frame", "encode", "--command", "2", "--param", "500",
                 "--dest", "3"]) == 0
    assert capsys.readouterr().out == DOWNLINK_GOLDEN


def test_frame_decode_inverts_encode(capsys):
    assert main(["frame", "decode", "00001A22BC4"]) == 0
    assert capsys.readouterr().out == UPLINK_GOLDEN
    assert main(["frame", "decode", "00030201F40"]) == 0
    assert capsys.readouterr().out == DOWNLINK_GOLDEN


def test_frame_rejects_malformed_hex(capsys):
    assert main(["frame", "decode", "0001A22BC4"]) == 2      # 10 digits
    assert main(["frame", "decode", "000001A22BC4"]) == 2    # 12 digits
    assert main(["frame", "decode", "0000ZA22BC4"]) == 2     # not hex
    assert main(["frame", "decode", "0001A22BC_4"]) == 2     # underscore
    assert main(["frame", "decode", "+0001A22BC4"]) == 2     # sign
    assert capsys.readouterr().err.count("error:") == 5


def test_frame_encode_needs_one_direction(capsys):
    assert main(["frame", "encode", "--pv-level", "10"]) == 2
    assert main(["frame", "encode", "--sender", "1", "--command", "2"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, option", [
    (["--command", "2", "--pv-level", "300", "--sensor", "-5"], "--pv-level"),
    (["--sender", "2", "--param", "99999999"], "--param"),
])
def test_frame_encode_rejects_the_other_directions_options(capsys, argv,
                                                           option):
    assert main(["frame", "encode", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {option} is not an option of ")


@pytest.mark.parametrize("argv, message", [
    (["frame", "encode", "--sender", "16"], "sender_id must be 1..15, got 16"),
    (["frame", "encode", "--command", "2", "--param", "65536"],
     "param must be 0..65535, got 65536"),
    (["frame", "encode", "--sender", "1", "--dest", "65536"],
     "dest_address must be 16 bit, got 65536"),
    (["duty-table", "--n-max", "65536"], "n_max must be 0..65535, got 65536"),
])
def test_out_of_range_fields_exit_2_naming_the_field(capsys, argv, message):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def test_run_with_a_saturated_pv_reading(tmp_path, capsys):
    # at 200,000 lx node 1 reports pv_level 220, the open-circuit voltage
    # ceiling of 4.40 V: the access point books no recovery and sends n=73
    bright = tmp_path / "bright.scn"
    bright.write_text(read(shipped_scenario_path("paper_a")).replace(
        "face_a_ambient_lux = 1000.0", "face_a_ambient_lux = 200000.0", 1))
    assert main(["run", str(bright), "--duration-s", "600",
                 "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert ("11.40,1,4.500000,4.392313,PSN,Standby,200000.000,assigned n=73\n"
            in read(tmp_path / "paper-a.csv"))


def test_calibrate_golden(capsys):
    assert main(["calibrate"]) == 0
    assert capsys.readouterr().out == CALIBRATE_GOLDEN


def test_run_golden_files(tmp_path, capsys):
    rc = main(["run", shipped_scenario_path("paper_a"),
               "--duration-s", "30", "--out-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert f"paper-a: wrote {tmp_path / 'paper-a.csv'}" in out
    csv_text = read(tmp_path / "paper-a.csv")
    assert "\r" not in csv_text
    assert csv_text == RUN_CSV_GOLDEN
    assert read(tmp_path / "paper-a.summary.txt") == RUN_SUMMARY_GOLDEN


def test_run_writes_the_trace_csv_bytes_and_a_utf8_summary(tmp_path, capsys):
    # the CLI writes format_trace_csv's bytes as they are, and encodes
    # the summary itself, so a name outside ASCII survives in it verbatim
    scn = tmp_path / "kitchen.scn"
    scn.write_text(read(shipped_scenario_path("paper_a")).replace(
        "name = paper-a", "name = Küche Ost"), encoding="utf-8")
    assert main(["run", str(scn), "--duration-s", "600",
                 "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    scenario = parse_scenario_file(str(scn))._replace(duration_s=600.0)
    out = io.BytesIO()
    format_trace_csv(run_scenario(scenario), out)
    assert (tmp_path / "K-che-Ost.csv").read_bytes() == out.getvalue()
    summary = (tmp_path / "K-che-Ost.summary.txt").read_bytes()
    assert summary.decode("utf-8").split("\n", 1)[0] == "scenario: Küche Ost"


def test_run_many_scenarios_in_order(tmp_path, capsys):
    rc = main(["run", shipped_scenario_path("paper_a"),
               shipped_scenario_path("paper_b"),
               "--duration-s", "5", "--out-dir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "paper-a.csv").exists()
    assert (tmp_path / "paper-b.csv").exists()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("paper-a:") and lines[2].startswith("paper-b:")


@pytest.mark.parametrize("first, second, stem", [
    ("paper-a", "paper-a", "paper-a"),
    ("a b", "a-b", "a-b"),
])
def test_run_rejects_scenarios_sharing_an_output_name(tmp_path, capsys,
                                                      first, second, stem):
    base = read(shipped_scenario_path("paper_a"))
    paths = []
    for i, name in enumerate((first, second)):
        scn = tmp_path / f"in{i}.scn"
        scn.write_text(base.replace("name = paper-a", f"name = {name}"))
        paths.append(str(scn))
    out_dir = tmp_path / "out"
    code = main(["run", *paths, "--duration-s", "1",
                 "--out-dir", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 2
    assert f"{paths[0]} and {paths[1]}" in captured.err
    assert f"'{stem}'" in captured.err
    assert captured.out == ""
    assert not list(out_dir.glob("*.csv"))


def run_after_a_bad_paper_b(tmp_path, old, new):
    """`luxnet run paper_a.scn bad.scn`, bad.scn paper-b with old -> new."""
    bad = tmp_path / "bad.scn"
    bad.write_text(read(shipped_scenario_path("paper_b")).replace(old, new))
    return main(["run", shipped_scenario_path("paper_a"), str(bad),
                 "--duration-s", "1", "--out-dir", str(tmp_path)])


def test_run_checks_every_file_before_the_first_run(tmp_path, capsys):
    code = run_after_a_bad_paper_b(tmp_path, "step_s = 0.1", "step_s = -0.1")
    assert code == 2
    err = capsys.readouterr().err
    assert "error: scenario: step_s must be in (0.0, " in err
    assert err.endswith(", got -0.1\n")
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("old, new, code, message", [
    ("v_min_v = 3.4", "v_min_v = 3.0", 2,
     "node.2: v_min_v must be in [3.2, 4.5), got 3.0"),
    # node 2 moved onto emitter node 3
    ("position_m = 0.0 0.0 0.0", "position_m = 0.075 0.1299 0.0", 2,
     "node.3 to node.2 link: 0 m apart, closer than the 0.01 m an emitter "
     "keeps"),
    ("led_power_w = 0.0278", "led_power_w = 0.0", 3,
     "energy sharing requested but no node has an emitter"),
], ids=["v_min", "co-located", "no-emitter"])
def test_run_checks_node_limits_before_the_first_run(tmp_path, capsys, old,
                                                     new, code, message):
    assert run_after_a_bad_paper_b(tmp_path, old, new) == code
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_run_without_interference_never_imports_numpy(tmp_path):
    # a run reads no numpy, so a plain run, started in a fresh
    # interpreter, must not pay for importing it
    src = os.path.dirname(os.path.dirname(luxnet.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    script = (
        "import sys\n"
        "from luxnet.cli import main, shipped_scenario_path\n"
        "rc = main(['run', shipped_scenario_path('paper_a'),\n"
        f"          '--duration-s', '60', '--out-dir', {str(tmp_path)!r}])\n"
        "print(rc, 'numpy' in sys.modules)\n")
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 False"
    assert (tmp_path / "paper-a.csv").exists()


def test_setup_and_run_import_no_unused_modules(tmp_path):
    # every luxnet command starts by importing the package; reading and
    # checking a scenario, then running it, needs neither numpy, nor the
    # dataclasses machinery (with the inspect module it pulls in), nor
    # the calibration module, which only `luxnet calibrate` reads.  The
    # experiments need the standard library alone too, so importing them
    # and running the interference sweep loads no numpy
    src = os.path.dirname(os.path.dirname(luxnet.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    script = (
        "import sys\n"
        "from luxnet.cli import main, parse_scenario_file,"
        " shipped_scenario_path\n"
        "from luxnet.simkernel import validate_scenario\n"
        "path = shipped_scenario_path('paper_a')\n"
        "validate_scenario(parse_scenario_file(path))\n"
        "rc = main(['run', path, '--duration-s', '60',\n"
        f"          '--out-dir', {str(tmp_path)!r}])\n"
        "print(rc, [name for name in ('numpy', 'dataclasses', 'inspect',\n"
        "                             'luxnet.calibration')\n"
        "           if name in sys.modules])\n"
        "from luxnet.experiments import interference_sweep\n"
        "print(len(interference_sweep()), 'numpy' in sys.modules)\n")
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-2:] == ["0 []", "9 False"]
    assert (tmp_path / "paper-a.csv").exists()


def test_interfered_run_never_imports_numpy(tmp_path):
    # the interference draws are numpy's default_rng streams computed in
    # pure Python, so a run with an [interference] section does not
    # import numpy either; two seeds give two traces, so it drew
    scn = tmp_path / "seeded.scn"
    scn.write_text(INTERFERED_SCENARIO)
    src = os.path.dirname(os.path.dirname(luxnet.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    script = (
        "import sys\n"
        "from luxnet.cli import main\n"
        "codes = [main(['run', sys.argv[1], '--seed', seed,\n"
        "               '--out-dir', sys.argv[2] + seed])\n"
        "         for seed in ('1', '2')]\n"
        "print(codes, 'numpy' in sys.modules)\n")
    result = subprocess.run(
        [sys.executable, "-c", script, str(scn), str(tmp_path / "seed")],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[0, 0] False"
    assert (read(tmp_path / "seed1" / "seeded.csv")
            != read(tmp_path / "seed2" / "seeded.csv"))


def test_run_honours_out_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LUXNET_OUT_DIR", str(tmp_path))
    rc = main(["run", shipped_scenario_path("paper_a"), "--duration-s", "2"])
    assert rc == 0
    assert (tmp_path / "paper-a.csv").exists()
    capsys.readouterr()


def test_run_exit_codes(tmp_path, capsys):
    base = read(shipped_scenario_path("paper_a"))
    bad = tmp_path / "bad.scn"

    bad.write_text(base.replace("duration_s = 43200.0", "duration_s = -5.0"))
    assert main(["run", str(bad), "--out-dir", str(tmp_path)]) == 2
    assert "duration_s" in capsys.readouterr().err

    bad.write_text(base.replace("trace_interval_s", "trace_intervall_s"))
    assert main(["run", str(bad), "--out-dir", str(tmp_path)]) == 2
    assert "trace_intervall_s" in capsys.readouterr().err

    bad.write_text(base.replace("etx_policy = disabled", "etx_policy = oap")
                       .replace("led_power_w = 0.0278", "led_power_w = 0.0"))
    assert main(["run", str(bad), "--out-dir", str(tmp_path)]) == 3
    assert "emitter" in capsys.readouterr().err

    assert main(["run", str(tmp_path / "missing.scn"),
                 "--out-dir", str(tmp_path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("extra, mangle, key", [
    (["--duration-s", "inf"], None, "duration_s"),
    (["--duration-s", "nan"], None, "duration_s"),
    (["--step-s", "nan"], None, "step_s"),
    ([], lambda t: t.replace("face_a_ambient_lux = 150.0",
                             "face_a_ambient_lux = nan"),
     "node.2: face_a_ambient_lux"),
])
def test_run_rejects_non_finite_input(tmp_path, capsys, extra, mangle, key):
    scn = tmp_path / "in.scn"
    base = read(shipped_scenario_path("paper_a"))
    scn.write_text(mangle(base) if mangle else base)
    code = main(["run", str(scn), "--out-dir", str(tmp_path)] + extra)
    err = capsys.readouterr().err
    assert code == 2
    assert f"{key} must be in " in err
    # the option's value, or the nan a mangled file holds
    assert err.endswith(f", got {extra[1] if extra else 'nan'}\n")
    assert "Traceback" not in err
    assert not (tmp_path / "paper-a.csv").exists()


@pytest.mark.parametrize("key, value", [
    ("led_power_w", "1.7e308"),        # on paper-b, inf after its 630 s
    ("v_min_v", "1e300"),              # its guard energy overflowed
    ("v_min_v", "10"),                 # a floor over the 4.5 V full charge
    ("start_voltage_v", "4.500000001"),  # a start just over the full charge
    ("face_a_ambient_lux", "1.7e308"),   # inf in every v_pv and lux_mean
])
def test_run_rejects_a_value_outside_its_key_range(tmp_path, capsys, key,
                                                   value):
    scn = tmp_path / "in.scn"
    scn.write_text(with_value(read(shipped_scenario_path("paper_a")),
                              "node.1", key, value))
    assert main(["run", str(scn), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"error: node.1: {key} must be in " in err
    assert err.endswith(f", got {float(value)!r}\n")
    assert not (tmp_path / "paper-a.csv").exists()


@pytest.mark.parametrize("height", ["1e-156", "1e-150"])
def test_run_rejects_an_emitter_closer_than_its_minimum_distance(
        tmp_path, capsys, height):
    # node 1 straight above node 2's upward face b, aimed at it: 2 h of
    # this once printed lux_mean=inf at 1e-156 m, and lux figures some
    # 300 digits long at 1e-150 m
    text = with_value(read(shipped_scenario_path("paper_b")), "node.1",
                      "position_m", f"0.0 0.0 {height}")
    scn = tmp_path / "in.scn"
    scn.write_text(with_value(text, "node.1", "led_aim", "0.0 0.0 -1.0"))
    code = main(["run", str(scn), "--duration-s", "7200",
                 "--out-dir", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: node.1 to node.2 link: {height} m apart, closer than the "
        "0.01 m an emitter keeps\n")
    assert not (tmp_path / "paper-b.csv").exists()


def with_value(text, title, key, value):
    """Scenario text with the key of section [title] set to value."""
    head, section, rest = text.partition(f"[{title}]\n")
    body, bracket, tail = rest.partition("\n[")
    body, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", body,
                          flags=re.M)
    assert count == 1, (title, key)
    return head + section + body + bracket + tail


# the edge values each number row, and each element of a vector row, is
# run at; shipped paper-b has no [interference], so it is added at its
# defaults
EDGE_VALUES = ("5e-324", "1e-300", "1e-12", "1e-7", "0", "-1e-300", "65535",
               "1e9", "1e300", "1.7e308")
SWEPT_SECTIONS = (
    [("scenario", SCENARIO_KEYS, ""), ("oap", OAP_KEYS + CONTROLLER_KEYS, ""),
     ("interference", INTERFERENCE_KEYS, ""), ("node.1", NODE_KEYS, "")]
    + [("node.1", FACE_KEYS, f"face_{letter}_") for letter in FACE_LETTERS])
NON_FINITE_TEXT = re.compile(r"\b(?:nan|inf)\b")


def test_run_at_edge_values_exits_0_2_or_3_and_prints_only_numbers(
        tmp_path, capsys):
    # a value is rejected before the run (exit 2 or 3, no output) or run
    # (exit 0) to a trace and summary with no nan or inf in them
    base = read(shipped_scenario_path("paper_b")) + "\n[interference]\n"
    base += "".join(f"{key} = {getattr(InterferenceModel(), name)!r}\n"
                    for key, name, _, _ in INTERFERENCE_KEYS)
    escapes, cases = [], 0
    for title, table, prefix in SWEPT_SECTIONS:
        for key, _, reader, _ in table:
            if reader not in ("number", "vector"):
                continue
            for value in EDGE_VALUES:
                case = f"{title}: {prefix}{key} = {value}"
                if reader == "vector":
                    value = " ".join([value] * 3)
                cases += 1
                out = tmp_path / str(cases)
                out.mkdir()
                scn = out / "in.scn"
                scn.write_text(with_value(base, title, prefix + key, value))
                try:
                    code = main(["run", str(scn), "--duration-s", "30",
                                 "--out-dir", str(out)])
                except Exception as exc:   # the escape this test looks for
                    escapes.append(f"{case}: {exc!r}")
                    continue
                capsys.readouterr()
                written = sorted(p.name for p in out.iterdir()
                                 if p.name != "in.scn")
                if code not in (0, 2, 3):
                    escapes.append(f"{case}: exit {code}")
                elif code and written:
                    escapes.append(f"{case}: exit {code} wrote {written}")
                elif any(NON_FINITE_TEXT.search((out / name).read_text())
                         for name in written):
                    escapes.append(f"{case}: nan or inf in {written}")
    # 24 rows: 3 + 6 + 3 in the sections, 12 in node.1
    assert cases == 24 * len(EDGE_VALUES)
    assert escapes == []


# each row of the format but two: the section it is moved in and a
# second value inside its range
SECOND_VALUES = [
    ("scenario", "name", "paper-b-2"),
    ("scenario", "duration_s", "3000.0"),
    ("scenario", "step_s", "0.05"),
    ("scenario", "seed", "1"),
    ("scenario", "trace_interval_s", "20.0"),
    ("scenario", "etx_policy", "autonomous"),
    ("oap", "t_data_req_s", "500.0"),
    ("oap", "t_int_s", "1800.0"),
    ("oap", "slot_spacing_s", "5.0"),
    ("oap", "etx_offset_s", "60.0"),
    ("oap", "etx_spacing_s", "90.0"),
    ("interference", "midpoint_lux", "500.0"),
    ("interference", "steepness_per_lux", "0.05"),
    ("interference", "floor", "0.5"),
    ("node.1", "position_m", "-0.05 0.1299 0.0"),
    ("node.2", "start_voltage_v", "4.4"),
    ("node.1", "v_min_v", "3.9"),
    ("node.1", "led_power_w", "0.02"),
    ("node.1", "led_aim", "0.075 -0.1 0.0"),
    ("node.2", "sensing_enabled", "no"),
    ("node.2", "face_a_normal", "0.0 0.0 1.0"),
    ("node.2", "face_a_ambient_lux", "200.0"),
    ("node.2", "face_b_normal", "0.0 1.0 0.0"),
    ("node.2", "face_b_ambient_lux", "50.0"),
    ("node.2", "face_c_normal", "0.0 1.0 0.0"),
    ("node.2", "face_c_ambient_lux", "50.0"),
]
# the two rows no run reads, with the reason; both stay in the format,
# since perfbench/workloads.py sets them through OapSpec and NodeSpec
UNREAD_ROWS = {
    ("oap", "position_m", "0.0 0.0 1.0"):
        "the kernel never reads OapSpec.position",
    ("node.2", "sensor_base_c", "30.0"):
        "it reaches only the uplink payload, which Controller.on_uplink "
        "discards",
}


def run_outputs(text):
    """The CSV, summary, controller log and frame log of a run of text."""
    scenario = parse_scenario_text(text)
    validate_scenario(scenario)
    trace = run_scenario(scenario)
    out = io.BytesIO()
    format_trace_csv(trace, out)
    return (out.getvalue(), render_summary(summarize(trace)),
            trace.controller_log, trace.frame_log)


def test_every_key_a_run_reads_moves_its_outputs():
    # 1 h of shipped paper-b with [interference] appended: each row moved
    # to a second value changes the CSV, the summary, the controller log
    # or the frame log, and an unread row changes none.  Node 3's sharing
    # request comes 20 s after node 1's, inside node 1's session, which
    # starts once node 1 has recharged its report; with the interference
    # midpoint at 1100 lx, over the bright nodes' 1000 lx, the draws on
    # that request can go either way
    tables = [("scenario", SCENARIO_KEYS, ""), ("oap", OAP_KEYS, ""),
              ("oap", CONTROLLER_KEYS, ""),
              ("interference", INTERFERENCE_KEYS, ""), ("node", NODE_KEYS, "")]
    tables += [("node", FACE_KEYS, f"face_{letter}_")
               for letter in FACE_LETTERS]
    rows = [(kind, prefix + key) for kind, table, prefix in tables
            for key, _, _, _ in table]
    moves = SECOND_VALUES + list(UNREAD_ROWS)
    assert sorted(rows) == sorted((title.split(".")[0], key)
                                  for title, key, _ in moves)
    base = read(shipped_scenario_path("paper_b")).replace(
        "duration_s = 216000.0", "duration_s = 3600.0").replace(
        "etx_spacing_s = 60.0", "etx_spacing_s = 20.0")
    model = InterferenceModel(midpoint_lux=1100.0)
    base += "\n[interference]\n" + "".join(
        f"{key} = {getattr(model, name)!r}\n"
        for key, name, _, _ in INTERFERENCE_KEYS)
    before = run_outputs(base)
    unmoved = [key for title, key, value in SECOND_VALUES
               if run_outputs(with_value(base, title, key, value)) == before]
    assert unmoved == []
    moved = [f"{key}: {reason}"
             for (title, key, value), reason in UNREAD_ROWS.items()
             if run_outputs(with_value(base, title, key, value)) != before]
    assert moved == []


def test_run_takes_a_trace_interval_longer_than_any_run(tmp_path, capsys):
    # 1.7e308 s over a 0.1 s step overflows to an infinite tick ratio; it
    # samples tick 0 and the end, as an interval of the whole run does
    base = read(shipped_scenario_path("paper_a"))
    csvs = []
    for interval in ("1.7e308", "30.0"):
        scn = tmp_path / interval / "in.scn"
        scn.parent.mkdir()
        scn.write_text(base.replace("trace_interval_s = 10.0",
                                    f"trace_interval_s = {interval}"))
        assert main(["run", str(scn), "--duration-s", "30",
                     "--out-dir", str(scn.parent)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        csvs.append((scn.parent / "paper-a.csv").read_text())
    assert csvs[0] == csvs[1]
    assert csvs[0].startswith(CSV_HEADER + "\n0.00,1,")
    assert "\n30.00,1," in csvs[0]


@pytest.mark.parametrize("t_int, code", [
    ("0.5", 2), ("600.7", 2), ("600.0", 0), ("65535.0", 0)])
def test_run_takes_t_int_as_whole_seconds_of_the_config_field(
        tmp_path, capsys, t_int, code):
    # the access point broadcasts t_int as a 16-bit count of seconds
    scn = tmp_path / "in.scn"
    scn.write_text(read(shipped_scenario_path("paper_a")).replace(
        "t_int_s = 3600.0", f"t_int_s = {t_int}"))
    assert main(["run", str(scn), "--duration-s", "1",
                 "--out-dir", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert (tmp_path / "paper-a.csv").exists() == (code == 0)
    if code:
        # 0.5 lies outside [1, 65535]; 600.7 is not a whole number
        assert "error: oap: t_int_s must be " in err
        assert err.endswith(f", got {t_int}\n")
    else:
        csv = (tmp_path / "paper-a.csv").read_text()
        assert f"config t_int={int(float(t_int))}\n" in csv


def test_run_rejects_an_unusable_out_dir(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out_dir in (blocker, blocker / "sub"):
        code = main(["run", shipped_scenario_path("paper_a"),
                     "--duration-s", "1", "--out-dir", str(out_dir)])
        assert code == 2
        assert f"error: output directory {out_dir}" in capsys.readouterr().err

    (tmp_path / "paper-a.csv").mkdir()
    code = main(["run", shipped_scenario_path("paper_a"),
                 "--duration-s", "1", "--out-dir", str(tmp_path)])
    assert code == 2
    assert "error: cannot write" in capsys.readouterr().err


def test_run_reports_a_write_that_fails_midway(tmp_path, capsys,
                                               monkeypatch):
    # the CSV streams out in blocks: its second write finds the disk full
    writes = []

    def filling_open(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        write = fh.write

        def counted(text):
            writes.append(path)
            if len(writes) == 2:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return write(text)

        fh.write = counted
        return fh

    monkeypatch.setattr(luxnet.cli, "open", filling_open, raising=False)
    code = main(["run", shipped_scenario_path("paper_a"),
                 "--duration-s", "3600", "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    csv_path = os.path.join(str(tmp_path), "paper-a.csv")
    assert writes == [csv_path, csv_path]
    assert code == 2
    assert f"error: cannot write {csv_path}: " in err
    assert os.strerror(errno.ENOSPC) in err
    assert "Traceback" not in err
    # the truncated file is removed, so no partial output remains
    assert not os.path.exists(csv_path)


def test_seed_affects_only_interfered_runs(tmp_path, capsys):
    scn = tmp_path / "seeded.scn"
    scn.write_text(INTERFERED_SCENARIO)
    for seed, name in (("1", "one"), ("1", "one_again"), ("2", "two")):
        rc = main(["run", str(scn), "--seed", seed,
                   "--out-dir", str(tmp_path / name)])
        assert rc == 0
    one = read(tmp_path / "one" / "seeded.csv")
    again = read(tmp_path / "one_again" / "seeded.csv")
    two = read(tmp_path / "two" / "seeded.csv")
    assert one == again
    assert one != two

    # without an interference model the seed is inert
    quiet = INTERFERED_SCENARIO.replace(
        "[interference]\nmidpoint_lux = 300.0\n\n", "")
    scn.write_text(quiet)
    for seed, name in (("0", "a"), ("99", "b")):
        assert main(["run", str(scn), "--seed", seed,
                     "--out-dir", str(tmp_path / name)]) == 0
    assert (read(tmp_path / "a" / "seeded.csv")
            == read(tmp_path / "b" / "seeded.csv"))
    capsys.readouterr()


def test_shipped_scenarios_parse_and_validate():
    a = parse_scenario_file(shipped_scenario_path("paper_a"))
    b = parse_scenario_file(shipped_scenario_path("paper_b"))
    validate_scenario(a)
    validate_scenario(b)
    assert (a.name, a.etx_policy, a.duration_s) == ("paper-a", "disabled", 43200.0)
    assert (b.name, b.etx_policy, b.duration_s) == ("paper-b", "oap", 216000.0)
    assert [n.node_id for n in a.nodes] == [1, 2, 3]
    assert a.nodes == b.nodes


def test_scenario_roundtrip_is_identity():
    for stem in ("paper_a", "paper_b"):
        first = parse_scenario_file(shipped_scenario_path(stem))
        second = parse_scenario_text(serialize_scenario(first))
        assert second == first
        assert serialize_scenario(second) == serialize_scenario(first)


def test_shipped_scenarios_serialize_to_fixed_bytes():
    # recorded when the fixed settings left the format: the text before
    # it less its n_min, psn_pv_threshold_v, etx_bursts_per_request,
    # stale_after_rounds and three led_half_angle_deg lines
    digests = {
        "paper_a": "1f51bda34f2d30149743bce716dc5f34149f9f4f93c53e7bc524c5536b587d4b",
        "paper_b": "11930778b2bbffa7a81ce7fad063cbd258e4dd04fc28a1e2eb463bbb45272f87",
    }
    for stem, digest in digests.items():
        text = serialize_scenario(parse_scenario_file(
            shipped_scenario_path(stem)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_roundtrip_keeps_interference(tmp_path):
    scenario = parse_scenario_text(INTERFERED_SCENARIO)
    assert scenario.interference == InterferenceModel(midpoint_lux=300.0)
    assert parse_scenario_text(serialize_scenario(scenario)) == scenario


@pytest.mark.parametrize("mangle,needle", [
    (lambda t: t.replace("[scenario]", "[scenari0]"), "unknown section"),
    (lambda t: t.replace("[node.1]", "[node.one]"), "node.<id>"),
    (lambda t: t.replace("name = paper-a\n", ""), "name"),
    (lambda t: t.replace("position_m = 0.0 0.0 0.0",
                         "position_m = 0.0 0.0"), "three numbers"),
    (lambda t: t.replace("sensing_enabled = yes",
                         "sensing_enabled = maybe"), "yes/no"),
    (lambda t: t.replace("duration_s = 43200.0",
                         "duration_s = soon"), "expected a number"),
    (lambda t: t.replace("seed = 0", "seed = 1.5"), "integer"),
])
def test_parse_diagnostics(mangle, needle):
    base = read(shipped_scenario_path("paper_a"))
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(mangle(base))
    assert needle in str(err.value)


def test_empty_oap_and_interference_sections_take_the_defaults():
    scenario = parse_scenario_text(
        "[scenario]\nname = x\nduration_s = 1\n\n[oap]\n\n"
        "[interference]\n\n[node.1]\nposition_m = 0 0 0\n"
        "face_a_normal = 0 1 0\nface_a_ambient_lux = 150\n"
        "face_b_normal = 0 0 1\nface_b_ambient_lux = 0\n"
        "face_c_normal = 0 0 -1\nface_c_ambient_lux = 0\n")
    assert scenario.oap == OapSpec()
    assert scenario.interference == InterferenceModel()


def test_missing_scenario_section_is_rejected():
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text("[node.1]\nposition_m = 0 0 0\n")
    assert "[scenario]" in str(err.value)


def test_nodeless_file_is_rejected():
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text("[scenario]\nname = x\nduration_s = 1\n")
    assert "node" in str(err.value)


# ---------------------------------------------------------------------------
# properties
#
# Round-trip domain: every number is a finite float, every integer is
# non-negative and below 2**64, the name is one line with no surrounding
# whitespace, and each spec is built through its own constructor, so
# its checks hold.

FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
COUNTS = st.integers(min_value=0, max_value=2 ** 64)
VECTORS = st.tuples(FINITE, FINITE, FINITE)
NAMES = st.text(min_size=1).filter(
    lambda s: s == s.strip() and s.splitlines() == [s])


def node_specs(node_id):
    return st.builds(
        NodeSpec, node_id=st.just(node_id), position=VECTORS,
        faces=st.tuples(*[st.builds(FaceSpec, normal=VECTORS,
                                    ambient_lux=FINITE)] * 3),
        start_voltage=FINITE, v_min=FINITE, led_power_w=FINITE,
        led_aim=st.none() | VECTORS,
        sensing_enabled=st.booleans(), sensor_base_c=FINITE)


scenarios = st.builds(
    Scenario, name=NAMES, duration_s=FINITE,
    nodes=st.lists(st.integers(1, 15), min_size=1, max_size=15,
                   unique=True).flatmap(
        lambda ids: st.tuples(*[node_specs(i) for i in ids])),
    oap=st.builds(OapSpec, position=VECTORS, config=st.builds(
        ControllerConfig,
        t_data_req=st.floats(min_value=450.0, max_value=600.94,
                             exclude_min=True),
        t_int=POSITIVE, slot_spacing_s=POSITIVE, etx_offset_s=FINITE,
        etx_spacing_s=POSITIVE)),
    step_s=FINITE, seed=COUNTS, trace_interval_s=FINITE,
    etx_policy=st.sampled_from(ETX_POLICIES),
    interference=st.none() | st.builds(
        InterferenceModel, midpoint_lux=FINITE, steepness_per_lux=POSITIVE,
        floor=st.floats(min_value=0.0, max_value=1.0, exclude_max=True)))


@given(scenarios)
def test_parse_inverts_serialize(scenario):
    text = serialize_scenario(scenario)
    parsed = parse_scenario_text(text)
    assert parsed == scenario
    assert serialize_scenario(parsed) == text


SMALL_SCENARIO = """\
[scenario]
name = small
duration_s = 60.0
etx_policy = autonomous

[interference]
midpoint_lux = 500.0

[node.1]
position_m = 0.0 0.1 0.0
face_a_normal = 0.0 1.0 0.0
face_a_ambient_lux = 1000.0
face_b_normal = 1.0 0.0 0.0
face_b_ambient_lux = 1000.0
face_c_normal = 0.0 0.0 1.0
face_c_ambient_lux = 1000.0
v_min_v = 3.8
led_power_w = 0.0278
led_aim = 0.0 -1.0 0.0

[node.2]
position_m = 0.0 0.0 0.0
face_a_normal = 0.0 1.0 0.0
face_a_ambient_lux = 150.0
face_b_normal = 0.0 0.0 1.0
face_b_ambient_lux = 0.0
face_c_normal = 0.0 0.0 -1.0
face_c_ambient_lux = 0.0
"""

# Argv domain: each option is absent or takes a plausible value, and one
# of them takes a wild value instead: an edge value, any float or integer
# rendering, or a word that no number parser takes.
JUNK = ["", "abc", "1_0", "+-1", "0x10", "--"]
WILD_NUMBERS = st.sampled_from(
    ["nan", "inf", "-inf", "1e400", "1e200", "1e-200", "1e-320", "0", "-1"]
    + JUNK) | st.floats().map(repr)
WILD_INTS = st.sampled_from(
    ["-1", "16", "256", "65536", str(2 ** 64)] + JUNK) | st.integers().map(str)
PLAIN_NUMBERS = st.floats(min_value=1e-3, max_value=1e4).map(repr)
PLAIN_INTS = st.integers(0, 15).map(str)


@st.composite
def option_argvs(draw, plain, wild):
    """Some of the options, plausible, and one of them wild."""
    values = {name: draw(st.none() | strategy)
              for name, strategy in plain.items()}
    values[draw(st.sampled_from(sorted(plain)))] = draw(wild)
    return [arg for name, value in values.items() if value is not None
            for arg in (name, value)]


# argparse keeps the last value of a repeated option, so a leading
# default can still be overridden by the drawn options
PLANNING_ARGVS = {
    "duty-table": option_argvs(
        {"--n-max": PLAIN_INTS, "--t-int-s": PLAIN_NUMBERS,
         "--t-sense-s": PLAIN_NUMBERS, "--t-data-net-rec-s": PLAIN_NUMBERS,
         "--t-energy-net-s": PLAIN_NUMBERS,
         "--t-energy-net-rec-s": PLAIN_NUMBERS},
        WILD_NUMBERS | WILD_INTS),
    "size-capacitor --e-peak-j 2 --t-peak-s 40": option_argvs(
        {name: PLAIN_NUMBERS for name in ("--e-peak-j", "--eta-pmic",
                                          "--p-leak-w", "--t-peak-s",
                                          "--v-max-v", "--v-min-v")},
        WILD_NUMBERS),
    "frame encode": option_argvs(
        {name: PLAIN_INTS for name in ("--dest", "--sender", "--pv-level",
                                       "--cap-level", "--sensor",
                                       "--command", "--param")},
        WILD_INTS),
    "frame decode": (st.text()
                     | st.integers(0, 2 ** 48).map(lambda w: f"{w:011X}")
                     ).map(lambda word: [word]),
}

# --duration-s stays at most 60 s and --step-s at least 0.05 s, so no
# accepted run takes more than 1200 ticks; 1e-300 reaches the tick cap
RUN_ARGVS = option_argvs(
    {"--duration-s": st.floats(min_value=0.1, max_value=60.0).map(repr),
     "--step-s": st.floats(min_value=0.05, max_value=5.0).map(repr),
     "--seed": PLAIN_INTS},
    st.sampled_from(["nan", "inf", "0", "-1", "1e-300", "-5"] + JUNK))


def exit_code_and_output(argv):
    """main's exit code, stdout and stderr; any other exception fails."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class PinnedOptions:
    """Stands in for st.data() in an @example: every draw gives argv."""

    def __init__(self, argv):
        self.argv = argv

    def draw(self, strategy):
        return self.argv


@pytest.mark.parametrize("command", PLANNING_ARGVS)
@given(data=st.data())
# a table this long would never end
@example(data=PinnedOptions(["--n-max", str(2 ** 64)]))
def test_every_planning_argv_exits_0_2_or_3(command, data):
    argv = command.split() + data.draw(PLANNING_ARGVS[command])
    code, out, err = exit_code_and_output(argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    # an accepted request prints no non-finite number
    assert not re.search(r"\b(nan|inf)\b", out)


@given(RUN_ARGVS)
def test_every_run_argv_exits_0_2_or_3(argv):
    with tempfile.TemporaryDirectory() as out_dir:
        scenario = f"{out_dir}/small.scn"
        with open(scenario, "w", encoding="utf-8") as fh:
            fh.write(SMALL_SCENARIO)
        code, _, err = exit_code_and_output(
            ["run", scenario, "--out-dir", out_dir] + argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err


# numbers are ASCII decimal text: int and float would also read a digit
# group underscore and non-ASCII digits (Arabic-Indic, full-width), and
# int fails on a superscript with a message that names nothing
NOT_NUMBERS = JUNK + ["٢", "３", "²"]


def number_options():
    """(subcommand argv, option) for every option that reads a number."""
    found = []

    def walk(parser, command):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    walk(sub, command + [name])
            elif action.type is not None:
                found.append((command, action.option_strings[0]))

    walk(_build_parser(), [])
    return found


# each command's other required arguments, all plain
REQUIRED_ARGV = {"run": ["small.scn"],
                 "size-capacitor": ["--e-peak-j", "2", "--t-peak-s", "40"]}


NUMBER_OPTIONS = number_options()


def test_every_number_option_is_found():
    assert len(NUMBER_OPTIONS) == 22


@pytest.mark.parametrize("command, option", NUMBER_OPTIONS, ids=[
    " ".join(command + [option]) for command, option in NUMBER_OPTIONS])
@pytest.mark.parametrize("value", NOT_NUMBERS)
def test_a_number_option_takes_only_ascii_decimal_text(command, option,
                                                       value):
    argv = command + REQUIRED_ARGV.get(command[0], []) + [option, value]
    code, out, err = exit_code_and_output(argv)
    assert code == 2
    assert out == ""
    assert f"argument {option}: " in err


@pytest.mark.parametrize("title, key", [
    ("scenario", "step_s"), ("scenario", "seed"), ("oap", "position_m")])
@pytest.mark.parametrize("value", NOT_NUMBERS)
def test_a_number_key_takes_only_ascii_decimal_text(tmp_path, title, key,
                                                    value):
    if key == "position_m":
        value = f"0.0 {value} 0.4"
    path = tmp_path / "bad.scn"
    path.write_text(with_value(read(shipped_scenario_path("paper_a")),
                               title, key, value), encoding="utf-8")
    code, out, err = exit_code_and_output(
        ["run", str(path), "--out-dir", str(tmp_path)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {title}: {key}: ")
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("value", NOT_NUMBERS)
def test_a_node_section_name_takes_only_ascii_decimal_text(tmp_path, value):
    path = tmp_path / "bad.scn"
    path.write_text(read(shipped_scenario_path("paper_a")).replace(
        "[node.2]", f"[node.{value}]"), encoding="utf-8")
    code, out, err = exit_code_and_output(
        ["run", str(path), "--out-dir", str(tmp_path)])
    assert code == 2
    assert out == ""
    assert err == (f"error: node.{value}: node sections are named "
                   "node.<id>\n")
