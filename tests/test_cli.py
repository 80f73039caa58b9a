"""Golden-file and contract tests for the command-line front end."""

import pytest

from luxnet.cli import (
    main,
    parse_scenario_file,
    parse_scenario_text,
    serialize_scenario,
    shipped_scenario_path,
)
from luxnet.channel import InterferenceModel
from luxnet.errors import ScenarioError
from luxnet.simkernel import OapSpec, validate_scenario

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
    assert capsys.readouterr().err.count("error:") == 3


def test_frame_encode_needs_one_direction(capsys):
    assert main(["frame", "encode", "--pv-level", "10"]) == 2
    assert main(["frame", "encode", "--sender", "1", "--command", "2"]) == 2
    capsys.readouterr()


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


def test_run_many_scenarios_in_order(tmp_path, capsys):
    rc = main(["run", shipped_scenario_path("paper_a"),
               shipped_scenario_path("paper_b"),
               "--duration-s", "5", "--out-dir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "paper-a.csv").exists()
    assert (tmp_path / "paper-b.csv").exists()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("paper-a:") and lines[2].startswith("paper-b:")


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
    ([], lambda t: t + "\n[calibration]\nsense_w = nan\n",
     "calibration: sense_w"),
])
def test_run_rejects_non_finite_input(tmp_path, capsys, extra, mangle, key):
    scn = tmp_path / "in.scn"
    base = read(shipped_scenario_path("paper_a"))
    scn.write_text(mangle(base) if mangle else base)
    code = main(["run", str(scn), "--out-dir", str(tmp_path)] + extra)
    err = capsys.readouterr().err
    assert code == 2
    assert f"{key} must be finite" in err
    assert "Traceback" not in err
    assert not (tmp_path / "paper-a.csv").exists()


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


def test_roundtrip_keeps_interference_and_profile(tmp_path):
    text = INTERFERED_SCENARIO + "\n[calibration]\nsleep_w = 0.0002\n"
    scenario = parse_scenario_text(text)
    assert scenario.interference is not None
    assert scenario.profile.sleep == 0.0002
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
    (lambda t: t.replace("n_min = 1", "n_min = 1.5"), "integer"),
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
