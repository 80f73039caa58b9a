"""The keyed trace differ (trace_diff.py) on hand-made changes to a real
run's CSV and tallies."""

import math

import pytest

import trace_diff
from luxnet.cli import parse_scenario_file, shipped_scenario_path
from luxnet.simkernel import run_scenario
from test_simkernel import csv_text


@pytest.fixture(scope="module")
def paper_b():
    """paper-b's first 10 minutes: three nodes, sessions and frames."""
    scenario = parse_scenario_file(shipped_scenario_path("paper_b"))
    return run_scenario(scenario._replace(duration_s=600.0))


def lines_of(trace):
    return csv_text(trace).splitlines(keepends=True)


def test_an_unchanged_csv_diffs_to_nothing(paper_b):
    lines = lines_of(paper_b)
    diff = trace_diff.diff_csv("".join(lines), "".join(lines))
    assert diff.matched == len(lines) - 1
    assert (diff.added, diff.removed, diff.moved, diff.first) == (
        [], [], [], {})
    assert all(change == 0 for change, _ in diff.largest.values())


def test_a_changed_voltage_is_named_by_its_key(paper_b):
    lines = lines_of(paper_b)
    k = len(lines) // 2
    fields = lines[k].split(",")
    assert fields[7] == "\n"
    fields[2] = f"{float(fields[2]) + 2e-6:.6f}"
    changed = lines[:k] + [",".join(fields)] + lines[k + 1:]
    diff = trace_diff.diff_csv("".join(lines), "".join(changed))
    key = (fields[0], fields[1], "", 0)
    change, at = diff.largest["v_cap"]
    assert at == key and change == pytest.approx(2e-6)
    assert diff.first == {fields[1]: (fields[0], "v_cap")}
    assert (diff.added, diff.removed, diff.moved) == ([], [], [])
    report = trace_diff.format_row_diff(diff)
    assert f"v_cap: {change:g} at {key}" in report


def test_an_added_event_row_misaligns_no_later_row(paper_b):
    lines = lines_of(paper_b)
    k = len(lines) // 3
    time_s, nid = lines[k].split(",")[:2]
    extra = f"{time_s},{nid},3.900000,0.000000,SSN,Sleep,150.000,stray\n"
    added = lines[:k] + [extra] + lines[k:]
    diff = trace_diff.diff_csv("".join(lines), "".join(added))
    assert diff.added == [(time_s, nid, "stray", 0)]
    assert (diff.removed, diff.moved) == ([], [])
    assert diff.matched == len(lines) - 1
    assert all(change == 0 for change, _ in diff.largest.values())
    assert diff.first == {nid: (time_s, "added")}
    assert "events: 1 added, 0 removed, 0 moved" in (
        trace_diff.format_row_diff(diff))


def test_an_event_at_another_time_has_moved(paper_b):
    lines = lines_of(paper_b)
    k = next(k for k, line in enumerate(lines)
             if line.rstrip("\n").endswith(",report sent"))
    fields = lines[k].split(",")
    later = f"{float(fields[0]) + 0.1:.2f}"
    moved = lines[:k] + [",".join([later] + fields[1:])] + lines[k + 1:]
    diff = trace_diff.diff_csv("".join(lines), "".join(moved))
    assert diff.moved == [(fields[1], "report sent", fields[0], later)]
    assert (diff.added, diff.removed) == ([], [])


def test_the_command_line_prints_the_report(tmp_path, capsys, paper_b):
    text = csv_text(paper_b)
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text(text)
    new.write_text(text.replace(",report sent\n", ",report lost\n", 1))
    assert trace_diff.main([str(old), str(new)]) == 0
    out = capsys.readouterr().out
    assert "events: 1 added, 1 removed, 0 moved" in out
    assert trace_diff.main([str(old)]) == 2


def test_aggregates_differ_in_ulps(paper_b):
    other = run_scenario(parse_scenario_file(shipped_scenario_path(
        "paper_b"))._replace(duration_s=600.0))
    agg = other.aggregates[2]
    agg.harvested_j = math.nextafter(
        math.nextafter(agg.harvested_j, math.inf), math.inf)
    agg.depleted_at = 1.0
    largest = trace_diff.aggregate_ulps(paper_b, other)
    assert largest["harvested_j"] == (2, 2)
    assert largest["depleted_at"] == ("set", 2)
    assert all(change == 0 for name, (change, _) in largest.items()
               if name not in ("harvested_j", "depleted_at"))
    assert "harvested_j: 2 (node 2)" in trace_diff.format_aggregate_ulps(
        largest)
    assert trace_diff.ulps(-0.0, 0.0) == 0
    assert trace_diff.ulps(-5e-324, 5e-324) == 2
