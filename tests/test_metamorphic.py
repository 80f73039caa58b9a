"""Metamorphic relations: properties that tie the outputs of two related
runs together, so they need no stored reference and keep holding when a
reference is re-recorded.

Prefix: a run of duration T is the run of duration 2T cut at T.  Every
CSV row before the shorter run's end is the same row of the longer run,
and the shorter run adds only its final sample rows.

Adding a node is not such a relation: every downlink floods every node,
so a far node's frames cost the others decode energy and wake-ups.
"""

import io

import pytest
from hypothesis import given

from luxnet.cli import parse_scenario_file, shipped_scenario_path
from luxnet.simkernel import run_scenario
from luxnet.trace import format_trace_csv
from test_kernel_equivalence import networks
from test_simkernel import benchmark_workloads


def csv_rows(scenario):
    out = io.StringIO()
    format_trace_csv(run_scenario(scenario), out)
    return out.getvalue().splitlines()[1:]


def assert_prefix(scenario, duration_s):
    short = csv_rows(scenario._replace(duration_s=duration_s))
    long = csv_rows(scenario._replace(duration_s=2.0 * duration_s))
    nodes = len(scenario.nodes)
    # the short run ends on a sample row per node, at its end
    final = short[-nodes:]
    end = final[0].split(",", 1)[0]
    assert [row.split(",", 1)[0] for row in final] == [end] * nodes
    assert all(row.endswith(",") for row in final)
    cut = len(short) - nodes
    assert long[:cut] == short[:cut]
    # and the long run holds no other row before that end
    assert float(long[cut].split(",", 1)[0]) >= float(end)


def test_paper_a_is_a_prefix_of_its_longer_run():
    assert_prefix(parse_scenario_file(shipped_scenario_path("paper_a")),
                  12_345.6)


@pytest.mark.parametrize("seed", [1, 3])
def test_crowd_dense_is_a_prefix_of_its_longer_run(seed):
    assert_prefix(benchmark_workloads().crowd_dense_scenario(seed), 777.7)


@given(networks())
def test_a_drawn_network_is_a_prefix_of_its_longer_run(scenario):
    assert_prefix(scenario, scenario.duration_s / 2.0)
