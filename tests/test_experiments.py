"""Tests for the recharge and interference experiments."""

import pytest
from scipy.stats import spearmanr

from luxnet.errors import InfeasibleError
from luxnet.experiments import (
    interference_sweep,
    recharge_improvement,
    render_recharge_table,
    render_sweep_table,
    time_to_harvest,
)
from kernel_oracle import run_scenario as oracle_run
from luxnet.simkernel import (
    Scenario,
    TraceRow,
    TraceSet,
    run_scenario,
    segment_values,
)
from test_simkernel import lone_node


def synthetic_trace(samples):
    """Node 1's sample rows at the given (time, harvest) checkpoints; an
    event row and another node's rows in between must not count."""
    discrete = []
    for t, e in samples:
        discrete += [
            TraceRow(t, 1, 4.0, 0.0, "SSN", "Sleep", 0.0, e),
            TraceRow(t, 2, 4.0, 0.0, "SSN", "Sleep", 0.0, 100.0),
            TraceRow(t, 1, 4.0, 0.0, "SSN", "Sleep", 0.0, e + 50.0,
                     event="timer wake")]
    return TraceSet(
        scenario_name="synthetic",
        duration_s=3.0,
        step_s=0.1,
        discrete=discrete,
        segments=[],
        frame_log=[],
        controller_log=[],
        aggregates={},
    )


def test_time_to_harvest_interpolates_between_checkpoints():
    trace = synthetic_trace([(1.0, 0.4), (2.0, 0.8), (3.0, 1.2)])
    assert time_to_harvest(trace, 1, 1.0) == pytest.approx(2.5)
    assert time_to_harvest(trace, 1, 0.4) == pytest.approx(1.0)


def test_time_to_harvest_raises_when_run_ends_short():
    trace = synthetic_trace([(1.0, 0.4), (2.0, 0.8)])
    with pytest.raises(InfeasibleError):
        time_to_harvest(trace, 1, 5.0)


def test_time_to_harvest_finds_a_crossing_inside_a_segment():
    # a lit node sampled every second: its long quiet stretches keep
    # their sample rows as segments
    scenario = Scenario(name="t", duration_s=600.0, trace_interval_s=1.0,
                        nodes=(lone_node(ambient=400.0),))
    trace = run_scenario(scenario)
    segment = max(trace.segments, key=lambda s: len(s.instants))
    times, [(_, harvests)] = segment_values(segment, harvest=True)
    k = len(times) // 2
    target = 0.5 * (harvests[k] + harvests[k + 1])
    crossing = time_to_harvest(trace, 1, target)
    assert times[k] < crossing < times[k + 1]
    # the per-tick loop writes every sample as a discrete row
    reference = oracle_run(scenario)
    assert not reference.segments
    assert crossing == pytest.approx(
        time_to_harvest(reference, 1, target), rel=1e-9)


def test_recharge_baseline_matches_flat_harvest_rate():
    # three cells at 150 lx harvest 0.405 mW, so 1 J takes 2469 s; the
    # shared run must beat that by the narrow-band expectation
    (point,) = recharge_improvement(ambient_levels=(150.0,))
    assert point.time_without_s == pytest.approx(1.0 / 0.405e-3, abs=1.5)
    assert point.time_with_s < point.time_without_s
    assert 0.078 <= point.improvement <= 0.178


def test_recharge_improvement_shrinks_as_ambient_rises():
    points = recharge_improvement(ambient_levels=(150.0, 400.0))
    assert points[0].improvement > points[1].improvement
    assert all(p.time_with_s < p.time_without_s for p in points)


def test_recharge_rejects_dark_ambient():
    with pytest.raises(ValueError):
        recharge_improvement(ambient_levels=(0.0,))


def test_sweep_tracks_the_failure_model():
    points = interference_sweep()
    assert len(points) >= 8
    probs = [p.failure_probability for p in points]
    assert all(a > b for a, b in zip(probs, probs[1:]))
    assert all(0.0 <= p.failure_ratio <= 1.0 for p in points)
    assert all(abs(p.failure_ratio - p.failure_probability) < 0.05
               for p in points)
    rho, _ = spearmanr([p.ambient_lux for p in points],
                       [p.failure_ratio for p in points])
    assert rho <= -0.95


def test_sweep_is_seeded():
    first = interference_sweep(seed=1)
    again = interference_sweep(seed=1)
    other = interference_sweep(seed=2)
    assert [p.failure_ratio for p in first] == [p.failure_ratio for p in again]
    assert ([p.failure_probability for p in first]
            == [p.failure_probability for p in other])
    assert ([p.failure_ratio for p in first]
            != [p.failure_ratio for p in other])


def test_sweep_rejects_empty_draw():
    with pytest.raises(ValueError):
        interference_sweep(frames_per_point=0)


def test_sweep_rejects_a_negative_seed():
    # numpy's default_rng rejects it, and the seed's 32-bit words must not
    # quietly wrap it to another stream
    with pytest.raises(ValueError, match="expected non-negative integer"):
        interference_sweep(seed=-1)


def test_render_tables_are_csv_shaped():
    sweep = render_sweep_table(interference_sweep(frames_per_point=10))
    header, first = sweep.splitlines()[:2]
    assert header == "ambient_lux,failure_probability,failure_ratio"
    assert len(first.split(",")) == 3
    table = render_recharge_table(recharge_improvement(
        ambient_levels=(400.0,)))
    assert table.startswith(
        "ambient_lux,time_without_s,time_with_s,improvement_pct")
    assert f"\n400," in table
