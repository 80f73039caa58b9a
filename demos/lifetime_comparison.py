"""Run the two shipped scenarios head to head over the same 12 hours.

Both place a dim sensing node (150 lx, one lit face) between two
bright nodes 15 cm away.  The first leaves every node to its own
harvest; the second lets the access point request light bursts from
the bright pair each data round.  The dim node's fate is the story.
"""

from luxnet.cli import parse_scenario_file, shipped_scenario_path
from luxnet.simkernel import run_scenario
from luxnet.trace import render_summary, summarize

HOUR = 3600.0


def run(stem, hours):
    scenario = parse_scenario_file(shipped_scenario_path(stem))
    scenario = scenario._replace(duration_s=hours * HOUR)
    return scenario.name, run_scenario(scenario)


def main():
    for stem in ("paper_a", "paper_b"):
        name, trace = run(stem, 12.0)
        print(f"=== {name}: 12 h, sharing "
              f"{'off' if stem == 'paper_a' else 'on'} ===")
        print(render_summary(summarize(trace)), end="")
        dim = trace.aggregates[2]
        if dim.depleted_at is not None:
            print(f"-> dim node locked out after "
                  f"{dim.depleted_at / HOUR:.2f} h")
        else:
            print(f"-> dim node still at {dim.final_voltage:.3f} V "
                  f"(mean light {dim.lux_integral / trace.duration_s:.0f} lx "
                  f"vs 150 lx ambient)")
        print()


if __name__ == "__main__":
    main()
