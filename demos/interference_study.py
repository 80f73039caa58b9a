"""Frame losses under a share burst, as a function of ambient light.

While an energy burst is on the air the receiver's front end sits in
its glare; how often a frame survives depends on how much ambient
light anchors the input stage.  Sweeps the ambient level and draws a
thousand frames per point.
"""

from statistics import correlation

from luxnet.experiments import interference_sweep, render_sweep_table


def ranks(values):
    """Each value's rank from 1, tied values sharing their mean rank."""
    ordered = sorted(values)
    return [ordered.index(v) + (ordered.count(v) + 1) / 2 for v in values]


def main():
    points = interference_sweep()
    print(render_sweep_table(points), end="")
    # Spearman's rho: the correlation of the two rankings
    rho = correlation(ranks([p.ambient_lux for p in points]),
                      ranks([p.failure_ratio for p in points]))
    print()
    print(f"failure ratio vs ambient light: Spearman {rho:.3f} "
          f"(brighter rooms shrug the burst off)")


if __name__ == "__main__":
    main()
