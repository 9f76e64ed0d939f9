"""How feeder state is modeled and how unbalance is measured.

A feeder snapshot is just three lists of load-point powers, one per
phase. The balancing loop steers on a single scalar: the mean pairwise
absolute difference of the three phase totals.
"""

from phasebal import FeederSnapshot, avg_unbalance, phase_totals, system_total

feeder = FeederSnapshot(
    [
        [5, 4, 4, 3, 2, 1, 2, 3, 5, 2],   # phase 1: 31 kW
        [4, 2, 3, 1, 3],                  # phase 2: 13 kW
        [1, 1, 2, 1],                     # phase 3:  5 kW
    ]
)

totals = phase_totals(feeder)
print("phase totals:", totals, "kW")
print("system total:", system_total(feeder), "kW")
print()

ub = avg_unbalance(totals)
print("pairwise gaps:", abs(totals[0] - totals[1]), abs(totals[1] - totals[2]), abs(totals[2] - totals[0]))
print(f"average unbalance per phase: {ub:.2f} kW")
print()

# a perfectly balanced feeder scores zero, no matter the level
for t in [(10.0, 10.0, 10.0), (200.0, 200.0, 200.0)]:
    print(f"totals {t} -> unbalance {avg_unbalance(t):.2f} kW")

# the metric only sees totals, so moving a point between phases changes
# it even though the system total stays put
shifted = FeederSnapshot(
    [
        [5, 4, 4, 3, 2, 1, 2, 3],
        [4, 2, 3, 1, 3, 5, 2],
        [1, 1, 2, 1],
    ]
)
print()
print("after moving two 5+2 kW points from phase 1 to phase 2:")
print("totals:", phase_totals(shifted), "->", f"{avg_unbalance(phase_totals(shifted)):.2f} kW unbalance")
print("system total unchanged:", system_total(shifted), "kW")
