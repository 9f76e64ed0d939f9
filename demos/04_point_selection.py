"""The combinatorial half: picking which load points actually move.

A corrected change like -99 kW on phase 1 has to be realized with real
load points. The planner first sizes the move (change over mean point
power), then solves a fixed-cardinality subset problem exactly: choose
that many points whose sum lands as close to the change as possible.
Ties go to the lexicographically smallest index set, so results are
reproducible run to run.
"""

from itertools import combinations

from phasebal import (
    ChangeSuggestion,
    determine,
    distribute,
    load_reference_feeder,
    points_to_move,
    select_subset,
)

feeder = load_reference_feeder()
phase1 = feeder.phases[0]

release = 99.0
n = points_to_move(release, phase1)
print(f"phase 1 holds {len(phase1)} points totalling {sum(phase1):g} kW")
print(f"to shed {release:g} kW at a mean of {sum(phase1) / len(phase1):.2f} kW/point -> move {n} points")

picked = select_subset(phase1, n, release)
chosen = [phase1[i] for i in picked.indices]
print(f"selected points: {[int(p) for p in chosen]}")
print(f"selected sum {sum(chosen):g} kW, deviation {picked.deviation:g} kW")
print()

# tiny instances can be checked by hand against full enumeration
points = [7.0, 13.0, 2.0, 9.0, 4.0]
target = 18.0
sel = select_subset(points, 2, target)
best = min(combinations(range(len(points)), 2), key=lambda idx: abs(sum(points[i] for i in idx) - target))
print(f"choose 2 of {points} nearest {target:g}:")
print(f"  solver    -> indices {sel.indices}, deviation {sel.deviation:g}")
print(f"  enumerate -> indices {best}, deviation {abs(sum(points[i] for i in best) - target):g}")
print()

# the full planning step: phase 1 releases, phases 2 and 3 receive
suggestion = ChangeSuggestion((-99, 30, 69))
vector = determine(feeder, suggestion)
plan = distribute(vector, suggestion)
print(f"change vector: {len(vector.entries)} points, {vector.total():g} kW pooled")
print(f"released per phase: {plan.released_per_phase}")
print(f"received per phase: {plan.received_per_phase}")
for mv in plan.moves[:5]:
    print(f"  point {mv.point_index} ({mv.power:g} kW): phase {mv.source_phase + 1} -> phase {mv.dest_phase + 1}")
print(f"  ... {len(plan.moves) - 5} more moves")
