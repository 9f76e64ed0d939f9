"""End to end: balance the bundled reference feeder and read the report.

Ties everything together: fuzzy suggestion, zero-sum correction,
point selection, and the iteration loop, then shows the same run
serialized as a JSON report.
"""

import json

from phasebal import (
    BalancerConfig,
    balance,
    load_reference_feeder,
    phase_totals,
    system_total,
    write_report,
)

feeder = load_reference_feeder()
print(f"initial totals : {phase_totals(feeder)} kW")
print(f"system total   : {system_total(feeder):g} kW")

report = balance(feeder, BalancerConfig(unbalance_threshold=10.0, max_iterations=10))

print(f"status         : {report.status}")
print(f"iterations     : {len(report.iterations)}")
print(f"unbalance      : {report.initial_unbalance:.2f} -> {report.final_unbalance:.2f} kW")
print(f"final totals   : {report.final_totals} kW")
print(f"system total   : {system_total(report.final_snapshot):g} kW (unchanged)")
print()

for i, rec in enumerate(report.iterations, start=1):
    print(f"iteration {i}:")
    print(f"  raw suggestion        {rec.suggestion_raw}")
    print(f"  corrected (sums to 0) {rec.suggestion_corrected}")
    print(f"  moves executed        {len(rec.plan.moves)}")
    print(f"  unbalance after       {rec.unbalance_after:.2f} kW")
print()

# the JSON report carries the full trail with 1-based phase numbers
doc = json.loads(write_report(report))
first_moves = doc["iterations"][0]["moves"][:4]
print("first moves from the JSON report:")
for mv in first_moves:
    print(f"  {mv['kw']} kW: phase {mv['from']} (row {mv['index']}) -> phase {mv['to']}")
