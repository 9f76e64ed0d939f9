"""Independent reference implementations used to cross-check the library.

These deliberately share no code with the package: the subset oracle
enumerates combinations outright, the fine-grid centroid oracle
integrates the aggregated output set numerically on a fine grid with
membership computed by interpolation, the clipped-centroid oracle splits
one clipped triangle into ramps and a plateau in exact rational
arithmetic, and the sampled-grid oracles sum the aggregate sample by
sample on the controller's own grid and tell whether a term holds any
point of that grid. The pipeline oracle writes the balancing loop out
pass by pass; it takes only the fuzzy inference from the package and
picks points with the subset oracle. Slow and simple on purpose.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Sequence

import numpy as np

_BRUTE_FORCE_LIMIT = 22


def brute_force_subset(
    points: Sequence[float], n: int, target: float
) -> tuple[tuple[int, ...], float]:
    """Enumerate every n-combination; return the lexicographically first
    index tuple achieving the minimum |sum - target|."""
    if len(points) > _BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force capped at {_BRUTE_FORCE_LIMIT} points, got {len(points)}")
    if not 0 <= n <= len(points):
        raise ValueError(f"cannot choose {n} of {len(points)}")
    best_idx: tuple[int, ...] | None = None
    best_dev = float("inf")
    for idx in combinations(range(len(points)), n):
        dev = abs(sum(points[i] for i in idx) - target)
        if dev < best_dev:
            best_dev = dev
            best_idx = idx
    assert best_idx is not None
    return best_idx, float(best_dev)


def fine_grid_centroid(controller, load: float, samples: int = 1_000_001) -> float:
    """Numerically integrated Mamdani output for one crisp input.

    Memberships come from np.interp over each triangle's breakpoints,
    aggregation is a plain elementwise max of clipped consequents, and
    the centroid is a discrete first moment on a dense uniform grid.
    """

    def mu(term, x):
        return np.interp(x, [term.left, term.apex, term.right], [0.0, 1.0, 0.0])

    lo, hi = controller.output.universe
    xs = np.linspace(lo, hi, samples)
    agg = np.zeros_like(xs)
    fired = False
    for antecedent, consequent in controller.rules:
        strength = float(mu(controller.input.term(antecedent), load))
        if strength <= 0.0:
            continue
        fired = True
        out = controller.output.term(consequent)
        agg = np.maximum(agg, np.minimum(strength, mu(out, xs)))

    if not fired:
        # mirror the engine's convention: fall back to the base midpoint of
        # the consequent of the rule whose antecedent peak is nearest
        nearest = min(
            controller.rules,
            key=lambda r: abs(controller.input.term(r[0]).apex - load),
        )
        out = controller.output.term(nearest[1])
        return (out.left + out.right) / 2.0

    weight = float(agg.sum())
    return float(np.dot(xs, agg) / weight)


def exact_clipped_centroid(left: float, apex: float, right: float, strength: float) -> Fraction:
    """Centroid of a triangle clipped at strength, in exact rational arithmetic.

    The clipped set is a rising ramp, a plateau and a falling ramp, each
    weighed by its area. At strength 0 the set is empty; the result is
    then the limit as the strength goes to 0, the midpoint of the base.
    """
    l, a, r, w = (Fraction(v) for v in (left, apex, right, strength))
    if w == 0:
        return (l + r) / 2
    p, q = l + w * (a - l), r - w * (r - a)
    pieces = [
        ((p - l) * w / 2, l + 2 * (p - l) / 3),
        ((q - p) * w, (p + q) / 2),
        ((r - q) * w / 2, q + (r - q) / 3),
    ]
    return sum(area * x for area, x in pieces) / sum(area for area, _ in pieces)


def _membership_grid(mf, xs: np.ndarray) -> np.ndarray:
    """Vectorized membership over a sample grid (shoulders carry 1 at their edge)."""
    out = np.zeros_like(xs)
    left, apex, right = mf.left, mf.apex, mf.right
    if apex > left:
        rising = (xs > left) & (xs <= apex)
        out[rising] = (xs[rising] - left) / (apex - left)
    else:
        out[xs == left] = 1.0
    if right > apex:
        falling = (xs > apex) & (xs < right)
        out[falling] = (right - xs[falling]) / (right - apex)
    else:
        out[xs == right] = 1.0
    return out


def grid_holds_term(mf, universe: tuple[float, float], samples: int) -> bool:
    """Whether some point of np.linspace(lo, hi, samples) has membership above 0 in mf."""
    return bool((_membership_grid(mf, np.linspace(*universe, samples)) > 0.0).any())


def fired_consequents(controller, load: float) -> dict[str, float]:
    """Firing strength per consequent label (max over its rules), fired ones only."""
    clipped: dict[str, float] = {}
    for ant, cons in controller.rules:
        w = float(_membership_grid(controller.input.term(ant), np.array([load]))[0])
        if w > 0.0:
            clipped[cons] = max(clipped.get(cons, 0.0), w)
    return clipped


def sampled_grid_centroid(controller, load: float) -> float:
    """Centroid of the aggregate summed sample by sample on the controller's grid.

    The grid is np.linspace over the output universe with the
    controller's integration_resolution samples; the result is
    dot(xs, agg) / sum(agg). Needs at least one fired rule.
    """
    clipped = fired_consequents(controller, load)
    out_lo, out_hi = controller.output.universe
    xs = np.linspace(out_lo, out_hi, controller.integration_resolution)
    agg = np.zeros_like(xs)
    for cons, w in clipped.items():
        np.maximum(agg, np.minimum(w, _membership_grid(controller.output.term(cons), xs)), out=agg)
    return float(np.dot(xs, agg) / agg.sum())


def _round_half_away(x: float) -> int:
    return math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5)


def _unbalance(totals: Sequence[float]) -> float:
    t1, t2, t3 = totals
    return math.fsum((abs(t1 - t2), abs(t2 - t3), abs(t3 - t1))) / 3.0


def _infeasibility(phases, delta) -> str | None:
    """The paper's min-point rule, with the library's wording of each reason."""
    if all(d == 0 for d in delta):
        return "no-op suggestion: all phase changes are zero"
    for i, d in enumerate(delta):
        if d == 0:
            continue
        if d < 0 and not any(phases[i]):
            return f"phase {i + 1}: no load to release (no point above 0 kW)"
        if phases[i] and not abs(d) > min(phases[i]):
            return (
                f"phase {i + 1}: change magnitude {abs(d)} kW does not exceed "
                f"the minimum load point {min(phases[i]):g} kW"
            )
    return None


def _size_and_pick(points: Sequence[float], change: float, scale: int) -> tuple[int, ...]:
    """How many points a change of `change` kW moves (change over the mean
    point, rounded, kept within 1..len), then which ones, by enumeration on
    the 1/scale kW lattice."""
    n = max(1, min(len(points), _round_half_away(change / (sum(points) / len(points)))))
    weights = [_round_half_away(p * scale) for p in points]
    return brute_force_subset(weights, n, _round_half_away(change * scale))[0]


def reference_balance(
    phases: Sequence[Sequence[float]],
    controller,
    threshold: float = 10.0,
    max_iterations: int = 10,
    scale: int = 1,
) -> dict:
    """The balancing loop written out from the paper, as a report document.

    Each pass: stop when the unbalance is under the threshold, at the
    iteration cap, or when a phase total leaves the controller's input
    range; otherwise fuzzify each total (infer_change, the one library
    call), round half away from zero, remove the rounded mean error from
    the first two phases and the remainder from the third, apply the
    min-point rule, pick each releasing phase's points by enumeration,
    give the first of two receivers the pooled points picked against its
    own change and the other receiver the rest, and move them. Returns
    what json.loads(write_report(...)) gives for the same run. Needs at
    most 22 points per selection.
    """
    from phasebal.fuzzy import infer_change

    phases = [[float(p) for p in ph] for ph in phases]

    def totals() -> list[float]:
        return [math.fsum(ph) for ph in phases]

    initial = totals()
    doc: dict = {"status": None}
    iterations: list[dict] = []
    lo, hi = controller.input.universe
    while True:
        before = totals()
        if _unbalance(before) < threshold:
            doc["status"] = "balanced" if iterations else "already-balanced"
            break
        if len(iterations) >= max_iterations:
            doc["status"] = "iteration-cap"
            break
        if any(not lo <= t <= hi for t in before):
            doc["status"] = "over-capacity"
            break

        raw = [_round_half_away(infer_change(controller, t)) for t in before]
        ae = _round_half_away(sum(raw) / 3)
        error = [ae, ae, sum(raw) - 2 * ae]
        delta = [r - e for r, e in zip(raw, error)]
        record: dict = {
            "totals_before": before,
            "fuzzy_raw": raw,
            "avg_error": ae,
            "error_vector": error,
            "fuzzy_corrected": delta,
        }
        reason = _infeasibility(phases, delta)
        moves: list[dict] = []
        if reason is not None:
            record["infeasibility"] = reason
        else:
            pooled = []  # (phase, index, kW) in selection order
            for i in (i for i in range(3) if delta[i] < 0):
                picked = _size_and_pick(phases[i], -delta[i], scale)
                pooled += [(i, j, phases[i][j]) for j in picked if phases[i][j] > 0]
            receivers = [i for i in range(3) if delta[i] > 0]
            to_first: tuple[int, ...] = ()
            if len(receivers) == 2 and pooled:
                to_first = _size_and_pick([p for _, _, p in pooled], delta[receivers[0]], scale)
            dest = [receivers[0] if k in to_first else receivers[-1] for k in range(len(pooled))]
            leaving = {(i, j) for i, j, _ in pooled}
            new_phases = [
                [p for j, p in enumerate(ph) if (i, j) not in leaving] for i, ph in enumerate(phases)
            ]
            for (i, j, p), d in zip(pooled, dest):
                new_phases[d].append(p)
                moves.append({"from": i + 1, "index": j + 1, "to": d + 1, "kw": p})
            phases = new_phases
        record["moves"] = moves
        record["totals_after"] = totals()
        record["unbalance_after"] = round(_unbalance(record["totals_after"]), 2)
        iterations.append(record)
        if reason is not None:
            doc["status"] = "infeasible"
            doc["reason"] = reason
            break

    doc["initial_totals"] = initial
    doc["initial_unbalance"] = round(_unbalance(initial), 2)
    doc["iterations"] = iterations
    doc["final_totals"] = totals()
    doc["final_unbalance"] = round(_unbalance(doc["final_totals"]), 2)
    return doc
