"""Independent reference implementations used to cross-check the library.

These deliberately share no code with the package: the subset oracle
enumerates combinations outright, the fine-grid centroid oracle
integrates the aggregated output set numerically on a fine grid with
membership computed by interpolation, and the sampled-grid oracle sums
the aggregate sample by sample on the controller's own grid. Slow and
simple on purpose.
"""

from __future__ import annotations

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
        # mirror the engine's convention: fall back to the consequent apex
        # of the rule whose antecedent peak is nearest to the input
        nearest = min(
            controller.rules,
            key=lambda r: abs(controller.input.term(r[0]).apex - load),
        )
        return float(controller.output.term(nearest[1]).apex)

    weight = float(agg.sum())
    return float(np.dot(xs, agg) / weight)


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
