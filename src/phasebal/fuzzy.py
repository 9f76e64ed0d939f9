"""Mamdani fuzzy controller mapping a phase load (kW) to a suggested change (kW).

The controller is data driven: two linguistic variables (an input "Load"
and an output "Change", each partitioned into overlapping triangular
terms) plus a rule list pairing one input term with one output term.
Inference clips each rule's consequent at the antecedent firing strength
(min implication), aggregates the clipped sets by pointwise max, and
defuzzifies by centroid: in closed form when one consequent fires or
none does, and otherwise as the exact sum over the controller's uniform
sample grid, taken piece by piece so that its cost does not depend on the
sample count.

Controllers are read from a small line grammar (parse_controller). The
built-in controller is the bundled definition data/controller.txt, parsed
once (default_controller); it covers a feeder rated 150 kW per phase with
a 300 kW overload ceiling. Other ratings are supported by loading a
different controller definition; nothing below is specific to the default
numbers.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import combinations
from typing import Sequence, TextIO

from .model import Frozen, PhaseTotals, bundled_text, format_number, round_half_away

__all__ = [
    "TriangularMF",
    "LinguisticVariable",
    "Rule",
    "FuzzyController",
    "UniverseError",
    "ControllerFormatError",
    "membership_at",
    "infer_change",
    "suggest_changes",
    "response_samples",
    "parse_controller",
    "write_controller",
    "reference_controller_text",
    "default_controller",
]

DEFAULT_RESOLUTION = 10001
# The most rows response_samples builds: far above the 301 of the default surface.
MAX_SURFACE_ROWS = 1_000_000

# One inference rule: (input term label, output term label).
Rule = tuple[str, str]


class UniverseError(ValueError):
    """Input load lies outside the controller's designed universe.

    Beyond the overload ceiling the controller must not be used at all;
    the phase should be cut from service instead of balanced.
    """


class TriangularMF(Frozen):
    """Triangular membership function with vertices left <= apex <= right.

    Membership is 0 outside (left, right), rises linearly to 1 at the
    apex and falls linearly back to 0. Degenerate edges (left == apex or
    apex == right) are allowed and carry membership 1 at that boundary;
    left == right is not a valid shape.
    """

    __slots__ = ("label", "left", "apex", "right")
    label: str
    left: float
    apex: float
    right: float

    def __init__(self, label: str, left: float, apex: float, right: float) -> None:
        if not label:
            raise ValueError("membership function needs a non-empty label")
        if not (left <= apex <= right):
            raise ValueError(
                f"term {label}: vertices must satisfy left <= apex <= right, "
                f"got ({left}, {apex}, {right})"
            )
        if left == right:
            raise ValueError(f"term {label}: zero-width triangle")
        self._assign(label, left, apex, right)


def membership_at(mf: TriangularMF, x: float) -> float:
    """Degree of membership of x in mf, in [0, 1]; 0 for nan."""
    left, apex, right = mf.left, mf.apex, mf.right
    if not left <= x <= right:
        return 0.0
    if x < apex:
        return (x - left) / (apex - left)
    if x > apex:
        return (right - x) / (right - apex)
    return 1.0


class LinguisticVariable(Frozen):
    """A named quantity partitioned into overlapping triangular terms.

    The universe must be non-empty and its width hi - lo finite, which
    also bounds both ends. Terms must lie within it and chain across
    it (each term starts no later than the furthest right edge reached so
    far), so that the universe has no interior gap with zero coverage.
    """

    __slots__ = ("name", "universe", "terms")
    name: str
    universe: tuple[float, float]
    terms: tuple[TriangularMF, ...]

    def __init__(
        self, name: str, universe: tuple[float, float], terms: tuple[TriangularMF, ...]
    ) -> None:
        lo, hi = universe
        if not (lo < hi and math.isfinite(hi - lo)):
            raise ValueError(f"variable {name}: universe [{lo}, {hi}] must be finite and non-empty, with a finite width")
        if not terms:
            raise ValueError(f"variable {name}: needs at least one term")
        labels = [t.label for t in terms]
        if len(set(labels)) != len(labels):
            raise ValueError(f"variable {name}: duplicate term labels")
        for t in terms:
            if t.left < lo or t.right > hi:
                raise ValueError(
                    f"variable {name}: term {t.label} [{t.left}, {t.right}] "
                    f"exceeds universe [{lo}, {hi}]"
                )
        covered = lo
        for t in sorted(terms, key=lambda t: (t.left, t.right)):
            if t.left > covered:
                raise ValueError(
                    f"variable {name}: coverage gap between {covered} and {t.left}"
                )
            covered = max(covered, t.right)
        if covered < hi:
            raise ValueError(
                f"variable {name}: coverage gap between {covered} and {hi}"
            )
        self._assign(name, universe, terms)

    def term(self, label: str) -> TriangularMF:
        for t in self.terms:
            if t.label == label:
                return t
        raise KeyError(f"variable {self.name} has no term {label!r}")


class FuzzyController(Frozen):
    """Immutable Mamdani controller: input/output variables plus rules.

    integration_resolution is the number of uniform samples taken over
    the output universe when an aggregate of two or more clipped
    consequents is defuzzified: at least 2, the two ends of the universe,
    and at most what keeps the step at or above the float spacing at the
    larger bound. The sum over those samples is computed piece by piece,
    so a larger resolution costs no time. Every output term must hold a
    sample with membership above 0, so that such an aggregate never sums
    to 0. The check takes that very sum, of each term alone at full
    strength; it, not the floor of 2, refuses a grid too coarse for the terms.
    """

    # _rule_terms: each rule's (antecedent, consequent) terms, resolved
    # from its labels once, here, instead of on every inference.
    __slots__ = ("input", "output", "rules", "integration_resolution", "_rule_terms")
    input: LinguisticVariable
    output: LinguisticVariable
    rules: tuple[Rule, ...]
    integration_resolution: int
    _rule_terms: tuple[tuple[TriangularMF, TriangularMF], ...]

    def __init__(
        self,
        input: LinguisticVariable,
        output: LinguisticVariable,
        rules: tuple[Rule, ...],
        integration_resolution: int = DEFAULT_RESOLUTION,
    ) -> None:
        if not rules:
            raise ValueError("controller needs at least one rule")
        rule_terms = []
        for ant, cons in rules:
            try:
                rule_terms.append((input.term(ant), output.term(cons)))
            except KeyError as exc:
                raise ValueError(f"rule {ant} -> {cons}: {exc.args[0]}") from None
        if integration_resolution < 2:
            raise ValueError(
                f"integration resolution must be >= 2, got {integration_resolution}"
            )
        lo, hi = output.universe
        if integration_resolution - 1 > (hi - lo) / math.ulp(max(-lo, hi)):
            raise ValueError(f"integration resolution {integration_resolution} puts samples "
                             f"closer than the float spacing over [{lo}, {hi}]")
        for mf in output.terms:
            if not _grid_sums(((mf, 1.0),), output.universe, integration_resolution)[0] > 0.0:
                raise ValueError(
                    f"variable {output.name}: term {mf.label} holds no sample of "
                    f"the {integration_resolution}-point grid over [{lo}, {hi}]"
                )
        self._assign(input, output, rules, integration_resolution, tuple(rule_terms))


def _clipped_centroid(mf: TriangularMF, strength: float) -> float:
    """Exact centroid of a triangle clipped at height w = strength, 0 to 1.

    The clipped set is the triangle less the similar triangle above the
    clip, of height 1 - w; with lean = 2 * (apex - midpoint of the base)
    that leaves apex - lean * (3 - 3w + w^2) / (3 * (2 - w)). This is the
    apex itself, -0.0 included, for a symmetric triangle (lean is 0.0), and
    the base midpoint at w = 0, the limit as the strength vanishes.
    """
    w = strength
    lean = (mf.apex - mf.left) - (mf.right - mf.apex)
    return mf.apex - lean * ((3.0 - 3.0 * w + w * w) / (3.0 * (2.0 - w)))


def _grid_sums(
    clipped: Sequence[tuple[TriangularMF, float]],
    universe: tuple[float, float],
    samples: int,
) -> tuple[float, float]:
    """Sums of the max-aggregate of clipped consequents over a sample grid.

    Returns (sum(agg(x)), sum(x * agg(x))) over the grid x_j = j * step + lo
    whose last point is set to hi exactly, the usual linspace grid; the
    sampled centroid is their quotient. The aggregate is linear between
    cuts: the knots of each clipped consequent (left, the clip points p
    and q, right) and the points where pieces of two consequents cross.
    The samples strictly inside a stretch between cuts are summed in
    closed form from the line through its first and last sample; samples
    on a cut, the last point, and stretches of two samples or fewer are
    evaluated one by one. The cost depends on the number of fired
    consequents, not on the sample count.
    """
    lo, hi = universe
    last = samples - 1
    step = (hi - lo) / last

    def agg(x: float) -> float:
        return max(min(w, membership_at(mf, x)) for mf, w in clipped)

    def first_above(c: float) -> int:
        """Smallest j with j * step + lo > c."""
        j = max(0, math.floor((c - lo) / step))
        while j * step + lo <= c:
            j += 1
        while j > 0 and (j - 1) * step + lo > c:
            j -= 1
        return j

    cuts = {lo, hi}
    segments = []  # (consequent, x0, y0, x1, y1): the linear pieces of each clipped set
    for owner, (mf, w) in enumerate(clipped):
        knots = (
            (mf.left, 0.0),
            (mf.left + w * (mf.apex - mf.left), w),
            (mf.right - w * (mf.right - mf.apex), w),
            (mf.right, 0.0),
        )
        cuts.update(x for x, _ in knots)
        segments += [(owner, *a, *b) for a, b in zip(knots, knots[1:]) if a[0] < b[0]]
    # Pieces of two consequents cross where their difference changes sign
    # over the stretch both cover. The pieces come from the knots, not from
    # membership_at, whose value at a knot that rounding moved onto the
    # edge of the support is 0, not the limit from inside.
    for (o1, a0, ay0, a1, ay1), (o2, b0, by0, b1, by1) in combinations(segments, 2):
        x0, x1 = max(a0, b0), min(a1, b1)
        if o1 == o2 or x0 >= x1:
            continue
        d0, d1 = (
            ay0 + (ay1 - ay0) * (x - a0) / (a1 - a0) - by0 - (by1 - by0) * (x - b0) / (b1 - b0)
            for x in (x0, x1)
        )
        if d0 * d1 < 0.0:
            cuts.add(x0 + (x1 - x0) * d0 / (d0 - d1))

    g = agg(hi)
    s0, s1 = g, hi * g
    direct = []  # indices of the samples evaluated one by one
    ordered = sorted(cuts)
    above = [first_above(c) for c in ordered]
    for a, j0, b, jb in zip(ordered, above, ordered[1:], above[1:]):
        if 0 < j0 <= last and (j0 - 1) * step + lo == a:
            direct.append(j0 - 1)
        j1 = min(jb, last) - 1
        if j1 * step + lo == b:
            j1 -= 1
        n = j1 - j0 + 1
        if n <= 2:
            direct += range(j0, j1 + 1)
            continue
        x0 = j0 * step + lo
        g0 = agg(x0)
        slope = (agg(j1 * step + lo) - g0) / (n - 1)
        t1 = n * (n - 1) // 2
        t2 = (n - 1) * n * (2 * n - 1) // 6
        # Aggregate values are multiplied in last, so that a subnormal
        # firing strength does not lose its bits in every moment term.
        s0 += g0 * n + slope * t1
        s1 += g0 * (x0 * n + step * t1) + slope * (x0 * t1 + step * t2)
    for j in direct:
        x = j * step + lo
        g = agg(x)
        s0 += g
        s1 += x * g
    return s0, s1


def infer_change(ctrl: FuzzyController, load: float) -> float:
    """Defuzzified change suggestion (kW) for one phase load (kW).

    Pipeline: fuzzify the load against every rule antecedent, clip each
    fired rule's consequent at its firing strength, aggregate by pointwise
    max, and return the centroid of the aggregate. Deterministic; output
    always lies within the output universe.

    When the aggregate reduces to a single clipped consequent, its
    centroid is returned in closed form (for a symmetric triangle that is
    the apex, exactly). When two or more consequents fire, the result is
    the exact centroid of the aggregate sampled at the controller's
    integration_resolution uniform points over the output universe; the
    sum is taken per linear piece, so its cost does not depend on the
    resolution. No rule fires where the load lies on the edge of every
    antecedent that holds it: an end of the universe under an interior
    apex, or 100 under the terms 0 50 100 and 100 150 200. Then the result
    is the base midpoint of the consequent of the rule whose antecedent
    apex is nearest, the limit of its clipped centroid as strength fades.

    Raises UniverseError for loads outside the input universe.
    """
    lo, hi = ctrl.input.universe
    if not (lo <= load <= hi):
        raise UniverseError(
            f"load {load} kW outside controller universe [{lo}, {hi}] kW; "
            f"the controller must not be used beyond its design range"
        )

    # Max firing strength per consequent label (a term may serve several
    # rules), in the order the consequents first fire.
    clipped: dict[str, tuple[TriangularMF, float]] = {}
    for ant, cons in ctrl._rule_terms:
        w = membership_at(ant, load)
        if w > 0.0 and w > clipped.get(cons.label, (cons, 0.0))[1]:
            clipped[cons.label] = (cons, w)

    if not clipped:
        _, nearest = min(ctrl._rule_terms, key=lambda pair: abs(pair[0].apex - load))
        return _clipped_centroid(nearest, 0.0)

    if len(clipped) == 1:
        (mf, w), = clipped.values()
        return _clipped_centroid(mf, w)

    s0, s1 = _grid_sums(list(clipped.values()), ctrl.output.universe, ctrl.integration_resolution)
    return s1 / s0


def suggest_changes(ctrl: FuzzyController, totals: PhaseTotals) -> tuple[int, int, int]:
    """Per-phase change suggestion, rounded to whole kW (ties away from zero).

    Raises UniverseError naming the offending phase if any total lies
    outside the controller's input universe.
    """
    changes = []
    for i, total in enumerate(totals):
        try:
            changes.append(round_half_away(infer_change(ctrl, total)))
        except UniverseError as exc:
            raise UniverseError(f"phase {i + 1}: {exc}") from None
    return tuple(changes)  # type: ignore[return-value]


def response_samples(ctrl: FuzzyController, step: float = 1.0) -> list[tuple[float, float]]:
    """(load, change) samples over the input universe at the given step.

    The top of the universe is always included, so the sampled relation
    spans the full design range even when step does not divide it. A step
    that would give more than MAX_SURFACE_ROWS rows is a ValueError.
    """
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and positive, got {step}")
    lo, hi = ctrl.input.universe
    if (hi - lo) / step > MAX_SURFACE_ROWS:
        raise ValueError(f"step {step} over [{lo}, {hi}] gives more than {MAX_SURFACE_ROWS} rows")
    samples = []
    k = 0
    while True:
        load = lo + k * step
        if load > hi:
            break
        samples.append((load, infer_change(ctrl, load)))
        k += 1
    if samples[-1][0] < hi:
        samples.append((hi, infer_change(ctrl, hi)))
    return samples


class ControllerFormatError(ValueError):
    """Malformed controller definition."""


def parse_controller(text: str) -> FuzzyController:
    """Parse a controller definition.

    Line grammar, one statement per line, '#' starts a comment:

        input <name> <min> <max>
        output <name> <min> <max>
        term <label> <left> <apex> <right>     (attaches to the variable
                                                declared most recently)
        rule <input-term> -> <output-term>
        resolution <samples>                   (optional)
    """
    # Per variable kind: its (name, universe) declaration and its terms.
    decls: dict[str, tuple[str, tuple[float, float]]] = {}
    terms: dict[str, list[TriangularMF]] = {"input": [], "output": []}
    current: list[TriangularMF] | None = None
    rules: list[tuple[str, str]] = []
    resolution = DEFAULT_RESOLUTION

    def fail(lineno: int, msg: str) -> ControllerFormatError:
        return ControllerFormatError(f"line {lineno}: {msg}")

    def floats(lineno: int, parts: list[str]) -> list[float]:
        vals = []
        for p in parts:
            try:
                vals.append(float(p))
            except ValueError:
                raise fail(lineno, f"{p!r} is not a number") from None
        return vals

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        keyword = parts[0].lower()

        if keyword in terms:
            if len(parts) != 4:
                raise fail(lineno, f"{keyword} takes a name and two bounds")
            lo, hi = floats(lineno, parts[2:])
            if keyword in decls:
                raise fail(lineno, f"duplicate {keyword} declaration")
            decls[keyword] = (parts[1], (lo, hi))
            current = terms[keyword]
        elif keyword == "term":
            if current is None:
                raise fail(lineno, "term before any input/output declaration")
            if len(parts) != 5:
                raise fail(lineno, "term takes a label and three breakpoints")
            left, apex, right = floats(lineno, parts[2:])
            try:
                current.append(TriangularMF(parts[1], left, apex, right))
            except ValueError as exc:
                raise fail(lineno, str(exc)) from None
        elif keyword == "rule":
            if len(parts) != 4 or parts[2] != "->":
                raise fail(lineno, "rule syntax is: rule <input-term> -> <output-term>")
            rules.append((parts[1], parts[3]))
        elif keyword == "resolution":
            if len(parts) != 2:
                raise fail(lineno, "resolution takes one integer")
            try:
                resolution = int(parts[1])
            except ValueError:
                raise fail(lineno, f"{parts[1]!r} is not an integer") from None
        else:
            raise fail(lineno, f"unknown statement {parts[0]!r}")

    for kind in terms:
        if kind not in decls:
            raise ControllerFormatError(f"missing {kind} declaration")
    if not rules:
        raise ControllerFormatError("controller defines no rules")
    try:
        input_var, output_var = (LinguisticVariable(*decls[k], tuple(terms[k])) for k in terms)
        return FuzzyController(input_var, output_var, tuple(rules), resolution)
    except ValueError as exc:
        raise ControllerFormatError(str(exc)) from None


def write_controller(controller: FuzzyController, out: TextIO) -> None:
    """Write a controller in the format parse_controller reads."""
    for var, kind in ((controller.input, "input"), (controller.output, "output")):
        lo, hi = var.universe
        out.write(f"{kind} {var.name} {format_number(lo)} {format_number(hi)}\n")
        for mf in var.terms:
            out.write(
                f"term {mf.label} {format_number(mf.left)} "
                f"{format_number(mf.apex)} {format_number(mf.right)}\n"
            )
        out.write("\n")
    for antecedent, consequent in controller.rules:
        out.write(f"rule {antecedent} -> {consequent}\n")
    if controller.integration_resolution != DEFAULT_RESOLUTION:
        out.write(f"resolution {controller.integration_resolution}\n")


def reference_controller_text() -> str:
    """Raw text of the bundled controller definition, data/controller.txt."""
    return bundled_text("controller.txt")


@cache
def default_controller() -> FuzzyController:
    """Built-in controller for a 150 kW per phase feeder (300 kW ceiling).

    The bundled data/controller.txt, parsed on the first call; later calls
    return the same object. Eight load terms from Very Less Loaded to
    Heavily Overloaded, eight change terms from High Subtraction to Very
    Large Addition, one rule per load term.
    """
    return parse_controller(reference_controller_text())
