"""Wiener-type distance indices evaluated over run-length sequences.

An index is a sum, product, or maximum over the entries of a distance
sequence.  Sum-type indices apply one term function f(d) to each entry;
the monotonicity of f decides which direction of a dominance relation the
index value must follow.  The term is exact (int or Fraction) wherever the
index is rational, so verification suites never rely on floating-point
comparisons, and a float only for the indices that are not (a non-integer
exponent, the logarithm).  One aggregate gives every value: the exact
value where there is one, and the float value is the double nearest it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from wienerseq.sequences import (
    DistanceSequence,
    Dominance,
    compare,
)
from wienerseq.specs import Entry, _check_range, parse_spec

INCREASING = "increasing"
DECREASING = "decreasing"
NONDECREASING = "nondecreasing"

F_SUM = "f_sum"
PRODUCT = "product"
MAX = "max"


@dataclass(frozen=True)
class IndexDefinition:
    """A distance index: name, aggregation kind, term, monotonicity.

    ``term`` maps a positive integer distance to the index's contribution
    (f_sum kind only): an int or Fraction where the index is rational, a
    float otherwise.  ``lam`` records the parameter of parametric families,
    the exponent of their term; with an integer one the term is exact, and
    an exact value larger than ``MAX_EXACT_BITS`` is refused.
    """

    name: str
    kind: str
    monotonicity: str
    term: Callable[[int], "int | Fraction | float"] | None = None
    lam: float | None = None

    @property
    def display_name(self) -> str:
        if self.lam is None:
            return self.name
        return "%s:%g" % (self.name, self.lam)


def wiener() -> IndexDefinition:
    """Sum of all distances."""
    return IndexDefinition("wiener", F_SUM, INCREASING, term=int)


def harary() -> IndexDefinition:
    """Sum of reciprocal distances."""
    return IndexDefinition("harary", F_SUM, DECREASING, term=lambda d: Fraction(1, d))


def hyper_wiener() -> IndexDefinition:
    """Sum of (d^2 + d) / 2 over all distances."""
    return IndexDefinition(
        "hyper_wiener", F_SUM, INCREASING, term=lambda d: (d * d + d) // 2
    )


def _check_exponent(name: str, lam: float) -> None:
    if lam == 0 or not math.isfinite(lam):
        raise ValueError("%s requires a finite nonzero exponent, got %r" % (name, lam))


# With an integer exponent lam the terms d^lam are exact.  Over the
# distinct distances d they hold up to |lam| * sum(ceil(log2 d)) bits, and
# for lam < 0 the denominator of their Fraction sum can reach that size, at
# a cost quadratic in it.  On paths of 8 to 1,000 vertices (x86_64) an
# exact gen_hyper_wiener value, whose terms carry 2 lam, took 0.96-1.13 s at
# this many bits whatever the path, variable_wiener 0.19-0.27 s, and
# either with lam > 0 at most 0.013 s.  A distance of 1 costs nothing, so
# a graph of diameter 1 takes any exponent.
MAX_EXACT_BITS = 1 << 19


class ExponentRangeError(ValueError):
    """Raised when an exact value with an integer exponent is too large to
    compute in bounded time."""


def _check_exact_size(defn: IndexDefinition, runs: tuple[tuple[int, int], ...]) -> None:
    if defn.lam is None or not float(defn.lam).is_integer():
        return
    bits = abs(int(defn.lam)) * sum((value - 1).bit_length() for value, _ in runs)
    if bits > MAX_EXACT_BITS:
        raise ExponentRangeError(
            "the exact value would take about %d bits (distances up to %d), "
            "over the bound of %d; use a smaller |lambda|"
            % (bits, runs[-1][0], MAX_EXACT_BITS)
        )


def _power(lam: float) -> Callable[[int], "int | Fraction | float"]:
    # d -> d^lam, exact for an integer exponent.
    if not float(lam).is_integer():
        return lambda d: float(d) ** lam
    ilam = int(lam)
    if ilam > 0:
        return lambda d: d ** ilam
    return lambda d: Fraction(1, d ** -ilam)


def variable_wiener(lam: float) -> IndexDefinition:
    """Sum of d^lam; increasing for lam > 0, decreasing for lam < 0."""
    _check_exponent("variable_wiener", lam)
    return IndexDefinition(
        "variable_wiener",
        F_SUM,
        INCREASING if lam > 0 else DECREASING,
        term=_power(lam),
        lam=float(lam),
    )


def gen_hyper_wiener(lam: float) -> IndexDefinition:
    """Sum of (d^lam + d^(2 lam)) / 2."""
    _check_exponent("gen_hyper_wiener", lam)
    if float(lam).is_integer():
        # d^(2 lam) as (d^lam)^2: 2 * lam overflows to inf for |lam| >= 2^1023
        once = _power(lam)

        def term(d: int) -> Fraction:
            p = once(d)
            return Fraction(p + p ** 2, 2)
    else:
        term = lambda d: (float(d) ** lam + float(d) ** (2 * lam)) / 2.0
    return IndexDefinition(
        "gen_hyper_wiener",
        F_SUM,
        INCREASING if lam > 0 else DECREASING,
        term=term,
        lam=float(lam),
    )


def tsz() -> IndexDefinition:
    """Sum of (d + d^2/2 + d^3/6) / 3, the cubic Taylor sum per pair."""
    return IndexDefinition(
        "tsz", F_SUM, INCREASING, term=lambda d: Fraction(d * (d * d + 3 * d + 6), 18)
    )


def mult_wiener() -> IndexDefinition:
    """Product of all distances."""
    return IndexDefinition("mult_wiener", PRODUCT, INCREASING)


def log_mult_wiener() -> IndexDefinition:
    """Sum of ln d, the logarithm of the multiplicative index."""
    return IndexDefinition("log_mult_wiener", F_SUM, INCREASING, term=math.log)


def diameter_index() -> IndexDefinition:
    """Largest entry; only nondecreasing, ties are everywhere."""
    return IndexDefinition("diameter", MAX, NONDECREASING)


INDICES = {
    "wiener": Entry(wiener),
    "harary": Entry(harary),
    "hyper_wiener": Entry(hyper_wiener),
    "variable_wiener": Entry(variable_wiener, {"lambda": float}),
    "gen_hyper_wiener": Entry(gen_hyper_wiener, {"lambda": float}),
    "tsz": Entry(tsz),
    "mult_wiener": Entry(mult_wiener),
    "log_mult_wiener": Entry(log_mult_wiener),
    "diameter": Entry(diameter_index),
}


def parse_index_spec(spec: str) -> IndexDefinition:
    """Parse "name" or "name:lambda" into a definition."""
    name, args = parse_spec(spec, INDICES, "index")
    return INDICES[name].target(*args)


def _value(
    defn: IndexDefinition, runs: tuple[tuple[int, int], ...]
) -> "int | Fraction | float":
    # The index over a run-length sequence: exact (int or Fraction) where
    # the index is rational, a float where its term is.
    if not runs:
        raise ValueError("cannot evaluate an index over an empty sequence")
    if defn.kind == PRODUCT:
        return math.prod(value ** count for value, count in runs)
    if defn.kind == MAX:
        return runs[-1][0]
    if defn.kind != F_SUM:
        raise ValueError("unknown index kind %r" % defn.kind)
    if defn.term is None:
        raise ValueError("index %r has no term function" % defn.name)
    _check_exact_size(defn, runs)
    total: "int | Fraction | float" = 0
    for value, count in runs:
        total += count * defn.term(value)
    return total


def evaluate(defn: IndexDefinition, seq: DistanceSequence) -> float:
    """The double nearest the index's value over a nonempty sequence.

    Raises OverflowError when that value lies past the doubles.
    """
    return float(_value(defn, seq.runs))


def evaluate_exact(
    defn: IndexDefinition, seq: DistanceSequence
) -> "int | Fraction | None":
    """Exact value where the index is rational, else None."""
    value = _value(defn, seq.runs)
    return None if isinstance(value, float) else value


def _order_size_bound(
    defn: IndexDefinition, n: int, m: int
) -> "int | Fraction | float":
    # The index of the sequence 1^m 2^(pairs - m).
    if defn.kind != F_SUM:
        raise ValueError("order-size bound is defined for sum-type indices only")
    pairs = n * (n - 1) // 2
    _check_range("size at order %d" % n, m, n - 1, pairs)
    return _value(defn, ((1, m), (2, pairs - m)))


def order_size_lower_bound(defn: IndexDefinition, n: int, m: int) -> float:
    """Value of the index if every non-adjacent pair sat at distance 2.

    For an increasing sum-type index this is a lower bound over all
    connected graphs with n vertices and m edges, attained exactly by the
    graphs of diameter at most 2; for a decreasing term the same
    expression is an upper bound.
    """
    return float(_order_size_bound(defn, n, m))


def order_size_lower_bound_exact(
    defn: IndexDefinition, n: int, m: int
) -> "int | Fraction | None":
    """The same bound, exact where the index is rational, else None."""
    if defn.kind != F_SUM:
        return None
    value = _order_size_bound(defn, n, m)
    return None if isinstance(value, float) else value


def monotone_consistency(
    defn: IndexDefinition, a: DistanceSequence, b: DistanceSequence
) -> bool:
    """Does the pair (a, b) respect the index's monotonicity?

    Incomparable pairs are vacuously consistent.  Strictly monotone
    indices must react strictly to a strict dominance; the nondecreasing
    diameter only has to respect the weak direction.
    """
    rel = compare(a, b)
    if rel.tag == Dominance.INCOMPARABLE:
        return True
    va, vb = evaluate_exact(defn, a), evaluate_exact(defn, b)
    if va is None or vb is None:
        va, vb = evaluate(defn, a), evaluate(defn, b)
    if rel.tag == Dominance.EQUAL:
        return va == vb
    if rel.tag == Dominance.GREATER:
        va, vb = vb, va
    # now a < b in the dominance order
    if defn.monotonicity == INCREASING:
        return va < vb
    if defn.monotonicity == DECREASING:
        return va > vb
    return va <= vb
