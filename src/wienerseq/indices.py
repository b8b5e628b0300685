"""Wiener-type distance indices evaluated over run-length sequences.

An index is a sum, product, or maximum over the entries of a distance
sequence.  Sum-type indices apply a term function f(d) to each entry; the
monotonicity of f decides which direction of a dominance relation the
index value must follow.  Where the term is rational we also evaluate
exactly (int or Fraction) so that verification suites never rely on
floating-point comparisons.
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
from wienerseq.specs import Entry, parse_spec

INCREASING = "increasing"
DECREASING = "decreasing"
NONDECREASING = "nondecreasing"

F_SUM = "f_sum"
PRODUCT = "product"
MAX = "max"


@dataclass(frozen=True)
class IndexDefinition:
    """A distance index: name, aggregation kind, term, monotonicity.

    ``term`` maps a positive integer distance to a float (f_sum kind only);
    ``exact_term`` is its exact counterpart returning int or Fraction when
    the index admits one.  ``lam`` records the parameter of parametric
    families.
    """

    name: str
    kind: str
    monotonicity: str
    term: Callable[[int], float] | None = None
    exact_term: Callable[[int], "int | Fraction"] | None = None
    lam: float | None = None

    @property
    def display_name(self) -> str:
        if self.lam is None:
            return self.name
        lam = self.lam
        text = "%g" % lam
        return "%s:%s" % (self.name, text)


def wiener() -> IndexDefinition:
    """Sum of all distances."""
    return IndexDefinition(
        "wiener", F_SUM, INCREASING, term=float, exact_term=int
    )


def harary() -> IndexDefinition:
    """Sum of reciprocal distances."""
    return IndexDefinition(
        "harary",
        F_SUM,
        DECREASING,
        term=lambda d: 1.0 / d,
        exact_term=lambda d: Fraction(1, d),
    )


def hyper_wiener() -> IndexDefinition:
    """Sum of (d^2 + d) / 2 over all distances."""
    return IndexDefinition(
        "hyper_wiener",
        F_SUM,
        INCREASING,
        term=lambda d: (d * d + d) / 2.0,
        exact_term=lambda d: (d * d + d) // 2,
    )


def _check_exponent(name: str, lam: float) -> None:
    if lam == 0 or not math.isfinite(lam):
        raise ValueError("%s requires a finite nonzero exponent, got %r" % (name, lam))


def variable_wiener(lam: float) -> IndexDefinition:
    """Sum of d^lam; increasing for lam > 0, decreasing for lam < 0."""
    _check_exponent("variable_wiener", lam)
    exact = None
    if float(lam).is_integer():
        ilam = int(lam)
        if ilam > 0:
            exact = lambda d: d ** ilam
        else:
            exact = lambda d: Fraction(1, d ** (-ilam))
    return IndexDefinition(
        "variable_wiener",
        F_SUM,
        INCREASING if lam > 0 else DECREASING,
        term=lambda d: float(d) ** lam,
        exact_term=exact,
        lam=float(lam),
    )


def gen_hyper_wiener(lam: float) -> IndexDefinition:
    """Sum of (d^lam + d^(2 lam)) / 2."""
    _check_exponent("gen_hyper_wiener", lam)
    exact = None
    if float(lam).is_integer():
        ilam = int(lam)
        if ilam > 0:
            exact = lambda d: Fraction(d ** ilam + d ** (2 * ilam), 2)
        else:
            exact = lambda d: Fraction(
                d ** (-ilam) + d ** (-2 * ilam), 2 * d ** (-3 * ilam)
            )
    return IndexDefinition(
        "gen_hyper_wiener",
        F_SUM,
        INCREASING if lam > 0 else DECREASING,
        term=lambda d: (float(d) ** lam + float(d) ** (2 * lam)) / 2.0,
        exact_term=exact,
        lam=float(lam),
    )


def tsz() -> IndexDefinition:
    """Sum of (d + d^2/2 + d^3/6) / 3, the cubic Taylor sum per pair."""
    return IndexDefinition(
        "tsz",
        F_SUM,
        INCREASING,
        term=lambda d: (d + d * d / 2.0 + d * d * d / 6.0) / 3.0,
        exact_term=lambda d: Fraction(d * d * d + 3 * d * d + 6 * d, 18),
    )


def mult_wiener() -> IndexDefinition:
    """Product of all distances."""
    return IndexDefinition("mult_wiener", PRODUCT, INCREASING)


def log_mult_wiener() -> IndexDefinition:
    """Sum of ln d, the logarithm of the multiplicative index."""
    return IndexDefinition(
        "log_mult_wiener", F_SUM, INCREASING, term=math.log
    )


def diameter_index() -> IndexDefinition:
    """Largest entry; only nondecreasing, ties are everywhere."""
    return IndexDefinition("diameter", MAX, NONDECREASING, exact_term=int)


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


def evaluate(defn: IndexDefinition, seq: DistanceSequence) -> float:
    """Double precision value of the index over a nonempty sequence."""
    if len(seq) == 0:
        raise ValueError("cannot evaluate an index over an empty sequence")
    if defn.kind == F_SUM:
        if defn.term is None:
            raise ValueError("index %r has no term function" % defn.name)
        return sum(count * defn.term(value) for value, count in seq.runs)
    if defn.kind == PRODUCT:
        # float() of the exact product raises OverflowError past the doubles.
        return float(math.prod(value ** count for value, count in seq.runs))
    if defn.kind == MAX:
        return float(seq.max_value)
    raise ValueError("unknown index kind %r" % defn.kind)


def evaluate_exact(
    defn: IndexDefinition, seq: DistanceSequence
) -> "int | Fraction | None":
    """Exact value where the index admits one, else None."""
    if len(seq) == 0:
        raise ValueError("cannot evaluate an index over an empty sequence")
    if defn.kind == PRODUCT:
        return math.prod(value ** count for value, count in seq.runs)
    if defn.kind == MAX:
        return seq.max_value
    if defn.exact_term is None:
        return None
    total: "int | Fraction" = 0
    for value, count in seq.runs:
        total += count * defn.exact_term(value)
    return total


def order_size_lower_bound(defn: IndexDefinition, n: int, m: int) -> float:
    """Value of the index if every non-adjacent pair sat at distance 2.

    For an increasing sum-type index this is a lower bound over all
    connected graphs with n vertices and m edges, attained exactly by the
    graphs of diameter at most 2; for a decreasing term the same
    expression is an upper bound.
    """
    if defn.kind != F_SUM:
        raise ValueError("order-size bound is defined for sum-type indices only")
    pairs = n * (n - 1) // 2
    if not (n - 1 <= m <= pairs):
        raise ValueError(
            "need n-1 <= m <= n(n-1)/2, got n=%d m=%d" % (n, m)
        )
    if defn.term is None:
        raise ValueError("index %r has no term function" % defn.name)
    return m * defn.term(1) + (pairs - m) * defn.term(2)


def order_size_lower_bound_exact(
    defn: IndexDefinition, n: int, m: int
) -> "int | Fraction | None":
    if defn.kind != F_SUM or defn.exact_term is None:
        return None
    pairs = n * (n - 1) // 2
    if not (n - 1 <= m <= pairs):
        raise ValueError(
            "need n-1 <= m <= n(n-1)/2, got n=%d m=%d" % (n, m)
        )
    return m * defn.exact_term(1) + (pairs - m) * defn.exact_term(2)


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
    exact_a = evaluate_exact(defn, a)
    exact_b = evaluate_exact(defn, b)
    if exact_a is not None and exact_b is not None:
        va, vb = exact_a, exact_b
    else:
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
