"""Wiener-type index evaluation over distance sequences."""

import itertools
import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wienerseq import (
    DistanceSequence,
    complete,
    cycle,
    diameter_index,
    distance_matrix,
    distance_sequence,
    evaluate,
    evaluate_exact,
    gen_hyper_wiener,
    harary,
    hyper_wiener,
    log_mult_wiener,
    monotone_consistency,
    mult_wiener,
    order_size_lower_bound,
    order_size_lower_bound_exact,
    parse_index_spec,
    path,
    star,
    tsz,
    variable_wiener,
    wiener,
)
from wienerseq.enumeration import enumerate_connected
from wienerseq.families import odd_caterpillar
from wienerseq.indices import (
    DECREASING,
    F_SUM,
    INCREASING,
    MAX_EXACT_BITS,
    NONDECREASING,
    ExponentRangeError,
    IndexDefinition,
)

entry_lists = st.lists(st.integers(1, 9), min_size=1, max_size=25)


def seq_of(values):
    return DistanceSequence.from_entries(values)


T6 = distance_sequence(odd_caterpillar(6))


@pytest.mark.parametrize(
    "defn,expected",
    [
        (wiener(), 29),
        (harary(), Fraction(28, 3)),
        (hyper_wiener(), 47),
        (mult_wiener(), 5184),
        (tsz(), Fraction(265, 9)),
        (variable_wiener(2), 65),
    ],
)
def test_frozen_values_on_small_caterpillar(defn, expected):
    assert evaluate_exact(defn, T6) == expected
    assert evaluate(defn, T6) == pytest.approx(float(expected), rel=1e-12)


def test_frozen_values_on_cycles_and_stars():
    assert evaluate_exact(harary(), distance_sequence(cycle(8))) == Fraction(47, 3)
    assert evaluate_exact(harary(), distance_sequence(star(6))) == 10
    assert evaluate_exact(hyper_wiener(), distance_sequence(cycle(5))) == 20
    assert evaluate(diameter_index(), T6) == 3


@given(entry_lists)
def test_parametric_identities(values):
    seq = seq_of(values)
    assert evaluate_exact(variable_wiener(1), seq) == evaluate_exact(wiener(), seq)
    assert evaluate_exact(variable_wiener(-1), seq) == evaluate_exact(harary(), seq)
    assert evaluate_exact(gen_hyper_wiener(1), seq) == evaluate_exact(
        hyper_wiener(), seq
    )


@given(entry_lists)
def test_log_is_log_of_product(values):
    seq = seq_of(values)
    assert evaluate(log_mult_wiener(), seq) == pytest.approx(
        math.log(evaluate(mult_wiener(), seq)), abs=1e-9
    )


@given(entry_lists)
def test_exact_and_float_routes_agree(values):
    seq = seq_of(values)
    for defn in (
        wiener(),
        harary(),
        hyper_wiener(),
        tsz(),
        variable_wiener(3),
        variable_wiener(-2),
        gen_hyper_wiener(2),
        gen_hyper_wiener(-1),
        mult_wiener(),
    ):
        exact = evaluate_exact(defn, seq)
        assert exact is not None
        # the float is the double nearest the exact value, not an estimate
        assert evaluate(defn, seq) == float(exact)


def test_product_is_the_exact_product_or_overflows():
    big = DistanceSequence([(2, 201)])
    assert evaluate_exact(mult_wiener(), big) == 2**201
    assert evaluate(mult_wiener(), big) == 2.0**201
    # 2^1024 is just past the largest double (about 1.797e308).
    with pytest.raises(OverflowError):
        evaluate(mult_wiener(), DistanceSequence([(2, 1024)]))


def test_lambda_zero_rejected():
    with pytest.raises(ValueError):
        variable_wiener(0)
    with pytest.raises(ValueError):
        gen_hyper_wiener(0)


@pytest.mark.parametrize("make", [variable_wiener, gen_hyper_wiener])
def test_exact_value_past_the_size_bound_rejected(make):
    # The distances 1, 2 and 3 of C_7 cost 0 + 1 + 2 bits per unit of
    # |lambda|, so C_7 takes integer exponents up to MAX_EXACT_BITS // 3 in
    # magnitude.  Past that the evaluators raise before any term is taken:
    # 3^(10^8) alone has about 1.6e8 bits.
    seq = distance_sequence(cycle(7))
    top = MAX_EXACT_BITS // 3

    def untouched(d):
        raise AssertionError("term evaluated at %d" % d)

    for lam in (top + 1, -top - 1, 10**8, -1e8):
        for defn in (make(lam), replace(make(lam), term=untouched)):
            for evaluator in (evaluate, evaluate_exact):
                with pytest.raises(ExponentRangeError, match="over the bound"):
                    evaluator(defn, seq)
    assert issubclass(ExponentRangeError, ValueError)
    assert evaluate_exact(make(top), seq) > 0
    # Every term of a graph of diameter 1 is 1, whatever the exponent.
    assert evaluate_exact(make(10**8), distance_sequence(complete(4))) == 6
    # A non-integer exponent is evaluated in floats, in bounded time; each
    # of the 7 edges of C_7 adds 1, and every longer distance adds 0.
    assert evaluate(make(-1e8 - 0.5), seq) == 7.0


# The largest doubles: 2 * lam overflows to inf for each of them.
HUGE_EXPONENTS = (1e308, 2.0**1023, 1.7976931348623157e308)


@pytest.mark.parametrize("lam", HUGE_EXPONENTS + tuple(-x for x in HUGE_EXPONENTS))
def test_gen_hyper_wiener_takes_the_largest_exponents_on_diameter_one(lam):
    # Every distance of K_4 is 1, so every term is (1 + 1) / 2 = 1.
    seq = distance_sequence(complete(4))
    assert evaluate_exact(gen_hyper_wiener(lam), seq) == 6
    assert evaluate(gen_hyper_wiener(lam), seq) == 6.0


@given(st.integers(1, 12), st.integers(-40, 40).filter(bool))
def test_gen_hyper_wiener_exact_term_is_the_two_powers(d, lam):
    term = gen_hyper_wiener(lam).term(d)
    assert isinstance(term, Fraction)
    assert term == (Fraction(d) ** lam + Fraction(d) ** (2 * lam)) / 2


@pytest.mark.parametrize(
    "spec,name,lam",
    [
        ("wiener", "wiener", None),
        ("tsz", "tsz", None),
        ("variable_wiener:2", "variable_wiener", 2.0),
        ("variable_wiener:-1.5", "variable_wiener", -1.5),
        ("gen_hyper_wiener:0.5", "gen_hyper_wiener", 0.5),
    ],
)
def test_parse_index_spec(spec, name, lam):
    defn = parse_index_spec(spec)
    assert defn.name == name and defn.lam == lam
    assert parse_index_spec(defn.display_name).display_name == defn.display_name


@pytest.mark.parametrize(
    "spec",
    [
        "nope",
        "nope:2",
        "wiener:2",
        "wiener:",
        "variable_wiener",
        "variable_wiener:0",
        "variable_wiener:2,3",
        "variable_wiener:",
        "variable_wiener:x",
        "variable_wiener:2,",
        "variable_wiener:inf",
        "variable_wiener:-inf",
        "gen_hyper_wiener:nan",
        "gen_hyper_wiener:inf",
    ],
)
def test_parse_index_spec_rejects(spec):
    with pytest.raises(ValueError):
        parse_index_spec(spec)


def test_term_monotonicity_classes():
    for defn in (
        wiener(),
        harary(),
        hyper_wiener(),
        tsz(),
        variable_wiener(2),
        variable_wiener(-1.5),
        gen_hyper_wiener(1.5),
        gen_hyper_wiener(-2),
        mult_wiener(),
        log_mult_wiener(),
        diameter_index(),
    ):
        term = defn.term or (lambda d: d)
        values = [term(d) for d in range(1, 51)]
        deltas = [b - a for a, b in zip(values, values[1:])]
        if defn.monotonicity == INCREASING:
            assert all(d > 0 for d in deltas), defn.name
        elif defn.monotonicity == DECREASING:
            assert all(d < 0 for d in deltas), defn.name
        else:
            assert defn.monotonicity == NONDECREASING
            assert all(d >= 0 for d in deltas), defn.name


def test_order_size_bound_frozen_examples():
    assert order_size_lower_bound_exact(wiener(), 4, 3) == 9
    assert evaluate_exact(wiener(), distance_sequence(path(4))) == 10
    assert order_size_lower_bound_exact(hyper_wiener(), 5, 5) == 20
    assert order_size_lower_bound_exact(harary(), 5, 5) == Fraction(15, 2)
    assert order_size_lower_bound(wiener(), 4, 3) == pytest.approx(9.0)


def test_order_size_bound_domain():
    with pytest.raises(ValueError):
        order_size_lower_bound(wiener(), 5, 3)
    with pytest.raises(ValueError):
        order_size_lower_bound(wiener(), 5, 11)
    with pytest.raises(ValueError):
        order_size_lower_bound(mult_wiener(), 5, 5)
    with pytest.raises(ValueError):
        order_size_lower_bound(diameter_index(), 5, 5)
    # the exact bound is None, not an error, for an index not of sum type
    assert order_size_lower_bound_exact(mult_wiener(), 5, 5) is None


def test_evaluate_rejects_malformed_definitions():
    seq = distance_sequence(path(3))
    with pytest.raises(ValueError, match="unknown index kind"):
        evaluate(IndexDefinition("odd", "median", INCREASING), seq)
    with pytest.raises(ValueError, match="no term"):
        evaluate(IndexDefinition("bare", F_SUM, INCREASING), seq)


def test_order_size_bound_direction_small_orders():
    # equality exactly on diameter <= 2, strict otherwise
    for n in range(2, 6):
        for g in enumerate_connected(n):
            seq = distance_sequence(g)
            diam = distance_matrix(g).diameter
            for defn in (wiener(), hyper_wiener(), tsz()):
                bound = order_size_lower_bound_exact(defn, n, g.m)
                value = evaluate_exact(defn, seq)
                assert value >= bound
                assert (value == bound) == (diam <= 2)
            bound = order_size_lower_bound_exact(harary(), n, g.m)
            value = evaluate_exact(harary(), seq)
            assert value <= bound
            assert (value == bound) == (diam <= 2)


def test_monotone_consistency_exhaustive_small_orders():
    battery = (
        wiener(),
        harary(),
        hyper_wiener(),
        tsz(),
        variable_wiener(2),
        variable_wiener(-1.5),
        gen_hyper_wiener(1.5),
        mult_wiener(),
        log_mult_wiener(),
        diameter_index(),
    )
    for n in range(2, 7):
        seqs = [distance_sequence(g) for g in enumerate_connected(n)]
        for a, b in itertools.combinations(seqs, 2):
            for defn in battery:
                assert monotone_consistency(defn, a, b)
