"""The trial-batched engine against the term-by-term oracles.

A batch holds one polynomial per trial, each embedded in the batch's
dimension; a polynomial is a batch of one.  Every operation, binary or
unary, must give, trial by trial, exactly the terms of ``tests/oracles.py``
in the same key order, with the same coefficient bits up to the sign of a
NaN, whatever the coefficients: integers, floats, infinities or NaN.
``bracket_residuals`` adds the same rows as its operator route in other
groupings, so its terms match exactly on integers and to round-off on floats.
"""

import contextlib
import math
import operator
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    adjoint_by_terms,
    bracket_residuals_by_operators,
    derivative_by_terms,
    difference_by_terms,
    negation_by_terms,
    poisson_by_terms,
    product_by_terms,
    scalar_multiple_by_terms,
    sum_by_terms,
)
from qcmt import algebra, koopman
from qcmt.gaussian import tolerance_bound
from qcmt.koopman import (
    MAX_EXPONENT,
    PhaseSpacePolynomial,
    PolynomialBatch,
    bracket_residuals,
    embed_exponents,
    poisson,
)
from test_koopman import _mutated_rows

OPERATIONS = [
    (operator.mul, product_by_terms),
    (operator.add, sum_by_terms),
    (operator.sub, difference_by_terms),
    (poisson, poisson_by_terms),
]
# parts whose products and sums never overflow: integers, floats, infinities and NaN
_parts = (st.integers(-3, 3).map(float) | st.floats(-4.0, 4.0)
          | st.sampled_from([math.nan, math.inf, -math.inf, -0.0]))
_coefficients = st.builds(complex, _parts, _parts)
# every scalar type a polynomial multiplies by, numpy's included
_scalars = (st.integers(-3, 3) | st.booleans() | _parts | _coefficients
            | _parts.map(np.float64) | _coefficients.map(np.complex128))


@st.composite
def trial_pairs(draw):
    """Two polynomials of one dimension 1..3 with 0..5 terms each."""
    n = draw(st.integers(1, 3))
    terms = st.dictionaries(st.tuples(*[st.integers(0, 3)] * (2 * n)), _coefficients, max_size=5)
    return PhaseSpacePolynomial(n, draw(terms)), PhaseSpacePolynomial(n, draw(terms))


def _exact(terms: dict, width: int) -> list:
    """Keys embedded in ``width``, in order, with each coefficient's repr (every NaN prints nan)."""
    return [(embed_exponents(w, width), repr(c)) for w, c in terms.items()]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(trial_pairs(), min_size=1, max_size=4), _scalars)
def test_batches_match_the_oracles_term_for_term(pairs, scalar):
    xs, ys = zip(*pairs)
    left, right = PolynomialBatch.of(xs), PolynomialBatch.of(ys)
    width = max(x.dimension for x in xs)
    assert (left.dimension, left.count) == (width, len(pairs))
    # an np.complex128 scalar takes numpy's complex product in the oracle, which warns on inf * 0
    with np.errstate(invalid="ignore", over="ignore"):
        cases = [(operation(left, right), [oracle(x, y) for x, y in pairs])
                 for operation, oracle in OPERATIONS]
        multiples = [scalar_multiple_by_terms(x, scalar) for x in xs]
        cases += [(-left, [negation_by_terms(x) for x in xs]),
                  (left.adjoint(), [adjoint_by_terms(x) for x in xs]),
                  (left * scalar, multiples), (scalar * left, multiples)]
    for batch, expected in cases:
        results = batch.polynomials()
        assert len(results) == len(pairs)
        for result, want in zip(results, expected):
            assert result.dimension == width
            assert all(type(c) is complex for c in result.terms.values())
            assert _exact(result.terms, width) == _exact(want.terms, width)
    for x in xs:
        for var in range(2 * x.dimension):
            want = derivative_by_terms(x, var)
            assert _exact(x.diff(var).terms, x.dimension) == _exact(want.terms, x.dimension)


def _same_rows(a, b):
    assert (a.dimension, a.count) == (b.dimension, b.count)
    for name in ("trials", "exponents", "re", "im"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


_rows = st.tuples(st.integers(0, 2), st.tuples(*[st.integers(0, 2)] * 4), st.integers(-3, 3),
                  st.integers(-3, 3))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(_rows, min_size=1, max_size=12))
def test_summed_takes_rows_in_any_trial_order(rows):
    def summed(rows):
        trials, exponents, re, im = map(np.array, zip(*rows))
        return PolynomialBatch.summed(2, 3, trials, exponents, re.astype(float), im.astype(float))

    _same_rows(summed(rows), summed(sorted(rows, key=lambda row: row[0])))


def test_like_terms_group_exactly_at_the_largest_exponents():
    # radix 2**31 packs two exponents a column: two code columns and the trials are three key rows
    # exponents reach MAX_EXPONENT = 2 half - 1, and x[0] y[1] meets x[1] y[0]
    half = 2**30
    x = PhaseSpacePolynomial(2, {(half, 0, 1, 0): 1, (half - 1, 1, 0, 1): 2, (0, half, half - 1, 1): 3})
    y = PhaseSpacePolynomial(2, {(1, 0, 1, 1): -1, (0, 1, 0, 2): 4, (half - 1, 0, 1, half - 1): 5})
    assert max(max(e) for e in (x * y).terms) == MAX_EXPONENT
    batch = PolynomialBatch.of([x, y, x])
    assert len(algebra._grouping_keys(3, batch.trials, PolynomialBatch._codes(batch.exponents))) == 3
    for operation, oracle in OPERATIONS:
        a, b = PolynomialBatch.of([x, y, y]), PolynomialBatch.of([y, y, x])
        expected = [oracle(x, y), oracle(y, y), oracle(y, x)]
        for result, want in zip(operation(a, b).polynomials(), expected):
            assert _exact(result.terms, 2) == _exact(want.terms, 2)


def _keys_are_exact(count, trials, rows, codes):
    """The core's grouping keys over ``codes`` are equal exactly where (trial, row) pairs are."""
    keys = algebra._grouping_keys(count, trials, codes).T
    same_rows = np.all(rows[:, None] == rows[None], axis=2) & (trials[:, None] == trials[None])
    assert np.array_equal(np.all(keys[:, None] == keys[None], axis=2), same_rows)
    return keys


def _trials(rng, count):
    """60 ascending trials below ``count``, from three values so that many repeat."""
    return np.sort(rng.integers(0, min(count, 3), size=60) * (count // 3 or 1))


def test_grouping_keys_are_equal_exactly_on_equal_rows():
    rng = np.random.default_rng(5)
    for radix, count in ((4, 3), (2**20, 7), (2**31, 2)):
        exponents = rng.integers(0, min(radix, 3), size=(60, 4)) * (radix // 3 or 1)
        _keys_are_exact(count, _trials(rng, count), exponents, PolynomialBatch._codes(exponents))
    # word codes: one column, two columns, and one column with too many trials for one key row
    for base, width, count, key_rows in ((5, 6, 3, 1), (151, 12, 7, 3), (151, 8, 2**40, 2)):
        lengths = rng.integers(width // 2, width + 1, size=5)
        lengths[0] = 0  # the empty word, code 0, meets the largest code of the trial before
        pool = np.where(np.arange(width) < lengths[:, None], rng.integers(1, base, size=(5, width)), 0)
        digits = pool[rng.integers(0, 5, size=60)]
        keys = _keys_are_exact(count, _trials(rng, count), digits, algebra._encoded(digits, base))
        assert keys.shape[1] == key_rows


def test_empty_trials_and_batches_keep_their_shape():
    zero = PhaseSpacePolynomial(2, {})
    q = PhaseSpacePolynomial.coordinate(1, "q")
    batch = PolynomialBatch.of([zero, q, zero])
    assert batch.dimension == 2 and batch.count == 3 and batch.max_abs_coeff() == 1.0
    empty = PolynomialBatch.of([zero, zero])
    for operation, _ in OPERATIONS:
        assert [p.terms for p in operation(empty, empty).polynomials()] == [{}, {}]
    assert empty.max_abs_coeff() == 0.0


def test_batches_of_different_shape_do_not_pair():
    q1, q2 = PhaseSpacePolynomial.coordinate(1, "q"), PhaseSpacePolynomial.coordinate(2, "q")
    one, two, pair = PolynomialBatch.of([q1]), PolynomialBatch.of([q2]), PolynomialBatch.of([q1, q1])
    for operation, _ in OPERATIONS:
        for a, b in ((one, two), (one, pair)):
            with pytest.raises(ValueError, match="batch mismatch"):
                operation(a, b)
    # a polynomial is a batch of one, so it pairs with one
    p1 = PhaseSpacePolynomial.coordinate(1, "p")
    for u, v in ((q1, q1), (q1, p1)):
        _same_rows(poisson(PolynomialBatch.of([u]), v), poisson(u, v))
    assert one.__add__(2) is NotImplemented


def test_max_abs_coeff_sees_nan():
    nan = PhaseSpacePolynomial(1, {(1, 0): complex(math.nan, 0.0), (0, 1): 5.0})
    assert math.isnan(PolynomialBatch.of([nan]).max_abs_coeff())


# the exact engine, whose residuals vanish, and two defects under which they do not, so the
# two routes have terms to agree on
ENGINES = [
    contextlib.nullcontext,
    lambda: mock.patch.object(koopman, "_bracket_rows", _mutated_rows("drop the -b_i c_i half")),
    # the conjugate of the product: u (v f) and v (u f) then differ
    lambda: mock.patch.object(algebra, "_product", lambda ar, ai, br, bi: (ar * br - ai * bi,
                                                                           -ar * bi - ai * br)),
]


def _routes(triple):
    """Pairs of a ``bracket_residuals`` residual of ``triple`` and the operator route's, on each engine."""
    for engine in ENGINES:
        with engine():
            yield from zip(bracket_residuals(*triple), bracket_residuals_by_operators(*triple))


@st.composite
def residual_triples(draw, parts):
    """Batches u, v and f of 1..4 trials, each of dimension 1 or 2 with 0..4 terms of
    exponents 0..2 and coefficient parts from ``parts``; in some draws v is u."""
    dimensions = draw(st.lists(st.integers(1, 2), min_size=1, max_size=4))
    coefficients = st.builds(complex, parts, parts)

    def batch():
        return PolynomialBatch.of([PhaseSpacePolynomial(n, draw(st.dictionaries(
            st.tuples(*[st.integers(0, 2)] * (2 * n)), coefficients, max_size=4)))
            for n in dimensions])

    u = batch()
    return u, u if draw(st.booleans()) else batch(), batch()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(residual_triples(st.integers(-3, 3).map(float)))
def test_bracket_residuals_match_the_operator_route_term_for_term(triple):
    for ours, want in _routes(triple):
        assert [p.terms for p in ours.polynomials()] == [p.terms for p in want.polynomials()]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(residual_triples(st.floats(-4.0, 4.0)))
def test_bracket_residuals_match_the_operator_route_to_round_off(triple):
    # both routes add the same weighted products of three coefficients in other groupings;
    # allow 1e-12, about 4,500 ulps, of the largest such product
    bound = tolerance_bound(1e-12, [math.prod(x.max_abs_coeff() for x in triple)])
    for ours, want in _routes(triple):
        for a, b in zip(ours.polynomials(), want.polynomials()):
            a, b = a.terms, b.terms
            assert all(abs(a.get(k, 0) - b.get(k, 0)) <= bound for k in a.keys() | b.keys())
