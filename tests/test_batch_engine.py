"""The trial-batched engine against the term-by-term oracles.

A batch holds one polynomial per trial, each embedded in the batch's
dimension.  Every operation must give, trial by trial, exactly the terms of
``tests/oracles.py`` in the same key order, with the same coefficient bits
up to the sign of a NaN, whatever the coefficients: integers, floats,
infinities or NaN.
"""

import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import difference_by_terms, poisson_by_terms, product_by_terms, sum_by_terms
from qcmt.koopman import (
    MAX_EXPONENT,
    PhaseSpacePolynomial,
    PolynomialBatch,
    _sort_keys,
    embed_exponents,
    poisson,
)

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
@given(st.lists(trial_pairs(), min_size=1, max_size=4))
def test_batches_match_the_oracles_term_for_term(pairs):
    xs, ys = zip(*pairs)
    left, right = PolynomialBatch.of(xs), PolynomialBatch.of(ys)
    width = max(x.dimension for x in xs)
    assert (left.dimension, left.count) == (width, len(pairs))
    for operation, oracle in OPERATIONS:
        results = operation(left, right).polynomials()
        assert len(results) == len(pairs)
        for (x, y), result in zip(pairs, results):
            assert result.dimension == width
            assert all(type(c) is complex for c in result.terms.values())
            assert _exact(result.terms, width) == _exact(oracle(x, y).terms, width)


def test_like_terms_group_exactly_at_the_largest_exponents():
    # radix 2**31 and 3 trials: (trial, e_0), (e_1, e_2) and (e_3) are three words
    # exponents reach MAX_EXPONENT = 2 half - 1, and x[0] y[1] meets x[1] y[0]
    half = 2**30
    x = PhaseSpacePolynomial(2, {(half, 0, 1, 0): 1, (half - 1, 1, 0, 1): 2, (0, half, half - 1, 1): 3})
    y = PhaseSpacePolynomial(2, {(1, 0, 1, 1): -1, (0, 1, 0, 2): 4, (half - 1, 0, 1, half - 1): 5})
    assert max(max(e) for e in (x * y).terms) == MAX_EXPONENT
    batch = PolynomialBatch.of([x, y, x])
    assert len(_sort_keys(3, batch.trials, batch.exponents, MAX_EXPONENT + 1)) == 3
    for operation, oracle in OPERATIONS:
        a, b = PolynomialBatch.of([x, y, y]), PolynomialBatch.of([y, y, x])
        expected = [oracle(x, y), oracle(y, y), oracle(y, x)]
        for result, want in zip(operation(a, b).polynomials(), expected):
            assert _exact(result.terms, 2) == _exact(want.terms, 2)


def test_sort_keys_are_equal_exactly_on_equal_rows():
    rng = np.random.default_rng(5)
    for radix, count in ((4, 3), (2**20, 7), (2**31, 2)):
        exponents = rng.integers(0, min(radix, 3), size=(60, 4)) * (radix // 3 or 1)
        trials = np.sort(rng.integers(0, count, size=60))
        keys = _sort_keys(count, trials, exponents, radix)
        rows = [(t, *e) for t, e in zip(trials.tolist(), exponents.tolist())]
        for i in range(60):
            for j in range(60):
                assert (rows[i] == rows[j]) == bool(np.all(keys[:, i] == keys[:, j]))


def test_empty_trials_and_batches_keep_their_shape():
    zero = PhaseSpacePolynomial.zero(2)
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
    with pytest.raises(TypeError):
        poisson(one, q1)
    assert one.__mul__(q1) is NotImplemented and one.__add__(2) is NotImplemented


def test_max_abs_coeff_sees_nan():
    nan = PhaseSpacePolynomial(1, {(1, 0): complex(math.nan, 0.0), (0, 1): 5.0})
    assert math.isnan(PolynomialBatch.of([nan]).max_abs_coeff())
