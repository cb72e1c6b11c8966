"""The shared term ring against results rebuilt term by term.

Ring results are built once, from Python complex coefficients and valid
words, without passing through the validating constructors.  The oracles in
``tests/oracles.py`` rebuild each result through ``type(x)(terms)``, which
converts, normalizes and prunes every term; both routes must give the same
terms in the same key order.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import index_pool
from oracles import (
    adjoint_by_terms,
    difference_by_terms,
    negation_by_terms,
    poisson_by_terms,
    product_by_terms,
    scalar_multiple_by_terms,
    sum_by_terms,
)
from qcmt.algebra import AlgebraElement, Index, generator
from qcmt.koopman import PhaseSpacePolynomial, poisson
from qcmt.vacuum import ExtendedElement, normalize_segments

POOL = index_pool()
# integer parts keep every sum exact whatever order a route adds in
_coefficients = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3))
_words = st.lists(st.sampled_from(POOL), max_size=3).map(tuple)
_segments = st.lists(st.lists(st.sampled_from(POOL), max_size=2).map(tuple), min_size=1, max_size=3)
_complex_scalars = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)
# numpy scalars too: their products must still be stored as Python complex
_scalars = (st.integers(-3, 3) | st.floats(-4.0, 4.0) | _complex_scalars
            | st.sampled_from([0, 1e-15, 4e-15, 1e-14])
            | _complex_scalars.map(np.complex128) | st.floats(-4.0, 4.0).map(np.float64))


@st.composite
def ring_pairs(draw):
    """Two elements of one ring: the free algebra, the projector extension,
    or phase-space polynomials of dimension 1 or 2."""
    kind = draw(st.sampled_from(["algebra", "extended", "polynomial"]))
    if kind == "algebra":
        terms = st.dictionaries(_words, _coefficients, max_size=4)
        return draw(terms.map(AlgebraElement)), draw(terms.map(AlgebraElement))
    if kind == "extended":
        terms = st.dictionaries(_segments.map(tuple), _coefficients, max_size=4)
        return draw(terms.map(ExtendedElement)), draw(terms.map(ExtendedElement))
    n = draw(st.integers(1, 2))
    exponents = st.tuples(*[st.integers(0, 3)] * (2 * n))
    terms = st.dictionaries(exponents, _coefficients, max_size=4)
    return (draw(terms.map(lambda t: PhaseSpacePolynomial(n, t))),
            draw(terms.map(lambda t: PhaseSpacePolynomial(n, t))))


def _same(fast, slow):
    assert type(fast) is type(slow)
    assert list(fast.terms.items()) == list(slow.terms.items())
    assert all(type(c) is complex for c in fast.terms.values())
    if isinstance(fast, PhaseSpacePolynomial):
        assert fast.dimension == slow.dimension
    if isinstance(fast, ExtendedElement):
        assert all(w == normalize_segments(w) for w in fast.terms)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ring_pairs(), _scalars)
def test_ring_results_match_term_by_term_rebuilds(pair, scalar):
    x, y = pair
    _same(x * y, product_by_terms(x, y))
    _same(x + y, sum_by_terms(x, y))
    _same(x - y, difference_by_terms(x, y))
    _same(-x, negation_by_terms(x))
    _same(x * scalar, scalar_multiple_by_terms(x, scalar))
    _same(scalar * x, scalar_multiple_by_terms(x, scalar))
    _same(x.adjoint(), adjoint_by_terms(x))
    _same((x * y).adjoint(), adjoint_by_terms(product_by_terms(x, y)))
    assert (x - x).is_zero() and (x + -x).is_zero() and (x * 0).is_zero()
    if isinstance(x, PhaseSpacePolynomial):
        _same(poisson(x, y), poisson_by_terms(x, y))
        assert poisson(y, x).terms == (-poisson(x, y)).terms


def test_exact_zeros_are_pruned_and_nan_is_kept():
    nan = complex(math.nan, 0.0)
    q = PhaseSpacePolynomial.coordinate(1, "q")
    weird = PhaseSpacePolynomial(1, {(1, 0): nan})
    for result in (weird + q, weird - q, -weird, 2 * weird, weird.adjoint(), weird * q):
        assert len(result) == 1
        (c,) = result.terms.values()
        assert math.isnan(c.real)
    m = generator(Index(1))
    odd = AlgebraElement({(Index(1),): nan})
    assert all(len(r) == 1 for r in (odd + m, odd - m, -odd, 3 * odd, odd.adjoint(), odd * m))
    # a phase-space ring prunes exact zeros only; the free algebra up to 1e-14
    tiny = 1 + 2**-52
    assert (q - tiny * q).terms == {(1, 0): complex(1 - tiny)}
    assert (q - q).is_zero() and (q * 0.0).is_zero() and poisson(q, q).is_zero()
    assert (m - tiny * m).is_zero()
    assert (m * 1e-14).is_zero() and not (m * 1.5e-14).is_zero()
    assert len(AlgebraElement({(): 1.0}) + AlgebraElement({(): -1.0 + 1e-14})) == 0
    assert len(AlgebraElement({(): 1.0}) + AlgebraElement({(): -1.0 + 2e-14})) == 1


def test_extended_results_are_normalized():
    a, b = POOL[0], POOL[2]
    x = ExtendedElement({((a,), (), ()): 1.0, ((), (b,)): 2.0})
    y = ExtendedElement({((), (), (a, b)): 1.0j})
    for result in (x * y, y * x, x.adjoint(), (x * y).adjoint(), x * x * x):
        assert result.terms
        assert all(w == normalize_segments(w) for w in result.terms)
    assert (ExtendedElement.projector() * ExtendedElement.projector()) == ExtendedElement.projector()
