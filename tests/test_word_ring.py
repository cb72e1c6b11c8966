"""The packed word ring against the dict ring it replaced, term for term.

``tests/oracles.py`` keeps the dict-of-words ring (``DictAlgebraElement``,
``DictExtendedElement``): one element per dict, like terms added in the
order the dict meets them.  Every batch operation must give, trial by
trial, the same words in the same key order with the same coefficients.
The draws cover operands over different alphabets, letters whose partner
is outside the alphabet, V at either end of a word, words too long for one
int64 code, NaN, inf and -0.0 parts, and sums at ``TERM_TOLERANCE``.
Coefficients compare with ``==`` (so 0.0 and -0.0 agree), a NaN part
matching a NaN part.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import index_pool
from oracles import DictAlgebraElement, DictExtendedElement
from qcmt import verify
from qcmt.algebra import (
    TERM_TOLERANCE,
    AlgebraElement,
    Index,
    LinearCombination,
    _products,
    _radix,
    generator,
)
from qcmt.vacuum import ConditionedState, ExtendedElement

POOL = index_pool()
# b's partner b* is in no alphabet until an adjoint adds it
OTHERS = (Index("b", "b*"), Index(3))
# 150 letters: a base-151 code holds 8 letters, so a product of two 6-letter words takes two columns
WIDE = tuple(Index(("w", k)) for k in range(150))

_parts = st.one_of(
    st.integers(-3, 3).map(float),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    st.sampled_from([TERM_TOLERANCE, -TERM_TOLERANCE, TERM_TOLERANCE * (1 + 2**-52),
                     TERM_TOLERANCE / math.sqrt(2), 5e-15, 2e-14]),
    st.floats(-1e6, 1e6),
)
_coefficients = st.builds(complex, _parts, _parts)
_scalars = st.one_of(st.integers(-3, 3), st.floats(-4.0, 4.0), st.builds(complex, _parts, _parts),
                     st.sampled_from([1e-15, 1e-14, 1 - 2**-52]))


def _letters(alphabet, max_size):
    return st.lists(st.sampled_from(alphabet), max_size=max_size).map(tuple)


@st.composite
def _words(draw, extended):
    """A word over one of the pools: short over the paired pool and b, long over the pool,
    or short over 150 letters; an extended word is 1-4 such segments, empty ones included."""
    alphabet, size = draw(st.sampled_from([(POOL + OTHERS, 3), (POOL, 20), (WIDE, 6)]))
    if not extended:
        return draw(_letters(alphabet, size))
    return tuple(draw(st.lists(_letters(alphabet, size // 2), min_size=1, max_size=4)))


@st.composite
def batch_pairs(draw):
    """Two batches of one ring with 1-3 trials each, and their trials as dict-ring elements."""
    extended = draw(st.booleans())
    count = draw(st.integers(1, 3))
    terms = st.dictionaries(_words(extended), _coefficients, max_size=4)
    packed, dicts = (ExtendedElement, DictExtendedElement) if extended else (AlgebraElement, DictAlgebraElement)
    pair = []
    for _ in range(2):
        trials = [draw(terms) for _ in range(count)]
        rows = [(t, w, c) for t, element in enumerate(trials) for w, c in element.items()]
        ids, words, coefficients = zip(*rows) if rows else ((), (), ())
        batch = packed.from_words(count, np.array(ids, dtype=np.intp), words, coefficients)
        pair.append((batch, [dicts(element) for element in trials]))
    return pair


def _same(batch, elements):
    got = [list(e.terms.items()) for e in batch.elements()]
    want = [list(e.terms.items()) for e in elements]
    assert [[w for w, _ in t] for t in got] == [[w for w, _ in t] for t in want]
    for t_got, t_want in zip(got, want):
        for (_, c), (_, d) in zip(t_got, t_want):
            assert type(c) is complex
            for x, y in ((c.real, d.real), (c.imag, d.imag)):
                assert x == y or (math.isnan(x) and math.isnan(y)), (c, d)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(batch_pairs(), _scalars, st.data())
def test_packed_ring_is_the_dict_ring_term_for_term(pair, scalar, data):
    (x, xs), (y, ys) = pair
    _same(x, xs)
    _same(x + y, [a + b for a, b in zip(xs, ys)])
    _same(x - y, [a - b for a, b in zip(xs, ys)])
    _same(-x, [-a for a in xs])
    _same(x * y, [a * b for a, b in zip(xs, ys)])
    _same(x * scalar, [a * scalar for a in xs])
    _same(scalar * x, [a * scalar for a in xs])
    _same(x.adjoint(), [a.adjoint() for a in xs])
    _same((x * y).adjoint(), [(a * b).adjoint() for a, b in zip(xs, ys)])
    per_trial = np.array(data.draw(st.lists(st.builds(complex, _parts, _parts),
                                            min_size=x.count, max_size=x.count)), dtype=complex)
    _same(x * per_trial, [a * complex(s) for a, s in zip(xs, per_trial)])
    _same(per_trial * x, [a * complex(s) for a, s in zip(xs, per_trial)])
    if isinstance(x, AlgebraElement):
        _same(ExtendedElement.embed(x), [DictExtendedElement({(w,): c for w, c in a.terms.items()})
                                         for a in xs])


def _code(row, base) -> int:
    """A code row as one Python integer: column j holds the digits from j * capacity on."""
    capacity, _ = _radix(base)
    return sum(int(limb) * base ** (capacity * j) for j, limb in enumerate(row))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(2, 300), st.lists(st.tuples(st.integers(0, 70), st.integers(0, 70)), min_size=1,
                                     max_size=6), st.data())
def test_word_products_are_exact_for_any_length(base, lengths, data):
    # code_a * base**len_b + code_b over Python integers, for words of any length: no code wraps
    capacity, _ = _radix(base)
    words = [[data.draw(st.lists(st.integers(1, base - 1), min_size=n, max_size=n)) for n in pair]
             for pair in lengths]

    def columns(digits):
        value = sum(d * base ** (len(digits) - 1 - p) for p, d in enumerate(digits))
        limbs = []
        while value:
            value, limb = divmod(value, base**capacity)
            limbs.append(limb)
        return limbs

    width = max(1, max(len(columns(w)) for pair in words for w in pair))
    left, right = (np.array([columns(pair[k]) + [0] * (width - len(columns(pair[k]))) for pair in words],
                            dtype=np.int64) for k in (0, 1))
    left_lengths, right_lengths = (np.array([len(pair[k]) for pair in words]) for k in (0, 1))
    codes, joined = _products(base, left, left_lengths, right, right_lengths)
    for row, n, (a, b) in zip(codes, joined, words):
        assert n == len(a) + len(b)
        assert _code(row, base) == _code(columns(a + b), base)


def test_long_words_take_more_columns_and_decode_whole():
    a, b = POOL[2], POOL[3]
    x = AlgebraElement({(a,) * 20 + (b,): 1.0, (b,) * 15: 2j})
    product = x * x
    assert product.codes.shape[1] == 2
    assert product == AlgebraElement({w + v: c * d for w, c in x.terms.items() for v, d in x.terms.items()})
    assert (product.adjoint().adjoint() - product).is_zero()
    assert list(product.terms)[0] == (a,) * 20 + (b,) + (a,) * 20 + (b,)


def test_v_merges_only_between_a_v_ending_and_a_v_starting_word():
    a, b = POOL[0], POOL[1]
    ends, starts = ExtendedElement({((a,), ()): 1.0}), ExtendedElement({((), (b,)): 1.0})
    assert (ends * starts).terms == {((a,), (b,)): 1.0}
    assert (starts * ends).terms == {((), (b, a), ()): 1.0}
    v = ExtendedElement.projector()
    assert (v * v * v).terms == {((), ()): 1.0}


def _counting(monkeypatch, name) -> list:
    """Count the calls of ``LinearCombination.<name>``; returns the list the calls append to."""
    calls, original = [], getattr(LinearCombination, name)
    monkeypatch.setattr(LinearCombination, name,
                        lambda self, *args: calls.append(1) or original(self, *args))
    return calls


def test_algebra_laws_make_the_same_ring_calls_at_any_trial_count(monkeypatch):
    # every law is one residual over all trials, so the ring calls do not grow with the trials
    products, adjoints = _counting(monkeypatch, "__mul__"), _counting(monkeypatch, "adjoint")
    counts = []
    for trials in (10, 40):
        monkeypatch.setattr(verify, "ALGEBRA_TRIALS", trials)
        products.clear(), adjoints.clear()
        assert verify.check_algebra_laws(seed=3).passed
        counts.append((len(products), len(adjoints)))
    assert counts[0] == counts[1]
    assert max(counts[0]) <= 20


def test_a_conditioned_state_forms_the_adjoint_once(k2, monkeypatch):
    i1, i2 = k2.indices
    conditioner = generator(i1) + 0.5 * generator(i2)
    adjoints = _counting(monkeypatch, "adjoint")
    state = ConditionedState(k2, conditioner)
    assert [state.word_expect(w) for w in [(), (i1,), (i2, i2), (i1, i2, i1)]][0] == 1.0
    assert len(adjoints) == 1
