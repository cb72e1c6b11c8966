import copy
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import index_pool, random_element
from qcmt.algebra import (
    AlgebraElement,
    Index,
    draw_terms,
    generator,
    paired_indices,
    word_adjoint,
    word_label,
)
from qcmt.vacuum import ExtendedElement
from qcmt.verify import check_algebra_laws


def test_trivial_involution_fixes_index():
    i = Index(1)
    assert i.involve() == i
    assert i.self_conjugate


def test_paired_involution_swaps_partners():
    a, ac = paired_indices("a", "a*")
    assert a.involve() == ac
    assert ac.involve() == a
    assert not a.self_conjugate


def test_involution_is_an_involution(rng):
    pool = index_pool()
    for _ in range(50):
        i = pool[int(rng.integers(0, len(pool)))]
        assert i.involve().involve() == i


def test_index_equality_is_by_tag():
    assert Index(1) == Index(1)
    assert Index(1) != Index(2)
    assert hash(Index("a", "a*")) == hash(Index("a"))
    for tag in (1, "a", (2, "x"), 2.5):
        assert hash(Index(tag)) == hash(tag)
    # equal tags, different ctags: still equal, with one hash
    assert Index("a", "b") == Index("a", "c") == Index("a")
    assert len({Index("a", "b"), Index("a", "c"), Index("a")}) == 1


def test_index_caches_one_partner():
    a, ac = paired_indices("a", "a*")
    assert (a.tag, a.ctag, ac.tag, ac.ctag) == ("a", "a*", "a*", "a")
    assert a.involve() is ac and ac.involve() is a
    for i in (Index(1), Index("b", "b*"), a, ac):
        assert i.involve().involve() is i
        assert i.involve() is i.involve()
    assert Index(1).involve().self_conjugate


def test_adjoint_words_reuse_the_index_objects():
    for w in [tuple(index_pool()), (Index("b", "b*"), Index(3))]:
        assert all(x is y for x, y in zip(word_adjoint(word_adjoint(w)), w))


def test_index_refuses_every_attribute():
    i = Index("a", "a*")
    i.involve()
    for name in ("tag", "ctag", "_hash", "_partner", "other"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(i, name, 1)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(i, name)
    assert (i.tag, i.ctag, hash(i)) == ("a", "a*", hash("a"))


def test_index_and_elements_pickle_and_copy():
    a, ac = paired_indices("a", "a*")
    assert a.__reduce__() == (Index, ("a", "a*"))
    element = AlgebraElement({(a, Index(1), ac): 2 + 1j, (): -1.0})
    extended = ExtendedElement({((a,), (Index(2),)): 0.5j})
    roundtrips = (lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy)
    for roundtrip in roundtrips:
        b = roundtrip(a)
        assert b == a and (b.tag, b.ctag) == ("a", "a*") and hash(b) == hash(a)
        assert (b.involve().tag, b.involve().ctag) == ("a*", "a") and b.involve().involve() is b
        for x in (element, extended):
            y = roundtrip(x)
            assert type(y) is type(x) and list(y.terms.items()) == list(x.terms.items())
            assert y.adjoint() == x.adjoint()


def test_identity_word_is_two_sided_identity():
    m1 = generator(Index(1))
    one = AlgebraElement.identity()
    assert one * m1 == m1
    assert m1 * one == m1


def test_multiplication_is_bilinear():
    m1, m2, m3 = (generator(Index(t)) for t in (1, 2, 3))
    assert (m1 + m2) * m3 == m1 * m3 + m2 * m3


def test_scalar_bilinearity():
    m1, m2 = generator(Index(1)), generator(Index(2))
    assert (2 * m1) * (3 * m2) == 6 * (m1 * m2)


def test_adjoint_of_generator_involves_index():
    a, ac = paired_indices("a", "a*")
    assert generator(a).adjoint() == generator(ac)


def test_adjoint_reverses_and_conjugates():
    a, ac = paired_indices("a", "a*")
    b, bc = paired_indices("b", "b*")
    element = AlgebraElement({(a, b): 2 + 1j})
    expected = AlgebraElement({(bc, ac): 2 - 1j})
    assert element.adjoint() == expected


def test_adjoint_is_involutive(rng):
    pool = index_pool()
    for _ in range(50):
        a = random_element(rng, pool)
        assert (a.adjoint().adjoint() - a).is_zero()


def test_adjoint_antihomomorphism(rng):
    pool = index_pool()
    for _ in range(50):
        a = random_element(rng, pool, max_len=6)
        b = random_element(rng, pool, max_len=6)
        assert ((a * b).adjoint() - b.adjoint() * a.adjoint()).is_zero()


def test_adjoint_antilinearity(rng):
    pool = index_pool()
    for _ in range(50):
        a = random_element(rng, pool)
        b = random_element(rng, pool)
        lam = complex(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
        mu = complex(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
        lhs = (lam * a + mu * b).adjoint()
        rhs = lam.conjugate() * a.adjoint() + mu.conjugate() * b.adjoint()
        assert (lhs - rhs).is_zero()


def test_multiplication_is_associative(rng):
    pool = index_pool()
    for _ in range(50):
        a = random_element(rng, pool)
        b = random_element(rng, pool)
        c = random_element(rng, pool)
        assert ((a * b) * c - a * (b * c)).is_zero()


def test_identity_is_fixed_by_adjoint():
    one = AlgebraElement.identity()
    assert one.adjoint() == one


def test_cancellation_prunes_to_zero():
    m1 = generator(Index(1))
    assert (m1 - m1).is_zero()
    tiny = AlgebraElement({(Index(1),): 1e-16})
    assert tiny.is_zero()


def test_word_adjoint_on_mixed_word():
    a, ac = paired_indices("a", "a*")
    i = Index(1)
    assert word_adjoint((a, i)) == (i, ac)
    assert word_adjoint((a, i, ac)) == (a, i, ac)


def test_word_label():
    assert word_label(()) == "1"
    assert word_label((Index(1), Index(2))) == "M1*M2"


def test_algebra_laws_catch_an_involution_that_drops_the_partner(monkeypatch):
    # Index equality ignores ctag, so the check must compare both tags; an
    # involution that keeps (tag, ctag) unswapped still gives i back twice
    assert check_algebra_laws(seed=0).passed
    for wrong in (lambda self: Index(self.tag), lambda self: Index(self.tag, self.ctag)):
        monkeypatch.setattr(Index, "involve", wrong)
        result = check_algebra_laws(seed=0)
        assert not result.passed and result.worst == 1.0


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 6), st.integers(1, 4), st.integers(1, 3),
       st.integers(0, 3), st.data())
def test_draw_terms_is_deterministic_per_seed_and_in_range(seed, count, max_terms, max_segments,
                                                           max_len, data):
    normal = data.draw(st.booleans())
    letters = data.draw(st.integers(1, 5))
    args = (count, letters, max_terms, max_len, max_segments, normal)
    drawn = draw_terms(seed, *args)
    assert drawn == draw_terms(seed, *args) == draw_terms(random.Random(seed), *args)
    assert len(drawn) == count
    for combination in drawn:
        assert 1 <= len(combination) <= max_terms
        for segments, c in combination:
            assert 1 <= len(segments) <= max_segments
            for s in segments:
                assert len(s) <= max_len
                assert all(type(x) is int and 0 <= x < letters for x in s)
            assert type(c) is complex and math.isfinite(c.real) and math.isfinite(c.imag)
            if not normal:
                assert all(p == int(p) and -3 <= p <= 3 for p in (c.real, c.imag))
