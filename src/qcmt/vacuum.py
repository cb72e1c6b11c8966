"""Vacuum-projector extension of the measurement algebra.

Adjoining a projector symbol V to the algebra, with the defining state
factorization rho(A V B) = rho(A) rho(B), makes even a commutative
measurement algebra noncommutative: rho(M_i V M_j) = rho(M_i) rho(M_j)
while rho(V M_i M_j) = rho(M_i M_j).  An extended element is a batch of
the packed word ring with V as one more letter, ``PROJECTOR``, always the
first of its alphabet (digit 1).  A word in normal form holds no two V in
a row, which realizes V*V = V: the product drops one V where the left word
ends and the right word begins with it.  V is its own involution partner,
so the ring's adjoint realizes V^dagger = V.  ``terms`` reads each word as
the sequence of plain-algebra segments between the V letters.

Conditioning a state by an element X, A -> rho(X^dagger A X)/rho(X^dagger X),
produces new states that are generally not invariant under the symmetry
group of the original.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import AlgebraElement, Index, LinearCombination, Word, _radix, draw_terms, word_label
from .gaussian import State

# An extended word is a tuple of plain words (segments); k+1 segments mean
# k projector symbols interleaved.  A single segment is a plain word.
ExtendedWord = tuple

NORM_FLOOR = 1e-12  # the least norm rho(X^dagger X) of a conditioner X


class _ProjectorTag:
    """The tag of the projector letter: one object, pickled by reference."""

    __slots__ = ()

    def __reduce__(self):
        return "PROJECTOR_TAG"

    def __repr__(self):
        return "V"


PROJECTOR_TAG = _ProjectorTag()
PROJECTOR = Index(PROJECTOR_TAG)  # the letter V, its own involution partner


def normalize_segments(segments) -> ExtendedWord:
    """Normal form: drop inner identity segments, merging adjacent projectors."""
    segments = [tuple(s) for s in segments]
    if not segments:
        return ((),)
    if len(segments) <= 2:
        return tuple(segments)
    inner = [s for s in segments[1:-1] if s]
    return tuple([segments[0]] + inner + [segments[-1]])


class ExtendedElement(LinearCombination):
    """Linear combinations of extended words over the projector extension, one per trial."""

    __slots__ = ()
    _prefix = (PROJECTOR,)

    @staticmethod
    def _spelled(segments) -> tuple:
        """The letters of the normal form of ``segments``, a V between each two."""
        letters = []
        for k, segment in enumerate(normalize_segments(segments)):
            if k:
                letters.append(PROJECTOR)
            letters.extend(segment)
        return tuple(letters)

    @staticmethod
    def _key(letters: tuple) -> ExtendedWord:
        """The segments between the V letters."""
        segments = [[]]
        for x in letters:
            if x == PROJECTOR:
                segments.append([])
            else:
                segments[-1].append(x)
        return tuple(map(tuple, segments))

    def _glued(self, alphabet, left, right) -> tuple:
        """The word products in normal form: a right word that begins with V (digit 1) loses
        that V where its left word ends with one, since V*V = V."""
        (left, left_lengths), (right, right_lengths) = left, right
        base = len(alphabet) + 1
        capacity, powers = _radix(base)
        top = np.maximum(right_lengths - 1, 0)
        rows, column, power = np.arange(len(top)), top // capacity, powers[top % capacity]
        merged = ((left_lengths > 0) & (left[:, 0] % base == 1)
                  & (right_lengths > 0) & (right[rows, column] // power == 1))
        if merged.any():
            right = right.copy()
            right[rows[merged], column[merged]] -= power[merged]
        return super()._glued(alphabet, (left, left_lengths), (right, right_lengths - merged))

    @classmethod
    def projector(cls) -> "ExtendedElement":
        return cls({((), ()): 1.0})

    def _label(self, key) -> str:
        return "[" + " V ".join(word_label(s) for s in key) + "]"


def extended_word_expect(state: State, segments) -> complex:
    """Factorized expectation rho(A_0 V A_1 V ... V A_k) = prod_j rho(A_j)."""
    total = 1 + 0j
    for seg in normalize_segments(segments):
        total *= state.word_expect(tuple(seg))
        if total == 0:
            break
    return total


def extended_expect(state: State, x: ExtendedElement) -> complex:
    """Expectation of an extended element under the base state."""
    return sum((c * extended_word_expect(state, w) for w, c in x.terms.items()), 0j)


def commutation_witness(state: State, i, j) -> tuple:
    """The pair (rho(M_i V M_j), rho(V M_i M_j)).

    Inequality of the two values witnesses that the projector fails to
    commute with the generators, even over a commutative base algebra.
    """
    between = extended_word_expect(state, ((i,), (j,)))
    in_front = extended_word_expect(state, ((), (i, j)))
    return between, in_front


class ConditionedState(State):
    """State A -> rho(X^dagger A X) / rho(X^dagger X) built from a base state.

    The adjoint X^dagger is formed once.  A conditioner whose norm is at
    most ``NORM_FLOOR`` raises ``ValueError``.
    """

    def __init__(self, base: State, conditioner: AlgebraElement):
        adjoint = conditioner.adjoint()
        norm = base.expect(adjoint * conditioner)
        if norm.real <= NORM_FLOOR:
            raise ValueError(
                f"conditioner has vanishing norm rho(X^dagger X) = {norm.real:.3e}"
            )
        self.base = base
        self.conditioner = conditioner
        self._adjoint = adjoint
        self.normalization = norm.real

    @property
    def indices(self):
        return self.base.indices

    def word_expect(self, w: Word) -> complex:
        sandwich = self._adjoint * AlgebraElement.from_word(w) * self.conditioner
        return self.base.expect(sandwich) / self.normalization


def extended_positivity_probe(state: State, trials: int, seed: int = 0) -> float:
    """Worst case of Re rho(E^dagger E) over randomized extended elements E.

    One ``draw_terms`` call draws every trial at once, into one batch of
    ``trials`` elements, so the elements depend on the seed and on
    ``trials`` and a result is deterministic per seed.  Each element sums
    at most three extended words of at most three segments, each segment of
    length at most two, and rho(E^dagger E) is taken through the extended
    ring, every trial at once.  On a Hermitian kernel rho(E^dagger E)
    = y^H G_2 y over the degree-2 Gram matrix G_2, whose spectrum decides
    positivity exactly (``verify.check_extended_positivity``); this is a
    random search for a negative direction of G_2.  Genuine states stay
    above -1e-10; +inf means no trials.
    """
    if trials <= 0:
        return math.inf
    pool = tuple(state.indices)
    if not pool:
        raise ValueError("no indices available to build probe elements")
    rows = [(t, tuple(tuple(pool[k] for k in s) for s in segments), c)
            for t, drawn in enumerate(draw_terms(seed, trials, len(pool), 3, 2, 3, normal=True))
            for segments, c in drawn]
    ids, words, coefficients = zip(*rows)
    e = ExtendedElement.from_words(trials, np.array(ids), words, coefficients)
    return min(extended_expect(state, x).real for x in (e.adjoint() * e).elements())
