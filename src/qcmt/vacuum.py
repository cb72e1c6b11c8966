"""Vacuum-projector extension of the measurement algebra.

Adjoining a projector symbol V to the algebra, with the defining state
factorization rho(A V B) = rho(A) rho(B), makes even a commutative
measurement algebra noncommutative: rho(M_i V M_j) = rho(M_i) rho(M_j)
while rho(V M_i M_j) = rho(M_i M_j).  Extended words are stored as the
sequence of plain-algebra segments between projector symbols; dropping
inner identity segments realizes V*V = V as a normal form, and reversing
segments (adjointing each) realizes V^dagger = V.

Conditioning a state by an element X, A -> rho(X^dagger A X)/rho(X^dagger X),
produces new states that are generally not invariant under the symmetry
group of the original.
"""

from __future__ import annotations

import math

from .algebra import AlgebraElement, LinearCombination, Word, draw_terms, word_adjoint
from .gaussian import State

# An extended word is a tuple of plain words (segments); k+1 segments mean
# k projector symbols interleaved.  A single segment is a plain word.
ExtendedWord = tuple

NORM_FLOOR = 1e-12  # the least norm rho(X^dagger X) of a conditioner X


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
    """Linear combination of extended words over the projector extension."""

    __slots__ = ()

    def __init__(self, terms=None):
        if terms:
            merged = {}
            for segments, c in terms.items():
                w = normalize_segments(segments)
                merged[w] = merged.get(w, 0j) + complex(c)
            terms = merged
        super().__init__(terms)

    @staticmethod
    def _word_product(left: ExtendedWord, right: ExtendedWord) -> ExtendedWord:
        glued = left[:-1] + (left[-1] + right[0],) + right[1:]
        return normalize_segments(glued)

    @staticmethod
    def _word_adjoint(w: ExtendedWord) -> ExtendedWord:
        return normalize_segments(tuple(word_adjoint(s) for s in reversed(w)))

    @classmethod
    def projector(cls) -> "ExtendedElement":
        return cls({((), ()): 1.0})

    @classmethod
    def identity(cls) -> "ExtendedElement":
        return cls({((),): 1.0})

    @classmethod
    def from_word(cls, w: Word) -> "ExtendedElement":
        return cls({(tuple(w),): 1.0})

    @classmethod
    def embed(cls, element: AlgebraElement) -> "ExtendedElement":
        return cls({(w,): c for w, c in element.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "0"

        def label(segments):
            from .algebra import word_label

            return " V ".join(word_label(s) for s in segments)

        return " + ".join(f"({c:g})*[{label(w)}]" for w, c in self.terms.items())


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

    A conditioner whose norm is at most ``NORM_FLOOR`` raises ``ValueError``.
    """

    def __init__(self, base: State, conditioner: AlgebraElement):
        norm = base.expect(conditioner.adjoint() * conditioner)
        if norm.real <= NORM_FLOOR:
            raise ValueError(
                f"conditioner has vanishing norm rho(X^dagger X) = {norm.real:.3e}"
            )
        self.base = base
        self.conditioner = conditioner
        self.normalization = norm.real

    @property
    def indices(self):
        return self.base.indices

    def word_expect(self, w: Word) -> complex:
        sandwich = (
            self.conditioner.adjoint() * AlgebraElement.from_word(w) * self.conditioner
        )
        return self.base.expect(sandwich) / self.normalization


def extended_positivity_probe(state: State, trials: int, seed: int = 0) -> float:
    """Worst case of Re rho(E^dagger E) over randomized extended elements E.

    One ``draw_terms`` call draws every trial at once, so the elements
    depend on the seed and on ``trials`` and a result is deterministic per
    seed.  Each element sums at most three extended words of at most three
    segments, each segment of length at most two, and rho(E^dagger E) is
    taken through the extended ring.  On a Hermitian kernel rho(E^dagger E)
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
    worst = math.inf
    for drawn in draw_terms(seed, trials, len(pool), 3, 2, 3, normal=True):
        e = ExtendedElement()
        for segments, c in drawn:
            e = e + ExtendedElement({tuple(tuple(pool[k] for k in s) for s in segments): c})
        worst = min(worst, extended_expect(state, e.adjoint() * e).real)
    return worst
