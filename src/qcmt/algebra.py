"""Free *-algebra of indexed measurement operators.

Elements are finite complex-linear combinations of ordered words of
generators.  The product concatenates words, the adjoint conjugates
coefficients and reverses words while sending each generator index to
its involution partner.  No commutation rule is applied here: every
relation between measurements lives in the states, not in the algebra.
"""

from __future__ import annotations

import math
import random
from typing import Hashable

import numpy as np


class Index:
    """Measurement label paired with the label of its adjoint generator.

    Equality and hashing use the tag alone, so indices can key kernel
    matrices and coefficient maps.  ``ctag`` is the tag of the involution
    partner; omitting it makes the index self-conjugate.  The hash of the
    tag is computed once, and ``involve`` returns one cached partner whose
    own partner is this index, so adjoint words reuse the same objects.
    """

    __slots__ = ("tag", "ctag", "_hash", "_partner")

    def __init__(self, tag: Hashable, ctag: Hashable | None = None):
        ctag = tag if ctag is None else ctag
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "ctag", ctag)
        object.__setattr__(self, "_hash", hash(tag))
        object.__setattr__(self, "_partner", self if tag == ctag else None)

    def __setattr__(self, name, value):
        raise AttributeError("Index is immutable")

    def __delattr__(self, name):
        raise AttributeError("Index is immutable")

    def __reduce__(self):
        return Index, (self.tag, self.ctag)

    def involve(self) -> "Index":
        """Return the involution partner; applying twice gives back self."""
        partner = self._partner
        if partner is None:
            partner = Index(self.ctag, self.tag)
            object.__setattr__(partner, "_partner", self)
            object.__setattr__(self, "_partner", partner)
        return partner

    @property
    def self_conjugate(self) -> bool:
        return self.tag == self.ctag

    def __eq__(self, other):
        if not isinstance(other, Index):
            return NotImplemented
        return self.tag == other.tag

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.self_conjugate:
            return f"Index({self.tag!r})"
        return f"Index({self.tag!r}, {self.ctag!r})"


def paired_indices(tag: Hashable, ctag: Hashable) -> tuple[Index, Index]:
    """Build a conjugate pair of indices (i, i^c) with a nontrivial involution."""
    i = Index(tag, ctag)
    return i, i.involve()


# A word is an ordered tuple of generator indices; the empty tuple is the
# identity operator.
Word = tuple


def word_adjoint(w: Word) -> Word:
    """Adjoint of an ordered product: reverse the order, involve each index."""
    return tuple(i.involve() for i in reversed(w))


def word_label(w: Word) -> str:
    """Human-readable product label, e.g. ``M1*M2``; the identity prints as ``1``."""
    return "*".join(f"M{i.tag}" for i in w) if w else "1"


# Coefficients of magnitude at most this are pruned from a linear combination.
TERM_TOLERANCE = 1e-14


class LinearCombination:
    """Finite complex-linear combination of hashable words.

    Subclasses provide the word product and word adjoint; addition, scalar
    action, products, and the adjoint are shared.  Coefficients of magnitude
    at most ``TERM_TOLERANCE`` are pruned so canonical forms stay
    comparable; a NaN is kept.  The constructor validates its input; every
    ring result is built once through ``_like(terms)`` from Python complex
    coefficients and valid words, and only pruned.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for w, c in terms.items():
                c = complex(c)
                if not abs(c) <= TERM_TOLERANCE:  # a NaN is kept, never pruned as small
                    clean[w] = c
        object.__setattr__(self, "terms", clean)

    # hooks -----------------------------------------------------------
    def _like(self, terms):
        result = object.__new__(type(self))
        result.terms = {w: c for w, c in terms.items() if not abs(c) <= TERM_TOLERANCE}
        return result

    @staticmethod
    def _word_product(left, right):
        raise NotImplementedError

    @staticmethod
    def _word_adjoint(w):
        raise NotImplementedError

    # linear structure --------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        out = dict(self.terms)
        get = out.get
        for w, c in other.terms.items():
            out[w] = get(w, 0j) + c
        return self._like(out)

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        out = dict(self.terms)
        get = out.get
        for w, c in other.terms.items():
            out[w] = get(w, 0j) - c
        return self._like(out)

    def __neg__(self):
        return self._like({w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, type(self)):
            out = {}
            get = out.get
            word_product = self._word_product
            right = other.terms.items()
            for wa, ca in self.terms.items():
                for wb, cb in right:
                    w = word_product(wa, wb)
                    out[w] = get(w, 0j) + ca * cb
            return self._like(out)
        if isinstance(other, (int, float, complex)):
            # complex() turns a numpy scalar's product into a Python complex
            return self._like({w: complex(c * other) for w, c in self.terms.items()})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self * other
        return NotImplemented

    def adjoint(self):
        """Complex anti-linear involution: conjugate coefficients, adjoint words."""
        word_adjoint = self._word_adjoint
        return self._like({word_adjoint(w): c.conjugate() for w, c in self.terms.items()})

    # inspection ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def max_abs_coeff(self) -> float:
        """Largest coefficient magnitude; zero for the zero element."""
        if not self.terms:
            return 0.0
        return max(abs(c) for c in self.terms.values())

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.terms == other.terms

    def __len__(self):
        return len(self.terms)


class AlgebraElement(LinearCombination):
    """Element of the free *-algebra generated by the measurement operators."""

    __slots__ = ()

    @staticmethod
    def _word_product(left: Word, right: Word) -> Word:
        return left + right

    @staticmethod
    def _word_adjoint(w: Word) -> Word:
        return word_adjoint(w)

    @classmethod
    def zero(cls) -> "AlgebraElement":
        return cls()

    @classmethod
    def identity(cls) -> "AlgebraElement":
        return cls({(): 1.0})

    @classmethod
    def from_word(cls, w: Word) -> "AlgebraElement":
        return cls({tuple(w): 1.0})

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = [f"({c:g})*{word_label(w)}" for w, c in self.terms.items()]
        return " + ".join(parts)


def generator(index: Index) -> AlgebraElement:
    """The generator for one measurement index, as an algebra element."""
    return AlgebraElement({(index,): 1.0})


def draw_integers(rng: random.Random, low: int, high, shape) -> np.ndarray:
    """Integers in [low, high) of ``shape`` from one ``rng.randbytes`` block.

    ``high`` is an int or an array that broadcasts against ``shape``, and
    every span ``high - low`` is from 1 to 2**32.  Each little-endian 32-bit
    word w maps to ``low + (w * span) >> 32`` (multiply-shift), so every
    value's probability is within span / 2**32 of uniform, relative.
    """
    words = np.frombuffer(rng.randbytes(4 * math.prod(shape)), dtype="<u4").reshape(shape)
    span = (np.asarray(high, dtype=np.int64) - low).astype(np.uint64)
    return ((words * span) >> np.uint64(32)).astype(np.int64) + low


def draw_terms(seed, count, letters, max_terms, max_len, max_segments=1, normal=False) -> list:
    """``count`` random linear combinations of words, drawn as five batched blocks.

    Combination k has 1..``max_terms`` terms.  A term is 1..``max_segments``
    segments of 0..``max_len`` letters, each letter a position in
    range(``letters``), and a complex coefficient whose parts are integers
    in -3..3 (so cancellations are exact) or, with ``normal``, standard
    normal.  Term counts, segment counts, lengths, letters and coefficient
    parts are each one block of the maximal shape, in that order, drawn
    from ``seed``: an int, or a ``random.Random`` to draw on from.  Integers
    come from ``draw_integers``, normal parts from ``rng.gauss``.  The same
    seed makes the same draws for the same arguments.  Returns per
    combination a list of ``(segments, coefficient)``, segments a tuple of
    tuples of positions.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    shape = (count, max_terms)
    terms = draw_integers(rng, 1, max_terms + 1, (count,)).tolist()
    pieces = draw_integers(rng, 1, max_segments + 1, shape).tolist()
    lengths = draw_integers(rng, 0, max_len + 1, shape + (max_segments,)).tolist()
    picks = draw_integers(rng, 0, letters, shape + (max_segments, max_len)).tolist()
    if normal:
        parts = np.reshape([rng.gauss(0.0, 1.0) for _ in range(2 * count * max_terms)], shape + (2,))
    else:
        parts = draw_integers(rng, -3, 4, shape + (2,))
    parts = parts.tolist()
    drawn = []
    for k, count_k in enumerate(terms):
        combination = []
        for t in range(count_k):
            size, letter = lengths[k][t], picks[k][t]
            segments = tuple(tuple(letter[s][: size[s]]) for s in range(pieces[k][t]))
            combination.append((segments, complex(*parts[k][t])))
        drawn.append(combination)
    return drawn
