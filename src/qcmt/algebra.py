"""Free *-algebra of indexed measurement operators, as one packed word ring.

Elements are finite complex-linear combinations of ordered words of
generators.  The product concatenates words, the adjoint conjugates
coefficients and reverses words while sending each generator index to
its involution partner.  No commutation rule is applied here: every
relation between measurements lives in the states, not in the algebra.

The ring is packed: a ``LinearCombination`` is a batch of elements, one
per trial, held as term rows (trial, word code, length, re, im) over an
alphabet of ``Index``.  A word over k letters is the integer spelled by
its base-(k+1) digits 1..k, so a product is integer arithmetic on codes
and the adjoint a digit reversal through the partner table; every result
goes through one combine step, ``LinearCombination.summed``.  A single
element is a batch of one.
"""

from __future__ import annotations

import math
import random
from functools import cache
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
    """Complex-linear combinations of words over one alphabet, one per trial, as flat arrays.

    The alphabet is a tuple of ``Index``, distinct by tag.  With k letters
    a word is the integer whose base-(k+1) digits 1..k spell it, first
    letter most significant; the digit 0 is unused, so the code alone fixes
    the word.  Column j of ``codes`` holds the digits from j * capacity on,
    counted from the last letter, capacity being the most digits an int64
    takes (``_radix``), so a long word takes more columns and no code
    wraps.  Row k is a term of trial ``trials[k]`` with word ``codes[k]`` of
    ``lengths[k]`` letters and coefficient ``re[k] + i im[k]``; rows come
    trial by trial in ascending order, each trial in first-occurrence
    order, like terms combined.

    Sums, differences and products pair trial t of one batch with trial t
    of the other, over the union of both alphabets (``_unified``).  Every
    result is one ``summed`` of raw rows, which adds like terms in row order
    from 0.0 after coefficients multiply as ``(ar br - ai bi, ar bi + ai
    br)``, so each is Python's complex arithmetic done term by term, NaN and
    inf included; coefficients of magnitude at most ``TERM_TOLERANCE`` are
    pruned, a NaN kept.  The constructor takes one element, a dict from
    words to coefficients.
    """

    __slots__ = ("alphabet", "count", "trials", "codes", "lengths", "re", "im")
    # the letters every alphabet of the class starts with
    _prefix = ()
    # an array times a batch is the batch's scalar product, not numpy's elementwise one
    __array_ufunc__ = None

    def __init__(self, terms=None):
        terms = terms or {}
        batch = self.from_words(1, np.zeros(len(terms), dtype=np.intp), list(terms), list(terms.values()))
        self._fill(*(getattr(batch, name) for name in LinearCombination.__slots__))

    def _fill(self, alphabet, count, trials, codes, lengths, re, im):
        self.alphabet = alphabet
        self.count = count
        self.trials = trials
        self.codes = codes
        self.lengths = lengths
        self.re = re
        self.im = im

    @classmethod
    def _rows(cls, alphabet, count, trials, codes, lengths, re, im):
        """A ``cls`` over ready arrays, past the constructor."""
        batch = object.__new__(cls)
        batch._fill(alphabet, count, trials, codes, lengths, re, im)
        return batch

    # hooks: a word as a tuple of letters, and back ------------------------
    @staticmethod
    def _spelled(word) -> tuple:
        return tuple(word)

    @staticmethod
    def _key(letters: tuple):
        return letters

    # building batches -----------------------------------------------------
    @classmethod
    def summed(cls, alphabet, count, trials, codes, lengths, re, im):
        """The batch of raw term rows over ``alphabet``, given in any order.

        Like terms of a trial are summed in row order, starting from 0.0;
        the result holds the trials in ascending order, each in
        first-occurrence order, and prunes coefficients of magnitude at most
        ``TERM_TOLERANCE``, while a NaN is kept.
        """
        first, re, im = _grouped(_word_keys(count, trials, codes), trials, re, im, TERM_TOLERANCE)
        return cls._rows(alphabet, count, trials[first], codes[first], lengths[first], re, im)

    @classmethod
    def packed(cls, letters, count, trials, picks, lengths, re, im):
        """``summed`` of raw rows whose words are spelled by positions in ``letters``.

        Row k is a term of trial ``trials[k]`` whose word is
        ``letters[picks[k, 0]], ..., letters[picks[k, lengths[k] - 1]]``;
        entries of ``picks`` past a length are ignored.  The alphabet is the
        class prefix followed by the distinct letters, by tag.
        """
        alphabet, table = _union(cls._prefix, letters)
        spelled = np.where(np.arange(picks.shape[1]) < lengths[:, None], picks + 1, 0)
        codes = _encoded(_reversed(table[spelled], lengths), len(alphabet) + 1)
        return cls.summed(alphabet, count, trials, codes, lengths, re, im)

    @classmethod
    def from_words(cls, count, trials, words, coefficients):
        """``packed`` of raw rows given as words, keys as ``terms`` holds them: row k is
        ``words[k]`` with coefficient ``coefficients[k]`` in trial ``trials[k]``."""
        spelled = [cls._spelled(w) for w in words]
        lengths = np.array([len(w) for w in spelled], dtype=np.int64)
        picks = (np.cumsum(lengths) - lengths)[:, None] + np.arange(int(lengths.max(initial=0)))
        values = np.array([complex(c) for c in coefficients], dtype=complex)
        letters = [x for w in spelled for x in w]
        return cls.packed(letters, count, np.asarray(trials), picks, lengths, values.real, values.imag)

    def _columns(self) -> tuple:
        return self.trials, self.codes, self.lengths, self.re, self.im

    def _combined(self):
        """This batch's rows, in any order and with like terms apart, combined by ``summed``."""
        return self.summed(self.alphabet, self.count, *self._columns())

    @property
    def _base(self) -> int:
        return len(self.alphabet) + 1

    def _unified(self, other) -> tuple:
        """The union of both alphabets, and both operands' codes over it, with equal columns."""
        alphabet, left, right = self.alphabet, self.codes, other.codes
        if other.alphabet != alphabet:
            alphabet, table = _union(alphabet, other.alphabet)
            base = len(alphabet) + 1
            if base != self._base:
                left = _mapped(left, self.lengths, self._base, np.arange(self._base), base)
            right = _mapped(right, other.lengths, other._base, table, base)
        columns = max(left.shape[1], right.shape[1])
        return alphabet, _padded(left, columns), _padded(right, columns)

    # ring operations: a row builder each, then the one combine step ---------
    # A row builder returns its raw rows as a batch of this class whose like
    # terms are not yet combined, trial by trial in ascending order; +, -, *
    # and the adjoint accept such a batch, and ``summed`` ends every operation.
    def _check(self, other):
        if self.count != other.count:
            raise ValueError(f"batch mismatch: {self.count} vs {other.count} trials")

    def _glued(self, base, left, left_lengths, right, right_lengths) -> tuple:
        """Codes and lengths of the word products left·right, row by row."""
        return _products(base, left, left_lengths, right, right_lengths)

    # inf * 0.0 is NaN without a warning, as in Python's complex arithmetic
    @np.errstate(invalid="ignore", over="ignore")
    def _product_rows(self, other):
        """The raw rows of ``self * other``: one per pair of terms within a trial for a batch
        ``other``, one per term for a scalar or an array of one scalar per trial."""
        if isinstance(other, type(self)):
            self._check(other)
            alphabet, left, right = self._unified(other)
            i, j = _term_pairs(self.count, self.trials, other.trials)
            codes, lengths = self._glued(len(alphabet) + 1, left[i], self.lengths[i], right[j],
                                         other.lengths[j])
            product = _product(self.re[i], self.im[i], other.re[j], other.im[j])
            return self._rows(alphabet, self.count, self.trials[i], codes, lengths, *product)
        if isinstance(other, (int, float, complex, np.ndarray)):
            scalar = np.asarray(other, dtype=complex)
            if scalar.ndim:  # one scalar per trial
                if scalar.shape != (self.count,):
                    raise ValueError(f"{scalar.shape} scalars for {self.count} trials")
                scalar = scalar[self.trials]
            product = _product(self.re, self.im, scalar.real, scalar.imag)
            return self._rows(self.alphabet, self.count, self.trials, self.codes, self.lengths, *product)
        return NotImplemented

    def __mul__(self, other):
        rows = self._product_rows(other)
        return rows if rows is NotImplemented else rows._combined()

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex, np.ndarray)):
            return self * other
        return NotImplemented

    def _joined(self, other, negate: bool):
        """Per trial, this batch's terms and then ``other``'s, negated if ``negate``."""
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        alphabet, left, right = self._unified(other)
        theirs = (other.trials, right, other.lengths, other.re, other.im)
        ours = (self.trials, left, self.lengths, self.re, self.im)
        return self.summed(alphabet, self.count,
                           *_concatenated(ours, _negated(theirs) if negate else theirs))

    def __add__(self, other):
        return self._joined(other, False)

    def __sub__(self, other):
        return self._joined(other, True)

    def __neg__(self):
        return self.summed(self.alphabet, self.count, *_negated(self._columns()))

    def _adjoint_rows(self):
        """The raw rows of the adjoint: each word reversed with its letters involved, each
        coefficient conjugated."""
        alphabet, table = _partners(self.alphabet)
        digits = _digits(self.codes, self._base, int(self.lengths.max(initial=0)))
        codes = _encoded(_adjoint_digits(digits, self.lengths, table), len(alphabet) + 1)
        return self._rows(alphabet, self.count,
                          *_conjugated((self.trials, codes, self.lengths, self.re, self.im)))

    def adjoint(self):
        """Complex anti-linear involution: conjugate coefficients, reverse words, involve letters."""
        return self._adjoint_rows()._combined()

    # inspection ---------------------------------------------------------
    def _trial_terms(self) -> list:
        """Per trial, the word keys to Python complex coefficients, in row order."""
        terms = [{} for _ in range(self.count)]
        letters = (None,) + self.alphabet
        digits = _digits(self.codes, self._base, int(self.lengths.max(initial=0))).tolist()
        for t, row, n, re, im in zip(self.trials.tolist(), digits, self.lengths.tolist(),
                                     self.re.tolist(), self.im.tolist()):
            terms[t][self._key(tuple(letters[d] for d in reversed(row[:n])))] = complex(re, im)
        return terms

    @property
    def terms(self) -> dict:
        """Word to Python complex coefficient, in first-occurrence order, of a batch of one."""
        if self.count != 1:
            raise ValueError(f"a batch of {self.count} trials has no one set of terms; see elements()")
        return self._trial_terms()[0]

    def elements(self) -> list:
        """The trials as batches of one, in trial order."""
        bounds = np.searchsorted(self.trials, np.arange(self.count + 1)).tolist()
        return [self._rows(self.alphabet, 1, np.zeros(hi - lo, dtype=np.intp), self.codes[lo:hi],
                           self.lengths[lo:hi], self.re[lo:hi], self.im[lo:hi])
                for lo, hi in zip(bounds, bounds[1:])]

    def is_zero(self) -> bool:
        return not len(self.re)

    @np.errstate(over="ignore")
    def max_abs_coeff(self) -> float:
        """Largest coefficient magnitude over every trial; 0.0 for no terms, NaN if any part is NaN."""
        return float(np.max(np.hypot(self.re, self.im))) if len(self.re) else 0.0

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.count == other.count and self._trial_terms() == other._trial_terms()

    def __len__(self):
        return len(self.re)

    def _label(self, key) -> str:
        return word_label(key)

    def __repr__(self):
        def element(terms):
            return " + ".join(f"({c:g})*{self._label(w)}" for w, c in terms.items()) or "0"

        parts = [element(terms) for terms in self._trial_terms()]
        return parts[0] if self.count == 1 else "[" + ", ".join(parts) + "]"


class AlgebraElement(LinearCombination):
    """Elements of the free *-algebra generated by the measurement operators, one per trial."""

    __slots__ = ()

    @classmethod
    def zero(cls) -> "AlgebraElement":
        return cls()

    @classmethod
    def identity(cls) -> "AlgebraElement":
        return cls({(): 1.0})

    @classmethod
    def from_word(cls, w: Word) -> "AlgebraElement":
        return cls({tuple(w): 1.0})


def star_residuals(a, b, c, lam, mu) -> tuple:
    """Residuals of the *-algebra laws, trial by trial.

    For batches a, b, c and arrays ``lam``, ``mu`` of one scalar per trial,
    returns ((ab)c - a(bc), (ab)^dagger - b^dagger a^dagger,
    (lam a + mu b)^dagger - (conj(lam) a^dagger + conj(mu) b^dagger),
    a^dagger^dagger - a); all four vanish in a *-algebra.  ab, bc, a^dagger
    and b^dagger are formed once each; each residual is then one ``summed``
    over the raw rows of its terms.  Integer-valued rows sum exactly in any
    grouping, so on integer coefficients, as in ``verify``, a residual that
    vanishes is exactly zero.
    """
    ab, bc, a_dagger, b_dagger = a * b, b * c, a.adjoint(), b.adjoint()
    scaled = a._product_rows(lam) + b._product_rows(mu)
    return (ab._product_rows(c) - a._product_rows(bc),
            ab._adjoint_rows() - b_dagger._product_rows(a_dagger),
            scaled._adjoint_rows() - (a_dagger._product_rows(lam.conjugate())
                                      + b_dagger._product_rows(mu.conjugate())),
            a_dagger._adjoint_rows() - a)


def generator(index: Index) -> AlgebraElement:
    """The generator for one measurement index, as an algebra element."""
    return AlgebraElement({(index,): 1.0})


@cache
def _radix(base: int) -> tuple:
    """(capacity, powers): the most base-``base`` digits an int64 column holds, the largest c
    with base**c < 2**63, and base**0 .. base**capacity as int64."""
    base = max(base, 2)
    capacity = 1
    while base ** (capacity + 1) < 2**63:
        capacity += 1
    return capacity, np.array([base**j for j in range(capacity + 1)], dtype=np.int64)


def _digits(codes, base: int, width: int) -> np.ndarray:
    """Digit p of every word, p = 0 its last letter, for p below ``width``; 0 past its length."""
    capacity, powers = _radix(base)
    p = np.arange(width)
    return codes[:, p // capacity] // powers[p % capacity] % base


def _encoded(digits, base: int) -> np.ndarray:
    """The codes of the words with the digits ``digits``, digit p = 0 the last letter, as ``_digits`` gives them."""
    capacity, powers = _radix(base)
    width = digits.shape[1]
    columns = max(1, -(-width // capacity))
    codes = np.empty((len(digits), columns), dtype=np.int64)
    for j in range(columns):
        chunk = digits[:, j * capacity:(j + 1) * capacity]
        codes[:, j] = chunk @ powers[: chunk.shape[1]]
    return codes


def _reversed(digits, lengths) -> np.ndarray:
    """Each row's first ``lengths`` digits in reverse order, then zeros.

    Position p takes digit length - 1 - p; past the length that index is
    negative and wraps to a position at or past the length, which holds 0.
    """
    index = lengths[:, None] - np.arange(1, digits.shape[1] + 1)
    return digits[np.arange(len(digits))[:, None], index]


def _padded(codes, columns: int) -> np.ndarray:
    """``codes`` with zero columns appended up to ``columns``: the same words."""
    extra = columns - codes.shape[1]
    return np.pad(codes, ((0, 0), (0, extra))) if extra else codes


def _mapped(codes, lengths, base: int, table, new_base: int) -> np.ndarray:
    """The codes over ``new_base`` of the words with each digit d replaced by ``table[d]``."""
    return _encoded(table[_digits(codes, base, int(lengths.max(initial=0)))], new_base)


def _union(alphabet: tuple, letters) -> tuple:
    """``alphabet`` followed by each of ``letters`` it lacks, and a table whose entry p + 1 is
    the digit of ``letters[p]`` in it, after a 0.  Letters are equal by tag; the first stays."""
    digit = {x: d for d, x in enumerate(alphabet, 1)}
    table = [0]
    for x in letters:
        table.append(digit.setdefault(x, len(digit) + 1))
    return (alphabet if len(digit) == len(alphabet) else tuple(digit)), np.array(table, dtype=np.int64)


def _partners(alphabet: tuple) -> tuple:
    """The alphabet with every letter's involution partner, and the digit of each letter's partner.

    Read through ``word_adjoint`` and ``Index.involve`` at call time."""
    return _union(alphabet, word_adjoint(alphabet)[::-1])


def _adjoint_digits(digits, lengths, table) -> np.ndarray:
    """The digits of the adjoint words: each word reversed, every letter mapped through ``table``."""
    return table[_reversed(digits, lengths)]


def _products(base: int, left, left_lengths, right, right_lengths) -> tuple:
    """Codes and lengths of the words left·right, row by row: code_a·base^len_b + code_b.

    The shift by len_b = q·capacity + r digits moves column j of the left
    code to columns j + q and j + q + 1, split exactly at r digits, and the
    right code fills the digits it frees, so no sum carries."""
    capacity, powers = _radix(base)
    lengths = left_lengths + right_lengths
    columns = max(-(-int(lengths.max(initial=0)) // capacity), left.shape[1], right.shape[1], 1)
    if columns == 1:
        return left * powers[right_lengths][:, None] + right, lengths
    codes = _padded(right, columns).copy()
    shift, rest = np.divmod(right_lengths, capacity)
    low, high = powers[capacity - rest], powers[rest]
    rows = np.arange(len(lengths))
    for j in range(left.shape[1]):
        codes[rows, np.minimum(j + shift, columns - 1)] += left[:, j] % low * high
        codes[rows, np.minimum(j + shift + 1, columns - 1)] += left[:, j] // low
    return codes, lengths


def _word_keys(count: int, trials, codes) -> np.ndarray:
    """Int64 keys, one row per key, equal in every key exactly where two rows have the same
    trial and word: trial and code in mixed radix while that fits, else one row per column."""
    if codes.shape[1] == 1 and len(trials):
        radix = int(codes.max()) + 1
        if count * radix < 2**63:
            return (trials * radix + codes[:, 0])[None]
    return np.vstack((codes.T, trials))


def _term_pairs(count: int, left, right) -> tuple:
    """Row indices (i, j) of every pair of a left row and a right row of one trial, left row
    major; ``left`` and ``right`` are the rows' trials, each ascending."""
    per_trial = np.bincount(right, minlength=count)
    reps = per_trial[left]
    i = np.repeat(np.arange(len(left)), reps)
    offsets = np.arange(len(i)) - np.repeat(np.cumsum(reps) - reps, reps)
    j = np.repeat((np.cumsum(per_trial) - per_trial)[left], reps) + offsets
    return i, j


def _grouped(keys, trials, re, im, tolerance: float) -> tuple:
    """The one combine step: raw rows summed wherever every key agrees.

    ``keys`` is an int64 array with one row per key, equal in every key
    exactly where two rows are like terms of one trial.  Grouping is one
    stable sort, so a group adds its rows in row order, starting from 0.0.
    Returns, for each group whose sum has magnitude above ``tolerance`` (a
    NaN is kept), its first row, in ascending trial and then first-row
    order, and the sums' real and imaginary parts.
    """
    size = len(trials)
    if not size:
        return np.zeros(0, dtype=np.intp), re, im
    order = np.lexsort(keys)
    keys = keys[:, order]
    starts = np.empty(size, dtype=bool)
    starts[0] = True
    np.logical_or.reduce(keys[:, 1:] != keys[:, :-1], axis=0, out=starts[1:])
    # the sort is stable: each group's rows stay in row order, earliest first
    group = np.cumsum(starts) - 1
    first = order[starts]
    re = np.bincount(group, re[order], len(first))  # adds in row order
    im = np.bincount(group, im[order], len(first))
    emit = np.argsort(trials[first] * size + first, kind="stable")
    re, im, first = re[emit], im[emit], first[emit]
    with np.errstate(over="ignore"):
        kept = ~(np.hypot(re, im) <= tolerance)  # abs(c) as Python takes it; a NaN is kept
    return first[kept], re[kept], im[kept]


def _product(ar, ai, br, bi) -> tuple:
    """The parts of Python's complex product (ar + i ai)(br + i bi), one row at a time."""
    return ar * br - ai * bi, ar * bi + ai * br


def _negated(columns) -> tuple:
    """Row columns whose last two are the coefficient parts, both negated."""
    *rest, re, im = columns
    return (*rest, -re, -im)


def _conjugated(columns) -> tuple:
    """Row columns whose last two are the coefficient parts, the imaginary part negated."""
    *rest, re, im = columns
    return (*rest, re, -im)


def _concatenated(*columns) -> tuple:
    """Row columns of several row sets, one after the other."""
    return tuple(np.concatenate(part) for part in zip(*columns))


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
