"""Finite-truncation GNS machinery.

A state restricted to the span of all words up to a fixed degree gives a
Hermitian Gram matrix G_ab = rho(w_a^dagger w_b).  Positivity of the state
is positive semi-definiteness of every such Gram matrix.  Quotienting by
the Gram null space and letting generators act by left multiplication
(which raises the degree, so the maps are rectangular and free of
truncation error) yields a concrete representation whose vacuum
expectations reproduce the state.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .algebra import Index, Word, word_adjoint
from .gaussian import State, hermitian_spectrum
from .vacuum import _probe


@dataclass(frozen=True)
class MonomialBasis:
    """All words of length at most ``degree`` over an index list.

    Graded-lexicographic order with the identity word first; lexicographic
    position follows the order of ``indices``.
    """

    indices: tuple
    degree: int
    words: tuple

    def __len__(self):
        return len(self.words)


def build_basis(indices, degree: int) -> MonomialBasis:
    if degree < 0:
        raise ValueError("degree must be non-negative")
    indices = tuple(i if isinstance(i, Index) else Index(i) for i in indices)
    tags = [i.tag for i in indices]
    if len(set(tags)) != len(tags):
        raise ValueError("basis indices must have distinct tags")
    words = []
    for length in range(degree + 1):
        words.extend(product(indices, repeat=length))
    return MonomialBasis(indices=indices, degree=degree, words=tuple(words))


@dataclass
class GramReport:
    """Gram matrix of a monomial basis under a state, with its spectrum.

    ``bound`` is tolerance * max(1, max |eigenvalue|): eigenvalues within it
    of zero count in ``null_dimension``, and none may lie below -bound.
    """

    gram: np.ndarray
    eigenvalues: np.ndarray
    null_dimension: int
    tolerance: float
    bound: float

    @property
    def dimension(self) -> int:
        return self.gram.shape[0]

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[0]) if self.eigenvalues.size else 0.0

    def is_positive(self) -> bool:
        return self.min_eigenvalue >= -self.bound

    def as_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "null_dimension": self.null_dimension,
            "tolerance": self.tolerance,
        }


def _gram_matrix(basis: MonomialBasis, state: State) -> np.ndarray:
    expect = state.word_expect
    words = basis.words
    g = np.empty((len(words), len(words)), dtype=complex)
    for a, left in enumerate(map(word_adjoint, words)):
        g[a] = [expect(left + wb) for wb in words]
    return g


def gram(basis: MonomialBasis, state: State, tolerance: float = 1e-10) -> GramReport:
    """Gram matrix G_ab = rho(w_a^dagger w_b) with eigenvalues and null count."""
    g = _gram_matrix(basis, state)
    eig, _, bound = hermitian_spectrum(g, tolerance)
    null = int(np.sum(np.abs(eig) <= bound))
    return GramReport(gram=g, eigenvalues=eig, null_dimension=null, tolerance=tolerance, bound=bound)


class Representation:
    """Left multiplication on the null-space quotients of the Gram matrices.

    For each degree j <= d + 1 the span of words of length <= j is
    quotiented by its Gram null space; generators act as rectangular
    degree-raising matrices between consecutive quotients.
    """

    def __init__(self, basis, level_maps, isometries):
        self.basis = basis
        self._level_maps = level_maps
        self._isometries = isometries

    @property
    def maps(self) -> dict:
        """The top-level (degree d to degree d+1) map per generator index."""
        return {i: per_level[self.basis.degree] for i, per_level in self._level_maps.items()}

    @property
    def dimension(self) -> int:
        """Dimension of the degree-d quotient (basis size minus null space)."""
        return self._isometries[self.basis.degree].shape[0]

    def vacuum_vector(self, level: int) -> np.ndarray:
        """Quotient coordinates of the identity word at the given degree."""
        return self._isometries[level][:, 0].copy()

    def apply_word(self, w: Word) -> np.ndarray:
        """Apply the represented word to the vacuum, composing tower maps."""
        w = tuple(w)
        if len(w) > self.basis.degree + 1:
            raise ValueError(
                f"word length {len(w)} exceeds representation degree {self.basis.degree} + 1"
            )
        vec = self.vacuum_vector(0)
        level = 0
        for i in reversed(w):
            vec = self._level_maps[i][level] @ vec
            level += 1
        return vec

    def vacuum_expectation(self, w: Word) -> complex:
        """<vacuum, pi(w) vacuum>; reproduces the state on words up to degree d."""
        vec = self.apply_word(w)
        omega = self.vacuum_vector(len(w))
        return complex(np.vdot(omega, vec))


def represent(basis: MonomialBasis, state: State, tolerance: float = 1e-10) -> Representation:
    """GNS representation data for all degrees up to ``basis.degree`` + 1.

    Needs the state on words up to length 2*degree + 2.  Each Gram matrix's
    bound from ``hermitian_spectrum`` refuses an eigenvalue below -bound as
    a non-state and cuts the null space at +bound.
    """
    d = basis.degree
    top = build_basis(basis.indices, d + 1)
    top_gram = _gram_matrix(top, state)
    # graded-lex order puts the words of length <= j first, so the degree-j
    # Gram matrix is the leading block of the top one
    n = len(basis.indices)
    sizes = [sum(n**length for length in range(j + 1)) for j in range(d + 2)]
    isometries = []
    pseudo_inverses = []
    for j, size in enumerate(sizes):
        eig, vectors, bound = hermitian_spectrum(top_gram[:size, :size], tolerance, vectors=True)
        if eig[0] < -bound:
            raise ValueError(f"Gram matrix at degree {j} has eigenvalue {eig[0]:.3e}; not a state")
        keep = eig > bound
        lam = eig[keep]
        u = vectors[:, keep]
        # coordinates h = T x turn the Gram pairing into the flat inner product
        t = (np.sqrt(lam)[:, None]) * u.conj().T
        t_plus = u * (1.0 / np.sqrt(lam))[None, :]
        isometries.append(t)
        pseudo_inverses.append(t_plus)

    # left multiplication by i sends word w at degree j to word (i,) + w at
    # degree j + 1: a gather of isometry columns
    row_of = {w: r for r, w in enumerate(top.words)}
    level_maps = {}
    for i in basis.indices:
        per_level = []
        for j in range(d + 1):
            rows = [row_of[(i,) + w] for w in top.words[: sizes[j]]]
            per_level.append(isometries[j + 1][:, rows] @ pseudo_inverses[j])
        level_maps[i] = per_level
    return Representation(basis, level_maps, isometries)


def positivity_probe(state: State, trials: int, max_len: int, seed: int = 0) -> float:
    """Worst case of Re rho(A^dagger A) over randomized elements A.

    Each A sums one to four words of length at most ``max_len``; it is the
    extended probe with one segment per word.  Genuine states stay above
    -1e-10; a clearly negative value certifies a non-state.  With
    ``trials`` = 0 there is no evidence and +inf returns.
    """
    return _probe(state, trials, seed, max_words=4, max_segments=1, max_len=max_len)
