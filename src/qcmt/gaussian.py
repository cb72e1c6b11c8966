"""Gaussian states on the free measurement algebra.

A Gaussian state is fixed by a Hermitian positive semi-definite pairing
(i, j) on the index set together with the index involution.  Odd moments
vanish; an even moment is the sum over perfect matchings of the pairwise
contractions (i_m^c, i_n) with m < n, which is the mixed derivative at
zero of the exponential generating function

    exp( - sum_m lambda_m^2 (i_m^c, i_m)/2
         - sum_{m<n} lambda_m lambda_n (i_m^c, i_n) ).

``wick_expect`` sums the matchings by expanding along the first position,

    m(t) = sum_j (t_0^c, t_j) m(t without positions 0 and j),

the hafnian of the contraction matrix.  Each kernel memoizes the moments
of the sub-words this recursion reaches, so the entries of a Gram matrix
share their work.  ``moment_from_generating_series`` expands the
generating function as a power series over bitmask monomials instead and
is kept as a structurally independent cross-check of the same number.

Every Hermiticity, positivity and null-space decision in the package cuts
at ``tolerance_bound``, tol * max(1, scale): an eigensolver errs by
O(n eps ||G||), so an absolute cut would fail valid states of large norm.
"""

from __future__ import annotations

import cmath

import numpy as np

from .algebra import AlgebraElement, Index, Word

# Longest word ``wick_expect`` accepts; the CLI caps moment words and Gram
# degree by it.  It bounds the recursion depth (N/2 levels) and the
# sub-words one length-N moment can reach (under 2**(N-1)), so a single
# moment stays cheap even with a cold memo.
MATCHING_CAP = 12
# Most sub-word moments one kernel memoizes, about 170 bytes each (11 MB
# when full).  A full memo is emptied and refilled rather than frozen: a
# frozen memo would leave the sub-words of every later word unshared.
MEMO_CAP = 1 << 16


def tolerance_bound(tol: float, values) -> float:
    """The cut tol * max(1, max |v|) below which a defect or eigenvalue counts as zero."""
    values = np.asarray(values)
    return tol * max(1.0, float(np.max(np.abs(values)))) if values.size else tol


def hermitian_spectrum(m, tol: float, vectors: bool = False) -> tuple:
    """Ascending eigenvalues, eigenvectors (or None) and bound of the Hermitian part of ``m``.

    The Hermitian part m/2 + m^H/2 cannot overflow; a non-finite entry
    raises ``FloatingPointError``.  The bound is at the spectral scale.
    """
    m = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(m)):
        raise FloatingPointError("matrix has a non-finite entry")
    sym = m / 2 + m.conj().T / 2
    eig, vec = np.linalg.eigh(sym) if vectors else (np.linalg.eigvalsh(sym), None)
    return eig, vec, tolerance_bound(tol, eig)


class GaussianKernel:
    """Hermitian positive semi-definite sesquilinear pairing on an index set.

    Entry (i, j) is the two-measurement value rho(M_i^dagger M_j); together
    with the involution i -> i^c it determines every Gaussian moment.

    Parameters
    ----------
    indices : sequence of Index or tags
        The index set in presentation order.  Plain tags are promoted to
        self-conjugate indices, so a real symmetric matrix over integer
        tags gives the trivial involution.  Tags may not repeat.
    matrix : array_like
        The pairing matrix, entry (a, b) = (indices[a], indices[b]).
    validate : bool
        Check Hermiticity and positive semi-definiteness of the matrix.
        Disable only to build deliberate non-states for positivity
        detection tests.
    tol : float
        Validation tolerance: the Hermiticity defect may reach
        tol * max(1, max |eigenvalue|), and the lowest eigenvalue its negative.
    """

    def __init__(self, indices, matrix, validate=True, tol=1e-10):
        idx = tuple(i if isinstance(i, Index) else Index(i) for i in indices)
        self._position = {ix.tag: a for a, ix in enumerate(idx)}
        if len(self._position) != len(idx):
            raise ValueError(f"index tags repeat: {[ix.tag for ix in idx]!r}")
        matrix = np.array(matrix, dtype=complex)
        try:
            matrix = matrix.reshape(len(idx), len(idx))
        except ValueError as exc:
            raise ValueError(
                f"matrix shape {matrix.shape} does not match {len(idx)} indices"
            ) from exc
        self._indices = idx
        self._matrix = matrix
        # Python complex entries: numpy's complex multiply is not bitwise
        # Python's, and the moment engine multiplies these.
        self._entries = matrix.tolist()
        self.tol = float(tol)
        # Moment engine state: a code per distinct (tag, ctag) pair, the
        # contraction (a^c, b) for every pair of codes (None when the kernel
        # lacks it), and the memo of sub-word moments keyed on code tuples,
        # seeded with the empty word that ends every expansion.
        self._codes = {}
        self._coded = []
        self._rows = []
        self._memo = {(): 1 + 0j}
        if validate:
            self.validate()

    @property
    def indices(self) -> tuple:
        return self._indices

    def pairing(self, i: Index, j: Index) -> complex:
        """The pairing (i, j); a tag outside the index set raises ``KeyError``."""
        try:
            return self._entries[self._position[i.tag]][self._position[j.tag]]
        except KeyError:
            raise KeyError(f"kernel has no entry for pair ({i!r}, {j!r})") from None

    def _encode(self, w: Word) -> tuple:
        """The word as a tuple of codes; the code of an index covers its ctag."""
        codes = self._codes
        try:
            return tuple([codes[ix.tag, ix.ctag] for ix in w])
        except KeyError:
            for ix in w:
                if (ix.tag, ix.ctag) not in codes:
                    self._add_code(ix)
            return tuple([codes[ix.tag, ix.ctag] for ix in w])

    def _add_code(self, ix: Index):
        code = len(self._coded)
        self._codes[ix.tag, ix.ctag] = code
        self._coded.append(ix)
        for c, row in enumerate(self._rows):
            row.append(self._contraction(c, code))
        self._rows.append([self._contraction(code, c) for c in range(code + 1)])

    def _contraction(self, a: int, b: int):
        try:
            return self.pairing(self._coded[a].involve(), self._coded[b])
        except KeyError:
            return None

    def _wick(self, t: tuple) -> complex:
        """Moment of an even, non-empty code word by expansion along t[0].

        Every word is always summed in the same order, so a value read from
        the memo is bitwise the value a fresh kernel would compute.
        """
        row = self._rows[t[0]]
        memo = self._memo
        rest = t[1:]
        total = 0j
        for j, b in enumerate(rest):
            factor = row[b]
            if not factor:
                if factor is None:  # raise the kernel's KeyError for the pair
                    self.pairing(self._coded[t[0]].involve(), self._coded[b])
                continue
            sub = rest[:j] + rest[j + 1 :]
            value = memo.get(sub)
            if value is None:
                value = self._wick(sub)
                if len(memo) >= MEMO_CAP:
                    memo.clear()
                    memo[()] = 1 + 0j
                memo[sub] = value
            total += factor * value
        return total

    def matrix(self) -> np.ndarray:
        return self._matrix.copy()

    def min_eigenvalue(self) -> float:
        eig, _, _ = hermitian_spectrum(self._matrix, self.tol)
        return float(eig[0]) if eig.size else 0.0

    def check_hermitian(self) -> tuple:
        """Refuse a Hermiticity defect over the spectral bound; return (eigenvalues, bound)."""
        m = self._matrix
        eig, _, bound = hermitian_spectrum(m, self.tol)
        defect = 2 * float(np.max(np.abs(m / 2 - m.conj().T / 2))) if m.size else 0.0
        if defect > bound:
            raise ValueError(f"kernel is not Hermitian: defect {defect:.3e}")
        return eig, bound

    def validate(self):
        eig, bound = self.check_hermitian()
        if eig.size and eig[0] < -bound:
            raise ValueError(f"kernel is not positive semi-definite: min eigenvalue {eig[0]:.3e}")

    def __repr__(self):
        tags = [i.tag for i in self._indices]
        return f"GaussianKernel(indices={tags!r})"


def two_point(kernel: GaussianKernel, i: Index, j: Index) -> complex:
    """Two-measurement value rho(M_i M_j) = (i^c, j)."""
    return kernel.pairing(i.involve(), j)


def commutator_factor(kernel: GaussianKernel, i: Index, j: Index) -> complex:
    """Scalar c with rho(A [M_i, M_j] B) = c rho(A B); zero is the commutative case."""
    return kernel.pairing(i.involve(), j) - kernel.pairing(j.involve(), i)


def wick_expect(kernel: GaussianKernel, w: Word) -> complex:
    """Moment of an ordered word under the Gaussian state of ``kernel``.

    Expands along the first position, m(t) = sum_j (t_0^c, t_j) m(t'),
    with t' the word without positions 0 and j, which sums the products of
    contractions (i_m^c, i_n), m < n, over all perfect matchings.  Sub-word
    moments are memoized on the kernel.  Odd words vanish; words longer
    than ``MATCHING_CAP`` are refused.
    """
    n = len(w)
    if n > MATCHING_CAP:
        raise ValueError(f"word length {n} exceeds the matching cap {MATCHING_CAP}")
    if n == 0:
        return 1 + 0j
    if n % 2:
        return 0j
    return kernel._wick(kernel._encode(w))


def generating_function(kernel: GaussianKernel, indices, lambdas) -> complex:
    """Gaussian expectation of the product of exponentials exp(i lambda_m M_{i_m}).

    Returns exp(-sum_m lambda_m^2 (i_m^c,i_m)/2 - sum_{m<n} lambda_m lambda_n (i_m^c,i_n)).
    """
    indices = list(indices)
    lambdas = list(lambdas)
    if len(indices) != len(lambdas):
        raise ValueError(
            f"{len(indices)} indices but {len(lambdas)} lambda parameters"
        )
    exponent = 0j
    conj = [i.involve() for i in indices]
    for m, i in enumerate(indices):
        exponent += lambdas[m] ** 2 * kernel.pairing(conj[m], i) / 2
    for m in range(len(indices)):
        for n in range(m + 1, len(indices)):
            exponent += lambdas[m] * lambdas[n] * kernel.pairing(conj[m], indices[n])
    return cmath.exp(-exponent)


def moment_from_generating_series(kernel: GaussianKernel, w: Word) -> complex:
    """Moment of a word by differentiating the generating function at zero.

    Expands exp(Q) as a power series in one lambda variable per word
    position, with Q the quadratic exponent of ``generating_function``,
    and reads off the coefficient of lambda_1 ... lambda_N, which equals
    the mixed partial at zero.  Dividing by i^N undoes the i lambda_m
    factors in the exponentials and yields rho(M_{i_1}...M_{i_N}).

    A monomial is the bitmask of the variables it holds.  Any monomial with
    an exponent above one can never reach the multilinear target again, so
    only the off-diagonal terms -(i_m^c, i_t) lambda_m lambda_t of Q are
    kept and products of overlapping masks are dropped.  Each term of Q
    holds two variables, so only Q^{N/2} / (N/2)! reaches the all-ones
    mask; lower powers are expanded in full and the last only at the
    target.  Odd words have no such power and vanish.

    Structurally independent of the contraction recursion in
    ``wick_expect``; intended as its oracle.
    """
    n = len(w)
    if n == 0:
        return 1 + 0j
    if n % 2:
        return 0j / (1j) ** n
    conj = [i.involve() for i in w]
    quad = {}
    for m in range(n):
        for t in range(m + 1, n):
            coeff = -kernel.pairing(conj[m], w[t])
            if coeff != 0:
                # 0j + : every coefficient is a sum started at zero
                quad[(1 << m) | (1 << t)] = 0j + coeff
    half = n // 2
    power = {0: 1 + 0j}
    factorial = 1.0
    for order in range(1, half):
        product = {}
        for ea, ca in power.items():
            for eb, cb in quad.items():
                if not ea & eb:
                    product[ea | eb] = product.get(ea | eb, 0j) + ca * cb
        power = product
        factorial *= order
    factorial *= half
    target = (1 << n) - 1
    coefficient = 0j
    for mask, c in power.items():
        partner = quad.get(target ^ mask)
        if partner is not None:
            coefficient += c * partner
    return (0j + coefficient / factorial) / (1j) ** n


class State:
    """Expectation functional: linear, normalized, positive, adjoint-compatible."""

    def word_expect(self, w: Word) -> complex:
        raise NotImplementedError

    @property
    def indices(self) -> tuple:
        raise NotImplementedError

    def expect(self, element: AlgebraElement) -> complex:
        """Linear extension of the word evaluator to algebra elements."""
        return sum((c * self.word_expect(w) for w, c in element.terms.items()), 0j)


class GaussianState(State):
    """Mean-zero Gaussian state with all moments given by the Wick expansion."""

    def __init__(self, kernel: GaussianKernel):
        self.kernel = kernel

    @property
    def indices(self) -> tuple:
        return self.kernel.indices

    def word_expect(self, w: Word) -> complex:
        return wick_expect(self.kernel, w)

    def __repr__(self):
        return f"GaussianState({self.kernel!r})"
