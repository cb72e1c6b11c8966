"""Phase-space polynomials, Poisson brackets, and Koopman operator pairs.

Two operator families act on functions over a 2n-dimensional phase space:
multiplication operators Mul_u f = u*f and Poisson derivations
Der_u f = {u, f}, computed as ``u * f`` and ``poisson(u, f)``.
Multiplication operators commute among themselves; the commutator of a
derivation with a multiplication operator is the multiplication operator
of the bracket, and derivations close under the bracket.  Exponentiating
derivations gives canonical flows (``liouville_flow``), while
exponentiating multiplication operators rescales pointwise, a
non-canonical transformation (``multiplication_flow``).

A polynomial (``PhaseSpacePolynomial``) is a batch of one trial of
``PolynomialBatch``, the one exact engine: products, brackets, sums,
differences, negation, scalar multiples, the adjoint and derivatives all
run on its arrays, for one polynomial or for every trial at once.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .algebra import _concatenated, _grouped, _negated, _product, _term_pairs
from .gaussian import GaussianKernel, tolerance_bound

DEFAULT_FLOW_STEP = 1e-3
# Most RK4 steps ``liouville_flow`` takes per point; at ``DEFAULT_FLOW_STEP``
# it bounds the flow time by 1000.
MAX_FLOW_STEPS = 10**6
# Largest exponent a polynomial holds: every bracket weight a_i d_i - b_i c_i
# of such exponents, and every exponent sum, is exact in int64.
MAX_EXPONENT = 2**31 - 1


def _is_integer(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _dimension(value) -> int:
    """A phase-space dimension as a Python int; anything but a positive integer raises."""
    if not _is_integer(value) or value < 1:
        raise ValueError(f"phase space dimension must be a positive integer, not {value!r}")
    return int(value)


class PolynomialBatch:
    """Phase-space polynomials of one dimension, one per trial, as flat arrays.

    Row k is a term of trial ``trials[k]`` with exponent row
    ``exponents[k]`` (width 2n, int64) and coefficient ``re[k] + i im[k]``
    (float64).  Rows come trial by trial in ascending order and, within a
    trial, in first-occurrence order; like terms are combined and exact
    zeros pruned.  Products, brackets, sums and differences pair trial t of
    one batch with trial t of the other; negation, scalar multiples, the
    adjoint and ``diff`` act on every row.  Each follows dict arithmetic
    step by step: like terms are summed from 0.0 in the order a dict of
    terms would add them, a coefficient product is ``(ar br - ai bi, ar bi
    + ai br)``, and a real or integer factor multiplies as the complex
    ``(w, 0.0)``, so every result, NaN and inf included, is Python's complex
    arithmetic done term by term.  A polynomial of lower dimension joins a
    batch with zero exponents on the extra axes, which leaves its products
    and brackets unchanged.  Every result has the type of the left operand.
    """

    __slots__ = ("dimension", "count", "trials", "exponents", "re", "im")

    def __init__(self, dimension: int, count: int, trials, exponents, re, im):
        self.dimension = dimension
        self.count = count
        self.trials = trials
        self.exponents = exponents
        self.re = re
        self.im = im

    @classmethod
    def _rows(cls, dimension: int, count: int, trials, exponents, re, im):
        """A ``cls`` over ready arrays, past any validating constructor."""
        batch = object.__new__(cls)
        PolynomialBatch.__init__(batch, dimension, count, trials, exponents, re, im)
        return batch

    @classmethod
    def of(cls, polynomials) -> "PolynomialBatch":
        """One trial per polynomial, each embedded in the largest dimension among them."""
        n = max(p.dimension for p in polynomials)
        # zero columns after each polynomial's q block and after its p block
        rows = [np.insert(p.exponents, [p.dimension] * (n - p.dimension)
                          + [2 * p.dimension] * (n - p.dimension), 0, axis=1) for p in polynomials]
        trials = np.repeat(np.arange(len(rows)), [len(r) for r in rows])
        return cls._rows(n, len(rows), trials, np.concatenate(rows),
                         np.concatenate([p.re for p in polynomials]),
                         np.concatenate([p.im for p in polynomials]))

    @classmethod
    def summed(cls, dimension: int, count: int, trials, exponents, re, im) -> "PolynomialBatch":
        """The batch of raw term rows, given in any order.

        Like terms of a trial are summed in row order, starting from 0.0;
        the result holds the trials in ascending order, each in
        first-occurrence order, and prunes exact zeros, while a NaN is kept.
        The combine step is the word ring's, ``algebra._grouped``: one stable
        sort over the trial and exponent columns (``_sort_keys``), exact for
        any exponent up to ``MAX_EXPONENT``; a larger one raises ``ValueError``.
        """
        if not len(trials):
            return cls._rows(dimension, count, trials, exponents, re, im)
        highest = int(exponents.max())
        if highest > MAX_EXPONENT:
            raise ValueError(f"an exponent of the result exceeds {MAX_EXPONENT}")
        keys = _sort_keys(count, trials, exponents, highest + 1)
        first, re, im = _grouped(keys, trials, re, im, 0.0)
        return cls._rows(dimension, count, trials[first], exponents[first], re, im)

    def _summed(self, columns) -> "PolynomialBatch":
        """``summed`` of the raw rows ``columns`` = (trials, exponents, re, im) in this batch's shape."""
        return self.summed(self.dimension, self.count, *columns)

    def _columns(self) -> tuple:
        """The rows as (trials, exponents, re, im), the columns ``summed`` takes."""
        return self.trials, self.exponents, self.re, self.im

    def polynomials(self) -> list:
        """The trials as ``PhaseSpacePolynomial``s of the batch dimension, in trial order."""
        bounds = np.searchsorted(self.trials, np.arange(self.count + 1)).tolist()
        return [PhaseSpacePolynomial._rows(self.dimension, 1, np.zeros(hi - lo, dtype=np.intp),
                                           self.exponents[lo:hi], self.re[lo:hi], self.im[lo:hi])
                for lo, hi in zip(bounds, bounds[1:])]

    def max_abs_coeff(self) -> float:
        """Largest coefficient magnitude over every trial; 0.0 for no terms, NaN if any part is NaN."""
        return float(np.max(np.hypot(self.re, self.im))) if len(self.re) else 0.0

    def _check(self, other):
        if not isinstance(other, PolynomialBatch):
            raise TypeError(f"cannot pair a PolynomialBatch with {type(other).__name__}")
        if (self.dimension, self.count) != (other.dimension, other.count):
            raise ValueError(
                f"batch mismatch: dimension {self.dimension} vs {other.dimension}, "
                f"{self.count} vs {other.count} trials"
            )

    def _pairs(self, other) -> tuple:
        """Row indices (left, right) of every term pair within a trial, left term major."""
        self._check(other)
        return _term_pairs(self.count, self.trials, other.trials)

    # inf * 0.0 is NaN without a warning, as in Python's complex arithmetic
    @np.errstate(invalid="ignore", over="ignore")
    def _product_rows(self, other) -> tuple:
        """The raw rows of ``self * other`` for a batch ``other``: one per term pair (``_pairs``)."""
        left, right = self._pairs(other)
        product = _product(self.re[left], self.im[left], other.re[right], other.im[right])
        return self.trials[left], self.exponents[left] + other.exponents[right], *product

    @np.errstate(invalid="ignore", over="ignore")
    def _poisson_rows(self, other) -> tuple:
        """The raw rows of ``{self, other}``: the term pairs of ``*``, axis minor (``_bracket_rows``)."""
        left, right = self._pairs(other)
        pair, weight, exponents = _bracket_rows(self.exponents[left], other.exponents[right],
                                                self.dimension)
        left, right = left[pair], right[pair]
        product = _product(self.re[left], self.im[left], other.re[right], other.im[right])
        return self.trials[left], exponents, *_product(weight.astype(float), 0.0, *product)

    @np.errstate(invalid="ignore", over="ignore")
    def __mul__(self, other):
        if isinstance(other, PolynomialBatch):
            return self._summed(self._product_rows(other))
        if isinstance(other, (int, float, complex)):
            scalar = complex(other)
            return self._summed((self.trials, self.exponents,
                                 *_product(self.re, self.im, scalar.real, scalar.imag)))
        return NotImplemented

    __rmul__ = __mul__  # a batch on the left takes its own __mul__; scalar products commute

    def __neg__(self):
        return self._summed(_negated(self._columns()))

    def adjoint(self):
        """Conjugate every coefficient; the coordinate functions are real, so exponents stay."""
        return self._summed((self.trials, self.exponents, self.re, -self.im))

    def bracket(self, other) -> "PolynomialBatch":
        """{u, v} trial by trial."""
        return self._summed(self._poisson_rows(other))

    @np.errstate(invalid="ignore", over="ignore")
    def diff(self, var: int) -> "PolynomialBatch":
        """Partial derivative along flat coordinate ``var`` in 0..2n-1: each term with exponent
        e > 0 on ``var`` gives e times its coefficient at that exponent lowered by one."""
        if not 0 <= var < 2 * self.dimension:
            raise ValueError(f"variable {var} out of range")
        (rows,) = np.nonzero(self.exponents[:, var])
        exponents = self.exponents[rows]
        weight = exponents[:, var].astype(float)
        exponents[:, var] -= 1
        return self._summed((self.trials[rows], exponents,
                             *_product(weight, 0.0, self.re[rows], self.im[rows])))

    def _joined(self, other, negate: bool):
        """Per trial, this batch's terms and then ``other``'s, negated if ``negate``."""
        if not isinstance(other, PolynomialBatch):
            return NotImplemented
        self._check(other)
        columns = other._columns()
        return self._summed(_concatenated(self._columns(), _negated(columns) if negate else columns))

    def __add__(self, other):
        return self._joined(other, False)

    def __sub__(self, other):
        return self._joined(other, True)


class PhaseSpacePolynomial(PolynomialBatch):
    """Complex-coefficient polynomial in canonical coordinates q_1..q_n, p_1..p_n: a batch of one.

    ``terms`` maps exponent tuples ``(a_1..a_n, b_1..b_n)`` for ``q^a p^b``
    to coefficients, read from the rows.  All arithmetic is the batch's.
    Only exact zeros are pruned, so integer-coefficient arithmetic cancels
    exactly and residual checks can demand literal zero.  The constructor
    validates its input once: the dimension must be a positive integer and
    every exponent an integer from 0 to ``MAX_EXPONENT`` (Python or numpy,
    never bool).  Ring results are built without re-validation; one whose
    exponent would exceed ``MAX_EXPONENT`` raises ``ValueError``, and one
    with a polynomial of another dimension raises ``ValueError`` too.
    """

    __slots__ = ()

    def __init__(self, dimension: int, terms=None):
        dimension = _dimension(dimension)
        width = 2 * dimension
        merged = {}
        for exps, c in (terms or {}).items():
            if not (
                isinstance(exps, tuple)
                and len(exps) == width
                and all(_is_integer(e) and 0 <= e <= MAX_EXPONENT for e in exps)
            ):
                raise ValueError(
                    f"exponent key {exps!r} is not {width} integers from 0 to {MAX_EXPONENT}"
                )
            exps = tuple(map(int, exps))
            merged[exps] = merged.get(exps, 0j) + complex(c)
        merged = {exps: c for exps, c in merged.items() if c != 0}  # a NaN is kept
        coefficients = np.array(list(merged.values()), dtype=complex)
        super().__init__(dimension, 1, np.zeros(len(merged), dtype=np.intp),
                         np.array(list(merged), dtype=np.int64).reshape(-1, width),
                         coefficients.real, coefficients.imag)

    # constructors -------------------------------------------------------
    @classmethod
    def zero(cls, dimension: int) -> "PhaseSpacePolynomial":
        return cls(dimension)

    @classmethod
    def constant(cls, dimension: int, value: complex) -> "PhaseSpacePolynomial":
        dimension = _dimension(dimension)
        return cls(dimension, {(0,) * (2 * dimension): value})

    @classmethod
    def coordinate(cls, dimension: int, kind: str, axis: int = 0) -> "PhaseSpacePolynomial":
        """The coordinate function q_axis or p_axis."""
        dimension = _dimension(dimension)
        if kind not in ("q", "p"):
            raise ValueError("kind must be 'q' or 'p'")
        if not (_is_integer(axis) and 0 <= axis < dimension):
            raise ValueError(f"axis {axis} out of range for dimension {dimension}")
        pos = axis if kind == "q" else dimension + axis
        exps = tuple(1 if s == pos else 0 for s in range(2 * dimension))
        return cls(dimension, {exps: 1.0})

    @property
    def terms(self) -> dict:
        """Exponent tuple to Python complex coefficient, in row order."""
        return dict(zip(map(tuple, self.exponents.tolist()),
                        map(complex, self.re.tolist(), self.im.tolist())))

    def __eq__(self, other):
        if not isinstance(other, PhaseSpacePolynomial):
            return NotImplemented
        return self.dimension == other.dimension and self.terms == other.terms

    def __call__(self, point) -> complex:
        """Evaluate at a flat point (q_1..q_n, p_1..p_n); an overflow raises ``ValueError``."""
        return _evaluator(self)(point)

    # inspection -------------------------------------------------------------
    def is_zero(self) -> bool:
        return not len(self.re)

    def __len__(self):
        return len(self.re)

    def degree(self) -> int:
        return int(self.exponents.sum(axis=1).max()) if len(self.re) else 0

    def max_imag_coeff(self) -> float:
        return float(np.max(np.abs(self.im))) if len(self.im) else 0.0

    def __repr__(self):
        if self.is_zero():
            return "0"
        names = [f"q{s}" for s in range(self.dimension)] + [
            f"p{s}" for s in range(self.dimension)
        ]

        def monomial(exps):
            factors = [
                f"{names[s]}" + (f"^{e}" if e > 1 else "")
                for s, e in enumerate(exps)
                if e
            ]
            return "*".join(factors) if factors else "1"

        return " + ".join(f"({c:g})*{monomial(e)}" for e, c in self.terms.items())


def _sort_keys(count: int, trials, exponents, radix: int) -> np.ndarray:
    """Int64 words, one row per word, that are equal in every word exactly where two
    term rows have the same trial and exponent row.

    The trial (below ``count``) and then each exponent (below ``radix``) are
    digits in mixed radix.  A word takes digits while the product of its
    radices stays below 2**63, so no word overflows; the next digit starts a
    new word.
    """
    chunks, lo, capacity = [], 0, count
    for j in range(exponents.shape[1]):
        if capacity * radix >= 2**63:
            chunks.append((lo, j))
            lo, capacity = j, 1
        capacity *= radix
    chunks.append((lo, exponents.shape[1]))
    words = []
    for lo, hi in chunks:
        powers = np.array([radix ** (hi - 1 - j) for j in range(lo, hi)], dtype=np.int64)
        words.append(exponents[:, lo:hi] @ powers)
    words[0] += trials * radix ** (chunks[0][1] - chunks[0][0])
    return np.array(words)


def embed_exponents(exponents: tuple, dimension: int) -> tuple:
    """An exponent tuple of a lower dimension in ``dimension``: zero exponents on the extra q and p axes."""
    m = len(exponents) // 2
    pad = (0,) * (dimension - m)
    return exponents[:m] + pad + exponents[m:] + pad


def _bracket_rows(left, right, n: int) -> tuple:
    """The nonzero terms of the bracket of term pairs with exponent rows ``left`` (q^a p^b) and
    ``right`` (q^c p^d): (pair index, integer weight a_i d_i - b_i c_i, exponent row
    (a + c - e_i, b + d - e_i)) for each pair and axis i with a nonzero weight, pair major."""
    weights = left[:, :n] * right[:, n:] - left[:, n:] * right[:, :n]
    pair, axis = np.nonzero(weights)
    exponents = left[pair] + right[pair] - _lowering(n)[axis]
    return pair, weights[pair, axis], exponents


@cache
def _lowering(n: int) -> np.ndarray:
    """Row i: the exponent row e_i on both the q and the p axis of i."""
    return np.tile(np.eye(n, dtype=np.int64), 2)


def poisson(u, v):
    """Canonical Poisson bracket {u, v} = sum_i du/dq_i dv/dp_i - du/dp_i dv/dq_i.

    Trial by trial of two batches; a polynomial is a batch of one.  Term
    ``q^a p^b`` with ``q^c p^d`` gives, on each axis i with a nonzero weight
    ``a_i d_i - b_i c_i``, that weight times both coefficients at exponent
    ``(a + c - e_i, b + d - e_i)``.
    """
    return u.bracket(v)


def bracket_residuals(u, v, f):
    """Residuals of the three commutation relations applied to f, and of Jacobi.

    With Mul_u f = u*f and Der_u f = {u, f}, returns
    ([Mul_u, Mul_v] f,
     ([Der_u, Mul_v] - Mul_{u,v}) f,
     ([Der_u, Der_v] - Der_{u,v}) f,
     {u, {v, f}} + {v, {f, u}} + {f, {u, v}});
    all four must vanish identically.  u, v and f are batches, every trial
    at once, or polynomials, each a batch of one.  {u, v}, {u, f}, {v, f},
    {u, {v, f}}, {f, u}, v*f and u*f are formed once each; then each
    residual is one ``summed`` over the raw rows of its terms, a subtracted
    term's rows negated, so no row is grouped twice.  Integer-valued rows
    sum exactly under any grouping, so on integer coefficients, as in
    ``verify``, a residual that vanishes is exactly zero.  On float
    coefficients a residual can differ from the same expression written
    with ``*``, ``poisson``, ``+`` and ``-`` by round-off, since it adds
    the same products in another grouping.
    """
    uv, uf, vf = poisson(u, v), poisson(u, f), poisson(v, f)
    u_vf, fu = poisson(u, vf), poisson(f, u)
    v_times_f, u_times_f = v * f, u * f
    r1 = u._summed(_concatenated(u._product_rows(v_times_f), _negated(v._product_rows(u_times_f))))
    r2 = u._summed(_concatenated(u._poisson_rows(v_times_f), _negated(v._product_rows(uf)),
                                 _negated(uv._product_rows(f))))
    r3 = u._summed(_concatenated(u_vf._columns(), _negated(v._poisson_rows(uf)),
                                 _negated(uv._poisson_rows(f))))
    jacobi = u._summed(_concatenated(u_vf._columns(), v._poisson_rows(fu), f._poisson_rows(uv)))
    return r1, r2, r3, jacobi


def _evaluator(polynomial: PhaseSpacePolynomial):
    """``polynomial.__call__`` with the terms read once, for repeated evaluation."""
    terms, width = list(polynomial.terms.items()), 2 * polynomial.dimension

    def evaluate(point) -> complex:
        point = tuple(point)
        if len(point) != width:
            raise ValueError(f"point has length {len(point)}, expected {width}")
        total = 0j
        try:
            for exps, c in terms:
                value = c
                for x, e in zip(point, exps):
                    if e:
                        value *= x**e
                total += value
        except OverflowError as exc:
            raise ValueError(f"evaluation at {point} overflows the floats") from exc
        return total

    return evaluate


def _flow_input(symbol: PhaseSpacePolynomial, time, points) -> tuple:
    """The time as a float and the points as lists of floats, or ``ValueError``.

    The symbol must be real to ``tolerance_bound(1e-12, ...)`` of its
    largest coefficient, the time finite, and every point 2n finite
    coordinates.
    """
    if symbol.max_imag_coeff() > tolerance_bound(1e-12, symbol.max_abs_coeff()):
        raise ValueError("flow generators must have real-valued symbols")
    t = float(time)
    if not math.isfinite(t):
        raise ValueError(f"flow time must be finite, not {time!r}")
    points = [[float(c) for c in point] for point in points]
    for x in points:
        if len(x) != 2 * symbol.dimension:
            raise ValueError(f"point has length {len(x)}, expected {2 * symbol.dimension}")
        if not all(map(math.isfinite, x)):
            raise ValueError(f"point {tuple(x)} has a non-finite coordinate")
    return t, points


def multiplication_flow(symbol: PhaseSpacePolynomial, time, points) -> list:
    """The multipliers exp(t*u(x)) of the flow exp(t Mul_u); bad input or an overflow raises ``ValueError``."""
    t, points = _flow_input(symbol, time, points)
    exponents = [t * symbol(x).real for x in points]
    if not all(e <= 700.0 for e in exponents):  # also refuses NaN
        raise ValueError("multiplication flow overflows the exponential")
    return [math.exp(e) for e in exponents]


def liouville_flow(symbol: PhaseSpacePolynomial, time, points) -> list:
    """The points moved by the flow exp(t Der_u), as tuples.

    Integrates Hamilton's equations of the symbol (dq/dt = du/dp,
    dp/dt = -du/dq) with fixed-step RK4 in ``|t| / DEFAULT_FLOW_STEP``
    steps rounded up, at least one; for quadratic symbols this reproduces
    the exact linear symplectic map to integrator accuracy.  Bad input (see
    ``_flow_input``), a flow time that needs over ``MAX_FLOW_STEPS`` steps,
    and a flow that leaves the floats raise ``ValueError``.
    """
    t, points = _flow_input(symbol, time, points)
    span = abs(t) / DEFAULT_FLOW_STEP
    if span > MAX_FLOW_STEPS:
        raise ValueError(f"flow time {t!r} needs over {MAX_FLOW_STEPS} steps of {DEFAULT_FLOW_STEP}")
    steps = max(1, math.ceil(span))
    n = symbol.dimension
    dq = [_evaluator(symbol.diff(n + i)) for i in range(n)]  # du/dp_i
    dp = [_evaluator(symbol.diff(i)) for i in range(n)]  # du/dq_i

    def velocity(x):
        return [d(x).real for d in dq] + [-d(x).real for d in dp]

    h = t / steps
    mapped = []
    for x in points:
        for _ in range(steps):
            k1 = velocity(x)
            k2 = velocity([a + 0.5 * h * b for a, b in zip(x, k1)])
            k3 = velocity([a + 0.5 * h * b for a, b in zip(x, k2)])
            k4 = velocity([a + h * b for a, b in zip(x, k3)])
            x = [
                a + h * (b1 + 2 * b2 + 2 * b3 + b4) / 6
                for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)
            ]
            if not all(math.isfinite(c) for c in x):
                raise ValueError("flow integration produced non-finite values")
        mapped.append(tuple(x))
    return mapped


def gibbs_oscillator_kernel(mass: float, frequency: float, temperature: float) -> GaussianKernel:
    """Gaussian kernel of the classical Gibbs state of a harmonic oscillator.

    For H = p^2/2m + m w^2 q^2 / 2 at temperature kT the equilibrium
    covariances are (q,q) = kT/(m w^2), (p,p) = m kT, (q,p) = 0.
    """
    if mass <= 0 or frequency <= 0 or temperature <= 0:
        raise ValueError("mass, frequency, and temperature must be positive")
    stiffness = mass * frequency**2
    qq = temperature / stiffness if stiffness else math.inf
    pp = mass * temperature
    if not (0 < qq < math.inf and 0 < pp < math.inf):
        raise ValueError("the variances kT/(m w^2) and m kT must be finite and positive")
    return GaussianKernel(["q", "p"], [[qq, 0.0], [0.0, pp]])
