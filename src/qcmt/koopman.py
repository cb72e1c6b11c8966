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
``PolynomialBatch``, the phase-space ring on the term-row core
``algebra.TermRows``, which owns its sums, products, scalar multiples
and negation, and groups like terms by its trial prefix over the ring's
``_codes``.  The ring supplies exponent rows as keys and a conjugating
adjoint, and adds the Poisson bracket and derivatives, for one
polynomial or for every trial at once.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .algebra import TermRows, _concatenated, _conjugated, _encoded, _negated, _product, _term_pairs
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


class PolynomialBatch(TermRows):
    """Phase-space polynomials of one dimension, one per trial: the polynomial ring.

    Row k's key column is its exponent row ``exponents[k]`` (width 2n,
    int64) for ``q^a p^b``; its ``_codes`` are the exponents as digits in
    the least power-of-two radix above them all, which the term-row core
    (``algebra.TermRows``) prefixes with the trial to group like terms.
    The sums, products, scalar multiples and negation are the core's.  Two
    operands must have one dimension, a product adds exponent rows, and
    only exact zeros are pruned.  A real or integer factor multiplies as
    the complex ``(w, 0.0)``.  The coordinate functions are real, so the
    adjoint only conjugates coefficients.  The ring adds the Poisson bracket and
    ``diff``; ``of`` embeds polynomials of lower dimension with zero
    exponents on the extra axes, which leaves their products and brackets
    unchanged.
    """

    __slots__ = ("dimension", "exponents")
    tolerance = 0.0

    def _fill(self, dimension, count, trials, exponents, re, im):
        self.dimension, self.count, self.trials = dimension, count, trials
        self.exponents, self.re, self.im = exponents, re, im

    @property
    def _shape(self) -> int:
        return self.dimension

    def _columns(self) -> tuple:
        return self.trials, self.exponents, self.re, self.im

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

    def polynomials(self) -> list:
        """The trials as ``PhaseSpacePolynomial``s of the batch dimension, in trial order."""
        return [PhaseSpacePolynomial._rows(self.dimension, 1, *p._columns()) for p in self.elements()]

    # the ring's hooks -----------------------------------------------------
    @staticmethod
    def _codes(exponents) -> np.ndarray:
        """The exponent rows packed by ``algebra._encoded`` at the least power-of-two radix above
        every exponent; an exponent above ``MAX_EXPONENT`` raises ``ValueError``."""
        highest = int(exponents.max(initial=0))
        if highest > MAX_EXPONENT:
            raise ValueError(f"an exponent of the result exceeds {MAX_EXPONENT}")
        return _encoded(exponents, 1 << highest.bit_length())

    def _aligned(self, other) -> tuple:
        if self.dimension != other.dimension:
            raise ValueError(f"batch mismatch: dimension {self.dimension} vs {other.dimension}")
        return self.dimension, (self.exponents,), (other.exponents,)

    @staticmethod
    def _glued(dimension: int, left, right) -> tuple:
        return (left[0] + right[0],)

    def _row_keys(self):
        return map(tuple, self.exponents.tolist())

    def _adjoint_rows(self):
        """The raw rows of the adjoint: every coefficient conjugated, every key kept."""
        return self._rows(self.dimension, self.count, *_conjugated(self._columns()))

    # what only this ring has ------------------------------------------------
    @np.errstate(invalid="ignore", over="ignore")
    def _poisson_rows(self, other):
        """The raw rows of ``{self, other}``: the term pairs of ``*``, axis minor (``_bracket_rows``)."""
        n, (mine,), (theirs,) = self._paired(other)
        left, right = _term_pairs(self.count, self.trials, other.trials)
        pair, weight, exponents = _bracket_rows(mine[left], theirs[right], n)
        left, right = left[pair], right[pair]
        product = _product(self.re[left], self.im[left], other.re[right], other.im[right])
        return self._rows(n, self.count, self.trials[left], exponents,
                          *_product(weight.astype(float), 0.0, *product))

    def bracket(self, other) -> "PolynomialBatch":
        """{u, v} trial by trial."""
        return self._poisson_rows(other)._combined()

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


class PhaseSpacePolynomial(PolynomialBatch):
    """Complex-coefficient polynomial in canonical coordinates q_1..q_n, p_1..p_n: a batch of one.

    ``terms`` maps exponent tuples ``(a_1..a_n, b_1..b_n)`` for ``q^a p^b``
    to coefficients, read from the rows.  All arithmetic is the batch's.
    Only exact zeros are pruned, so integer-coefficient arithmetic cancels
    exactly and residual checks can demand literal zero.  The constructor
    validates its input once: the dimension must be a positive integer and
    every exponent an integer from 0 to ``MAX_EXPONENT`` (Python or numpy,
    never bool); the terms then go through one ``summed``.  Ring results are built without re-validation; one whose
    exponent would exceed ``MAX_EXPONENT`` raises ``ValueError``, and one
    with a polynomial of another dimension raises ``ValueError`` too.
    """

    __slots__ = ()

    def __init__(self, dimension: int, terms):
        dimension = _dimension(dimension)
        width = 2 * dimension
        for exps in terms:
            if not (
                isinstance(exps, tuple)
                and len(exps) == width
                and all(_is_integer(e) and 0 <= e <= MAX_EXPONENT for e in exps)
            ):
                raise ValueError(
                    f"exponent key {exps!r} is not {width} integers from 0 to {MAX_EXPONENT}"
                )
        coefficients = np.array([complex(c) for c in terms.values()], dtype=complex)
        batch = self.summed(dimension, 1, np.zeros(len(terms), dtype=np.intp),
                            np.array(list(terms), dtype=np.int64).reshape(-1, width),
                            coefficients.real, coefficients.imag)
        self._fill(dimension, 1, *batch._columns())

    # constructors -------------------------------------------------------
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

    def __eq__(self, other):
        if not isinstance(other, PhaseSpacePolynomial):
            return NotImplemented
        return self.dimension == other.dimension and self.terms == other.terms

    def __call__(self, point) -> complex:
        """Evaluate at a flat point (q_1..q_n, p_1..p_n); an overflow raises ``ValueError``."""
        return _evaluator(self)(point)

    # inspection -------------------------------------------------------------
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
    r1 = _residual(u._product_rows(v_times_f), v._product_rows(u_times_f), negate=True)
    r2 = _residual(u._poisson_rows(v_times_f), v._product_rows(uf), uv._product_rows(f), negate=True)
    r3 = _residual(u_vf, v._poisson_rows(uf), uv._poisson_rows(f), negate=True)
    jacobi = _residual(u_vf, v._poisson_rows(fu), f._poisson_rows(uv), negate=False)
    return r1, r2, r3, jacobi


def _residual(first, *rest, negate: bool):
    """One ``summed`` of the raw rows of ``first`` and then of each of ``rest``, those negated
    if ``negate``, in the shape and type of ``first``."""
    rest = [_negated(part._columns()) if negate else part._columns() for part in rest]
    return first._summed(_concatenated(first._columns(), *rest))


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
