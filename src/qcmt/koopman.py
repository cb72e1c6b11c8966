"""Phase-space polynomials, Poisson brackets, and Koopman operator pairs.

Two operator families act on functions over a 2n-dimensional phase space:
multiplication operators (one per symbol u, acting f -> u*f) and Poisson
derivations (acting f -> {u, f}).  Multiplication operators commute among
themselves; the commutator of a derivation with a multiplication operator
is the multiplication operator of the bracket, and derivations close under
the bracket.  Exponentiating derivations gives canonical flows, while
exponentiating multiplication operators rescales pointwise, a
non-canonical transformation.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .algebra import LinearCombination
from .gaussian import GaussianKernel, tolerance_bound

MULTIPLICATION = "multiplication"
LIOUVILLE = "liouville"

DEFAULT_FLOW_STEP = 1e-3
# Most RK4 steps ``flow_sample`` takes per point, default or explicit; at the
# default step it bounds the flow time by 1000.
MAX_FLOW_STEPS = 10**6


def _is_integer(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _dimension(value) -> int:
    """A phase-space dimension as a Python int; anything but a positive integer raises."""
    if not _is_integer(value) or value < 1:
        raise ValueError(f"phase space dimension must be a positive integer, not {value!r}")
    return int(value)


class PhaseSpacePolynomial(LinearCombination):
    """Complex-coefficient polynomial in canonical coordinates q_1..q_n, p_1..p_n.

    Terms map exponent tuples ``(a_1..a_n, b_1..b_n)`` for ``q^a p^b`` to
    coefficients.  The ring operations are the algebra's, with exponent
    addition as the word product.  Only exact zeros are pruned, so
    integer-coefficient arithmetic cancels exactly and residual checks can
    demand literal zero.  The constructor validates its input once: the
    dimension must be a positive integer and every exponent a non-negative
    one (Python or numpy, never bool).  Ring results are built without
    re-validation.
    """

    __slots__ = ("dimension",)

    tol = 0.0

    def __init__(self, dimension: int, terms=None):
        dimension = _dimension(dimension)
        width = 2 * dimension
        merged = {}
        if terms:
            for exps, c in terms.items():
                if not (
                    isinstance(exps, tuple)
                    and len(exps) == width
                    and all(_is_integer(e) and e >= 0 for e in exps)
                ):
                    raise ValueError(f"exponent key {exps!r} is not {width} non-negative integers")
                exps = tuple(map(int, exps))
                merged[exps] = merged.get(exps, 0j) + complex(c)
        super().__init__(merged)
        self.dimension = dimension

    def _like(self, terms):
        # Ring results are valid by construction: sums of valid exponent
        # tuples, or tuples lowered only where both entries are >= 1.
        result = object.__new__(PhaseSpacePolynomial)
        LinearCombination.__init__(result, terms)
        result.dimension = self.dimension
        return result

    @staticmethod
    def _word_product(left, right):
        return tuple(map(operator.add, left, right))

    @staticmethod
    def _word_adjoint(w):
        return w

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

    # ring structure -------------------------------------------------------
    def _check_dimension(self, other):
        if isinstance(other, PhaseSpacePolynomial) and self.dimension != other.dimension:
            raise ValueError(
                f"dimension mismatch: {self.dimension} vs {other.dimension}"
            )

    def __add__(self, other):
        self._check_dimension(other)
        return super().__add__(other)

    def __mul__(self, other):
        self._check_dimension(other)
        return super().__mul__(other)

    def __eq__(self, other):
        if isinstance(other, PhaseSpacePolynomial) and self.dimension != other.dimension:
            return False
        return super().__eq__(other)

    # calculus -------------------------------------------------------------
    def diff(self, var: int) -> "PhaseSpacePolynomial":
        """Partial derivative along flat coordinate ``var`` in 0..2n-1."""
        if not 0 <= var < 2 * self.dimension:
            raise ValueError(f"variable {var} out of range")
        out = {}
        for exps, c in self.terms.items():
            e = exps[var]
            if e == 0:
                continue
            lowered = tuple(x - 1 if s == var else x for s, x in enumerate(exps))
            out[lowered] = out.get(lowered, 0j) + e * c
        return self._like(out)

    def __call__(self, point) -> complex:
        """Evaluate at a flat point (q_1..q_n, p_1..p_n); an overflow raises ``ValueError``."""
        point = tuple(point)
        if len(point) != 2 * self.dimension:
            raise ValueError(f"point has length {len(point)}, expected {2 * self.dimension}")
        total = 0j
        try:
            for exps, c in self.terms.items():
                value = c
                for x, e in zip(point, exps):
                    if e:
                        value *= x**e
                total += value
        except OverflowError as exc:
            raise ValueError(f"evaluation at {point} overflows the floats") from exc
        return total

    # inspection -------------------------------------------------------------
    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def max_imag_coeff(self) -> float:
        if not self.terms:
            return 0.0
        return max(abs(c.imag) for c in self.terms.values())

    def __repr__(self):
        if not self.terms:
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


def poisson(u: PhaseSpacePolynomial, v: PhaseSpacePolynomial) -> PhaseSpacePolynomial:
    """Canonical Poisson bracket {u, v} = sum_i du/dq_i dv/dp_i - du/dp_i dv/dq_i.

    One pass over term pairs: for ``q^a p^b`` with ``q^c p^d``, axis i adds
    ``(a_i d_i - b_i c_i)`` times both coefficients to the term with
    exponent ``(a + c - e_i, b + d - e_i)``.
    """
    u._check_dimension(v)
    n = u.dimension
    out = {}
    for ea, ca in u.terms.items():
        for eb, cb in v.terms.items():
            product = [x + y for x, y in zip(ea, eb)]
            for i in range(n):
                weight = ea[i] * eb[n + i] - ea[n + i] * eb[i]
                if weight:
                    lowered = list(product)
                    lowered[i] -= 1
                    lowered[n + i] -= 1
                    key = tuple(lowered)
                    out[key] = out.get(key, 0j) + weight * (ca * cb)
    return u._like(out)


class KoopmanOperator:
    """Multiplication operator or Poisson derivation with a polynomial symbol."""

    __slots__ = ("kind", "symbol")

    def __init__(self, kind: str, symbol: PhaseSpacePolynomial):
        if kind not in (MULTIPLICATION, LIOUVILLE):
            raise ValueError(f"unknown operator kind {kind!r}")
        self.kind = kind
        self.symbol = symbol

    @classmethod
    def multiplication(cls, symbol: PhaseSpacePolynomial) -> "KoopmanOperator":
        """Operator acting by pointwise multiplication with the symbol."""
        return cls(MULTIPLICATION, symbol)

    @classmethod
    def liouville(cls, symbol: PhaseSpacePolynomial) -> "KoopmanOperator":
        """Derivation f -> {u, f} generated by the symbol u."""
        return cls(LIOUVILLE, symbol)

    def apply(self, f: PhaseSpacePolynomial) -> PhaseSpacePolynomial:
        self.symbol._check_dimension(f)
        if self.kind == MULTIPLICATION:
            return self.symbol * f
        return poisson(self.symbol, f)

    def __repr__(self):
        return f"KoopmanOperator({self.kind!r}, {self.symbol!r})"


def bracket_residuals(u, v, f):
    """Residual polynomials of the three commutation relations, applied to f.

    Returns ([Mul_u, Mul_v] f,
             ([Der_u, Mul_v] - Mul_{u,v}) f,
             ([Der_u, Der_v] - Der_{u,v}) f);
    all three must vanish identically.
    """
    u._check_dimension(v)
    u._check_dimension(f)
    yu = KoopmanOperator.multiplication(u)
    yv = KoopmanOperator.multiplication(v)
    zu = KoopmanOperator.liouville(u)
    zv = KoopmanOperator.liouville(v)
    uv = poisson(u, v)
    r1 = yu.apply(yv.apply(f)) - yv.apply(yu.apply(f))
    r2 = zu.apply(yv.apply(f)) - yv.apply(zu.apply(f)) - uv * f
    r3 = zu.apply(zv.apply(f)) - zv.apply(zu.apply(f)) - poisson(uv, f)
    return r1, r2, r3


@dataclass(frozen=True)
class FlowSpec:
    """One-parameter flow generated by a Koopman operator for a given time."""

    generator: KoopmanOperator
    time: float


def _require_real_symbol(symbol: PhaseSpacePolynomial):
    if symbol.max_imag_coeff() > tolerance_bound(1e-12, symbol.max_abs_coeff()):
        raise ValueError("flow generators must have real-valued symbols")


def flow_sample(spec: FlowSpec, points, steps: int | None = None):
    """Sample the exponentiated operator on phase-space points.

    Derivation flows integrate Hamilton's equations of the symbol
    (dq/dt = du/dp, dp/dt = -du/dq) with fixed-step RK4 and return the
    mapped points; for quadratic symbols this reproduces the exact linear
    symplectic map to integrator accuracy.  Multiplication flows return the
    pointwise multipliers exp(t*u).  A non-finite time or coordinate, a
    step count (``steps``, or ``|t| / DEFAULT_FLOW_STEP`` rounded up) that
    is not an integer from 1 to ``MAX_FLOW_STEPS``, and a flow that leaves
    the floats raise ``ValueError``.
    """
    op = spec.generator
    _require_real_symbol(op.symbol)
    n = op.symbol.dimension
    t = float(spec.time)
    if not math.isfinite(t):
        raise ValueError(f"flow time must be finite, not {spec.time!r}")
    if steps is None:
        span = abs(t) / DEFAULT_FLOW_STEP
        if span > MAX_FLOW_STEPS:
            raise ValueError(f"flow time {t!r} needs over {MAX_FLOW_STEPS} steps of {DEFAULT_FLOW_STEP}")
        steps = max(1, math.ceil(span))
    elif not (_is_integer(steps) and 1 <= steps <= MAX_FLOW_STEPS):
        raise ValueError(f"steps must be an integer from 1 to {MAX_FLOW_STEPS}, not {steps!r}")
    points = [[float(c) for c in point] for point in points]
    for x in points:
        if len(x) != 2 * n:
            raise ValueError(f"point has length {len(x)}, expected {2 * n}")
        if not all(map(math.isfinite, x)):
            raise ValueError(f"point {tuple(x)} has a non-finite coordinate")

    if op.kind == MULTIPLICATION:
        return [_bounded_exp(t * op.symbol(x).real) for x in points]

    dq = [op.symbol.diff(n + i) for i in range(n)]  # du/dp_i
    dp = [op.symbol.diff(i) for i in range(n)]  # du/dq_i

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


def _bounded_exp(x: float) -> float:
    if not x <= 700.0:  # also refuses NaN
        raise ValueError("multiplication flow overflows the exponential")
    return math.exp(x)


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
