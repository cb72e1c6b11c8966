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
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .algebra import LinearCombination
from .gaussian import GaussianKernel, tolerance_bound

DEFAULT_FLOW_STEP = 1e-3
# Most RK4 steps ``liouville_flow`` takes per point, default or explicit; at the
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
        result = super()._like(terms)
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

    def __sub__(self, other):
        self._check_dimension(other)
        return super().__sub__(other)

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
    exponent ``(a + c - e_i, b + d - e_i)``.  The exponent sum and the
    coefficient product are formed only for pairs with a nonzero weight.
    """
    u._check_dimension(v)
    n = u.dimension
    axes = range(n)
    right = v.terms.items()
    out = {}
    get = out.get
    for ea, ca in u.terms.items():
        for eb, cb in right:
            product = None
            for i in axes:
                weight = ea[i] * eb[n + i] - ea[n + i] * eb[i]
                if weight:
                    if product is None:
                        product = [x + y for x, y in zip(ea, eb)]
                        coeff = ca * cb
                    lowered = list(product)
                    lowered[i] -= 1
                    lowered[n + i] -= 1
                    key = tuple(lowered)
                    out[key] = get(key, 0j) + weight * coeff
    return u._like(out)


def bracket_residuals(u, v, f):
    """Residual polynomials of the three commutation relations applied to f, and of Jacobi.

    With Mul_u f = u*f and Der_u f = {u, f}, returns
    ([Mul_u, Mul_v] f,
     ([Der_u, Mul_v] - Mul_{u,v}) f,
     ([Der_u, Der_v] - Der_{u,v}) f,
     {u, {v, f}} + {v, {f, u}} + {f, {u, v}});
    all four must vanish identically.  Each bracket is formed once.
    """
    uv, uf, vf = poisson(u, v), poisson(u, f), poisson(v, f)
    u_vf = poisson(u, vf)
    r1 = u * (v * f) - v * (u * f)
    r2 = poisson(u, v * f) - v * uf - uv * f
    r3 = u_vf - poisson(v, uf) - poisson(uv, f)
    jacobi = u_vf + poisson(v, poisson(f, u)) + poisson(f, uv)
    return r1, r2, r3, jacobi


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


def liouville_flow(symbol: PhaseSpacePolynomial, time, points, steps: int | None = None) -> list:
    """The points moved by the flow exp(t Der_u), as tuples.

    Integrates Hamilton's equations of the symbol (dq/dt = du/dp,
    dp/dt = -du/dq) with fixed-step RK4; for quadratic symbols this
    reproduces the exact linear symplectic map to integrator accuracy.
    Bad input (see ``_flow_input``), a step count (``steps``, or
    ``|t| / DEFAULT_FLOW_STEP`` rounded up) that is not an integer from 1
    to ``MAX_FLOW_STEPS``, and a flow that leaves the floats raise
    ``ValueError``.
    """
    t, points = _flow_input(symbol, time, points)
    if steps is None:
        span = abs(t) / DEFAULT_FLOW_STEP
        if span > MAX_FLOW_STEPS:
            raise ValueError(f"flow time {t!r} needs over {MAX_FLOW_STEPS} steps of {DEFAULT_FLOW_STEP}")
        steps = max(1, math.ceil(span))
    elif not (_is_integer(steps) and 1 <= steps <= MAX_FLOW_STEPS):
        raise ValueError(f"steps must be an integer from 1 to {MAX_FLOW_STEPS}, not {steps!r}")
    n = symbol.dimension
    dq = [symbol.diff(n + i) for i in range(n)]  # du/dp_i
    dp = [symbol.diff(i) for i in range(n)]  # du/dq_i

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
