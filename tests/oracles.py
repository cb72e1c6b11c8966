"""Independent oracles used by the test suite.

Each helper recomputes a quantity along a different route than the
implementation under test: explicit perfect-matching enumeration for Wick
moments, the generating series over exponent tuples and finite
differences of the generating function, sympy symbolic brackets and
brackets assembled from derivative polynomials, the bracket relations
written with the ring's operators, matrix exponentials for
quadratic flows, the element E^dagger E multiplied out word by word and
evaluated segment by segment by matching enumeration against y^H G_2 y over
the degree-2 Gram matrix, ring results and derivatives rebuilt
term by term through the validating constructors, the dict-of-words ring
that the packed word ring replaced (``DictAlgebraElement``,
``DictExtendedElement``), the Gram matrix filled entry by entry through
``word_expect``, one coded word per entry (``gram_by_word_expect``),
direct position-space
packet evaluation for Fourier conventions, and two momentum-space routes
for field kernels:
a fixed Simpson grid in k and adaptive ``quad`` in k, one pair at a time.
The production kernels integrate over the rapidity theta instead
(k = m sinh theta), with the trapezoid rule on a halved uniform grid, so
neither route shares its variable, its rule or its error control.
"""

import math
from itertools import product

import numpy as np
from scipy import integrate
from scipy.linalg import expm

from qcmt.fields import PoincareElement, poincare_act
from qcmt.gaussian import generating_function
from qcmt.koopman import PhaseSpacePolynomial, poisson
from qcmt.algebra import TERM_TOLERANCE, word_adjoint
from qcmt.vacuum import ExtendedElement, normalize_segments


def probe_value_by_products(state, element):
    """Re rho(E^dagger E) for an ``ExtendedElement`` E, multiplied out term by term.

    Each word of E^dagger E is reversed and glued by ``_reverse`` and
    ``_glue``, without normal form, and evaluated as the product of
    ``wick_by_matchings`` over its segments: rho(s_0 V s_1 ... V s_k) =
    prod rho(s_i), and an empty segment gives 1.  No extended ring and no
    moment engine run; ``verify.check_extended_positivity`` instead reads
    y^H G_2 y off the degree-2 Gram matrix.
    """
    value = 0j
    for wa, ca in element.terms.items():
        for wb, cb in element.terms.items():
            segments = _glue(element, _reverse(element, wa), wb)
            value += ca.conjugate() * cb * math.prod(wick_by_matchings(state, s) for s in segments)
    return value.real


def _rebuild(like, pairs):
    """(word, coefficient) pairs summed per word, then passed to the validating
    constructor of ``like``'s class, which converts, normalizes and prunes."""
    terms = {}
    for w, c in pairs:
        terms[w] = terms.get(w, 0j) + c
    if isinstance(like, PhaseSpacePolynomial):
        return type(like)(like.dimension, terms)
    return type(like)(terms)


def _glue(x, left, right):
    """Word product left to the constructor: exponent sums, or concatenation,
    joining the last segment of ``left`` to the first of ``right``."""
    if isinstance(x, PhaseSpacePolynomial):
        return tuple(a + b for a, b in zip(left, right))
    if isinstance(x, ExtendedElement):
        return left[:-1] + (left[-1] + right[0],) + right[1:]
    return left + right


def _reverse(x, w):
    """Word adjoint: exponents stay; letters, and segments, are reversed and involved."""
    if isinstance(x, PhaseSpacePolynomial):
        return w
    if isinstance(x, ExtendedElement):
        return tuple(tuple(i.involve() for i in reversed(s)) for s in reversed(w))
    return tuple(i.involve() for i in reversed(w))


def sum_by_terms(x, y):
    return _rebuild(x, [*x.terms.items(), *y.terms.items()])


def difference_by_terms(x, y):
    return _rebuild(x, [*x.terms.items(), *((w, -c) for w, c in y.terms.items())])


def negation_by_terms(x):
    return _rebuild(x, [(w, -c) for w, c in x.terms.items()])


def scalar_multiple_by_terms(x, scalar):
    return _rebuild(x, [(w, c * scalar) for w, c in x.terms.items()])


def derivative_by_terms(x, var):
    """d/dx_var term by term: ``e * c`` at the key with exponent e on ``var`` lowered by one."""
    return _rebuild(x, [(w[:var] + (w[var] - 1,) + w[var + 1:], w[var] * c)
                        for w, c in x.terms.items() if w[var]])


def product_by_terms(x, y):
    return _rebuild(
        x, [(_glue(x, wa, wb), ca * cb) for wa, ca in x.terms.items() for wb, cb in y.terms.items()]
    )


def adjoint_by_terms(x):
    return _rebuild(x, [(_reverse(x, w), c.conjugate()) for w, c in x.terms.items()])


def poisson_by_terms(u, v):
    """{u, v} term pair by term pair and axis by axis: ``q^a p^b`` with ``q^c p^d``
    gives (a_i d_i - b_i c_i) times both coefficients at exponent a + c - e_i, b + d - e_i."""
    n = u.dimension
    pairs = []
    for ea, ca in u.terms.items():
        for eb, cb in v.terms.items():
            for i in range(n):
                weight = ea[i] * eb[n + i] - ea[n + i] * eb[i]
                if weight:
                    key = [a + b for a, b in zip(ea, eb)]
                    key[i] -= 1
                    key[n + i] -= 1
                    pairs.append((tuple(key), weight * (ca * cb)))
    return _rebuild(u, pairs)


class DictCombination:
    """The word ring as a dict from word to Python complex coefficient, one element.

    Sums and products add like terms in the order the dict meets them, a
    product starting from 0j; every result prunes coefficients of magnitude
    at most ``TERM_TOLERANCE`` and keeps a NaN.  Subclasses give the word
    product and the word adjoint.
    """

    def __init__(self, terms=None):
        self.terms = {}
        for w, c in (terms or {}).items():
            c = complex(c)
            if not abs(c) <= TERM_TOLERANCE:
                self.terms[w] = c

    def _like(self, terms):
        result = type(self)()
        result.terms = {w: c for w, c in terms.items() if not abs(c) <= TERM_TOLERANCE}
        return result

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0j) + c
        return self._like(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0j) - c
        return self._like(out)

    def __neg__(self):
        return self._like({w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, DictCombination):
            out = {}
            for wa, ca in self.terms.items():
                for wb, cb in other.terms.items():
                    w = self._word_product(wa, wb)
                    out[w] = out.get(w, 0j) + ca * cb
            return self._like(out)
        return self._like({w: complex(c * other) for w, c in self.terms.items()})

    def adjoint(self):
        return self._like({self._word_adjoint(w): c.conjugate() for w, c in self.terms.items()})


class DictAlgebraElement(DictCombination):
    """The free algebra: words are tuples of ``Index``, the product concatenates."""

    @staticmethod
    def _word_product(left, right):
        return left + right

    @staticmethod
    def _word_adjoint(w):
        return word_adjoint(w)


class DictExtendedElement(DictCombination):
    """The projector extension: words are tuples of segments in ``normalize_segments`` form."""

    def __init__(self, terms=None):
        merged = {}
        for segments, c in (terms or {}).items():
            w = normalize_segments(segments)
            merged[w] = merged.get(w, 0j) + complex(c)
        super().__init__(merged)

    @staticmethod
    def _word_product(left, right):
        return normalize_segments(left[:-1] + (left[-1] + right[0],) + right[1:])

    @staticmethod
    def _word_adjoint(w):
        return normalize_segments(tuple(word_adjoint(s) for s in reversed(w)))


def wick_by_matchings(kernel, word):
    """Wick moment by enumerating all (N-1)!! perfect matchings, no memo.

    Sums the product of contractions (i_m^c, i_n), m < n, matching by
    matching, straight from ``kernel.pairing``.
    """
    n = len(word)
    if n % 2:
        return 0j
    conj = [i.involve() for i in word]

    def matchings(positions):
        if not positions:
            yield 1 + 0j
            return
        first, rest = positions[0], positions[1:]
        for t, partner in enumerate(rest):
            factor = kernel.pairing(conj[first], word[partner])
            if factor == 0:
                continue
            remaining = rest[:t] + rest[t + 1 :]
            for sub in matchings(remaining):
                yield factor * sub

    return sum(matchings(tuple(range(n))), 0j)


def gram_by_word_expect(basis, state):
    """G_ab = rho(w_a^dagger w_b), each entry one ``state.word_expect`` call on the joined word.

    The per-entry fill that ``gns.gram`` replaced: every entry codes its
    whole word again, where the production fill codes each basis word and
    each adjoint once.
    """
    words = basis.words
    g = np.empty((len(words), len(words)), dtype=complex)
    for a, left in enumerate(map(word_adjoint, words)):
        g[a] = [state.word_expect(left + wb) for wb in words]
    return g


def _tuple_series_multiply(left, right):
    """Product of truncated multivariate polynomials over exponent tuples.

    Any monomial with an exponent above one is dropped: it can never reach
    the multilinear target monomial lambda_1 ... lambda_n again.
    """
    out = {}
    for ea, ca in left.items():
        for eb, cb in right.items():
            exps = tuple(x + y for x, y in zip(ea, eb))
            if any(x > 1 for x in exps):
                continue
            out[exps] = out.get(exps, 0j) + ca * cb
    return out


def series_by_exponent_tuples(kernel, w):
    """Moment of a word as the lambda_1 ... lambda_N coefficient of exp(Q).

    Every order of the power series is expanded over exponent tuples, the
    diagonal lambda_m^2 terms included until the truncation drops them.
    The production ``moment_from_generating_series`` is the same series over
    bitmasks and must agree bit for bit.
    """
    n = len(w)
    if n == 0:
        return 1 + 0j
    conj = [i.involve() for i in w]
    zero = (0,) * n
    quad = {}
    for m in range(n):
        for t in range(m, n):
            if m == t:
                coeff = -kernel.pairing(conj[m], w[m]) / 2
                exps = tuple(2 if s == m else 0 for s in range(n))
            else:
                coeff = -kernel.pairing(conj[m], w[t])
                exps = tuple(1 if s in (m, t) else 0 for s in range(n))
            if any(x > 1 for x in exps):
                continue
            if coeff != 0:
                quad[exps] = quad.get(exps, 0j) + coeff
    series = {zero: 1 + 0j}
    power = {zero: 1 + 0j}
    factorial = 1.0
    for order in range(1, n + 1):
        power = _tuple_series_multiply(power, quad)
        if not power:
            break
        factorial *= order
        for exps, c in power.items():
            series[exps] = series.get(exps, 0j) + c / factorial
    target = (1,) * n
    return series.get(target, 0j) / (1j) ** n


def fd_word_moment(kernel, word, h=0.08):
    """Mixed partial of the generating function at zero by central differences.

    Alternating-sign corner sums at three step sizes, Richardson-extrapolated
    twice; accurate to roughly 1e-7 for words up to length four.
    """
    n = len(word)
    if n == 0:
        return 1 + 0j

    def corner_sum(step):
        total = 0j
        for signs in product((-1.0, 1.0), repeat=n):
            value = generating_function(kernel, word, [s * step for s in signs])
            total += math.prod(signs) * value
        return total / (2.0 * step) ** n

    a = corner_sum(h)
    b = corner_sum(h / 2)
    c = corner_sum(h / 4)
    r1 = (4 * b - a) / 3
    r2 = (4 * c - b) / 3
    return ((16 * r2 - r1) / 15) / (1j) ** n


def sympy_poisson(u, v):
    """Poisson bracket through sympy differentiation, as a coefficient dict."""
    import sympy

    n = u.dimension
    symbols = sympy.symbols(f"x0:{2 * n}")

    def lift(poly):
        expr = sympy.Integer(0)
        for exps, coeff in poly.terms.items():
            term = sympy.nsimplify(complex(coeff), rational=True)
            for s, e in zip(symbols, exps):
                term *= s**e
            expr += term
        return expr

    eu, ev = lift(u), lift(v)
    bracket = sympy.Integer(0)
    for i in range(n):
        bracket += sympy.diff(eu, symbols[i]) * sympy.diff(ev, symbols[n + i])
        bracket -= sympy.diff(eu, symbols[n + i]) * sympy.diff(ev, symbols[i])
    poly = sympy.Poly(sympy.expand(bracket), *symbols) if bracket != 0 else None
    out = {}
    if poly is not None:
        for exps, coeff in poly.terms():
            out[tuple(int(e) for e in exps)] = complex(coeff)
    return out


def poisson_by_derivatives(u, v):
    """Poisson bracket as sum_i du/dq_i * dv/dp_i - du/dp_i * dv/dq_i.

    Builds the 4n derivative polynomials with ``diff`` and combines them
    with the ring's ``*``, ``+`` and ``-``, one axis at a time.
    """
    n = u.dimension
    out = type(u).zero(n)
    for i in range(n):
        out = out + u.diff(i) * v.diff(n + i) - u.diff(n + i) * v.diff(i)
    return out


def bracket_residuals_by_operators(u, v, f):
    """``koopman.bracket_residuals`` term by term through ``*``, ``poisson``, ``+`` and ``-``:
    every product, bracket, sum and difference is its own ``summed`` batch."""
    r1 = u * (v * f) - v * (u * f)
    r2 = poisson(u, v * f) - v * poisson(u, f) - poisson(u, v) * f
    r3 = poisson(u, poisson(v, f)) - poisson(v, poisson(u, f)) - poisson(poisson(u, v), f)
    jacobi = poisson(u, poisson(v, f)) + poisson(v, poisson(f, u)) + poisson(f, poisson(u, v))
    return r1, r2, r3, jacobi


def exact_quadratic_flow(symbol, time, point):
    """Exact flow of a (possibly affine) quadratic Hamiltonian via expm."""
    n = symbol.dimension
    width = 2 * n
    zero = (0,) * width
    hess = np.zeros((width, width))
    lin = np.zeros(width)
    for r in range(width):
        lin[r] = complex(symbol.diff(r).terms.get(zero, 0)).real
        for s in range(width):
            hess[r, s] = complex(symbol.diff(r).diff(s).terms.get(zero, 0)).real
    sympl = np.zeros((width, width))
    sympl[:n, n:] = np.eye(n)
    sympl[n:, :n] = -np.eye(n)
    gen = np.zeros((width + 1, width + 1))
    gen[:width, :width] = sympl @ hess
    gen[:width, width] = sympl @ lin
    state = np.append(np.asarray(point, dtype=float), 1.0)
    return (expm(time * gen) @ state)[:width]


def packet_value(packet, t, x):
    """Position-space value of a wavepacket, straight from the parameters."""
    total = 0j
    for c in packet.components:
        ch = math.cosh(c.rapidity)
        sh = math.sinh(c.rapidity)
        tb = ch * t - sh * x
        xb = ch * x - sh * t
        dt = tb - c.center[0]
        dx = xb - c.center[1]
        envelope = np.exp(-(dt * dt + dx * dx) / c.width**2)
        phase = np.exp(-1j * (c.wavevector[0] * tb - c.wavevector[1] * xb))
        total += c.amplitude * envelope * phase
    return total


def grid_fourier(packet, omega, k, half_width=14.0, points=701):
    """Fourier transform by two-dimensional Simpson on a dense grid."""
    t = np.linspace(-half_width, half_width, points)
    x = np.linspace(-half_width, half_width, points)
    tt, xx = np.meshgrid(t, x, indexing="ij")
    values = packet_value(packet, tt, xx) * np.exp(1j * (omega * tt - k * xx))
    inner = integrate.simpson(values, x=x, axis=1)
    return integrate.simpson(inner, x=t)


def simpson_pairing(spec, f, g, half_width=40.0, points=20001):
    """Kernel pairing on a fixed Simpson grid, independent of adaptive quad."""
    k = np.linspace(-half_width, half_width, points)
    w = np.sqrt(k * k + spec.mass**2)
    plus = np.conj(f.fourier(w, k)) * g.fourier(w, k)
    values = plus.astype(complex)
    if math.isfinite(spec.beta):
        arg = spec.beta * spec.hbar * w
        occupation = np.where(arg < 700.0, 1.0 / np.expm1(np.minimum(arg, 700.0)), 0.0)
        minus = np.conj(f.fourier(-w, k)) * g.fourier(-w, k)
        values = (1.0 + occupation) * plus + occupation * minus
    values = spec.hbar * values / (4 * math.pi * w)
    return complex(integrate.simpson(values, x=k))


def _envelope(packet, omega, k):
    """Upper bound on |F(omega, k)|: the phase-free Gaussian envelopes."""
    total = 0.0
    for c in packet.components:
        ch = math.cosh(c.rapidity)
        sh = math.sinh(c.rapidity)
        dw = omega * ch - k * sh - c.wavevector[0]
        dk = k * ch - omega * sh - c.wavevector[1]
        sigma2 = c.width**2
        total += abs(c.amplitude) * math.pi * sigma2 * math.exp(-sigma2 * (dw * dw + dk * dk) / 4)
    return total


def quad_pairing(spec, f, g, floor=1e-16):
    """Kernel pairing by adaptive ``quad`` over k, one pair at a time.

    The cutoff grows from a reach that covers every shell peak until the
    integrand's envelope bound falls under ``floor`` of its largest value.
    Thermal pairings boost both packets into the rest frame first.  Known
    weakness: for pairs boosted beyond |eta| of about 2, ``quad``
    under-resolves the squeezed integrand while its error estimate stays
    small, so keep this oracle to moderate rapidities.
    """
    m = spec.mass
    thermal = math.isfinite(spec.beta)
    if thermal:
        ut, ux = spec.rest_frame
        into_frame = PoincareElement.boost(-math.atanh(ux / ut))
        f, g = poincare_act(into_frame, f), poincare_act(into_frame, g)

    def occupation(w):
        x = spec.beta * spec.hbar * w
        return 0.0 if not thermal or x > 700.0 else 1.0 / math.expm1(x)

    def integrand(k, pair):
        w = math.sqrt(k * k + m * m)
        n = occupation(w)
        value = (1.0 + n) * pair(f, g, w, k)
        if n:
            value += n * pair(f, g, -w, k)
        return spec.hbar * value / (4 * math.pi * w)

    def exact(a, b, w, k):
        return np.conj(a.fourier(w, k)) * b.fourier(w, k)

    def bound(a, b, w, k):
        return _envelope(a, w, k) * _envelope(b, w, k)

    reach = 10.0 + 4.0 * m
    for c in f.components + g.components:
        stretch = math.exp(abs(c.rapidity))
        spread = abs(c.wavevector[0]) + abs(c.wavevector[1]) + m + 8.0 / c.width
        reach = max(reach, stretch * spread + 4.0)
    peak = max(max(integrand(k, bound) for k in np.linspace(-reach, reach, 81)), 1e-300)
    limit = reach
    while max(integrand(limit, bound), integrand(-limit, bound)) > floor * peak:
        limit *= 1.4
    parts = [
        integrate.quad(
            lambda k: part(integrand(k, exact)), -limit, limit, limit=400, epsabs=1e-12, epsrel=1e-10
        )[0]
        for part in (np.real, np.imag)
    ]
    return complex(*parts)
