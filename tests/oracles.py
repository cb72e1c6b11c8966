"""Independent oracles used by the test suite.

Each helper recomputes a quantity along a different route than the
implementation under test: explicit perfect-matching enumeration for Wick
moments, finite differences of the generating function,
sympy symbolic brackets, matrix exponentials for quadratic flows,
fixed-grid Simpson quadrature for field kernels, and direct position-space
packet evaluation for Fourier conventions.
"""

import math
from itertools import product

import numpy as np
from scipy import integrate
from scipy.linalg import expm

from qcmt.gaussian import generating_function


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
