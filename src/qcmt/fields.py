"""Two-point kernels of a free scalar field in 1+1 dimensions.

Test functions are finite sums of Gaussian wavepackets.  Conventions,
stated once and used everywhere:

* Fourier transform  F(w, k) = integral dt dx e^{i(w t - k x)} f(t, x).
* A base component with amplitude A, center (t0, x0), width sigma and
  wavevector (w0, k0) is
      f(t, x) = A exp(-((t-t0)^2 + (x-x0)^2)/sigma^2) exp(-i(w0 t - k0 x)),
  so F peaks at (w0, k0) with the 1/e width convention.
* Each component also records the rapidity of the boost that produced it;
  an isotropic Gaussian is not boost-closed, but a boosted one is again a
  stored component, so the Poincare action is an exact parameter map and
  the on-shell Fourier data stays analytic.

The vacuum kernel

    (f, g) = hbar * integral dk / (4 pi w_k) conj(F(w_k, k)) G(w_k, k),
    w_k = sqrt(k^2 + m^2),

is invariant under the full Poincare group with amplitude set by hbar.
The thermal kernel adds Bose occupation n(w) = 1/(e^{beta hbar w} - 1) on
both mass-shell branches in the preferred rest frame, so it is invariant
only under the stabilizer of that frame and its amplitude at high
temperature is set by kT = 1/beta.  Only the k integral is numerical;
everything in (t, x) is analytic.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import Index
from .gaussian import GaussianKernel

logger = logging.getLogger(__name__)

QUADRATURE_TOL = 1e-8
_ENVELOPE_FLOOR = 1e-16


class QuadratureError(RuntimeError):
    """Kernel quadrature failed to converge; carries diagnostics."""

    def __init__(self, message, **diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class PacketComponent:
    """One Gaussian wavepacket component, possibly boosted.

    The stored parameters describe the packet in the frame where its
    envelope is isotropic; ``rapidity`` is the boost applied afterwards.
    """

    amplitude: complex
    center: tuple
    width: float
    wavevector: tuple
    rapidity: float = 0.0

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("packet width must be positive")

    def fourier(self, omega, k):
        """Analytic Fourier transform; accepts scalars or numpy arrays."""
        ch = math.cosh(self.rapidity)
        sh = math.sinh(self.rapidity)
        # momentum covector in the base frame of the component
        wb = omega * ch - k * sh
        kb = k * ch - omega * sh
        t0, x0 = self.center
        w0, k0 = self.wavevector
        dw = wb - w0
        dk = kb - k0
        sigma2 = self.width * self.width
        gauss = np.exp(-sigma2 * (dw * dw + dk * dk) / 4.0)
        phase = np.exp(1j * (dw * t0 - dk * x0))
        return self.amplitude * math.pi * sigma2 * phase * gauss

    def fourier_bound(self, omega, k) -> float:
        """Magnitude of ``fourier``; the phase-free Gaussian envelope."""
        ch = math.cosh(self.rapidity)
        sh = math.sinh(self.rapidity)
        dw = omega * ch - k * sh - self.wavevector[0]
        dk = k * ch - omega * sh - self.wavevector[1]
        sigma2 = self.width * self.width
        return abs(self.amplitude) * math.pi * sigma2 * math.exp(
            -sigma2 * (dw * dw + dk * dk) / 4.0
        )

    def conjugate(self) -> "PacketComponent":
        return PacketComponent(
            amplitude=complex(self.amplitude).conjugate(),
            center=self.center,
            width=self.width,
            wavevector=(-self.wavevector[0], -self.wavevector[1]),
            rapidity=self.rapidity,
        )

    def key(self) -> tuple:
        a = complex(self.amplitude)
        return (
            a.real,
            a.imag,
            self.center[0],
            self.center[1],
            self.width,
            self.wavevector[0],
            self.wavevector[1],
            self.rapidity,
        )


class Wavepacket:
    """Finite sum of Gaussian components; a concrete test-function index.

    Closed under addition, scalar multiplication, complex conjugation, and
    Poincare transformation.
    """

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ValueError("a wavepacket needs at least one component")
        self.components = components

    @classmethod
    def gaussian(cls, amplitude=1.0, center=(0.0, 0.0), width=1.0, wavevector=(0.0, 0.0)):
        return cls(
            [
                PacketComponent(
                    amplitude=complex(amplitude),
                    center=(float(center[0]), float(center[1])),
                    width=float(width),
                    wavevector=(float(wavevector[0]), float(wavevector[1])),
                )
            ]
        )

    def __add__(self, other):
        if not isinstance(other, Wavepacket):
            return NotImplemented
        return Wavepacket(self.components + other.components)

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float, complex)):
            return NotImplemented
        return Wavepacket(
            [
                PacketComponent(
                    amplitude=c.amplitude * scalar,
                    center=c.center,
                    width=c.width,
                    wavevector=c.wavevector,
                    rapidity=c.rapidity,
                )
                for c in self.components
            ]
        )

    __rmul__ = __mul__

    def conjugate(self) -> "Wavepacket":
        return Wavepacket([c.conjugate() for c in self.components])

    def fourier(self, omega, k):
        return sum(c.fourier(omega, k) for c in self.components)

    def fourier_bound(self, omega, k) -> float:
        return sum(c.fourier_bound(omega, k) for c in self.components)

    def key(self) -> tuple:
        return tuple(sorted(c.key() for c in self.components))

    def __eq__(self, other):
        if not isinstance(other, Wavepacket):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Wavepacket({len(self.components)} components)"


@dataclass(frozen=True)
class PoincareElement:
    """Boost by a rapidity followed by a spacetime translation: x -> L x + a."""

    rapidity: float = 0.0
    translation: tuple = (0.0, 0.0)

    @classmethod
    def identity(cls) -> "PoincareElement":
        return cls()

    @classmethod
    def boost(cls, rapidity) -> "PoincareElement":
        return cls(rapidity=float(rapidity))

    @classmethod
    def translate(cls, a_t, a_x) -> "PoincareElement":
        return cls(translation=(float(a_t), float(a_x)))

    def matrix(self) -> np.ndarray:
        ch = math.cosh(self.rapidity)
        sh = math.sinh(self.rapidity)
        return np.array([[ch, sh], [sh, ch]])

    def apply_point(self, point):
        t, x = point
        ch = math.cosh(self.rapidity)
        sh = math.sinh(self.rapidity)
        return (
            ch * t + sh * x + self.translation[0],
            sh * t + ch * x + self.translation[1],
        )

    def compose(self, other: "PoincareElement") -> "PoincareElement":
        """Group product: (self * other) x = self(other(x))."""
        ch = math.cosh(self.rapidity)
        sh = math.sinh(self.rapidity)
        bt, bx = other.translation
        return PoincareElement(
            rapidity=self.rapidity + other.rapidity,
            translation=(
                self.translation[0] + ch * bt + sh * bx,
                self.translation[1] + sh * bt + ch * bx,
            ),
        )

    def inverse(self) -> "PoincareElement":
        ch = math.cosh(self.rapidity)
        sh = math.sinh(self.rapidity)
        at, ax = self.translation
        return PoincareElement(
            rapidity=-self.rapidity,
            translation=(-(ch * at - sh * ax), -(ch * ax - sh * at)),
        )


def poincare_act(g: PoincareElement, f: Wavepacket) -> Wavepacket:
    """Pullback action (g f)(x) = f(g^{-1} x), as exact parameter maps."""
    moved = []
    for c in f.components:
        eta = c.rapidity + g.rapidity
        # translation seen from the component's base frame
        ch = math.cosh(-eta)
        sh = math.sinh(-eta)
        at = ch * g.translation[0] + sh * g.translation[1]
        ax = sh * g.translation[0] + ch * g.translation[1]
        w0, k0 = c.wavevector
        moved.append(
            PacketComponent(
                amplitude=c.amplitude * complex(math.cos(w0 * at - k0 * ax), math.sin(w0 * at - k0 * ax)),
                center=(c.center[0] + at, c.center[1] + ax),
                width=c.width,
                wavevector=c.wavevector,
                rapidity=eta,
            )
        )
    return Wavepacket(moved)


def spatial_reflection(f: Wavepacket) -> Wavepacket:
    """The parity map x -> -x on packets; stabilizes any rest frame."""
    flipped = []
    for c in f.components:
        flipped.append(
            PacketComponent(
                amplitude=c.amplitude,
                center=(c.center[0], -c.center[1]),
                width=c.width,
                wavevector=(c.wavevector[0], -c.wavevector[1]),
                rapidity=-c.rapidity,
            )
        )
    return Wavepacket(flipped)


@dataclass(frozen=True)
class FieldKernelSpec:
    """Field parameters: mass, hbar, inverse temperature, preferred frame.

    beta = inf selects the pure vacuum kernel.  The rest frame is a unit
    future-pointing timelike 2-velocity; only the thermal kernel uses it.
    """

    mass: float
    hbar: float = 1.0
    beta: float = math.inf
    rest_frame: tuple = (1.0, 0.0)

    def __post_init__(self):
        if self.mass <= 0:
            raise ValueError("mass must be positive")
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")
        if not self.beta > 0:
            raise ValueError("beta must be positive (inf selects the vacuum)")
        ut, ux = self.rest_frame
        if ut <= 0 or abs(ut * ut - ux * ux - 1.0) > 1e-9:
            raise ValueError("rest_frame must be a unit future-pointing timelike vector")

    @property
    def is_thermal(self) -> bool:
        return math.isfinite(self.beta)

    def frame_rapidity(self) -> float:
        ut, ux = self.rest_frame
        return math.atanh(ux / ut)


def _momentum_scale(spec: FieldKernelSpec, *packets) -> float:
    """Half-width of a k window certain to contain every component's shell peak."""
    reach = 10.0 + 4.0 * spec.mass
    for f in packets:
        for c in f.components:
            stretch = math.exp(abs(c.rapidity))
            reach = max(
                reach,
                stretch
                * (
                    abs(c.wavevector[0])
                    + abs(c.wavevector[1])
                    + spec.mass
                    + 8.0 / c.width
                )
                + 4.0,
            )
    return reach


_CUTOFF_GUARD = 1e6


def _integration_limit(bound, start: float) -> float:
    """Symmetric cutoff where the envelope bound falls under the floor."""
    if start > _CUTOFF_GUARD:
        raise QuadratureError(
            "kernel integrand needs a momentum cutoff beyond the guard rail",
            cutoff=start,
        )
    grid = np.linspace(-start, start, 81)
    scale = max(max(bound(k) for k in grid), 1e-300)
    limit = start
    while max(bound(limit), bound(-limit)) > _ENVELOPE_FLOOR * scale:
        limit *= 1.4
        if limit > _CUTOFF_GUARD:
            raise QuadratureError(
                "kernel integrand fails to decay", cutoff=limit, scale=scale
            )
    return limit


def _quadrature(integrand, bound, start: float, diagnostics: dict) -> complex:
    # scipy.integrate is imported on first use: it dominates the start-up
    # time and memory of commands that never build a field kernel
    from scipy import integrate

    limit = _integration_limit(bound, start)
    real, real_err = integrate.quad(
        lambda k: integrand(k).real, -limit, limit, limit=400, epsabs=1e-12, epsrel=1e-10
    )
    imag, imag_err = integrate.quad(
        lambda k: integrand(k).imag, -limit, limit, limit=400, epsabs=1e-12, epsrel=1e-10
    )
    err = real_err + imag_err
    logger.debug("quadrature: cutoff=%.3g estimated error=%.3g", limit, err)
    if err > QUADRATURE_TOL:
        raise QuadratureError(
            f"kernel quadrature error estimate {err:.3e} exceeds {QUADRATURE_TOL:.0e}",
            cutoff=limit,
            error=err,
            **diagnostics,
        )
    return complex(real, imag)


def vacuum_kernel(spec: FieldKernelSpec, f: Wavepacket, g: Wavepacket) -> complex:
    """Poincare-invariant two-point pairing (f, g) = rho(M_f^dagger M_g) at beta = inf."""
    m = spec.mass

    def integrand(k):
        w = math.sqrt(k * k + m * m)
        return spec.hbar * np.conj(f.fourier(w, k)) * g.fourier(w, k) / (4 * math.pi * w)

    def bound(k):
        w = math.sqrt(k * k + m * m)
        return spec.hbar * f.fourier_bound(w, k) * g.fourier_bound(w, k) / (4 * math.pi * w)

    return _quadrature(integrand, bound, _momentum_scale(spec, f, g), {"kind": "vacuum"})


def _bose(x: float) -> float:
    # x = beta * hbar * omega > 0; negligible occupation past the exp range
    if x > 700.0:
        return 0.0
    return 1.0 / math.expm1(x)


def thermal_kernel(spec: FieldKernelSpec, f: Wavepacket, g: Wavepacket) -> complex:
    """Two-point pairing of the Gibbs state at finite beta in the preferred frame.

    Bose occupation weights both mass-shell branches; as beta -> inf the
    occupation vanishes and the vacuum kernel returns.
    """
    if not spec.is_thermal:
        raise ValueError("thermal_kernel needs finite beta; use vacuum_kernel")
    chi = spec.frame_rapidity()
    if chi != 0.0:
        into_frame = PoincareElement.boost(-chi)
        f = poincare_act(into_frame, f)
        g = poincare_act(into_frame, g)
    m = spec.mass
    bh = spec.beta * spec.hbar

    def integrand(k):
        w = math.sqrt(k * k + m * m)
        n = _bose(bh * w)
        plus = np.conj(f.fourier(w, k)) * g.fourier(w, k)
        minus = np.conj(f.fourier(-w, k)) * g.fourier(-w, k)
        return spec.hbar * ((1.0 + n) * plus + n * minus) / (4 * math.pi * w)

    def bound(k):
        w = math.sqrt(k * k + m * m)
        n = _bose(bh * w)
        plus = f.fourier_bound(w, k) * g.fourier_bound(w, k)
        minus = f.fourier_bound(-w, k) * g.fourier_bound(-w, k)
        return spec.hbar * ((1.0 + n) * plus + n * minus) / (4 * math.pi * w)

    return _quadrature(
        integrand, bound, _momentum_scale(spec, f, g), {"kind": "thermal", "beta": spec.beta}
    )


def kernel_pairing(spec: FieldKernelSpec, f: Wavepacket, g: Wavepacket) -> complex:
    """The pairing selected by the spec: thermal at finite beta, else vacuum."""
    if spec.is_thermal:
        return thermal_kernel(spec, f, g)
    return vacuum_kernel(spec, f, g)


def commutator_kernel(spec: FieldKernelSpec, f: Wavepacket, g: Wavepacket) -> complex:
    """Pauli-Jordan pairing (f*, g) - (g*, f).

    Vanishes up to Gaussian-tail leakage for spacelike-separated packets
    and does not depend on the temperature: the occupation terms cancel.
    """
    fc = f.conjugate()
    gc = g.conjugate()
    return kernel_pairing(spec, fc, g) - kernel_pairing(spec, gc, f)


def packet_index(f: Wavepacket) -> Index:
    """Index whose tag is the packet's structural key; involution conjugates."""
    return Index(f.key(), f.conjugate().key())


def kernel_as_gaussian(spec: FieldKernelSpec, packets, tol: float = 1e-10) -> GaussianKernel:
    """Materialize the pairwise kernel matrix as a Gaussian-state kernel.

    The index set is closed under the involution by appending conjugate
    packets, so downstream moment and Gram evaluations can contract any
    word over the given packets.
    """
    packets = list(packets)
    if not packets:
        raise ValueError("need at least one packet")
    family = []
    seen = set()
    for f in packets:
        if f.key() not in seen:
            seen.add(f.key())
            family.append(f)
    for f in list(family):
        fc = f.conjugate()
        if fc.key() not in seen:
            seen.add(fc.key())
            family.append(fc)
    indices = [packet_index(f) for f in family]
    n = len(family)
    matrix = np.zeros((n, n), dtype=complex)
    for a, fa in enumerate(family):
        for b, fb in enumerate(family):
            if b < a:
                matrix[a, b] = matrix[b, a].conjugate()
            else:
                matrix[a, b] = kernel_pairing(spec, fa, fb)
    matrix = 0.5 * (matrix + matrix.conj().T)
    entries = {}
    for a, ia in enumerate(indices):
        for b, ib in enumerate(indices):
            entries[(ia, ib)] = matrix[a, b]
    return GaussianKernel(entries, indices=indices, tol=tol)
