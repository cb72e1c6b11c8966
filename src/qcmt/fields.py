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
temperature is set by kT = 1/beta.

Everything in (t, x) is analytic; only the integral over the mass shell is
numerical.  It runs over the rapidity theta, with k = m sinh(theta),
w = m cosh(theta) and dk / w = dtheta, so a boost by eta is a shift of
theta by eta and the integrand decays double-exponentially.  The trapezoid
rule on a uniform theta grid then converges geometrically.  Every packet
of a family is evaluated on one grid, giving F (packets x nodes), and one
weighted product gives the whole kernel matrix, hbar/(4 pi) F^H W F:

* the window covers every component's envelope, on both branches for the
  thermal kernel (on the negative branch a component of rapidity eta sits
  near theta = -eta); its momentum reach is bounded by ``_CUTOFF_GUARD``;
* two grids count as agreeing only once the finer one has a step that
  resolves the narrowest envelope and the fastest relative phase of the
  family, so no feature falls between nodes and no phase aliases alike;
* the grid is halved until two successive grids agree, and a kernel whose
  grid step is still above the resolving step, or whose halving estimate
  still exceeds ``QUADRATURE_TOL``, at ``_NODE_CAP`` nodes raises
  ``QuadratureError`` naming the unmet condition.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .algebra import Index
from .gaussian import GaussianKernel, tolerance_bound

logger = logging.getLogger(__name__)

# Tolerances on a kernel matrix, scaled by ``tolerance_bound``: grid halving
# stops once two successive grids agree to _HALVING_TOL, and a kernel still
# off by more than QUADRATURE_TOL at _NODE_CAP nodes is refused.
QUADRATURE_TOL = 1e-8
_HALVING_TOL = 1e-10
# The window keeps every component's envelope down to this fraction of its
# peak; its momentum reach m sinh|theta| may not pass _CUTOFF_GUARD.
_ENVELOPE_FLOOR = 1e-16
_CUTOFF_GUARD = 1e6
# Coarsest grid over the window, in intervals; the grid is halved from it.
_START_INTERVALS = 16
_NODE_CAP = 1 << 16


class QuadratureError(RuntimeError):
    """Kernel quadrature failed to converge; carries diagnostics."""

    def __init__(self, message, **diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


def _base_transform(amplitude, center, width, wavevector, wb, kb):
    """Fourier transform of a base component at base-frame momentum (wb, kb).

    Broadcasts: parameters may be columns over components and momenta rows
    over grid nodes.
    """
    t0, x0 = center
    w0, k0 = wavevector
    dw = wb - w0
    dk = kb - k0
    sigma2 = width * width
    exponent = 1j * (dw * t0 - dk * x0) - sigma2 * (dw * dw + dk * dk) / 4.0
    return amplitude * math.pi * sigma2 * np.exp(exponent)


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
        if not self.width > 0 or not math.isfinite(self.width):
            raise ValueError("packet width must be positive and finite")

    def fourier(self, omega, k):
        """Analytic Fourier transform; accepts scalars or numpy arrays."""
        ch = math.cosh(self.rapidity)
        sh = math.sinh(self.rapidity)
        # momentum covector in the base frame of the component
        return _base_transform(
            self.amplitude, self.center, self.width, self.wavevector,
            omega * ch - k * sh, k * ch - omega * sh,
        )

    def conjugate(self) -> "PacketComponent":
        w0, k0 = self.wavevector
        return replace(self, amplitude=complex(self.amplitude).conjugate(), wavevector=(-w0, -k0))

    def key(self) -> tuple:
        a = complex(self.amplitude)
        return (a.real, a.imag, *self.center, self.width, *self.wavevector, self.rapidity)


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
        return Wavepacket(replace(c, amplitude=c.amplitude * scalar) for c in self.components)

    __rmul__ = __mul__

    def conjugate(self) -> "Wavepacket":
        return Wavepacket([c.conjugate() for c in self.components])

    def fourier(self, omega, k):
        return sum(c.fourier(omega, k) for c in self.components)

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
        phase = w0 * at - k0 * ax
        moved.append(
            replace(
                c,
                amplitude=c.amplitude * complex(math.cos(phase), math.sin(phase)),
                center=(c.center[0] + at, c.center[1] + ax),
                rapidity=eta,
            )
        )
    return Wavepacket(moved)


def spatial_reflection(f: Wavepacket) -> Wavepacket:
    """The parity map x -> -x on packets; stabilizes any rest frame."""
    return Wavepacket(
        replace(
            c,
            center=(c.center[0], -c.center[1]),
            wavevector=(c.wavevector[0], -c.wavevector[1]),
            rapidity=-c.rapidity,
        )
        for c in f.components
    )


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
        # every check is written so that a NaN fails it: an overflowing
        # rest frame makes ut*ut - ux*ux the NaN inf - inf
        if not self.mass > 0:
            raise ValueError("mass must be positive")
        if not self.hbar > 0:
            raise ValueError("hbar must be positive")
        if not self.beta > 0:
            raise ValueError("beta must be positive (inf selects the vacuum)")
        ut, ux = self.rest_frame
        if not (ut > 0 and abs(ut * ut - ux * ux - 1.0) <= 1e-9):
            raise ValueError("rest_frame must be a unit future-pointing timelike vector")

    @property
    def is_thermal(self) -> bool:
        return math.isfinite(self.beta)

    @property
    def vacuum(self) -> "FieldKernelSpec":
        return replace(self, beta=math.inf)

    def frame_rapidity(self) -> float:
        ut, ux = self.rest_frame
        return math.atanh(ux / ut)


def _grid_window(mass: float, packets, branches) -> tuple:
    """Theta window over every component's envelope on every branch, and a
    grid step that resolves the narrowest envelope and fastest phase in it."""
    comps = [c for f in packets for c in f.components]
    # Lab-frame centres.  F carries the phase exp(i(w T - k X)); a phase
    # common to the family cancels in every pairing, so each is measured
    # from the family's mean centre.
    centers = [PoincareElement.boost(c.rapidity).apply_point(c.center) for c in comps]
    ref_t = sum(t for t, _ in centers) / len(centers)
    ref_x = sum(x for _, x in centers) / len(centers)
    spread = 2.0 * math.sqrt(-math.log(_ENVELOPE_FLOOR))
    spans = []
    for sign in branches:
        for c, (t, x) in zip(comps, centers):
            w0, k0 = c.wavevector
            # (w0, k0) lies within this distance of the shell, so wherever
            # the envelope is above the floor, |m sinh(phi) - k0| <= reach
            reach = math.hypot(sign * math.hypot(mass, k0) - w0, spread / c.width)
            phi = (math.asinh((k0 - reach) / mass), math.asinh((k0 + reach) / mass))
            ends = (phi[0] + sign * c.rapidity, phi[1] + sign * c.rapidity)
            spans.append((sign, c.width, t - ref_t, x - ref_x, phi, ends))
    lo = min(span[5][0] for span in spans)
    hi = max(span[5][1] for span in spans)
    limit = math.asinh(_CUTOFF_GUARD / mass)
    if not -limit <= lo <= hi <= limit:
        raise QuadratureError(
            "kernel integrand needs a momentum cutoff beyond the guard rail",
            window=(lo, hi),
            cutoff=_CUTOFF_GUARD,
        )
    bands = []
    for sign, width, t, x, phi, ends in spans:
        # in phi the envelope varies on the scale 1 / (sigma m cosh phi);
        # |d phase / d theta| is largest at an end of the span
        envelope = width * mass * math.cosh(max(-phi[0], phi[1]))
        phase = max(abs(sign * t * math.sinh(e) - x * math.cosh(e)) for e in ends)
        bands.append(envelope + mass * phase)
    # np.max lets a NaN through, and a NaN step is never reached
    return lo, hi, math.pi / (2.0 * float(np.max(bands)))


# One errstate per kernel: an overflowing amplitude or occupation makes the
# sums inf or NaN without a numpy warning, and the halving error reports it.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _kernel_matrix(spec: FieldKernelSpec, packets) -> np.ndarray:
    """Pairings of a packet family, hbar/(4 pi) F^H W F on a halved theta grid.

    The weight is 1 on the positive branch at beta = inf, which reads only
    mass and hbar; at finite beta it is 1 + n there and n on the negative
    branch, with packets boosted into the rest frame first.  A non-finite
    kernel sum raises ``QuadratureError`` at the first halving.
    """
    if spec.is_thermal:
        chi = spec.frame_rapidity()
        if chi != 0.0:
            into_frame = PoincareElement.boost(-chi)
            packets = [poincare_act(into_frame, f) for f in packets]
    m = spec.mass
    lo, hi, step = _grid_window(m, packets, (1, -1) if spec.is_thermal else (1,))
    comps = [c for f in packets for c in f.components]
    firsts = np.cumsum([0] + [len(f.components) for f in packets[:-1]])
    amplitude = np.array([complex(c.amplitude) for c in comps])[:, None]
    rapidity, width, t0, x0, w0, k0 = np.array(
        [(c.rapidity, c.width, *c.center, *c.wavevector) for c in comps]
    ).T[:, :, None]

    def weighted_sum(theta, ends):
        weights = {1: ends}
        if spec.is_thermal:
            # Bose occupation 1 / (e^x - 1) in a form that underflows to 0
            x = spec.beta * spec.hbar * m * np.cosh(theta)
            occupation = np.exp(-x) / -np.expm1(-x)
            weights = {1: ends * (1.0 + occupation), -1: ends * occupation}
        total = 0.0
        for sign, weight in weights.items():
            # components see phi = theta - sign * rapidity in their base frame
            phi = theta - sign * rapidity
            values = _base_transform(
                amplitude, (t0, x0), width, (w0, k0), sign * m * np.cosh(phi), m * np.sinh(phi)
            )
            f = np.add.reduceat(values, firsts, axis=0)
            total = total + (f.conj() * weight) @ f.T
        return total

    intervals = _START_INTERVALS
    # grids coarser than the step are never accepted: start one halving
    # above it, leaving room under the cap for at least one halving
    while (hi - lo) / intervals > 2.0 * step and 4 * intervals + 1 <= _NODE_CAP:
        intervals *= 2
    h = (hi - lo) / intervals
    ends = np.ones(intervals + 1)
    ends[0] = ends[-1] = 0.5
    sums = weighted_sum(lo + h * np.arange(intervals + 1), ends)
    scale = spec.hbar / (4.0 * math.pi)
    value = scale * h * sums
    error = math.inf

    def failure(unmet):
        return QuadratureError(
            f"kernel grid not converged at {intervals + 1} nodes: {unmet}",
            window=(lo, hi),
            nodes=intervals + 1,
            error=error,
            h=h,
            step=step,
            kind="thermal" if spec.is_thermal else "vacuum",
        )

    while True:
        # Two grids coarser than the step can miss a narrow feature alike
        # and agree on a wrong value, so agreement counts only once h <= step.
        resolved = h <= step
        if resolved and error <= tolerance_bound(_HALVING_TOL, value):
            break
        if 2 * intervals + 1 > _NODE_CAP:
            bound = tolerance_bound(QUADRATURE_TOL, value)
            if resolved and error <= bound:
                break
            unmet = (
                f"halving error {error:.3e} over its bound {bound:.3e}"
                if resolved
                else f"grid step h = {h:.3e} never reached the resolving step {step:.3e}"
            )
            raise failure(unmet)
        sums = sums + weighted_sum(lo + h * (np.arange(intervals) + 0.5), 1.0)
        intervals *= 2
        h = (hi - lo) / intervals
        refined = scale * h * sums
        error = float(np.max(np.abs(refined - value)))
        value = refined
        if not math.isfinite(error):
            raise failure(f"the kernel sum F^H W F is not finite (halving error {error:.3e})")
    logger.debug(
        "kernel grid: window=[%.3g, %.3g] nodes=%d error=%.3g", lo, hi, intervals + 1, error
    )
    return value


def vacuum_kernel(spec: FieldKernelSpec, f: Wavepacket, g: Wavepacket) -> complex:
    """Poincare-invariant two-point pairing (f, g) = rho(M_f^dagger M_g) at beta = inf."""
    if spec.is_thermal:
        raise ValueError("vacuum_kernel needs beta = inf; use thermal_kernel or spec.vacuum")
    return complex(_kernel_matrix(spec, [f, g])[0, 1])


def thermal_kernel(spec: FieldKernelSpec, f: Wavepacket, g: Wavepacket) -> complex:
    """Two-point pairing of the Gibbs state at finite beta in the preferred frame.

    Bose occupation weights both mass-shell branches; as beta -> inf the
    occupation vanishes and the vacuum kernel returns.
    """
    if not spec.is_thermal:
        raise ValueError("thermal_kernel needs finite beta; use vacuum_kernel")
    return complex(_kernel_matrix(spec, [f, g])[0, 1])


def kernel_pairing(spec: FieldKernelSpec, f: Wavepacket, g: Wavepacket) -> complex:
    """The pairing selected by the spec: thermal at finite beta, else vacuum."""
    if spec.is_thermal:
        return thermal_kernel(spec, f, g)
    return vacuum_kernel(spec, f, g)


def boost_deviation(spec: FieldKernelSpec, f, g, rapidity: float, base: complex) -> float:
    """|kernel_pairing(spec, boosted f, boosted g) - base|; a beta = inf spec gives the vacuum's."""
    move = PoincareElement.boost(rapidity)
    return abs(kernel_pairing(spec, poincare_act(move, f), poincare_act(move, g)) - base)


def commutator_kernel(spec: FieldKernelSpec, f: Wavepacket, g: Wavepacket) -> complex:
    """Pauli-Jordan pairing (f*, g) - (g*, f).

    Vanishes up to Gaussian-tail leakage for spacelike-separated packets
    and does not depend on the temperature: the occupation terms cancel.
    """
    return kernel_pairing(spec, f.conjugate(), g) - kernel_pairing(spec, g.conjugate(), f)


def packet_index(f: Wavepacket) -> Index:
    """Index whose tag is the packet's structural key; involution conjugates."""
    return Index(f.key(), f.conjugate().key())


def packet_family(packets) -> list:
    """A field kernel's index set: the packets, then their conjugates, each kept once.

    Packets with equal keys are equal, so a real packet with zero wavevector,
    its own conjugate, is one index.
    """
    packets = list(packets)
    return list(dict.fromkeys(packets + [f.conjugate() for f in packets]))


def kernel_as_gaussian(spec: FieldKernelSpec, packets) -> GaussianKernel:
    """Materialize the pairwise kernel matrix as a Gaussian-state kernel.

    The index set, ``packet_family(packets)``, is closed under the
    involution, so downstream moment and Gram evaluations can contract any
    word over the given packets.  The kernel is validated at
    ``QUADRATURE_TOL``, the accuracy its entries are computed to.
    """
    family = packet_family(packets)
    if not family:
        raise ValueError("need at least one packet")
    matrix = _kernel_matrix(spec, family)
    return GaussianKernel([packet_index(f) for f in family], matrix, tol=QUADRATURE_TOL)
