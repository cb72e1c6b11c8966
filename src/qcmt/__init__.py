"""Measurement algebras, Gaussian states, Koopman operators, and field kernels."""

from .algebra import AlgebraElement, Index, generator, paired_indices, star_residuals, word_adjoint, word_label
from .fields import (
    FieldKernelSpec,
    PacketComponent,
    PoincareElement,
    QuadratureError,
    Wavepacket,
    commutator_kernel,
    kernel_as_gaussian,
    kernel_pairing,
    packet_index,
    poincare_act,
    spatial_reflection,
    thermal_kernel,
    vacuum_kernel,
)
from .gaussian import (
    MATCHING_CAP,
    GaussianKernel,
    State,
    commutator_factor,
    generating_function,
    moment_from_generating_series,
    wick_expect,
)
from .gns import GramReport, MonomialBasis, Representation, build_basis, gram, represent
from .koopman import (
    PhaseSpacePolynomial,
    PolynomialBatch,
    bracket_residuals,
    gibbs_oscillator_kernel,
    liouville_flow,
    multiplication_flow,
    poisson,
)
from .vacuum import (
    ConditionedState,
    ExtendedElement,
    commutation_witness,
    extended_expect,
    extended_positivity_probe,
    extended_word_expect,
    normalize_segments,
)

__version__ = "0.1.0"
