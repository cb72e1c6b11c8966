"""Measurement algebras, Gaussian states, Koopman operators, and field kernels."""

from .algebra import AlgebraElement, Index, generator, paired_indices, word, word_adjoint, word_label
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
    GaussianState,
    State,
    commutator_factor,
    generating_function,
    moment_from_generating_series,
    two_point,
    wick_expect,
)
from .gns import GramReport, MonomialBasis, Representation, build_basis, gram, positivity_probe, represent
from .koopman import (
    FlowSpec,
    KoopmanOperator,
    PhaseSpacePolynomial,
    bracket_residuals,
    flow_sample,
    gibbs_oscillator_kernel,
    poisson,
)
from .vacuum import (
    ConditionedState,
    ExtendedElement,
    commutation_witness,
    condition,
    extended_expect,
    extended_positivity_probe,
    extended_word_expect,
    normalize_segments,
)

__version__ = "0.1.0"
