import logging
import math

import numpy as np
import pytest

from oracles import grid_fourier, packet_value, quad_pairing, simpson_pairing
from qcmt import fields
from qcmt.fields import (
    FieldKernelSpec,
    PoincareElement,
    QuadratureError,
    Wavepacket,
    commutator_kernel,
    kernel_as_gaussian,
    kernel_pairing,
    poincare_act,
    spatial_reflection,
    thermal_kernel,
    vacuum_kernel,
)
from qcmt.gaussian import hermitian_spectrum, wick_expect
from qcmt.gns import build_basis, gram

VACUUM = FieldKernelSpec(mass=1.0)
THERMAL = FieldKernelSpec(mass=1.0, beta=1.0)


def packet_pair():
    f = Wavepacket.gaussian(center=(0.4, 0.0), width=1.0, wavevector=(0.5, 0.3))
    g = Wavepacket.gaussian(center=(-0.3, 0.6), width=1.0, wavevector=(0.2, -0.4))
    return f, g


# ------------------------------------------------------------ wavepackets


def test_packet_requires_positive_width():
    with pytest.raises(ValueError):
        Wavepacket.gaussian(width=0.0)


@pytest.mark.parametrize("width", [-1.0, math.nan, math.inf])
def test_packet_rejects_negative_and_non_finite_width(width):
    with pytest.raises(ValueError, match="width"):
        Wavepacket.gaussian(width=width)


def test_packet_linear_structure():
    f, g = packet_pair()
    both = f + 2j * g
    t, x = 0.7, -0.4
    assert np.isclose(
        packet_value(both, t, x), packet_value(f, t, x) + 2j * packet_value(g, t, x)
    )


def test_conjugation_is_pointwise():
    f, _ = packet_pair()
    t, x = 0.3, 1.1
    assert np.isclose(packet_value(f.conjugate(), t, x), packet_value(f, t, x).conjugate())


def test_fourier_matches_grid_transform():
    f, _ = packet_pair()
    for omega, k in [(1.2, 0.4), (0.8, -0.6)]:
        assert abs(f.fourier(omega, k) - grid_fourier(f, omega, k)) < 1e-6


def test_fourier_of_boosted_packet_matches_grid():
    f, _ = packet_pair()
    boosted = poincare_act(PoincareElement.boost(0.3), f)
    assert abs(boosted.fourier(1.1, 0.2) - grid_fourier(boosted, 1.1, 0.2)) < 1e-6


# ------------------------------------------------------------ poincare group


def test_identity_action():
    f, _ = packet_pair()
    assert poincare_act(PoincareElement.identity(), f) == f


def test_translation_shifts_center():
    f = Wavepacket.gaussian(center=(0.0, 0.0), width=1.0)
    moved = poincare_act(PoincareElement.translate(1.0, 0.0), f)
    assert moved.components[0].center == (1.0, 0.0)


def test_boost_roundtrip_restores_parameters():
    f, _ = packet_pair()
    there = poincare_act(PoincareElement.boost(0.7), f)
    back = poincare_act(PoincareElement.boost(-0.7), there)
    for before, after in zip(f.components, back.components):
        assert np.allclose(before.key(), after.key(), atol=1e-12)


def test_action_is_pullback_pointwise():
    f, _ = packet_pair()
    g = PoincareElement(rapidity=0.45, translation=(0.8, -1.2))
    moved = poincare_act(g, f)
    inverse = g.inverse()
    for point in [(0.0, 0.0), (1.3, -0.7), (-0.5, 2.0)]:
        expected = packet_value(f, *inverse.apply_point(point))
        assert abs(packet_value(moved, *point) - expected) < 1e-12


def test_group_composition_and_inverse():
    a = PoincareElement(rapidity=0.3, translation=(1.0, 2.0))
    b = PoincareElement(rapidity=-0.8, translation=(-0.4, 0.9))
    f, _ = packet_pair()
    composed = poincare_act(a.compose(b), f)
    sequential = poincare_act(a, poincare_act(b, f))
    for before, after in zip(composed.components, sequential.components):
        assert np.allclose(before.key(), after.key(), atol=1e-12)
    unit = a.compose(a.inverse())
    assert abs(unit.rapidity) < 1e-15
    assert np.allclose(unit.translation, (0.0, 0.0), atol=1e-12)


def test_action_commutes_with_conjugation():
    f, _ = packet_pair()
    g = PoincareElement(rapidity=-0.6, translation=(0.2, 0.5))
    left = poincare_act(g, f.conjugate())
    right = poincare_act(g, f).conjugate()
    assert left == right


# ------------------------------------------------------------ vacuum kernel


def test_vacuum_kernel_is_positive_on_diagonal():
    f, g = packet_pair()
    for packet in (f, g, f + 0.5j * g):
        value = vacuum_kernel(VACUUM, packet, packet)
        assert abs(value.imag) < 1e-10
        assert value.real >= 0


def test_vacuum_kernel_hermiticity():
    f, g = packet_pair()
    assert abs(vacuum_kernel(VACUUM, f, g) - vacuum_kernel(VACUUM, g, f).conjugate()) < 1e-10


def test_vacuum_kernel_matches_simpson_grid():
    f, g = packet_pair()
    adaptive = vacuum_kernel(VACUUM, f, g)
    fixed = simpson_pairing(VACUUM, f, g)
    assert abs(adaptive - fixed) < 1e-8


def test_vacuum_kernel_scales_linearly_in_hbar():
    f, g = packet_pair()
    one = vacuum_kernel(VACUUM, f, g)
    three = vacuum_kernel(FieldKernelSpec(mass=1.0, hbar=3.0), f, g)
    assert abs(three - 3 * one) < 1e-9


def test_vacuum_kernel_boost_invariance():
    f, g = packet_pair()
    base = vacuum_kernel(VACUUM, f, g)
    for chi in (-0.5, -0.25, 0.25, 0.5):
        move = PoincareElement.boost(chi)
        moved = vacuum_kernel(VACUUM, poincare_act(move, f), poincare_act(move, g))
        assert abs(moved - base) < 1e-6


def random_packet(rng):
    return Wavepacket.gaussian(
        amplitude=complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5)),
        center=(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)),
        width=rng.uniform(0.7, 1.5),
        wavevector=(rng.uniform(0.3, 1.5), rng.uniform(-1.5, 1.5)),
    )


def test_vacuum_kernel_boost_invariance_at_large_rapidity():
    # 2.1 <= |eta| <= 3 is where adaptive quad over k under-resolved the
    # squeezed integrand of boosted pairs; on the theta grid a boost is a shift
    rng = np.random.default_rng(2101)
    for _ in range(8):
        spec = FieldKernelSpec(mass=rng.uniform(0.5, 1.5))
        f, g = random_packet(rng), random_packet(rng)
        move = PoincareElement.boost(rng.choice([-1.0, 1.0]) * rng.uniform(2.1, 3.0))
        moved = vacuum_kernel(spec, poincare_act(move, f), poincare_act(move, g))
        assert abs(moved - vacuum_kernel(spec, f, g)) <= 1e-10


def on_shell_packet(width, k0, sign=1.0):
    return Wavepacket.gaussian(width=width, wavevector=(math.hypot(1.0, k0), sign * k0))


def test_narrow_theta_feature_refines_a_coarse_grid(monkeypatch, caplog):
    # wide packets at large wavevectors are narrow bumps near theta = asinh(12)
    # and asinh(-6); the window's ends and midpoint miss both
    narrow = poincare_act(PoincareElement.translate(0.3, -0.2), on_shell_packet(4.0, 12.0))
    mixed = narrow + on_shell_packet(4.0, 6.0, sign=-1.0)
    monkeypatch.setattr(fields, "_START_INTERVALS", 1)
    with caplog.at_level(logging.DEBUG, logger="qcmt.fields"):
        value = vacuum_kernel(VACUUM, mixed, narrow)
    assert abs(value - simpson_pairing(VACUUM, mixed, narrow)) <= 1e-8
    assert abs(value - quad_pairing(VACUUM, mixed, narrow)) <= 1e-8
    # the one- and two-interval grids agree on a value near zero
    lo, hi, nodes, _ = caplog.records[-1].args
    theta = np.linspace(lo, hi, 3)
    shell = (np.cosh(theta), np.sinh(theta))
    pairs = np.conj(mixed.fourier(*shell)) * narrow.fourier(*shell)
    assert np.max(np.abs(pairs)) < 1e-12 * abs(value)
    assert nodes > 256


def test_relative_phase_of_separated_packets_is_resolved():
    # two on-shell packets 50 apart oscillate against each other fast
    # enough that a step set by the envelopes alone lets the halved grids
    # alias alike and agree on a value near 1 where the pairing is ~0
    f = on_shell_packet(2.0, 8.0)
    g = poincare_act(PoincareElement.translate(0.0, 50.0), f)
    assert abs(vacuum_kernel(VACUUM, f, g)) <= 1e-10
    # far apart in time the pairing decays slowly and oscillates fast
    _, g = packet_pair()
    later = poincare_act(PoincareElement.translate(400.0, 0.0), g)
    fixed = simpson_pairing(VACUUM, g, later, half_width=60.0, points=400001)
    assert abs(vacuum_kernel(VACUUM, g, later) - fixed) <= 1e-10


def test_grid_halving_that_cannot_converge_under_the_cap_raises(monkeypatch):
    f, g = packet_pair()
    monkeypatch.setattr(fields, "_NODE_CAP", 33)
    with pytest.raises(QuadratureError) as failure:
        vacuum_kernel(VACUUM, f, g)
    diagnostics = failure.value.diagnostics
    assert diagnostics["nodes"] == 33
    assert len(diagnostics["window"]) == 2
    assert fields.QUADRATURE_TOL < diagnostics["error"] < math.inf
    # 33 nodes never resolve the family: the message names the step, not the error
    assert diagnostics["h"] > diagnostics["step"]
    assert "never reached the resolving step" in str(failure.value)


def test_resolved_grid_whose_halving_error_stays_over_its_bound_raises(monkeypatch):
    f, g = packet_pair()
    monkeypatch.setattr(fields, "_NODE_CAP", 257)
    monkeypatch.setattr(fields, "_HALVING_TOL", 0.0)
    monkeypatch.setattr(fields, "QUADRATURE_TOL", 0.0)
    with pytest.raises(QuadratureError) as failure:
        vacuum_kernel(VACUUM, f, g)
    diagnostics = failure.value.diagnostics
    assert diagnostics["h"] <= diagnostics["step"]
    assert 0.0 < diagnostics["error"] < math.inf
    assert "halving error" in str(failure.value) and "resolving step" not in str(failure.value)


def test_vacuum_kernel_translation_invariance():
    f, g = packet_pair()
    base = vacuum_kernel(VACUUM, f, g)
    move = PoincareElement.translate(0.8, -1.1)
    moved = vacuum_kernel(VACUUM, poincare_act(move, f), poincare_act(move, g))
    assert abs(moved - base) < 1e-8


# ------------------------------------------------------------ thermal kernel


def test_thermal_reduces_to_vacuum_at_low_temperature():
    f, g = packet_pair()
    cold = FieldKernelSpec(mass=1.0, beta=40.0)
    assert abs(thermal_kernel(cold, f, g) - vacuum_kernel(VACUUM, f, g)) < 1e-8


def test_thermal_kernel_requires_finite_beta():
    f, g = packet_pair()
    with pytest.raises(ValueError, match="finite"):
        thermal_kernel(VACUUM, f, g)


def test_vacuum_kernel_pairs_the_spec_it_is_given_at_beta_inf():
    f, g = packet_pair()
    warm = FieldKernelSpec(mass=1.3, hbar=0.7, beta=0.5, rest_frame=(math.cosh(0.4), math.sinh(0.4)))
    with pytest.raises(ValueError, match="beta = inf"):
        vacuum_kernel(warm, f, g)
    assert warm.vacuum == FieldKernelSpec(mass=1.3, hbar=0.7, rest_frame=warm.rest_frame)
    assert vacuum_kernel(warm.vacuum, f, g) == vacuum_kernel(FieldKernelSpec(mass=1.3, hbar=0.7), f, g)


def test_thermal_kernel_matches_simpson_grid():
    f, g = packet_pair()
    assert abs(thermal_kernel(THERMAL, f, g) - simpson_pairing(THERMAL, f, g)) < 1e-8


def test_thermal_kernel_of_boosted_packets_matches_simpson_grid():
    # on the negative branch a packet of rapidity eta sits near theta = -eta
    f, g = packet_pair()
    for eta in (-1.5, 1.5):
        move = PoincareElement.boost(eta)
        fb, gb = poincare_act(move, f), poincare_act(move, g)
        fixed = simpson_pairing(THERMAL, fb, gb, half_width=80.0, points=40001)
        assert abs(thermal_kernel(THERMAL, fb, gb) - fixed) < 1e-10


def test_thermal_kernel_not_boost_invariant():
    f, g = packet_pair()
    base = thermal_kernel(THERMAL, f, g)
    move = PoincareElement.boost(0.5)
    moved = thermal_kernel(THERMAL, poincare_act(move, f), poincare_act(move, g))
    assert abs(moved - base) > 1e-3


def test_thermal_kernel_stabilizer_invariance():
    f, g = packet_pair()
    base = thermal_kernel(THERMAL, f, g)
    move = PoincareElement.translate(1.3, -0.9)
    moved = thermal_kernel(THERMAL, poincare_act(move, f), poincare_act(move, g))
    assert abs(moved - base) < 1e-8
    reflected = thermal_kernel(THERMAL, spatial_reflection(f), spatial_reflection(g))
    assert abs(reflected - base) < 1e-8


def test_reflection_is_pointwise_parity():
    f, g = packet_pair()
    boosted = poincare_act(PoincareElement(rapidity=0.6, translation=(0.3, -0.8)), f + 0.5j * g)
    mirrored = spatial_reflection(boosted)
    for t, x in [(0.0, 0.0), (0.7, -0.4), (-1.1, 1.5)]:
        assert packet_value(mirrored, t, x) == packet_value(boosted, t, -x)
    assert spatial_reflection(mirrored) == boosted


def test_thermal_excess_scales_with_temperature():
    # high-temperature regime: excess is linear in kT within 5 percent
    f, g = packet_pair()
    base = vacuum_kernel(VACUUM, f, g)
    excess = {}
    for beta in (0.05, 0.025):
        spec = FieldKernelSpec(mass=1.0, beta=beta)
        excess[beta] = abs(thermal_kernel(spec, f, g) - base)
    ratio = excess[0.025] / excess[0.05]
    assert abs(ratio / 2.0 - 1.0) < 0.05


def test_thermal_kernel_in_moving_frame():
    # kernel with frame u = boost(chi) (1,0) equals rest-frame kernel of unboosted packets
    f, g = packet_pair()
    chi = 0.4
    frame = (math.cosh(chi), math.sinh(chi))
    moving = FieldKernelSpec(mass=1.0, beta=1.0, rest_frame=frame)
    move = PoincareElement.boost(chi)
    lhs = thermal_kernel(moving, poincare_act(move, f), poincare_act(move, g))
    rhs = thermal_kernel(THERMAL, f, g)
    assert abs(lhs - rhs) < 1e-8


# ------------------------------------------------------------ commutator


def test_commutator_antisymmetry_real_packet():
    f = Wavepacket.gaussian(center=(0.1, 0.2), width=1.3)
    assert commutator_kernel(VACUUM, f, f) == 0


def test_commutator_spacelike_decay():
    f = Wavepacket.gaussian(center=(0.4, 0.0), width=1.0, wavevector=(0.5, 0.3))
    g = Wavepacket.gaussian(center=(-0.3, 10.0), width=1.0, wavevector=(0.2, -0.4))
    assert abs(commutator_kernel(VACUUM, f, g)) <= 1e-6
    near = Wavepacket.gaussian(center=(-0.3, 2.0), width=1.0, wavevector=(0.2, -0.4))
    assert abs(commutator_kernel(VACUUM, f, near)) > 1e-3


def test_commutator_beta_independence():
    f = Wavepacket.gaussian(center=(0.4, 0.0), width=1.0, wavevector=(0.5, 0.3))
    for dx in (2.0, 10.0):
        g = Wavepacket.gaussian(center=(-0.3, dx), width=1.0, wavevector=(0.2, -0.4))
        cold = commutator_kernel(VACUUM, f, g)
        hot = commutator_kernel(THERMAL, f, g)
        assert abs(hot - cold) <= 1e-10


# ------------------------------------------------------------ kernel matrices


def test_single_packet_matrix():
    f, _ = packet_pair()
    kernel = kernel_as_gaussian(VACUUM, [f])
    assert hermitian_spectrum(kernel.matrix(), kernel.tol)[0][0] >= -1e-10


def test_three_packet_matrix_is_psd():
    f, g = packet_pair()
    h = Wavepacket.gaussian(center=(0.0, 1.0), width=0.8)
    for spec in (VACUUM, THERMAL):
        kernel = kernel_as_gaussian(spec, [f, g, h])
        assert hermitian_spectrum(kernel.matrix(), kernel.tol)[0][0] >= -1e-10
        m = kernel.matrix()
        assert np.max(np.abs(m - m.conj().T)) <= 1e-10


def test_thermal_family_matrix_matches_quad_in_moving_frame():
    chi = 0.4
    spec = FieldKernelSpec(mass=1.0, beta=1.0, rest_frame=(math.cosh(chi), math.sinh(chi)))
    f, g = packet_pair()
    h = Wavepacket.gaussian(center=(0.0, 1.0), width=0.8)
    kernel = kernel_as_gaussian(spec, [f, g, h])
    # h is real, so its conjugate is itself and joins no second time
    family = [f, g, h, f.conjugate(), g.conjugate()]
    assert [ix.tag for ix in kernel.indices] == [p.key() for p in family]
    matrix = kernel.matrix()
    scale = np.max(np.abs(matrix))
    assert np.max(np.abs(matrix - matrix.conj().T)) <= 1e-14 * scale
    assert np.linalg.eigvalsh(0.5 * (matrix + matrix.conj().T))[0] >= -1e-14 * scale
    for a in range(len(family)):
        for b in range(a, len(family)):
            assert abs(matrix[a, b] - quad_pairing(spec, family[a], family[b])) <= 1e-8


def test_kernel_index_linearity():
    f, g = packet_pair()
    h = Wavepacket.gaussian(center=(0.0, 1.0), width=0.8)
    combined = kernel_pairing(VACUUM, f + g, h)
    split = kernel_pairing(VACUUM, f, h) + kernel_pairing(VACUUM, g, h)
    assert abs(combined - split) <= 1e-10


def test_kernel_sesquilinearity():
    f, g = packet_pair()
    scaled = kernel_pairing(VACUUM, (2 + 1j) * f, g)
    assert abs(scaled - (2 - 1j) * kernel_pairing(VACUUM, f, g)) <= 1e-10


def test_field_kernel_supports_wick_and_gram():
    f, g = packet_pair()
    kernel = kernel_as_gaussian(VACUUM, [f, g])
    state = kernel
    i_f, i_g = kernel.indices[0], kernel.indices[1]
    value = wick_expect(kernel, (i_f, i_g, i_f, i_g))
    assert np.isfinite(value.real) and np.isfinite(value.imag)
    report = gram(build_basis([i_f, i_g], 2), state)
    assert report.min_eigenvalue >= -1e-10


def test_family_keeps_first_occurrences_then_conjugates():
    f, g = packet_pair()
    real = Wavepacket.gaussian(center=(1.0, 0.0))  # its own conjugate
    kernel = kernel_as_gaussian(VACUUM, [f, g, f, real, g.conjugate()])
    family = [f, g, real, g.conjugate(), f.conjugate()]
    assert [i.tag for i in kernel.indices] == [p.key() for p in family]
    assert [i.ctag for i in kernel.indices] == [p.conjugate().key() for p in family]


def test_spec_validation():
    with pytest.raises(ValueError):
        FieldKernelSpec(mass=0.0)
    with pytest.raises(ValueError):
        FieldKernelSpec(mass=1.0, beta=-1.0)
    with pytest.raises(ValueError):
        FieldKernelSpec(mass=1.0, rest_frame=(0.5, 0.0))


@pytest.mark.parametrize("fields", [
    {"mass": math.nan},
    {"mass": 1.0, "hbar": math.nan},
    {"mass": 1.0, "rest_frame": (math.nan, 0.0)},
    {"mass": 1.0, "rest_frame": (1e200, 1e200)},
    {"mass": 1.0, "rest_frame": (1e155, 1e155)},
], ids=["mass-nan", "hbar-nan", "frame-nan", "frame-1e200", "frame-1e155"])
def test_spec_validation_refuses_nan(fields):
    # an overflowing rest frame makes ut*ut - ux*ux the NaN inf - inf
    with pytest.raises(ValueError):
        FieldKernelSpec(**fields)
