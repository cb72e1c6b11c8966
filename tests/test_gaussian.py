import math
from itertools import product

import numpy as np
import pytest

from conftest import index_pool, random_element
from oracles import fd_word_moment
from qcmt.algebra import AlgebraElement, Index, generator, paired_indices
from qcmt.gaussian import (
    GaussianKernel,
    State,
    commutator_factor,
    generating_function,
    moment_from_generating_series,
    wick_expect,
)


def imaginary_kernel():
    """Hermitian PSD kernel with (1,2) = i/2; a genuinely quantum pairing."""
    return GaussianKernel([1, 2], [[1.0, 0.5j], [-0.5j, 1.0]])


# ---------------------------------------------------------------- kernel type


def test_kernel_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        GaussianKernel([1, 2], [[1.0, 0.5], [0.4, 1.0]])
    # validate=False skips only the positive semi-definite check
    with pytest.raises(ValueError, match="not Hermitian: defect 1.000e-01"):
        GaussianKernel([1, 2], [[1.0, 0.5], [0.4, 1.0]], validate=False)


def test_kernel_rejects_indefinite():
    with pytest.raises(ValueError, match="positive semi-definite"):
        GaussianKernel([1, 2], [[1.0, 2.0], [2.0, 1.0]])


def test_kernel_validate_can_be_disabled():
    bad = GaussianKernel([1, 2], [[1.0, 2.0], [2.0, 1.0]], validate=False)
    assert bad.pairing(Index(1), Index(2)) == 2.0
    with pytest.raises(ValueError, match="min eigenvalue -1.000e"):
        GaussianKernel([1, 2], bad.matrix())


def test_kernel_unknown_pair_raises(k2):
    with pytest.raises(KeyError, match="no entry"):
        k2.pairing(Index(1), Index(9))


def test_kernel_rejects_repeated_tags_and_wrong_shape():
    with pytest.raises(ValueError, match="repeat"):
        GaussianKernel([1, Index(1, 2)], np.eye(2))
    with pytest.raises(ValueError, match="does not match 2 indices"):
        GaussianKernel([1, 2], np.eye(3))


def test_kernel_stores_its_own_matrix():
    source = np.array([[1.0, 0.5j], [-0.5j, 1.0]])
    kernel = GaussianKernel([1, Index(2)], source)
    source[0, 1] = 7.0
    copy = kernel.matrix()
    copy[0, 0] = 7.0
    i, j = kernel.indices
    assert (i.tag, j.tag) == (1, 2) and i.self_conjugate
    assert kernel.pairing(i, j) == 0.5j and kernel.pairing(j, i) == -0.5j
    assert type(kernel.pairing(i, i)) is complex
    assert np.array_equal(kernel.matrix(), [[1.0, 0.5j], [-0.5j, 1.0]])


# ---------------------------------------------------------------- two-point values


def test_two_point_off_diagonal(k2):
    i1, i2 = k2.indices
    assert k2.word_expect((i1, i2)) == 0.5


def test_two_point_diagonal(k2):
    i1, _ = k2.indices
    assert k2.word_expect((i1, i1)) == 1.0


def test_two_point_paired_involution(k_paired):
    a, ac = k_paired.indices
    # rho(M_a M_a) = (a*, a)
    assert k_paired.word_expect((a, a)) == k_paired.pairing(ac, a)


# ---------------------------------------------------------------- wick_expect


def test_odd_moments_vanish(k2):
    i1, i2 = k2.indices
    assert wick_expect(k2, (i1,)) == 0
    assert wick_expect(k2, (i1, i2, i1)) == 0


def test_empty_word_is_normalized(k2):
    assert wick_expect(k2, ()) == 1


def test_four_point_alternating(k2):
    i1, i2 = k2.indices
    # three matchings: 0.25 + 1 + 0.25
    assert np.isclose(wick_expect(k2, (i1, i2, i1, i2)), 1.5)


def test_fourth_moment_single_index():
    kernel = GaussianKernel([1], [[1.0]])
    (i,) = kernel.indices
    assert np.isclose(wick_expect(kernel, (i, i, i, i)), 3.0)


def test_word_cap_refused(k2):
    i1, _ = k2.indices
    with pytest.raises(ValueError, match="cap"):
        wick_expect(k2, (i1,) * 13)


@pytest.mark.parametrize("max_len", [4])
def test_wick_matches_generating_series(k3, k_paired, max_len):
    for kernel in (k3, k_paired):
        for length in range(max_len + 1):
            for w in product(kernel.indices, repeat=length):
                direct = wick_expect(kernel, w)
                oracle = moment_from_generating_series(kernel, w)
                assert abs(direct - oracle) < 1e-8


def test_series_oracle_against_finite_differences(k2, k_paired):
    for kernel in (k2, k_paired):
        for length in range(5):
            for w in product(kernel.indices, repeat=length):
                series = moment_from_generating_series(kernel, w)
                fd = fd_word_moment(kernel, w)
                assert abs(series - fd) < 1e-6


# ---------------------------------------------------- generating_function


def test_generating_function_at_zero(k3):
    assert generating_function(k3, list(k3.indices), [0.0, 0.0, 0.0]) == 1


def test_generating_function_single_index():
    kernel = GaussianKernel([1], [[1.0]])
    (i,) = kernel.indices
    assert np.isclose(generating_function(kernel, [i], [1.0]), math.exp(-0.5))


def test_generating_function_two_indices(k2):
    i1, i2 = k2.indices
    assert np.isclose(generating_function(k2, [i1, i2], [1.0, 1.0]), math.exp(-1.5))


def test_generating_function_length_mismatch(k2):
    i1, _ = k2.indices
    with pytest.raises(ValueError, match="lambda"):
        generating_function(k2, [i1], [1.0, 2.0])


# ---------------------------------------------------- commutator_factor


def test_commutator_vanishes_for_symmetric_kernel(k2):
    i1, i2 = k2.indices
    assert commutator_factor(k2, i1, i2) == 0


def test_commutator_imaginary_kernel():
    kernel = imaginary_kernel()
    i1, i2 = kernel.indices
    value = commutator_factor(kernel, i1, i2)
    assert np.isclose(value, 1j)
    # cross-check against the moments themselves
    direct = wick_expect(kernel, (i1, i2)) - wick_expect(kernel, (i2, i1))
    assert np.isclose(value, direct)


def test_commutator_same_index(k2):
    i1, _ = k2.indices
    assert commutator_factor(k2, i1, i1) == 0


def test_commutator_identity_inside_words(rng):
    kernel = imaginary_kernel()
    i1, i2 = kernel.indices
    state = kernel
    factor = commutator_factor(kernel, i1, i2)
    m1, m2 = generator(i1), generator(i2)
    bracket = m1 * m2 - m2 * m1
    pool = kernel.indices
    for _ in range(30):
        a = random_element(rng, pool, max_len=3)
        b = random_element(rng, pool, max_len=3)
        lhs = state.expect(a * bracket * b)
        rhs = factor * state.expect(a * b)
        assert abs(lhs - rhs) <= 1e-10


# ---------------------------------------------------------------- state axioms


def test_kernel_is_its_gaussian_state(k_paired):
    assert isinstance(k_paired, State)
    a, ac = k_paired.indices
    word = (a, ac, a, ac)
    assert k_paired.word_expect(word) == wick_expect(k_paired, word)


def test_expect_is_normalized(k2):
    state = k2
    assert state.expect(AlgebraElement.identity()) == 1


def test_expect_extends_linearly(k2):
    i1, i2 = k2.indices
    state = k2
    element = 2 * (generator(i1) * generator(i2)) + 3 * AlgebraElement.identity()
    assert np.isclose(state.expect(element), 4.0)


def test_expect_of_cancelling_element(k2):
    i1, _ = k2.indices
    state = k2
    assert state.expect(generator(i1) - generator(i1)) == 0


def test_state_positivity_randomized(k3, rng):
    state = k3
    for _ in range(40):
        a = random_element(rng, k3.indices, max_terms=4, max_len=3, integer=False)
        value = state.expect(a.adjoint() * a)
        assert value.real >= -1e-10
        assert abs(value.imag) <= 1e-10


def test_state_adjoint_compatibility(k_paired, rng):
    state = k_paired
    for _ in range(40):
        a = random_element(rng, k_paired.indices, max_len=4, integer=False)
        assert abs(state.expect(a.adjoint()) - state.expect(a).conjugate()) <= 1e-12
