import numpy as np
import pytest

from conftest import random_element
from qcmt.algebra import AlgebraElement, generator
from qcmt.gaussian import GaussianKernel, GaussianState
from qcmt.vacuum import (
    ConditionedState,
    ExtendedElement,
    commutation_witness,
    condition,
    extended_expect,
    extended_positivity_probe,
    extended_word_expect,
    normalize_segments,
)

V = ExtendedElement.projector()


# ------------------------------------------------------------ normal form


def test_projector_is_idempotent():
    assert V * V == V
    assert V * V * V == V


def test_projector_is_self_adjoint():
    assert V.adjoint() == V


def test_adjoint_reverses_segments(k2):
    i1, i2 = k2.indices
    # (M1 V M2)^dagger = M2 V M1 for self-conjugate indices
    x = ExtendedElement({((i1,), (i2,)): 1.0})
    assert x.adjoint() == ExtendedElement({((i2,), (i1,)): 1.0})


def test_normalize_drops_inner_identities(k2):
    i1, _ = k2.indices
    assert normalize_segments([(i1,), (), (i1,)]) == ((i1,), (i1,))
    assert normalize_segments([(), (), ()]) == ((), ())
    assert normalize_segments([(i1,)]) == ((i1,),)


def test_embedding_multiplies_like_the_algebra(k2):
    i1, i2 = k2.indices
    a = ExtendedElement.embed(generator(i1))
    b = ExtendedElement.embed(generator(i2))
    assert a * b == ExtendedElement({((i1, i2),): 1.0})


# ------------------------------------------------------------ extended expectation


def test_projector_expectation_is_one(k2):
    state = GaussianState(k2)
    assert extended_expect(state, V) == 1


def test_factorization_kills_split_words(k2):
    state = GaussianState(k2)
    i1, i2 = k2.indices
    assert extended_word_expect(state, ((i1,), (i2,))) == 0


def test_factorization_recovers_two_point(k2):
    state = GaussianState(k2)
    i1, i2 = k2.indices
    assert extended_word_expect(state, ((), (i1, i2), ())) == 0.5


def test_extension_restricts_to_base_state(k2, rng):
    state = GaussianState(k2)
    for _ in range(25):
        a = random_element(rng, k2.indices, max_len=4)
        assert extended_expect(state, ExtendedElement.embed(a)) == state.expect(a)


# ------------------------------------------------------------ witness


def test_commutation_witness(k2):
    state = GaussianState(k2)
    i1, i2 = k2.indices
    between, in_front = commutation_witness(state, i1, i2)
    assert between == 0
    assert in_front == 0.5


def test_witness_absent_for_orthogonal_indices():
    kernel = GaussianKernel([1, 2], [[1.0, 0.0], [0.0, 1.0]])
    i1, i2 = kernel.indices
    between, in_front = commutation_witness(GaussianState(kernel), i1, i2)
    assert between == 0
    assert in_front == 0


def test_witness_same_index(k2):
    i1, _ = k2.indices
    between, in_front = commutation_witness(GaussianState(k2), i1, i1)
    assert between == 0
    assert in_front == 1.0


# ------------------------------------------------------------ positivity


def test_extended_positivity_probe(k2):
    state = GaussianState(k2)
    assert extended_positivity_probe(state, 200, seed=0) >= -1e-10


def test_extended_positivity_probe_vacuous(k2):
    import math

    assert extended_positivity_probe(GaussianState(k2), 0) == math.inf


def test_extended_gram_matrix_is_psd(k2):
    # Gram over a family of extended words; PSD-ness is the checkable face
    # of the extension being a state
    state = GaussianState(k2)
    i1, i2 = k2.indices
    family = [
        ((),),
        ((i1,),),
        ((i2,),),
        ((), ()),
        ((i1,), ()),
        ((), (i2,)),
        ((i1,), (i2,)),
        ((i1, i2), ()),
    ]
    words = [ExtendedElement({segments: 1.0}) for segments in family]
    size = len(words)
    matrix = np.zeros((size, size), dtype=complex)
    for a in range(size):
        for b in range(size):
            matrix[a, b] = extended_expect(state, words[a].adjoint() * words[b])
    assert np.max(np.abs(matrix - matrix.conj().T)) <= 1e-12
    assert np.linalg.eigvalsh(0.5 * (matrix + matrix.conj().T))[0] >= -1e-10


def test_explicit_extended_square(k2):
    # rho((M1 V)^dagger (M1 V)) = rho(V M1 M1 V) = (1,1) >= 0
    state = GaussianState(k2)
    i1, _ = k2.indices
    x = ExtendedElement({((i1,), ()): 1.0})
    value = extended_expect(state, x.adjoint() * x)
    assert np.isclose(value, 1.0)


# ------------------------------------------------------------ conditioning


def test_identity_conditioning_is_no_op(k2, rng):
    state = GaussianState(k2)
    conditioned = condition(state, AlgebraElement.identity())
    for _ in range(20):
        a = random_element(rng, k2.indices, max_len=4)
        assert np.isclose(conditioned.expect(a), state.expect(a))


def test_conditioning_shifts_second_moment(k2):
    state = GaussianState(k2)
    i1, i2 = k2.indices
    conditioned = condition(state, generator(i1))
    assert np.isclose(conditioned.word_expect((i2, i2)), 1.5)


def test_conditioned_state_is_normalized(k2):
    state = GaussianState(k2)
    i1, _ = k2.indices
    conditioned = condition(state, generator(i1))
    assert np.isclose(conditioned.word_expect(()), 1.0)


def test_null_conditioner_rejected():
    kernel = GaussianKernel([1, 2], [[1.0, 1.0], [1.0, 1.0]])
    state = GaussianState(kernel)
    i1, i2 = kernel.indices
    with pytest.raises(ValueError, match="vanishing"):
        condition(state, generator(i1) - generator(i2))


def test_conditioned_state_axioms(k2, rng):
    state = GaussianState(k2)
    i1, i2 = k2.indices
    conditioned = condition(state, generator(i1) + 0.5 * generator(i2))
    assert np.isclose(conditioned.expect(AlgebraElement.identity()), 1.0)
    for _ in range(25):
        a = random_element(rng, k2.indices, max_len=2, integer=False)
        b = random_element(rng, k2.indices, max_len=2, integer=False)
        lam = complex(rng.standard_normal(), rng.standard_normal())
        linear = conditioned.expect(lam * a + b) - (
            lam * conditioned.expect(a) + conditioned.expect(b)
        )
        assert abs(linear) <= 1e-10
        assert conditioned.expect(a.adjoint() * a).real >= -1e-10
        adjoint_gap = conditioned.expect(a.adjoint()) - conditioned.expect(a).conjugate()
        assert abs(adjoint_gap) <= 1e-10
