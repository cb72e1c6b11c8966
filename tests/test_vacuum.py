import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_element
from oracles import DictExtendedElement, probe_value_by_products
from qcmt.algebra import AlgebraElement, Index, draw_terms, generator, paired_indices, word_adjoint
from qcmt.gaussian import GaussianKernel
from qcmt.gns import build_basis, gram
from qcmt.vacuum import (
    ConditionedState,
    ExtendedElement,
    commutation_witness,
    extended_expect,
    extended_positivity_probe,
    extended_word_expect,
    normalize_segments,
)
from qcmt.verify import check_extended_positivity

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
    state = k2
    assert extended_expect(state, V) == 1


def test_factorization_kills_split_words(k2):
    state = k2
    i1, i2 = k2.indices
    assert extended_word_expect(state, ((i1,), (i2,))) == 0


def test_factorization_recovers_two_point(k2):
    state = k2
    i1, i2 = k2.indices
    assert extended_word_expect(state, ((), (i1, i2), ())) == 0.5


def test_extension_restricts_to_base_state(k2, rng):
    state = k2
    for _ in range(25):
        a = random_element(rng, k2.indices, max_len=4)
        assert extended_expect(state, ExtendedElement.embed(a)) == state.expect(a)


# ------------------------------------------------------------ witness


def test_commutation_witness(k2):
    state = k2
    i1, i2 = k2.indices
    between, in_front = commutation_witness(state, i1, i2)
    assert between == 0
    assert in_front == 0.5


def test_witness_absent_for_orthogonal_indices():
    kernel = GaussianKernel([1, 2], [[1.0, 0.0], [0.0, 1.0]])
    i1, i2 = kernel.indices
    between, in_front = commutation_witness(kernel, i1, i2)
    assert between == 0
    assert in_front == 0


def test_witness_same_index(k2):
    i1, _ = k2.indices
    between, in_front = commutation_witness(k2, i1, i1)
    assert between == 0
    assert in_front == 1.0


# ------------------------------------------------------------ positivity


def test_extended_positivity_probe(k2):
    state = k2
    assert extended_positivity_probe(state, 200, seed=0) >= -1e-10


def test_extended_positivity_probe_vacuous(k2):
    import math

    assert extended_positivity_probe(k2, 0) == math.inf


def test_extended_probe_detects_non_state_at_most_seeds():
    # seed 0 misses today; a weaker redraw of the probe must not miss more than two
    bad = GaussianKernel([1, 2], [[1.0, 2.0], [2.0, 1.0]], validate=False)
    flagged = sum(extended_positivity_probe(bad, 200, seed=s) < -1e-6 for s in range(10))
    assert flagged >= 8


_a, _ac = paired_indices("a", "a*")
FORM_KERNELS = {
    "real-symmetric": GaussianKernel([1, 2, 3], [[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]]),
    "hermitian": GaussianKernel([1, 2], [[1.0, 0.3 + 0.4j], [0.3 - 0.4j, 0.8]]),
    "conjugate-pair": GaussianKernel(
        [_a, _ac, Index(3)],
        [[1.0, 0.3j, 0.2], [-0.3j, 1.0, 0.1 - 0.2j], [0.2, 0.1 + 0.2j, 0.9]],
    ),
    "non-state": GaussianKernel([1, 2], [[1.0, 2.0], [2.0, 1.0]], validate=False),
}
# (max_words, max_segments, max_len) of extended_positivity_probe
PROBE_SHAPES = {"extended": (3, 3, 2)}


def _drawn_elements(pool, trials, seed, max_words, max_segments, max_len):
    """The probe's elements for ``seed``, each summed term by term in the extended algebra."""
    drawn = draw_terms(seed, trials, len(pool), max_words, max_len, max_segments, normal=True)
    return [
        sum((ExtendedElement({tuple(tuple(pool[k] for k in s) for s in w): c}) for w, c in terms),
            ExtendedElement())
        for terms in drawn
    ]


def _pair_scale(state, element):
    """sum_ab |c_a c_b rho(w_a^dagger w_b)|, the size of the round-off of either route."""
    glue, adjoint = DictExtendedElement._word_product, DictExtendedElement._word_adjoint
    return sum(
        abs(ca * cb * extended_word_expect(state, glue(adjoint(wa), wb)))
        for wa, ca in element.terms.items()
        for wb, cb in element.terms.items()
    )


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(FORM_KERNELS)), st.sampled_from(sorted(PROBE_SHAPES)),
       st.integers(0, 2**32 - 1), st.integers(1, 12))
def test_probe_is_the_least_oracle_value_over_its_draws(kernel, shape, seed, trials):
    state = FORM_KERNELS[kernel]
    elements = _drawn_elements(state.indices, trials, seed, *PROBE_SHAPES[shape])
    least = min(probe_value_by_products(state, e) for e in elements)
    scale = max(_pair_scale(state, e) for e in elements)
    assert abs(extended_positivity_probe(state, trials, seed) - least) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(FORM_KERNELS)), st.integers(0, 2**32 - 1))
def test_exact_extended_verdict_covers_the_probe(kernel, seed):
    # verify judges extended positivity by the degree-2 Gram: for E = sum_a c_a w_a,
    # rho(E^dagger E) = y^H G_2 y with y_h = sum over head_a = h of c_a prod rho(tail)
    state = FORM_KERNELS[kernel]
    basis = build_basis(state.indices, 2)
    report = gram(basis, state)
    row = {w: r for r, w in enumerate(basis.words)}
    for element in _drawn_elements(state.indices, 8, seed, *PROBE_SHAPES["extended"]):
        y = np.zeros(len(basis), dtype=complex)
        for (head, *tail), c in element.terms.items():
            for s in tail:
                assert state.word_expect(word_adjoint(s)) == state.word_expect(s).conjugate()
                c *= state.word_expect(s)
            y[row[head]] += c
        form = np.vdot(y, report.gram @ y)
        bound = 1e-12 * _pair_scale(state, element)
        assert abs(probe_value_by_products(state, element) - form.real) <= bound
        assert abs(form.imag) <= bound
    if extended_positivity_probe(state, 200, seed=seed) < -1e-10:
        assert not check_extended_positivity(report).passed


def test_probes_raise_the_kernel_key_error_on_a_missing_pairing():
    # index 1 names the partner tag 9, which the kernel does not hold
    state = GaussianKernel([Index(1, 9), Index(2)], [[1.0, 0.5], [0.5, 1.0]])
    element = ExtendedElement.from_word((Index(1, 9), Index(2)))
    with pytest.raises(KeyError):
        probe_value_by_products(state, element)
    with pytest.raises(KeyError):
        extended_positivity_probe(state, 200, seed=0)


def test_extended_gram_matrix_is_psd(k2):
    # Gram over a family of extended words; PSD-ness is the checkable face
    # of the extension being a state
    state = k2
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
    state = k2
    i1, _ = k2.indices
    x = ExtendedElement({((i1,), ()): 1.0})
    value = extended_expect(state, x.adjoint() * x)
    assert np.isclose(value, 1.0)


# ------------------------------------------------------------ conditioning


def test_identity_conditioning_is_no_op(k2, rng):
    state = k2
    conditioned = ConditionedState(state, AlgebraElement.identity())
    for _ in range(20):
        a = random_element(rng, k2.indices, max_len=4)
        assert np.isclose(conditioned.expect(a), state.expect(a))


def test_conditioning_shifts_second_moment(k2):
    state = k2
    i1, i2 = k2.indices
    conditioned = ConditionedState(state, generator(i1))
    assert np.isclose(conditioned.word_expect((i2, i2)), 1.5)


def test_conditioned_state_is_normalized(k2):
    state = k2
    i1, _ = k2.indices
    conditioned = ConditionedState(state, generator(i1))
    assert np.isclose(conditioned.word_expect(()), 1.0)


def test_null_conditioner_rejected():
    kernel = GaussianKernel([1, 2], [[1.0, 1.0], [1.0, 1.0]])
    state = kernel
    i1, i2 = kernel.indices
    with pytest.raises(ValueError, match="vanishing"):
        ConditionedState(state, generator(i1) - generator(i2))


def test_conditioned_state_axioms(k2, rng):
    state = k2
    i1, i2 = k2.indices
    conditioned = ConditionedState(state, generator(i1) + 0.5 * generator(i2))
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
