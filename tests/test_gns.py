import json
import math
from itertools import product

import numpy as np
import pytest

from qcmt.algebra import AlgebraElement, Index, generator, paired_indices
from qcmt.gaussian import GaussianKernel, GaussianState
from qcmt.gns import build_basis, gram, positivity_probe, represent
from qcmt.verify import check_gram_psd


def degenerate_kernel():
    return GaussianKernel([1, 2], [[1.0, 1.0], [1.0, 1.0]])


# ---------------------------------------------------------------- build_basis


def test_basis_degree_one():
    basis = build_basis([1, 2], 1)
    i1, i2 = basis.indices
    assert basis.words == ((), (i1,), (i2,))


def test_basis_single_index_degree_two():
    basis = build_basis([1], 2)
    (i,) = basis.indices
    assert basis.words == ((), (i,), (i, i))


def test_basis_empty_index_set():
    basis = build_basis([], 3)
    assert basis.words == ((),)


def test_basis_identity_first_no_duplicates():
    basis = build_basis([1, 2, 3], 3)
    assert basis.words[0] == ()
    assert len(set(basis.words)) == len(basis.words)
    assert len(basis) == 1 + 3 + 9 + 27


def test_basis_rejects_duplicate_tags():
    with pytest.raises(ValueError, match="distinct"):
        build_basis([1, 1], 1)


# ---------------------------------------------------------------- gram


def test_gram_matches_two_point_table(k2):
    state = GaussianState(k2)
    report = gram(build_basis(k2.indices, 1), state)
    expected = np.array([[1, 0, 0], [0, 1, 0.5], [0, 0.5, 1]], dtype=complex)
    assert np.allclose(report.gram, expected)
    assert report.null_dimension == 0
    assert np.max(np.abs(report.gram - report.gram.conj().T)) <= 1e-12


def test_gram_of_identity_basis(k2):
    report = gram(build_basis([], 0), GaussianState(k2))
    assert report.gram.shape == (1, 1)
    assert report.gram[0, 0] == 1


def test_gram_degenerate_kernel_has_null_space():
    report = gram(build_basis([1, 2], 1), GaussianState(degenerate_kernel()))
    assert report.null_dimension >= 1
    assert report.min_eigenvalue >= -1e-12


def test_gram_psd_for_gaussian_states(k3):
    state = GaussianState(k3)
    for degree in (1, 2, 3):
        report = gram(build_basis(k3.indices, degree), state)
        assert report.min_eigenvalue >= -1e-10
        assert np.max(np.abs(report.gram - report.gram.conj().T)) <= 1e-12


@pytest.mark.parametrize("depth, positive", [(0.5, True), (2.0, False)])
def test_one_positivity_verdict_at_the_tolerance_bound(depth, positive):
    # spectrum {-depth * bound, 4}, bound = tol * max(1, 4); the degree-1
    # Gram matrix of self-conjugate tags has spectrum {1} and the kernel's
    tol = 1e-10
    lowest = -depth * tol * 4.0
    c, s = math.cos(0.3), math.sin(0.3)
    rotation = np.array([[c, -s], [s, c]])
    matrix = rotation @ np.diag([lowest, 4.0]) @ rotation.T
    kernel = GaussianKernel([1, 2], matrix, validate=False, tol=tol)
    state = GaussianState(kernel)
    verdicts = {}
    try:
        kernel.validate()
        verdicts["validate"] = True
    except ValueError:
        verdicts["validate"] = False
    report = gram(build_basis(kernel.indices, 1), state, tolerance=tol)
    verdicts["gram"] = report.is_positive()
    verdicts["check_gram_psd"] = check_gram_psd(kernel, degree=1, tolerance=tol).passed
    try:
        represent(build_basis(kernel.indices, 0), state, tolerance=tol)
        verdicts["represent"] = True
    except ValueError:
        verdicts["represent"] = False
    assert verdicts == dict.fromkeys(verdicts, positive)
    assert report.eigenvalues[0] == pytest.approx(lowest, rel=1e-3)


def test_gram_report_serializes():
    report = gram(build_basis([1, 2], 1), GaussianState(degenerate_kernel()))
    payload = report.as_dict()
    assert json.loads(json.dumps(payload, allow_nan=False)) == payload
    assert set(payload) == {"dimension", "eigenvalues", "null_dimension", "tolerance"}
    assert payload["dimension"] == 3
    assert payload["eigenvalues"] == sorted(payload["eigenvalues"])


# ---------------------------------------------------------------- represent


def test_representation_reproduces_two_point(k2):
    state = GaussianState(k2)
    rep = represent(build_basis(k2.indices, 1), state)
    i1, i2 = k2.indices
    assert abs(rep.vacuum_expectation((i1, i2)) - 0.5) <= 1e-9


def test_representation_identity_is_cyclic(k2):
    rep = represent(build_basis(k2.indices, 1), GaussianState(k2))
    assert abs(rep.vacuum_expectation(()) - 1.0) <= 1e-12


def test_representation_reproduces_all_short_words(k3):
    state = GaussianState(k3)
    degree = 2
    rep = represent(build_basis(k3.indices, degree), state)
    for length in range(degree + 1):
        for w in product(k3.indices, repeat=length):
            err = abs(rep.vacuum_expectation(w) - state.word_expect(w))
            assert err <= 1e-9


def test_representation_quotients_null_space():
    state = GaussianState(degenerate_kernel())
    basis = build_basis(state.indices, 1)
    rep = represent(basis, state)
    assert rep.dimension < len(basis)
    # reproduction still holds on the quotient
    i1, i2 = state.indices
    for w in [(), (i1,), (i2,), (i1, i2), (i2, i2)]:
        if len(w) <= 1:
            assert abs(rep.vacuum_expectation(w) - state.word_expect(w)) <= 1e-9


def test_representation_maps_are_degree_raising(k2):
    basis = build_basis(k2.indices, 1)
    rep = represent(basis, GaussianState(k2))
    i1, _ = k2.indices
    rows, cols = rep.maps[i1].shape
    assert cols == rep.dimension
    assert rows >= cols


def test_representation_rejects_long_words(k2):
    rep = represent(build_basis(k2.indices, 1), GaussianState(k2))
    i1, i2 = k2.indices
    with pytest.raises(ValueError, match="degree"):
        rep.apply_word((i1, i2, i1))


def test_represent_rejects_indefinite_state():
    bad = GaussianKernel([1, 2], [[1.0, 2.0], [2.0, 1.0]], validate=False)
    with pytest.raises(ValueError, match="not a state"):
        represent(build_basis(bad.indices, 1), GaussianState(bad))


# ---------------------------------------------------------------- positivity probe


def test_probe_on_gaussian_state(k3):
    assert positivity_probe(GaussianState(k3), 150, 3, seed=7) >= -1e-10


def test_probe_detects_non_state():
    bad = GaussianKernel([1, 2], [[1.0, 2.0], [2.0, 1.0]], validate=False)
    state = GaussianState(bad)
    # deliberate element along the negative eigenvector
    i1, i2 = bad.indices
    witness = generator(i1) - generator(i2)
    assert state.expect(witness.adjoint() * witness).real < -1e-6
    # the randomized probe finds negativity on its own
    assert positivity_probe(state, 200, 1, seed=3) < -1e-6


def test_probe_with_no_trials_is_vacuous(k2):
    assert positivity_probe(GaussianState(k2), 0, 3) == math.inf


# ------------------------------------------------- leading blocks of the Gram matrix


def _seeded_kernel(kind, seed=11):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 3))
    if kind != "real":
        a = a + 1j * rng.standard_normal((3, 3))
    indices = [*paired_indices(1, 2), Index(3)] if kind == "paired" else [Index(t) for t in (1, 2, 3)]
    return indices, a @ a.conj().T / 3 + 0.1 * np.eye(3)


@pytest.mark.parametrize("kind", ["real", "hermitian", "paired"])
@pytest.mark.parametrize("degree", [0, 1, 2])
def test_lower_gram_is_leading_block_of_top_gram(kind, degree):
    # represent() slices every level's Gram matrix out of the degree + 1 one
    indices, matrix = _seeded_kernel(kind)
    top_basis = build_basis(indices, degree + 1)
    top = gram(top_basis, GaussianState(GaussianKernel(indices, matrix))).gram
    for j in range(degree + 2):
        basis = build_basis(indices, j)
        n = len(basis)
        assert basis.words == top_basis.words[:n]
        fresh = GaussianState(GaussianKernel(indices, matrix))
        assert gram(basis, fresh).gram.tobytes() == top[:n, :n].tobytes()
