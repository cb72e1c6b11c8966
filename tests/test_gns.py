import json
import math
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import gram_by_word_expect
from qcmt import gns
from qcmt.algebra import Index, paired_indices
from qcmt.gaussian import GaussianKernel
from qcmt.gns import GRAM_TOLERANCE, build_basis, gram, represent
from qcmt.verify import check_extended_positivity, check_gram_psd


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
    state = k2
    report = gram(build_basis(k2.indices, 1), state)
    expected = np.array([[1, 0, 0], [0, 1, 0.5], [0, 0.5, 1]], dtype=complex)
    assert np.allclose(report.gram, expected)
    assert report.null_dimension == 0
    assert np.max(np.abs(report.gram - report.gram.conj().T)) <= 1e-12


def test_gram_of_identity_basis(k2):
    report = gram(build_basis([], 0), k2)
    assert report.gram.shape == (1, 1)
    assert report.gram[0, 0] == 1


def test_gram_degenerate_kernel_has_null_space():
    report = gram(build_basis([1, 2], 1), degenerate_kernel())
    assert report.null_dimension >= 1
    assert report.min_eigenvalue >= -1e-12


def test_gram_psd_for_gaussian_states(k3):
    state = k3
    for degree in (1, 2, 3):
        report = gram(build_basis(k3.indices, degree), state)
        assert report.min_eigenvalue >= -1e-10
        assert np.max(np.abs(report.gram - report.gram.conj().T)) <= 1e-12


@pytest.mark.parametrize("depth, positive", [(0.5, True), (2.0, False)])
def test_one_positivity_verdict_at_the_tolerance_bound(depth, positive):
    # spectrum {-depth * bound, 4}, bound = tol * max(1, 4); the degree-1
    # Gram matrix of self-conjugate tags has spectrum {1} and the kernel's
    tol = GRAM_TOLERANCE  # the tolerance represent cuts at
    lowest = -depth * tol * 4.0
    c, s = math.cos(0.3), math.sin(0.3)
    rotation = np.array([[c, -s], [s, c]])
    matrix = rotation @ np.diag([lowest, 4.0]) @ rotation.T
    kernel = GaussianKernel([1, 2], matrix, validate=False, tol=tol)
    state = kernel
    verdicts = {}
    try:
        GaussianKernel([1, 2], matrix, tol=tol)
        verdicts["validate"] = True
    except ValueError:
        verdicts["validate"] = False
    report = gram(build_basis(kernel.indices, 1), state, tolerance=tol)
    verdicts["gram"] = report.is_positive()
    verdicts["check_gram_psd"] = check_gram_psd(report).passed
    verdicts["check_extended_positivity"] = check_extended_positivity(report).passed
    try:
        represent(build_basis(kernel.indices, 0), state)
        verdicts["represent"] = True
    except ValueError:
        verdicts["represent"] = False
    assert verdicts == dict.fromkeys(verdicts, positive)
    assert report.eigenvalues[0] == pytest.approx(lowest, rel=1e-3)


def test_gram_report_serializes():
    report = gram(build_basis([1, 2], 1), degenerate_kernel())
    payload = report.as_dict()
    assert json.loads(json.dumps(payload, allow_nan=False)) == payload
    assert set(payload) == {"dimension", "eigenvalues", "null_dimension", "tolerance"}
    assert payload["dimension"] == 3
    assert payload["eigenvalues"] == sorted(payload["eigenvalues"])


# ---------------------------------------------------------------- represent


def test_representation_reproduces_two_point(k2):
    state = k2
    rep = represent(build_basis(k2.indices, 1), state)
    i1, i2 = k2.indices
    assert abs(rep.vacuum_expectation((i1, i2)) - 0.5) <= 1e-9


def test_representation_identity_is_cyclic(k2):
    rep = represent(build_basis(k2.indices, 1), k2)
    assert abs(rep.vacuum_expectation(()) - 1.0) <= 1e-12


def test_representation_reproduces_all_short_words(k3):
    state = k3
    degree = 2
    rep = represent(build_basis(k3.indices, degree), state)
    for length in range(degree + 1):
        for w in product(k3.indices, repeat=length):
            err = abs(rep.vacuum_expectation(w) - state.word_expect(w))
            assert err <= 1e-9


def test_representation_quotients_null_space():
    state = degenerate_kernel()
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
    rep = represent(basis, k2)
    i1, _ = k2.indices
    rows, cols = rep._level_maps[i1][basis.degree].shape
    assert cols == rep.dimension
    assert rows >= cols


def test_representation_rejects_long_words(k2):
    rep = represent(build_basis(k2.indices, 1), k2)
    i1, i2 = k2.indices
    with pytest.raises(ValueError, match="degree"):
        rep.apply_word((i1, i2, i1))


def test_represent_rejects_indefinite_state():
    bad = GaussianKernel([1, 2], [[1.0, 2.0], [2.0, 1.0]], validate=False)
    with pytest.raises(ValueError, match="not a state"):
        represent(build_basis(bad.indices, 1), bad)


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
    top = gram(top_basis, GaussianKernel(indices, matrix)).gram
    for j in range(degree + 2):
        basis = build_basis(indices, j)
        n = len(basis)
        assert basis.words == top_basis.words[:n]
        fresh = GaussianKernel(indices, matrix)
        assert gram(basis, fresh).gram.tobytes() == top[:n, :n].tobytes()


# ------------------------------------------------- the fill against the per-entry oracle

# parts of kernel entries; zeros are frequent, so contractions are skipped
PARTS = (0.0, 0.0, 1.0, -0.5, 0.3, 1.7)


@st.composite
def fill_kernels(draw, kinds=("real", "hermitian", "paired", "degenerate"), max_degree=4):
    """(kernel indices, matrix, degree): 0-4 indices, self-conjugate or with partner pairs.

    A real or Hermitian matrix is A + A^H for a drawn upper triangle A, so it
    need not be positive; a degenerate one is v v^H, of rank at most one.
    """
    n = draw(st.integers(0, 4))
    kind = draw(st.sampled_from(kinds))
    pairs = draw(st.integers(min(1, n // 2), n // 2)) if kind == "paired" else 0
    indices = [ix for p in range(pairs) for ix in paired_indices(f"a{p}", f"b{p}")]
    indices += [Index(t) for t in range(n - 2 * pairs)]
    parts = st.sampled_from(PARTS)
    imaginary = (lambda: 0.0) if kind == "real" else (lambda: draw(parts))
    if kind == "degenerate":
        v = np.array([complex(draw(parts), imaginary()) for _ in range(n)])
        matrix = np.outer(v, v.conj())
    else:
        upper = np.zeros((n, n), dtype=complex)
        for a in range(n):
            for b in range(a, n):
                upper[a, b] = complex(draw(parts), imaginary() if a != b else 0.0)
        matrix = upper + upper.conj().T
    return indices, matrix, draw(st.integers(0, max_degree))


# the largest shape drawn, N = 341, on two partner pairs with one zero entry
LARGEST = ([*paired_indices("a", "a*"), *paired_indices("b", "b*")],
           [[1.0, 0.3j, 0.2, 0.0], [-0.3j, 1.0, 0.1 - 0.2j, 0.5], [0.2, 0.1 + 0.2j, 0.9, 0.4j],
            [0.0, 0.5, -0.4j, 1.2]], 4)


@settings(max_examples=25, deadline=None)
@given(fill_kernels())
@example(LARGEST)
def test_gram_is_bitwise_the_per_entry_fill(case):
    indices, matrix, degree = case
    basis = build_basis(indices, degree)
    assert len(basis) <= 400
    fill = gram(basis, GaussianKernel(indices, matrix, validate=False)).gram
    oracle = gram_by_word_expect(basis, GaussianKernel(indices, matrix, validate=False))
    assert fill.tobytes() == oracle.tobytes()


@settings(max_examples=20, deadline=None)
@given(fill_kernels(kinds=("real", "hermitian", "paired"), max_degree=2))
def test_represent_fills_its_top_gram_as_the_per_entry_fill(case):
    indices, matrix, degree = case
    positive = matrix @ matrix.conj().T + np.eye(len(indices))  # represent refuses non-states
    fill, filled = gns._gram_matrix, []

    def capture(basis, kernel):
        filled.append((basis, fill(basis, kernel)))
        return filled[-1][1]

    with mock.patch.object(gns, "_gram_matrix", capture):
        represent(build_basis(indices, degree), GaussianKernel(indices, positive))
    ((top, g),) = filled
    assert top.degree == degree + 1
    assert g.tobytes() == gram_by_word_expect(top, GaussianKernel(indices, positive)).tobytes()


@pytest.mark.parametrize("degree", [0, 1, 3])
def test_a_fill_codes_each_word_and_each_adjoint_once(degree):
    a, ac = paired_indices("a", "a*")
    kernel = GaussianKernel([a, ac, Index(3)], [[1.0, 0.3j, 0.2], [-0.3j, 1.0, 0.0], [0.2, 0.0, 0.9]])
    basis = build_basis(kernel.indices, degree)
    with mock.patch.object(GaussianKernel, "_encode", autospec=True,
                           side_effect=GaussianKernel._encode) as encode:
        gram(basis, kernel)
    assert encode.call_count == 2 * len(basis)
