"""The memoized contraction recursion behind ``wick_expect``.

Cross-checked against explicit matching enumeration and generating-series
differentiation, and held to the memo's rules: a moment does not depend
on what the kernel evaluated before, the memo never confuses indices that
share a tag but not an involution partner, and it stays bounded and owned
by one kernel.
"""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import series_by_exponent_tuples, wick_by_matchings
from qcmt import gaussian
from qcmt.algebra import Index, paired_indices
from qcmt.gaussian import (
    MEMO_CAP,
    GaussianKernel,
    moment_from_generating_series,
    wick_expect,
)
from qcmt.gns import build_basis, gram

KINDS = ("real", "hermitian", "paired")


def _indices(kind, n):
    if kind != "paired":
        return [Index(t) for t in range(1, n + 1)]
    out = []
    for t in range(1, n, 2):
        out.extend(paired_indices(t, t + 1))
    if n % 2:
        out.append(Index(n))
    return out


@st.composite
def kernels_and_words(draw, max_words=3):
    """A random PSD kernel of one kind over 2-4 indices, plus 1 to ``max_words`` words."""
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(2, 4))
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    a = np.array(draw(st.lists(unit, min_size=n * n, max_size=n * n))).reshape(n, n)
    if kind != "real":
        b = np.array(draw(st.lists(unit, min_size=n * n, max_size=n * n))).reshape(n, n)
        a = a + 1j * b
    matrix = a @ a.conj().T / n + 0.1 * np.eye(n)
    kernel = GaussianKernel(_indices(kind, n), matrix)
    position = st.integers(0, n - 1)
    words = draw(st.lists(st.lists(position, max_size=10), min_size=1, max_size=max_words))
    return kernel, [tuple(kernel.indices[p] for p in w) for w in words]


@settings(max_examples=60, deadline=None)
@given(kernels_and_words())
def test_recursion_matches_enumeration_and_series(case):
    kernel, words = case
    top = float(np.max(np.abs(kernel.matrix())))
    for w in words:
        # bound on the sum of |terms|: (N-1)!! matchings of N/2 contractions
        scale = max(1.0, math.prod(range(len(w) - 1, 0, -2)) * top ** (len(w) // 2))
        value = wick_expect(kernel, w)
        assert abs(value - wick_by_matchings(kernel, w)) <= 1e-12 * scale
        assert abs(value - moment_from_generating_series(kernel, w)) <= 1e-10 * scale


@settings(max_examples=40, deadline=None)
@given(kernels_and_words(max_words=1))
def test_bitmask_series_is_bitwise_the_tuple_series(case):
    kernel, words = case
    for w in words:
        value = moment_from_generating_series(kernel, w)
        expected = series_by_exponent_tuples(kernel, w)
        assert (value.real.hex(), value.imag.hex()) == (expected.real.hex(), expected.imag.hex())


def _complex_kernel():
    a, ac = paired_indices("a", "a*")
    matrix = [[1.0, 0.3j, 0.2], [-0.3j, 1.0, 0.1 - 0.2j], [0.2, 0.1 + 0.2j, 0.9]]
    return GaussianKernel([a, ac, Index(3)], matrix)


def test_moments_do_not_depend_on_memo_history():
    rng = np.random.default_rng(7)
    pool = _complex_kernel().indices
    words = [
        tuple(pool[int(k)] for k in rng.integers(0, len(pool), size=length))
        for length in (2, 4, 6, 6, 8, 8, 10, 10, 12)
    ]
    fresh = np.array([wick_expect(_complex_kernel(), w) for w in words])
    warm = _complex_kernel()
    gram(build_basis(warm.indices, 3), warm)
    warmed = np.array([warm.word_expect(w) for w in reversed(words)])[::-1]
    assert fresh.tobytes() == warmed.tobytes()


def test_memo_keeps_involution_partners_apart():
    kernel = GaussianKernel([1, 2], [[1.0, 0.3 + 0.4j], [0.3 - 0.4j, 0.8]])
    plain, partnered = Index(1), Index(1, 2)
    # same tags, different ctag: a tag-keyed memo would return 3 for both
    assert wick_expect(kernel, (plain,) * 4) == 3
    assert wick_expect(kernel, (partnered,) * 4) != 3
    pool = (plain, partnered, Index(2), Index(2, 1))
    for length in (4, 6):
        for w in product(pool, repeat=length):
            assert abs(wick_expect(kernel, w) - wick_by_matchings(kernel, w)) <= 1e-12


def test_memo_is_bounded_per_kernel():
    kernel = GaussianKernel([1, 2, 3], np.eye(3) + 0.1)
    other = GaussianKernel([1, 2, 3], np.eye(3) + 0.1)
    gram(build_basis(kernel.indices, 4), kernel)
    assert 1 < len(kernel._memo) <= MEMO_CAP
    assert other._memo == {(): 1}


def test_full_memo_is_emptied_and_refilled(monkeypatch):
    monkeypatch.setattr(gaussian, "MEMO_CAP", 16)
    kernel = _complex_kernel()
    for w in product(kernel.indices, repeat=6):
        assert abs(wick_expect(kernel, w) - wick_by_matchings(kernel, w)) <= 1e-12
        assert len(kernel._memo) <= 16
        assert kernel._memo[()] == 1
        # the last sub-word of the expansion is stored, full memo or not
        assert kernel._encode(w[1:-1]) in kernel._memo


def test_unknown_index_raises_and_leaves_kernel_usable():
    kernel = _complex_kernel()
    a = kernel.indices[0]
    # an unknown tag, and a known tag whose partner tag is unknown
    for stranger in (Index("z"), Index(3, "zz")):
        with pytest.raises(KeyError):
            wick_expect(kernel, (a, stranger, a, a))
    w = (a, a.involve(), a, a.involve())
    assert abs(wick_expect(kernel, w) - wick_by_matchings(kernel, w)) <= 1e-12
