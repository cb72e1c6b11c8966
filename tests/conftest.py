import random

import numpy as np
import pytest

from qcmt.algebra import AlgebraElement, Index, draw_terms, paired_indices
from qcmt.gaussian import GaussianKernel

K2 = [[1.0, 0.5], [0.5, 1.0]]
K3 = [[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]]


@pytest.fixture
def k2():
    return GaussianKernel([1, 2], K2)


@pytest.fixture
def k3():
    return GaussianKernel([1, 2, 3], K3)


@pytest.fixture
def k_paired():
    """Complex Hermitian kernel over a conjugate index pair (a, a*)."""
    a, ac = paired_indices("a", "a*")
    return GaussianKernel([a, ac], [[1.0, 0.3j], [-0.3j, 1.0]])


@pytest.fixture
def rng():
    return np.random.default_rng(20220815)


def seeded(rng) -> random.Random:
    """A ``random.Random`` for the draw helpers, seeded from the numpy ``rng`` fixture."""
    return random.Random(int(rng.integers(2**32)))


def random_element(rng, pool, max_terms=3, max_len=3, integer=True):
    """Random algebra element of one-segment ``draw_terms`` words; integer coefficients keep
    cancellations exact."""
    (drawn,) = draw_terms(seeded(rng), 1, len(pool), max_terms, max_len, normal=not integer)
    terms = {}
    for (segment,), c in drawn:
        word = tuple(pool[k] for k in segment)
        terms[word] = terms.get(word, 0j) + c
    return AlgebraElement(terms)


def index_pool():
    a, ac = paired_indices("a", "a*")
    return (Index(1), Index(2), a, ac)
