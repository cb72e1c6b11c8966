import numpy as np
import pytest

from qcmt.algebra import Index, paired_indices
from qcmt.gaussian import GaussianKernel
from qcmt.verify import _integer_coeff, _random_element

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


def _normal_coeff(rng):
    return complex(rng.standard_normal(), rng.standard_normal())


def random_element(rng, pool, max_terms=3, max_len=3, integer=True):
    """Random algebra element; integer coefficients keep cancellations exact."""
    draw = _integer_coeff if integer else _normal_coeff
    return _random_element(rng, pool, max_terms, max_len, draw)


def index_pool():
    a, ac = paired_indices("a", "a*")
    return (Index(1), Index(2), a, ac)
