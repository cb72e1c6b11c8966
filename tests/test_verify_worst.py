"""A NaN residual fails its check.

``max(0.0, nan)`` is 0.0, so a running maximum would read a NaN residual as
a pass.  Each test puts a NaN into one check's residuals and asserts that the
check reports a NaN ``worst`` and fails; ``qcmt verify`` then exits 3, since
a report never holds a non-finite number.
"""

import math

import numpy as np

from qcmt import cli, verify
from qcmt.algebra import AlgebraElement
from qcmt.fields import FieldKernelSpec, Wavepacket
from qcmt.gaussian import GaussianKernel
from qcmt.gns import build_basis, gram
from qcmt.koopman import PhaseSpacePolynomial

NAN = math.nan
VACUUM = FieldKernelSpec(mass=1.0)
THERMAL = FieldKernelSpec(mass=1.0, beta=1.0)
F = Wavepacket.gaussian(center=(0.0, 0.0), width=1.0)
G = Wavepacket.gaussian(center=(0.0, 0.5), width=1.0)
SEPARATIONS = (6.0, 10.0)


def assert_fails_on_nan(result):
    assert math.isnan(result.worst) and not result.passed


def test_algebra_laws_sees_a_nan_residual(monkeypatch):
    monkeypatch.setattr(AlgebraElement, "max_abs_coeff", lambda self: NAN)
    assert_fails_on_nan(verify.check_algebra_laws(seed=0))


def test_wick_oracle_sees_a_nan_moment():
    # the entries G[a, b] with |w_a| = |w_b| = 2 hold the moments of length 4
    kernel = GaussianKernel([1, 2], [[1.0, 0.5], [0.5, 1.0]])
    basis = build_basis(kernel.indices, verify.GRAM_DEGREE)
    g = gram(basis, kernel).gram
    top = np.array([len(w) == 2 for w in basis.words])
    g[np.ix_(top, top)] = NAN
    assert_fails_on_nan(verify.check_wick_oracle(kernel, g))


def test_bracket_relations_sees_a_nan_jacobi_residual(monkeypatch):
    from qcmt.koopman import PolynomialBatch

    original = verify.bracket_residuals

    def nan_jacobi(u, v, f):
        *relations, jacobi = original(u, v, f)
        nan = PhaseSpacePolynomial.constant(u.dimension, NAN)
        return (*relations, jacobi + PolynomialBatch.of([nan] * u.count))

    monkeypatch.setattr(verify, "bracket_residuals", nan_jacobi)
    assert_fails_on_nan(verify.check_bracket_relations(seed=0))


def test_vacuum_boost_invariance_sees_a_nan_deviation(monkeypatch):
    original = verify.boost_deviation
    monkeypatch.setattr(verify, "boost_deviation",
                        lambda spec, f, g, chi, base:
                        NAN if chi == 0.25 else original(spec, f, g, chi, base))
    assert_fails_on_nan(verify.check_vacuum_boost_invariance(VACUUM, F, G))


def _nan_commutator(monkeypatch, thermal: bool):
    """``verify.commutator_kernel`` gives NaN on a thermal spec, or on the vacuum spec."""
    original = verify.commutator_kernel
    monkeypatch.setattr(verify, "commutator_kernel",
                        lambda spec, f, g: complex(NAN, 0.0) if spec.is_thermal == thermal
                        else original(spec, f, g))


def test_microcausality_decay_sees_a_nan_commutator(monkeypatch):
    _nan_commutator(monkeypatch, thermal=False)
    (decay,) = verify.check_microcausality(VACUUM, F, G, SEPARATIONS)
    assert decay.name == "microcausality-decay"
    assert_fails_on_nan(decay)


def test_beta_independence_sees_a_nan_commutator(monkeypatch):
    _nan_commutator(monkeypatch, thermal=True)
    decay, beta = verify.check_microcausality(THERMAL, F, G, SEPARATIONS)
    assert beta.name == "commutator-beta-independence"
    assert decay.passed and math.isfinite(decay.worst)
    assert_fails_on_nan(beta)


def test_a_nan_worst_makes_verify_exit_3(monkeypatch, capsys):
    # the degree-2 Gram holds the NaN moments, so its non-finite check raises first
    original = GaussianKernel.moment
    monkeypatch.setattr(GaussianKernel, "moment",
                        lambda self, codes: NAN if len(codes) == 4 else original(self, codes))
    assert cli.main(["verify"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "non-finite" in err and "Traceback" not in err
