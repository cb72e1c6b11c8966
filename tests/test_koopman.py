import math
import operator
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from oracles import exact_quadratic_flow, poisson_by_derivatives, sympy_poisson
from qcmt import koopman, verify
from qcmt.algebra import AlgebraElement, Index
from qcmt.gaussian import GaussianState, commutator_factor, wick_expect
from qcmt.koopman import (
    MAX_FLOW_STEPS,
    FlowSpec,
    KoopmanOperator,
    PhaseSpacePolynomial,
    bracket_residuals,
    flow_sample,
    gibbs_oscillator_kernel,
    poisson,
)
from qcmt.verify import _monomials, check_bracket_relations
from qcmt.verify import _random_polynomial as random_polynomial


def coords(n=1):
    q = [PhaseSpacePolynomial.coordinate(n, "q", i) for i in range(n)]
    p = [PhaseSpacePolynomial.coordinate(n, "p", i) for i in range(n)]
    return q, p


# ------------------------------------------------------------- polynomials


def test_polynomial_validation():
    for dimension, terms in (
        (1, {(1,): 1.0}),
        (1, {(-1, 0): 1.0}),
        (0, None),
        (1, {(1.7, 0): 1}),
        (1, {(np.float64(1.0), 0): 1}),
        (1, {("2", 0): 1}),
        (1, {(True, 0): 1}),
        (1, {(math.inf, 0): 1}),
        (1, {5: 1}),
        (1.5, None),
        (True, None),
        ("1", None),
        (np.int64(-1), None),
    ):
        with pytest.raises(ValueError):
            PhaseSpacePolynomial(dimension, terms)
    for build in (
        lambda: PhaseSpacePolynomial.constant(1.5, 1),
        lambda: PhaseSpacePolynomial.coordinate(1.5, "q"),
        lambda: PhaseSpacePolynomial.coordinate(True, "p"),
    ):
        with pytest.raises(ValueError, match="dimension"):
            build()
    with pytest.raises(ValueError, match="axis"):
        PhaseSpacePolynomial.coordinate(2, "q", 0.5)


def test_numpy_integers_become_python_ints():
    u = PhaseSpacePolynomial(np.int64(1), {(np.int64(2), np.uint8(0)): 1})
    assert type(u.dimension) is int
    assert [type(e) for e in next(iter(u.terms))] == [int, int]
    assert u == PhaseSpacePolynomial(1, {(2, 0): 1})


def test_evaluation_overflow_raises_value_error():
    (q,), _ = coords()
    with pytest.raises(ValueError, match="overflow"):
        (q * q)((1e200, 0.0))


def test_polynomial_arithmetic_and_evaluation():
    (q,), (p,) = coords()
    u = q * q + 2 * p - PhaseSpacePolynomial.constant(1, 1.0)
    assert u((3.0, 0.5)) == 9.0 + 1.0 - 1.0
    assert (u - u).is_zero()
    assert u.degree() == 2


def test_dimension_mismatch_rejected():
    (q1,), _ = coords(1)
    q2 = PhaseSpacePolynomial.coordinate(2, "q", 0)
    with pytest.raises(ValueError, match="dimension"):
        poisson(q1, q2)


def _multiply(u, f):
    return KoopmanOperator.multiplication(u).apply(f)


def _derive(u, f):
    return KoopmanOperator.liouville(u).apply(f)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, _multiply, _derive])
def test_ring_operations_reject_mixed_dimensions(op):
    (q1,), _ = coords(1)
    q2 = PhaseSpacePolynomial.coordinate(2, "q", 0)
    for u, f in ((q1, q2), (q2, q1), (PhaseSpacePolynomial.zero(1), PhaseSpacePolynomial.zero(2))):
        with pytest.raises(ValueError, match="dimension"):
            op(u, f)


def test_results_keep_their_dimension():
    q2 = PhaseSpacePolynomial.coordinate(2, "q", 1)
    for result in (q2 - q2, 0 * q2, -q2 + q2, q2 * PhaseSpacePolynomial.zero(2)):
        assert result.is_zero() and result.dimension == 2
        assert result == PhaseSpacePolynomial.zero(2)
        assert result != PhaseSpacePolynomial.zero(1)


def test_only_exact_zeros_are_pruned():
    # the polynomial ring sets tol = 0.0; the algebra prunes below 1e-14
    tiny = 1e-20
    (q,), _ = coords()
    assert PhaseSpacePolynomial(1, {(1, 0): tiny}).terms == {(1, 0): tiny}
    assert (q * tiny).terms == {(1, 0): tiny}
    assert (q * tiny - q * tiny).is_zero()
    assert AlgebraElement({(Index(1),): tiny}).is_zero()
    nan = float("nan")
    assert math.isnan(PhaseSpacePolynomial(1, {(1, 0): nan}).max_abs_coeff())
    assert math.isnan(AlgebraElement({(Index(1),): nan}).max_abs_coeff())


# ------------------------------------------------------------- poisson bracket


def test_poisson_canonical_pair():
    (q,), (p,) = coords()
    assert poisson(q, p) == PhaseSpacePolynomial.constant(1, 1.0)


def test_poisson_squares():
    (q,), (p,) = coords()
    assert poisson(q * q, p * p) == 4 * (q * p)


def test_poisson_antisymmetry():
    (q,), (p,) = coords()
    u = q * q * p + 2 * q
    assert poisson(u, u).is_zero()


def test_poisson_matches_sympy(rng):
    for _ in range(25):
        n = int(rng.integers(1, 3))
        u = random_polynomial(rng, n)
        v = random_polynomial(rng, n)
        ours = poisson(u, v)
        reference = sympy_poisson(u, v)
        assert ours.terms == pytest.approx(reference)


INTEGER_COEFFS = st.builds(complex, st.integers(-5, 5), st.integers(-5, 5))
FLOAT_COEFFS = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


@st.composite
def polynomial_pairs(draw, coeffs, max_degree=4):
    """Two polynomials of one dimension 1..3 with total degree <= max_degree."""
    n = draw(st.integers(1, 3))

    def polynomial():
        terms = {}
        for _ in range(draw(st.integers(0, 5))):
            left = draw(st.integers(0, max_degree))
            exps = []
            for _ in range(2 * n):
                exps.append(draw(st.integers(0, left)))
                left -= exps[-1]
            terms[tuple(draw(st.permutations(exps)))] = draw(coeffs)
        return PhaseSpacePolynomial(n, terms)

    return polynomial(), polynomial()


def assert_validated(result, n):
    """``result`` is what the validating constructor builds from its terms."""
    assert result.dimension == n
    rebuilt = PhaseSpacePolynomial(n, result.terms)
    assert list(result.terms.items()) == list(rebuilt.terms.items())
    for exps in result.terms:
        assert type(exps) is tuple and len(exps) == 2 * n
        assert all(type(e) is int and e >= 0 for e in exps)


@settings(max_examples=80, deadline=None)
@given(polynomial_pairs(INTEGER_COEFFS), INTEGER_COEFFS)
def test_ring_results_are_valid_without_revalidation(pair, scalar):
    u, v = pair
    n = u.dimension
    results = [u + v, u - v, -u, u * v, scalar * u, u * 2, poisson(u, v)]
    results += [u.diff(var) for var in range(2 * n)]
    for result in results:
        assert_validated(result, n)


@settings(max_examples=80, deadline=None)
@given(polynomial_pairs(INTEGER_COEFFS))
def test_one_pass_bracket_is_the_derivative_route_exactly(pair):
    u, v = pair
    assert poisson(u, v).terms == poisson_by_derivatives(u, v).terms


@settings(max_examples=80, deadline=None)
@given(polynomial_pairs(FLOAT_COEFFS))
def test_one_pass_bracket_matches_the_derivative_route_in_floats(pair):
    u, v = pair
    ours = poisson(u, v).terms
    oracle = poisson_by_derivatives(u, v).terms
    scale = max([1.0] + [abs(c) for c in ours.values()] + [abs(c) for c in oracle.values()])
    for exps in set(ours) | set(oracle):
        assert abs(ours.get(exps, 0j) - oracle.get(exps, 0j)) <= 1e-12 * scale


@pytest.mark.parametrize("n,count", [(1, 10), (2, 35)])
def test_monomial_list_is_every_exponent_of_degree_at_most_three(n, count):
    # C(2n + 3, 3) exponent vectors of width 2n have total degree <= 3
    monomials = _monomials(n)
    assert len(monomials) == len(set(monomials)) == count == math.comb(2 * n + 3, 3)
    for exps in monomials:
        assert len(exps) == 2 * n and min(exps) >= 0 and sum(exps) <= 3


def test_random_polynomial_draws_from_the_monomial_list(rng):
    for n in (1, 2):
        allowed = set(_monomials(n))
        seen = set()
        for _ in range(400):
            u = random_polynomial(rng, n)
            assert u.dimension == n and len(u) <= 4
            # up to four draws in -3..3; a repeated monomial adds its draws
            assert sum(abs(c) for c in u.terms.values()) <= 12
            for exps, c in u.terms.items():
                assert exps in allowed
                assert c.imag == 0 and c.real == int(c.real)
            seen.update(u.terms)
        assert seen == allowed


def _bracket_without_second_term(u, v):
    """{u, v} with the -du/dp_i dv/dq_i half dropped: not a Poisson bracket."""
    n = u.dimension
    out = {}
    for ea, ca in u.terms.items():
        for eb, cb in v.terms.items():
            for i in range(n):
                weight = ea[i] * eb[n + i]
                if weight:
                    key = tuple(x + y - (s in (i, n + i)) for s, (x, y) in enumerate(zip(ea, eb)))
                    out[key] = out.get(key, 0j) + weight * (ca * cb)
    return PhaseSpacePolynomial(n, out)


def test_bracket_check_fails_on_a_broken_bracket(monkeypatch):
    assert check_bracket_relations(seed=0).passed
    monkeypatch.setattr(koopman, "poisson", _bracket_without_second_term)
    monkeypatch.setattr(verify, "poisson", _bracket_without_second_term)
    result = check_bracket_relations(seed=0)
    assert not result.passed and result.worst > 0


def test_jacobi_identity_exact(rng):
    for _ in range(40):
        n = int(rng.integers(1, 3))
        u, v, w = (random_polynomial(rng, n) for _ in range(3))
        total = (
            poisson(u, poisson(v, w))
            + poisson(v, poisson(w, u))
            + poisson(w, poisson(u, v))
        )
        assert total.is_zero()


def test_leibniz_rule_exact(rng):
    for _ in range(40):
        n = int(rng.integers(1, 3))
        u, v, w = (random_polynomial(rng, n) for _ in range(3))
        assert (poisson(u, v * w) - (poisson(u, v) * w + v * poisson(u, w))).is_zero()


# ------------------------------------------------------------- operators


def test_multiplication_operator():
    (q,), (p,) = coords()
    assert KoopmanOperator.multiplication(q).apply(p) == q * p


def test_derivation_operator():
    (q,), (p,) = coords()
    assert KoopmanOperator.liouville(q).apply(q * p) == q


def test_derivation_kills_constants():
    (q,), _ = coords()
    one = PhaseSpacePolynomial.constant(1, 1.0)
    assert KoopmanOperator.liouville(q * q).apply(one).is_zero()


def test_bracket_residuals_canonical():
    (q,), (p,) = coords()
    for residual in bracket_residuals(q, p, q * p):
        assert residual.is_zero()


def test_bracket_residuals_equal_symbols():
    (q,), (p,) = coords()
    u = q * q + p
    for residual in bracket_residuals(u, u, q * p):
        assert residual.is_zero()


def test_bracket_residuals_randomized(rng):
    for _ in range(50):
        n = int(rng.integers(1, 3))
        u, v, f = (random_polynomial(rng, n) for _ in range(3))
        for residual in bracket_residuals(u, v, f):
            assert residual.is_zero()


# ------------------------------------------------------------- flows


def test_translation_flow():
    (q,), (p,) = coords()
    spec = FlowSpec(KoopmanOperator.liouville(p), 1.0)
    (moved,) = flow_sample(spec, [(0.0, 0.0)])
    assert np.allclose(moved, (1.0, 0.0), atol=1e-10)


def test_harmonic_flow_period():
    (q,), (p,) = coords()
    energy = 0.5 * (q * q + p * p)
    spec = FlowSpec(KoopmanOperator.liouville(energy), 2 * math.pi)
    (moved,) = flow_sample(spec, [(1.0, 0.0)])
    assert np.allclose(moved, (1.0, 0.0), atol=1e-8)


def test_multiplication_flow_is_pointwise_exponential():
    (q,), _ = coords()
    spec = FlowSpec(KoopmanOperator.multiplication(q), 1.0)
    values = flow_sample(spec, [(2.0, 0.0)])
    assert np.isclose(values[0], math.exp(2.0))


def test_quadratic_flow_matches_matrix_exponential(rng):
    for _ in range(10):
        n = int(rng.integers(1, 3))
        quadratic = [e for e in _monomials(n) if sum(e) <= 2]
        picks = rng.integers(len(quadratic), size=int(rng.integers(1, 5)))
        u = PhaseSpacePolynomial(n, {quadratic[int(i)]: int(rng.integers(-3, 4)) for i in picks})
        t = float(rng.uniform(-1.5, 1.5))
        point = tuple(float(c) for c in rng.uniform(-1, 1, size=2 * n))
        spec = FlowSpec(KoopmanOperator.liouville(u), t)
        (moved,) = flow_sample(spec, [point])
        exact = exact_quadratic_flow(u, t, point)
        assert np.allclose(moved, exact, atol=1e-8)


def test_quadratic_flow_preserves_bracket():
    # pullback of {Q, P} through the flow of a quadratic symbol stays 1
    (q,), (p,) = coords()
    u = 0.5 * (p * p) + 0.8 * (q * q) + 0.3 * (q * p)
    spec = FlowSpec(KoopmanOperator.liouville(u), 1.0)
    eps = 1e-6
    base = np.array([0.4, -0.7])

    def flow(point):
        return np.array(flow_sample(spec, [tuple(point)])[0])

    jac = np.zeros((2, 2))
    for col, delta in enumerate(np.eye(2) * eps):
        jac[:, col] = (flow(base + delta) - flow(base - delta)) / (2 * eps)
    assert abs(np.linalg.det(jac) - 1.0) <= 1e-8


def test_flow_preserves_symplectic_form():
    # numeric Jacobian of the time-1 flow of a quartic symbol
    (q,), (p,) = coords()
    u = 0.25 * (q * q * q * q) + 0.5 * (p * p) + q * p
    spec = FlowSpec(KoopmanOperator.liouville(u), 1.0)
    eps = 1e-5
    base = (0.3, -0.2)

    def flow(point):
        return np.array(flow_sample(spec, [point])[0])

    jac = np.zeros((2, 2))
    for col, delta in enumerate(np.eye(2) * eps):
        jac[:, col] = (flow(base + delta) - flow(base - delta)) / (2 * eps)
    # det J - 1 is the 2-form error; FD noise dominates the integrator here
    assert abs(np.linalg.det(jac) - 1.0) <= 1e-8 + 1e-5


def test_blowup_raises():
    (q,), (p,) = coords()
    u = q * q * p  # dq/dt = q^2 escapes in finite time
    spec = FlowSpec(KoopmanOperator.liouville(u), 5.0)
    with pytest.raises(ValueError, match="non-finite|overflow"):
        flow_sample(spec, [(3.0, 1.0)])


def test_complex_symbol_rejected():
    (q,), _ = coords()
    spec = FlowSpec(KoopmanOperator.liouville(1j * q), 1.0)
    with pytest.raises(ValueError, match="real"):
        flow_sample(spec, [(0.0, 0.0)])


def test_flow_sample_steps_argument():
    (q,), (p,) = coords()
    spec = FlowSpec(KoopmanOperator.liouville(p), 1.0)
    for steps in (7, np.int64(7)):
        (moved,) = flow_sample(spec, [(0.0, 0.0)], steps=steps)
        assert np.allclose(moved, (1.0, 0.0), atol=1e-12)


def test_flow_sample_refuses_step_counts_over_the_cap():
    (q,), (p,) = coords()
    for t, steps in ((1e9, None), (1e308, None), (1.0, MAX_FLOW_STEPS + 1)):
        spec = FlowSpec(KoopmanOperator.liouville(p), t)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=str(MAX_FLOW_STEPS)):
            flow_sample(spec, [(0.0, 0.0)], steps=steps)
        assert time.perf_counter() - start < 1.0


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("kind", [KoopmanOperator.multiplication, KoopmanOperator.liouville])
@pytest.mark.parametrize(
    "time,point,steps",
    [
        (NAN, (0.0, 0.0), None),
        (INF, (0.0, 0.0), None),
        (-INF, (0.0, 0.0), None),
        (1.0, (NAN, 0.0), None),
        (1.0, (0.0, INF), None),
        (1.0, (0.0, 0.0), 0),
        (1.0, (0.0, 0.0), -3),
        (1.0, (0.0, 0.0), True),
        (1.0, (0.0, 0.0), 2.0),
    ],
)
def test_flow_sample_refuses_bad_input(kind, time, point, steps):
    (q,), (p,) = coords()
    spec = FlowSpec(kind(q * q + p), time)
    with pytest.raises(ValueError):
        flow_sample(spec, [point], steps=steps)


def test_multiplication_flow_never_returns_non_finite_values():
    (q,), _ = coords()
    for symbol, time, point in ((q * q * q, 1.0, (1e200, 0.0)), (q, 1.0, (800.0, 0.0))):
        with pytest.raises(ValueError):
            flow_sample(FlowSpec(KoopmanOperator.multiplication(symbol), time), [point])


# ------------------------------------------------------------- gibbs kernel


def gibbs_covariance_by_quadrature(mass, frequency, temperature, power_q, power_p):
    def hamiltonian(qv, pv):
        return pv * pv / (2 * mass) + mass * frequency**2 * qv * qv / 2

    def weighted(qv, pv):
        return qv**power_q * pv**power_p * math.exp(-hamiltonian(qv, pv) / temperature)

    span_q = 12 * math.sqrt(temperature / mass) / frequency + 12
    span_p = 12 * math.sqrt(mass * temperature) + 12
    moment, _ = integrate.dblquad(weighted, -span_p, span_p, -span_q, span_q)
    norm, _ = integrate.dblquad(
        lambda qv, pv: math.exp(-hamiltonian(qv, pv) / temperature),
        -span_p,
        span_p,
        -span_q,
        span_q,
    )
    return moment / norm


@pytest.mark.parametrize("mass,frequency,temperature", [(1.0, 1.0, 1.0), (2.0, 0.7, 1.3)])
def test_gibbs_kernel_matches_quadrature(mass, frequency, temperature):
    kernel = gibbs_oscillator_kernel(mass, frequency, temperature)
    q, p = kernel.indices
    assert np.isclose(
        kernel.pairing(q, q),
        gibbs_covariance_by_quadrature(mass, frequency, temperature, 2, 0),
        rtol=1e-8,
    )
    assert np.isclose(
        kernel.pairing(p, p),
        gibbs_covariance_by_quadrature(mass, frequency, temperature, 0, 2),
        rtol=1e-8,
    )
    assert kernel.pairing(q, p) == 0


def test_gibbs_kernel_scales_linearly_in_temperature():
    base = gibbs_oscillator_kernel(1.0, 1.0, 1.0)
    hot = gibbs_oscillator_kernel(1.0, 1.0, 2.0)
    q, p = base.indices
    assert np.isclose(hot.pairing(q, q), 2 * base.pairing(q, q))
    assert np.isclose(hot.pairing(p, p), 2 * base.pairing(p, p))


def test_gibbs_kernel_is_classical():
    kernel = gibbs_oscillator_kernel(1.0, 1.0, 1.0)
    q, p = kernel.indices
    assert kernel.min_eigenvalue() >= -1e-12
    assert commutator_factor(kernel, q, p) == 0
    assert np.isclose(wick_expect(kernel, (q, q, q, q)), 3 * kernel.pairing(q, q) ** 2)


def test_gibbs_kernel_rejects_bad_parameters():
    with pytest.raises(ValueError):
        gibbs_oscillator_kernel(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        gibbs_oscillator_kernel(1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        gibbs_oscillator_kernel(1.0, 1.0, 0.0)
