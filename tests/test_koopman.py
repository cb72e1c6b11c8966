import math
import operator
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from conftest import seeded
from oracles import exact_quadratic_flow, poisson_by_derivatives, poisson_by_terms, sympy_poisson
from qcmt import algebra, koopman
from qcmt.algebra import AlgebraElement, Index
from qcmt.gaussian import commutator_factor, hermitian_spectrum, wick_expect
from qcmt.koopman import (
    MAX_EXPONENT,
    MAX_FLOW_STEPS,
    PhaseSpacePolynomial,
    bracket_residuals,
    embed_exponents,
    gibbs_oscillator_kernel,
    liouville_flow,
    multiplication_flow,
    poisson,
)
from qcmt.verify import _monomials, _random_batch, check_bracket_relations


def random_polynomial(rng, n):
    """One polynomial of dimension n as the bracket check draws it."""
    (u,) = _random_batch(seeded(rng), [n]).polynomials()
    return u


def coords(n=1):
    q = [PhaseSpacePolynomial.coordinate(n, "q", i) for i in range(n)]
    p = [PhaseSpacePolynomial.coordinate(n, "p", i) for i in range(n)]
    return q, p


# ------------------------------------------------------------- polynomials


def test_polynomial_validation():
    for dimension, terms in (
        (1, {(1,): 1.0}),
        (1, {(-1, 0): 1.0}),
        (1, {(MAX_EXPONENT + 1, 0): 1.0}),
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


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, poisson])
def test_ring_operations_reject_mixed_dimensions(op):
    (q1,), _ = coords(1)
    q2 = PhaseSpacePolynomial.coordinate(2, "q", 0)
    for u, f in ((q1, q2), (q2, q1), (PhaseSpacePolynomial(1, {}), PhaseSpacePolynomial(2, {}))):
        with pytest.raises(ValueError, match="dimension"):
            op(u, f)


def test_results_keep_their_dimension():
    q2 = PhaseSpacePolynomial.coordinate(2, "q", 1)
    for result in (q2 - q2, 0 * q2, -q2 + q2, q2 * PhaseSpacePolynomial(2, {})):
        assert result.is_zero() and result.dimension == 2
        assert result == PhaseSpacePolynomial(2, {})
        assert result != PhaseSpacePolynomial(1, {})


def test_only_exact_zeros_are_pruned():
    # a polynomial prunes exact zeros only; the algebra prunes up to TERM_TOLERANCE = 1e-14
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
    # one batched draw of 400 polynomials per dimension, and one of both dimensions mixed,
    # where a dimension-1 polynomial has zero exponents on the second axis
    for dimensions in ([1] * 400, [2] * 400, [1, 2] * 200):
        width = max(dimensions)
        listed = {n: {embed_exponents(e, width) for e in _monomials(n)} for n in set(dimensions)}
        seen, imaginary = set(), False
        for n, u in zip(dimensions, _random_batch(seeded(rng), dimensions).polynomials()):
            assert u.dimension == width and len(u) <= 4
            # up to four draws, each part in -3..3; a repeated monomial adds its draws
            for part in ("real", "imag"):
                values = [getattr(c, part) for c in u.terms.values()]
                assert sum(map(abs, values)) <= 12 and all(x == int(x) for x in values)
            assert set(u.terms) <= listed[n]
            seen.update(u.terms)
            imaginary |= any(c.imag for c in u.terms.values())
        assert seen == set().union(*listed.values())
    assert imaginary


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


def _mutated_rows(mutation):
    """``koopman._bracket_rows`` with one defect, named by ``mutation``."""

    def rows(left, right, n):
        forward = left[:, :n] * right[:, n:]  # a_i d_i
        backward = left[:, n:] * right[:, :n]  # b_i c_i
        weights = {
            "drop the -b_i c_i half": forward,
            "flip the sign of the b_i c_i half": forward + backward,
            "flip the weight's sign": backward - forward,
        }.get(mutation, forward - backward)
        if mutation == "drop a pair's axes after its first":
            weights = np.where(np.cumsum(weights != 0, axis=1) > 1, 0, weights)
        if mutation == "drop the last axis":
            weights = np.where(np.arange(n) == n - 1, 0, weights)
        pair, axis = np.nonzero(weights)
        lowered = np.tile(np.eye(n, dtype=np.int64), 2)[axis]
        if mutation == "leave the p exponent unlowered":
            lowered[:, n:] = 0
        return pair, weights[pair, axis], left[pair] + right[pair] - lowered

    return rows


@pytest.mark.parametrize("mutation", [
    "drop the -b_i c_i half",
    "flip the sign of the b_i c_i half",
    "drop a pair's axes after its first",
])
def test_bracket_check_fails_on_a_mutated_engine(monkeypatch, mutation):
    # each mutated bracket fails to be a biderivation or fails Jacobi
    assert check_bracket_relations(seed=0).passed
    monkeypatch.setattr(koopman, "_bracket_rows", _mutated_rows(mutation))
    for seed in (0, 1):
        result = check_bracket_relations(seed=seed)
        assert not result.passed and result.worst > 0


@pytest.mark.parametrize("mutation", [
    "flip the weight's sign",
    "drop the last axis",
    "leave the p exponent unlowered",
])
def test_other_poisson_structures_pass_the_relations_but_not_the_oracle(monkeypatch, mutation):
    # these give the brackets of -omega, of a degenerate structure and of sum_i p_i dq_i ^ dp_i:
    # Poisson bivectors all, so all four relations hold; the check still fails, on its
    # normalization residual {x_a, x_b} - J_ab, and so does the oracle
    monkeypatch.setattr(koopman, "_bracket_rows", _mutated_rows(mutation))
    rng = random.Random(0)
    u, v, f = (_random_batch(rng, [1, 2] * 50) for _ in range(3))
    assert all(residual.max_abs_coeff() == 0.0 for residual in bracket_residuals(u, v, f))
    for seed in (0, 1):
        result = check_bracket_relations(seed=seed)
        assert not result.passed and result.worst > 0
    q, p = coords(2)
    assert any(poisson(q[i], p[i]).terms != poisson_by_terms(q[i], p[i]).terms for i in range(2))


def test_bracket_check_fails_on_a_broken_bracket(monkeypatch):
    assert check_bracket_relations(seed=0).passed
    monkeypatch.setattr(koopman, "_bracket_rows", _mutated_rows("drop the -b_i c_i half"))
    result = check_bracket_relations(seed=0)
    assert not result.passed and result.worst > 0


def test_bracket_check_sees_the_imaginary_part_of_products(monkeypatch):
    # with ar bi - ai br as the imaginary part, (1j q) q comes out as -1j q^2; real
    # coefficients never see it, complex draws fail the check at every seed
    # products run in the term-row core, so the mutant goes where the core reads _product
    monkeypatch.setattr(algebra, "_product", lambda ar, ai, br, bi: (ar * br - ai * bi,
                                                                     ar * bi - ai * br))
    (q,), _ = coords()
    assert ((1j * q) * q).terms == {(2, 0): -1j}
    for seed in range(5):
        result = check_bracket_relations(seed=seed)
        assert not result.passed and result.worst > 0


def test_bracket_check_groups_each_relation_once(monkeypatch):
    # 3 draws, 7 brackets and products formed once, one combine per relation and 2 for the
    # normalization make 16; grouping each product and bracket before the subtractions makes 28
    calls = []
    summed = koopman.PolynomialBatch.summed.__func__
    monkeypatch.setattr(koopman.PolynomialBatch, "summed",
                        classmethod(lambda cls, *columns: calls.append(cls) or summed(cls, *columns)))
    for seed in (0, 1):
        calls.clear()
        assert check_bracket_relations(seed=seed).passed
        assert len(calls) <= 16


def test_fourth_residual_is_the_jacobi_sum(monkeypatch):
    (q,), (p,) = coords()
    u, v, f = q, q + p, p * p
    broken = _bracket_without_second_term
    monkeypatch.setattr(koopman, "_bracket_rows", _mutated_rows("drop the -b_i c_i half"))
    for x, y in ((u, v), (v, f), (f, u), (q * p, p * q * q)):
        assert poisson(x, y) == broken(x, y)  # the engine now computes the broken bracket
    *_, jacobi = bracket_residuals(u, v, f)
    expected = broken(u, broken(v, f)) + broken(v, broken(f, u)) + broken(f, broken(u, v))
    assert not expected.is_zero()
    assert (jacobi - expected).is_zero()


def test_results_past_the_exponent_bound_are_refused():
    (q,), (p,) = coords()
    top = PhaseSpacePolynomial(1, {(MAX_EXPONENT, 1): 1.0})
    assert (top * p).terms == {(MAX_EXPONENT, 2): 1}
    for operation in (lambda: top * q, lambda: poisson(top * p, q * q)):
        with pytest.raises(ValueError, match=str(MAX_EXPONENT)):
            operation()


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


def test_derivation_operator():
    (q,), (p,) = coords()
    assert poisson(q, q * p) == q


def test_derivation_kills_constants():
    (q,), _ = coords()
    one = PhaseSpacePolynomial.constant(1, 1.0)
    assert poisson(q * q, one).is_zero()


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
    (moved,) = liouville_flow(p, 1.0, [(0.0, 0.0)])
    assert np.allclose(moved, (1.0, 0.0), atol=1e-10)


def test_harmonic_flow_period():
    (q,), (p,) = coords()
    energy = 0.5 * (q * q + p * p)
    (moved,) = liouville_flow(energy, 2 * math.pi, [(1.0, 0.0)])
    assert np.allclose(moved, (1.0, 0.0), atol=1e-8)


def test_multiplication_flow_is_pointwise_exponential():
    (q,), _ = coords()
    values = multiplication_flow(q, 1.0, [(2.0, 0.0)])
    assert np.isclose(values[0], math.exp(2.0))


def test_quadratic_flow_matches_matrix_exponential(rng):
    for _ in range(10):
        n = int(rng.integers(1, 3))
        quadratic = [e for e in _monomials(n) if sum(e) <= 2]
        picks = rng.integers(len(quadratic), size=int(rng.integers(1, 5)))
        u = PhaseSpacePolynomial(n, {quadratic[int(i)]: int(rng.integers(-3, 4)) for i in picks})
        t = float(rng.uniform(-1.5, 1.5))
        point = tuple(float(c) for c in rng.uniform(-1, 1, size=2 * n))
        (moved,) = liouville_flow(u, t, [point])
        exact = exact_quadratic_flow(u, t, point)
        assert np.allclose(moved, exact, atol=1e-8)


def test_quadratic_flow_preserves_bracket():
    # pullback of {Q, P} through the flow of a quadratic symbol stays 1
    (q,), (p,) = coords()
    u = 0.5 * (p * p) + 0.8 * (q * q) + 0.3 * (q * p)
    eps = 1e-6
    base = np.array([0.4, -0.7])

    def flow(point):
        return np.array(liouville_flow(u, 1.0, [tuple(point)])[0])

    jac = np.zeros((2, 2))
    for col, delta in enumerate(np.eye(2) * eps):
        jac[:, col] = (flow(base + delta) - flow(base - delta)) / (2 * eps)
    assert abs(np.linalg.det(jac) - 1.0) <= 1e-8


def test_flow_preserves_symplectic_form():
    # numeric Jacobian of the time-1 flow of a quartic symbol
    (q,), (p,) = coords()
    u = 0.25 * (q * q * q * q) + 0.5 * (p * p) + q * p
    eps = 1e-5
    base = (0.3, -0.2)

    def flow(point):
        return np.array(liouville_flow(u, 1.0, [point])[0])

    jac = np.zeros((2, 2))
    for col, delta in enumerate(np.eye(2) * eps):
        jac[:, col] = (flow(base + delta) - flow(base - delta)) / (2 * eps)
    # det J - 1 is the 2-form error; FD noise dominates the integrator here
    assert abs(np.linalg.det(jac) - 1.0) <= 1e-8 + 1e-5


def test_blowup_raises():
    (q,), (p,) = coords()
    u = q * q * p  # dq/dt = q^2 escapes in finite time
    with pytest.raises(ValueError, match="non-finite|overflow"):
        liouville_flow(u, 5.0, [(3.0, 1.0)])


def test_complex_symbol_rejected():
    (q,), _ = coords()
    for flow in (multiplication_flow, liouville_flow):
        with pytest.raises(ValueError, match="real"):
            flow(1j * q, 1.0, [(0.0, 0.0)])


def test_liouville_flow_refuses_step_counts_over_the_cap():
    (q,), (p,) = coords()
    for t in (1e9, 1e308):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=str(MAX_FLOW_STEPS)):
            liouville_flow(p, t, [(0.0, 0.0)])
        assert time.perf_counter() - start < 1.0


NAN, INF = float("nan"), float("inf")
BAD_FLOW_INPUT = [  # (time, point)
    (NAN, (0.0, 0.0)),
    (INF, (0.0, 0.0)),
    (-INF, (0.0, 0.0)),
    (1.0, (NAN, 0.0)),
    (1.0, (0.0, INF)),
]


@pytest.mark.parametrize(
    "flow,time,point",
    [
        pytest.param(flow, time, point, id=f"{time}-point{row}-None-{name}")
        for row, (time, point) in enumerate(BAD_FLOW_INPUT)
        for name, flow in (("multiplication", multiplication_flow), ("liouville", liouville_flow))
    ],
)
def test_flows_refuse_bad_input(flow, time, point):
    (q,), (p,) = coords()
    with pytest.raises(ValueError):
        flow(q * q + p, time, [point])


def test_multiplication_flow_never_returns_non_finite_values():
    (q,), _ = coords()
    for symbol, time, point in ((q * q * q, 1.0, (1e200, 0.0)), (q, 1.0, (800.0, 0.0))):
        with pytest.raises(ValueError):
            multiplication_flow(symbol, time, [point])


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
    assert hermitian_spectrum(kernel.matrix(), kernel.tol)[0][0] >= -1e-12
    assert commutator_factor(kernel, q, p) == 0
    assert np.isclose(wick_expect(kernel, (q, q, q, q)), 3 * kernel.pairing(q, q) ** 2)


def test_gibbs_kernel_rejects_bad_parameters():
    with pytest.raises(ValueError):
        gibbs_oscillator_kernel(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        gibbs_oscillator_kernel(1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        gibbs_oscillator_kernel(1.0, 1.0, 0.0)
