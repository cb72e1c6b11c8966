"""Machine checks behind the ``verify`` command.

Each check returns its name, a pass flag, the worst observed residual,
and the tolerance it was held to.  Reports serialize without wall-clock
data so identical configurations produce byte-identical output.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .algebra import AlgebraElement, Index, paired_indices
from .fields import (
    FieldKernelSpec,
    PoincareElement,
    Wavepacket,
    commutator_kernel,
    poincare_act,
    thermal_kernel,
    vacuum_kernel,
)
from .gaussian import (
    GaussianKernel,
    GaussianState,
    moment_from_generating_series,
    tolerance_bound,
    wick_expect,
)
from .gns import build_basis, gram
from .koopman import PhaseSpacePolynomial, bracket_residuals, poisson
from .vacuum import extended_positivity_probe

logger = logging.getLogger(__name__)


@dataclass
class CheckResult:
    name: str
    passed: bool
    worst: float
    tolerance: float

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "worst": float(self.worst),
            "tolerance": float(self.tolerance),
        }


@dataclass
class RunReport:
    mode: str
    seed: int
    checks: list
    config: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [c.as_dict() for c in self.checks],
            "config": self.config,
        }


def _integer_coeff(rng) -> complex:
    return complex(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))


def _random_element(rng, pool, max_terms=3, max_len=3, draw_coeff=_integer_coeff) -> AlgebraElement:
    """Random element over ``pool``; integer coefficients keep cancellations exact."""
    terms = {}
    for _ in range(int(rng.integers(1, max_terms + 1))):
        length = int(rng.integers(0, max_len + 1))
        w = tuple(pool[int(t)] for t in rng.integers(0, len(pool), size=length))
        terms[w] = terms.get(w, 0j) + draw_coeff(rng)
    return AlgebraElement(terms)


def check_algebra_laws(seed: int = 0, trials: int = 40, tolerance: float = 1e-12) -> CheckResult:
    """Associativity, adjoint anti-homomorphism and anti-linearity, involution laws."""
    rng = np.random.default_rng(seed)
    a1, a1c = paired_indices("a", "a*")
    pool = (Index(1), Index(2), a1, a1c)
    worst = 0.0
    for _ in range(trials):
        a = _random_element(rng, pool)
        b = _random_element(rng, pool)
        c = _random_element(rng, pool)
        lam = _integer_coeff(rng)
        mu = _integer_coeff(rng)
        worst = max(worst, ((a * b) * c - a * (b * c)).max_abs_coeff())
        worst = max(worst, ((a * b).adjoint() - b.adjoint() * a.adjoint()).max_abs_coeff())
        anti = (lam * a + mu * b).adjoint() - (
            lam.conjugate() * a.adjoint() + mu.conjugate() * b.adjoint()
        )
        worst = max(worst, anti.max_abs_coeff())
        worst = max(worst, (a.adjoint().adjoint() - a).max_abs_coeff())
        i = pool[int(rng.integers(0, len(pool)))]
        if i.involve().involve() != i:
            worst = max(worst, 1.0)
    if AlgebraElement.identity().adjoint() != AlgebraElement.identity():
        worst = max(worst, 1.0)
    return CheckResult("algebra-laws", worst <= tolerance, worst, tolerance)


def check_wick_oracle(kernel: GaussianKernel, max_len: int = 4, tolerance: float = 1e-8) -> CheckResult:
    """Contraction recursion against generating-function differentiation.

    All words share one kernel, so later words read sub-word moments from
    the memo that earlier words filled.
    """
    worst = 0.0
    for length in range(max_len + 1):
        for w in product(kernel.indices, repeat=length):
            direct = wick_expect(kernel, w)
            oracle = moment_from_generating_series(kernel, w)
            worst = max(worst, abs(direct - oracle))
    return CheckResult("wick-oracle", worst <= tolerance, worst, tolerance)


def _random_polynomial(rng, dimension, degree=3) -> PhaseSpacePolynomial:
    terms = {}
    for _ in range(int(rng.integers(1, 5))):
        while True:
            exps = tuple(int(e) for e in rng.integers(0, degree + 1, size=2 * dimension))
            if sum(exps) <= degree:
                break
        terms[exps] = terms.get(exps, 0) + int(rng.integers(-3, 4))
    return PhaseSpacePolynomial(dimension, terms)


def check_bracket_relations(seed: int = 0, trials: int = 100) -> CheckResult:
    """The three commutation relations plus the Jacobi identity, exactly."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        dimension = int(rng.integers(1, 3))
        u = _random_polynomial(rng, dimension)
        v = _random_polynomial(rng, dimension)
        f = _random_polynomial(rng, dimension)
        for residual in bracket_residuals(u, v, f):
            worst = max(worst, residual.max_abs_coeff())
        jacobi = poisson(u, poisson(v, f)) + poisson(v, poisson(f, u)) + poisson(f, poisson(u, v))
        worst = max(worst, jacobi.max_abs_coeff())
    return CheckResult("bracket-relations", worst == 0.0, worst, 0.0)


def check_gram_psd(kernel: GaussianKernel, degree: int = 2, tolerance: float = 1e-10) -> CheckResult:
    """Gram matrix of the monomial basis is positive semi-definite.

    ``worst`` is -min eigenvalue / max(1, max |eigenvalue|), the scale
    ``gram`` judges at, so the check passes when it is at most tolerance.
    """
    state = GaussianState(kernel)
    basis = build_basis(kernel.indices, degree)
    report = gram(basis, state, tolerance=tolerance)
    worst = -report.min_eigenvalue / tolerance_bound(1.0, report.eigenvalues)
    return CheckResult("gram-psd", report.is_positive(), worst, tolerance)


def check_extended_positivity(
    kernel: GaussianKernel, seed: int = 0, trials: int = 200, tolerance: float = 1e-10
) -> CheckResult:
    """Positivity probe of the projector-extended state."""
    if not kernel.indices:
        logger.warning("empty index set: extended positivity probe is vacuous")
        return CheckResult("extended-positivity", True, 0.0, tolerance)
    state = GaussianState(kernel)
    probe = extended_positivity_probe(state, trials, seed=seed)
    violation = max(0.0, -probe)
    return CheckResult("extended-positivity", probe >= -tolerance, violation, tolerance)


def check_vacuum_boost_invariance(
    spec: FieldKernelSpec,
    f: Wavepacket,
    g: Wavepacket,
    rapidities=(-0.5, -0.25, 0.25, 0.5),
    tolerance: float = 1e-6,
) -> CheckResult:
    base = vacuum_kernel(spec, f, g)
    worst = 0.0
    for chi in rapidities:
        move = PoincareElement.boost(chi)
        moved = vacuum_kernel(spec, poincare_act(move, f), poincare_act(move, g))
        worst = max(worst, abs(moved - base))
    return CheckResult("vacuum-boost-invariance", worst <= tolerance, worst, tolerance)


def check_thermal_boost_discrimination(
    spec: FieldKernelSpec,
    f: Wavepacket,
    g: Wavepacket,
    rapidity: float = 0.5,
    threshold: float = 1e-3,
) -> CheckResult:
    """The thermal kernel must move under a boost; pass means above threshold."""
    base = thermal_kernel(spec, f, g)
    move = PoincareElement.boost(rapidity)
    moved = thermal_kernel(spec, poincare_act(move, f), poincare_act(move, g))
    deviation = abs(moved - base)
    return CheckResult("thermal-boost-discrimination", deviation > threshold, deviation, threshold)


def check_thermal_vacuum_limit(
    spec: FieldKernelSpec, f: Wavepacket, g: Wavepacket, tolerance: float = 1e-8
) -> CheckResult:
    """At beta hbar omega_min = 40 the Bose occupation is dead: thermal = vacuum."""
    beta = 40.0 / (spec.hbar * spec.mass)
    cold = FieldKernelSpec(
        mass=spec.mass, hbar=spec.hbar, beta=beta, rest_frame=spec.rest_frame
    )
    gap = abs(thermal_kernel(cold, f, g) - vacuum_kernel(spec, f, g))
    return CheckResult("thermal-vacuum-limit", gap <= tolerance, gap, tolerance)


def check_microcausality(
    spec: FieldKernelSpec,
    f: Wavepacket,
    g: Wavepacket,
    separations=(10.0,),
    tolerance: float = 1e-6,
    beta_tolerance: float = 1e-10,
) -> list:
    """Commutator decay at spacelike separation, plus its beta independence."""
    vacuum_spec = FieldKernelSpec(mass=spec.mass, hbar=spec.hbar, rest_frame=spec.rest_frame)
    worst_decay = 0.0
    worst_beta = 0.0
    for sep in separations:
        shift = PoincareElement.translate(0.0, float(sep))
        moved = poincare_act(shift, g)
        comm = commutator_kernel(vacuum_spec, f, moved)
        worst_decay = max(worst_decay, abs(comm))
        if spec.is_thermal:
            worst_beta = max(worst_beta, abs(commutator_kernel(spec, f, moved) - comm))
    results = [
        CheckResult("microcausality-decay", worst_decay <= tolerance, worst_decay, tolerance)
    ]
    if spec.is_thermal:
        results.append(
            CheckResult(
                "commutator-beta-independence",
                worst_beta <= beta_tolerance,
                worst_beta,
                beta_tolerance,
            )
        )
    return results


def run_verify(
    kernel: GaussianKernel,
    seed: int = 0,
    tolerance: float = 1e-10,
    field_spec: FieldKernelSpec | None = None,
    packets=None,
    pair=(0, 1),
    separations=None,
    config_echo=None,
) -> RunReport:
    """The full verification suite over one kernel configuration."""
    checks = [
        check_algebra_laws(seed=seed),
        check_wick_oracle(kernel),
        check_bracket_relations(seed=seed),
        check_gram_psd(kernel, tolerance=tolerance),
        check_extended_positivity(kernel, seed=seed, tolerance=tolerance),
    ]
    if field_spec is not None and packets:
        f = packets[pair[0]]
        g = packets[pair[1] if len(packets) > 1 else 0]
        checks.append(check_vacuum_boost_invariance(field_spec, f, g))
        if field_spec.is_thermal:
            checks.append(check_thermal_boost_discrimination(field_spec, f, g))
            checks.append(check_thermal_vacuum_limit(field_spec, f, g))
        checks.extend(
            check_microcausality(
                field_spec, f, g, separations=separations or (10.0,)
            )
        )
    for c in checks:
        logger.info("check %-32s passed=%s worst=%.3e", c.name, c.passed, c.worst)
    return RunReport(mode="verify", seed=seed, checks=checks, config=config_echo or {})
