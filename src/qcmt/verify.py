"""Machine checks behind the ``verify`` command.

Each check returns its name, a pass flag, the worst observed residual,
and the tolerance it was held to.  Reports serialize without wall-clock
data so identical configurations produce byte-identical output.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass, field, replace
from functools import cache
from itertools import product

import numpy as np

from .algebra import (
    AlgebraElement,
    Index,
    draw_integers,
    paired_indices,
    star_residuals,
    word_adjoint,
)
from .fields import (
    FieldKernelSpec,
    PoincareElement,
    Wavepacket,
    boost_deviation,
    commutator_kernel,
    poincare_act,
    thermal_kernel,
    vacuum_kernel,
)
from .gaussian import GaussianKernel, moment_from_generating_series, tolerance_bound
from .gns import GramReport, build_basis, gram
from .koopman import PhaseSpacePolynomial, PolynomialBatch, bracket_residuals, embed_exponents

logger = logging.getLogger(__name__)

# The suite is fixed; each report echoes the tolerance its check was held to.
ALGEBRA_TRIALS = 40
ALGEBRA_TOLERANCE = 1e-12
GRAM_DEGREE = 2  # of the Gram that gram-psd and extended-positivity judge
WICK_ORACLE_LENGTH = 2 * GRAM_DEGREE  # every word an entry of that Gram holds
WICK_TOLERANCE = 1e-8
BRACKET_TRIALS = 100
RANDOM_DEGREE = 3
BOOST_RAPIDITIES = (-0.5, -0.25, 0.25, 0.5)
BOOST_TOLERANCE = 1e-6
THERMAL_RAPIDITY = 0.5
THERMAL_THRESHOLD = 1e-3
LIMIT_TOLERANCE = 1e-8
DECAY_TOLERANCE = 1e-6
BETA_TOLERANCE = 1e-10


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


def _worst(residuals) -> float:
    """The largest of 0.0 and ``residuals``, or NaN if any residual is NaN.

    ``max(0.0, nan)`` is 0.0, so a running maximum would read a NaN residual
    as a pass; a NaN ``worst`` fails its check instead.
    """
    residuals = list(residuals)
    return math.nan if any(map(math.isnan, residuals)) else max([0.0, *residuals])


def _random_elements(rng, pool, batches, count) -> list:
    """``batches`` batches of ``count`` elements over ``pool``: 1-3 terms of words of 0-3 letters.

    Term counts, word lengths, letters (positions in ``pool``) and the real
    and imaginary parts of the coefficients, integers in -3..3, are four
    ``draw_integers`` blocks of the maximal shape, read straight into term
    rows; a repeated word adds its draws.
    """
    terms = draw_integers(rng, 1, 4, (batches, count))
    lengths = draw_integers(rng, 0, 4, (batches, count, 3))
    picks = draw_integers(rng, 0, len(pool), (batches, count, 3, 3))
    re, im = draw_integers(rng, -3, 4, (2, batches, count, 3)).astype(float)
    drawn = np.arange(3) < terms[..., None]
    return [AlgebraElement.packed(pool, count, np.nonzero(d)[0], p[d], n[d], r[d], i[d])
            for d, p, n, r, i in zip(drawn, picks, lengths, re, im)]


def check_algebra_laws(seed: int = 0) -> CheckResult:
    """Associativity, adjoint anti-homomorphism and anti-linearity, involution laws.

    Every law is one residual over all trials at once: a, b and c are
    batches of ``ALGEBRA_TRIALS`` elements, and anti-linearity takes one
    pair of scalars per trial (``star_residuals``).  Those laws also hold
    for an adjoint that only reverses words, and in the opposite ring, whose
    product concatenates right to left.  So the product uv of every u, v in
    {1} and the pool letters, 25 trials, must adjoin to (uv)^c, the word uv
    reversed with each letter involved: 1, x^c, and y^c x^c for each of the
    16 ordered pairs xy.  Integer coefficients keep every cancellation exact.
    """
    rng = random.Random(seed)
    a1, a1c = paired_indices("a", "a*")
    pool = (Index(1), Index(2), a1, a1c)
    a, b, c = _random_elements(rng, pool, 3, ALGEBRA_TRIALS)
    lam, mu = draw_integers(rng, -3, 4, (2, ALGEBRA_TRIALS, 2)) @ np.array([1, 1j])
    factors = [()] + [(x,) for x in pool]
    pairs = [(u, v) for u in factors for v in factors]
    left, right, involved = (
        AlgebraElement.from_words(len(pairs), np.arange(len(pairs)), words, [1.0] * len(pairs))
        for words in ([u for u, _ in pairs], [v for _, v in pairs],
                      [tuple(i.involve() for i in reversed(u + v)) for u, v in pairs]))
    residuals = (*star_residuals(a, b, c, lam, mu), (left * right).adjoint() - involved)
    worst = [residual.max_abs_coeff() for residual in residuals]
    for i in pool:
        once = i.involve()
        twice = once.involve()
        if (once.tag, once.ctag) != (i.ctag, i.tag) or (twice.tag, twice.ctag) != (i.tag, i.ctag):
            worst.append(1.0)
    worst = _worst(worst)
    return CheckResult("algebra-laws", worst <= ALGEBRA_TOLERANCE, worst, ALGEBRA_TOLERANCE)


def check_wick_oracle(kernel: GaussianKernel, gram_matrix) -> CheckResult:
    """The degree-``GRAM_DEGREE`` Gram's entries against generating-function differentiation.

    ``gram_matrix`` is the Gram of ``build_basis(kernel.indices,
    GRAM_DEGREE)``, the one ``gram-psd`` and ``extended-positivity`` judge.
    Each word w of length at most ``WICK_ORACLE_LENGTH`` is its entry
    G[adjoint(w[:k]), w[k:]] = rho(w), k = max(0, |w| - ``GRAM_DEGREE``), and
    is compared with ``moment_from_generating_series``; so the check sees
    the moment engine, the word adjoint and the fill at once.  ``worst`` is
    the largest difference over max(1, max |oracle moment|), the scale
    ``gram-psd`` is judged at, so the check passes when it is at most the
    tolerance.
    """
    row = {w: r for r, w in enumerate(build_basis(kernel.indices, GRAM_DEGREE).words)}
    entries = gram_matrix.tolist()
    defects, oracles = [], []
    for w in build_basis(kernel.indices, WICK_ORACLE_LENGTH).words:
        k = max(0, len(w) - GRAM_DEGREE)
        oracle = moment_from_generating_series(kernel, w)
        defects.append(abs(entries[row[word_adjoint(w[:k])]][row[w[k:]]] - oracle))
        oracles.append(oracle)
    worst = _worst(defects) / tolerance_bound(1.0, oracles)
    return CheckResult("wick-oracle", worst <= WICK_TOLERANCE, worst, WICK_TOLERANCE)


@cache
def _monomials(dimension: int) -> tuple:
    """Exponent vectors of total degree at most ``RANDOM_DEGREE``, in a fixed order."""
    return tuple(
        e for e in product(range(RANDOM_DEGREE + 1), repeat=2 * dimension) if sum(e) <= RANDOM_DEGREE
    )


@cache
def _monomial_table(dimension: int) -> np.ndarray:
    """Entry [m, k]: monomial k of dimension m, as ``_monomials(m)`` lists it, embedded in
    ``dimension``; m runs to ``dimension``, and entries past a list are zero."""
    table = np.zeros((dimension + 1, len(_monomials(dimension)), 2 * dimension), dtype=np.int64)
    for m in range(1, dimension + 1):
        table[m, : len(_monomials(m))] = [embed_exponents(e, dimension) for e in _monomials(m)]
    return table


def _random_batch(rng, dimensions) -> PolynomialBatch:
    """One polynomial per entry of ``dimensions``: 1-4 terms on uniform monomials of degree <= 3.

    Term counts, monomial picks from each polynomial's monomial list, and
    the real and imaginary parts of the coefficients, integers in -3..3, are
    three ``draw_integers`` blocks, read straight into term rows; a repeated
    monomial adds its draws.  Each polynomial is embedded in the largest of
    ``dimensions``, which leaves its brackets unchanged.
    """
    n, count = max(dimensions), len(dimensions)
    choices = np.array([len(_monomials(m)) for m in dimensions])
    terms = draw_integers(rng, 1, 5, (count,))
    picks = draw_integers(rng, 0, choices[:, None], (count, 4))
    re, im = draw_integers(rng, -3, 4, (2, count, 4)).astype(float)
    drawn = np.arange(4) < terms[:, None]
    trials = np.nonzero(drawn)[0]
    rows = _monomial_table(n)[np.asarray(dimensions)[trials], picks[drawn]]
    return PolynomialBatch.summed(n, count, trials, rows, re[drawn], im[drawn])


@cache
def _canonical_pairs() -> tuple:
    """Batches x, y and J of the 16 ordered pairs of the coordinates (q_0, q_1, p_0, p_1):
    trial 4a + b holds x_a, x_b and the constant J_ab of the canonical structure."""
    axes = [PhaseSpacePolynomial.coordinate(2, kind, i) for kind in "qp" for i in range(2)]
    structure = [0, 0, 1, 0, 0, 0, 0, 1, -1, 0, 0, 0, 0, -1, 0, 0]  # J = [[0, 1], [-1, 0]]
    return (PolynomialBatch.of([a for a in axes for _ in axes]),
            PolynomialBatch.of([b for _ in axes for b in axes]),
            PolynomialBatch.of([PhaseSpacePolynomial.constant(2, j) for j in structure]))


def check_bracket_relations(seed: int = 0) -> CheckResult:
    """The three commutation relations plus the Jacobi identity, exactly, and the normalization.

    All trials run at once: u, v and f are batches of ``BRACKET_TRIALS``
    polynomials of dimension 1 or 2, and ``bracket_residuals`` forms each
    bracket once for every trial.  The four relations hold for every
    Poisson structure, so the residual {x_a, x_b} - J_ab over the canonical
    coordinates of dimension 2 (``_canonical_pairs``) pins the canonical one.
    """
    rng = random.Random(seed)
    dimensions = draw_integers(rng, 1, 3, (BRACKET_TRIALS,)).tolist()
    u, v, f = (_random_batch(rng, dimensions) for _ in range(3))
    x, y, structure = _canonical_pairs()
    residuals = (*bracket_residuals(u, v, f), x.bracket(y) - structure)
    worst = _worst(residual.max_abs_coeff() for residual in residuals)
    return CheckResult("bracket-relations", worst == 0.0, worst, 0.0)


def _violation(report: GramReport) -> float:
    """-min eigenvalue / max(1, max |eigenvalue|): the scale ``gram`` judges at."""
    return -report.min_eigenvalue / tolerance_bound(1.0, report.eigenvalues)


def check_gram_psd(report: GramReport) -> CheckResult:
    """Gram matrix of the monomial basis is positive semi-definite.

    ``worst`` is the violation, so the check passes when it is at most tolerance.
    """
    return CheckResult("gram-psd", report.is_positive(), _violation(report), report.tolerance)


def check_extended_positivity(report: GramReport) -> CheckResult:
    """Positivity of the projector-extended state, read from the degree-2 Gram G_2.

    An extended element E = sum_a c_a w_a, with w_a = (head_a, tail
    segments) and every head of length at most 2, has

        rho(E^dagger E) = y^H G_2 y,  y_h = sum over the a with head_a = h
                                            of c_a * prod rho(tail segment),

    since rho(s^dagger) = conj rho(s) on a Hermitian kernel: the tails
    factor out on both sides, and rho(head_a^dagger head_b) is an entry of
    G_2.  Every y is reached by one-segment elements, so the extension is
    positive on such elements iff G_2 is positive semi-definite.  The
    verdict is ``report.is_positive()``, and ``worst`` is the violation of
    ``gram-psd``, clipped at 0.
    """
    worst = _worst([_violation(report)])
    return CheckResult("extended-positivity", report.is_positive(), worst, report.tolerance)


def check_vacuum_boost_invariance(
    spec: FieldKernelSpec, f: Wavepacket, g: Wavepacket
) -> CheckResult:
    base = vacuum_kernel(spec, f, g)
    deviations = (boost_deviation(spec, f, g, chi, base) for chi in BOOST_RAPIDITIES)
    worst = _worst(deviations)
    return CheckResult("vacuum-boost-invariance", worst <= BOOST_TOLERANCE, worst, BOOST_TOLERANCE)


def check_thermal_boost_discrimination(
    spec: FieldKernelSpec, f: Wavepacket, g: Wavepacket
) -> CheckResult:
    """The thermal kernel must move under a boost; pass means above threshold."""
    base = thermal_kernel(spec, f, g)
    deviation = boost_deviation(spec, f, g, THERMAL_RAPIDITY, base)
    return CheckResult("thermal-boost-discrimination", deviation > THERMAL_THRESHOLD, deviation,
                       THERMAL_THRESHOLD)


def check_thermal_vacuum_limit(spec: FieldKernelSpec, f: Wavepacket, g: Wavepacket) -> CheckResult:
    """At beta hbar omega_min = 40 the Bose occupation is dead: thermal = vacuum."""
    cold = replace(spec, beta=40.0 / (spec.hbar * spec.mass))
    gap = abs(thermal_kernel(cold, f, g) - vacuum_kernel(spec.vacuum, f, g))
    return CheckResult("thermal-vacuum-limit", gap <= LIMIT_TOLERANCE, gap, LIMIT_TOLERANCE)


def check_microcausality(spec: FieldKernelSpec, f: Wavepacket, g: Wavepacket, separations) -> list:
    """Commutator decay at spacelike separation, plus its beta independence."""
    vacuum_spec = spec.vacuum
    decays, betas = [], []
    for sep in separations:
        shift = PoincareElement.translate(0.0, float(sep))
        moved = poincare_act(shift, g)
        comm = commutator_kernel(vacuum_spec, f, moved)
        decays.append(abs(comm))
        if spec.is_thermal:
            betas.append(abs(commutator_kernel(spec, f, moved) - comm))
    worst_decay, worst_beta = _worst(decays), _worst(betas)
    results = [CheckResult("microcausality-decay", worst_decay <= DECAY_TOLERANCE, worst_decay,
                           DECAY_TOLERANCE)]
    if spec.is_thermal:
        results.append(CheckResult("commutator-beta-independence", worst_beta <= BETA_TOLERANCE,
                                   worst_beta, BETA_TOLERANCE))
    return results


def run_verify(kernel: GaussianKernel, seed: int, tolerance: float, field, config_echo: dict) -> RunReport:
    """The full verification suite over one kernel configuration.

    ``field`` is None, or for a field kernel ``(spec, f, g, separations)``:
    the field checks pair the packets f and g, and microcausality shifts g
    by each spacelike separation.  ``config_echo`` is the report's config.
    """
    report = gram(build_basis(kernel.indices, GRAM_DEGREE), kernel, tolerance)
    checks = [
        check_algebra_laws(seed=seed),
        check_wick_oracle(kernel, report.gram),
        check_bracket_relations(seed=seed),
        check_gram_psd(report),
        check_extended_positivity(report),
    ]
    if field is not None:
        spec, f, g, separations = field
        checks.append(check_vacuum_boost_invariance(spec.vacuum, f, g))
        if spec.is_thermal:
            checks.append(check_thermal_boost_discrimination(spec, f, g))
            checks.append(check_thermal_vacuum_limit(spec, f, g))
        checks.extend(check_microcausality(spec, f, g, separations))
    for c in checks:
        logger.info("check %-32s passed=%s worst=%.3e", c.name, c.passed, c.worst)
    return RunReport(mode="verify", seed=seed, checks=checks, config=config_echo)
