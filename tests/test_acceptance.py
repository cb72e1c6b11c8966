"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import time
from itertools import product

import numpy as np
import pytest

from qcmt.algebra import Index
from qcmt.cli import main
from qcmt.fields import (
    FieldKernelSpec,
    PoincareElement,
    Wavepacket,
    commutator_kernel,
    kernel_as_gaussian,
    poincare_act,
    thermal_kernel,
    vacuum_kernel,
)
from qcmt.gaussian import (
    GaussianKernel,
    moment_from_generating_series,
    wick_expect,
)
from qcmt.gns import build_basis, gram, represent
from qcmt.koopman import PhaseSpacePolynomial, bracket_residuals, gibbs_oscillator_kernel, poisson
from qcmt.vacuum import commutation_witness, extended_positivity_probe
from qcmt.verify import check_extended_positivity

K3 = [[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]]
K2 = [[1.0, 0.5], [0.5, 1.0]]


def report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number}: {name:42s} {status}  {detail}")
    assert passed, f"criterion {number} failed: {detail}"


def test_criterion_1_wick_oracle_equivalence():
    started = time.perf_counter()
    kernel = GaussianKernel([1, 2, 3], K3)
    worst = 0.0
    count = 0
    for length in range(7):
        for w in product(kernel.indices, repeat=length):
            gap = abs(wick_expect(kernel, w) - moment_from_generating_series(kernel, w))
            worst = max(worst, gap)
            count += 1
    elapsed = time.perf_counter() - started
    report(
        1,
        "Wick-oracle equivalence",
        worst <= 1e-8 and elapsed < 10.0 and count >= 729,
        f"worst={worst:.2e} words={count} time={elapsed:.2f}s",
    )


def test_criterion_2_koopman_lie_algebra():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(500):
        dimension = int(rng.integers(1, 3))
        polys = []
        for _ in range(3):
            terms = {}
            for _ in range(int(rng.integers(1, 5))):
                while True:
                    exps = tuple(int(e) for e in rng.integers(0, 4, size=2 * dimension))
                    if sum(exps) <= 3:
                        break
                terms[exps] = terms.get(exps, 0) + int(rng.integers(-3, 4))
            polys.append(PhaseSpacePolynomial(dimension, terms))
        u, v, f = polys
        for residual in bracket_residuals(u, v, f):
            worst = max(worst, residual.max_abs_coeff())
        jacobi = (
            poisson(u, poisson(v, f))
            + poisson(v, poisson(f, u))
            + poisson(f, poisson(u, v))
        )
        worst = max(worst, jacobi.max_abs_coeff())
    elapsed = time.perf_counter() - started
    report(
        2,
        "Koopman Lie-algebra relations (500 triples)",
        worst == 0.0 and elapsed < 30.0,
        f"worst={worst} time={elapsed:.2f}s",
    )


def field_packets():
    return [
        Wavepacket.gaussian(center=(0.4, 0.0), width=1.0, wavevector=(0.5, 0.3)),
        Wavepacket.gaussian(center=(-0.3, 0.6), width=1.0, wavevector=(0.2, -0.4)),
        Wavepacket.gaussian(center=(0.0, 1.2), width=0.8, wavevector=(0.0, 0.6)),
    ]


def test_criterion_3_state_positivity():
    started = time.perf_counter()
    packets = field_packets()
    kernels = {
        "gaussian": GaussianKernel([1, 2, 3], K3),
        "gibbs": gibbs_oscillator_kernel(1.0, 1.0, 1.0),
        "vacuum-field": kernel_as_gaussian(FieldKernelSpec(mass=1.0), packets),
        "thermal-field": kernel_as_gaussian(FieldKernelSpec(mass=1.0, beta=1.0), packets),
    }
    worst = {}
    for name, kernel in kernels.items():
        state = kernel
        indices = kernel.indices[:3]
        lowest = 0.0
        for degree in range(1, 4):
            result = gram(build_basis(indices, degree), state)
            lowest = min(lowest, result.min_eigenvalue)
        worst[name] = lowest
    elapsed = time.perf_counter() - started
    passed = all(v >= -1e-10 for v in worst.values()) and elapsed < 60.0
    detail = " ".join(f"{k}={v:.1e}" for k, v in worst.items())
    report(3, "Gram positivity for four kernel families", passed, f"{detail} time={elapsed:.1f}s")


def test_criterion_4_gns_reproduction():
    kernel = GaussianKernel([1, 2, 3], K3)
    state = kernel
    rep = represent(build_basis(kernel.indices, 2), state)
    worst = 0.0
    for length in range(3):
        for w in product(kernel.indices, repeat=length):
            worst = max(worst, abs(rep.vacuum_expectation(w) - state.word_expect(w)))
    report(4, "GNS reproduction at degree 2", worst <= 1e-9, f"worst={worst:.2e}")


def test_criterion_5_vacuum_projector_witness():
    kernel = GaussianKernel([1, 2], K2)
    state = kernel
    i1, i2 = kernel.indices
    between, in_front = commutation_witness(state, i1, i2)
    gap = abs(in_front - between)
    probe = extended_positivity_probe(state, 200, seed=0)
    exact = check_extended_positivity(gram(build_basis(kernel.indices, 2), kernel))
    passed = (
        abs(between) <= 1e-12
        and abs(in_front - 0.5) <= 1e-12
        and gap >= 0.5 - 1e-12
        and probe >= -1e-10
        and exact.passed
    )
    report(
        5,
        "Projector noncommutativity witness",
        passed,
        f"between={between:.1e} front={in_front} probe={probe:.1e} exact={exact.passed}",
    )


def test_criterion_6_poincare_discrimination():
    started = time.perf_counter()
    vacuum_spec = FieldKernelSpec(mass=1.0)
    thermal_spec = FieldKernelSpec(mass=1.0, beta=1.0)
    f, g = field_packets()[:2]
    move = PoincareElement.boost(0.5)
    fb, gb = poincare_act(move, f), poincare_act(move, g)
    vacuum_dev = abs(vacuum_kernel(vacuum_spec, fb, gb) - vacuum_kernel(vacuum_spec, f, g))
    thermal_dev = abs(thermal_kernel(thermal_spec, fb, gb) - thermal_kernel(thermal_spec, f, g))
    cold = FieldKernelSpec(mass=1.0, beta=40.0)
    limit_gap = abs(thermal_kernel(cold, f, g) - vacuum_kernel(vacuum_spec, f, g))
    elapsed = time.perf_counter() - started
    passed = vacuum_dev <= 1e-6 and thermal_dev > 1e-3 and limit_gap <= 1e-8 and elapsed < 60.0
    report(
        6,
        "Poincare discrimination of quantum vs thermal",
        passed,
        f"vac={vacuum_dev:.1e} therm={thermal_dev:.1e} limit={limit_gap:.1e} time={elapsed:.1f}s",
    )


def test_criterion_7_microcausality():
    vacuum_spec = FieldKernelSpec(mass=1.0)
    thermal_spec = FieldKernelSpec(mass=1.0, beta=1.0)
    sigma = 1.0
    f = Wavepacket.gaussian(center=(0.4, 0.0), width=sigma, wavevector=(0.5, 0.3))
    g = Wavepacket.gaussian(center=(-0.3, 10.0 * sigma), width=sigma, wavevector=(0.2, -0.4))
    decay = abs(commutator_kernel(vacuum_spec, f, g))
    near = Wavepacket.gaussian(center=(-0.3, 2.0), width=sigma, wavevector=(0.2, -0.4))
    beta_gap = max(
        abs(commutator_kernel(thermal_spec, f, g) - commutator_kernel(vacuum_spec, f, g)),
        abs(commutator_kernel(thermal_spec, f, near) - commutator_kernel(vacuum_spec, f, near)),
    )
    passed = decay <= 1e-6 and beta_gap <= 1e-10
    report(7, "Microcausality decay and beta independence", passed, f"decay={decay:.1e} beta={beta_gap:.1e}")


def test_criterion_8_deterministic_reports(tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert main(["verify", "--seed", "0", "--out", str(first)]) == 0
    assert main(["verify", "--seed", "0", "--out", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()
    parsed = json.loads(first.read_text())
    report(
        8,
        "Byte-identical verify reports at seed 0",
        identical and parsed["passed"],
        f"bytes={len(first.read_bytes())}",
    )
