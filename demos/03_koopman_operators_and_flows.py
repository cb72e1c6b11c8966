"""Koopman operator pairs over a classical phase space.

Multiplication operators commute; adding the Poisson-derivation family
makes the operator algebra noncommutative while the underlying mechanics
stays classical.  Exponentiating derivations gives canonical flows;
exponentiating multiplication operators rescales - a non-canonical
transformation.  The Gibbs oscillator kernel links the classical side to
the Gaussian-state machinery.
"""

import math

from qcmt import (
    PhaseSpacePolynomial,
    bracket_residuals,
    commutator_factor,
    gibbs_oscillator_kernel,
    liouville_flow,
    multiplication_flow,
    poisson,
)

q = PhaseSpacePolynomial.coordinate(1, "q")
p = PhaseSpacePolynomial.coordinate(1, "p")

print("poisson brackets")
print("  {q, p}     =", poisson(q, p))
print("  {q^2, p^2} =", poisson(q * q, p * p))

print("\ncommutation relations of the operator pair")
u = q * q + p
v = 2 * (q * p)
f = q * p * p
r1, r2, r3, jacobi = bracket_residuals(u, v, f)
print("  [Mul_u, Mul_v] f             =", r1)
print("  ([Der_u, Mul_v] - Mul_{u,v})f =", r2)
print("  ([Der_u, Der_v] - Der_{u,v})f =", r3)
print("  Jacobi identity residual      =", jacobi)

print("\nflows")
energy = 0.5 * (q * q + p * p)
print("  harmonic flow, one period:", liouville_flow(energy, 2 * math.pi, [(1.0, 0.0)])[0])
print("  momentum flow translates: ", liouville_flow(p, 1.0, [(0.0, 0.0)])[0])
print("  multiplication flow at q=2 multiplies by", multiplication_flow(q, 1.0, [(2.0, 0.0)])[0])

print("\nGibbs oscillator kernel (m = w = kT = 1)")
kernel = gibbs_oscillator_kernel(1.0, 1.0, 1.0)
iq, ip = kernel.indices
print("  (q,q) =", kernel.pairing(iq, iq), " (p,p) =", kernel.pairing(ip, ip))
print("  commutator factor (classical, so zero):", commutator_factor(kernel, iq, ip))
print("  rho(q^4) =", kernel.word_expect((iq,) * 4), " (3 kT^2 / (m w^2)^2)")
