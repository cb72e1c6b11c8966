"""Gram matrices and the finite GNS representation.

State positivity is positive semi-definiteness of every Gram matrix
G_ab = rho(w_a^dagger w_b) over a monomial basis.  Quotienting by the
null space and letting generators act by left multiplication gives
matrices whose vacuum expectations reproduce the state.
"""

import numpy as np

from qcmt import GaussianKernel, build_basis, gram, represent

kernel = GaussianKernel([1, 2], [[1.0, 0.5], [0.5, 1.0]])
i1, i2 = kernel.indices

basis = build_basis(kernel.indices, 1)
print("basis words:", ["*".join(f"M{i.tag}" for i in w) or "1" for w in basis.words])
report = gram(basis, kernel)
print("gram matrix:\n", np.round(report.gram.real, 3))
print("eigenvalues:", np.round(report.eigenvalues, 4), " null dimension:", report.null_dimension)
print("report:     ", report.as_dict())

print("\ndegree-2 representation")
rep = represent(build_basis(kernel.indices, 2), kernel)
print("  quotient dimension:", rep.dimension, "of basis size", len(build_basis(kernel.indices, 2)))
print("  (the classical state kills the commutator direction)")
for word in [(i1,), (i1, i2), (i2, i2)]:
    label = "*".join(f"M{i.tag}" for i in word)
    via_rep = rep.vacuum_expectation(word)
    direct = kernel.word_expect(word)
    print(f"  <vac, pi({label:6s}) vac> = {via_rep.real: .6f}   rho = {direct.real: .6f}")

print("\npositivity verdicts: the least Gram eigenvalue against its bound")
print("  genuine state, degree 3:   ", gram(build_basis(kernel.indices, 3), kernel).is_positive())
bad = GaussianKernel([1, 2], [[1.0, 2.0], [2.0, 1.0]], validate=False)
print("  defective kernel, degree 1:", gram(build_basis(bad.indices, 1), bad).is_positive())
