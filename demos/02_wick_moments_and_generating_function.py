"""Wick expansion versus the generating function.

Every even moment is a sum over perfect matchings of two-point
contractions; the same number falls out of differentiating the Gaussian
generating function at zero.  A kernel with an imaginary off-diagonal
entry produces a noncommutative (Weyl-Heisenberg) state; a real symmetric
one stays commutative.
"""

import math

from qcmt import (
    GaussianKernel,
    commutator_factor,
    generating_function,
    moment_from_generating_series,
    two_point,
    wick_expect,
)

kernel = GaussianKernel([1, 2], [[1.0, 0.5], [0.5, 1.0]])
i1, i2 = kernel.indices

print("moments from perfect matchings")
for word in [(i1, i2), (i1, i1, i1, i1), (i1, i2, i1, i2), (i1, i2, i2, i1)]:
    label = "*".join(f"M{i.tag}" for i in word)
    direct = wick_expect(kernel, word)
    oracle = moment_from_generating_series(kernel, word)
    print(f"  rho({label:13s}) = {direct.real:6g}   series oracle: {oracle.real:6g}")

print("\ngenerating function checks")
value = generating_function(kernel, [i1, i2], [1.0, 1.0])
print("  G(1,1)  =", value, " exp(-3/2) =", math.exp(-1.5))

print("\ncommutators live in the state, not the algebra")
print("  real symmetric kernel:  c =", commutator_factor(kernel, i1, i2))
quantum = GaussianKernel([1, 2], [[1.0, 0.5j], [-0.5j, 1.0]])
j1, j2 = quantum.indices
print("  imaginary off-diagonal: c =", commutator_factor(quantum, j1, j2))
print("  two_point (i^c, j)        =", two_point(quantum, j1, j2))
