"""Free measurement algebra and Gaussian states.

Builds elements of the free *-algebra over indexed measurement operators,
shows the adjoint conventions, then evaluates moments under a Gaussian
state fixed by a 2x2 kernel.
"""

from qcmt import AlgebraElement, GaussianKernel, GaussianState, generator, paired_indices

# A kernel over two self-conjugate indices: real, symmetric, "classical".
kernel = GaussianKernel([1, 2], [[1.0, 0.5], [0.5, 1.0]])
i1, i2 = kernel.indices
m1, m2 = generator(i1), generator(i2)

print("algebra elements")
x = (2 + 1j) * m1 * m2 + 3 * AlgebraElement.identity()
print("  x          =", x)
print("  adjoint(x) =", x.adjoint())

# Adjoints route each index through the involution.  With a paired index
# the adjoint of M_a is M_{a*}:
a, ac = paired_indices("a", "a*")
print("  adjoint of M_a:", generator(a).adjoint())

print("\nGaussian state over the kernel", kernel)
state = GaussianState(kernel)
print("  rho(1)        =", state.expect(AlgebraElement.identity()))
print("  rho(M1)       =", state.expect(m1))
print("  rho(M1 M2)    =", state.expect(m1 * m2))
print("  rho(x)        =", state.expect(x))

# positivity: rho(A^dagger A) >= 0 for any element A
probe = m1 - (0.3 + 0.4j) * m2 + 0.1 * m1 * m2
print("  rho(A^dag A)  =", state.expect(probe.adjoint() * probe))
