"""The vacuum projector makes a commutative algebra noncommutative.

Adjoining a projector V with rho(A V B) = rho(A) rho(B) to a commutative
Gaussian measurement algebra: the order of V against generators changes
expectation values, which is exactly a failure of commutation.
Conditioning by an element X then produces non-invariant states.
"""

from qcmt import (
    ConditionedState,
    ExtendedElement,
    GaussianKernel,
    commutation_witness,
    extended_expect,
    extended_positivity_probe,
    generator,
)

kernel = GaussianKernel([1, 2], [[1.0, 0.5], [0.5, 1.0]])
i1, i2 = kernel.indices

print("projector algebra normal form")
V = ExtendedElement.projector()
print("  V * V     =", V * V, " (idempotent)")
print("  V adjoint =", V.adjoint())

print("\nfactorized expectations")
print("  rho(V)         =", extended_expect(kernel, V))
m1v_m2 = ExtendedElement({((i1,), (i2,)): 1.0})
v_m1m2 = ExtendedElement({((), (i1, i2)): 1.0})
print("  rho(M1 V M2)   =", extended_expect(kernel, m1v_m2))
print("  rho(V M1 M2)   =", extended_expect(kernel, v_m1m2))

between, in_front = commutation_witness(kernel, i1, i2)
print("\nwitness pair:", (between, in_front), "-> [M1, V] != 0")

print("\npositivity of the extended state")
print("  probe over 200 random extended elements:", extended_positivity_probe(kernel, 200, seed=0))

print("\nconditioned states break G-invariance")
conditioned = ConditionedState(kernel, generator(i1))
print("  rho_GX(1)      =", conditioned.word_expect(()))
print("  rho(M2 M2)     =", kernel.word_expect((i2, i2)))
print("  rho_GX(M2 M2)  =", conditioned.word_expect((i2, i2)), " (pumped by the conditioner)")
