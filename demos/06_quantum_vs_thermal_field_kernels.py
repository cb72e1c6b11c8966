"""Quantum versus thermal noise for a 1+1-dimensional scalar field.

The vacuum two-point kernel is invariant under the whole Poincare group
with amplitude set by hbar.  The thermal kernel picks a rest frame: it is
invariant under translations and spatial reflection but not under boosts,
and its high-temperature amplitude is set by kT.  The commutator pairing
is temperature independent and dies off at spacelike separation.
"""

import numpy as np

from qcmt import (
    FieldKernelSpec,
    PoincareElement,
    Wavepacket,
    commutator_kernel,
    kernel_as_gaussian,
    poincare_act,
    thermal_kernel,
    vacuum_kernel,
)
from qcmt.gaussian import hermitian_spectrum

vacuum = FieldKernelSpec(mass=1.0)
thermal = FieldKernelSpec(mass=1.0, beta=1.0)
f = Wavepacket.gaussian(center=(0.4, 0.0), width=1.0, wavevector=(0.5, 0.3))
g = Wavepacket.gaussian(center=(-0.3, 0.6), width=1.0, wavevector=(0.2, -0.4))

print("boost response of the two kernels (the discrimination)")
base_v = vacuum_kernel(vacuum, f, g)
base_t = thermal_kernel(thermal, f, g)
print("  chi    |vacuum shift|   |thermal shift|")
for chi in (0.0, 0.125, 0.25, 0.5):
    move = PoincareElement.boost(chi)
    fb, gb = poincare_act(move, f), poincare_act(move, g)
    dv = abs(vacuum_kernel(vacuum, fb, gb) - base_v)
    dt = abs(thermal_kernel(thermal, fb, gb) - base_t)
    print(f"  {chi:5.3f}  {dv:12.3e}    {dt:12.3e}")

print("\nlow temperature limit: beta hbar omega_min = 40")
cold = FieldKernelSpec(mass=1.0, beta=40.0)
print("  |thermal - vacuum| =", abs(thermal_kernel(cold, f, g) - base_v))

print("\nmicrocausality: commutator pairing against spatial separation")
probe = Wavepacket.gaussian(center=(0.4, 0.0), width=1.0, wavevector=(0.5, 0.3))
for dx in (1.0, 2.0, 4.0, 6.0, 10.0):
    far = Wavepacket.gaussian(center=(-0.3, dx), width=1.0, wavevector=(0.2, -0.4))
    c_vac = commutator_kernel(vacuum, probe, far)
    c_th = commutator_kernel(thermal, probe, far)
    print(f"  dx={dx:5.1f}  |comm|={abs(c_vac):9.3e}   thermal-vacuum gap={abs(c_th - c_vac):.1e}")

print("\nmaterialized kernel matrix feeds the Gaussian-state machinery")
kernel = kernel_as_gaussian(vacuum, [f, g])
lowest = hermitian_spectrum(kernel.matrix(), kernel.tol)[0][0]
print("  indices:", len(kernel.indices), " min eigenvalue:", np.round(lowest, 12))
