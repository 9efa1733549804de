"""Joint spectral amplitude and heralded-state purity versus fiber length.

Builds the two-photon joint spectrum of the 40 cm fiber pumped at 783 nm,
2.3 nm red of its 780.69 nm group-velocity-matched pump, Schmidt-decomposes
it, and scans the purity over fiber length.  The convergence drift between a
base and a doubled grid is printed alongside each purity so the numbers can
be trusted (or not).
"""

import dataclasses

from sfwmkit import (
    FiberAxisGeometry,
    FiberSpec,
    PumpSpec,
    adaptive_grid,
    build_jsa,
    schmidt_decompose,
)

fiber = FiberSpec(
    fast_axis=FiberAxisGeometry(core_diameter=1.7507e-6, air_filling_fraction=0.511),
    slow_axis=FiberAxisGeometry(core_diameter=1.7488e-6, air_filling_fraction=0.505),
    gamma=99.0,
    length=0.4,
    birefringence_override=-1.7e-5,
)
pump = PumpSpec(center_wavelength=783e-9, gaussian_fwhm=20e-9, filter_width=8e-9)

jsa = build_jsa(pump, fiber, grid=adaptive_grid(pump, fiber))
result = schmidt_decompose(jsa)
print(f"40 cm fiber: purity {result.purity:.4f}, Schmidt number {result.schmidt_number:.3f}")
print("leading Schmidt coefficients:", " ".join(f"{c:.4f}" for c in result.coefficients[:6]))
print()

print(f"{'length (m)':>10} {'purity':>8} {'grid drift':>11}")
for length in (0.2, 0.4, 1.0, 4.0, 10.0):
    f = dataclasses.replace(fiber, length=length)
    base = schmidt_decompose(build_jsa(pump, f, grid=adaptive_grid(pump, f, 256, 256)))
    fine = schmidt_decompose(build_jsa(pump, f, grid=adaptive_grid(pump, f, 512, 512)))
    drift = abs(fine.purity - base.purity)
    print(f"{length:>10.1f} {base.purity:>8.4f} {drift:>11.1e}")

print(
    "\nThe purity peaks near 40 cm and falls for longer fibers: the"
    "\nphasematch ridge is curved, so a narrower sinc traces the bend"
    "\ninstead of factorizing the joint spectrum."
)
