"""Chromatic dispersion of the birefringent microstructured fiber.

Builds the fast-axis dispersion profile, locates the zero-GVD wavelength,
and prints effective index / group index / GVD across the band of interest.
"""

import numpy as np

from sfwmkit import (
    Axis,
    axis_profile,
    gvd,
    inverse_group_velocity,
    wavevector,
    FiberAxisGeometry,
    FiberSpec,
    birefringence,
    zero_gvd_wavelengths,
)
from sfwmkit.constants import C_LIGHT

fiber = FiberSpec(
    fast_axis=FiberAxisGeometry(core_diameter=1.7507e-6, air_filling_fraction=0.511),
    slow_axis=FiberAxisGeometry(core_diameter=1.7488e-6, air_filling_fraction=0.505),
    gamma=99.0,
    length=0.4,
)

profile = axis_profile(fiber, Axis.FAST)
roots = zero_gvd_wavelengths(profile, (560e-9, 1000e-9))
print(f"fast-axis zero-GVD wavelength: {roots[0] * 1e9:.3f} nm")
print(f"geometric birefringence at 785 nm: {birefringence(785e-9, fiber):.3e}")
print()

print(f"{'lambda (nm)':>12} {'n_eff':>10} {'n_group':>10} {'GVD (fs^2/mm)':>14}")
for lam in np.linspace(650e-9, 950e-9, 13):
    omega = 2 * np.pi * C_LIGHT / lam
    n_eff = wavevector(omega, profile) * C_LIGHT / omega
    n_g = inverse_group_velocity(omega, profile) * C_LIGHT
    beta2 = gvd(omega, profile) * 1e27  # s^2/m -> fs^2/mm
    print(f"{lam * 1e9:>12.1f} {n_eff:>10.5f} {n_g:>10.5f} {beta2:>14.2f}")
