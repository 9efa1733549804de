"""One-shot dk scan, the reference the phasematch bracket checks use.

dk is evaluated at all 2000 signal samples of every pump's scan window in
one call; each pump's first sign change brackets the sideband nearest
degeneracy and one ``chandrupatla`` call refines every bracket, with the
library's tolerances.  The library scans outward in blocks and stops each
pump at its first sign change, so on the same samples it must find the same
bracket, the same root and, where there is none, the same message.
"""

import numpy as np

from sfwmkit import phasematch as pm
from sfwmkit.constants import C_LIGHT
from sfwmkit.dispersion import Axis, axis_profile
from sfwmkit.material_optics import chandrupatla


def solve(pumps, fiber, peak_power=0.0, profile=None):
    """One PhasematchPoint, or the failure message, per pump of a 1-D array."""
    if profile is None:
        profile = axis_profile(fiber, Axis.FAST)
    pumps = np.asarray(pumps, dtype=float)
    out = [f"empty signal search window for pump {lam * 1e9:.2f} nm" for lam in pumps]
    omega_p = 2.0 * np.pi * C_LIGHT / pumps
    band_lo, band_hi = profile.span
    lo = omega_p + pm.DEGENERACY_GUARD
    hi = np.minimum(band_hi, 2.0 * omega_p - band_lo)
    hi = np.where(2.0 * omega_p - hi < band_lo, np.nextafter(hi, lo), hi)
    rows = np.nonzero(hi > lo)[0]
    omega_p = omega_p[rows]

    def mismatch(omega_s, omega_p):
        return pm.delta_k(omega_p, omega_s, 2.0 * omega_p - omega_s, fiber, peak_power, profile)

    omegas = np.linspace(lo[rows], hi[rows], pm._SCAN_POINTS, axis=-1)
    values = mismatch(omegas, omega_p[:, None])
    flips = np.sign(values[:, :-1]) * np.sign(values[:, 1:]) < 0
    found = flips.any(axis=1)
    for r in np.nonzero(~found)[0]:
        out[rows[r]] = (
            f"no phasematched sideband for pump {pumps[rows[r]] * 1e9:.2f} nm "
            f"(dk range {values[r].min():.3g}..{values[r].max():.3g} rad/m)"
        )
    rows, omegas, omega_p = rows[found], omegas[found], omega_p[found]
    i = flips[found].argmax(axis=1)
    at = np.arange(len(rows))
    omega_s, ok = chandrupatla(mismatch, omegas[at, i], omegas[at, i + 1], (omega_p,), xatol=1e5)
    residual = np.abs(mismatch(omega_s, omega_p))
    for r, k in enumerate(rows):
        if not (ok[r] and residual[r] < 1e-3):
            out[k] = f"phasematch root did not converge: |dk| = {residual[r]:.3g} rad/m"
            continue
        out[k] = pm.PhasematchPoint(
            pump_wavelength=float(pumps[k]),
            signal_wavelength=float(2.0 * np.pi * C_LIGHT / omega_s[r]),
            idler_wavelength=float(2.0 * np.pi * C_LIGHT / (2.0 * omega_p[r] - omega_s[r])),
        )
    return out
