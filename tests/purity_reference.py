"""Brute-force heralded purity, the reference the long-fiber purity checks use."""

import functools

import numpy as np
from scipy.special import erf

from sfwmkit import jsa as jsamod
from sfwmkit.constants import C_LIGHT


@functools.lru_cache(maxsize=4)
def reference_purity(pump, fiber):
    """Brute-force purity on a uniform grid, independent of the adaptive path.

    The 1024 x 1024 grid's idler axis is three times as wide as the adaptive
    idler window, around its centre; the signal axis spans every w_s that
    pairs with some grid idler inside the support of the pump function, so
    no part of the ridge is clipped.  The envelope is the closed-form
    self-convolution of the filtered Gaussian pump field, written out here
    rather than taken from the library, and the purity comes straight from
    the singular values.
    """
    two_pi_c = 2.0 * np.pi * C_LIGHT
    lam_c, half = pump.center_wavelength, 0.5 * pump.filter_width
    lo, hi = two_pi_c / (lam_c + half), two_pi_c / (lam_c - half)
    sigma = two_pi_c * pump.gaussian_fwhm / lam_c**2 / (2.0 * np.sqrt(np.log(2.0)))

    window = jsamod.adaptive_grid(pump, fiber).idler_omegas
    mid, width = 0.5 * (window[0] + window[-1]), 3.0 * (window[-1] - window[0])
    om_i = np.linspace(mid - 0.5 * width, mid + 0.5 * width, 1024)
    om_s = np.linspace(2.0 * lo - om_i[-1], 2.0 * hi - om_i[0], 1024)
    mesh_s, mesh_i = np.meshgrid(om_s, om_i, indexing="ij")

    # E(w+) = int A(w) A(w+ - w) dw over the overlap [a, b] of the two
    # filter windows, with A a Gaussian of amplitude width sigma.
    om_sum = mesh_s + mesh_i
    a = np.maximum(lo, om_sum - hi)
    b = np.minimum(hi, om_sum - lo)
    envelope = np.where(
        b > a,
        np.exp(-((om_sum - 2.0 * pump.center_omega) ** 2) / (4.0 * sigma**2))
        * (erf((b - 0.5 * om_sum) / sigma) - erf((a - 0.5 * om_sum) / sigma)),
        0.0,
    )
    amplitude = envelope * jsamod.phasematch_function(mesh_s, mesh_i, fiber)
    lam = np.linalg.svd(amplitude, compute_uv=False) ** 2
    return float(np.sum(lam**2) / np.sum(lam) ** 2)
