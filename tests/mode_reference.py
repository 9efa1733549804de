"""Dense-scan mode indices, the reference the mode-solver checks use.

One wavelength at a time, each characteristic function of the library is
sampled on a dense effective-index grid scanned down from the core (or
silica) index; the first sign change between finite samples brackets the
fundamental root and ``brentq`` refines it.  No analytic bracket is used, so
this checks the library's brackets as well as its root finder.  The scan
steps are (n_top - n_bottom)/points: fine enough at the geometries tested
here to separate the FSM root from the pole of its characteristic function
below it, which a coarse scan can step over.
"""

import numpy as np
from scipy.optimize import brentq

from sfwmkit import material_optics as mo
from sfwmkit.errors import ModeCutoffError

_RTOL = 4.0 * np.finfo(float).eps


def _first_root_from_top(char, top, bottom, points):
    """brentq root in the first sign change of char scanned from top down."""
    margin = 1e-9 * (top - bottom)
    candidates = np.linspace(top - margin, bottom + margin, points)
    values = char(candidates)
    finite = np.isfinite(values)
    flips = np.nonzero(
        (np.sign(values[:-1]) * np.sign(values[1:]) < 0) & finite[:-1] & finite[1:]
    )[0]
    if len(flips) == 0:
        raise ModeCutoffError("reference scan found no sign change")
    i = flips[0]
    return brentq(char, candidates[i + 1], candidates[i], xtol=1e-15, rtol=_RTOL)


def fsm_index(wavelength, geometry, points=4000):
    n_si = mo.silica_index(wavelength)
    k0 = 2.0 * np.pi / wavelength
    r_hole, r_cell = mo.unit_cell_radii(geometry)
    return _first_root_from_top(
        lambda n: mo._fsm_char(n, k0, n_si, r_hole, r_cell), n_si, 1.0, points
    )


def he11_index(wavelength, geometry, points=4000):
    n_core = mo.silica_index(wavelength)
    n_clad = fsm_index(wavelength, geometry, points)
    k0 = 2.0 * np.pi / wavelength
    radius = 0.5 * geometry.core_diameter
    return _first_root_from_top(
        lambda n: mo._he11_char(n, k0, radius, n_core, n_clad), n_core, n_clad, points
    )


def lp01_index(wavelength, geometry, points=10_000):
    n_core = mo.silica_index(wavelength)
    n_clad = mo.cladding_index(wavelength, geometry.air_filling_fraction)
    ka = np.pi * geometry.core_diameter / wavelength
    v = ka * np.sqrt(n_core**2 - n_clad**2)
    return _first_root_from_top(
        lambda n: mo._char_of_u(ka * np.sqrt(n_core**2 - n**2), v), n_core, n_clad, points
    )
