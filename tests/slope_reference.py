"""Central differences of delta_k: an independent reference for the dk slopes.

At a phasematched pair (w_s, w_i) the pump is w_p = (w_s + w_i) / 2 and the
birefringence is held at its value at that pump, as the solver holds it.
"""

import numpy as np

from sfwmkit.constants import C_LIGHT
from sfwmkit.dispersion import birefringence
from sfwmkit.phasematch import delta_k


def central_slopes(omega_s, omega_i, fiber, step=1e10):
    """(d dk/d w_s at fixed w_i, d dk/d w_i at fixed w_s) by central differences.

    The step [rad/s] is a hundredth of the default profile's node spacing;
    with dk slopes of order 1e-13 to 1e-12 s/m it keeps rounding below 1e-6
    of the slope.
    """
    dn = birefringence(4.0 * np.pi * C_LIGHT / (omega_s + omega_i), fiber)

    def dk(ws, wi):
        return delta_k(0.5 * (ws + wi), ws, wi, fiber, birefringence_value=dn)

    return (
        (dk(omega_s + step, omega_i) - dk(omega_s - step, omega_i)) / (2.0 * step),
        (dk(omega_s, omega_i + step) - dk(omega_s, omega_i - step)) / (2.0 * step),
    )
