"""Central differences of delta_k: an independent reference for the dk slopes.

At a phasematched pair (w_s, w_i) the pump is w_p = (w_s + w_i) / 2 and the
birefringence is held at its value at that pump, as the solver holds it: each
pair is differenced on a copy of the fiber whose override is the direct LP01
dn at its pump, so the steps do not move dn.
"""

import dataclasses

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
    lam_p = 4.0 * np.pi * C_LIGHT / (omega_s + omega_i)
    dn = np.broadcast_to(birefringence(lam_p, fiber), lam_p.shape)
    slopes = []
    for ws, wi, dn_k in zip(omega_s, omega_i, dn):
        held = dataclasses.replace(fiber, birefringence_override=float(dn_k))

        def dk(ws, wi):
            return delta_k(0.5 * (ws + wi), ws, wi, held)

        slopes.append(
            (
                (dk(ws + step, wi) - dk(ws - step, wi)) / (2.0 * step),
                (dk(ws, wi + step) - dk(ws, wi - step)) / (2.0 * step),
            )
        )
    return tuple(np.array(column) for column in zip(*slopes))
