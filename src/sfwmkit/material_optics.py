"""Refractive-index models for the step-index reduction of a photonic-crystal fiber.

Two families of models live here.

The *scalar* family is the textbook step-index reduction: a Sellmeier model
for bulk fused silica, a volume-averaged permittivity for the air-filled
cladding, and the weakly-guiding LP01 effective index.  It is simple, fast,
and reproduces the measured axis birefringence of the fiber well, so it is
what ``dispersion.birefringence`` uses.

The *vector* family is the calibrated model used for chromatic dispersion:
the cladding index is the fundamental space-filling mode (FSM) of a circular
air-hole unit cell equivalent to the triangular hole lattice, and the core
mode is the exact HE11 solution of the resulting step-index profile.  The
scalar family places the short-wavelength zero-GVD point ~70 nm too high for
this fiber; the vector family reproduces it, at the cost of overestimating
the (tiny) index difference between the two polarization axes.  See the
package README for the calibration notes.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import i0, i1, j0, j1, jn_zeros, k0, k1, y0, y1

from .constants import SILICA_SELLMEIER, SILICA_VALID_RANGE
from .errors import DomainError, ModeCutoffError

__all__ = [
    "SellmeierModel",
    "FiberAxisGeometry",
    "FiberSpec",
    "FUSED_SILICA",
    "silica_index",
    "cladding_index",
    "lp01_effective_index",
    "lp01_effective_index_grid",
    "unit_cell_radii",
    "fsm_cladding_index",
    "he11_effective_index",
    "he11_effective_index_grid",
]

_J0_FIRST_ZERO = float(jn_zeros(0, 1)[0])  # 2.404825...


@dataclass(frozen=True)
class SellmeierModel:
    """n^2 = 1 + sum B_j lam^2/(lam^2 - L_j), lam in um, L_j in um^2."""

    resonances: tuple  # ((strength, resonance_wavelength_sq_um2), ...)

    def __post_init__(self):
        if not self.resonances:
            raise ValueError("SellmeierModel needs at least one resonance term")
        for strength, lam_sq in self.resonances:
            if strength <= 0 or lam_sq <= 0:
                raise ValueError(
                    "Sellmeier strengths and resonance wavelengths must be positive"
                )

    def index(self, wavelength):
        """Refractive index at vacuum wavelength [m]; scalar or array."""
        lam_sq = (np.asarray(wavelength, dtype=float) * 1e6) ** 2
        n_sq = 1.0 + sum(b * lam_sq / (lam_sq - l2) for b, l2 in self.resonances)
        n = np.sqrt(n_sq)
        return float(n) if np.ndim(wavelength) == 0 else n


FUSED_SILICA = SellmeierModel(SILICA_SELLMEIER)


@dataclass(frozen=True)
class FiberAxisGeometry:
    """Step-index reduction of one polarization axis of the fiber."""

    core_diameter: float  # [m]
    air_filling_fraction: float  # in (0, 1)

    def __post_init__(self):
        if not (math.isfinite(self.core_diameter) and self.core_diameter > 0):
            raise ValueError(f"core_diameter must be finite and > 0, got {self.core_diameter}")
        if not 0.0 < self.air_filling_fraction < 1.0:
            raise ValueError(
                f"air_filling_fraction must be in (0, 1), got {self.air_filling_fraction}"
            )


@dataclass(frozen=True)
class FiberSpec:
    """Two-axis fiber description used everywhere downstream.

    gamma is the nonlinear coefficient in 1/(W km); length in meters.
    If birefringence_override is None, the birefringence is computed from the
    two axis geometries; otherwise the override (signed) is used as-is.
    """

    fast_axis: FiberAxisGeometry
    slow_axis: FiberAxisGeometry
    gamma: float  # [1/(W km)]
    length: float  # [m]
    birefringence_override: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
        if not (math.isfinite(self.length) and self.length > 0):
            raise ValueError(f"length must be finite and > 0, got {self.length}")
        dn = self.birefringence_override
        if dn is not None and not math.isfinite(dn):
            raise ValueError(f"birefringence_override must be finite, got {dn}")

    def axis_geometry(self, axis):
        name = getattr(axis, "value", axis)
        if name == "fast":
            return self.fast_axis
        if name == "slow":
            return self.slow_axis
        raise ValueError(f"unknown axis {axis!r}")


def silica_index(wavelength):
    """Fused-silica refractive index at vacuum wavelength [m].

    Accepts a scalar or array; valid for 0.21 um < wavelength < 3.7 um.
    """
    lo, hi = SILICA_VALID_RANGE
    wl = np.asarray(wavelength, dtype=float)
    if np.any(wl <= lo) or np.any(wl >= hi):
        raise DomainError(
            f"wavelength {wavelength} outside Sellmeier validity window "
            f"({lo * 1e6:.2f} um, {hi * 1e6:.2f} um)"
        )
    return FUSED_SILICA.index(wavelength)


def cladding_index(wavelength, air_filling_fraction):
    """Effective index of the air-filled cladding region.

    Volume-averaged permittivity: n_clad^2 = f * 1 + (1 - f) * n_silica^2.
    """
    f = air_filling_fraction
    if not 0.0 <= f < 1.0:
        raise DomainError(f"air_filling_fraction must be in [0, 1), got {f}")
    n_si = silica_index(wavelength)
    n_clad = np.sqrt(f + (1.0 - f) * np.asarray(n_si) ** 2)
    return float(n_clad) if np.ndim(wavelength) == 0 else n_clad


def _v_number(wavelength, geometry, n_core, n_clad):
    return (np.pi * geometry.core_diameter / wavelength) * np.sqrt(
        n_core**2 - n_clad**2
    )


def _char_of_u(u, v):
    """LP01 characteristic u J1(u)/J0(u) - w K1(w)/K0(w), w = sqrt(v^2 - u^2)."""
    w = np.sqrt(v * v - u * u)
    return u * j1(u) / j0(u) - w * k1(w) / k0(w)


def lp01_effective_index(wavelength, geometry):
    """Scalar LP01 effective index from the weakly guiding characteristic equation.

    Brackets the fundamental root by scanning 1e4 effective-index candidates
    between n_clad and n_core and bisecting the sign change nearest n_core.
    Refined to relative tolerance 1e-12.
    """
    n_core = silica_index(wavelength)
    n_clad = cladding_index(wavelength, geometry.air_filling_fraction)
    v = _v_number(wavelength, geometry, n_core, n_clad)
    if not v > 0:
        raise ModeCutoffError(f"nonpositive V number ({v}) -- mode cutoff")

    ka = np.pi * geometry.core_diameter / wavelength

    def char_of_neff(n_eff):
        u = ka * np.sqrt(n_core**2 - n_eff**2)
        return _char_of_u(u, v)

    margin = 1e-9 * (n_core - n_clad)
    candidates = np.linspace(n_clad + margin, n_core - margin, 10_000)
    values = char_of_neff(candidates)
    finite = np.isfinite(values)
    sign = np.sign(values)
    # Sign changes between consecutive finite samples, scanned from n_core down.
    flips = np.nonzero(
        (sign[:-1] * sign[1:] < 0) & finite[:-1] & finite[1:]
    )[0]
    if len(flips) == 0:
        raise ModeCutoffError(
            f"no guided LP01 root between n_clad={n_clad:.6f} and n_core={n_core:.6f}"
        )
    i = flips[-1]  # nearest n_core: the fundamental mode
    n_eff = brentq(
        char_of_neff, candidates[i], candidates[i + 1], xtol=1e-15, rtol=1e-14
    )
    return float(n_eff)


def lp01_effective_index_grid(wavelengths, geometry, iterations=90):
    """Vectorized LP01 solve over an array of wavelengths.

    Uses the analytic bracket for the fundamental root, u in (0, min(V, j01)),
    inside which the characteristic function is strictly increasing, and runs a
    fixed-count bisection over all wavelengths at once. Agrees with
    lp01_effective_index to well below 1e-12 relative.
    """
    wl = np.asarray(wavelengths, dtype=float)
    n_core = np.asarray(silica_index(wl))
    n_clad = np.asarray(cladding_index(wl, geometry.air_filling_fraction))
    v = _v_number(wl, geometry, n_core, n_clad)
    if np.any(v <= 0):
        raise ModeCutoffError("nonpositive V number -- mode cutoff")

    hi = np.minimum(v, _J0_FIRST_ZERO) * (1.0 - 1e-12)
    lo = np.full_like(hi, 1e-9)
    if np.any(_char_of_u(lo, v) >= 0) or np.any(_char_of_u(hi, v) <= 0):
        raise ModeCutoffError("LP01 bracket failed; no guided root")
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        below = _char_of_u(mid, v) < 0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    u = 0.5 * (lo + hi)
    ka = np.pi * geometry.core_diameter / wl
    return np.sqrt(n_core**2 - (u / ka) ** 2)


# --------------------------------------------------------------------------
# Vector family: unit-cell FSM cladding + exact HE11 core mode.
# --------------------------------------------------------------------------

_SQRT3 = np.sqrt(3.0)


def unit_cell_radii(geometry):
    """(hole_radius, cell_radius) of the equivalent circular cladding unit cell [m].

    The triangular hole lattice behind (core_diameter, air_filling_fraction)
    is reconstructed from the two standard closure relations
        f = pi/(2 sqrt(3)) (d_hole/pitch)^2        (areal air fraction)
        core_diameter = 2 pitch - d_hole            (core spans one missing hole)
    and the hexagonal cell is replaced by the equal-area circle
    R = pitch * sqrt(sqrt(3)/(2 pi)); the hole radius is d_hole/2, which
    preserves the air fraction inside the cell exactly.
    """
    f = geometry.air_filling_fraction
    d_rel = np.sqrt(2.0 * _SQRT3 * f / np.pi)  # d_hole / pitch
    if d_rel >= 1.0:
        raise DomainError(
            f"air_filling_fraction {f} implies overlapping holes (d/pitch >= 1)"
        )
    pitch = geometry.core_diameter / (2.0 - d_rel)
    cell_radius = pitch * np.sqrt(_SQRT3 / (2.0 * np.pi))
    hole_radius = 0.5 * d_rel * pitch
    return hole_radius, cell_radius


def _fsm_char(n_eff, k0_, n_si, hole_radius, cell_radius):
    """Characteristic function of the unit-cell fundamental space-filling mode.

    Air hole of radius r at the center of a silica cell of radius R with a
    Neumann (zero radial derivative) outer boundary; azimuthally symmetric
    field, I0/I1 in the hole, J0/Y0 mixture in the silica annulus.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        ka = k0_ * np.sqrt(n_eff**2 - 1.0)
        ks = k0_ * np.sqrt(n_si**2 - n_eff**2)
        a = y1(ks * cell_radius)
        b = j1(ks * cell_radius)
        num = a * j1(ks * hole_radius) - b * y1(ks * hole_radius)
        den = a * j0(ks * hole_radius) - b * y0(ks * hole_radius)
        return ka * i1(ka * hole_radius) / i0(ka * hole_radius) + ks * num / den


def _he11_char(n_eff, k0_, radius, n_core, n_clad):
    """Exact HE11 dispersion relation of a two-layer step-index fiber.

    (F + G)(n_core^2 F + n_clad^2 G) = n_eff^2 (1/u^2 + 1/w^2)^2 with
    F = J1'(u)/(u J1(u)), G = K1'(w)/(w K1(w)); returns LHS - RHS.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        u = radius * k0_ * np.sqrt(n_core**2 - n_eff**2)
        w = radius * k0_ * np.sqrt(n_eff**2 - n_clad**2)
        jv = j1(u)
        jp = j0(u) - jv / u
        kv = k1(w)
        kp = -(k0(w) + kv / w)
        f = jp / (u * jv)
        g = kp / (w * kv)
        return (f + g) * (n_core**2 * f + n_clad**2 * g) - n_eff**2 * (
            1.0 / u**2 + 1.0 / w**2
        ) ** 2


def _first_flip_from_top(values):
    """Index of the first sign change (scanning axis 0 downward in n_eff).

    values[j, i] are characteristic samples at descending n_eff candidates;
    returns per-column candidate index or -1 when no sign change exists.
    """
    finite = np.isfinite(values)
    sign = np.sign(values)
    flips = (sign[:-1] * sign[1:] < 0) & finite[:-1] & finite[1:]
    any_flip = flips.any(axis=0)
    first = flips.argmax(axis=0)
    return np.where(any_flip, first, -1)


def _bisect_grid(char, lo, hi, iterations):
    f_lo = char(lo)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        f_mid = char(mid)
        same = np.sign(f_mid) == np.sign(f_lo)
        lo = np.where(same, mid, lo)
        f_lo = np.where(same, f_mid, f_lo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def fsm_cladding_index_grid(wavelengths, geometry, scan_points=800, iterations=70):
    """Unit-cell FSM cladding index over an array of wavelengths [m]."""
    wl = np.atleast_1d(np.asarray(wavelengths, dtype=float))
    n_si = np.asarray(silica_index(wl))
    k0_ = 2.0 * np.pi / wl
    r_hole, r_cell = unit_cell_radii(geometry)

    # Scan n_eff candidates from just below n_si down toward 1; the FSM is
    # the root closest to n_si.
    t = np.linspace(1.0 - 1e-9, 1e-9, scan_points)[:, None]
    candidates = 1.0 + t * (n_si[None, :] - 1.0)
    values = _fsm_char(candidates, k0_[None, :], n_si[None, :], r_hole, r_cell)
    first = _first_flip_from_top(values)
    if np.any(first < 0):
        raise ModeCutoffError("no space-filling-mode root found in (1, n_silica)")
    cols = np.arange(len(wl))
    hi = candidates[first, cols]
    lo = candidates[first + 1, cols]
    root = _bisect_grid(
        lambda n: _fsm_char(n, k0_, n_si, r_hole, r_cell), lo, hi, iterations
    )
    return root


def fsm_cladding_index(wavelength, geometry):
    """Unit-cell FSM cladding index at a single vacuum wavelength [m]."""
    return float(fsm_cladding_index_grid(np.array([wavelength]), geometry)[0])


def he11_effective_index_grid(
    wavelengths, geometry, scan_points=600, iterations=70, cladding=None
):
    """Exact HE11 effective index over an array of wavelengths [m].

    The cladding index defaults to the unit-cell FSM; pass `cladding` (array
    matching wavelengths) to use a different model. The fundamental root is
    the sign change nearest n_core in a descending candidate scan, refined by
    fixed-count bisection (resolution ~ (n_core - n_clad)/2^iterations).
    """
    wl = np.atleast_1d(np.asarray(wavelengths, dtype=float))
    n_core = np.asarray(silica_index(wl))
    if cladding is None:
        n_clad = fsm_cladding_index_grid(wl, geometry)
    else:
        n_clad = np.asarray(cladding, dtype=float)
    if np.any(n_clad >= n_core):
        raise ModeCutoffError("cladding index reached the core index -- no guiding")
    radius = 0.5 * geometry.core_diameter
    k0_ = 2.0 * np.pi / wl

    t = np.linspace(1.0 - 1e-9, 1e-9, scan_points)[:, None]
    candidates = n_clad[None, :] + t * (n_core - n_clad)[None, :]
    values = _he11_char(
        candidates, k0_[None, :], radius, n_core[None, :], n_clad[None, :]
    )
    first = _first_flip_from_top(values)
    if np.any(first < 0):
        raise ModeCutoffError("no HE11 root between n_clad and n_core")
    cols = np.arange(len(wl))
    hi = candidates[first, cols]
    lo = candidates[first + 1, cols]
    root = _bisect_grid(
        lambda n: _he11_char(n, k0_, radius, n_core, n_clad), lo, hi, iterations
    )
    return root


def he11_effective_index(wavelength, geometry):
    """Exact HE11 effective index (FSM cladding) at one vacuum wavelength [m]."""
    return float(he11_effective_index_grid(np.array([wavelength]), geometry)[0])
