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

All three mode solvers (LP01, FSM, HE11) work on whole wavelength arrays at
once: each brackets its root analytically and hands the bracket to
``_bracketed_root``, which raises ModeCutoffError unless every root converged
strictly inside its bracket.  LP01 and HE11 bracket the transverse core
number u below min(V, j01); the FSM lies between n_silica and the first pole
of its characteristic function, found once per geometry.

``chandrupatla``, a vectorised Chandrupatla root finder in plain numpy, is the
one iterative root finder: the mode solvers, ``phasematch.solve_phasematch``'s
sideband refine, ``phasematch.gvm_pump_wavelength`` and ``hom.fit_purity``'s
offset chi call it.  Zero-GVD wavelengths are cubic roots (``PPoly.roots``).

``he11_index_gradient`` gives the derivative of the HE11 index in the two
geometry parameters by implicit differentiation of the HE11 and FSM roots;
the geometry fit builds its exact Jacobian from it.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import i0, i1, j0, j1, jn_zeros, k0, k1, y0, y1

from .constants import SILICA_SELLMEIER, SILICA_VALID_RANGE
from .errors import DomainError, ModeCutoffError

__all__ = [
    "FiberAxisGeometry",
    "FiberSpec",
    "silica_index",
    "cladding_index",
    "lp01_effective_index",
    "unit_cell_radii",
    "CLOSE_PACKED_FILL",
    "fsm_cladding_index_grid",
    "he11_effective_index_grid",
    "he11_index_gradient",
    "chandrupatla",
]

_J0_FIRST_ZERO = float(jn_zeros(0, 1)[0])  # 2.404825...
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny
# As many bisections as there are binades between tiny and max.
_MAX_ITERATIONS = 2046
_PARTIALS_STEP = 1e-7  # relative step of `_char_partials`


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
        if axis == "fast":
            return self.fast_axis
        if axis == "slow":
            return self.slow_axis
        raise ValueError(f"unknown axis {axis!r}")


def silica_index(wavelength):
    """Fused-silica refractive index at vacuum wavelength [m].

    Malitson's Sellmeier fit (constants.SILICA_SELLMEIER); accepts a scalar
    or array; valid for 0.21 um < wavelength < 3.7 um.
    """
    lo, hi = SILICA_VALID_RANGE
    wl = np.asarray(wavelength, dtype=float)
    if np.any(wl <= lo) or np.any(wl >= hi):
        raise DomainError(
            f"wavelength {wavelength} outside Sellmeier validity window "
            f"({lo * 1e6:.2f} um, {hi * 1e6:.2f} um)"
        )
    lam_sq = (wl * 1e6) ** 2
    n = np.sqrt(1.0 + sum(b * lam_sq / (lam_sq - l2) for b, l2 in SILICA_SELLMEIER))
    return float(n) if np.ndim(wavelength) == 0 else n


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
    with np.errstate(invalid="ignore", divide="ignore"):
        w = np.sqrt(v * v - u * u)
        return u * j1(u) / j0(u) - w * k1(w) / k0(w)


def chandrupatla(f, lo, hi, args=(), xatol=4 * _TINY, ends=None):
    """Roots of f(x, *args) in the brackets (lo, hi), elementwise over broadcast arrays.

    Chandrupatla's hybrid of inverse quadratic interpolation and bisection
    (Adv. Eng. Softw. 28, 145 (1997)), stopped where |f| <= tiny or the
    bracket is narrower than xatol + 4 eps |x|.  A stopped element is frozen
    and f is evaluated on the active elements only, so each root is
    independent of the other elements of the call.  Returns (x, ok) in the
    broadcast shape; ok is the checked postcondition: converged, final
    bracket still changes sign, and the root lies strictly inside (lo, hi).
    The root is x where f(x) = 0; otherwise it lies strictly between the
    ends of the final bracket, so x itself may be an end of (lo, hi) when
    the root is within tolerance of it.  ends, when given, are the values
    (f(lo, *args), f(hi, *args)) that f returns at the bracket ends, for a
    caller that already has them; f is then not evaluated there.
    """
    lo, hi, *args = np.broadcast_arrays(lo, hi, *args)
    x1, x2 = lo.astype(float).ravel(), hi.astype(float).ravel()
    args = [a.ravel() for a in args]
    x, ok = np.full(x1.size, np.nan), np.zeros(x1.size, dtype=bool)
    enclosed = np.zeros(x1.size, dtype=bool)  # final bracket f1 f2 < 0
    active, x3, f3 = np.arange(x1.size), None, None
    with np.errstate(all="ignore"):
        if ends is None:
            f1, f2 = f(x1, *args), f(x2, *args)
        else:
            f1, f2 = (np.broadcast_to(e, lo.shape).astype(float).ravel() for e in ends)
        for _ in range(_MAX_ITERATIONS):
            near = np.abs(f1) < np.abs(f2)
            xmin, fmin = np.where(near, x1, x2), np.where(near, f1, f2)
            tol, dx = np.abs(xmin) * (4 * _EPS) + xatol, np.abs(x2 - x1)
            flip = np.sign(f1) * np.sign(f2)
            done = (np.abs(fmin) <= _TINY) | (dx < tol)
            stop = done | ~((flip < 0) & np.isfinite(dx))
            if stop.any() or not stop.size:  # an empty call stops at once
                x[active[stop]] = np.where(done, xmin, np.nan)[stop]
                ok[active[stop]] = (done & (flip <= 0))[stop]
                enclosed[active[stop]] = (flip < 0)[stop]
                if stop.all():
                    break
                keep = ~stop
                active, x1, x2, f1, f2, tol, dx = (
                    v[keep] for v in (active, x1, x2, f1, f2, tol, dx)
                )
                args = [a[keep] for a in args]
                x3, f3 = (None, None) if x3 is None else (x3[keep], f3[keep])
            t = 0.5
            if x3 is not None:  # inverse quadratic step where it stays in bracket
                xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
                alpha = (x3 - x1) / (x2 - x1)
                quad = (1 - np.sqrt(1 - xi) < phi) & (phi < np.sqrt(xi))
                t = np.where(
                    quad,
                    f1 / (f1 - f2) * f3 / (f3 - f2) - alpha * f1 / (f3 - f1) * f2 / (f2 - f3),
                    0.5,
                )
                margin = 0.5 * tol / dx
                t = np.minimum(np.maximum(t, margin), 1 - margin)
            xt = x1 + t * (x2 - x1)
            ft = f(xt, *args)
            same = np.sign(ft) == np.sign(f1)
            x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
            x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
            x1, f1 = xt, ft
    ok &= enclosed | ((lo.ravel() < x) & (x < hi.ravel()))
    return x.reshape(lo.shape), ok.reshape(lo.shape)


def _bracketed_root(char, lo, hi, args, what):
    """Root of char(x, *args) in (lo, hi), elementwise over broadcast arrays.

    Precondition: char is finite at both ends and changes sign across the
    bracket at every element.  `chandrupatla` converges to a few ulp and
    checks its postcondition; raises ModeCutoffError naming `what` where it
    fails.
    """
    x, ok = chandrupatla(char, lo, hi, args)
    if not np.all(ok):
        raise ModeCutoffError(
            f"no {what} root in its bracket at {np.size(ok) - np.count_nonzero(ok)} "
            f"of {np.size(ok)} points"
        )
    return x


def _guided_u_top(v):
    """Top of the fundamental-mode bracket in the transverse core number u.

    The weakly guiding LP01 root and the HE11 root both lie at u < min(V, j01),
    where j01 is the first zero of J0.
    """
    return np.minimum(v, _J0_FIRST_ZERO) * (1.0 - 1e-12)


def lp01_effective_index(wavelength, geometry):
    """Scalar LP01 effective index from the weakly guiding characteristic equation.

    Accepts a scalar or an array of vacuum wavelengths [m] and returns a float
    or an array.  The fundamental root is bracketed analytically in the
    transverse core number, u in (1e-9, min(V, j01)(1 - 1e-12)), inside which
    the characteristic function rises from negative to positive.
    """
    wl = np.asarray(wavelength, dtype=float)
    n_core = silica_index(wl)
    n_clad = cladding_index(wl, geometry.air_filling_fraction)
    v = _v_number(wl, geometry, n_core, n_clad)
    u = _bracketed_root(_char_of_u, 1e-9, _guided_u_top(v), (v,), "LP01")
    ka = np.pi * geometry.core_diameter / wl
    n_eff = np.sqrt(n_core**2 - (u / ka) ** 2)
    return float(n_eff) if np.ndim(wavelength) == 0 else n_eff


# --------------------------------------------------------------------------
# Vector family: unit-cell FSM cladding + exact HE11 core mode.
# --------------------------------------------------------------------------

_SQRT3 = np.sqrt(3.0)
# The air-filling fraction at which the lattice's holes touch (d_hole = pitch).
CLOSE_PACKED_FILL = np.pi / (2.0 * _SQRT3)


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


def _fsm_pole_char(x, rho):
    """Y1(x) J0(rho x) - J1(x) Y0(rho x): the denominator of _fsm_char at ks R = x."""
    return y1(x) * j0(rho * x) - j1(x) * y0(rho * x)


def fsm_cladding_index_grid(wavelengths, geometry):
    """Unit-cell FSM cladding index over an array of wavelengths [m].

    The FSM is the root of _fsm_char nearest n_silica.  Below it in n_eff
    lies the first pole, at ks R = x*, the first zero of _fsm_pole_char;
    x* depends only on rho = r_hole/R and lies in (0, pi/(2(1 - rho)))
    (x*(1 - rho) rises from 0.82 to 1.56 as the fill goes from 0.001 to the
    close-packing limit), so it is solved once per geometry, from x = 1e-6
    where the cross product is large and negative.  The FSM bracket is then
    n_eff in (max(1, sqrt(n_si^2 - (x*/(R k0))^2)) + margin, n_si - margin).
    """
    wl = np.atleast_1d(np.asarray(wavelengths, dtype=float))
    n_si = silica_index(wl)
    k0_ = 2.0 * np.pi / wl
    r_hole, r_cell = unit_cell_radii(geometry)
    rho = r_hole / r_cell
    x_top = 0.5 * np.pi / (1.0 - rho)
    x_pole = float(_bracketed_root(_fsm_pole_char, 1e-6, x_top, (rho,), "FSM pole"))
    margin = 1e-9 * (n_si - 1.0)
    lo = np.sqrt(np.maximum(n_si**2 - (x_pole / (r_cell * k0_)) ** 2, 1.0)) + margin
    return _bracketed_root(
        _fsm_char, lo, n_si - margin, (k0_, n_si, r_hole, r_cell), "space-filling-mode"
    )


def he11_effective_index_grid(wavelengths, geometry):
    """Exact HE11 effective index over an array of wavelengths [m], FSM cladding.

    The fundamental root lies at u < min(V, j01), the LP01 bracket; mapped to
    n_eff and kept a margin inside (n_clad, n_core), the bracket is
    n_eff in (max(sqrt(n_core^2 - (u_top/(a k0))^2), n_clad + margin), n_core - margin).
    """
    wl = np.atleast_1d(np.asarray(wavelengths, dtype=float))
    n_core = silica_index(wl)
    n_clad = fsm_cladding_index_grid(wl, geometry)
    radius = 0.5 * geometry.core_diameter
    k0_ = 2.0 * np.pi / wl
    u_top = _guided_u_top(_v_number(wl, geometry, n_core, n_clad))
    margin = 1e-9 * (n_core - n_clad)
    lo = np.maximum(np.sqrt(n_core**2 - (u_top / (radius * k0_)) ** 2), n_clad + margin)
    return _bracketed_root(
        _he11_char, lo, n_core - margin, (k0_, radius, n_core, n_clad), "HE11"
    )


def _char_partials(char, args, which):
    """Central-difference partials of char(*args) in the arguments at positions `which`.

    The characteristic functions are closed-form Bessel expressions, so a
    relative step of 1e-7 leaves an error near 1e-9 with no root solve.
    """
    partials = []
    for i in which:
        h = _PARTIALS_STEP * np.abs(args[i])
        up, down = list(args), list(args)
        up[i], down[i] = args[i] + h, args[i] - h
        partials.append((char(*up) - char(*down)) / (2.0 * h))
    return partials


def _fsm_index_gradient(wl, geometry):
    """The FSM cladding index at wavelengths wl [m] and its (N, 2) gradient in (d, f).

    The root of G = _fsm_char moves with the unit-cell radii as
    dn_clad = -(G_r dr_hole + G_R dR)/G_n.  Both radii are proportional to d
    at fixed f, and f enters only through d_hole/pitch = sqrt(2 sqrt(3) f/pi).
    """
    d, f = geometry.core_diameter, geometry.air_filling_fraction
    n_si = silica_index(wl)
    n_clad = fsm_cladding_index_grid(wl, geometry)
    r_hole, r_cell = unit_cell_radii(geometry)
    d_rel = np.sqrt(2.0 * _SQRT3 * f / np.pi)
    # d(ln pitch)/df = d(d_rel)/df / (2 - d_rel), with d(d_rel)/df = d_rel/(2f).
    dlog_pitch_df = 0.5 * d_rel / f / (2.0 - d_rel)
    dr_hole = np.array([r_hole / d, r_hole * (0.5 / f + dlog_pitch_df)])
    dr_cell = np.array([r_cell / d, r_cell * dlog_pitch_df])
    g_n, g_r, g_R = _char_partials(
        _fsm_char, (n_clad, 2.0 * np.pi / wl, n_si, r_hole, r_cell), (0, 3, 4)
    )
    return n_clad, -(np.outer(g_r, dr_hole) + np.outer(g_R, dr_cell)) / g_n[:, None]


def he11_index_gradient(wavelengths, geometry, n_eff):
    """d n_eff / d(core_diameter [m], air_filling_fraction) at HE11 roots n_eff.

    Implicit differentiation of the root behind ``he11_effective_index_grid``
    (`n_eff` are its values at `wavelengths`): with F = _he11_char, the root
    moves with the core radius a = d/2 and the FSM cladding index (solved
    again here, at just the wavelengths asked for) as
    dn_eff = -(F_a da + F_nclad dn_clad)/F_n.  Returns an array of shape (N, 2).
    """
    wl = np.atleast_1d(np.asarray(wavelengths, dtype=float))
    n_clad, dn_clad = _fsm_index_gradient(wl, geometry)
    args = (np.asarray(n_eff, dtype=float), 2.0 * np.pi / wl, 0.5 * geometry.core_diameter)
    f_n, f_a, f_clad = _char_partials(
        _he11_char, args + (silica_index(wl), n_clad), (0, 2, 4)
    )
    return -(np.outer(f_a, [0.5, 0.0]) + f_clad[:, None] * dn_clad) / f_n[:, None]
