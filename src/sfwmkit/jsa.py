"""Joint spectral amplitude of the photon pair and its Schmidt decomposition.

The two-photon state emitted by a pulsed SFWM source has amplitude

    f(w_s, w_i) = E(w_s + w_i) * sinc(dk L / 2) * exp(i dk L / 2)

where E is the self-convolution of the (filtered) pump field and dk the phase
mismatch at w_p = (w_s + w_i) / 2.  The spectral purity of a heralded photon
is the inverse Schmidt number of f.  The Schmidt coefficients are the
eigenvalues of the smaller Hermitian Gram matrix of the amplitude sampled on a
uniform rectangular grid (its squared singular values).

Grid placement matters enormously for long fibers, where the sinc ridge is
orders of magnitude narrower than the pump envelope: grids are therefore
built adaptively, tracking the phasematch ridge across the pump bandwidth
and sizing each axis from the local sinc lobe width, clipped to the spectral
support of the pump function.

Every factor of f is elementwise on the (signal x idler) mesh, so the
amplitude is filled block by block of whole signal rows into one array and
normalized in place: a fine grid costs about 1.5 times the amplitude's
memory instead of a dozen or more mesh-sized temporaries, and each element
is the same bits as on the whole mesh.
"""

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh
from scipy.linalg.blas import zherk
from scipy.special import erf

from .constants import C_LIGHT
from .dispersion import Axis, axis_profile
from .errors import GridError
from .material_optics import FiberSpec
from .phasematch import PumpSpec, delta_k, ridge_slopes, solve_phasematch

__all__ = [
    "SpectralGrid",
    "JointSpectralAmplitude",
    "SchmidtResult",
    "pump_function",
    "phasematch_function",
    "adaptive_grid",
    "build_jsa",
    "schmidt_decompose",
]

# Pumps sampled across the pump support to trace the phasematch ridge.
_RIDGE_SAMPLES = 9

# Sinc lobes of padding on each side of the ridge in `adaptive_grid`.
_SIDELOBES = 32

# Mesh points per block of the `build_jsa` fill (16 signal rows at 2048 idler
# columns).  On the paper40cm spectrum at 2048^2 (2-core x86-64, numpy 2.4,
# one BLAS thread) the fill peaks at 96 MiB by tracemalloc, 1.5x the
# amplitude, instead of the whole mesh's 288 MiB, and takes 0.34 s instead
# of 0.50 s (medians of 5).
_BLOCK_POINTS = 2**15


@dataclass(frozen=True, eq=False)
class SpectralGrid:
    """Uniform rectangular (signal x idler) frequency grid [rad/s]."""

    signal_omegas: np.ndarray
    idler_omegas: np.ndarray

    def __post_init__(self):
        for name in ("signal_omegas", "idler_omegas"):
            axis = np.asarray(getattr(self, name), dtype=float)
            if axis.ndim != 1 or len(axis) < 64:
                raise GridError(f"{name} needs at least 64 samples")
            steps = np.diff(axis)
            if np.any(steps <= 0):
                raise GridError(f"{name} must be strictly increasing")
            if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
                raise GridError(f"{name} must be uniformly spaced")
            object.__setattr__(self, name, axis)

    @property
    def signal_spacing(self):
        return float(self.signal_omegas[1] - self.signal_omegas[0])

    @property
    def idler_spacing(self):
        return float(self.idler_omegas[1] - self.idler_omegas[0])


@dataclass(frozen=True, eq=False)
class JointSpectralAmplitude:
    """Normalized joint spectral amplitude sampled on a SpectralGrid.

    amplitude[j, k] = f(signal_omegas[j], idler_omegas[k]), with
    sum |f|^2 dws dwi = 1.
    """

    grid: SpectralGrid
    amplitude: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitude)
        expected = (len(self.grid.signal_omegas), len(self.grid.idler_omegas))
        if amp.shape != expected:
            raise GridError(f"amplitude shape {amp.shape} != grid shape {expected}")
        total = _norm_sq(amp, self.grid)
        if not np.isclose(total, 1.0, rtol=1e-10, atol=1e-10):
            raise ValueError(f"amplitude is not normalized (integral {total})")
        object.__setattr__(self, "amplitude", amp)


@dataclass(frozen=True)
class SchmidtResult:
    """Schmidt spectrum of a joint amplitude and the scalars derived from it."""

    coefficients: tuple  # descending, sums to 1
    purity: float  # sum lambda_n^2
    entropy: float  # -sum lambda_n log2 lambda_n

    def __post_init__(self):
        lam = np.asarray(self.coefficients)
        if abs(lam.sum() - 1.0) > 1e-10:
            raise ValueError("Schmidt coefficients must sum to 1")
        if not 0.0 < self.purity <= 1.0 + 1e-12:
            raise ValueError(f"purity {self.purity} outside (0, 1]")

    @property
    def schmidt_number(self):
        return 1.0 / self.purity


def pump_function(omega_sum, pump: PumpSpec):
    """Self-convolution of the pump field, E(w+) = int A(w) A(w+ - w) dw.

    This is the two-pump-photon spectral weight entering the joint amplitude
    at w+ = w_s + w_i; unnormalized.  With A a Gaussian of amplitude width
    sigma about w_c on the support [lo, hi] (`PumpSpec.field_support`), the
    integrand is supported on the overlap of the two windows, which is
    symmetric about w+/2 with half-width

        h = max(0, min(w+/2 - lo, hi - w+/2)),

    and integrates in closed form to

        E(w+) = exp(-(w+ - 2 w_c)^2 / (4 sigma^2)) * sigma sqrt(pi) * erf(h / sigma),

    which is exactly 0 where the windows do not overlap (h = 0).
    """
    lo, hi = pump.field_support
    sigma = pump.sigma_omega
    om = np.asarray(omega_sum, dtype=float)
    half = 0.5 * om
    h = np.maximum(0.0, np.minimum(half - lo, hi - half))
    value = (
        np.exp(-((om - 2.0 * pump.center_omega) ** 2) / (4.0 * sigma**2))
        * (sigma * np.sqrt(np.pi))
        * erf(h / sigma)
    )
    return float(value) if np.ndim(omega_sum) == 0 else value


def phasematch_function(omega_s, omega_i, fiber: FiberSpec, peak_power=0.0):
    """sinc(dk L / 2) exp(i dk L / 2): the phasematch factor with its propagation phase.

    With a = dk L / 2 this is (sin a / a) cos a + i (sin a / a) sin a, and 1
    where a = 0.
    """
    omega_p = 0.5 * (np.asarray(omega_s, dtype=float) + np.asarray(omega_i, dtype=float))
    arg = np.asarray(0.5 * fiber.length * delta_k(omega_p, omega_s, omega_i, fiber, peak_power))
    sin = np.sin(arg)
    ratio = np.divide(sin, arg, out=np.ones_like(arg), where=arg != 0)
    return ratio * np.cos(arg) + 1j * (ratio * sin)


@functools.lru_cache(maxsize=32)
def _ridge(pump: PumpSpec, fiber: FiberSpec):
    """Phasematch ridge across the pump band, which does not depend on the length.

    Solves `_RIDGE_SAMPLES` pumps spanning the pump support in one
    `solve_phasematch` call, at the pump's peak power, and returns the
    read-only arrays (omega_s, omega_i, slope_s, slope_i) of `ridge_slopes`
    at the phasematched pairs, with dn taken at each pair's own pump.
    Memoized, so the purity gate's grids at n and 2n and every length of a
    scan share one ridge: callers pass the fiber with its length set to 1 m.
    """
    e_lo, e_hi = pump.field_support
    omega_p = np.linspace(e_lo, e_hi, _RIDGE_SAMPLES)
    points = solve_phasematch(2.0 * np.pi * C_LIGHT / omega_p, fiber, pump.peak_power)
    ridge = ridge_slopes(points, fiber)[1:]
    found = ~np.isnan(ridge[0])
    if not found.any():
        raise GridError(
            "no phasematched ridge anywhere in the pump band; cannot place grid"
        )
    ridge = tuple(array[found] for array in ridge)
    for array in ridge:
        array.setflags(write=False)
    return ridge


def adaptive_grid(pump: PumpSpec, fiber: FiberSpec, n_signal=256, n_idler=256):
    """Spectral grid that tracks the phasematch ridge across the pump band.

    For a handful of pump frequencies spanning the pump support the
    phasematched (signal, idler) pair and the local dk slopes are computed
    (once per pump and fiber geometry, whatever the length; see `_ridge`);
    each axis covers the union of the ridge points padded by `_SIDELOBES`
    (32) sinc lobes at the local slope, then is clipped to the support of the
    pump function (w_s + w_i within twice the pump support) and to the
    dispersion profile band.
    """
    omega_s, omega_i, slope_s, slope_i = _ridge(pump, dataclasses.replace(fiber, length=1.0))
    lobe = 2.0 * np.pi * _SIDELOBES / fiber.length
    with np.errstate(over="ignore"):  # an infinite reach is clipped below
        reach_s = lobe / np.maximum(np.abs(slope_s), 1e-18)
        reach_i = lobe / np.maximum(np.abs(slope_i), 1e-18)
    s_lo, s_hi = float(np.min(omega_s - reach_s)), float(np.max(omega_s + reach_s))
    i_lo, i_hi = float(np.min(omega_i - reach_i)), float(np.max(omega_i + reach_i))

    # Clip to where the pump function is nonzero: w_s + w_i in [2 e_lo, 2 e_hi].
    e_lo, e_hi = pump.field_support
    s_lo = max(s_lo, 2.0 * e_lo - i_hi)
    s_hi = min(s_hi, 2.0 * e_hi - i_lo)
    i_lo = max(i_lo, 2.0 * e_lo - s_hi)
    i_hi = min(i_hi, 2.0 * e_hi - s_lo)

    # Clip to the dispersion band.
    band_lo, band_hi = axis_profile(fiber, Axis.FAST).span
    s_lo, s_hi = max(s_lo, band_lo), min(s_hi, band_hi)
    i_lo, i_hi = max(i_lo, band_lo), min(i_hi, band_hi)
    if s_hi <= s_lo or i_hi <= i_lo:
        raise GridError("adaptive grid collapsed; ridge outside usable band")

    return SpectralGrid(
        signal_omegas=np.linspace(s_lo, s_hi, n_signal),
        idler_omegas=np.linspace(i_lo, i_hi, n_idler),
    )


def _norm_sq(amplitude, grid):
    """sum |f|^2 dws dwi through one real temporary.

    Squaring |f| in place and summing the whole array at once gives the same
    bits as np.sum(np.abs(f) ** 2): the same values in the same pairwise order.
    """
    weight = np.abs(amplitude)
    return np.sum(np.square(weight, out=weight)) * grid.signal_spacing * grid.idler_spacing


def build_jsa(pump: PumpSpec, fiber: FiberSpec, grid: SpectralGrid):
    """Normalized joint spectral amplitude on `grid` (see `adaptive_grid`).

    The phase mismatch includes the nonlinear term of the pump's
    `peak_power`.  The amplitude is allocated once and filled in blocks of
    whole signal rows of about `_BLOCK_POINTS` mesh points, each the product
    of `pump_function` and `phasematch_function` on its own (rows x n_idler)
    mesh, so the fill's temporaries are block-sized; it is then normalized in
    place.  Every element is the same elementwise expression as on the whole
    mesh, so the amplitude does not depend on the block size, bit for bit.
    """
    # Signal along axis 0, idler along axis 1; only the pump term needs the
    # block's 2-D mesh, so k(omega_s) and k(omega_i) are evaluated per axis.
    omega_s = grid.signal_omegas[:, None]
    omega_i = grid.idler_omegas[None, :]
    amplitude = np.empty((omega_s.shape[0], omega_i.shape[1]), dtype=complex)
    rows = max(1, _BLOCK_POINTS // omega_i.shape[1])
    for start in range(0, omega_s.shape[0], rows):
        block = omega_s[start : start + rows]
        envelope = pump_function(block + omega_i, pump)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
            np.multiply(
                envelope,
                phasematch_function(block, omega_i, fiber, pump.peak_power),
                out=amplitude[start : start + rows],
            )
    norm_sq = _norm_sq(amplitude, grid)
    if not np.isfinite(norm_sq):
        raise GridError(f"dk L / 2 overflows on the grid at length {fiber.length:g} m")
    if norm_sq == 0.0:
        raise GridError("grid misplaced: the joint amplitude vanishes on the grid")
    amplitude /= np.sqrt(norm_sq)
    return JointSpectralAmplitude(grid=grid, amplitude=amplitude)


def schmidt_decompose(jsa: JointSpectralAmplitude):
    """Schmidt spectrum of the joint amplitude from its Hermitian Gram matrix.

    The squared singular values s_n^2 of the sampled m x n amplitude X are
    the eigenvalues of its smaller Gram matrix, conj(X^H X) if m >= n and
    conj(X X^H) otherwise: min(m, n) of them.  One BLAS herk on the
    Fortran-ordered view X^T forms one triangle of it without a copy, and a
    divide-and-conquer Hermitian eigensolver returns its eigenvalues.  They
    give coefficients lambda_n = s_n^2 dws dwi, which sum to 1 exactly by the
    normalization of the amplitude; purity = sum lambda_n^2, Schmidt number
    its inverse, and entanglement entropy -sum lambda_n log2 lambda_n.

    A Gram matrix is positive semidefinite, so an eigenvalue below
    -1e-12 times the largest is not rounding and raises ArithmeticError;
    smaller negatives are rounding and are clipped to 0.
    """
    amp = np.asarray(jsa.amplitude, dtype=complex)
    gram = zherk(1.0, amp.T, trans=0 if amp.shape[0] >= amp.shape[1] else 2, lower=1)
    eigenvalues = eigvalsh(gram, lower=True, overwrite_a=True, driver="evd")[::-1]
    if eigenvalues[-1] < -1e-12 * eigenvalues[0]:
        raise ArithmeticError(
            f"Gram matrix eigenvalue {eigenvalues[-1]:.3e} below -1e-12 of the "
            f"largest {eigenvalues[0]:.3e}: not positive semidefinite"
        )
    lam = np.maximum(eigenvalues, 0.0) * jsa.grid.signal_spacing * jsa.grid.idler_spacing
    lam = lam / lam.sum()
    purity = float(np.sum(lam**2))
    positive = lam[lam > 0]
    entropy = float(-np.sum(positive * np.log2(positive)))
    return SchmidtResult(
        coefficients=tuple(float(x) for x in lam),
        purity=purity,
        entropy=entropy,
    )

