"""Hong-Ou-Mandel interference between heralded photons from two sources.

When two independently heralded photons interfere on a beam splitter, the
coincidence probability as a function of the relative polarization angle
theta traces

    P4(theta) = 1/2 [ (1 - p) + (1 + p) cos^2(2 chi) cos^2(2 theta) ]

where p = Tr[rho_H rho_V] is the overlap of the two heralded single-photon
density matrices (the interference visibility ceiling) and chi absorbs a
fixed polarization offset of the analyzer.  Measured four-fold rates are
converted to this probability through the accidental-coincidence
normalization

    P4 = N4 (1 + cos^2(2 chi) cos^2(2 theta)) r d
         / (2 [N_AB N_CD + N_AD N_BC]),

with N the raw counts accumulated for duration d at pulse rate r.  At a
fixed normalization offset the model is linear in (1 - p)/2 and
(1 + p) cos^2(2 chi)/2, so the fit there is a closed-form weighted linear
least-squares fit; the self-consistent chi, at which the fit returns the
offset the data were normalized with, is one bracketed root.
"""

import warnings
from collections import namedtuple
from dataclasses import dataclass, fields

import numpy as np

from .errors import FitError
from .jsa import JointSpectralAmplitude
from .material_optics import chandrupatla

__all__ = [
    "HomModelParams",
    "HomDataset",
    "HomFitResult",
    "heralded_density_matrix",
    "overlap_p",
    "four_fold_probability",
    "fit_purity",
    "simulate_counts",
]


@dataclass(frozen=True)
class HomModelParams:
    """Interference model parameters: overlap p in [0, 1], finite offset chi [rad]."""

    p: float
    chi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p}")
        if not np.isfinite(self.chi):
            raise ValueError(f"chi must be finite, got {self.chi!r}")


@dataclass(frozen=True, eq=False)
class HomDataset:
    """Raw four-detector counting data, one row per analyzer angle.

    theta in radians; counts are raw (not rates) and >= 0; duration per row
    in seconds and > 0; repetition_rate in Hz and > 0; every value finite.
    """

    theta: np.ndarray
    four_fold: np.ndarray  # N_ABCD
    two_fold_ab: np.ndarray
    two_fold_cd: np.ndarray
    two_fold_ad: np.ndarray
    two_fold_bc: np.ndarray
    duration: np.ndarray  # [s]
    repetition_rate: float  # [Hz]

    def __post_init__(self):
        columns = [spec.name for spec in fields(self) if spec.type is np.ndarray]
        arrays = [np.asarray(getattr(self, name), dtype=float) for name in columns]
        if len({len(arr) for arr in arrays}) != 1:
            raise ValueError("all dataset columns must have equal length")
        for name, arr in zip(columns, arrays):
            if name == "theta":
                rule, ok = "finite", np.isfinite(arr)
            elif name == "duration":
                rule, ok = "finite and > 0", np.isfinite(arr) & (arr > 0)
            else:
                rule, ok = "finite and >= 0", np.isfinite(arr) & (arr >= 0)
            if not np.all(ok):
                raise ValueError(f"{name} must be {rule}, got {float(arr[~ok][0])!r}")
            object.__setattr__(self, name, arr)
        rate = self.repetition_rate
        if not (np.isfinite(rate) and rate > 0):
            raise ValueError(f"repetition_rate must be finite and > 0, got {rate!r}")


@dataclass(frozen=True)
class HomFitResult:
    p: float
    sigma_p: float
    chi: float
    sigma_chi: float
    chi2_reduced: float
    n_iterations: int
    p_at_boundary: bool


def heralded_density_matrix(jsa: JointSpectralAmplitude):
    """Reduced density matrix of the heralded (idler) photon.

    rho(w_i, w_i') = sum_s f(w_s, w_i) conj(f(w_s, w_i')) dws, renormalized
    to unit trace under the idler measure, sum_i rho_ii dwi = 1 (dws cancels).
    """
    f = jsa.amplitude
    return (f.T @ f.conj()) / (np.vdot(f, f).real * jsa.grid.idler_spacing)


def overlap_p(jsa_h: JointSpectralAmplitude, jsa_v: JointSpectralAmplitude):
    """Heralded-state overlap p = Tr[rho_H rho_V] of two sources.

    The amplitudes A, B must share the idler axis; spacings and traces cancel to
    p = ||conj(A) B^T||_F^2 / (||A||_F^2 ||B||_F^2); overlap_p(jsa, jsa) is its purity.
    """
    gh, gv = jsa_h.grid, jsa_v.grid
    if len(gh.idler_omegas) != len(gv.idler_omegas) or not np.allclose(
        gh.idler_omegas, gv.idler_omegas, rtol=1e-12, atol=0.0
    ):
        raise ValueError("overlap requires identical idler axes")
    a, b = jsa_h.amplitude, jsa_v.amplitude
    cross = a.conj() @ b.T
    return float(np.vdot(cross, cross).real / (np.vdot(a, a).real * np.vdot(b, b).real))


def four_fold_probability(theta, params: HomModelParams):
    """Model four-fold probability P4(theta); scalar or array theta [rad]."""
    cc = np.cos(2.0 * params.chi) ** 2 * np.cos(2.0 * np.asarray(theta)) ** 2
    value = 0.5 * ((1.0 - params.p) + (1.0 + params.p) * cc)
    return float(value) if np.ndim(theta) == 0 else value


def _normalize(data: HomDataset, chi, kept):
    """Normalized P4 at chi, its Poisson sigma, P4 / N4 and cos^2(2 theta) of the `kept` rows.

    The sigma of a row with zero four-fold counts is zero here; `_fit_at`
    replaces it with a model-based estimate.
    """
    n4 = data.four_fold[kept]
    nab, ncd = data.two_fold_ab[kept], data.two_fold_cd[kept]
    nad, nbc = data.two_fold_ad[kept], data.two_fold_bc[kept]
    d = nab * ncd + nad * nbc  # the accidental denominator
    rd = data.repetition_rate * data.duration[kept]
    x = np.cos(2.0 * data.theta[kept]) ** 2
    scale = (1.0 + np.cos(2.0 * chi) ** 2 * x) * rd / (2.0 * d)
    p4 = n4 * scale
    # Poisson error propagation at first order: var(N) = N for every counter.
    var = (scale**2) * n4 + (p4 / d) ** 2 * (
        ncd**2 * nab + nab**2 * ncd + nbc**2 * nad + nad**2 * nbc
    )
    return p4, np.sqrt(var), scale, x


# Corners of the (a0, a1) polygon where p and cos^2(2 chi) lie in [0, 1]; on
# the edge from (0, 1) to (1/2, 1/2), cos^2(2 chi) = a1 / (1 - a0) is 1 exactly.
_CORNERS = np.array([[0.0, 1.0], [0.5, 0.5], [0.5, 0.0], [0.0, 0.0]])
# The fit at one normalization offset: the fitted p, c = cos^2(2 chi) and chi;
# x = cos^2(2 theta) of the kept rows; sigma from the model where N4 = 0.
_Fit = namedtuple("_Fit", "p c chi x p4 sigma")


def _fit_at(data: HomDataset, chi, kept):
    """Weighted fit of P4 = a0 + a1 cos^2(2 theta) to the data normalized at chi.

    a0 = (1 - p)/2 and a1 = (1 + p) cos^2(2 chi)/2 solve the 2x2 normal
    equations, or, where that solution leaves the polygon, give the least of
    its four clipped edge minima.  A row with zero four-fold counts has sigma^2
    = scale P4 at the fitted point, so it adds [1, x] / scale to the equations.
    """
    p4, sigma, scale, x = _normalize(data, chi, kept)
    if len(x) < 3:
        raise FitError("fewer than 3 usable rows after exclusion")
    empty = data.four_fold[kept] == 0
    basis = np.stack([np.ones_like(x), x])
    weighted = basis[:, ~empty] / sigma[~empty] ** 2
    hess = weighted @ basis[:, ~empty].T
    grad = weighted @ p4[~empty] - basis[:, empty] @ (1.0 / scale[empty])
    det = hess[0, 0] * hess[1, 1] - hess[0, 1] ** 2
    if not det > 1e-12 * hess[0, 0] * hess[1, 1]:
        raise FitError(f"singular normal equations at chi = {chi!r}")
    a = np.array([[hess[1, 1], -hess[0, 1]], [-hess[0, 1], hess[0, 0]]]) @ grad / det
    if not (0.0 <= a[0] <= 0.5 and 0.0 <= a[1] <= 1.0 - a[0]):
        edges = []
        for start, end in zip(_CORNERS, np.roll(_CORNERS, -1, axis=0)):
            d = end - start
            t = np.clip((grad - hess @ start) @ d / (d @ hess @ d), 0.0, 1.0)
            edges.append(start + t * d)
        a = min(edges, key=lambda a: 0.5 * a @ hess @ a - grad @ a)
    c = min(a[1] / (1.0 - a[0]), 1.0)
    sigma = np.where(empty, np.sqrt(scale * (a[0] + a[1] * x)), sigma)
    return _Fit(1.0 - 2.0 * a[0], c, 0.5 * np.arccos(np.sqrt(c)), x, p4, sigma)


def fit_purity(data: HomDataset):
    """Fit (p, chi) to a HOM dataset with the self-consistent normalization.

    The fit at normalization offset chi (`_fit_at`) returns a fitted offset
    F(chi) in [0, pi/4], so chi - F(chi) changes sign on [0, pi/4].  chi is an
    end of that bracket where F fixes it, else F at the root `chandrupatla`
    finds; only cos^2(2 chi) is observable, so chi >= 0.  Uncertainties are
    absolute, from the inverse Gauss-Newton Hessian in (p, cos^2 2chi), so
    sigma_chi is inf at chi = 0.  n_iterations counts the fits at fixed chi;
    p_at_boundary flags p within 1e-9 of 0 or 1.  Rows whose accidental
    denominator N_AB N_CD + N_AD N_BC is zero cannot be normalized; they are
    left out, with one warning.
    """
    kept = data.two_fold_ab * data.two_fold_cd + data.two_fold_ad * data.two_fold_bc > 0
    if not np.all(kept):
        warnings.warn(
            f"excluding {int(np.sum(~kept))} rows with zero two-fold coincidences", stacklevel=2
        )
    fits = []

    def fit_at(chi):
        fits.append(_fit_at(data, chi, kept))
        return fits[-1].chi

    f_lo = 0.0 - fit_at(0.0)
    if f_lo < 0.0 and (f_hi := np.pi / 4 - fit_at(np.pi / 4)) > 0.0:
        root, ok = chandrupatla(
            lambda x: x - [fit_at(v) for v in x], 0.0, np.pi / 4, xatol=1e-12, ends=(f_lo, f_hi)
        )
        if not ok:
            raise FitError("no self-consistent chi in [0, pi/4]")
        fit_at(float(root))
    p, c, chi, x, p4, sigma = fits[-1]
    if np.any(sigma <= 0):
        raise FitError("nonpositive sigma; cannot weight residuals")
    residuals = (0.5 * ((1.0 - p) + (1.0 + p) * c * x) - p4) / sigma
    jac = np.stack([(c * x - 1.0) / 2.0, (1.0 + p) * x / 2.0], axis=1) / sigma[:, None]
    # jac is [1, x] / sigma times an invertible 2x2 matrix, and `_fit_at` has
    # rejected singular normal equations in [1, x].
    cov = np.linalg.inv(jac.T @ jac)
    with np.errstate(divide="ignore"):
        sigma_chi = np.sqrt(cov[1, 1]) / abs(2.0 * np.sin(4.0 * chi))
    return HomFitResult(
        p=float(p),
        sigma_p=float(np.sqrt(cov[0, 0])),
        chi=float(chi),
        sigma_chi=float(sigma_chi),
        chi2_reduced=float(residuals @ residuals / max(len(x) - 2, 1)),
        n_iterations=len(fits),
        p_at_boundary=bool(p <= 1e-9 or p >= 1.0 - 1e-9),
    )


# numpy's largest Poisson mean: Generator.poisson raises "lam value too large"
# above the int64 maximum less ten of its square roots (9.2234e18).
_POISSON_LAM_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)


def simulate_counts(
    params: HomModelParams,
    thetas,
    two_fold_mean,
    duration,
    repetition_rate,
    seed=0,
    noiseless=False,
):
    """Synthetic HomDataset drawn from the interference model.

    two_fold_mean is the expected count per accumulation window for each of
    the four two-fold coincidence counters.  The four-fold mean follows by
    inverting the normalization at the expected two-fold counts, so a fit of
    the simulated data recovers (p, chi) up to shot noise; noiseless=True
    skips the Poisson sampling and stores exact means.  two_fold_mean,
    duration [s] and repetition_rate [Hz] must be finite and > 0, and every
    theta [rad] finite; a ValueError names the first that is not.  The
    two-fold and four-fold means must lie below numpy's largest Poisson mean,
    `_POISSON_LAM_MAX`, with or without noise; a ValueError names the
    arguments behind a mean that does not, before any draw.
    """
    theta = np.asarray(thetas, dtype=float)
    for name, value in (
        ("two_fold_mean", two_fold_mean),
        ("duration", duration),
        ("repetition_rate", repetition_rate),
    ):
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {float(value)!r}")
    if not np.all(np.isfinite(theta)):
        raise ValueError(f"thetas must be finite, got {float(theta[~np.isfinite(theta)][0])!r}")
    n_rows = len(theta)
    rng = np.random.default_rng(seed)
    rd = repetition_rate * duration
    cc = np.cos(2.0 * params.chi) ** 2 * np.cos(2.0 * theta) ** 2
    mean_two = float(two_fold_mean)
    if not mean_two < _POISSON_LAM_MAX:
        raise ValueError(
            f"two_fold_mean must be below {_POISSON_LAM_MAX:.5g}, numpy's largest "
            f"Poisson mean, got {mean_two!r}"
        )
    denominator = 2.0 * mean_two**2  # N_AB N_CD + N_AD N_BC at the means
    with np.errstate(over="ignore", divide="ignore"):  # an unusable mean is named below
        mean_four = (
            four_fold_probability(theta, params)
            * 2.0
            * denominator
            / ((1.0 + cc) * rd)
        )
    if not np.all(mean_four < _POISSON_LAM_MAX):
        raise ValueError(
            f"two_fold_mean {mean_two!r}, duration {float(duration)!r} and "
            f"repetition_rate {float(repetition_rate)!r} give a four-fold Poisson mean "
            f"of {float(np.max(mean_four))!r}, not below {_POISSON_LAM_MAX:.5g}"
        )
    if noiseless:
        two = [np.full(n_rows, mean_two) for _ in range(4)]
        four = mean_four
    else:
        two = [rng.poisson(mean_two, size=n_rows).astype(float) for _ in range(4)]
        four = rng.poisson(mean_four).astype(float)
    return HomDataset(
        theta=theta,
        four_fold=four,
        two_fold_ab=two[0],
        two_fold_cd=two[1],
        two_fold_ad=two[2],
        two_fold_bc=two[3],
        duration=np.full(n_rows, float(duration)),
        repetition_rate=float(repetition_rate),
    )
