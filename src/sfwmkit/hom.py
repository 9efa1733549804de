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

with N the raw counts accumulated for duration d at pulse rate r.  Because
the normalization itself depends on chi, fitting alternates normalization
and weighted least squares until chi stops moving.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .errors import FitError
from .jsa import JointSpectralAmplitude

__all__ = [
    "HomModelParams",
    "HomDataset",
    "HomFitResult",
    "heralded_density_matrix",
    "overlap_p",
    "four_fold_probability",
    "normalize_dataset",
    "fit_purity",
    "simulate_counts",
]


@dataclass(frozen=True)
class HomModelParams:
    """Interference model parameters: overlap p in [0, 1], offset chi [rad]."""

    p: float
    chi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p}")


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
        columns = (
            "theta",
            "four_fold",
            "two_fold_ab",
            "two_fold_cd",
            "two_fold_ad",
            "two_fold_bc",
            "duration",
        )
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

    def __len__(self):
        return len(self.theta)


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
    to unit trace under the idler measure (Tr = sum_i rho_ii dwi = 1).
    """
    f = jsa.amplitude
    rho = (f.T @ f.conj()) * jsa.grid.signal_spacing
    trace = np.trace(rho).real * jsa.grid.idler_spacing
    return rho / trace


def overlap_p(jsa_h: JointSpectralAmplitude, jsa_v: JointSpectralAmplitude):
    """Heralded-state overlap p = Tr[rho_H rho_V] of two sources.

    Both amplitudes must be sampled on the same idler axis.  overlap_p(jsa, jsa)
    is Tr[rho^2], the Schmidt purity of jsa.
    """
    gh, gv = jsa_h.grid, jsa_v.grid
    if len(gh.idler_omegas) != len(gv.idler_omegas) or not np.allclose(
        gh.idler_omegas, gv.idler_omegas, rtol=1e-12, atol=0.0
    ):
        raise ValueError("overlap requires identical idler axes")
    rho_h = heralded_density_matrix(jsa_h)
    rho_v = heralded_density_matrix(jsa_v)
    return float(np.real(np.sum(rho_h * rho_v.T)) * gh.idler_spacing**2)


def _p4_model(theta, p, chi):
    cc = np.cos(2.0 * chi) ** 2 * np.cos(2.0 * np.asarray(theta)) ** 2
    return 0.5 * ((1.0 - p) + (1.0 + p) * cc)


def four_fold_probability(theta, params: HomModelParams):
    """Model four-fold probability P4(theta); scalar or array theta [rad]."""
    value = _p4_model(theta, params.p, params.chi)
    return float(value) if np.ndim(theta) == 0 else value


def _accidental_denominator(data: HomDataset):
    return data.two_fold_ab * data.two_fold_cd + data.two_fold_ad * data.two_fold_bc


def _scale(data: HomDataset, kept, chi):
    """P4 / N4 of the kept rows at offset chi: the normalization of the counts."""
    denom = _accidental_denominator(data)[kept]
    rd = data.repetition_rate * data.duration[kept]
    cc = np.cos(2.0 * chi) ** 2 * np.cos(2.0 * data.theta[kept]) ** 2
    return (1.0 + cc) * rd / (2.0 * denom)


def normalize_dataset(data: HomDataset, chi=0.0):
    """Normalized four-fold probabilities and first-order Poisson sigmas.

    Returns (theta, P4, sigma, kept_mask).  Rows whose accidental
    denominator N_AB N_CD + N_AD N_BC is zero cannot be normalized and are
    excluded (with a warning); kept_mask marks surviving rows.  The sigma of
    a row with zero four-fold counts is zero here -- fitting replaces it
    with a model-based estimate.
    """
    denom = _accidental_denominator(data)
    kept = denom > 0
    if not np.all(kept):
        warnings.warn(
            f"excluding {int(np.sum(~kept))} rows with zero two-fold coincidences",
            stacklevel=2,
        )
    theta = data.theta[kept]
    n4 = data.four_fold[kept]
    nab, ncd = data.two_fold_ab[kept], data.two_fold_cd[kept]
    nad, nbc = data.two_fold_ad[kept], data.two_fold_bc[kept]
    d = denom[kept]
    scale = _scale(data, kept, chi)
    p4 = n4 * scale
    # Poisson error propagation at first order: var(N) = N for every counter.
    with np.errstate(invalid="ignore", divide="ignore"):
        var = (scale**2) * n4 + np.where(
            n4 > 0,
            (p4 / d) ** 2 * (ncd**2 * nab + nab**2 * ncd + nbc**2 * nad + nad**2 * nbc),
            0.0,
        )
    return theta, p4, np.sqrt(var), kept


def fit_purity(data: HomDataset, max_outer=100):
    """Fit (p, chi) to a HOM dataset, alternating normalization and fitting.

    Starts from (p, chi) = (0.8, 0), normalizes the data at that chi, runs a
    weighted least-squares fit of P4(theta; p, chi), and repeats with the
    fitted chi until it moves by less than 1e-8 rad (at most `max_outer`
    rounds).  The sigma of a row with zero four-fold counts comes from the
    model's mean count at the current (p, chi).  Uncertainties are absolute,
    from the inverse Gauss-Newton Hessian of the weighted residuals.  p is
    clipped to [0, 1]; p_at_boundary flags a clipped fit.
    """
    chi = 0.0
    params = HomModelParams(p=0.8, chi=chi)
    solution = None
    for outer in range(1, max_outer + 1):
        theta, p4, sigma, kept = normalize_dataset(data, chi)
        if len(theta) < 3:
            raise FitError("fewer than 3 usable rows after exclusion")
        empty = data.four_fold[kept] == 0
        if np.any(empty):
            scale = _scale(data, kept, chi)
            mean_n4 = four_fold_probability(theta, params) / scale
            sigma = sigma.copy()
            sigma[empty] = np.sqrt(scale**2 * mean_n4)[empty]
        if np.any(sigma <= 0):
            raise FitError("nonpositive sigma; cannot weight residuals")

        def residuals(x):
            return (_p4_model(theta, x[0], x[1]) - p4) / sigma

        fit = least_squares(
            residuals,
            x0=[params.p, chi],
            bounds=([0.0, -np.pi / 4], [1.0, np.pi / 4]),
            xtol=1e-14,
            ftol=1e-14,
            gtol=1e-14,
        )
        if not fit.success:
            raise FitError(f"least squares failed: {fit.message}")
        new_p, new_chi = fit.x
        params = HomModelParams(p=new_p, chi=new_chi)
        solution = (fit, theta, sigma)
        if abs(new_chi - chi) < 1e-8:
            chi = new_chi
            break
        chi = new_chi
    else:
        raise FitError(f"chi did not converge within {max_outer} normalization rounds")

    fit, theta, sigma = solution
    dof = max(len(theta) - 2, 1)
    chi2_reduced = float(2.0 * fit.cost / dof)
    jac = fit.jac
    try:
        cov = np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError as exc:
        raise FitError(f"singular Hessian at the solution: {exc}") from exc
    sigma_p, sigma_chi = np.sqrt(np.diag(cov))
    # Trust-region solvers stop epsilon inside the box; treat that as pinned.
    at_boundary = bool(params.p <= 1e-9 or params.p >= 1.0 - 1e-9)
    return HomFitResult(
        p=float(params.p),
        sigma_p=float(sigma_p),
        chi=float(params.chi),
        sigma_chi=float(sigma_chi),
        chi2_reduced=chi2_reduced,
        n_iterations=outer,
        p_at_boundary=at_boundary,
    )


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
    skips the Poisson sampling and stores exact means.
    """
    theta = np.asarray(thetas, dtype=float)
    n_rows = len(theta)
    rng = np.random.default_rng(seed)
    rd = repetition_rate * duration
    cc = np.cos(2.0 * params.chi) ** 2 * np.cos(2.0 * theta) ** 2
    mean_two = float(two_fold_mean)
    denominator = 2.0 * mean_two**2  # N_AB N_CD + N_AD N_BC at the means
    mean_four = (
        four_fold_probability(theta, params)
        * 2.0
        * denominator
        / ((1.0 + cc) * rd)
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
