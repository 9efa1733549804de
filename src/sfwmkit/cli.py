"""Command-line interface: reproducible pipelines over the library.

Every subcommand reads a strict JSON configuration (unknown keys are
rejected, with the offending key path named), runs one computation, and
writes CSV or JSON to --out or standard output.  All numbers are serialized
with 12 significant digits, with three exceptions: `gvm` rounds its
wavelength to 1e-3 nm, `fit-fiber` prints the geometry to 6 significant
digits and `purity` rounds `purity_drift` to 1e-12.  Runs are fully
deterministic, so identical config and arguments give byte-identical output.
"""

import argparse
import contextlib
import dataclasses
import importlib.resources
import json
import math
import sys
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT
from .dispersion import (
    Axis,
    axis_profile,
    gvd,
    inverse_group_velocity,
    wavevector,
)
from .errors import ConfigError, SfwmkitError
from .fiber_fit import fit_geometry, load_measurements, read_csv
from .hom import HomDataset, HomModelParams, fit_purity, simulate_counts
from .jsa import adaptive_grid, build_jsa, schmidt_decompose
from .material_optics import FiberAxisGeometry, FiberSpec
from .phasematch import (
    PumpSpec,
    gvm_pump_wavelength,
    phasematch_curve,
    ridge_slopes,
)

__all__ = ["main", "load_config", "RunConfig"]


def _fmt(value):
    """Serialize one number with 12 significant digits."""
    return f"{float(value):.12g}"


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    fiber: FiberSpec
    pump: PumpSpec
    n_signal: int
    n_idler: int


# A number in the config: the dataclass field it fills, its factor to SI units
# or an integer's (default, minimum, maximum), and whether it is required.
_Key = namedtuple("_Key", "field scale required", defaults=(1.0, False))


class _Section:
    """An object in the config: the dataclass it builds, for the enclosing
    one's field of the section's name, and its keys.  A section without a
    dataclass may be absent, and its keys fill the enclosing dataclass."""

    def __init__(self, build, **keys):
        self.build, self.keys = build, keys


_AXIS = _Section(
    FiberAxisGeometry,
    core_diameter_um=_Key("core_diameter", 1e-6, required=True),
    air_filling_fraction=_Key("air_filling_fraction", required=True),
)
# The config's schema, shaped like the document, in the order its keys are
# checked.
_SCHEMA = _Section(
    RunConfig,
    fiber=_Section(
        FiberSpec,
        fast_axis=_AXIS,
        slow_axis=_AXIS,
        gamma_per_w_km=_Key("gamma", required=True),
        length_m=_Key("length", required=True),
        birefringence_override=_Key("birefringence_override"),
    ),
    pump=_Section(
        PumpSpec,
        center_wavelength_nm=_Key("center_wavelength", 1e-9, required=True),
        gaussian_fwhm_nm=_Key("gaussian_fwhm", 1e-9, required=True),
        filter_width_nm=_Key("filter_width", 1e-9),
        peak_power_w=_Key("peak_power"),
    ),
    # A spectral grid axis needs at least 64 samples; `purity` doubles the
    # grid, and 4096^2 complex amplitudes already take 268 MB.
    grid=_Section(
        None, n_signal=_Key("n_signal", (256, 64, 2048)), n_idler=_Key("n_idler", (256, 64, 2048))
    ),
)


def _reject_unknown(mapping, allowed, prefix):
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown config key {prefix}{key}")


def _number(mapping, key, path, required):
    """mapping[key] as a float; None if absent or null and not required.

    Only finite JSON numbers pass: NaN, Infinity, booleans and strings are
    rejected with the key path named.
    """
    value = mapping.get(key)
    if value is None:
        if required:
            raise ConfigError(f"{path} missing key {key}")
        return None
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:
            pass
    raise ConfigError(f"{path}.{key} must be a finite number, got {value!r}")


def _integer(mapping, key, path, default, minimum, maximum):
    """mapping.get(key, default) as an int; fractional values and values outside
    [`minimum`, `maximum`] are rejected."""
    value = mapping.get(key, default)
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    ):
        raise ConfigError(f"{path}.{key} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{path}.{key} must be >= {minimum}, got {value!r}")
    if value > maximum:
        raise ConfigError(f"{path}.{key} must be <= {maximum}, got {value!r}")
    return int(value)


def _fields(section, mapping, path):
    """The dataclass fields of `section` that the config object `mapping` at
    `path` gives."""
    fields = {}
    for key, entry in section.keys.items():
        if isinstance(entry, _Section):
            key_path = f"{path}.{key}" if path else key
            child = mapping.get(key, {} if entry.build is None else None)
            if not isinstance(child, dict):
                raise ConfigError(f"{key_path} must be an object")
            _reject_unknown(child, entry.keys, key_path + ".")
            values = _fields(entry, child, key_path)
            if entry.build is None:
                fields.update(values)
            else:
                with _user_values(key_path):
                    fields[key] = entry.build(**values)
        elif isinstance(entry.scale, tuple):
            fields[entry.field] = _integer(mapping, key, path, *entry.scale)
        elif (value := _number(mapping, key, path, entry.required)) is not None:
            fields[entry.field] = value * entry.scale
    return fields


def parse_config(document):
    """Validate a parsed JSON document into a RunConfig."""
    if not isinstance(document, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(document, _SCHEMA.keys, "")
    for key, section in _SCHEMA.keys.items():
        if section.build is not None and key not in document:
            raise ConfigError(f"missing config section {key}")
    return RunConfig(**_fields(_SCHEMA, document, ""))


def _load_document(path):
    """The JSON document of a config file or a shipped preset name."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError:
        resource = importlib.resources.files("sfwmkit.presets").joinpath(path)
        if not resource.is_file():
            raise ConfigError(f"config file {path} not found (and not a preset)") from None
        return json.loads(resource.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None


def load_config(path):
    """Load a RunConfig from a JSON file or a shipped preset name."""
    return parse_config(_load_document(path))


@contextlib.contextmanager
def _user_values(what):
    """Report a ValueError raised by values the user gave as a ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from None


# Largest sample count on the command line, as for the grid in `parse_config`:
# the phasematch scan holds 2000 signal samples and their dk (about 43 KB) per pump.
_MAX_COUNT = 2048


def _positive_count(text):
    """argparse type of sample counts: an integer in [1, _MAX_COUNT]."""
    value = int(text)
    if not 1 <= value <= _MAX_COUNT:
        raise argparse.ArgumentTypeError(f"must be in [1, {_MAX_COUNT}], got {value}")
    return value


# ---------------------------------------------------------------------------
# Subcommands: each returns the text that main writes out
# ---------------------------------------------------------------------------

# The hom-sim/hom-fit CSV header, column by column, and the HomDataset array
# field each column holds; theta is in degrees in the file, radians in the dataset.
_HOM_COLUMNS = {
    "theta_deg": "theta",
    "R_ABCD": "four_fold",
    "R_AB": "two_fold_ab",
    "R_CD": "two_fold_cd",
    "R_AD": "two_fold_ad",
    "R_BC": "two_fold_bc",
    "duration_s": "duration",
}


def _csv(header, rows):
    """CSV text: numbers through _fmt, strings as they are."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else _fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _json(fields):
    """JSON text of `fields`, every float (also in a list) through _fmt and a
    non-finite one as null."""

    def rounded(value):
        if isinstance(value, list):
            return [rounded(v) for v in value]
        if isinstance(value, float):
            return float(_fmt(value)) if math.isfinite(value) else None
        return value

    return json.dumps({key: rounded(value) for key, value in fields.items()}, indent=2) + "\n"


def _cmd_dispersion(config, args):
    rows = []
    for axis in (Axis.FAST, Axis.SLOW):
        profile = axis_profile(config.fiber, axis)
        for om in np.linspace(*profile.span, args.points):
            rows.append(
                (
                    2e9 * np.pi * C_LIGHT / om,
                    axis.value,
                    profile.index_at(om),
                    wavevector(om, profile),
                    inverse_group_velocity(om, profile),
                    gvd(om, profile),
                )
            )
    return _csv(("wavelength_nm", "axis", "n_eff", "k", "dk_domega", "d2k_domega2"), rows)


def _cmd_phasematch(config, args):
    """Tuning curve over args.range [nm] as CSV in nm."""
    lam_lo, lam_hi = args.range
    if not all(math.isfinite(lam) and lam > 0 for lam in args.range):
        raise ConfigError(
            f"--range: pump wavelengths must be finite and > 0 nm, got {lam_lo:g} {lam_hi:g}"
        )
    curve = phasematch_curve(
        (lam_lo * 1e-9, lam_hi * 1e-9), args.points, config.fiber, config.pump.peak_power
    )
    return _csv(
        ("lambda_p_nm", "lambda_s_nm", "lambda_i_nm"),
        (
            (p.pump_wavelength * 1e9, p.signal_wavelength * 1e9, p.idler_wavelength * 1e9)
            for p in curve
        ),
    )


def _cmd_gvm(config, args):
    lam = gvm_pump_wavelength(config.fiber, peak_power=config.pump.peak_power)
    # Rounded to 1e-3 nm: the root is refined only to 1e-12 m, so the digits
    # past that move with any change to the root finder.
    return _json({"lambda_p0_nm": round(lam * 1e9, 3)})


def _build_jsa_from_config(config):
    grid = adaptive_grid(config.pump, config.fiber, config.n_signal, config.n_idler)
    return build_jsa(config.pump, config.fiber, grid=grid)


def _cmd_jsa(config, args):
    jsa = _build_jsa_from_config(config)
    return _csv(
        ("omega_s_rad_per_s", "omega_i_rad_per_s", "real", "imag", "abs_sq"),
        (
            (os_, oi, f.real, f.imag, abs(f) ** 2)
            for os_, row in zip(jsa.grid.signal_omegas, jsa.amplitude)
            for oi, f in zip(jsa.grid.idler_omegas, row)
        ),
    )


def _cmd_purity(config, args):
    base = schmidt_decompose(_build_jsa_from_config(config))
    doubled = dataclasses.replace(config, n_signal=2 * config.n_signal, n_idler=2 * config.n_idler)
    refined = schmidt_decompose(_build_jsa_from_config(doubled))
    drift = abs(refined.purity - base.purity)
    return _json(
        {
            "purity": base.purity,
            "schmidt_number": base.schmidt_number,
            "entropy": base.entropy,
            "coefficients": list(base.coefficients[:16]),
            "grid_points": [config.n_signal, config.n_idler],
            "refined_purity": refined.purity,
            "grid_converged": bool(drift < 1e-3 * refined.purity),
            # Rounded to the 1e-12 resolution of the printed purities, so the
            # last-bit rounding of either Schmidt spectrum does not show.
            "purity_drift": round(drift, 12),
        }
    )


def _cmd_purity_scan(config, args):
    with _user_values("--lengths"):
        fibers = [dataclasses.replace(config.fiber, length=length) for length in args.lengths]
    rows = []
    for length, fiber in zip(args.lengths, fibers):
        jsa = _build_jsa_from_config(dataclasses.replace(config, fiber=fiber))
        rows.append((length, schmidt_decompose(jsa).purity))
    return _csv(("length_m", "purity"), rows)


def _cmd_hom_fit(config, args):
    rows = [values for _, values in read_csv(args.data, _HOM_COLUMNS)]
    columns = dict(zip(_HOM_COLUMNS.values(), np.array(rows).T))
    columns["theta"] = np.deg2rad(columns["theta"])
    with _user_values(args.data):
        data = HomDataset(**columns, repetition_rate=args.rep_rate)
    result = fit_purity(data)
    return _json(
        {
            "p": result.p,
            "sigma_p": result.sigma_p,
            "chi": result.chi,
            "sigma_chi": result.sigma_chi,
            "chi2_reduced": result.chi2_reduced,
        }
    )


def _cmd_hom_sim(config, args):
    thetas = np.deg2rad(np.linspace(args.theta_start, args.theta_stop, args.theta_points))
    with _user_values("hom-sim arguments"):
        data = simulate_counts(
            HomModelParams(p=args.p, chi=args.chi),
            thetas,
            two_fold_mean=args.two_fold_mean,
            duration=args.duration,
            repetition_rate=args.rep_rate,
            seed=args.seed,
            noiseless=args.noiseless,
        )
    columns = {name: getattr(data, name) for name in _HOM_COLUMNS.values()}
    columns["theta"] = np.rad2deg(data.theta)
    return _csv(_HOM_COLUMNS, zip(*columns.values()))


def _cmd_fit_fiber(config, args):
    # The fit moves one axis with dn held fixed, so dn cannot come from the
    # two axes' geometry.
    dn = config.fiber.birefringence_override
    if dn is None:
        raise ConfigError("fit-fiber needs fiber.birefringence_override: the fit holds dn fixed")
    result = fit_geometry(
        load_measurements(args.data),
        initial_guess=config.fiber.axis_geometry(args.axis),
        birefringence=dn,
    )
    # The geometry to 6 significant digits: least_squares stops at xtol = 1e-6.
    return _json(
        {
            "axis": args.axis,
            "core_diameter_um": float(f"{result.geometry.core_diameter * 1e6:.6g}"),
            "air_filling_fraction": float(f"{result.geometry.air_filling_fraction:.6g}"),
            "core_diameter_sigma_um": result.core_diameter_sigma * 1e6,
            "air_filling_fraction_sigma": result.filling_fraction_sigma,
            "residual_rms": result.residual_rms,
            "n_penalized": result.n_penalized,
        }
    )


def _cmd_figure(config, args):
    """The data behind one figure as CSV."""
    if args.id == "fig1b":  # `phasematch` with the defaults the parser sets
        return _cmd_phasematch(config, args)
    # fig1a: the full Ti:Sapphire pump tuning range; the correlation column
    # reads the ridge tilt dw_i/dw_s = -slope_s/slope_i: dk slopes of opposite
    # signs mean frequency-correlated pairs, equal signs anticorrelated.
    points = phasematch_curve((700e-9, 1000e-9), 301, config.fiber, config.pump.peak_power)
    *_, slope_s, slope_i = ridge_slopes(points, config.fiber)
    labels = np.where(slope_s * slope_i < 0, "correlated", "anticorrelated")
    return _csv(
        ("lambda_p_nm", "lambda_s_nm", "lambda_i_nm", "correlation"),
        (
            (p.pump_wavelength * 1e9, p.signal_wavelength * 1e9, p.idler_wavelength * 1e9, label)
            for p, label in zip(points, labels)
        ),
    )


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


# Pump range [nm] and points of `phasematch`, which `figure --id fig1b` prints.
_PHASEMATCH_DEFAULTS = {"range": (765.0, 795.0), "points": 31}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sfwmkit",
        description="Design and analysis of SFWM photon-pair sources in birefringent fiber.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config file or preset name")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--length-m", type=float, default=None, help="set fiber.length_m")
        p.add_argument("--pump-nm", type=float, default=None, help="set pump.center_wavelength_nm")
        return p

    p = common(sub.add_parser("dispersion", help="sampled dispersion tables per axis"))
    p.add_argument("--points", type=_positive_count, default=201)
    p.set_defaults(func=_cmd_dispersion)

    p = common(sub.add_parser("phasematch", help="phasematched sidebands vs pump"))
    p.add_argument("--range", type=float, nargs=2, metavar=("LO_NM", "HI_NM"))
    p.add_argument("--points", type=_positive_count)
    p.set_defaults(func=_cmd_phasematch, **_PHASEMATCH_DEFAULTS)

    p = common(sub.add_parser("gvm", help="group-velocity-matched pump wavelength"))
    p.set_defaults(func=_cmd_gvm)

    p = common(sub.add_parser("jsa", help="joint spectral amplitude samples"))
    p.set_defaults(func=_cmd_jsa)

    p = common(sub.add_parser("purity", help="Schmidt purity with grid-refinement gate"))
    p.set_defaults(func=_cmd_purity)

    p = common(sub.add_parser("purity-scan", help="purity versus fiber length"))
    p.add_argument("--lengths", type=float, nargs="+", default=[0.4, 1.0, 10.0, 100.0])
    p.set_defaults(func=_cmd_purity_scan)

    p = common(sub.add_parser("hom-fit", help="fit (p, chi) to four-fold counting data"))
    p.add_argument("--data", required=True, help="counting data CSV")
    p.add_argument("--rep-rate", type=float, required=True, help="pulse rate [Hz]")
    p.set_defaults(func=_cmd_hom_fit)

    p = common(sub.add_parser("hom-sim", help="simulate four-fold counting data"))
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--chi", type=float, default=0.0)
    p.add_argument("--two-fold-mean", type=float, default=1.2e6)
    p.add_argument("--duration", type=float, default=60.0)
    p.add_argument("--rep-rate", type=float, default=76e6)
    p.add_argument("--theta-start", type=float, default=0.0)
    p.add_argument("--theta-stop", type=float, default=90.0)
    p.add_argument("--theta-points", type=_positive_count, default=19)
    p.add_argument("--seed", type=int, default=0, help="random seed of the counts")
    p.add_argument("--noiseless", action="store_true")
    p.set_defaults(func=_cmd_hom_sim)

    p = common(sub.add_parser("fit-fiber", help="fit axis geometry to phasematch data"))
    p.add_argument("--data", required=True, help="measurement CSV")
    p.add_argument("--axis", choices=("fast", "slow"), default="fast")
    p.set_defaults(func=_cmd_fit_fiber)

    p = common(sub.add_parser("figure", help="emit data behind one figure"))
    p.add_argument("--id", required=True, choices=("fig1a", "fig1b"))
    p.set_defaults(func=_cmd_figure, **_PHASEMATCH_DEFAULTS)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        document = _load_document(args.config)
        # --length-m and --pump-nm set config keys that parse_config checks as
        # any other; a document without the section is left for it to reject.
        for section, key, value in (
            ("fiber", "length_m", args.length_m),
            ("pump", "center_wavelength_nm", args.pump_nm),
        ):
            if value is not None:
                with contextlib.suppress(KeyError, TypeError):
                    document[section][key] = value
        text = args.func(parse_config(document), args)
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w") as handle:
                handle.write(text)
    except (SfwmkitError, OSError) as exc:  # user errors -> exit 1; bugs raise
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
