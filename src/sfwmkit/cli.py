"""Command-line interface: reproducible pipelines over the library.

Every subcommand reads a strict JSON configuration (unknown keys are
rejected, with the offending key path named), runs one computation, and
writes CSV or JSON to --out or standard output.  All numbers are serialized
with 12 significant digits and runs are fully deterministic, so identical
config plus seed gives byte-identical output.
"""

import argparse
import contextlib
import dataclasses
import importlib.resources
import io
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT
from .dispersion import (
    Axis,
    axis_profile,
    gvd,
    inverse_group_velocity,
    wavevector,
    zero_gvd_wavelengths,
)
from .errors import ConfigError, SfwmkitError
from .fiber_fit import fit_geometry, load_measurements
from .hom import HomModelParams, fit_purity, simulate_counts
from .jsa import adaptive_grid, build_jsa, schmidt_decompose, purity_vs_length
from .material_optics import FiberAxisGeometry, FiberSpec
from .phasematch import (
    PumpSpec,
    gvm_pump_wavelength,
    phasematch_curve,
    resolve_peak_power,
    solve_phasematch,
)

__all__ = ["main", "load_config", "RunConfig", "emit_figure_data"]


def _fmt(value):
    """Serialize one number with 12 significant digits."""
    return f"{float(value):.12g}"


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

_AXIS_KEYS = {"core_diameter_um", "air_filling_fraction"}
_FIBER_KEYS = {
    "fast_axis",
    "slow_axis",
    "gamma_per_w_km",
    "length_m",
    "birefringence_override",
}
# Pump config key -> (PumpSpec field, factor to SI units).
_PUMP_FIELDS = {
    "center_wavelength_nm": ("center_wavelength", 1e-9),
    "gaussian_fwhm_nm": ("gaussian_fwhm", 1e-9),
    "filter_width_nm": ("filter_width", 1e-9),
    "average_power_w": ("average_power", 1.0),
    "repetition_rate_hz": ("repetition_rate", 1.0),
    "pulse_fwhm_s": ("pulse_fwhm", 1.0),
    "peak_power_w": ("peak_power", 1.0),
}
_PUMP_REQUIRED = {"center_wavelength_nm", "gaussian_fwhm_nm"}
_GRID_KEYS = {"n_signal", "n_idler", "sidelobes"}
_OUTPUT_KEYS = {"format"}
_TOP_KEYS = {"fiber", "pump", "grid", "output", "seed"}


@dataclass(frozen=True)
class RunConfig:
    fiber: FiberSpec
    pump: PumpSpec
    n_signal: int = 256
    n_idler: int = 256
    sidelobes: int = 32
    output_format: str = "json"
    seed: int = 0


def _key_path(path, key):
    return f"{path}.{key}" if path else key


def _reject_unknown(mapping, allowed, path):
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown config key {_key_path(path, key)}")


def _number(mapping, key, path, required=True):
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
    raise ConfigError(f"{_key_path(path, key)} must be a finite number, got {value!r}")


def _integer(mapping, key, path, default):
    """mapping.get(key, default) as an int; fractional values are rejected."""
    value = mapping.get(key, default)
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    ):
        raise ConfigError(f"{_key_path(path, key)} must be an integer, got {value!r}")
    return int(value)


def _section(mapping, key, allowed):
    section = mapping.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{key} must be an object")
    _reject_unknown(section, allowed, key)
    return section


def _parse_axis(mapping, path):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{path} must be an object")
    _reject_unknown(mapping, _AXIS_KEYS, path)
    core_um = _number(mapping, "core_diameter_um", path)
    fill = _number(mapping, "air_filling_fraction", path)
    try:
        return FiberAxisGeometry(core_diameter=core_um * 1e-6, air_filling_fraction=fill)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def parse_config(document):
    """Validate a parsed JSON document into a RunConfig."""
    if not isinstance(document, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(document, _TOP_KEYS, "")
    for key in ("fiber", "pump"):
        if key not in document:
            raise ConfigError(f"missing config section {key}")

    fiber_doc = _section(document, "fiber", _FIBER_KEYS)
    fast = _parse_axis(fiber_doc.get("fast_axis"), "fiber.fast_axis")
    slow = _parse_axis(fiber_doc.get("slow_axis"), "fiber.slow_axis")
    gamma = _number(fiber_doc, "gamma_per_w_km", "fiber")
    length = _number(fiber_doc, "length_m", "fiber")
    dn = _number(fiber_doc, "birefringence_override", "fiber", required=False)
    try:
        fiber = FiberSpec(fast, slow, gamma, length, birefringence_override=dn)
    except ValueError as exc:
        raise ConfigError(f"fiber: {exc}") from None

    pump_doc = _section(document, "pump", _PUMP_FIELDS)
    pump_values = {}
    for key, (name, scale) in _PUMP_FIELDS.items():
        value = _number(pump_doc, key, "pump", required=key in _PUMP_REQUIRED)
        pump_values[name] = None if value is None else value * scale
    try:
        pump = PumpSpec(**pump_values)
    except ValueError as exc:
        raise ConfigError(f"pump: {exc}") from None

    grid_doc = _section(document, "grid", _GRID_KEYS)
    output_doc = _section(document, "output", _OUTPUT_KEYS)
    output_format = output_doc.get("format", "json")
    if output_format not in ("csv", "json"):
        raise ConfigError(f"output.format must be csv or json, got {output_format!r}")

    return RunConfig(
        fiber=fiber,
        pump=pump,
        n_signal=_integer(grid_doc, "n_signal", "grid", 256),
        n_idler=_integer(grid_doc, "n_idler", "grid", 256),
        sidelobes=_integer(grid_doc, "sidelobes", "grid", 32),
        output_format=output_format,
        seed=_integer(document, "seed", "", 0),
    )


def load_config(path):
    """Load a RunConfig from a JSON file or a shipped preset name."""
    try:
        with open(path) as handle:
            document = json.load(handle)
    except FileNotFoundError:
        resource = importlib.resources.files("sfwmkit.presets").joinpath(path)
        if not resource.is_file():
            raise ConfigError(f"config file {path} not found (and not a preset)") from None
        document = json.loads(resource.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return parse_config(document)


@contextlib.contextmanager
def _user_values(what):
    """Report a ValueError raised by values the user gave as a ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from None


def _positive_count(text):
    """argparse type of sample counts: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _apply_overrides(config, args):
    """Fold generic command-line overrides into the config."""
    fiber, pump = config.fiber, config.pump
    with _user_values("command-line override"):
        if getattr(args, "length_m", None) is not None:
            fiber = dataclasses.replace(fiber, length=args.length_m)
        if getattr(args, "pump_nm", None) is not None:
            pump = dataclasses.replace(pump, center_wavelength=args.pump_nm * 1e-9)
    config = dataclasses.replace(config, fiber=fiber, pump=pump)
    if getattr(args, "seed", None) is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _write(out_path, text):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as handle:
            handle.write(text)


def _json_dump(obj):
    return json.dumps(obj, indent=2) + "\n"


def _cmd_dispersion(config, args):
    buffer = io.StringIO()
    buffer.write("wavelength_nm,axis,n_eff,k,dk_domega,d2k_domega2\n")
    for axis in (Axis.FAST, Axis.SLOW):
        profile = axis_profile(config.fiber, axis)
        omegas = np.linspace(*profile.span, args.points)
        for om in omegas:
            lam_nm = 2e9 * np.pi * C_LIGHT / om
            buffer.write(
                ",".join(
                    [
                        _fmt(lam_nm),
                        axis.value,
                        _fmt(profile.index_at(om)),
                        _fmt(wavevector(om, profile)),
                        _fmt(inverse_group_velocity(om, profile)),
                        _fmt(gvd(om, profile)),
                    ]
                )
                + "\n"
            )
    _write(args.out, buffer.getvalue())
    return 0


def _cmd_phasematch(config, args):
    lam_lo, lam_hi = args.range
    points = phasematch_curve(
        (lam_lo * 1e-9, lam_hi * 1e-9),
        args.points,
        config.fiber,
        resolve_peak_power(config.pump),
    )
    buffer = io.StringIO()
    buffer.write("lambda_p_nm,lambda_s_nm,lambda_i_nm\n")
    for pt in points:
        buffer.write(
            f"{_fmt(pt.pump_wavelength * 1e9)},{_fmt(pt.signal_wavelength * 1e9)},"
            f"{_fmt(pt.idler_wavelength * 1e9)}\n"
        )
    _write(args.out, buffer.getvalue())
    return 0


def _cmd_gvm(config, args):
    lam = gvm_pump_wavelength(config.fiber, peak_power=resolve_peak_power(config.pump))
    # Rounded to 1e-3 nm: the root is refined only to 1e-12 m, so the digits
    # past that move with any change to the root finder.
    _write(args.out, _json_dump({"lambda_p0_nm": float(_fmt(round(lam * 1e9, 3)))}))
    return 0


def _build_jsa_from_config(config, n_signal=None, n_idler=None):
    grid = adaptive_grid(
        config.pump,
        config.fiber,
        n_signal=n_signal or config.n_signal,
        n_idler=n_idler or config.n_idler,
        sidelobes=config.sidelobes,
    )
    return build_jsa(config.pump, config.fiber, grid=grid)


def _cmd_jsa(config, args):
    jsa = _build_jsa_from_config(config)
    buffer = io.StringIO()
    buffer.write("omega_s_rad_per_s,omega_i_rad_per_s,real,imag,abs_sq\n")
    amp = jsa.amplitude
    for j, os_ in enumerate(jsa.grid.signal_omegas):
        for k, oi in enumerate(jsa.grid.idler_omegas):
            f = amp[j, k]
            buffer.write(
                f"{_fmt(os_)},{_fmt(oi)},{_fmt(f.real)},{_fmt(f.imag)},"
                f"{_fmt(abs(f) ** 2)}\n"
            )
    _write(args.out, buffer.getvalue())
    return 0


def _cmd_purity(config, args):
    base = schmidt_decompose(_build_jsa_from_config(config))
    refined = schmidt_decompose(
        _build_jsa_from_config(
            config, n_signal=2 * config.n_signal, n_idler=2 * config.n_idler
        )
    )
    drift = abs(refined.purity - base.purity)
    result = {
        "purity": float(_fmt(base.purity)),
        "schmidt_number": float(_fmt(base.schmidt_number)),
        "entropy": float(_fmt(base.entropy)),
        "coefficients": [float(_fmt(x)) for x in base.coefficients[:16]],
        "grid_points": [config.n_signal, config.n_idler],
        "refined_purity": float(_fmt(refined.purity)),
        "grid_converged": bool(drift < 1e-3),
        # Rounded to the 1e-12 resolution of the printed purities, so the
        # last-bit SVD rounding of either purity does not show.
        "purity_drift": float(_fmt(round(drift, 12))),
    }
    _write(args.out, _json_dump(result))
    return 0


def _cmd_purity_scan(config, args):
    with _user_values("--lengths"):
        for length in args.lengths:
            dataclasses.replace(config.fiber, length=length)
    results = purity_vs_length(
        config.pump,
        config.fiber,
        args.lengths,
        n_points=config.n_signal,
        sidelobes=config.sidelobes,
    )
    buffer = io.StringIO()
    buffer.write("length_m,purity\n")
    for length, purity in results:
        buffer.write(f"{_fmt(length)},{_fmt(purity)}\n")
    _write(args.out, buffer.getvalue())
    return 0


def _load_hom_csv(path, repetition_rate):
    import csv as csv_mod

    from .hom import HomDataset

    header = ["theta_deg", "R_ABCD", "R_AB", "R_CD", "R_AD", "R_BC", "duration_s"]
    columns = {name: [] for name in header}
    with open(path, newline="") as handle:
        reader = csv_mod.reader(handle)
        try:
            first = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty file") from None
        if [h.strip() for h in first] != header:
            raise ConfigError(
                f"{path}:1: expected header {','.join(header)}, got {','.join(first)}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise ConfigError(
                    f"{path}:{lineno}: expected {len(header)} columns, got {len(row)}"
                )
            for name, cell in zip(header, row):
                try:
                    columns[name].append(float(cell))
                except ValueError:
                    raise ConfigError(
                        f"{path}:{lineno}: cannot parse {name} value {cell!r}"
                    ) from None
    if not columns["theta_deg"]:
        raise ConfigError(f"{path}: no data rows")
    with _user_values(path):
        return HomDataset(
            theta=np.deg2rad(columns["theta_deg"]),
            four_fold=np.asarray(columns["R_ABCD"]),
            two_fold_ab=np.asarray(columns["R_AB"]),
            two_fold_cd=np.asarray(columns["R_CD"]),
            two_fold_ad=np.asarray(columns["R_AD"]),
            two_fold_bc=np.asarray(columns["R_BC"]),
            duration=np.asarray(columns["duration_s"]),
            repetition_rate=repetition_rate,
        )


def _cmd_hom_fit(config, args):
    data = _load_hom_csv(args.data, args.rep_rate)
    result = fit_purity(data)
    _write(
        args.out,
        _json_dump(
            {
                "p": float(_fmt(result.p)),
                "sigma_p": float(_fmt(result.sigma_p)),
                "chi": float(_fmt(result.chi)),
                "sigma_chi": float(_fmt(result.sigma_chi)),
                "chi2_reduced": float(_fmt(result.chi2_reduced)),
            }
        ),
    )
    return 0


def _cmd_hom_sim(config, args):
    thetas = np.deg2rad(np.linspace(args.theta_start, args.theta_stop, args.theta_points))
    with _user_values("hom-sim arguments"):
        data = simulate_counts(
            HomModelParams(p=args.p, chi=args.chi),
            thetas,
            two_fold_mean=args.two_fold_mean,
            duration=args.duration,
            repetition_rate=args.rep_rate,
            seed=config.seed,
            noiseless=args.noiseless,
        )
    buffer = io.StringIO()
    buffer.write("theta_deg,R_ABCD,R_AB,R_CD,R_AD,R_BC,duration_s\n")
    for i in range(len(data)):
        buffer.write(
            ",".join(
                _fmt(v)
                for v in (
                    np.rad2deg(data.theta[i]),
                    data.four_fold[i],
                    data.two_fold_ab[i],
                    data.two_fold_cd[i],
                    data.two_fold_ad[i],
                    data.two_fold_bc[i],
                    data.duration[i],
                )
            )
            + "\n"
        )
    _write(args.out, buffer.getvalue())
    return 0


def _cmd_fit_fiber(config, args):
    measurements = load_measurements(args.data)
    dn = config.fiber.birefringence_override
    result = fit_geometry(
        measurements,
        initial_guess=config.fiber.axis_geometry(args.axis),
        birefringence=0.0 if dn is None else dn,
        peak_power=resolve_peak_power(config.pump),
    )
    _write(
        args.out,
        _json_dump(
            {
                "axis": args.axis,
                "core_diameter_um": float(_fmt(result.geometry.core_diameter * 1e6)),
                "air_filling_fraction": float(
                    _fmt(result.geometry.air_filling_fraction)
                ),
                "core_diameter_sigma_um": float(_fmt(result.core_diameter_sigma * 1e6)),
                "air_filling_fraction_sigma": float(_fmt(result.filling_fraction_sigma)),
                "residual_rms": float(_fmt(result.residual_rms)),
                "n_penalized": result.n_penalized,
            }
        ),
    )
    return 0


def emit_figure_data(figure_id, config, out_path=None):
    """Write the data behind one figure as CSV; returns the CSV text."""
    buffer = io.StringIO()
    if figure_id == "fig1a":
        # Full Ti:Sapphire pump tuning range; correlation column classifies
        # each point by the signs of the local sideband slopes: equal signs
        # mean frequency-correlated pairs, opposite signs anticorrelated.
        points = phasematch_curve(
            (700e-9, 1000e-9), 301, config.fiber, resolve_peak_power(config.pump)
        )
        buffer.write("lambda_p_nm,lambda_s_nm,lambda_i_nm,correlation\n")
        lam_p = np.array([p.pump_wavelength for p in points])
        lam_s = np.array([p.signal_wavelength for p in points])
        lam_i = np.array([p.idler_wavelength for p in points])
        slope_s = np.gradient(lam_s, lam_p)
        slope_i = np.gradient(lam_i, lam_p)
        for k in range(len(points)):
            product = slope_s[k] * slope_i[k]
            label = "correlated" if product > 0 else "anticorrelated"
            buffer.write(
                f"{_fmt(lam_p[k] * 1e9)},{_fmt(lam_s[k] * 1e9)},"
                f"{_fmt(lam_i[k] * 1e9)},{label}\n"
            )
    elif figure_id == "fig1b":
        points = phasematch_curve(
            (765e-9, 795e-9), 31, config.fiber, resolve_peak_power(config.pump)
        )
        buffer.write("lambda_p_nm,lambda_s_nm,lambda_i_nm\n")
        for pt in points:
            buffer.write(
                f"{_fmt(pt.pump_wavelength * 1e9)},{_fmt(pt.signal_wavelength * 1e9)},"
                f"{_fmt(pt.idler_wavelength * 1e9)}\n"
            )
    elif figure_id == "purity_vs_L":
        results = purity_vs_length(
            config.pump,
            config.fiber,
            [0.4, 1.0, 10.0, 100.0],
            n_points=config.n_signal,
            sidelobes=config.sidelobes,
        )
        buffer.write("length_m,purity\n")
        for length, purity in results:
            buffer.write(f"{_fmt(length)},{_fmt(purity)}\n")
    else:
        raise ConfigError(f"unknown figure id {figure_id!r}")
    text = buffer.getvalue()
    _write(out_path, text)
    return text


def _cmd_figure(config, args):
    emit_figure_data(args.id, config, args.out)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sfwmkit",
        description="Design and analysis of SFWM photon-pair sources in birefringent fiber.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config file or preset name")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--length-m", type=float, default=None, help="override fiber length")
        p.add_argument(
            "--pump-nm", type=float, default=None, help="override pump center wavelength"
        )
        p.add_argument("--seed", type=int, default=None, help="override RNG seed")
        return p

    p = common(sub.add_parser("dispersion", help="sampled dispersion tables per axis"))
    p.add_argument("--points", type=_positive_count, default=201)
    p.set_defaults(func=_cmd_dispersion)

    p = common(sub.add_parser("phasematch", help="phasematched sidebands vs pump"))
    p.add_argument("--range", type=float, nargs=2, default=(765.0, 795.0), metavar=("LO_NM", "HI_NM"))
    p.add_argument("--points", type=_positive_count, default=31)
    p.set_defaults(func=_cmd_phasematch)

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
    p.add_argument("--noiseless", action="store_true")
    p.set_defaults(func=_cmd_hom_sim)

    p = common(sub.add_parser("fit-fiber", help="fit axis geometry to phasematch data"))
    p.add_argument("--data", required=True, help="measurement CSV")
    p.add_argument("--axis", choices=("fast", "slow"), default="fast")
    p.set_defaults(func=_cmd_fit_fiber)

    p = common(sub.add_parser("figure", help="emit data behind one figure"))
    p.add_argument("--id", required=True, choices=("fig1a", "fig1b", "purity_vs_L"))
    p.set_defaults(func=_cmd_figure)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        config = _apply_overrides(config, args)
        return args.func(config, args)
    except (SfwmkitError, OSError) as exc:  # user errors -> exit 1; bugs raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
