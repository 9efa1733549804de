"""Spans around the public functions of each sfwmkit layer, and the per-layer metrics.

The tracer records one span per wrapped call: name, op id, start, end, parent
span and a work count (grid points, matrix entries, ...).  Spans stay in
memory and are written out once at the end.  The program itself is not
changed: the wrappers are installed from outside by rebinding each public name
in every ``sfwmkit`` module that holds it (``phasematch``, ``jsa``,
``fiber_fit`` and ``cli`` import functions by name), and
``DispersionProfile.from_geometry`` is patched on the class.

This module imports only the standard library at load time, so the CLI shim
can load it before ``import sfwmkit`` starts the import clock.
"""

import functools
import sys
import time

# name -> (module, attribute, work count taken from (args, kwargs, result))
# A class attribute is written "Class.method".  The counts are computed after
# the call returns, outside the span.
TARGETS = {
    "material_optics.he11_grid": ("material_optics", "he11_effective_index_grid", "points"),
    "material_optics.fsm_grid": ("material_optics", "fsm_cladding_index_grid", "points"),
    "material_optics.lp01_scalar": ("material_optics", "lp01_effective_index", None),
    "dispersion.profile_build": ("dispersion", "DispersionProfile.from_geometry", "profile"),
    "dispersion.axis_profile": ("dispersion", "axis_profile", None),
    "dispersion.wavevector": ("dispersion", "wavevector", "points"),
    "dispersion.inverse_group_velocity": ("dispersion", "inverse_group_velocity", "points"),
    "dispersion.gvd": ("dispersion", "gvd", "points"),
    "dispersion.zero_gvd": ("dispersion", "zero_gvd_wavelengths", None),
    "phasematch.solve": ("phasematch", "solve_phasematch", None),
    "phasematch.delta_k": ("phasematch", "delta_k", "broadcast3"),
    "phasematch.curve": ("phasematch", "phasematch_curve", "skipped"),
    "phasematch.gvm": ("phasematch", "gvm_pump_wavelength", None),
    "jsa.pump_function": ("jsa", "pump_function", "points"),
    "jsa.phasematch_function": ("jsa", "phasematch_function", "points"),
    "jsa.adaptive_grid": ("jsa", "adaptive_grid", None),
    "jsa.build_jsa": ("jsa", "build_jsa", None),
    "jsa.schmidt": ("jsa", "schmidt_decompose", "matrix"),
    "hom.density_matrix": ("hom", "heralded_density_matrix", None),
    "hom.overlap_p": ("hom", "overlap_p", None),
    "hom.fit_purity": ("hom", "fit_purity", "iterations"),
    "hom.simulate_counts": ("hom", "simulate_counts", None),
    "fiber_fit.fit_geometry": ("fiber_fit", "fit_geometry", None),
}

CLI_COMMANDS = (
    "dispersion",
    "phasematch",
    "gvm",
    "jsa",
    "purity",
    "purity-scan",
    "hom-sim",
    "hom-fit",
    "figure",
)


def _work_count(kind, args, kwargs, result):
    import numpy as np

    if kind == "points":
        return int(np.size(args[0]))
    if kind == "profile":
        return int(result.omegas.size)
    if kind == "broadcast3":
        return int(np.broadcast(*args[:3]).size)
    if kind == "skipped":
        n_points = args[1] if len(args) > 1 else kwargs["n_points"]
        return int(n_points) - len(result)
    if kind == "matrix":
        return int(args[0].amplitude.size)
    if kind == "iterations":
        return int(result.n_iterations)
    return 0


class Tracer:
    """Collects spans; ``op`` is the id of the op in progress (-1 outside ops)."""

    def __init__(self):
        self.names = list(TARGETS)
        self.spans = []  # [name_index, op, start, end, parent, count, failed]
        self.stack = []
        self.op = -1
        self._undo = []

    def wrap(self, index, fn, kind):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [index, self.op, 0.0, 0.0, stack[-1] if stack else -1, 0, False]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[3] = clock()
                span[6] = True
                raise
            finally:
                stack.pop()
            span[3] = clock()
            if kind is not None:
                span[5] = _work_count(kind, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every target in every loaded sfwmkit module that binds it."""
        import importlib

        for module_name in ("material_optics", "dispersion", "phasematch", "jsa", "hom", "fiber_fit", "cli"):
            importlib.import_module(f"sfwmkit.{module_name}")
        modules = [m for n, m in sys.modules.items() if n == "sfwmkit" or n.startswith("sfwmkit.")]
        for index, (module_name, attr, kind) in enumerate(TARGETS.values()):
            module = sys.modules[f"sfwmkit.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                wrapped = self.wrap(index, original.__func__, kind)
                setattr(cls, method, classmethod(wrapped))
                self._undo.append((cls, method, original))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(index, original, kind)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)
                        self._undo.append((holder, key, original))

    def uninstall(self):
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    def rows(self):
        """Spans as plain tuples: (name, op, start, end, parent, count, failed)."""
        names = self.names
        return [(names[s[0]], s[1], s[2], s[3], s[4], s[5], s[6]) for s in self.spans]


def write_spans(path, rows):
    with open(path, "w") as handle:
        handle.write("name,op,start,end,parent,count,failed\n")
        for name, op, start, end, parent, count, failed in rows:
            handle.write(f"{name},{op},{start!r},{end!r},{parent},{count},{int(failed)}\n")


def read_spans(path, op, offset):
    """Spans written by ``write_spans``, tagged with ``op`` and with parent
    indices shifted by ``offset``, the row count already collected."""
    rows = []
    with open(path) as handle:
        next(handle)
        for line in handle:
            name, _, start, end, parent, count, failed = line.rstrip("\n").split(",")
            parent = int(parent)
            rows.append(
                (name, op, float(start), float(end), parent + offset if parent >= 0 else -1, int(count), failed == "1")
            )
    return rows


# ---------------------------------------------------------------------------
# Per-layer metrics: (name, unit, better, end-to-end metric and workload it moves)
# ---------------------------------------------------------------------------

_MO = "op_s.* and throughput on design-sweep and fit-analysis; setup_s on purity-eval; throughput on cli-cold; no change to op_s on purity-eval"
_DISP = "op_s.* on design-sweep, and on purity-eval through the phasematch fill; throughput on cli-cold"
_PM = "op_s.* on design-sweep (~6%), fit-analysis (~7%) and purity-eval (ridge tracking)"
_JSA = "op_s.* and peak_rss_mb on purity-eval; throughput on cli-cold; zero on design-sweep and fit-analysis"
_HOM_P = "op_s.* on purity-eval (overlap)"
_HOM_F = "fit-analysis only; 1-3% of an op, too small to move an end-to-end metric"
_FIT = "op_s.* and throughput on fit-analysis"
_CLI = "throughput_ops_per_s and op_s.* on cli-cold"

PER_LAYER = [
    ("material_optics.he11_grid.calls", "calls/op", "lower", _MO),
    ("material_optics.he11_grid.points", "points/op", "lower", _MO),
    ("material_optics.he11_grid.busy_s", "s/op", "lower", _MO),
    ("material_optics.he11_grid.self_s", "s/op", "lower", _MO),
    ("material_optics.fsm_grid.calls", "calls/op", "lower", _MO),
    ("material_optics.fsm_grid.points", "points/op", "lower", _MO),
    ("material_optics.fsm_grid.busy_s", "s/op", "lower", _MO),
    ("material_optics.lp01_scalar.calls", "calls/op", "lower", "op_s.* on design-sweep (birefringence step)"),
    ("material_optics.lp01_scalar.busy_s", "s/op", "lower", "op_s.* on design-sweep (birefringence step)"),
    ("dispersion.profile_build.calls", "calls/op", "lower", _MO),
    ("dispersion.profile_build.busy_s", "s/op", "lower", _MO),
    ("dispersion.profile_build.self_s", "s/op", "lower", "op_s.* on design-sweep and fit-analysis (spline fit)"),
    ("dispersion.axis_profile.calls", "calls/op", "lower", _DISP),
    ("dispersion.axis_profile.hit_ratio", "ratio", "higher", "op_s.* on design-sweep (one miss per op) and purity-eval (all hits)"),
    ("dispersion.wavevector.calls", "calls/op", "lower", _DISP),
    ("dispersion.wavevector.busy_s", "s/op", "lower", _DISP),
    ("dispersion.inverse_group_velocity.calls", "calls/op", "lower", _DISP),
    ("dispersion.inverse_group_velocity.busy_s", "s/op", "lower", _DISP),
    ("dispersion.gvd.calls", "calls/op", "lower", _DISP),
    ("dispersion.gvd.busy_s", "s/op", "lower", _DISP),
    ("dispersion.zero_gvd.busy_s", "s/op", "lower", _DISP),
    ("phasematch.solve.calls", "calls/op", "lower", _PM),
    ("phasematch.solve.busy_s", "s/op", "lower", _PM),
    ("phasematch.solve.failed", "calls/op", "lower", _PM),
    ("phasematch.delta_k.calls", "calls/op", "lower", _PM),
    ("phasematch.delta_k_per_solve", "points", "lower", _PM),
    ("phasematch.curve.skipped", "points/op", "lower", "op_s.* on design-sweep (curve step)"),
    ("phasematch.gvm.busy_s", "s/op", "lower", "op_s.* on design-sweep; throughput on cli-cold (gvm command)"),
    ("jsa.pump_function.calls", "calls/op", "lower", _JSA),
    ("jsa.pump_function.busy_s", "s/op", "lower", _JSA),
    ("jsa.phasematch_function.points", "points/op", "lower", _JSA),
    ("jsa.phasematch_function.busy_s", "s/op", "lower", _JSA),
    ("jsa.adaptive_grid.busy_s", "s/op", "lower", _JSA),
    ("jsa.build_jsa.self_s", "s/op", "lower", _JSA),
    ("jsa.schmidt.calls", "calls/op", "lower", _JSA),
    ("jsa.schmidt.busy_s", "s/op", "lower", _JSA),
    ("jsa.schmidt.matrix_points", "points/op", "lower", _JSA),
    ("hom.density_matrix.busy_s", "s/op", "lower", _HOM_P),
    ("hom.overlap_p.busy_s", "s/op", "lower", _HOM_P),
    ("hom.fit_purity.calls", "calls/op", "lower", _HOM_F),
    ("hom.fit_purity.busy_s", "s/op", "lower", _HOM_F),
    ("hom.fit_purity.outer_rounds", "rounds", "lower", _HOM_F),
    ("hom.simulate_counts.busy_s", "s/op", "lower", _HOM_F),
    ("fiber_fit.fit_geometry.calls", "calls/op", "lower", _FIT),
    ("fiber_fit.fit_geometry.busy_s", "s/op", "lower", _FIT),
    ("fiber_fit.fit_geometry.self_s", "s/op", "lower", _FIT),
    ("fiber_fit.profiles_per_fit", "count", "lower", _FIT),
    ("fiber_fit.solves_per_fit", "count", "lower", _FIT),
    ("cli.import_s", "s/op", "lower", _CLI),
    ("cli.library_s", "s/op", "lower", _CLI),
    ("cli.self_s", "s/op", "lower", _CLI + " (parsing and formatting)"),
    *((f"cli.{c}.wall_s", "s", "lower", _CLI) for c in CLI_COMMANDS),
    ("process.cpu_s_per_op", "s/op", "lower", "throughput on every workload; CPU above wall shows BLAS threads"),
]


def layer_metrics(rows, n_ops, cpu_s, cli_ops=()):
    """Per-op layer metrics from the span rows of ops 0..n_ops-1.

    Rows outside any op (op id -1) are skipped.  ``cli_ops`` holds one
    (command, wall_s, import_s, child_wall_s) record per cli-cold op.
    """
    per = max(n_ops, 1)
    calls, busy, count, failed, self_time = {}, {}, {}, {}, {}
    child_time = [0.0] * len(rows)
    for name, op, start, end, parent, _, _ in rows:
        if op >= 0 and parent >= 0:
            child_time[parent] += end - start
    parent_name = []
    for i, (name, op, start, end, parent, n, fail) in enumerate(rows):
        parent_name.append(rows[parent][0] if parent >= 0 else None)
        if op < 0:
            continue
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + (end - start)
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time[i]
        count[name] = count.get(name, 0) + n
        failed[name] = failed.get(name, 0) + int(fail)

    def under(child, parent):
        return [r for r, p in zip(rows, parent_name) if r[1] >= 0 and r[0] == child and p == parent]

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    out = {}
    for name in TARGETS:
        out[f"{name}.calls"] = calls.get(name, 0) / per
        out[f"{name}.busy_s"] = busy.get(name, 0.0) / per
        out[f"{name}.self_s"] = self_time.get(name, 0.0) / per
        out[f"{name}.points"] = count.get(name, 0) / per
    solves = calls.get("phasematch.solve", 0)
    fits = calls.get("fiber_fit.fit_geometry", 0)
    out["phasematch.solve.failed"] = failed.get("phasematch.solve", 0) / per
    out["phasematch.curve.skipped"] = count.get("phasematch.curve", 0) / per
    out["phasematch.delta_k_per_solve"] = ratio(
        sum(r[5] for r in under("phasematch.delta_k", "phasematch.solve")), solves
    )
    out["jsa.schmidt.matrix_points"] = count.get("jsa.schmidt", 0) / per
    axis_calls = calls.get("dispersion.axis_profile", 0)
    misses = len(under("dispersion.profile_build", "dispersion.axis_profile"))
    out["dispersion.axis_profile.hit_ratio"] = ratio(axis_calls - misses, axis_calls)
    out["hom.fit_purity.outer_rounds"] = ratio(count.get("hom.fit_purity", 0), calls.get("hom.fit_purity", 0))
    out["fiber_fit.profiles_per_fit"] = ratio(len(under("dispersion.profile_build", "fiber_fit.fit_geometry")), fits)
    out["fiber_fit.solves_per_fit"] = ratio(len(under("phasematch.solve", "fiber_fit.fit_geometry")), fits)

    library = sum(r[3] - r[2] for r in rows if r[1] >= 0 and r[4] < 0) if cli_ops else 0.0
    imports = sum(op[2] for op in cli_ops)
    out["cli.import_s"] = imports / per
    out["cli.library_s"] = library / per
    out["cli.self_s"] = (sum(op[3] for op in cli_ops) - imports - library) / per
    for command in CLI_COMMANDS:
        walls = [op[1] for op in cli_ops if op[0] == command]
        out[f"cli.{command}.wall_s"] = ratio(sum(walls), len(walls))
    out["process.cpu_s_per_op"] = cpu_s / per
    return {name: {"value": out[name], "unit": unit} for name, unit, _, _ in PER_LAYER}
