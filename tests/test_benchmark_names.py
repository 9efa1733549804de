"""Every library name the benchmark calls still exists and takes the arguments it is given.

``perfbench/tracing.py`` wraps the functions named in its ``TARGETS`` table,
and ``perfbench/workloads.py`` calls the package through ``sk.<name>`` and
``from sfwmkit... import``.  Both files are read as source, not imported
or changed, so a deletion or renamed parameter that would break the
benchmark fails here in seconds.
"""

import ast
import importlib
import inspect
from pathlib import Path

import sfwmkit as sk

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tree(name):
    return ast.parse((PERFBENCH / name).read_text())


def _targets():
    for node in ast.walk(_tree("tracing.py")):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TARGETS table")


def _sk_path(node):
    """'a.b' for an expression sk.a.b, else None."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "sk" and names:
        return ".".join(reversed(names))
    return None


def _resolve(holder, dotted):
    for name in dotted.split("."):
        holder = getattr(holder, name)
    return holder


WORKLOADS = _tree("workloads.py")
SK_NAMES = sorted({p for n in ast.walk(WORKLOADS) if (p := _sk_path(n)) is not None})
SK_CALLS = [
    (p, node)
    for node in ast.walk(WORKLOADS)
    if isinstance(node, ast.Call) and (p := _sk_path(node.func)) is not None
]
IMPORTS = sorted(
    (node.module, alias.name)
    for node in ast.walk(WORKLOADS)
    if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sfwmkit")
    for alias in node.names
)


def test_traced_targets_resolve():
    missing = []
    for name, (module_name, attr, _) in _targets().items():
        module = importlib.import_module(f"sfwmkit.{module_name}")
        if "." in attr:
            # The tracer patches a classmethod on its class.
            cls_name, method = attr.split(".")
            found = isinstance(vars(getattr(module, cls_name, object)).get(method), classmethod)
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"{name}: sfwmkit.{module_name}.{attr}")
    assert not missing


def test_workload_names_resolve():
    missing = []
    for dotted in SK_NAMES:
        try:
            _resolve(sk, dotted)
        except AttributeError:
            missing.append(f"sk.{dotted}")
    for module, name in IMPORTS:
        if not hasattr(importlib.import_module(module), name):
            missing.append(f"{module}.{name}")
    assert not missing


def test_workload_calls_bind():
    # The positional count and every named keyword (a ** mapping cannot be
    # read from source) must fit the signature.
    unbound = []
    for dotted, call in SK_CALLS:
        keywords = {kw.arg: None for kw in call.keywords if kw.arg is not None}
        positional = [] if any(isinstance(a, ast.Starred) for a in call.args) else call.args
        try:
            inspect.signature(_resolve(sk, dotted)).bind_partial(*positional, **keywords)
        except TypeError as exc:
            unbound.append(f"workloads.py:{call.lineno}: sk.{dotted}: {exc}")
    assert not unbound
