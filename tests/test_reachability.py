"""Every function defined in src/snls_lab is reached by some run.

Each run kind goes once through the command-line entry point on a tiny
config, under ``sys.setprofile`` and ``threading.setprofile``, so calls on
the threads a run starts count too.  A function that none of the runs calls
is surface no run uses, and fails the test unless it is one of the
documented public helpers listed below.
"""

import ast
import importlib
import inspect
import json
import os
import pkgutil
import sys
import threading
import time
import types
from pathlib import Path

import pytest

import snls_lab
from snls_lab import integrator
from snls_lab.cli import main

# Public helpers that no run calls.  ``read_field_dump`` is the documented
# reader of the field-dump format; the others stay only while the benchmark
# in perfbench/ calls them.
PUBLIC_HELPERS = {
    "harness.read_field_dump",
    "integrator.SolutionRecord.snapshots_x",  # read by perfbench/spans.py
    "integrator.SolutionRecord.snapshots_y",
    "spectral_grid.inverse_transform",  # perfbench/run.py's FFT-pair timing
}
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

GRID_1D = {"dimension": 1, "points": 32, "half_length": 8.0}
UNIT = {"kind": "constant", "value": 1.0, "alpha0": 1.0, "v_max": 1.0}
HOMOGENEOUS = {"coefficients": [[1.0, 0.5]], "profiles": [{"kind": "constant-one"}],
               "densities": [UNIT]}
BUMP = {"coefficients": [[0.5, 0.2]],
        "profiles": [{"kind": "gaussian-bump", "width": 2.0}], "densities": [UNIT]}
GAUSSIAN = {"kind": "gaussian", "width": 1.0, "l2_norm": 1.0}


def sim(**leaves):
    return {"lambda": 1, "alpha": 2.0, "dt": 0.01, "t_final": 0.04, **leaves}


# (config, expected exit code): every run kind, both schemes and splittings,
# 1-D and 2-D transforms, a decay fit whose mass underflows (exit 4) and a
# march that aborts (exit 4: the mass reconstruction overflows at index 2).
RUNS = [
    ({"kind": "simulate", "grid": GRID_1D, "noise": HOMOGENEOUS, "sim": sim(),
      "initial": GAUSSIAN, "diagnostics": {"decay_fit": True, "residuals": True,
                                           "field_dumps": True}}, 0),
    ({"kind": "simulate", "grid": {**GRID_1D, "dimension": 2, "points": 16},
      "noise": BUMP, "sim": sim(scheme="direct", splitting="lie", save_every=2),
      "initial": {"kind": "plane-wave", "mode": [1, 2]},
      "diagnostics": {"residuals": True, "field_dumps": True}}, 0),
    ({"kind": "simulate", "grid": GRID_1D,
      "noise": {**HOMOGENEOUS, "coefficients": [30.0]},
      "sim": sim(t_final=1.0), "initial": GAUSSIAN,
      "diagnostics": {"decay_fit": True, "fit_window": [0.5, 1.0]}}, 4),
    ({"kind": "simulate", "grid": GRID_1D,
      "noise": {**HOMOGENEOUS, "coefficients": [400.0]},
      "sim": sim(scheme="direct", dt=0.5, t_final=10.0), "initial": GAUSSIAN}, 4),
    ({"kind": "ensemble", "grid": GRID_1D,
      "noise": {**HOMOGENEOUS, "densities": [{"kind": "piecewise-constant",
                                              "times": [0.0, 0.02],
                                              "values": [1.0, 2.0]}]},
      "sim": sim(), "initial": GAUSSIAN, "ensemble": {"size": 2}}, 0),
    ({"kind": "convergence", "grid": GRID_1D, "noise": HOMOGENEOUS,
      "sim": sim(t_final=0.08), "initial": GAUSSIAN,
      "convergence": {"dts": [0.04, 0.02, 0.01], "reference_dt": 0.00125}}, 0),
    ({"kind": "picard", "grid": GRID_1D, "noise": HOMOGENEOUS, "initial": GAUSSIAN,
      "picard": {"horizon": 0.02, "nodes": 8, "alpha": 2.0}}, 0),
    # at mild_picard.PIPELINE_MIN_SIZE values a helper thread runs the heads
    ({"kind": "picard", "grid": {**GRID_1D, "points": 8192}, "noise": HOMOGENEOUS,
      "initial": GAUSSIAN, "picard": {"horizon": 0.02, "nodes": 8, "alpha": 2.0}}, 0),
    ({"kind": "validate", "grid": GRID_1D, "noise": BUMP,
      "initial": {"kind": "constant", "value": 1.0},
      "validate": {"horizon": 1.0}}, 0),
]


def defined_functions() -> dict:
    """Every function whose code lives in the package, nested ones included,
    by module-relative qualified name."""
    found = {}

    def add(name, code):
        found[name] = code
        for const in code.co_consts:
            if isinstance(const, types.CodeType) and (
                    const.co_name == "<lambda>" or not const.co_name.startswith("<")):
                suffix = f"@{const.co_firstlineno}" if const.co_name == "<lambda>" else ""
                add(f"{name}.<locals>.{const.co_name}{suffix}", const)

    for info in pkgutil.iter_modules(snls_lab.__path__):
        module = importlib.import_module(f"snls_lab.{info.name}")
        members = list(vars(module).items())
        for cls_name, cls in list(members):
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                members += [(f"{cls_name}.{name}", attr) for name, attr in vars(cls).items()]
        for name, obj in members:
            obj = obj.fget if isinstance(obj, property) else getattr(obj, "__func__", obj)
            obj = inspect.unwrap(obj) if callable(obj) else obj
            if isinstance(obj, types.FunctionType) \
                    and obj.__code__.co_filename == module.__file__:
                add(f"{info.name}.{name}", obj.__code__)
    return found


@pytest.mark.filterwarnings("ignore::snls_lab.spectral_grid.SpectralTailWarning")
def test_every_function_is_reached(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # the helper needs a second core
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    codes = []
    start = time.perf_counter()
    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        for i, (cfg, _) in enumerate(RUNS):
            path = tmp_path / f"config_{i}.json"
            path.write_text(json.dumps({"schema_version": 1, "seed": 3, **cfg}))
            codes.append(main([cfg["kind"], "--config", str(path), "--out",
                               str(tmp_path / f"out_{i}"), "--threads", "1"]))
    finally:
        threading.setprofile(None)
        sys.setprofile(None)
    elapsed = time.perf_counter() - start

    assert codes == [code for _, code in RUNS], capsys.readouterr().err
    functions = defined_functions()
    assert PUBLIC_HELPERS <= set(functions), PUBLIC_HELPERS - set(functions)
    unreached = sorted(name for name, code in functions.items()
                       if code not in seen and name not in PUBLIC_HELPERS)
    assert not unreached, f"functions no run reaches: {unreached}"
    assert elapsed < 3.0


def nested(code):
    """A code object and every code object defined inside it."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from nested(const)


def names_outside(module: str, names: set) -> list:
    """Functions outside ``module`` whose code names one of ``names``."""
    return sorted({name for name, code in defined_functions().items()
                   if not name.startswith(f"{module}.")
                   and any(names & set(c.co_names) for c in nested(code))})


def test_transforms_live_in_spectral_grid():
    """Every Fourier transform goes through GridSpec.forward and
    GridSpec.inverse: no code outside spectral_grid names ``fft``."""
    calling = names_outside("spectral_grid", {"fft"})
    assert not calling, f"functions that call numpy.fft directly: {calling}"


def test_files_are_written_by_harness():
    """Every output file is opened and written by harness, which sets its
    format and reports a failed write as a config error: no code outside
    harness names ``open``, ``write``, ``savetxt`` or ``tofile``."""
    writing = names_outside("harness", {"open", "write", "savetxt", "tofile"})
    assert not writing, f"functions that write files outside harness: {writing}"


def test_one_config_reader():
    """Every config file is read by RunConfig.from_file, which applies the
    run's overrides and reports an unreadable file or invalid JSON: no other
    function names ``json.load``."""
    reading = sorted(name for name, code in defined_functions().items()
                     if name != "harness.RunConfig.from_file"
                     and any({"json", "load"} <= set(c.co_names) for c in nested(code)))
    assert not reading, f"functions that parse JSON files: {reading}"


def test_public_helpers_still_used_by_the_benchmark():
    """A helper kept for the benchmark is deleted once perfbench stops
    calling it: each entry but the dump reader is named in perfbench/."""
    sources = "".join(p.read_text(encoding="utf-8") for p in PERFBENCH.glob("*.py"))
    stale = sorted(name for name in PUBLIC_HELPERS - {"harness.read_field_dump"}
                   if name.rsplit(".", 1)[-1] not in sources)
    assert not stale, f"allow-list entries perfbench no longer calls: {stale}"


def test_one_step_kernel_rotates():
    """Every row of the march, homogeneous or spatially varying, goes
    through one pointwise kernel: at most one function in ``integrator``
    calls ``np.cos`` or ``np.sin``."""
    rotating = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}")
                continue
            func = getattr(child, "func", None)
            if isinstance(child, ast.Call) and isinstance(func, ast.Attribute) \
                    and func.attr in ("cos", "sin") and isinstance(func.value, ast.Name) \
                    and func.value.id in ("np", "numpy"):
                rotating.add(owner)
            visit(child, owner)

    visit(ast.parse(Path(integrator.__file__).read_text(encoding="utf-8")), "integrator")
    assert len(rotating) <= 1, f"functions that rotate: {sorted(rotating)}"
