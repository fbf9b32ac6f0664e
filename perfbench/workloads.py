"""The benchmark's workloads: inputs made from a seed, and the gates that
check each run's output files.

A workload is a list of run configs (one per ``harness.run`` call in a
round) plus a gate.  Every config in a run is derived from the one
``--seed`` the benchmark was given, so repeats of a seed see identical
inputs and must write byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

PICARD_HORIZONS = (0.025, 0.05, 0.1, 0.2, 0.4)

# Mass identity residual gate.  The residual is the gap between the
# discrete mass and its discrete Ito sum; it grows with the mass, which the
# noise can lift tenfold, so it is bounded as a share of the largest
# ||X(t_k)||^2 of the run.  The largest share seen on simulate_bump_3d was
# 0.042 (seeds 0..39).
MASS_RESIDUAL_BOUND = 0.15


class GateFailure(Exception):
    """An output file fails its workload's correctness gate."""


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int
    work_unit: str  # "path_steps" or "picard_iterations"
    configs: Callable[[int, bool], list]
    gate: Callable[[str, dict], int]  # checks one output dir, returns work done


UNIT_DENSITY = {"kind": "constant", "value": 1.0, "alpha0": 1.0, "v_max": 1.0}


# -- inputs ----------------------------------------------------------------------

def ensemble_configs(seed: int, smoke: bool) -> list:
    # The acceptance decay ensemble (criteria 2 and 3) at a reduced path
    # count: V(s) = 1.5 + 0.5 sin s tabulated on the 25,001 step times.
    t_final = 10.0 if smoke else 50.0
    t = np.arange(0, t_final + 2e-3, 2e-3)
    return [{
        "schema_version": 1, "kind": "ensemble", "seed": seed,
        "grid": {"dimension": 1, "points": 512, "half_length": 16.0},
        "noise": {"coefficients": [[1.0, 0.5]], "profiles": [{"kind": "constant-one"}],
                  "densities": [{"kind": "tabulated", "times": t.tolist(),
                                 "values": (1.5 + 0.5 * np.sin(t)).tolist(),
                                 "alpha0": 1.0, "v_max": 2.0}]},
        "sim": {"lambda": 1, "alpha": 3.0, "dt": 2e-3, "t_final": t_final,
                "scheme": "rescaled", "splitting": "strang"},
        "initial": {"kind": "gaussian", "width": 1.0},
        "ensemble": {"size": 4, "lyapunov_tolerance": 0.5},
    }]


def bump_3d_configs(seed: int, smoke: bool) -> list:
    # 512 steps keep the 513 snapshots (and so the memory) that a 1,000-step
    # run keeps, because the default snapshot stride is ceil(steps / 512).
    points, steps = (16, 32) if smoke else (32, 512)
    return [{
        "schema_version": 1, "kind": "simulate", "seed": seed,
        "grid": {"dimension": 3, "points": points, "half_length": 8.0},
        "noise": {"coefficients": [[0.5, 0.0], [0.5, 0.0]],
                  "profiles": [{"kind": "gaussian-bump", "amplitude": 1.0,
                                "width": 2.0, "center": [0.0, 0.0, 0.0]},
                               {"kind": "constant-one"}],
                  "densities": [UNIT_DENSITY, UNIT_DENSITY]},
        "sim": {"lambda": 1, "alpha": 2.0, "dt": 1e-3, "t_final": steps * 1e-3,
                "scheme": "direct", "splitting": "strang"},
        "initial": {"kind": "gaussian", "width": 1.0},
        "diagnostics": {"residuals": True, "field_dumps": True},
    }]


def picard_configs(seed: int, smoke: bool) -> list:
    points, nodes, horizons = (32, 16, PICARD_HORIZONS[:2]) if smoke \
        else (128, 128, PICARD_HORIZONS)
    return [{
        "schema_version": 1, "kind": "picard", "seed": seed,
        "grid": {"dimension": 2, "points": points, "half_length": 16.0},
        "noise": {"coefficients": [[1.0, 0.5]], "profiles": [{"kind": "constant-one"}],
                  "densities": [UNIT_DENSITY]},
        "initial": {"kind": "gaussian", "width": 1.0, "l2_norm": 1.0},
        "picard": {"horizon": h, "nodes": nodes, "lambda": 1, "alpha": 2.0,
                   "max_iterations": 20, "tolerance": 1e-8},
    } for h in horizons]


# -- gates -----------------------------------------------------------------------

def _load_json(out: str, name: str) -> dict:
    path = os.path.join(out, name)
    if not os.path.isfile(path):
        raise GateFailure(f"{name} missing")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _csv_columns(out: str, name: str, rows: int) -> np.ndarray:
    path = os.path.join(out, name)
    if not os.path.isfile(path):
        raise GateFailure(f"{name} missing")
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise GateFailure(f"{name} unreadable: {exc}") from exc
    if data.shape[0] != rows or not np.all(np.isfinite(data)):
        raise GateFailure(f"{name}: expected {rows} finite rows, got {data.shape[0]}")
    return data


def _n_steps(cfg: dict) -> int:
    return int(round(cfg["sim"]["t_final"] / cfg["sim"]["dt"]))


def _check_mass_residual(out: str, cfg: dict) -> None:
    rows = _n_steps(cfg) + 1
    bound = MASS_RESIDUAL_BOUND * _csv_columns(out, "series.csv", rows)[:, 1].max()
    worst = float(np.abs(_csv_columns(out, "mass_residual.csv", rows)[:, 1]).max())
    if not worst <= bound:
        raise GateFailure(f"mass_residual.csv: max |R| = {worst:.3e} exceeds {bound:.3e}")


def ensemble_gate(out: str, cfg: dict) -> int:
    rep = _load_json(out, "ensemble_report.json")
    paths = rep["per_path"]
    if len(paths) != cfg["ensemble"]["size"]:
        raise GateFailure(f"{len(paths)} paths reported, {cfg['ensemble']['size']} run")
    bad = [p["index"] for p in paths if p["status"] != "ok"]
    if bad:
        raise GateFailure(f"paths {bad} not ok")
    median = float(np.median([p["lyapunov"] for p in paths]))
    if not median <= -rep["omega"] + 0.05:
        raise GateFailure(f"median Lyapunov {median:.4f} > -omega + 0.05")
    violations = sum(p["gronwall_violations"] for p in paths)
    if violations:
        raise GateFailure(f"{violations} Gronwall envelope violations")
    return len(paths) * _n_steps(cfg)


def bump_3d_gate(out: str, cfg: dict) -> int:
    from snls_lab.harness import read_field_dump

    _check_mass_residual(out, cfg)
    steps = _n_steps(cfg)
    stride = max(1, math.ceil(steps / 512))
    expected = len(set(range(0, steps + 1, stride)) | {steps})
    dumps = sorted(f for f in os.listdir(out) if f.startswith("field_"))
    if len(dumps) != expected:
        raise GateFailure(f"{len(dumps)} field dumps, expected {expected}")
    g = cfg["grid"]
    last_t = -math.inf
    for name in dumps:
        path = os.path.join(out, name)
        try:
            field, t = read_field_dump(path)
        except (ValueError, struct.error) as exc:
            raise GateFailure(f"{name} unreadable: {exc}") from exc
        grid = field.grid
        if (grid.dimension, grid.points, grid.half_length) != \
                (g["dimension"], g["points"], g["half_length"]) or not t > last_t:
            raise GateFailure(f"{name}: header does not match the run")
        last_t = t
        again = struct.pack("<iidd", grid.dimension, grid.points, grid.half_length, t) \
            + field.values.astype("<c16").tobytes()
        with open(path, "rb") as fh:
            if fh.read() != again:
                raise GateFailure(f"{name} does not round-trip")
    return steps


def picard_gate(out: str, cfg: dict) -> int:
    rep = _load_json(out, "picard_report.json")
    if not rep["converged"]:
        raise GateFailure(f"horizon {cfg['picard']['horizon']} did not converge")
    if not all(r < 1.0 for r in rep["ratios"]):
        raise GateFailure(f"horizon {cfg['picard']['horizon']}: a ratio >= 1")
    return int(rep["iterations"])


def digest(out: str) -> str:
    """sha256 over every file of an output directory, by name then bytes."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out, name), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


# The acceptance suite's worker count.
POOL_THREADS = min(2, os.cpu_count() or 1)

WORKLOADS = {w.name: w for w in (
    Workload("ensemble_decay_1d", POOL_THREADS, "path_steps", ensemble_configs,
             ensemble_gate),
    Workload("simulate_bump_3d", 1, "path_steps", bump_3d_configs, bump_3d_gate),
    Workload("picard_sweep_2d", 1, "picard_iterations", picard_configs, picard_gate),
)}
