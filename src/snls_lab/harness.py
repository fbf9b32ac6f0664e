"""Configuration, orchestration, and file output.

Configs are JSON with a ``schema_version`` field.  A run is fully determined
by (config, master seed): per-path seeds derive from the master seed and the
path index through the documented 64-bit mix, workers share nothing mutable,
and results reduce in path-index order, so output bytes are independent of
the worker count.

Numeric output formatting is fixed: 17 significant digits, ``.`` decimal
separator, ``\n`` line endings.  Exit codes: 0 success, 2 configuration
error, 3 assumption veto, 4 numerical abort.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import seeding
from .diagnostics import (
    DecayReport,
    decay_fit,
    energy_identity_residual,
    gronwall_check,
    mass_identity_residual,
    omega,
    residual_to_csv,
)
from .errors import (
    EXIT_ASSUMPTION_VETO,
    EXIT_CONFIG_ERROR,
    EXIT_NUMERICAL_ABORT,
    EXIT_OK,
    AssumptionVeto,
    ConfigError,
    NumericalAbort,
)
from .integrator import SimParams, SolutionRecord, simulate, simulate_block
from .mild_picard import PicardConfig, picard_iterate
from .noise_process import (
    DensitySpec,
    NoiseModel,
    SpatialProfile,
    path_to_csv,
    restrict_path,
    sample_martingale,
    validate_assumptions,
)
from .spectral_grid import (
    ComplexField,
    GridSpec,
    constant_field,
    gaussian_field,
    make_grid,
    plane_wave,
)

SCHEMA_VERSION = 1
RUN_KINDS = ("simulate", "ensemble", "picard", "convergence", "validate")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _require(cond: bool, key: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{key}: {message}")


def _get(d: dict, key: str, path: str, default=None, required: bool = False):
    if key not in d:
        if required:
            raise ConfigError(f"{path}.{key}: missing required key")
        return default
    return d[key]


# -- config ---------------------------------------------------------------------

@dataclass
class RunConfig:
    """Validated, normalized run configuration (plain JSON values only)."""

    kind: str
    seed: int
    grid: dict
    noise: dict
    sim: dict | None = None
    initial: dict | None = None
    diagnostics: dict = field(default_factory=dict)
    ensemble: dict = field(default_factory=dict)
    picard: dict = field(default_factory=dict)
    convergence: dict = field(default_factory=dict)
    validate: dict = field(default_factory=dict)
    output_dir: str = "out"
    schema_version: int = SCHEMA_VERSION

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config: top level must be a JSON object")
        version = raw.get("schema_version", SCHEMA_VERSION)
        _require(version == SCHEMA_VERSION, "schema_version",
                 f"unsupported version {version}, expected {SCHEMA_VERSION}")
        kind = _get(raw, "kind", "config", required=True)
        _require(kind in RUN_KINDS, "kind", f"must be one of {RUN_KINDS}, got {kind!r}")
        seed = _get(raw, "seed", "config", default=0)
        _require(isinstance(seed, int) and 0 <= seed < 2**64, "seed",
                 "must be an integer in [0, 2^64)")

        grid = _validate_grid(_get(raw, "grid", "config", required=True))
        noise = _validate_noise(_get(raw, "noise", "config", required=True))

        sim = raw.get("sim")
        if sim is not None:
            sim = _validate_sim(sim)
        initial = raw.get("initial")
        if initial is not None:
            initial = _validate_initial(initial)
        diagnostics = _validate_diagnostics(raw.get("diagnostics", {}))
        ensemble = _validate_ensemble(raw.get("ensemble", {}))
        picard = _validate_picard(raw.get("picard", {})) if raw.get("picard") else {}
        convergence = (_validate_convergence(raw.get("convergence", {}))
                       if raw.get("convergence") else {})
        validate = raw.get("validate", {})
        if not isinstance(validate, dict):
            raise ConfigError("validate: must be an object")

        if kind in ("simulate", "ensemble", "convergence"):
            _require(sim is not None, "sim", f"required for kind={kind!r}")
            _require(initial is not None, "initial", f"required for kind={kind!r}")
        if kind == "picard":
            _require(bool(picard), "picard", "required for kind='picard'")
            _require(initial is not None, "initial", "required for kind='picard'")
        if kind == "convergence":
            _require(bool(convergence), "convergence",
                     "required for kind='convergence'")

        out_dir = raw.get("output_dir", "out")
        _require(isinstance(out_dir, str) and out_dir, "output_dir",
                 "must be a nonempty string")
        return cls(kind, seed, grid, noise, sim, initial, diagnostics,
                   ensemble, picard, convergence, validate, out_dir, SCHEMA_VERSION)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"config: cannot read {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: invalid JSON in {path}: {exc}") from exc
        return cls.from_dict(raw)

    def to_dict(self) -> dict:
        out = {
            "schema_version": self.schema_version,
            "kind": self.kind,
            "seed": self.seed,
            "grid": self.grid,
            "noise": self.noise,
            "output_dir": self.output_dir,
        }
        if self.sim is not None:
            out["sim"] = self.sim
        if self.initial is not None:
            out["initial"] = self.initial
        for name in ("diagnostics", "ensemble", "picard", "convergence", "validate"):
            value = getattr(self, name)
            if value:
                out[name] = value
        return out


def _validate_grid(g) -> dict:
    _require(isinstance(g, dict), "grid", "must be an object")
    d = _get(g, "dimension", "grid", required=True)
    n = _get(g, "points", "grid", required=True)
    L = _get(g, "half_length", "grid", required=True)
    _require(isinstance(d, int) and d in (1, 2, 3), "grid.dimension", "must be 1, 2 or 3")
    _require(isinstance(n, int) and n >= 4 and (n & (n - 1)) == 0, "grid.points",
             "must be a power of two >= 4")
    _require(isinstance(L, (int, float)) and L > 0, "grid.half_length",
             "must be positive")
    return {"dimension": d, "points": n, "half_length": float(L)}


def _validate_noise(nz) -> dict:
    _require(isinstance(nz, dict), "noise", "must be an object")
    coeffs = _get(nz, "coefficients", "noise", required=True)
    _require(isinstance(coeffs, list) and len(coeffs) >= 1, "noise.coefficients",
             "must be a nonempty list")
    norm_coeffs = []
    for i, c in enumerate(coeffs):
        if isinstance(c, (int, float)):
            norm_coeffs.append([float(c), 0.0])
        elif isinstance(c, list) and len(c) == 2 and all(
                isinstance(u, (int, float)) for u in c):
            norm_coeffs.append([float(c[0]), float(c[1])])
        else:
            raise ConfigError(
                f"noise.coefficients[{i}]: must be a number or [re, im] pair")
    n = len(norm_coeffs)

    profiles = _get(nz, "profiles", "noise", required=True)
    _require(isinstance(profiles, list) and len(profiles) == n, "noise.profiles",
             f"must list {n} profiles")
    norm_profiles = []
    for i, p in enumerate(profiles):
        key = f"noise.profiles[{i}]"
        _require(isinstance(p, dict), key, "must be an object")
        kind = _get(p, "kind", key, required=True)
        _require(kind in ("constant-one", "gaussian-bump", "tabulated"), f"{key}.kind",
                 f"unknown profile kind {kind!r}")
        entry = {"kind": kind}
        if kind == "gaussian-bump":
            entry["amplitude"] = float(p.get("amplitude", 1.0))
            entry["width"] = float(p.get("width", 1.0))
            _require(entry["width"] > 0, f"{key}.width", "must be positive")
            center = p.get("center", 0.0)
            entry["center"] = ([float(c) for c in center]
                               if isinstance(center, list) else [float(center)])
        elif kind == "tabulated":
            table = _get(p, "values", key, required=True)
            _require(isinstance(table, list) and table, f"{key}.values",
                     "must be a nonempty list")
            entry["values"] = [float(v) for v in table]
        norm_profiles.append(entry)

    densities = _get(nz, "densities", "noise", required=True)
    _require(isinstance(densities, list) and len(densities) == n, "noise.densities",
             f"must list {n} densities")
    norm_densities = []
    for i, dn in enumerate(densities):
        key = f"noise.densities[{i}]"
        _require(isinstance(dn, dict), key, "must be an object")
        kind = _get(dn, "kind", key, required=True)
        _require(kind in ("constant", "piecewise-constant", "tabulated"),
                 f"{key}.kind", f"unknown density kind {kind!r}")
        entry = {"kind": kind}
        if kind == "constant":
            entry["value"] = float(_get(dn, "value", key, required=True))
        else:
            times = _get(dn, "times", key, required=True)
            values = _get(dn, "values", key, required=True)
            _require(isinstance(times, list) and isinstance(values, list)
                     and len(times) == len(values) and times, f"{key}.times",
                     "times/values must be equal-length nonempty lists")
            entry["times"] = [float(t) for t in times]
            entry["values"] = [float(v) for v in values]
        for bound in ("alpha0", "v_max"):
            if bound in dn:
                entry[bound] = float(dn[bound])
        if "horizon" in dn and dn["horizon"] is not None:
            entry["horizon"] = float(dn["horizon"])
        norm_densities.append(entry)
    return {"coefficients": norm_coeffs, "profiles": norm_profiles,
            "densities": norm_densities}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _validate_sim(s) -> dict:
    _require(isinstance(s, dict), "sim", "must be an object")
    lam = _get(s, "lambda", "sim", required=True)
    _require(not isinstance(lam, bool) and lam in (-1, 0, 1), "sim.lambda",
             "must be -1, 0 or 1")
    alpha = s.get("alpha", 3.0)
    _require(_is_number(alpha), "sim.alpha", "must be a number")
    dt = _get(s, "dt", "sim", required=True)
    t_final = _get(s, "t_final", "sim", required=True)
    _require(_is_number(dt) and dt > 0, "sim.dt", "must be positive")
    _require(_is_number(t_final) and t_final > 0, "sim.t_final", "must be positive")
    scheme = s.get("scheme", "rescaled")
    _require(scheme in ("direct", "rescaled"), "sim.scheme",
             "must be 'direct' or 'rescaled'")
    splitting = s.get("splitting", "strang")
    _require(splitting in ("lie", "strang"), "sim.splitting",
             "must be 'lie' or 'strang'")
    out = {"lambda": lam, "alpha": float(alpha), "dt": float(dt),
           "t_final": float(t_final), "scheme": scheme, "splitting": splitting}
    if s.get("save_every") is not None:
        se = s["save_every"]
        _require(isinstance(se, int) and not isinstance(se, bool) and se >= 1,
                 "sim.save_every", "must be a positive integer")
        out["save_every"] = se
    return out


def _validate_initial(init) -> dict:
    _require(isinstance(init, dict), "initial", "must be an object")
    kind = _get(init, "kind", "initial", required=True)
    _require(kind in ("gaussian", "constant", "plane-wave"), "initial.kind",
             f"unknown initial kind {kind!r}")
    out = {"kind": kind}
    if kind == "gaussian":
        out["width"] = float(init.get("width", 1.0))
        _require(out["width"] > 0, "initial.width", "must be positive")
        center = init.get("center", 0.0)
        out["center"] = ([float(c) for c in center] if isinstance(center, list)
                         else [float(center)])
        out["amplitude"] = float(init.get("amplitude", 1.0))
        if init.get("l2_norm") is not None:
            out["l2_norm"] = float(init["l2_norm"])
            _require(out["l2_norm"] > 0, "initial.l2_norm", "must be positive")
    elif kind == "constant":
        out["value"] = float(init.get("value", 1.0))
    else:
        mode = init.get("mode", 1)
        out["mode"] = [int(m) for m in mode] if isinstance(mode, list) else [int(mode)]
    return out


def _validate_diagnostics(dg) -> dict:
    _require(isinstance(dg, dict), "diagnostics", "must be an object")
    out = {}
    if "decay_fit" in dg:
        _require(isinstance(dg["decay_fit"], bool), "diagnostics.decay_fit",
                 "must be a boolean")
        out["decay_fit"] = dg["decay_fit"]
    if dg.get("fit_window") is not None:
        fw = dg["fit_window"]
        _require(isinstance(fw, list) and len(fw) == 2 and fw[0] < fw[1],
                 "diagnostics.fit_window", "must be [t0, t1] with t0 < t1")
        out["fit_window"] = [float(fw[0]), float(fw[1])]
    if "residuals" in dg:
        _require(isinstance(dg["residuals"], bool), "diagnostics.residuals",
                 "must be a boolean")
        out["residuals"] = dg["residuals"]
    if "field_dumps" in dg:
        _require(isinstance(dg["field_dumps"], bool), "diagnostics.field_dumps",
                 "must be a boolean")
        out["field_dumps"] = dg["field_dumps"]
    return out


def _validate_ensemble(en) -> dict:
    _require(isinstance(en, dict), "ensemble", "must be an object")
    out = {}
    if en:
        size = _get(en, "size", "ensemble", required=True)
        _require(isinstance(size, int) and size >= 1, "ensemble.size", "must be >= 1")
        out["size"] = size
        out["lyapunov_tolerance"] = float(en.get("lyapunov_tolerance", 0.5))
    return out


def _validate_picard(pc) -> dict:
    _require(isinstance(pc, dict), "picard", "must be an object")
    horizon = _get(pc, "horizon", "picard", required=True)
    _require(isinstance(horizon, (int, float)) and horizon > 0, "picard.horizon",
             "must be positive")
    nodes = pc.get("nodes", 64)
    _require(isinstance(nodes, int) and nodes >= 8, "picard.nodes", "must be >= 8")
    out = {
        "horizon": float(horizon),
        "nodes": nodes,
        "max_iterations": int(pc.get("max_iterations", 20)),
        "tolerance": float(pc.get("tolerance", 1e-8)),
        "lambda": pc.get("lambda", 1),
        "alpha": float(pc.get("alpha", 3.0)),
    }
    _require(out["lambda"] in (-1, 0, 1), "picard.lambda", "must be -1, 0 or 1")
    if pc.get("path_dt") is not None:
        out["path_dt"] = float(pc["path_dt"])
        _require(out["path_dt"] > 0, "picard.path_dt", "must be positive")
    return out


def _validate_convergence(cv) -> dict:
    _require(isinstance(cv, dict), "convergence", "must be an object")
    dts = _get(cv, "dts", "convergence", required=True)
    _require(isinstance(dts, list) and len(dts) >= 3, "convergence.dts",
             "must list at least 3 step sizes")
    dts = [float(v) for v in dts]
    _require(all(v > 0 for v in dts), "convergence.dts", "must be positive")
    dts_sorted = sorted(dts, reverse=True)
    ratios = [dts_sorted[i] / dts_sorted[i + 1] for i in range(len(dts_sorted) - 1)]
    _require(all(abs(r - ratios[0]) <= 1e-9 * ratios[0] for r in ratios),
             "convergence.dts", "must form a strict geometric ladder")
    _require(ratios[0] > 1.0 + 1e-12, "convergence.dts", "must be strictly decreasing")
    ref = _get(cv, "reference_dt", "convergence", required=True)
    ref = float(ref)
    _require(ref > 0, "convergence.reference_dt", "must be positive")
    _require(min(dts) / ref >= 8.0 - 1e-9, "convergence.reference_dt",
             "must be at least 8x finer than the smallest dt")
    for v in dts:
        k = v / ref
        _require(abs(k - round(k)) < 1e-9, "convergence.reference_dt",
                 f"dt={v:g} is not an integer multiple of the reference")
    return {"dts": dts_sorted, "reference_dt": ref}


# -- builders ---------------------------------------------------------------------

def build_grid(config: RunConfig) -> GridSpec:
    g = config.grid
    return make_grid(g["dimension"], g["points"], g["half_length"])


def build_model(config: RunConfig) -> NoiseModel:
    nz = config.noise
    mu = np.array([complex(re, im) for re, im in nz["coefficients"]])
    profiles = []
    for p in nz["profiles"]:
        if p["kind"] == "constant-one":
            profiles.append(SpatialProfile("constant-one"))
        elif p["kind"] == "gaussian-bump":
            profiles.append(SpatialProfile(
                "gaussian-bump", amplitude=p["amplitude"], width=p["width"],
                center=tuple(p["center"])))
        else:
            profiles.append(SpatialProfile("tabulated",
                                           table=np.asarray(p["values"])))
    densities = []
    for i, dn in enumerate(nz["densities"]):
        try:
            if dn["kind"] == "constant":
                densities.append(DensitySpec.constant(
                    dn["value"], alpha0=dn.get("alpha0"), v_max=dn.get("v_max"),
                    horizon=dn.get("horizon", math.inf)))
            elif dn["kind"] == "piecewise-constant":
                densities.append(DensitySpec.piecewise(
                    dn["times"], dn["values"], alpha0=dn.get("alpha0"),
                    v_max=dn.get("v_max"), horizon=dn.get("horizon", math.inf)))
            else:
                densities.append(DensitySpec.tabulated(
                    dn["times"], dn["values"], alpha0=dn.get("alpha0"),
                    v_max=dn.get("v_max")))
        except ValueError as exc:
            raise ConfigError(f"noise.densities[{i}]: {exc}") from exc
    return NoiseModel(mu, profiles, densities)


def build_params(config: RunConfig, dt: float | None = None) -> SimParams:
    s = config.sim
    try:
        return SimParams(
            lam=s["lambda"], alpha=s["alpha"], dt=dt if dt is not None else s["dt"],
            t_final=s["t_final"], save_every=s.get("save_every"),
            scheme=s["scheme"], splitting=s["splitting"])
    except ValueError as exc:
        raise ConfigError(f"sim: {exc}") from exc


def build_initial(config: RunConfig, grid: GridSpec) -> ComplexField:
    init = config.initial
    if init["kind"] == "gaussian":
        return gaussian_field(grid, width=init["width"], center=init["center"],
                              amplitude=init["amplitude"],
                              l2_norm=init.get("l2_norm"))
    if init["kind"] == "constant":
        return constant_field(grid, init["value"])
    return plane_wave(grid, init["mode"])


# -- report types -------------------------------------------------------------------

_QUANTS = (0.01, 0.25, 0.5, 0.75, 0.99)


def _quantiles(values) -> dict:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return {}
    q = np.quantile(arr, _QUANTS)
    return {f"q{int(100 * p):02d}": float(v) for p, v in zip(_QUANTS, q)}


@dataclass
class EnsembleReport:
    """Per-path decay statistics and their order-independent aggregates."""

    size: int
    omega: float
    lyapunov_quantiles: dict
    lln_quantiles: dict
    fraction_passing: float
    per_path: list

    def to_json_dict(self) -> dict:
        return {
            "size": self.size,
            "omega": self.omega,
            "lyapunov": self.lyapunov_quantiles,
            "lln_ratio": self.lln_quantiles,
            "fraction_passing": self.fraction_passing,
            "per_path": self.per_path,
        }


# -- single runs ----------------------------------------------------------------------

def run_simulation(config: RunConfig) -> tuple[SolutionRecord, DecayReport | None]:
    """One integrator run per the config, plus its decay fit when requested."""
    grid = build_grid(config)
    model = build_model(config)
    params = build_params(config)
    x = build_initial(config, grid)
    record = simulate(grid, model, params, x, seed=config.seed)
    report = None
    if config.diagnostics.get("decay_fit", False):
        fw = config.diagnostics.get("fit_window")
        report = decay_fit(record, model, tuple(fw) if fw else None)
    return record, report


# Working-set budget of one ensemble block, in complex grid values: a block
# marches at most this many values divided by n^d paths at once.
BLOCK_BUDGET = 1 << 13


def _ensemble_blocks(size: int, threads: int, points: int) -> list:
    """Contiguous path-index blocks: one share per worker (the first
    ``size % workers`` one path longer), each cut to the block budget."""
    workers = max(1, min(threads, size))
    cap = max(1, BLOCK_BUDGET // points)
    blocks, start = [], 0
    for w in range(workers):
        stop = start + size // workers + (w < size % workers)
        blocks += [list(range(i, min(i + cap, stop))) for i in range(start, stop, cap)]
        start = stop
    return blocks


def _ensemble_member(args) -> list:
    """One block of ensemble paths, marched together; module-level so process
    pools can pickle it.  Returns per-path dicts in index order."""
    cfg_dict, indices = args
    config = RunConfig.from_dict(cfg_dict)
    grid = build_grid(config)
    model = build_model(config)
    params = build_params(config)
    x = build_initial(config, grid)
    seeds = [seeding.derive_seed(config.seed, index) for index in indices]
    # decay_fit and gronwall_check read only the scalar series.
    outcomes = simulate_block(grid, model, params, x, seeds, snapshots=False)
    fw = config.diagnostics.get("fit_window")
    per_path = []
    for index, record in zip(indices, outcomes):
        out: dict = {"index": index, "status": "ok"}
        per_path.append(out)
        if isinstance(record, NumericalAbort):
            out["status"] = f"aborted at time index {record.time_index}"
            continue
        report = decay_fit(record, model, tuple(fw) if fw else None)
        out.update({
            "lyapunov": report.lyapunov,
            "fitted_slope": report.fitted_slope,
            "lln_ratio": report.lln_ratio,
            "margin": report.margin,
            "final_mass_x": float(record.mass_x[-1]),
            "final_mass_y": float(record.mass_y[-1]),
        })
        if params.scheme == "rescaled":
            env = gronwall_check(record, model)
            out["gronwall_violations"] = env["violations"]
            out["e0_monotone"] = env["monotone"]
    return per_path


def run_ensemble(config: RunConfig, threads: int = 1) -> EnsembleReport:
    """Monte Carlo ensemble over deterministically derived per-path seeds.

    Paths run in contiguous index blocks, one share per worker, and each
    block marches its paths as one array.  Every path is bitwise the same
    whatever block it lands in, and aggregation is by path index, so the
    report is byte-identical for any worker count.
    """
    size = config.ensemble.get("size", 1)
    tol = config.ensemble.get("lyapunov_tolerance", 0.5)
    cfg_dict = config.to_dict()
    points = config.grid["points"] ** config.grid["dimension"]
    jobs = [(cfg_dict, block) for block in _ensemble_blocks(size, threads, points)]
    if threads > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=min(threads, len(jobs))) as pool:
            blocks = list(pool.map(_ensemble_member, jobs))
    else:
        blocks = [_ensemble_member(job) for job in jobs]
    per_path = [entry for block in blocks for entry in block]

    model = build_model(config)
    w = omega(model)
    lyaps = [p["lyapunov"] for p in per_path if p["status"] == "ok"]
    llns = [p["lln_ratio"] for p in per_path if p["status"] == "ok"]
    passing = sum(1 for v in lyaps if v <= -w + tol)
    frac = passing / len(lyaps) if lyaps else 0.0
    return EnsembleReport(
        size=size,
        omega=w,
        lyapunov_quantiles=_quantiles(lyaps),
        lln_quantiles=_quantiles(llns),
        fraction_passing=frac,
        per_path=per_path,
    )


def run_convergence(config: RunConfig) -> dict:
    """Pathwise self-convergence study against a reference refinement.

    One path is sampled at the reference step and coarsened onto each ladder
    step by summing increments, so all runs see the same noise.
    """
    grid = build_grid(config)
    model = build_model(config)
    x = build_initial(config, grid)
    dts = config.convergence["dts"]
    ref_dt = config.convergence["reference_dt"]
    t_final = config.sim["t_final"]

    ref_params = build_params(config, dt=ref_dt)
    ref_steps = ref_params.n_steps
    master = sample_martingale(model, ref_dt, ref_steps, config.seed)
    ref_record = simulate(grid, model, ref_params, x, seed=config.seed, path=master)
    ref_final = ref_record.final_x.values
    ref_norm = math.sqrt(grid.cell_volume * float(np.vdot(ref_final, ref_final).real))

    errors = []
    for dt in dts:
        factor = int(round(dt / ref_dt))
        coarse = restrict_path(master, factor)
        params = build_params(config, dt=dt)
        rec = simulate(grid, model, params, x, seed=config.seed, path=coarse)
        diff = rec.final_x.values - ref_final
        errors.append(math.sqrt(grid.cell_volume * float(np.vdot(diff, diff).real)))

    floor = 1e-12 * max(ref_norm, 1.0)
    if max(errors) < floor:
        order: float | str = "exact"
    else:
        order = float(np.polyfit(np.log(dts), np.log(errors), 1)[0])
    return {"dts": list(dts), "errors": errors, "order": order,
            "reference_dt": ref_dt, "t_final": t_final}


def run_picard(config: RunConfig):
    """Fixed-point iteration run per the config."""
    grid = build_grid(config)
    model = build_model(config)
    x = build_initial(config, grid)
    pc = config.picard
    horizon = pc["horizon"]
    path_dt = pc.get("path_dt", horizon / 1024.0)
    n_steps = max(1, int(math.ceil(horizon / path_dt - 1e-12)))
    path = sample_martingale(model, path_dt, n_steps, config.seed)
    picard_config = PicardConfig(horizon=horizon, nodes=pc["nodes"],
                                 max_iterations=pc["max_iterations"],
                                 tolerance=pc["tolerance"])
    return picard_iterate(x, model, path, picard_config, pc["lambda"], pc["alpha"])


def run_validate(config: RunConfig):
    grid = build_grid(config)
    model = build_model(config)
    horizon = config.validate.get("horizon")
    if horizon is None and config.sim is not None:
        horizon = config.sim["t_final"]
    if horizon is None:
        raise ConfigError("validate.horizon: required when sim.t_final is absent")
    return validate_assumptions(model, grid, float(horizon))


# -- file output ------------------------------------------------------------------------

def _write_json(path: Path, obj: dict) -> None:
    def _default(o):
        if isinstance(o, (np.integer,)):
            return int(o)
        if isinstance(o, (np.floating,)):
            return float(o)
        raise TypeError(f"not JSON serializable: {type(o)}")

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_default)
        fh.write("\n")


def save_series_csv(record: SolutionRecord, path: Path) -> None:
    """Scalar series CSV: t, mass_X, mass_y, ReM, Q_1..Q_N at every step."""
    n = record.path.n_components
    header = ["t", "mass_X", "mass_y", "ReM"] + [f"Q_{j + 1}" for j in range(n)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for k in range(record.times.size):
            row = [_fmt(record.times[k]), _fmt(record.mass_x[k]),
                   _fmt(record.mass_y[k]), _fmt(record.re_m[k])]
            row += [_fmt(record.path.qv[j, k]) for j in range(n)]
            fh.write(",".join(row) + "\n")


def write_field_dump(field: ComplexField, t: float, path: Path) -> None:
    """Binary snapshot, little-endian: int32 d, int32 n, float64 L, float64 t,
    then n^d complex doubles (re, im interleaved)."""
    g = field.grid
    with open(path, "wb") as fh:
        fh.write(struct.pack("<iidd", g.dimension, g.points, g.half_length, t))
        fh.write(field.values.astype("<c16").tobytes())


def read_field_dump(path: Path) -> tuple[ComplexField, float]:
    """Inverse of :func:`write_field_dump`."""
    with open(path, "rb") as fh:
        d, n, L, t = struct.unpack("<iidd", fh.read(24))
        grid = make_grid(d, n, L)
        values = np.frombuffer(fh.read(), dtype="<c16")
    return ComplexField(values.copy(), grid), t


def _emit_simulate(config: RunConfig, out: Path) -> None:
    record, report = run_simulation(config)
    save_series_csv(record, out / "series.csv")
    with open(out / "path.csv", "w", encoding="utf-8", newline="\n") as fh:
        path_to_csv(record.path, fh)
    if report is not None:
        _write_json(out / "decay_report.json", report.to_json_dict())
    if config.diagnostics.get("residuals", False):
        model = build_model(config)
        mass_res = mass_identity_residual(record, model)
        with open(out / "mass_residual.csv", "w", encoding="utf-8", newline="\n") as fh:
            residual_to_csv(mass_res, fh)
        if record.scheme == "rescaled":
            energy_res = energy_identity_residual(record, model)
            with open(out / "energy_residual.csv", "w", encoding="utf-8",
                      newline="\n") as fh:
                residual_to_csv(energy_res, fh)
    if config.diagnostics.get("field_dumps", False):
        for i, k in enumerate(record.snapshot_indices):
            write_field_dump(record.snapshots_x[i], float(record.times[k]),
                             out / f"field_{i:04d}.bin")


def run(config_file_path, kind: str | None = None, out_dir: str | None = None,
        seed: int | None = None, threads: int | None = None) -> int:
    """Execute a config file and write its artifacts; returns the exit code.

    ``kind``, ``out_dir`` and ``seed`` override the config; ``threads``
    falls back to the SNLS_LAB_THREADS environment variable, then 1.
    """
    if threads is None:
        env = os.environ.get("SNLS_LAB_THREADS")
        try:
            threads = int(env) if env else 1
        except ValueError:
            print(f"error: SNLS_LAB_THREADS: not an integer: {env!r}", file=sys.stderr)
            return EXIT_CONFIG_ERROR
    try:
        config = RunConfig.from_file(config_file_path)
        if kind is not None and kind != config.kind:
            if kind not in RUN_KINDS:
                raise ConfigError(f"kind: unknown run kind {kind!r}")
            # re-validate: the required sections depend on the kind
            raw = config.to_dict()
            raw["kind"] = kind
            config = RunConfig.from_dict(raw)
        if seed is not None:
            if not (0 <= seed < 2**64):
                raise ConfigError("seed: must be in [0, 2^64)")
            config.seed = seed
        out = Path(out_dir if out_dir is not None else config.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "config_echo.json", config.to_dict())

        if config.kind == "simulate":
            _emit_simulate(config, out)
        elif config.kind == "ensemble":
            report = run_ensemble(config, threads=threads)
            _write_json(out / "ensemble_report.json", report.to_json_dict())
        elif config.kind == "picard":
            report = run_picard(config)
            _write_json(out / "picard_report.json", report.to_json_dict())
        elif config.kind == "convergence":
            _write_json(out / "convergence.json", run_convergence(config))
        else:
            report = run_validate(config)
            _write_json(out / "validation_report.json", report.to_dict())
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except AssumptionVeto as exc:
        print(f"assumption veto: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION_VETO
    except NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ABORT
