"""Configuration, orchestration, and file output.

Configs are JSON with a ``schema_version`` field.  :meth:`RunConfig.from_file`
is the one reader: it parses the file and applies the run's ``kind`` and
``seed`` overrides before the one validation.  Validation is
construction: :meth:`RunConfig.from_dict` checks the run kind, the seed and
the sections the kind requires; then one builder per section reads its
leaves through one typed reader, which names the key path and never takes a
bool or a string for a number, puts the normalized section back on the
config for ``config_echo.json``, and builds the grid, the noise model, the
initial state, the parameters or the Picard controls.  Their constructors
make the range checks, and a ``ValueError``/``TypeError`` they raise becomes
a :class:`ConfigError` prefixed with the key path.  The harness checks only
what no domain object owns: the run kind, the seed, the sections each kind
requires, the convergence ladder, and how the built objects fit the run
(density horizons, the fit window, a zero-mass state).
The built objects are kept on the config (:class:`Built`, never serialised),
so each is built once per run: every runner uses them, and ensemble workers
receive them instead of a config to parse again.

A run is fully determined by (config, master seed): per-path seeds derive
from the master seed and the path index through the documented 64-bit mix,
workers share nothing mutable, and results reduce in path-index order, so
output bytes are independent of the worker count.

Numeric output formatting is fixed: 17 significant digits, ``.`` decimal
separator, ``\n`` line endings.  Exit codes: 0 success, 2 configuration
error, 3 assumption veto, 4 numerical abort.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import seeding
from .diagnostics import (
    MASS_FLOOR,
    DecayReport,
    decay_fit,
    energy_identity_residual,
    gronwall_check,
    mass_identity_residual,
    omega,
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
from .integrator import MAX_STEPS, SimParams, SolutionRecord, simulate, simulate_block
from .mild_picard import PicardConfig, picard_iterate, strichartz_exponent
from .noise_process import (
    DensitySpec,
    NoiseModel,
    SpatialProfile,
    restrict_path,
    sample_martingale,
    validate_assumptions,
)
from .spectral_grid import (
    MAX_GRID_VALUES,
    ComplexField,
    GridSpec,
    constant_field,
    gaussian_field,
    make_grid,
    norm_L2,
    plane_wave,
)

SCHEMA_VERSION = 1
# Most paths an ensemble may run: each keeps a per-path dict in memory and
# about 355 bytes of ensemble_report.json.
MAX_ENSEMBLE_SIZE = 10**6
RUN_KINDS = ("simulate", "ensemble", "picard", "convergence", "validate")
# The sections each run kind needs besides grid and noise.
_NEEDS = {"simulate": ("sim", "initial"), "ensemble": ("sim", "initial"),
          "picard": ("picard", "initial"), "convergence": ("sim", "initial", "convergence"),
          "validate": ()}


def _require(cond: bool, key: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{key}: {message}")


# -- typed reads ------------------------------------------------------------------

_REQUIRED = object()
_TYPE_NAMES = {float: "a finite number", int: "an integer", bool: "a boolean",
               str: "a string", list: "a list", dict: "an object"}


def _typed(value, kind, key: str):
    """``value`` as ``kind`` (float, int, bool, str, list, dict, or ``[k]`` for
    a list of k); a bool or a string never passes as a number or an int."""
    if isinstance(kind, list):
        value = _typed(value, list, key)
        # all floats with a finite sum, so all finite: no call per entry
        if kind[0] is float and set(map(type, value)) == {float} \
                and math.isfinite(sum(value)):
            return list(value)
        return [_typed(v, kind[0], f"{key}[{i}]") for i, v in enumerate(value)]
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is float:
        ok = number and -sys.float_info.max <= value <= sys.float_info.max
    elif kind is int:
        ok = number and isinstance(value, int)
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ConfigError(f"{key}: must be {_TYPE_NAMES[kind]}, got {value!r:.40}")
    return float(value) if kind is float else value


def _read(section: dict, key: str, kind, default=_REQUIRED):
    """Typed read of the leaf at key path ``key`` from its ``section``; an
    absent or null leaf takes ``default``, and is an error when there is none."""
    value = section.get(key.rsplit(".", 1)[-1])
    if value is None:
        if default is _REQUIRED:
            raise ConfigError(f"{key}: missing required key")
        return default
    return _typed(value, kind, key)


def _vector(section: dict, key: str, kind, default: list) -> list:
    """A scalar or a list of ``kind``, read as a list."""
    value = section.get(key.rsplit(".", 1)[-1])
    if value is None:
        return default
    return _typed(value if isinstance(value, list) else [value], [kind], key)


@contextmanager
def _at(path: str):
    """Report a domain constructor's ValueError or TypeError as a ConfigError
    at ``path``; the constructors' messages start with the leaf key."""
    try:
        yield
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}.{exc}") from exc


# -- config ---------------------------------------------------------------------

@dataclass(frozen=True)
class Built:
    """The domain objects of a config, built once by :meth:`RunConfig.from_dict`.

    ``ladder`` maps each convergence step (the ladder and the reference) to
    the run parameters at that step; ``picard`` holds the picard controls
    with the step and step count of their path.
    """

    grid: GridSpec
    model: NoiseModel
    x: ComplexField | None
    params: SimParams | None
    ladder: dict
    picard: tuple | None


@dataclass
class RunConfig:
    """Validated, normalized run configuration: plain JSON values, plus the
    domain objects built from them (``built``; not serialised or compared)."""

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
    built: Built | None = field(default=None, init=False, compare=False, repr=False)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        """Check a parsed JSON config by building its domain objects; each
        builder normalizes the section it reads."""
        _typed(raw, dict, "config")
        version = _read(raw, "schema_version", int, SCHEMA_VERSION)
        _require(version == SCHEMA_VERSION, "schema_version",
                 f"unsupported version {version}, expected {SCHEMA_VERSION}")
        kind = _read(raw, "kind", str)
        _require(kind in RUN_KINDS, "kind", f"must be one of {RUN_KINDS}, got {kind!r}")
        seed = _read(raw, "seed", int, 0)
        _require(0 <= seed < 2**64, "seed", "must be an integer in [0, 2^64)")

        grid, noise = _read(raw, "grid", dict), _read(raw, "noise", dict)
        sim, initial = _read(raw, "sim", dict, None), _read(raw, "initial", dict, None)
        diagnostics = _normalize_diagnostics(_read(raw, "diagnostics", dict, {}))
        ensemble = _normalize_ensemble(_read(raw, "ensemble", dict, {}))
        picard = _read(raw, "picard", dict, {})
        convergence = _read(raw, "convergence", dict, {})
        convergence = _normalize_convergence(convergence) if convergence else {}
        horizon = _read(_read(raw, "validate", dict, {}), "validate.horizon", float, None)
        _require(horizon is None or horizon > 0, "validate.horizon",
                 f"must be positive, got {horizon}")
        if kind == "validate":
            _require(horizon is not None or sim is not None, "validate.horizon",
                     "required when sim.t_final is absent")
        validate = {} if horizon is None else {"horizon": horizon}

        present = {"sim": sim, "initial": initial, "picard": picard,
                   "convergence": convergence}
        for name in _NEEDS[kind]:
            _require(bool(present[name]), name, f"required for kind={kind!r}")

        out_dir = _read(raw, "output_dir", str, "out")
        _require(bool(out_dir), "output_dir", "must be a nonempty string")
        config = cls(kind, seed, grid, noise, sim, initial, diagnostics,
                     ensemble, picard, convergence, validate, out_dir, SCHEMA_VERSION)
        config.built = _construct(config)
        return config

    @classmethod
    def from_file(cls, path, kind: str | None = None,
                  seed: int | None = None) -> "RunConfig":
        """Read a config file and check it with :meth:`from_dict`; an
        unreadable file or invalid JSON is a :class:`ConfigError`.  ``kind``
        and ``seed`` override the file's before the one validation: the
        required sections depend on the kind."""
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"config: cannot read {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: invalid JSON in {path}: {exc}") from exc
        if isinstance(raw, dict):
            raw.update((k, v) for k, v in (("kind", kind), ("seed", seed)) if v is not None)
        return cls.from_dict(raw)

    def to_dict(self) -> dict:
        """The normalized config for ``config_echo.json``: every field but
        ``built`` that is set (not None and not an empty section)."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "built"}
        return {name: value for name, value in out.items()
                if value is not None and value != {}}


def _normalize_diagnostics(dg: dict) -> dict:
    out = {}
    for flag in ("decay_fit", "residuals", "field_dumps"):
        value = _read(dg, f"diagnostics.{flag}", bool, None)
        if value is not None:
            out[flag] = value
    fw = _read(dg, "diagnostics.fit_window", [float], None)
    if fw is not None:
        _require(len(fw) == 2, "diagnostics.fit_window", "must be [t0, t1]")
        out["fit_window"] = fw
    return out


def _normalize_ensemble(en: dict) -> dict:
    if not en:
        return {}
    size = _read(en, "ensemble.size", int)
    _require(size >= 1, "ensemble.size", "must be >= 1")
    _require(size <= MAX_ENSEMBLE_SIZE, "ensemble.size",
             f"{size} paths exceed the ceiling of {MAX_ENSEMBLE_SIZE}")
    return {"size": size,
            "lyapunov_tolerance": _read(en, "ensemble.lyapunov_tolerance", float, 0.5)}


def _normalize_convergence(cv: dict) -> dict:
    dts = _read(cv, "convergence.dts", [float])
    _require(len(dts) >= 3, "convergence.dts", "must list at least 3 step sizes")
    _require(all(v > 0 for v in dts), "convergence.dts", "must be positive")
    dts_sorted = sorted(dts, reverse=True)
    ratios = [dts_sorted[i] / dts_sorted[i + 1] for i in range(len(dts_sorted) - 1)]
    _require(all(abs(r - ratios[0]) <= 1e-9 * ratios[0] for r in ratios),
             "convergence.dts", "must form a strict geometric ladder")
    _require(ratios[0] > 1.0 + 1e-12, "convergence.dts", "must be strictly decreasing")
    ref = _read(cv, "convergence.reference_dt", float)
    _require(ref > 0, "convergence.reference_dt", "must be positive")
    _require(min(dts) / ref >= 8.0 - 1e-9, "convergence.reference_dt",
             "must be at least 8x finer than the smallest dt")
    for v in dts:
        k = v / ref
        _require(abs(k - round(k)) < 1e-9, "convergence.reference_dt",
                 f"dt={v:g} is not an integer multiple of the reference")
    return {"dts": dts_sorted, "reference_dt": ref}


def _construct(config: RunConfig) -> Built:
    """Build every domain object the config describes, so that their
    constructors check it, and check that the built objects fit the run."""
    grid = build_grid(config)
    model = build_model(config)
    for j, profile in enumerate(model.profiles):
        with _at(f"noise.profiles[{j}]"):
            profile.sample(grid)
    x = build_initial(config, grid) if config.initial is not None else None
    params, ladder, picard = None, {}, None
    fits = config.kind == "ensemble" or (
        config.kind == "simulate" and config.diagnostics.get("decay_fit"))
    run_end = 0.0  # how far the run samples the noise
    if config.sim is not None:
        params = build_params(config)
        with _at("sim"):
            params.validate_alpha(grid.dimension)
        cv = config.convergence
        steps = [("convergence.dts", dt) for dt in cv.get("dts", ())]
        if cv:
            steps.append(("convergence.reference_dt", cv["reference_dt"]))
        for key, dt in steps:
            try:
                ladder[dt] = replace(params, dt=dt)
            except ValueError as exc:
                raise ConfigError(f"{key}: step {dt:g} does not fit sim.t_final "
                                  f"({exc})") from exc
        if config.kind != "validate":
            run_end = params.dt * params.n_steps
        if fits:
            _require(params.t_final**2 >= sys.float_info.min, "sim.dt",
                     f"{params.dt:g} is too small for a decay fit: the fit's "
                     f"squared times up to t_final = {params.t_final:g} underflow")
        fw = config.diagnostics.get("fit_window")
        if fw:
            times = params.dt * np.arange(params.n_steps + 1)
            inside = np.count_nonzero((times >= fw[0]) & (times <= fw[1]))
            _require(0.0 <= fw[0] < fw[1] <= params.t_final and inside >= 2,
                     "diagnostics.fit_window",
                     f"must lie in the run [0, {params.t_final:g}] and span two steps")
        elif fits:
            # the default window drops the first tenth of the run
            _require(params.n_steps >= 2, "sim.t_final",
                     "a decay fit over the default window needs at least two steps")
    if config.picard:
        picard = controls, path_dt, n_steps = _picard_setup(config)
        _require(controls.nodes * grid.size <= MAX_GRID_VALUES, "picard.nodes",
                 f"{controls.nodes} nodes of {grid.size} grid values exceed the "
                 f"ceiling of {MAX_GRID_VALUES}")
        if config.kind == "picard":
            run_end = path_dt * n_steps
    for j, dns in enumerate(model.densities):
        _require(run_end <= dns.horizon * (1.0 + 1e-12), f"noise.densities[{j}]",
                 f"horizon {dns.horizon:g} ends before the run ({run_end:g})")
    if config.kind != "validate":
        with np.errstate(over="ignore"):  # the mass the march records at index 0
            mass = x.mass
        _require(math.isfinite(mass), "initial", "the state's mass overflows a double")
        if fits or config.kind == "picard":
            _require(mass > MASS_FLOOR, "initial",
                     "zero mass; decay fits and picard runs need a nonzero state")
    return Built(grid, model, x, params, ladder, picard)


# -- builders ---------------------------------------------------------------------
# Each reads its own section, puts it back on the config normalized, and builds
# from it; a normalized section reads back to itself, so a second call builds
# an equal object.

def _given(section: dict, path: str, kind, keys) -> dict:
    """The optional leaves among ``keys`` that ``section`` sets, typed."""
    found = {key: _read(section, f"{path}.{key}", kind, None) for key in keys}
    return {key: value for key, value in found.items() if value is not None}


def build_grid(config: RunConfig) -> GridSpec:
    g = config.grid
    config.grid = g = {"dimension": _read(g, "grid.dimension", int),
                       "points": _read(g, "grid.points", int),
                       "half_length": _read(g, "grid.half_length", float)}
    with _at("grid"):
        return make_grid(**g)


def build_model(config: RunConfig) -> NoiseModel:
    nz = config.noise
    coeffs = []
    for i, c in enumerate(_read(nz, "noise.coefficients", list)):
        key = f"noise.coefficients[{i}]"
        pair = (_typed(c, [float], key) if isinstance(c, list)
                else [_typed(c, float, key), 0.0])
        _require(len(pair) == 2, key, "must be a number or an [re, im] pair")
        coeffs.append(pair)

    profiles = []
    for i, p in enumerate(_read(nz, "noise.profiles", list)):
        key = f"noise.profiles[{i}]"
        p = _typed(p, dict, key)
        entry = {"kind": _read(p, f"{key}.kind", str)}
        if entry["kind"] == "gaussian-bump":
            entry["amplitude"] = _read(p, f"{key}.amplitude", float, 1.0)
            entry["width"] = _read(p, f"{key}.width", float, 1.0)
            entry["center"] = _vector(p, f"{key}.center", float, [0.0])
        elif entry["kind"] == "tabulated":
            entry["values"] = _read(p, f"{key}.values", [float])
        profiles.append(entry)

    densities = []
    for i, dn in enumerate(_read(nz, "noise.densities", list)):
        key = f"noise.densities[{i}]"
        dn = _typed(dn, dict, key)
        entry = {"kind": _read(dn, f"{key}.kind", str)}
        if entry["kind"] == "constant":
            entry["value"] = _read(dn, f"{key}.value", float)
        elif entry["kind"] in ("piecewise-constant", "tabulated"):
            entry["times"] = _read(dn, f"{key}.times", [float])
            entry["values"] = _read(dn, f"{key}.values", [float])
        entry.update(_given(dn, key, float, ("alpha0", "v_max", "horizon")))
        densities.append(entry)
    config.noise = {"coefficients": coeffs, "profiles": profiles, "densities": densities}

    parts = {}
    for name, cls in (("profiles", SpatialProfile), ("densities", DensitySpec)):
        parts[name] = []
        for j, entry in enumerate(config.noise[name]):
            with _at(f"noise.{name}[{j}]"):
                parts[name].append(cls(**entry))
    mu = np.array([complex(re, im) for re, im in coeffs])
    with _at("noise"):
        return NoiseModel(mu, **parts)


def build_params(config: RunConfig) -> SimParams:
    s = config.sim
    config.sim = s = {"lambda": _read(s, "sim.lambda", int),
                      "alpha": _read(s, "sim.alpha", float, 3.0),
                      "dt": _read(s, "sim.dt", float),
                      "t_final": _read(s, "sim.t_final", float),
                      "scheme": _read(s, "sim.scheme", str, "rescaled"),
                      "splitting": _read(s, "sim.splitting", str, "strang"),
                      **_given(s, "sim", int, ("save_every",))}
    with _at("sim"):
        return SimParams(lam=s["lambda"], **{k: v for k, v in s.items() if k != "lambda"})


# Initial states by kind; each factory's parameters are the section's keys.
_INITIAL_STATES = {"gaussian": gaussian_field, "constant": constant_field,
                   "plane-wave": plane_wave}


def build_initial(config: RunConfig, grid: GridSpec) -> ComplexField:
    init = config.initial
    kind = _read(init, "initial.kind", str)
    if kind == "gaussian":
        leaves = {"width": _read(init, "initial.width", float, 1.0),
                  "center": _vector(init, "initial.center", float, [0.0]),
                  "amplitude": _read(init, "initial.amplitude", float, 1.0),
                  **_given(init, "initial", float, ("l2_norm",))}
    elif kind == "constant":
        leaves = {"value": _read(init, "initial.value", float, 1.0)}
    elif kind == "plane-wave":
        leaves = {"mode": _vector(init, "initial.mode", int, [1])}
    else:
        raise ConfigError(f"initial.kind: unknown initial kind {kind!r}")
    config.initial = {"kind": kind, **leaves}
    with _at("initial"):
        return _INITIAL_STATES[kind](grid, **leaves)


def _picard_setup(config: RunConfig) -> tuple[PicardConfig, float, int]:
    """The checked picard controls, and the step and step count of its path."""
    pc = config.picard
    leaves = {"horizon": _read(pc, "picard.horizon", float),
              "nodes": _read(pc, "picard.nodes", int, 64),
              "max_iterations": _read(pc, "picard.max_iterations", int, 20),
              "tolerance": _read(pc, "picard.tolerance", float, 1e-8)}
    config.picard = {**leaves, "lambda": _read(pc, "picard.lambda", int, 1),
                     "alpha": _read(pc, "picard.alpha", float, 3.0)}
    _require(config.picard["lambda"] in (-1, 0, 1), "picard.lambda",
             "must be -1, 0 or 1")
    path_dt = _read(pc, "picard.path_dt", float, None)
    if path_dt is not None:
        _require(path_dt > 0, "picard.path_dt", "must be positive")
        config.picard["path_dt"] = path_dt
    with _at("picard"):
        controls = PicardConfig(**leaves)
        strichartz_exponent(config.grid["dimension"], config.picard["alpha"])
    path_dt = path_dt or controls.horizon / 1024.0
    steps = controls.horizon / path_dt
    _require(steps <= MAX_STEPS, "picard.path_dt",
             f"horizon/path_dt = {steps:.6g} steps exceeds the ceiling of "
             f"{MAX_STEPS} steps")
    return controls, path_dt, max(1, int(math.ceil(steps - 1e-12)))


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
    lyapunov: dict
    lln_ratio: dict
    fraction_passing: float | None
    per_path: list


# -- single runs ----------------------------------------------------------------------

def run_simulation(config: RunConfig,
                   snapshot=None) -> tuple[SolutionRecord, DecayReport | None]:
    """One integrator run per the config, plus its decay fit when requested;
    ``snapshot`` receives the saved fields (see :func:`integrator.simulate`)."""
    b = config.built
    record = simulate(b.grid, b.model, b.params, b.x, seed=config.seed,
                      snapshot=snapshot)
    report = None
    if config.diagnostics.get("decay_fit", False):
        report = decay_fit(record, b.model, _fit_window(config))
    return record, report


def _fit_window(config: RunConfig) -> tuple | None:
    fw = config.diagnostics.get("fit_window")
    return tuple(fw) if fw else None


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
    pools can pickle it.  ``args`` is (built objects, master seed, fit window,
    path indices).  Returns per-path dicts in index order."""
    built, master_seed, fit_window, indices = args
    model, params = built.model, built.params
    paths = [sample_martingale(model, params.dt, params.n_steps,
                               seeding.derive_seed(master_seed, index))
             for index in indices]
    # decay_fit and gronwall_check read only the scalar series.
    outcomes = simulate_block(built.grid, model, params, built.x, paths)
    per_path = []
    for index, record in zip(indices, outcomes):
        out: dict = {"index": index, "status": "ok"}
        per_path.append(out)
        if isinstance(record, NumericalAbort):
            out["status"] = f"aborted at time index {record.time_index}"
            continue
        try:
            report = decay_fit(record, model, fit_window)
        except NumericalAbort as exc:
            out["status"] = f"unfitted: mass underflows at time index {exc.time_index}"
            continue
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
    report is byte-identical for any worker count.  A path that aborts, or
    whose mass underflows before the fit window, is reported by its status
    and left out of the quantiles.  At most one worker per core runs.
    """
    threads = min(threads, os.cpu_count() or 1)
    size = config.ensemble.get("size", 1)
    tol = config.ensemble.get("lyapunov_tolerance", 0.5)
    # Every path's decay fit needs omega: veto before any path marches.
    w = omega(config.built.model)
    points = config.built.grid.size
    jobs = [(config.built, config.seed, _fit_window(config), block)
            for block in _ensemble_blocks(size, threads, points)]
    if threads > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=min(threads, len(jobs))) as pool:
            blocks = list(pool.map(_ensemble_member, jobs))
    else:
        blocks = [_ensemble_member(job) for job in jobs]
    per_path = [entry for block in blocks for entry in block]
    lyaps = [p["lyapunov"] for p in per_path if p["status"] == "ok"]
    llns = [p["lln_ratio"] for p in per_path if p["status"] == "ok"]
    passing = sum(1 for v in lyaps if v <= -w + tol)
    frac = passing / len(lyaps) if lyaps else None  # no path could be fitted
    return EnsembleReport(
        size=size,
        omega=w,
        lyapunov=_quantiles(lyaps),
        lln_ratio=_quantiles(llns),
        fraction_passing=frac,
        per_path=per_path,
    )


def run_convergence(config: RunConfig) -> dict:
    """Pathwise self-convergence study against a reference refinement.

    One path is sampled at the reference step and coarsened onto each ladder
    step by summing increments, so all runs see the same noise.
    """
    b = config.built
    grid, model, x = b.grid, b.model, b.x
    dts = config.convergence["dts"]
    ref_dt = config.convergence["reference_dt"]
    t_final = config.sim["t_final"]

    ref_params = b.ladder[ref_dt]
    ref_steps = ref_params.n_steps
    master = sample_martingale(model, ref_dt, ref_steps, config.seed)
    ref_record = simulate(grid, model, ref_params, x, path=master)
    ref_final = ref_record.final_x.values
    ref_norm = norm_L2(ref_record.final_x)

    errors = []
    for dt in dts:
        factor = int(round(dt / ref_dt))
        coarse = restrict_path(master, factor)
        rec = simulate(grid, model, b.ladder[dt], x, path=coarse)
        errors.append(norm_L2(ComplexField(rec.final_x.values - ref_final, grid)))

    floor = 1e-12 * max(ref_norm, 1.0)
    if max(errors) < floor:
        order: float | str = "exact"
    else:
        order = float(np.polyfit(np.log(dts), np.log(errors), 1)[0])
    return {"dts": list(dts), "errors": errors, "order": order,
            "reference_dt": ref_dt, "t_final": t_final}


def run_picard(config: RunConfig):
    """Fixed-point iteration run per the config."""
    b = config.built
    controls, path_dt, n_steps = b.picard
    path = sample_martingale(b.model, path_dt, n_steps, config.seed)
    pc = config.picard
    return picard_iterate(b.x, b.model, path, controls, pc["lambda"], pc["alpha"])


def run_validate(config: RunConfig):
    horizon = config.validate.get("horizon")
    if horizon is None:
        horizon = config.sim["t_final"]
    return validate_assumptions(config.built.model, config.built.grid, horizon)


# -- file output ------------------------------------------------------------------------

@contextmanager
def _output(path: Path, binary: bool = False):
    """``path`` opened to write (text: UTF-8, ``\n`` endings); an OSError from
    opening, writing or closing it is a :class:`ConfigError`."""
    try:
        with (open(path, "wb") if binary else
              open(path, "w", encoding="utf-8", newline="\n")) as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"output_dir: cannot write {path}: {exc}") from exc


def _write_json(path: Path, obj: dict) -> None:
    with _output(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def save_series_csv(path: Path, columns: dict) -> None:
    """CSV of equal-length columns under their names, 17 significant digits."""
    with _output(path) as fh:
        np.savetxt(fh, np.column_stack(list(columns.values())), fmt="%.17g",
                   delimiter=",", header=",".join(columns), comments="")


def write_field_dump(field: ComplexField, t: float, path: Path) -> None:
    """Binary snapshot, little-endian: int32 d, int32 n, float64 L, float64 t,
    then n^d complex doubles (re, im interleaved)."""
    g = field.grid
    with _output(path, binary=True) as fh:
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
    writer = None
    if config.diagnostics.get("field_dumps", False):
        dumps = itertools.count()

        def writer(k: int, t: float, x: ComplexField) -> None:
            write_field_dump(x, t, out / f"field_{next(dumps):04d}.bin")

    record, report = run_simulation(config, snapshot=writer)
    path = record.path
    m = {f"M_{j + 1}": values for j, values in enumerate(path.values)}
    q = {f"Q_{j + 1}": qv for j, qv in enumerate(path.qv)}
    save_series_csv(out / "series.csv", {"t": record.times, "mass_X": record.mass_x,
                                         "mass_y": record.mass_y, "ReM": record.re_m, **q})
    save_series_csv(out / "path.csv", {"t": path.times, **m, **q})
    if report is not None:
        _write_json(out / "decay_report.json", asdict(report))
    if config.diagnostics.get("residuals", False):
        res = mass_identity_residual(record)
        save_series_csv(out / "mass_residual.csv", {"t": res.times, "residual": res.values})
        if record.scheme == "rescaled":
            res = energy_identity_residual(record, config.built.model)
            save_series_csv(out / "energy_residual.csv",
                            {"t": res.times, "residual": res.values})


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
        config = RunConfig.from_file(config_file_path, kind, seed)
        out = Path(out_dir if out_dir is not None else config.output_dir)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"output_dir: cannot create {out}: {exc}") from exc
        _write_json(out / "config_echo.json", config.to_dict())

        if config.kind == "simulate":
            _emit_simulate(config, out)
        elif config.kind == "ensemble":
            report = run_ensemble(config, threads=threads)
            _write_json(out / "ensemble_report.json", asdict(report))
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
