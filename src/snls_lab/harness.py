"""Configuration, orchestration, and file output.

Configs are JSON with a ``schema_version`` field.  :meth:`RunConfig.from_file`
is the one reader: it parses the file and applies the run's ``kind`` and
``seed`` overrides before the one validation.  Every leaf's type and
default is written once, in :data:`CONFIG_KEYS`, and one reader,
:func:`_leaves`, reads a section by it: it names the key path, never takes a
bool or a string for a number, and returns the normalized section that
``config_echo.json`` writes.  Validation is construction:
:meth:`RunConfig.from_dict` checks the run kind, the seed and the sections
the kind requires; then one builder per section reads its section, puts it
back on the config normalized, and builds the grid, the noise model, the
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

import copy
import itertools
import json
import math
import os
import re
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


# -- the config contract ---------------------------------------------------------
# Every leaf of a config as (type, default), by section, in the order it is
# read.  A type is float, int, bool, str, list or dict; [t] is a list of t;
# (t,) is a t or a list of t, read as a list; complex is a number or an
# [re, im] pair, read as the pair; a string is the section of that name, for
# the entries of a list.  The default REQUIRED makes a leaf required, and None
# leaves it out of the normalized section unless it is set: the domain object
# or the run decides.  In a section with a ``kind`` leaf, an entry that maps
# names to leaves holds the leaves of the kind of that name.  The README's
# "Config keys" table lists these keys, types and defaults, and a test holds
# it to them.

REQUIRED = object()
_TIMES_VALUES = {"times": ([float], REQUIRED), "values": ([float], REQUIRED)}
CONFIG_KEYS = {
    "": {"schema_version": (int, SCHEMA_VERSION), "kind": (str, REQUIRED),
         "seed": (int, 0), "grid": (dict, REQUIRED), "noise": (dict, REQUIRED),
         "sim": (dict, None), "initial": (dict, None), "diagnostics": (dict, {}),
         "ensemble": (dict, {}), "picard": (dict, {}), "convergence": (dict, {}),
         "output_dir": (str, "out")},
    "grid": {"dimension": (int, REQUIRED), "points": (int, REQUIRED),
             "half_length": (float, REQUIRED)},
    "noise": {"coefficients": ([complex], REQUIRED),
              "profiles": (["noise.profiles[j]"], REQUIRED),
              "densities": (["noise.densities[j]"], REQUIRED)},
    "noise.profiles[j]": {
        "kind": (str, REQUIRED),
        "gaussian-bump": {"amplitude": (float, 1.0), "width": (float, 1.0),
                          "center": ((float,), [0.0])},
        "tabulated": {"values": ([float], REQUIRED)}},
    "noise.densities[j]": {
        "kind": (str, REQUIRED), "constant": {"value": (float, REQUIRED)},
        "piecewise-constant": _TIMES_VALUES, "tabulated": _TIMES_VALUES,
        "alpha0": (float, None), "v_max": (float, None), "horizon": (float, None)},
    "sim": {"lambda": (int, REQUIRED), "alpha": (float, 3.0), "dt": (float, REQUIRED),
            "t_final": (float, REQUIRED), "scheme": (str, "rescaled"),
            "splitting": (str, "strang"), "save_every": (int, None)},
    "initial": {
        "kind": (str, REQUIRED),
        "gaussian": {"width": (float, 1.0), "center": ((float,), [0.0]),
                     "amplitude": (float, 1.0), "l2_norm": (float, None)},
        "constant": {"value": (float, 1.0)},
        "plane-wave": {"mode": ((int,), [1])}},
    "diagnostics": {"decay_fit": (bool, None), "residuals": (bool, None),
                    "field_dumps": (bool, None), "fit_window": ([float], None)},
    "ensemble": {"size": (int, REQUIRED), "lyapunov_tolerance": (float, 0.5)},
    "picard": {"horizon": (float, REQUIRED), "nodes": (int, 64),
               "max_iterations": (int, 20), "tolerance": (float, 1e-8),
               "lambda": (int, 1), "alpha": (float, 3.0), "path_dt": (float, None)},
    "convergence": {"dts": ([float], REQUIRED), "reference_dt": (float, REQUIRED)},
}

# -- typed reads ------------------------------------------------------------------

_TYPE_NAMES = {float: "a finite number", int: "an integer", bool: "a boolean",
               str: "a string", list: "a list", dict: "an object"}


def _typed(value, kind, key: str):
    """``value`` read as a :data:`CONFIG_KEYS` type; a bool or a string never
    passes as a number or an int."""
    if isinstance(kind, str):
        return _leaves(value, key)
    if isinstance(kind, tuple):
        kind, value = [kind[0]], value if isinstance(value, list) else [value]
    if isinstance(kind, list):
        value = _typed(value, list, key)
        # all floats with a finite sum, so all finite: no call per entry
        if kind[0] is float and set(map(type, value)) == {float} \
                and math.isfinite(sum(value)):
            return list(value)
        return [_typed(v, kind[0], f"{key}[{i}]") for i, v in enumerate(value)]
    if kind is complex:
        pair = (_typed(value, [float], key) if isinstance(value, list)
                else [_typed(value, float, key), 0.0])
        _require(len(pair) == 2, key, "must be a number or an [re, im] pair")
        return pair
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


def _read(section: dict, key: str, kind, default):
    """Typed read of the leaf at key path ``key`` from its ``section``; an
    absent or null leaf takes ``default``, and is an error when it is REQUIRED."""
    value = section.get(key.rsplit(".", 1)[-1])
    if value is None:
        if default is REQUIRED:
            raise ConfigError(f"{key}: missing required key")
        return copy.copy(default)
    return _typed(value, kind, key)


def _leaves(section, path: str, spec: dict | None = None) -> dict:
    """The section at key path ``path``, read leaf by leaf in
    :data:`CONFIG_KEYS` order with its defaults filled in: the normalized
    section, which reads back to itself."""
    if spec is None:
        section = _typed(section, dict, path)
        spec = CONFIG_KEYS[re.sub(r"\[\d+\]", "[j]", path)]
    out = {}
    for name, leaf in spec.items():
        if isinstance(leaf, dict):  # the leaves of one kind
            if name == out.get("kind"):
                out.update(_leaves(section, path, leaf))
        elif (value := _read(section, f"{path}.{name}", *leaf)) is not None:
            out[name] = value
    return out


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
    sim: dict | None
    initial: dict | None
    diagnostics: dict
    ensemble: dict
    picard: dict
    convergence: dict
    output_dir: str
    schema_version: int
    built: Built | None = field(default=None, init=False, compare=False, repr=False)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        """Check a parsed JSON config by building its domain objects.  The
        diagnostics, ensemble and convergence sections are normalized here,
        and each builder normalizes the section it reads."""
        _typed(raw, dict, "config")

        def read(name: str):
            return _read(raw, name, *CONFIG_KEYS[""][name])

        version = read("schema_version")
        _require(version == SCHEMA_VERSION, "schema_version",
                 f"unsupported version {version}, expected {SCHEMA_VERSION}")
        kind = read("kind")
        _require(kind in RUN_KINDS, "kind", f"must be one of {RUN_KINDS}, got {kind!r}")
        seed = read("seed")
        _require(0 <= seed < 2**64, "seed", "must be an integer in [0, 2^64)")

        grid, noise, sim, initial = map(read, ("grid", "noise", "sim", "initial"))
        diagnostics = _leaves(read("diagnostics"), "diagnostics")
        fw = diagnostics.get("fit_window")
        _require(fw is None or len(fw) == 2, "diagnostics.fit_window", "must be [t0, t1]")
        ensemble = read("ensemble")
        if ensemble:
            ensemble = _leaves(ensemble, "ensemble")
            _require(ensemble["size"] >= 1, "ensemble.size", "must be >= 1")
            _require(ensemble["size"] <= MAX_ENSEMBLE_SIZE, "ensemble.size",
                     f"{ensemble['size']} paths exceed the ceiling of {MAX_ENSEMBLE_SIZE}")
        picard = read("picard")
        convergence = read("convergence")
        if convergence:
            convergence = _normalize_convergence(_leaves(convergence, "convergence"))

        present = {"sim": sim, "initial": initial, "picard": picard,
                   "convergence": convergence}
        for name in _NEEDS[kind]:
            _require(bool(present[name]), name, f"required for kind={kind!r}")

        out_dir = read("output_dir")
        _require(bool(out_dir), "output_dir", "must be a nonempty string")
        config = cls(kind, seed, grid, noise, sim, initial, diagnostics,
                     ensemble, picard, convergence, out_dir, version)
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
            with open(path, "rb") as fh:
                text = fh.read()
        except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
            raise ConfigError(f"config: cannot read {path}: {exc}") from exc
        try:
            raw = json.loads(text.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
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


def _normalize_convergence(cv: dict) -> dict:
    dts, ref = cv["dts"], cv["reference_dt"]
    _require(len(dts) >= 3, "convergence.dts", "must list at least 3 step sizes")
    _require(all(v > 0 for v in dts), "convergence.dts", "must be positive")
    dts_sorted = sorted(dts, reverse=True)
    ratios = [dts_sorted[i] / dts_sorted[i + 1] for i in range(len(dts_sorted) - 1)]
    _require(all(abs(r - ratios[0]) <= 1e-9 * ratios[0] for r in ratios),
             "convergence.dts", "must form a strict geometric ladder")
    _require(ratios[0] > 1.0 + 1e-12, "convergence.dts", "must be strictly decreasing")
    _require(ref > 0, "convergence.reference_dt", "must be positive")
    _require(dts_sorted[0] / ref < math.inf, "convergence.reference_dt",
             f"dt={dts_sorted[0]:g} / reference_dt overflows a double")
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
        _require(math.isfinite(float(grid.k_squared.max()) * controls.horizon),
                 "picard.horizon",
                 f"{controls.horizon:g} times the largest |k|^2 overflows a double")
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
# Each reads its own section through _leaves, puts it back on the config
# normalized, and builds from it; a normalized section reads back to itself,
# so a second call builds an equal object.

def build_grid(config: RunConfig) -> GridSpec:
    config.grid = g = _leaves(config.grid, "grid")
    with _at("grid"):
        return make_grid(**g)


def build_model(config: RunConfig) -> NoiseModel:
    config.noise = nz = _leaves(config.noise, "noise")
    parts = {}
    for name, cls in (("profiles", SpatialProfile), ("densities", DensitySpec)):
        parts[name] = []
        for j, entry in enumerate(nz[name]):
            with _at(f"noise.{name}[{j}]"):
                parts[name].append(cls(**entry))
    mu = np.array([complex(*pair) for pair in nz["coefficients"]])
    with _at("noise"):
        return NoiseModel(mu, **parts)


def build_params(config: RunConfig) -> SimParams:
    config.sim = s = _leaves(config.sim, "sim")
    with _at("sim"):
        return SimParams(lam=s["lambda"], **{k: v for k, v in s.items() if k != "lambda"})


# Initial states by kind; each factory's parameters are the kind's leaves.
_INITIAL_STATES = {"gaussian": gaussian_field, "constant": constant_field,
                   "plane-wave": plane_wave}


def build_initial(config: RunConfig, grid: GridSpec) -> ComplexField:
    config.initial = init = _leaves(config.initial, "initial")
    kind = init["kind"]
    if kind not in _INITIAL_STATES:
        raise ConfigError(f"initial.kind: unknown initial kind {kind!r}")
    with _at("initial"):
        return _INITIAL_STATES[kind](grid, **{k: v for k, v in init.items() if k != "kind"})


def _picard_setup(config: RunConfig) -> tuple[PicardConfig, float, int]:
    """The checked picard controls, and the step and step count of its path."""
    config.picard = pc = _leaves(config.picard, "picard")
    _require(pc["lambda"] in (-1, 0, 1), "picard.lambda", "must be -1, 0 or 1")
    path_dt = pc.get("path_dt")
    _require(path_dt is None or path_dt > 0, "picard.path_dt", "must be positive")
    with _at("picard"):
        controls = PicardConfig(pc["horizon"], pc["nodes"], pc["max_iterations"],
                                pc["tolerance"])
        strichartz_exponent(config.grid["dimension"], pc["alpha"])
    _require(path_dt or controls.horizon / 1024.0 > 0, "picard.horizon",
             f"{controls.horizon:g} / 1024, the default path_dt, underflows to 0")
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
    if fit := config.diagnostics.get("decay_fit"):
        omega(b.model)  # the decay fit needs omega: veto before the march
    record = simulate(b.grid, b.model, b.params, b.x, seed=config.seed,
                      snapshot=snapshot)
    report = None
    if fit:
        report = decay_fit(record, b.model, config.diagnostics.get("fit_window"))
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
        out.update({k: v for k, v in asdict(report).items()
                    if k not in ("omega", "fit_window")},
                   final_mass_x=float(record.mass_x[-1]),
                   final_mass_y=float(record.mass_y[-1]))
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
    # a run with no ensemble section marches one path
    en = _leaves(config.ensemble or {"size": 1}, "ensemble")
    size, tol = en["size"], en["lyapunov_tolerance"]
    # Every path's decay fit needs omega: veto before any path marches.
    w = omega(config.built.model)
    points = config.built.grid.size
    jobs = [(config.built, config.seed, config.diagnostics.get("fit_window"), block)
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
    return validate_assumptions(config.built.model, config.built.grid)


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
        # the field's own buffer when it is contiguous and little-endian
        fh.write(np.ascontiguousarray(field.values, dtype="<c16"))


def read_field_dump(path: Path) -> tuple[ComplexField, float]:
    """Inverse of :func:`write_field_dump`."""
    with open(path, "rb") as fh:
        d, n, L, t = struct.unpack("<iidd", fh.read(24))
        grid = make_grid(d, n, L)
        values = np.frombuffer(fh.read(), dtype="<c16")
    return ComplexField(values.copy(), grid), t


def _emit_simulate(config: RunConfig, out: Path) -> None:
    writer = None
    if config.diagnostics.get("field_dumps"):
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
    if config.diagnostics.get("residuals"):
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
        except (OSError, ValueError) as exc:
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
