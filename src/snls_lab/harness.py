"""Configuration, orchestration, and file output.

Configs are JSON with a ``schema_version`` field.  :meth:`RunConfig.from_file`
is the one reader: it parses the file and applies the run's ``kind`` and
``seed`` overrides before the one validation.  Every leaf's type and
default is written once, in :data:`CONFIG_KEYS`, and one reader,
:func:`_leaves`, reads a section by it: it names the key path, never takes a
bool or a string for a number, and returns the normalized section that
``config_echo.json`` writes; the top level is one such section.  Validation
is construction: :meth:`RunConfig.from_dict` checks the run kind, the seed
and the sections the kind requires; then one builder per section reads its
section, puts it back on the config normalized, and builds the grid, the
noise model, the initial state, the parameters or the Picard controls.
Their constructors make the range checks, and a ``ValueError``/``TypeError``
they raise becomes a :class:`ConfigError` prefixed with the key path.  The
harness checks only what no domain object owns: the run kind, the seed, the
sections each kind requires, the convergence ladder, picard's ``lambda``,
``path_dt`` and step ceiling, and how the built objects fit the run (density
horizons, the fit window, a zero-mass state).
The built objects are kept on the config (:class:`Built`, never serialised),
so each is built once per run: every runner uses them, and the ensemble's
path function receives them instead of a config to parse again.

A run is fully determined by (config, master seed): per-path seeds derive
from the master seed and the path index through the documented 64-bit mix,
workers share nothing mutable, and the ensemble's map returns paths in index
order, so output bytes are independent of the worker count.

Numeric output formatting is fixed: CSV values with 17 significant digits,
JSON with the bytes of ``json.dumps(obj, indent=2, sort_keys=True,
allow_nan=False)`` (shortest float repr), ``.`` decimal separator, ``\n``
line endings.  Exit codes: 0 success, 2 configuration error, 3 assumption
veto, 4 numerical abort.
"""

from __future__ import annotations

import copy
import functools
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
from json.encoder import encode_basestring_ascii
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
from .integrator import MAX_STEPS, SimParams, SolutionRecord, identity_outcome, simulate
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
        elif (value := _read(section, f"{path}.{name}" if path else name, *leaf)) is not None:
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

    schema_version: int
    kind: str
    seed: int
    grid: dict
    noise: dict
    diagnostics: dict
    ensemble: dict
    picard: dict
    convergence: dict
    output_dir: str
    sim: dict | None = None
    initial: dict | None = None
    built: Built | None = field(default=None, init=False, compare=False, repr=False)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        """Check a parsed JSON config by building its domain objects.  The top
        level is read by :data:`CONFIG_KEYS`, the diagnostics, ensemble and
        convergence sections are normalized here, and each builder normalizes
        the section it reads."""
        top = _leaves(_typed(raw, dict, "config"), "", CONFIG_KEYS[""])
        version, kind = top["schema_version"], top["kind"]
        _require(version == SCHEMA_VERSION, "schema_version",
                 f"unsupported version {version}, expected {SCHEMA_VERSION}")
        _require(kind in RUN_KINDS, "kind", f"must be one of {RUN_KINDS}, got {kind!r}")
        _require(0 <= top["seed"] < 2**64, "seed", "must be an integer in [0, 2^64)")

        top["diagnostics"] = _leaves(top["diagnostics"], "diagnostics")
        fw = top["diagnostics"].get("fit_window")
        _require(fw is None or len(fw) == 2, "diagnostics.fit_window", "must be [t0, t1]")
        if en := top["ensemble"]:
            top["ensemble"] = en = _leaves(en, "ensemble")
            _require(en["size"] >= 1, "ensemble.size", "must be >= 1")
            _require(en["size"] <= MAX_ENSEMBLE_SIZE, "ensemble.size",
                     f"{en['size']} paths exceed the ceiling of {MAX_ENSEMBLE_SIZE}")
        if top["convergence"]:
            top["convergence"] = _normalize_convergence(
                _leaves(top["convergence"], "convergence"))
        for name in _NEEDS[kind]:
            _require(bool(top.get(name)), name, f"required for kind={kind!r}")
        _require(bool(top["output_dir"]), "output_dir", "must be a nonempty string")
        config = cls(**top)
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
    fit = config.diagnostics.get("decay_fit")
    w = omega(b.model) if fit else None  # the fit needs omega: veto before the march
    record = simulate(b.grid, b.model, b.params, b.x, seed=config.seed,
                      snapshot=snapshot)
    return record, decay_fit(record, w, config.diagnostics.get("fit_window")) if fit else None


def _ensemble_member(built: Built, w: float, fit_window, master_seed: int,
                     index: int) -> dict:
    """Ensemble path ``index``'s dict, every number from the mass identity
    (``integrator.identity_outcome``) of the path drawn at its derived seed,
    fitted against the ensemble's rate ``w``; the function the ensemble maps,
    traced by name in perfbench/spans.py."""
    model, params = built.model, built.params
    path = sample_martingale(model, params.dt, params.n_steps,
                             seeding.derive_seed(master_seed, index))
    identity = identity_outcome(built.grid, model, params, built.x, path)
    out: dict = {"index": index, "status": "ok"}
    if isinstance(identity, NumericalAbort):  # the path's abort
        out["status"] = f"aborted at time index {identity.time_index}"
        return out
    try:
        report = decay_fit(identity, w, fit_window)
    except NumericalAbort as exc:
        out["status"] = f"unfitted: mass underflows at time index {exc.time_index}"
        return out
    out.update({k: v for k, v in asdict(report).items() if k not in ("omega", "fit_window")},
               final_mass_x=float(identity.mass_x[-1]),
               final_mass_y=float(identity.mass_y[-1]))
    if params.scheme == "rescaled":
        env = gronwall_check(identity, w)
        out.update(gronwall_violations=env["violations"], e0_monotone=env["monotone"])
    return out


def run_ensemble(config: RunConfig, threads: int = 1) -> EnsembleReport:
    """Monte Carlo ensemble over deterministically derived per-path seeds.

    :func:`_ensemble_member` is mapped over the path indices in contiguous
    chunks of ceil(size / threads) paths (threads at most the cores), one per
    worker process, or in this process when one chunk holds them all.  An
    ensemble's noise is homogeneous (omega vetoes any other), so each path's
    numbers are its mass identity, an exact functional of the path; no field
    is marched or checked.  Each path depends on its own seed alone and the
    map keeps index order, so the report is byte-identical for any worker
    count.  A path that aborts, or whose mass underflows before the fit
    window, is reported by its status and left out of the quantiles.
    """
    # a run with no ensemble section takes one path
    en = config.ensemble or _leaves({"size": 1}, "ensemble")
    size, tol = en["size"], en["lyapunov_tolerance"]
    # Every path's decay fit needs omega: veto before any path is sampled.
    w = omega(config.built.model)
    member = functools.partial(_ensemble_member, config.built, w,
                               config.diagnostics.get("fit_window"), config.seed)
    chunk = math.ceil(size / max(1, min(threads, os.cpu_count() or 1)))
    workers = math.ceil(size / chunk)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_path = list(pool.map(member, range(size), chunksize=chunk))
    else:
        per_path = list(map(member, range(size)))
    lyaps = [p["lyapunov"] for p in per_path if p["status"] == "ok"]
    llns = [p["lln_ratio"] for p in per_path if p["status"] == "ok"]
    passing = sum(1 for v in lyaps if v <= -w + tol)
    frac = passing / len(lyaps) if lyaps else None  # no path could be fitted
    return EnsembleReport(size, w, _quantiles(lyaps), _quantiles(llns), frac, per_path)


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
        with np.errstate(over="ignore"):
            errors.append(norm_L2(ComplexField(rec.final_x.values - ref_final, grid)))
        if not math.isfinite(errors[-1]):
            raise NumericalAbort(f"convergence: the error at dt={dt:g} overflows a double")

    floor = 1e-12 * max(ref_norm, 1.0)
    if max(errors) < floor:
        order: float | str = "exact"
    else:
        if 0.0 in errors:
            raise NumericalAbort(f"convergence: the error at dt={dts[errors.index(0.0)]:g} "
                                 "is 0 while another is not, so the order is not finite")
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


# Items of a float-only list joined at a time.  A slice's item strings and
# text are small beside the report's encoded chunks, so the writer peaks near
# the report's size: 1.05x for a 1.2 MB config echo (tracemalloc), where one
# join of a 25k-item list would add about 2 MB.
JSON_SLICE = 512


def _json_scalar(o) -> str | None:
    """The JSON text of a str, None, bool, int or float; None for any other."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if not math.isfinite(o):
            raise ValueError(f"Out of range float values are not JSON compliant: {o!r}")
        return float.__repr__(o)
    return None


def _json_into(chunks: list, o, newline: str, markers: set) -> None:
    """Append the encoded chunks of ``o`` as the stdlib encoder writes it
    with ``indent=2, sort_keys=True, allow_nan=False``, raising its errors;
    ``newline`` is a line break and the indent of o's level, and ``markers``
    holds the ids of the containers that enclose o."""
    text = _json_scalar(o)
    if text is not None:
        chunks.append(text.encode())
        return
    if not isinstance(o, (list, tuple, dict)):
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
    brackets = "{}" if isinstance(o, dict) else "[]"
    if not o:
        chunks.append(brackets.encode())
        return
    if id(o) in markers:
        raise ValueError("Circular reference detected")
    markers.add(id(o))
    inner = newline + "  "
    sep = "," + inner
    chunks.append((brackets[0] + inner).encode())
    if isinstance(o, dict):
        for i, (key, value) in enumerate(sorted(o.items())):
            name = key if isinstance(key, str) else _json_scalar(key)
            if name is None:
                raise TypeError("keys must be str, int, float, bool or None, "
                                f"not {key.__class__.__name__}")
            chunks.append(((sep if i else "") + encode_basestring_ascii(name) + ": ").encode())
            _json_into(chunks, value, inner, markers)
    elif set(map(type, o)) == {float}:
        # float.__repr__ is each item's text: one join per slice
        for start in range(0, len(o), JSON_SLICE):
            part = o[start:start + JSON_SLICE]
            text = sep.join(map(float.__repr__, part))
            if "n" in text:  # "nan" or "inf": the first one raises
                for x in part:
                    _json_scalar(x)
            if start:
                chunks.append(sep.encode())
            chunks.append(text.encode())
    else:
        for i, value in enumerate(o):
            if i:
                chunks.append(sep.encode())
            _json_into(chunks, value, inner, markers)
    chunks.append((newline + brackets[1]).encode())
    markers.remove(id(o))


def _write_json(path: Path, obj: dict) -> None:
    # the bytes of json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    # and "\n", encoded whole before the file opens, so an encoding error
    # leaves no file; the stdlib's indent encoder runs a generator per value
    chunks: list = []
    _json_into(chunks, obj, "\n", set())
    chunks.append(b"\n")
    with _output(path, binary=True) as fh:
        fh.writelines(chunks)


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
        # wide enough for the last dump's number, so names sort in save order:
        # the dump at n_steps comes after one per stride below it
        params = config.built.params
        width = max(4, len(str(len(range(0, params.n_steps, params.save_stride)))))

        def writer(k: int, t: float, x: ComplexField) -> None:
            write_field_dump(x, t, out / f"field_{next(dumps):0{width}d}.bin")

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
        seed: int | None = None, threads: int = 1) -> int:
    """Execute a config file and write its artifacts; returns the exit code.

    ``kind``, ``out_dir`` and ``seed`` override the config; ``out_dir`` is
    held to the rule of ``output_dir`` and is not written into the echo.
    ``threads`` is the ensemble's worker count (see :func:`run_ensemble`).
    """
    try:
        config = RunConfig.from_file(config_file_path, kind, seed)
        out_dir = config.output_dir if out_dir is None else out_dir
        _require(bool(out_dir), "output_dir", "must be a nonempty string")
        out = Path(out_dir)
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
