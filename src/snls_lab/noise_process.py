"""Driving martingales and assumption validation.

Each noise component j carries a complex coefficient mu_j, a real spatial
profile e_j(xi), and a quadratic-variation density V_j(t).  The component
martingales are synthesized as time-changed Brownian motions,

    dM_j(k) = sqrt(V_j(t_k) * dt) * xi_{j,k},    xi i.i.d. standard normal,

which is the minimal construction matching the prescribed bracket
d<M_j> = V_j dt in law at grid resolution.  Density evaluation within a step
uses the left endpoint (the non-anticipating convention used throughout the
package).  Per-component streams derive from (seed, path index, component
index) through the documented mix in :mod:`snls_lab.seeding`, so sampling is
reproducible independent of thread scheduling.

Assumptions reported by :func:`validate_assumptions`:

* ``h1`` - spatial decay: the weighted magnitude
  zeta(xi) * (|e| + |grad e| + |lap e|) falls off at large radius, with
  zeta = 1+|xi|^2 (or the extra squared-log factor in dimension 2).  Checked
  only as a finite-grid proxy on the outer radial shell.
* ``h3`` - the densities are uniformly bounded in time.  This holds by
  construction: :class:`DensitySpec` accepts only values inside its declared
  band alpha0 <= V <= v_max, and every evaluation selects or linearly
  interpolates those values.
* ``h4`` - spatially homogeneous nondegenerate damping regime: every profile
  is constant-one, every Re(mu_j) is nonzero, and every density is bounded
  below by a strictly positive alpha0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import seeding
from .spectral_grid import (
    GridSpec,
    gaussian_values,
    gradient_spectral,
    laplacian_spectral,
)

_BOUND_SLACK = 1e-12  # relative slack when checking declared density bounds
DENSITY_KINDS = ("constant", "piecewise-constant", "tabulated")
PROFILE_KINDS = ("constant-one", "gaussian-bump", "tabulated")


# -- quadratic-variation densities ---------------------------------------------

@dataclass(frozen=True)
class DensitySpec:
    """Density V(t) of a component's quadratic variation.

    ``alpha0`` and ``v_max`` are the declared lower and upper bounds; every
    evaluation on [0, horizon] must respect them.  Left unset they default
    to the least and greatest given value.  Kinds:

    * ``constant``: V(t) = value.
    * ``piecewise-constant``: V(t) = values[i] on [times[i], times[i+1]),
      with times[0] = 0; the last piece extends to the horizon.
    * ``tabulated``: linear interpolation of (times, values); the horizon is
      capped at times[-1].
    """

    kind: str
    alpha0: float | None = None
    v_max: float | None = None
    value: float | None = None
    times: np.ndarray | None = None
    values: np.ndarray | None = None
    horizon: float = math.inf

    def __post_init__(self):
        if self.kind not in DENSITY_KINDS:
            raise ValueError(f"kind: must be one of {DENSITY_KINDS}, got {self.kind!r}")
        if self.kind == "constant":
            if self.value is None:
                raise ValueError("value: required for a constant density")
            name, v = "value", np.asarray([self.value], dtype=float)
        else:
            if self.times is None or self.values is None:
                raise ValueError(f"times: {self.kind} density needs times and values")
            t = np.asarray(self.times, dtype=float)
            name, v = "values", np.asarray(self.values, dtype=float)
            if t.ndim != 1 or v.ndim != 1 or t.size != v.size or t.size < 1:
                raise ValueError("times: must be a nonempty 1-D list as long as values")
            if t[0] != 0.0:
                raise ValueError("times: must start at 0")
            if np.any(np.diff(t) <= 0):
                raise ValueError("times: must be strictly increasing")
            object.__setattr__(self, "times", t)
            object.__setattr__(self, "values", v)
            if self.kind == "tabulated":
                object.__setattr__(self, "horizon", min(self.horizon, float(t[-1])))
        if not np.all(np.isfinite(v)):
            raise ValueError(f"{name}: must be finite")
        if np.any(v < 0):
            raise ValueError(f"{name}: must be nonnegative")
        if self.alpha0 is None:
            object.__setattr__(self, "alpha0", float(v.min()))
        if self.v_max is None:
            object.__setattr__(self, "v_max", max(float(v.max()), 1e-300))
        if self.alpha0 < 0:
            raise ValueError(f"alpha0: must be >= 0, got {self.alpha0}")
        if not (self.v_max > 0) or not np.isfinite(self.v_max):
            raise ValueError(f"v_max: must be positive and finite, got {self.v_max}")
        if self.alpha0 > self.v_max:
            raise ValueError(f"alpha0: {self.alpha0} exceeds v_max {self.v_max}")
        slack = _BOUND_SLACK * max(1.0, self.v_max)
        if np.any(v < self.alpha0 - slack) or np.any(v > self.v_max + slack):
            raise ValueError(
                f"{name}: outside the declared band [{self.alpha0}, {self.v_max}]"
            )

    def evaluate(self, t) -> np.ndarray:
        """V at the given times (vectorized)."""
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            return np.full(t.shape, float(self.value))
        if self.kind == "piecewise-constant":
            idx = np.clip(np.searchsorted(self.times, t, side="right") - 1, 0, None)
            return self.values[idx]
        return np.interp(t, self.times, self.values)


# -- spatial profiles -----------------------------------------------------------

@dataclass(frozen=True)
class SpatialProfile:
    """Real spatial profile e(xi) of one noise component.

    ``constant-one`` realizes the spatially homogeneous regime exactly; its
    derivatives are identically zero by construction, not by differentiation.
    """

    kind: str
    amplitude: float = 1.0
    width: float = 1.0
    center: tuple = (0.0,)
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise ValueError(f"kind: must be one of {PROFILE_KINDS}, got {self.kind!r}")
        if self.kind == "gaussian-bump" and not self.width > 0:
            raise ValueError(f"width: must be positive, got {self.width}")
        if self.kind == "tabulated":
            if self.values is None:
                raise ValueError("values: a tabulated profile needs a table")
            tab = np.asarray(self.values, dtype=float).reshape(-1)
            if not np.all(np.isfinite(tab)):
                raise ValueError("values: the table must be finite")
            object.__setattr__(self, "values", tab)
        if not isinstance(self.center, tuple):
            object.__setattr__(self, "center", tuple(np.atleast_1d(self.center).tolist()))

    @property
    def spatially_constant(self) -> bool:
        return self.kind == "constant-one"

    def sample(self, grid: GridSpec) -> np.ndarray:
        """Profile values on the grid, flat row-major, real."""
        if self.kind == "constant-one":
            return np.ones(grid.size)
        if self.kind == "gaussian-bump":
            return gaussian_values(grid, self.width, self.center, self.amplitude)
        if self.values.size != grid.size:
            raise ValueError(
                f"values: {self.values.size} table entries for a grid of {grid.size} points"
            )
        return self.values


# -- the model -------------------------------------------------------------------

@dataclass
class NoiseModel:
    """Coefficients, profiles, and densities of the driving noise."""

    mu: np.ndarray
    profiles: list
    densities: list

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.mu, dtype=np.complex128))
        if mu.size < 1:
            raise ValueError("coefficients: at least one component is required")
        for name, items in (("profiles", self.profiles), ("densities", self.densities)):
            if len(items) != mu.size:
                raise ValueError(f"{name}: {len(items)} entries for {mu.size} coefficients")
        self.mu = mu
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(self.ito_correction)
        if not finite.all():
            j = int(finite.argmin())
            raise ValueError(f"coefficients: the Ito correction (mu_j^2 + |mu_j|^2)/2 of "
                             f"mu_{j} = {mu[j]} overflows a double")

    @property
    def n_components(self) -> int:
        return self.mu.size

    @property
    def spatially_homogeneous(self) -> bool:
        return all(p.spatially_constant for p in self.profiles)

    @property
    def ito_correction(self) -> np.ndarray:
        """(mu_j^2 + |mu_j|^2) / 2, the Ito correction per unit dQ_j."""
        return 0.5 * (self.mu**2 + np.abs(self.mu) ** 2)

    @property
    def min_alpha0(self) -> float:
        return min(d.alpha0 for d in self.densities)

    @property
    def horizon(self) -> float:
        return min(d.horizon for d in self.densities)

    def h4_failures(self) -> list[str]:
        """Witness strings for every violated part of the h4 regime."""
        out = []
        for j, p in enumerate(self.profiles):
            if not p.spatially_constant:
                out.append(f"profiles[{j}]: not constant-one ({p.kind})")
        for j in range(self.n_components):
            if self.mu[j].real == 0.0:
                out.append(f"coefficients[{j}]: Re mu = 0 (purely imaginary)")
        for j, dns in enumerate(self.densities):
            if not (dns.alpha0 > 0.0):
                out.append(f"densities[{j}]: lower bound alpha0 = {dns.alpha0}")
        return out

    def sample_profiles(self, grid: GridSpec) -> np.ndarray:
        """All profiles on a grid, shape (N, n^d)."""
        return np.stack([p.sample(grid) for p in self.profiles])


# -- sampled paths ----------------------------------------------------------------

@dataclass
class MartingalePath:
    """One realization of all component martingales on a uniform time grid.

    ``values[j, k]`` is M_j(t_k) with M_j(0) = 0; ``increments[j, k]`` spans
    [t_k, t_{k+1}); ``qv[j, k]`` is the cumulative quadratic variation with
    left-endpoint increments V_j(t_k) * dt; ``density_values[j, k]`` keeps the
    left-endpoint density samples so a path can be coarsened without the model.
    """

    times: np.ndarray
    values: np.ndarray
    increments: np.ndarray
    density_values: np.ndarray
    qv: np.ndarray
    dt: float

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    @property
    def n_components(self) -> int:
        return self.values.shape[0]

    @property
    def dqv(self) -> np.ndarray:
        return self.density_values * self.dt

    def real_part_series(self, mu: np.ndarray) -> np.ndarray:
        """sum_j Re(mu_j) M_j(t_k) for every grid time."""
        return np.asarray(mu).real @ self.values

    def complex_series(self, mu: np.ndarray) -> np.ndarray:
        """sum_j mu_j M_j(t_k): the spatially constant part of the noise field."""
        return np.asarray(mu) @ self.values.astype(np.complex128)


def sample_martingale(model: NoiseModel, dt: float, n_steps: int,
                      seed: int) -> MartingalePath:
    """Sample all component martingales over n_steps steps of size dt.

    Deterministic in (model, dt, n_steps, seed); component j draws from the
    stream ``derive_seed(seed, 0, j)``.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    horizon = model.horizon
    if dt * n_steps > horizon * (1.0 + 1e-12):
        raise ValueError(
            f"requested horizon {dt * n_steps:g} exceeds the density horizon {horizon:g}"
        )

    n = model.n_components
    times = dt * np.arange(n_steps + 1)
    left = times[:-1]
    density_values = np.empty((n, n_steps))
    increments = np.empty((n, n_steps))
    for j, dns in enumerate(model.densities):
        density_values[j] = v = dns.evaluate(left)
        stream = seeding.derive_seed(seed, 0, j)
        xi = seeding.normals(stream, n_steps)
        increments[j] = np.sqrt(v * dt) * xi

    values = np.zeros((n, n_steps + 1))
    np.cumsum(increments, axis=1, out=values[:, 1:])
    qv = np.zeros((n, n_steps + 1))
    np.cumsum(density_values * dt, axis=1, out=qv[:, 1:])
    return MartingalePath(times, values, increments, density_values, qv, dt)


def restrict_path(path: MartingalePath, factor: int) -> MartingalePath:
    """Coarsen a path by an integer factor: increments sum, the density is
    re-sampled at the coarse left endpoints.

    The coarse path is exactly the fine martingale observed on the coarse
    grid, which is what couples runs at different step sizes pathwise.
    """
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    if factor == 1:
        return path
    k = path.n_steps
    if k % factor != 0:
        raise ValueError(f"step count {k} is not divisible by factor {factor}")
    times = path.times[::factor]
    values = path.values[:, ::factor]
    increments = np.add.reduceat(path.increments, np.arange(0, k, factor), axis=1)
    density = path.density_values[:, ::factor]
    dt = path.dt * factor
    qv = np.zeros((path.n_components, times.size))
    np.cumsum(density * dt, axis=1, out=qv[:, 1:])
    return MartingalePath(times, values, increments, density, qv, dt)


# -- assumption validation -----------------------------------------------------------

@dataclass
class AssumptionReport:
    """Per-assumption pass/fail with human-readable witnesses."""

    h1: bool
    h3: bool
    h4: bool
    witnesses: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "h1": "pass" if self.h1 else "fail",
            "h3": "pass" if self.h3 else "fail",
            "h4": "pass" if self.h4 else "fail",
            "witnesses": self.witnesses,
        }


def zeta_weight(grid: GridSpec) -> np.ndarray:
    """The radial weight 1+|xi|^2, with the extra (log(3+|xi|^2))^2 in d = 2."""
    r2 = (grid.coordinates() ** 2).sum(axis=0)
    w = 1.0 + r2
    if grid.dimension == 2:
        w = w * np.log(3.0 + r2) ** 2
    return w


def _shell_monotone_decrease(radii, weighted) -> bool:
    """Binned means of ``weighted`` non-increasing over six bins of the outer
    25% shell."""
    n_bins = 6
    r_max = radii.max()
    shell = radii >= 0.75 * r_max
    r = radii[shell]
    w = weighted[shell]
    edges = np.linspace(r.min(), r_max, n_bins + 1)
    means = []
    for i in range(n_bins):
        upper = edges[i + 1] + (1e-12 if i == n_bins - 1 else 0.0)
        mask = (r >= edges[i]) & (r < upper)
        if np.any(mask):
            means.append(w[mask].mean())
    means = np.asarray(means)
    if means.size < 2:
        return True
    slack = 1e-9 * max(means.max(), 1e-300)
    return bool(np.all(np.diff(means) <= slack) and means[-1] <= means[0] + slack)


def validate_assumptions(model: NoiseModel, grid: GridSpec) -> AssumptionReport:
    """Check the assumption flags on a grid.

    Failures are report entries, never exceptions.  The spatial-decay check
    (h1) is a finite-grid proxy: the true assumption is asymptotic and cannot
    be decided from samples.  h3 passes on every horizon, since every density
    lies in its declared band (see the module docstring).
    """
    witnesses: dict = {}

    # h1: zeta-weighted magnitude decays on the outer radial shell.
    h1 = True
    radii = grid.radii()
    zeta = zeta_weight(grid)
    for j, prof in enumerate(model.profiles):
        e = prof.sample(grid)
        # h1 is homogeneous of degree one in e: take it on e / max|e|, whose
        # derivatives cannot overflow
        if (top := np.abs(e).max()) > 0:
            e = e / top
        if prof.spatially_constant:
            grad_mag = np.zeros(grid.size)
            lap_mag = np.zeros(grid.size)
        else:
            grad = gradient_spectral(e, grid)
            grad_mag = np.sqrt((np.abs(grad) ** 2).sum(axis=0))
            lap_mag = np.abs(laplacian_spectral(e, grid))
        weighted = zeta * (np.abs(e) + grad_mag + lap_mag)
        # Spectral differentiation carries roundoff of order |e| * k_max^2 * eps;
        # values below that scale are numerically zero, not structure.
        floor = 8.0 * np.finfo(float).eps * (1.0 + grid.k_squared.max()) \
            * np.abs(e).max() * zeta
        weighted = np.where(weighted <= floor, 0.0, weighted)
        if not _shell_monotone_decrease(radii, weighted):
            h1 = False
            witnesses[f"h1.profiles[{j}]"] = (
                "zeta-weighted magnitude does not decrease on the outer radial shell"
            )

    # h4: homogeneous, nondegenerate damping regime.
    failures = model.h4_failures()
    h4 = not failures
    for i, msg in enumerate(failures):
        witnesses[f"h4[{i}]"] = msg

    return AssumptionReport(h1, True, h4, witnesses)

