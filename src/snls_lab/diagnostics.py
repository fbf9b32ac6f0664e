"""Discrete residuals of the conservation identities and decay-rate fitting.

The two structural identities of the dynamics become residual series:

* mass: ||X(t)||^2 - ||x||^2 minus the discrete stochastic integral
  2 sum_j sum_{i<k} Re(mu_j) (int e_j |X(t_i)|^2) dM_j(i), accumulated in-run
  with the same increments that drove the integrator (left-endpoint rule; any
  other rule would test a different identity);
* energy (rescaled, homogeneous): E0(t) - ||x||^2
  + 2 sum_j (Re mu_j)^2 * left-endpoint-sum V_j(t_i) E0(t_i) dt, deterministic
  given the path.

The decay rate omega = 2 alpha0 sum_j (Re mu_j)^2 is defined only in the
homogeneous nondegenerate regime; decay fits report the least-squares slope
of log E over a window (default: after a 10% burn-in), the endpoint Lyapunov
quotient (1/T) log(E(T)/E(0)), and the fluctuation ratio Re M(T)/T whose
vanishing lets the deterministic rate survive the noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionVeto, NumericalAbort
from .integrator import MASS_FLOOR, SolutionRecord
from .noise_process import NoiseModel

#: Fraction of the horizon excluded from the head of a default fit window.
BURN_IN_FRACTION = 0.1


@dataclass
class ResidualSeries:
    """A residual sampled in time and its largest magnitude."""

    times: np.ndarray
    values: np.ndarray
    max_abs: float


@dataclass
class DecayReport:
    """Fitted decay statistics for one run."""

    omega: float
    fitted_slope: float
    lyapunov: float
    lln_ratio: float
    margin: float
    fit_window: tuple


def omega(model: NoiseModel) -> float:
    """Decay rate 2 * alpha0 * sum_j (Re mu_j)^2 of the homogeneous regime.

    Undefined (raises) when the model leaves that regime: any purely
    imaginary coefficient, a density lower bound of zero, or spatially
    varying profiles; and when the rate overflows a double.
    """
    failures = model.h4_failures()
    if failures:
        raise AssumptionVeto(
            "decay rate undefined for this model: " + "; ".join(failures)
        )
    with np.errstate(over="ignore"):
        w = float(2.0 * model.min_alpha0 * (model.mu.real**2).sum())
    if not math.isfinite(w):
        raise AssumptionVeto("decay rate undefined for this model: noise.coefficients: "
                             "2 alpha0 sum_j (Re mu_j)^2 overflows a double")
    return w


def mass_identity_residual(record: SolutionRecord) -> ResidualSeries:
    """R(t_k) = ||X(t_k)||^2 - ||x||^2 - accumulated stochastic mass sum.

    With mu = 0 this reduces to the deterministic mass-conservation defect.
    """
    if record.ito_mass_sum is None or len(record.ito_mass_sum) != len(record.times):
        raise ValueError("record is missing the per-step stochastic mass accumulation")
    r = record.mass_x - record.mass_x[0] - record.ito_mass_sum
    return ResidualSeries(record.times.copy(), r, float(np.abs(r).max()))


def energy_identity_residual(record: SolutionRecord, model: NoiseModel) -> ResidualSeries:
    """Left-endpoint residual of the dissipation identity for E0 = ||y||^2.

    Deterministic given the path's left-endpoint densities, the ones that
    drove the march; only rescaled-scheme records qualify (the identity
    lives in the rescaled variable).
    """
    if record.scheme != "rescaled":
        raise ValueError("energy identity requires a rescaled-scheme record")
    times, path = record.times, record.path
    e0 = record.mass_y
    weights = model.mu.real**2
    integrand = np.zeros(times.size - 1)
    for j, density in enumerate(path.density_values):
        integrand += weights[j] * density
    cumulative = np.zeros(times.size)
    np.cumsum(integrand * e0[:-1] * path.dt, out=cumulative[1:])
    r = e0 - e0[0] + 2.0 * cumulative
    return ResidualSeries(times.copy(), r, float(np.abs(r).max()))


def fit_log_slope(times, values, window: tuple | None = None) -> tuple[float, tuple]:
    """Least-squares slope of log(values) over a time window.

    The series is truncated at the first entry at or below the underflow
    floor; the default window drops a 10% burn-in from the head.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    bad = values <= MASS_FLOOR
    if bad.any():
        cut = int(np.argmax(bad))
        times, values = times[:cut], values[:cut]
    if times.size < 2:
        raise ValueError("fewer than two positive masses; cannot fit a slope")
    if window is None:
        window = (times[-1] * BURN_IN_FRACTION, times[-1])
    t0, t1 = float(window[0]), float(window[1])
    if t0 >= t1 or t0 > times[-1] or t1 < times[0]:
        raise ValueError(
            f"fit window [{t0:g}, {t1:g}] outside the series span "
            f"[{times[0]:g}, {times[-1]:g}]"
        )
    mask = (times >= t0) & (times <= t1)
    if mask.sum() < 2:
        raise ValueError("fit window selects fewer than two samples")
    slope = np.polyfit(times[mask], np.log(values[mask]), 1)[0]
    return float(slope), (t0, t1)


def decay_fit(record: SolutionRecord, model: NoiseModel,
              fit_window: tuple | None = None) -> DecayReport:
    """Fit the decay of the recorded mass ||X||^2.

    The report carries the model's omega (see :func:`omega`) and the
    verdict margin fitted_slope - (-omega).
    A mass that underflows before the fit window leaves nothing to fit: that
    raises :class:`NumericalAbort` naming the first underflowed time index.
    """
    masses = record.mass_x
    if np.any(masses[0] <= 0):
        raise ValueError("initial mass must be positive")
    positive = masses > MASS_FLOOR
    last = int(np.argmax(~positive)) - 1 if (~positive).any() else masses.size - 1
    try:
        slope, window = fit_log_slope(record.times, masses, fit_window)
    except ValueError as exc:
        if last == masses.size - 1:
            raise
        raise NumericalAbort(f"mass underflows at time index {last + 1}: {exc}",
                             time_index=last + 1) from exc

    t_last = record.times[last]
    lyap = float(math.log(masses[last] / masses[0]) / t_last) if t_last > 0 else 0.0

    w = omega(model)
    lln = float(record.re_m[-1] / record.times[-1])
    return DecayReport(w, slope, lyap, lln, slope + w, window)


def gronwall_check(record: SolutionRecord, model: NoiseModel) -> dict:
    """Pathwise envelope check E0(t_k) <= e^{-omega t_k} E0(0) (1 + 1e-8)
    plus monotonicity of E0, evaluated at every recorded time."""
    w = omega(model)
    e0 = record.mass_y
    envelope = e0[0] * np.exp(-w * record.times) * (1.0 + 1e-8)
    violations = int(np.count_nonzero(e0 > envelope))
    monotone = bool(np.all(np.diff(e0) <= 0.0))
    return {"violations": violations, "monotone": monotone}

