"""Plain split-step composition: the oracle the integrator's march is tested
against.

Each sub-flow is written out on its own, in physical space and with
``np.exp``, and composed step by step.  The march batches, fuses and
reorders the same arithmetic, so the two agree to rounding, not bit for bit.
"""

import numpy as np

from snls_lab.errors import NumericalAbort
from snls_lab.rescaling import OVERFLOW_GUARD
from snls_lab.spectral_grid import ComplexField, free_propagator_apply


def nonlinear_phase_step(y, dt, lam, alpha, re_m=0.0):
    """Exact nonlinear rotation y * exp(-i lam e^{(alpha-1) re_m} |y|^{alpha-1} dt).

    Preserves the pointwise modulus; lam = 0 is the identity.
    """
    if lam == 0 or dt == 0.0:
        return y.copy()
    scale = np.exp((alpha - 1.0) * np.asarray(re_m, dtype=float))
    amp = np.abs(y.values) ** (alpha - 1.0)
    return ComplexField(y.values * np.exp(-1j * lam * dt * scale * amp), y.grid)


def damping_step(y, model, path, k):
    """Exact damping multiplier exp(-(1/2) sum_j (|mu_j|^2+mu_j^2) e_j^2 dQ_j(k))."""
    e = model.sample_profiles(y.grid)
    coef = 0.5 * (np.abs(model.mu) ** 2 + model.mu**2)
    exponent = -(coef * path.dqv[:, k]) @ (e.astype(np.complex128) ** 2)
    if np.abs(exponent.real).max() > OVERFLOW_GUARD:
        raise NumericalAbort("damping exponent exceeds the overflow guard", time_index=k)
    return ComplexField(y.values * np.exp(exponent), y.grid)


def noise_step_direct(x, model, path, k):
    """Exact noise-plus-correction multiplier for step k of the direct scheme:
    exp(dM(xi) - (1/2) sum_j (mu_j^2 + |mu_j|^2) e_j^2 dQ_j(k)).
    """
    e = model.sample_profiles(x.grid).astype(np.complex128)
    dm = model.mu * path.increments[:, k]
    corr = 0.5 * (model.mu**2 + np.abs(model.mu) ** 2) * path.dqv[:, k]
    exponent = dm @ e - corr @ e**2
    if np.abs(exponent.real).max() > OVERFLOW_GUARD:
        raise NumericalAbort("noise exponent exceeds the overflow guard", time_index=k)
    return ComplexField(x.values * np.exp(exponent), x.grid)


def step(state, path, k, params, model):
    """One plain step t_k -> t_{k+1} of ``params``' scheme and splitting;
    consumes increment k.  The phase sees the step-start Re M."""
    if params.scheme == "rescaled":
        re_m = float(model.mu.real @ path.values[:, k])
        mid = damping_step
    else:
        re_m = 0.0
        mid = noise_step_direct
    lam, alpha = params.lam, params.alpha
    if params.splitting == "strang":
        half = 0.5 * params.dt
        v = free_propagator_apply(state, half)
        v = nonlinear_phase_step(v, half, lam, alpha, re_m)
        v = mid(v, model, path, k)
        v = nonlinear_phase_step(v, half, lam, alpha, re_m)
        return free_propagator_apply(v, half)
    v = free_propagator_apply(state, params.dt)
    v = nonlinear_phase_step(v, params.dt, lam, alpha, re_m)
    return mid(v, model, path, k)
