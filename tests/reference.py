"""Plain implementations the package's fused code is tested against.

* The split-step composition: each sub-flow written out on its own, in
  physical space and with ``np.exp``, and composed step by step.  The march
  batches, fuses and reorders the same arithmetic, so the two agree to
  rounding, not bit for bit.
* The Duhamel quadrature and the mixed norm of the fixed-point iteration,
  one field at a time, against the node-batched map of ``mild_picard``.
"""

import numpy as np

from snls_lab.errors import NumericalAbort
from snls_lab.integrator import OVERFLOW_GUARD
from snls_lab.spectral_grid import ComplexField, free_propagator_apply, norm_Lp


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


def duhamel_apply(forcing_series, grid, tau, nodes):
    """int_0^tau U(tau, s) f(s) ds on uniform nodes with trapezoid weights.

    ``forcing_series`` holds f at the nodes s_i = i*tau/(nodes-1).  Valid in
    the homogeneous regime where U is the free group; a forcing that is itself
    a free trajectory integrates exactly at any node count.
    """
    if nodes < 2:
        raise ValueError(f"nodes must be >= 2, got {nodes}")
    if len(forcing_series) != nodes:
        raise ValueError(f"forcing has {len(forcing_series)} nodes, expected {nodes}")
    times = np.linspace(0.0, tau, nodes)
    ds = tau / (nodes - 1)
    acc = np.zeros(grid.size, dtype=np.complex128)
    for i, f in enumerate(forcing_series):
        w = 0.5 * ds if i in (0, nodes - 1) else ds
        acc += w * free_propagator_apply(f, tau - times[i]).values
    return ComplexField(acc, grid)


def mixed_norm(times, fields, q, alpha):
    """Time-quadrature norm ||y||_{Lq(0,tau;L^{alpha+1})} (trapezoid in time)
    of the fields at the given node times."""
    phi = np.array([norm_Lp(f, alpha + 1.0) for f in fields])
    return float(np.trapezoid(phi**q, times) ** (1.0 / q))
