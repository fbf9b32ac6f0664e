"""Plain implementations the package's fused code is tested against.

* The split-step composition: each sub-flow written out on its own, in
  physical space and with ``np.exp``, and composed step by step.  The march
  batches, fuses and reorders the same arithmetic, so the two agree to
  rounding, not bit for bit.
* The step-by-step recorder: every check and sum of a run taken at each
  time index as the march reaches it, raising at the first failing one.
  The march records the same values and stops a row at the same index with
  the same message, so the two agree bit for bit.  A homogeneous run's
  masses come from its mass identity, and its Parseval mass is checked
  against it at the check indices only.  ``fast_forward`` records a
  homogeneous run's linear tail the same way, one index at a time.
* The free propagator applied to one field and the discrete L^p norm,
  which the two oracles above and below are built from.
* The Duhamel quadrature and the mixed norm of the fixed-point iteration,
  one field at a time.  The map of ``mild_picard`` runs node by node and
  agrees with them to rounding.
* The same map and its distance in block form, each stage one pass over
  all nodes (``block_map_apply``, ``block_x_norm``).  The node loop makes
  the same operations in the same operand order, so the two agree bit for
  bit.

It also holds ``const_model``, the homogeneous noise model the tests share.
"""

import math

import numpy as np

from snls_lab.errors import NumericalAbort
from snls_lab.integrator import MASS_DEPARTURE, MASS_FLOOR, OVERFLOW_GUARD
from snls_lab.noise_process import DensitySpec, NoiseModel, SpatialProfile
from snls_lab.spectral_grid import ComplexField, _squared_norms


def const_model(mu, v=1.0, alpha0=None, v_max=None):
    """Noise with constant-one profiles and constant density v per component
    of mu (a scalar or a sequence)."""
    mu = np.atleast_1d(np.asarray(mu, dtype=complex))
    return NoiseModel(mu, [SpatialProfile("constant-one")] * mu.size,
                      [DensitySpec("constant", alpha0, v_max, value=v)] * mu.size)


def free_propagator_apply(field, dt):
    """Advance a field by the free Schrodinger group over time dt.

    The sign convention ``i dX = Delta X dt`` gives the unitary multiplier
    exp(i*|k|^2*dt); dt may be negative (the adjoint direction).
    """
    grid = field.grid
    vh = grid.forward(field.values)
    vh *= grid.propagator(dt)
    return ComplexField(grid.inverse(vh), grid)


def norm_Lp(field, p):
    """Cell-volume weighted discrete L^p norm; p = inf means max modulus."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    mod = np.abs(field.values)
    if np.isinf(p):
        return float(mod.max())
    return float((field.grid.cell_volume * (mod**p).sum()) ** (1.0 / p))


def nonlinear_phase_step(y, dt, lam, alpha, re_m=0.0):
    """Exact nonlinear rotation y * exp(-i lam e^{(alpha-1) re_m} |y|^{alpha-1} dt).

    Preserves the pointwise modulus; lam = 0 is the identity.
    """
    if lam == 0 or dt == 0.0:
        return ComplexField(y.values.copy(), y.grid)
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


class StepRecorder:
    """Per-step recording of one path from x, each check made as its index
    is reached: ``record`` raises the abort, and ``accumulate_ito`` adds one
    step of the stochastic mass sum.  A homogeneous run's own mass is its
    identity: the initial mass times the running product of |mid_k|^2."""

    def __init__(self, grid, block, params, n_steps, save_set, x, snapshot=None):
        self.grid = grid
        self.block = block  # a one-path block: its tables are row 0
        self.direct = params.scheme == "direct"
        self.cv = grid.cell_volume
        self.n_steps = n_steps
        self.save_set = save_set
        self.snapshot = snapshot
        self.mass_x = np.empty(n_steps + 1)
        self.mass_y = np.empty(n_steps + 1)
        self.ito = np.zeros(n_steps + 1)
        self.final_x = None
        self.final_y = None
        # 2 sum_j Re(mu_j) dM_j(k), the homogeneous stochastic-sum weights.
        self.s_incr = 2.0 * (block.model.mu.real @ block.paths[0].increments)
        # sum_j mu_j M_j(t_k), the homogeneous M
        self.m = block.paths[0].complex_series(block.model.mu)
        if block.homogeneous:
            gains = np.abs(block.mid_scalar[0]) ** 2
            self.identity = np.cumprod(np.concatenate([[x.mass], gains]))
        # each index's Parseval mass, where the run took one
        self.parseval = np.full(n_steps + 1, np.nan)

    def mass_of(self, values):
        return self.cv * float(_squared_norms(values))

    def record(self, k, v, mass=None):
        """Record time index k given the physical state and its Parseval
        mass, None where the run took none.  A homogeneous run takes its own
        mass from the identity, and checks ``mass`` against it at its check
        indices only: the save indices and its finish index.

        At a save index the X field goes to the snapshot callable; at the
        last index the (X, y) pair is kept.
        """
        block = self.block
        self.parseval[k] = np.nan if mass is None else mass
        if block.homogeneous:
            checked = k in self.save_set or k == block.finish[0]
            mass, parseval = self.identity[k], mass if checked else None
        if not np.isfinite(mass):
            raise NumericalAbort(f"non-finite state at time index {k}", time_index=k)
        rm = block.re_m[0, k]
        try:
            if self.direct:
                self.mass_x[k] = mass
                if block.homogeneous:
                    self.mass_y[k] = math.exp(-2.0 * rm) * mass
                else:
                    # the mass of y = v e^{-M} with the real weight e^{-2 Re M},
                    # applied as e^{-Re M} twice
                    amp2 = v.real**2 + v.imag**2
                    neg_re_m = (-block.model.mu.real * block.paths[0].values[:, k]) \
                        @ block.e_values
                    w = np.exp(neg_re_m)
                    self.mass_y[k] = self.cv * float(((amp2 * w) * w).sum())
            else:
                self.mass_y[k] = mass
                self.mass_x[k] = math.exp(2.0 * rm) * mass
        except OverflowError as exc:
            raise NumericalAbort(
                f"mass reconstruction overflows at time index {k}", time_index=k
            ) from exc
        if not (np.isfinite(self.mass_x[k]) and np.isfinite(self.mass_y[k])):
            raise NumericalAbort(f"non-finite mass at time index {k}", time_index=k)
        if block.homogeneous and parseval is not None:
            if not np.isfinite(parseval):
                raise NumericalAbort(f"non-finite state at time index {k}", time_index=k)
            departure = abs(parseval / mass - 1.0) if mass > MASS_FLOOR else 0.0
            if departure > MASS_DEPARTURE * (k + 1):
                raise NumericalAbort("Parseval mass departs from the identity by "
                                     f"{departure:.3g} at time index {k}", time_index=k)
        if k not in self.save_set:
            return
        x = v if self.direct else v * np.exp(self.m[k])
        if self.snapshot is not None:
            self.snapshot(k, float(block.paths[0].times[k]), ComplexField(x, self.grid))
        if k == self.n_steps:
            m = np.full(self.grid.size, self.m[k]) if block.homogeneous \
                else block.m_field_values(0, k)
            y = v * np.exp(-m) if self.direct else v
            self.final_x = ComplexField(x.copy(), self.grid)
            self.final_y = ComplexField(y.copy(), self.grid)

    def accumulate_ito(self, k, phys):
        """Stochastic mass sum increment for step k (left endpoint)."""
        block = self.block
        if block.homogeneous:
            self.ito[k + 1] = self.ito[k] + self.s_incr[k] * self.mass_x[k]
        else:
            amp2 = phys.real**2 + phys.imag**2
            w = self.cv * (block.e_values * amp2).sum(axis=-1)
            mu_re = block.model.mu.real
            self.ito[k + 1] = self.ito[k] + 2.0 * float(
                (mu_re * block.paths[0].increments[:, k]) @ w
            )


def fast_forward(run, yh, k0):
    """Record the rest of a homogeneous run from its spectrum yh at index k0,
    one index at a time, as if no later step had a phase: the state at a
    save index s is prod_{k0<=i<s} mid_i U((s - k0) dt) yh.  Each index
    takes the guard and the recorder's checks of the identity masses as a
    marched step does; no Parseval mass is checked."""
    block = run.block
    factors, shape = np.cumprod(block.mid_scalar[0, k0:]), run.grid.shape
    for k in range(k0, run.n_steps):
        if abs(block.re_m[0, k + 1]) > OVERFLOW_GUARD:
            raise NumericalAbort("|Re M| exceeds the overflow guard at time index "
                                 f"{k + 1}", time_index=k + 1)
        run.accumulate_ito(k, None)
        v = None
        if k + 1 in run.save_set:
            spec = run.grid.propagator((k + 1 - k0) * block.params.dt) * yh
            spec = spec * factors[k - k0]
            v = np.fft.ifftn(spec.reshape(shape)).ravel()
        run.record(k + 1, v)


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


def block_map_apply(kern, y):
    """The fixed-point map of a ``mild_picard._MapKernel`` on the whole
    (nodes, size) block at once: forcing, back-transport, the cumulative
    trapezoid and forward transport each one pass over the block.

    Complex products here do not commute bit for bit, so the operand order
    is written out: it is the order numpy runs ``c * (amp * y)`` and
    ``fwd * (xh - acc)`` in on blocks of 256 KiB and more, where it reuses
    the right-hand temporary in place.
    """
    grid = kern.grid
    fwd = grid.propagator(kern.times[:, None])  # U(t_i, 0), one row per node
    amp = np.abs(y) ** (kern.alpha - 1.0)
    forcing = kern.damp_coef[:, None] * y
    if kern.lam != 0:
        forcing = forcing + (amp * y) * kern.phase_coef[:, None]
    b = np.array([grid.forward(row) for row in forcing]) * fwd.conj()
    acc = np.zeros_like(b)
    half = 0.5 * kern.ds
    for i in range(1, kern.nodes):
        acc[i] = acc[i - 1] + half * (b[i - 1] + b[i])
    return np.array([grid.inverse(row) for row in (kern.xh - acc) * fwd])


def block_x_norm(kern, diff):
    """||diff||_X of a (nodes, size) block: the sup over nodes of the L^2
    norm plus the trapezoid Lq-in-time norm of the L^{alpha+1} norms."""
    cv, alpha, q = kern.grid.cell_volume, kern.alpha, kern.q
    with np.errstate(over="ignore", invalid="ignore"):
        sup = float(np.sqrt(cv * (np.abs(diff) ** 2).sum(axis=1).max()))
        phi = (cv * (np.abs(diff) ** (alpha + 1.0)).sum(axis=1)) ** (1.0 / (alpha + 1.0))
        lq = float(np.trapezoid(phi**q, kern.times) ** (1.0 / q))
    return sup + lq
