"""Split-step time integration of the stochastic equation and its rescaled form.

Every non-Laplacian piece of the dynamics is exactly solvable pointwise, so
the only discretization error is operator splitting:

* linear flow: the free propagator multiplier exp(i|k|^2 dt) in Fourier space;
* nonlinear phase: y <- y * exp(-i lam e^{(alpha-1) Re M} |y|^{alpha-1} dt),
  which preserves |y| pointwise (the direct scheme uses Re M = 0, i.e. the
  plain |X|^{alpha-1} rotation);
* damping (rescaled scheme): the pointwise multiplier
  exp(-(1/2) sum_j (|mu_j|^2 + mu_j^2) e_j^2 dQ_j);
* noise (direct scheme): the stochastic exponential
  exp(dM(xi) - (1/2) sum_j (mu_j^2 + |mu_j|^2) e_j^2 dQ_j), exact in
  distribution for the noise-plus-correction sub-flow given the increment.

Strang composition per step: half linear, half phase, full noise-or-damping,
half phase, half linear; the Lie variant composes full sub-flows once.
Noise increments enter per step (piecewise constant in the step), and the
within-step Re M seen by the nonlinear phase is the step-start value.

The march (``_march``) is the only implementation of these sub-flows; the
plain composition survives only as the test suite's oracle.  Both
splittings march a block of B paths held as one (B, n^d) complex
array (``simulate_block``; ``simulate`` is its B = 1 call).  A step leads
with the linear flow, half (Strang) or full (Lie), rotates the phase and
applies the noise-or-damping multiplier; Strang then trails with the second
half linear flow.  Each path's per-step scalars (the spatially constant
mid multiplier, the phase coefficient) enter as (B, 1) columns.  The state
stays spectral between steps, so consecutive linear flows meet without a
transform, and for spatially constant mid multipliers Strang merges its two
half phases through the known modulus scaling (Lie has one phase at the full
step); both are algebraically identical to the plain composition and leave
two transforms per step.

Every row, homogeneous or spatially varying, records each time index through
one method.  It stores the row's own mass, taken by Parseval from the block's
one sum of squares, and the other mass: the ``math.exp`` weight times the own
mass on a homogeneous row, or the mass of y = X e^{-M(xi)} on a spatially
varying one, which is why the march transforms a varying row back to physical
space at every step.  A row leaves the block at the first index where either
mass is non-finite, or before the step its guard trips (|Re M| past
``OVERFLOW_GUARD`` on a homogeneous row, the noise exponent on a varying one);
its neighbours march on.  One method stops a row: the recording calls it at
the first non-finite mass, naming the reason there, and both guards call it
for their step.  After the loop a row returns its record or that abort, whose
message and time index are those a step-by-step check gives.

Every row is bitwise equal to the same path marched alone with its checks
and sums taken step by step, because:

* batched transforms over the spatial axes equal per-row transforms;
* the free multiplier is applied as ``half * x`` (complex products are not
  bitwise commutative: ``h * a`` and ``a * h`` can differ in the last bit);
* the phase rotation is written in place as cos + i sin of the real angle,
  which equals ``exp`` of the purely imaginary exponent;
* each row's mass is a numpy pairwise sum of squares over that row alone
  (never BLAS, whose threads change the bits);
* the mass reconstruction weights use ``math.exp``, never ``np.exp`` (the
  two differ in the last bit on some entries);
* the stochastic mass sum is a sequential ``cumsum`` from 0.

A run records its scalar series (both masses, Re M, the stochastic mass
sum) at every step, but keeps no field except its final state: the record
holds the one (X, y) pair at t_final.  Fields at the save indices (every
``save_every`` steps, and the last step) go to an optional snapshot callable
as they are produced, so memory is bounded by the grid, not by the run
length.  A row stops marching at its first failing index, so no snapshot is
handed over past an abort.

The rescaled scheme is restricted to spatially homogeneous noise (all
profiles constant-one), where the linear part stays the free group; spatially
varying profiles integrate in original variables, whose noise sub-flow is
still pointwise exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionVeto, NumericalAbort
from .mild_picard import strichartz_exponent
from .noise_process import MartingalePath, NoiseModel, sample_martingale
from .spectral_grid import ComplexField, GridSpec, _squared_norms, warn_if_underresolved

SCHEMES = ("direct", "rescaled")
SPLITTINGS = ("lie", "strang")
# Largest step count a run may take: 400 times the 25,000 steps of the
# acceptance ensemble.  The per-step series of a longer run would not fit.
MAX_STEPS = 10**7
#: |Re M| beyond which exp() leaves double range; a path this large has long
#: since left any physically meaningful regime.
OVERFLOW_GUARD = 700.0


def _abort_at(message: str, k: int) -> NumericalAbort:
    return NumericalAbort(f"{message} at time index {k}", time_index=k)


@dataclass(frozen=True)
class SimParams:
    """Time-stepping parameters for one run.

    lam = 0 turns the nonlinearity off (alpha is then ignored); otherwise
    alpha must sit in the mass-subcritical band 1 < alpha < 1 + 4/d, checked
    against the grid at run time.
    """

    lam: int
    alpha: float
    dt: float
    t_final: float
    save_every: int | None = None
    scheme: str = "rescaled"
    splitting: str = "strang"

    def __post_init__(self):
        if self.lam not in (-1, 0, 1):
            raise ValueError(f"lambda: must be -1, 0 or +1, got {self.lam}")
        if not self.dt > 0:
            raise ValueError(f"dt: must be positive, got {self.dt}")
        if not self.t_final > 0:
            raise ValueError(f"t_final: must be positive, got {self.t_final}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme: must be one of {SCHEMES}, got {self.scheme!r}")
        if self.splitting not in SPLITTINGS:
            raise ValueError(
                f"splitting: must be one of {SPLITTINGS}, got {self.splitting!r}"
            )
        steps = self.t_final / self.dt
        if not steps <= MAX_STEPS:
            raise ValueError(
                f"t_final: t_final/dt = {steps:.6g} steps exceeds the ceiling of "
                f"{MAX_STEPS} steps"
            )
        if round(steps) < 1 or abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError(
                f"t_final: t_final/dt = {steps:.12g} is not a positive integer step count"
            )
        if self.save_every is not None and self.save_every < 1:
            raise ValueError(f"save_every: must be >= 1, got {self.save_every}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))

    def validate_alpha(self, dimension: int) -> None:
        if self.lam != 0:
            strichartz_exponent(dimension, self.alpha)


@dataclass
class SolutionRecord:
    """Everything one run produced: scalar series at every step, the final
    state, and the driving path.

    ``final_x`` and ``final_y`` are the fields at the last time index; fields
    at earlier save indices go to the snapshot callable of :func:`simulate`
    instead.

    ``mass_x`` is the squared L^2 norm of the original variable, ``mass_y``
    of the rescaled one; ``re_m`` is sum_j Re(mu_j) M_j(t_k);
    ``ito_mass_sum`` accumulates the discrete stochastic mass integral
    2 sum_j sum_{i<k} Re(mu_j) (integral e_j |X(t_i)|^2) dM_j(i) with the
    same increments that drove the run.
    """

    scheme: str
    times: np.ndarray
    mass_x: np.ndarray
    mass_y: np.ndarray
    re_m: np.ndarray
    ito_mass_sum: np.ndarray
    final_x: ComplexField
    final_y: ComplexField
    path: MartingalePath

    # Read-only one-entry views kept because perfbench/spans.py sizes a
    # record's fields through them.
    @property
    def snapshots_x(self) -> list:
        return [self.final_x]

    @property
    def snapshots_y(self) -> list:
        return [self.final_y]


# -- split-step coefficients ---------------------------------------------------------

class _Stepper:
    """Precomputed split-step coefficients bound to (grid, model, params, path):
    the tables :func:`_march` reads at every step."""

    def __init__(self, grid: GridSpec, model: NoiseModel, params: SimParams,
                 path: MartingalePath):
        self.grid = grid
        self.params = params
        self.model = model
        self.path = path
        self.homogeneous = model.spatially_homogeneous
        dt = params.dt
        self.lin_half = grid.propagator(0.5 * dt)
        self.lin_full = self.lin_half * self.lin_half
        self.pow_half = 0.5 * (params.alpha - 1.0)
        self.phase_on = params.lam != 0
        mu = model.mu
        n_steps = path.n_steps

        # sum_j Re(mu_j) M_j and sum_j mu_j M_j at every grid time.
        self.re_m = path.real_part_series(mu)
        self.m_scalar = path.complex_series(mu)

        if params.scheme == "rescaled":
            coef = 0.5 * (np.abs(mu) ** 2 + mu**2)
            self.mid_scalar = np.exp(-(coef @ path.dqv))
        elif self.homogeneous:
            expo = mu @ path.increments.astype(np.complex128) \
                - (0.5 * (mu**2 + np.abs(mu) ** 2)) @ path.dqv
            self.mid_scalar = np.exp(expo)
        else:
            self.mid_scalar = None
            e = model.sample_profiles(grid)
            self.e_values = e
            self.mu_e = mu[:, None] * e
            self.corr_base = 0.5 * ((mu**2 + np.abs(mu) ** 2)[:, None] * e**2)

        if self.phase_on:
            if params.scheme == "rescaled":
                scale = params.lam * np.exp((params.alpha - 1.0) * self.re_m[:-1])
            else:
                scale = np.full(n_steps, float(params.lam))
            self.phase_half = scale * (0.5 * dt)
            self.phase_full = scale * dt
            if self.mid_scalar is not None:
                # |mid|^{alpha-1} folds the second half phase into the first.
                mod = np.abs(self.mid_scalar) ** (params.alpha - 1.0)
                self.phase_fused = self.phase_half * (1.0 + mod)

    def noise_exponent(self, k: int) -> np.ndarray:
        """Exponent of the spatially varying noise multiplier of step k."""
        expo = self.path.increments[:, k] @ self.mu_e \
            - self.path.dqv[:, k] @ self.corr_base
        if np.abs(expo.real).max() > OVERFLOW_GUARD:
            raise _abort_at("noise exponent exceeds the overflow guard", k)
        return expo

    def m_field_values(self, k: int) -> np.ndarray:
        """M(t_k, xi) as a flat complex array (scalar broadcast when homogeneous)."""
        if self.homogeneous:
            return np.full(self.grid.size, self.m_scalar[k])
        return self.path.values[:, k] @ self.mu_e


# -- full runs ----------------------------------------------------------------------

def simulate(grid: GridSpec, model: NoiseModel, params: SimParams,
             x: ComplexField, seed: int = 0,
             path: MartingalePath | None = None,
             snapshot=None) -> SolutionRecord:
    """Integrate from x over [0, t_final] and record the run.

    The noise path is sampled once from (model, dt, n_steps, seed) unless one
    is supplied, so paired runs can share it.  Scalar series (masses, Re M,
    the stochastic mass sum) are recorded at every step.  ``snapshot``, when
    given, is called as ``snapshot(k, t_k, X)`` with the X field at every
    ``save_every``-th time index (default about 512 over the run) and at the
    last one, in time order, as the march produces them; X must not be
    modified.  The record keeps only the final state.  This is the one-path
    call of :func:`simulate_block`.
    """
    outcome, = simulate_block(grid, model, params, x, [seed],
                              paths=None if path is None else [path],
                              snapshots=None if snapshot is None else [snapshot])
    if isinstance(outcome, NumericalAbort):
        raise outcome
    return outcome


def simulate_block(grid: GridSpec, model: NoiseModel, params: SimParams,
                   x: ComplexField, seeds: list,
                   paths: list | None = None,
                   snapshots: list | None = None) -> list:
    """Integrate one path per seed from x over [0, t_final], marched together.

    Returns, in seed order, each path's :class:`SolutionRecord` or the
    :class:`NumericalAbort` that stopped it, so one diverging path does not
    stop its neighbours.  Paths are sampled from (model, dt, n_steps, seed)
    unless supplied.  ``snapshots`` holds one snapshot callable per seed (see
    :func:`simulate`); an aborted path has handed over the fields of the save
    indices before its abort.
    """
    if x.grid is not grid and x.grid != grid:
        raise ValueError("initial state lives on a different grid")
    if snapshots is not None and len(snapshots) != len(seeds):
        raise ValueError(f"{len(snapshots)} snapshot callables for {len(seeds)} seeds")
    params.validate_alpha(grid.dimension)
    if params.scheme == "rescaled" and not model.spatially_homogeneous:
        raise AssumptionVeto(
            "scheme=rescaled requires constant-one noise profiles (set "
            "noise.profiles to constant-one or use scheme=direct)"
        )
    n_steps = params.n_steps
    if paths is None:
        paths = [sample_martingale(model, params.dt, n_steps, s) for s in seeds]
    for path in paths:
        if path.n_steps != n_steps:
            raise ValueError(
                f"supplied path has {path.n_steps} steps, run needs {n_steps}"
            )
        if abs(path.dt - params.dt) > 1e-12 * params.dt:
            raise ValueError(f"supplied path step {path.dt} != dt {params.dt}")
    warn_if_underresolved(x, "initial state")

    save_set = {n_steps}
    if snapshots is not None:
        save_every = params.save_every or max(1, math.ceil(n_steps / 512))
        save_set.update(range(0, n_steps + 1, save_every))
    runs = [_RunState(_Stepper(grid, model, params, path), save_set,
                      None if snapshots is None else snapshots[b])
            for b, path in enumerate(paths)]
    _march(runs, x)
    return [run.outcome() for run in runs]


def _exp_series(args: np.ndarray) -> list:
    """``math.exp`` of every entry, +inf where it overflows."""
    out = []
    for a in args.tolist():
        try:
            out.append(math.exp(a))
        except OverflowError:
            out.append(math.inf)
    return out


class _RunState:
    """One row of the march: its series, the fields it hands over, and where
    and why it stops."""

    def __init__(self, stepper: _Stepper, save_set: set, snapshot=None):
        self.stepper = stepper
        self.grid = stepper.grid
        self.direct = stepper.params.scheme == "direct"
        self.cv = self.grid.cell_volume
        self.n_steps = n_steps = stepper.path.n_steps
        self.save_set = save_set
        self.snapshot = snapshot
        self.mass_x = np.empty(n_steps + 1)
        self.mass_y = np.empty(n_steps + 1)
        # the scheme's own mass (taken by Parseval) and the other one
        self.own, self.other = (self.mass_x, self.mass_y) if self.direct \
            else (self.mass_y, self.mass_x)
        # increments of the stochastic mass sum, summed after the march
        self.ito = np.zeros(n_steps + 1)
        self.final_x: ComplexField | None = None
        self.final_y: ComplexField | None = None
        self.stop_after(n_steps)
        self.weights = None
        if stepper.homogeneous:
            # math.exp of -2 Re M (direct) or 2 Re M (rescaled) takes the own
            # mass to the other one; |Re M| past the guard stops the row
            # before that index.
            self.weights = _exp_series((-2.0 if self.direct else 2.0) * stepper.re_m)
            over = np.flatnonzero(np.abs(stepper.re_m[1:]) > OVERFLOW_GUARD)
            if over.size:
                k = int(over[0]) + 1
                self.stop_after(k - 1, _abort_at("|Re M| exceeds the overflow guard", k))

    def stop_after(self, end: int, abort: NumericalAbort | None = None) -> None:
        """Record no time index after ``end``; ``abort``, when given, is what
        the row returns instead of its record.  The only code that sets
        ``end`` and ``stop``."""
        self.end, self.stop = end, abort

    def mass_of(self, values: np.ndarray) -> float:
        return self.cv * float(_squared_norms(values))

    def record(self, k: int, mass: float, v: np.ndarray | None) -> bool:
        """Record time index k from the row's own mass and its physical state
        v, which a homogeneous row needs only at save indices.

        Where either mass is non-finite the row stops after k with the reason
        (a non-finite own mass before an overflowing reconstruction weight
        before a non-finite other mass), hands nothing over and returns
        False.  Otherwise, at a save index the X field goes to the snapshot
        callable, and at the last index the (X, y) pair is kept.
        """
        self.own[k] = mass
        stepper = self.stepper
        y = None
        if self.weights is not None:
            other = self.weights[k] * mass
        elif math.isfinite(mass):
            y = v * np.exp(-stepper.m_field_values(k))
            other = self.mass_of(y)
        else:
            other = math.nan
        self.other[k] = other
        if not math.isfinite(other):
            if not math.isfinite(mass):
                reason = "non-finite state"
            elif self.weights is not None and math.isinf(self.weights[k]):
                reason = "mass reconstruction overflows"
            else:
                reason = "non-finite mass"
            self.stop_after(k, _abort_at(reason, k))
            return False
        if k in self.save_set:
            if self.direct:
                x = v
            else:
                x, y = v * np.exp(stepper.m_scalar[k]), v
            if self.snapshot is not None:
                self.snapshot(k, float(stepper.path.times[k]), ComplexField(x, self.grid))
            if k == self.n_steps:
                if y is None:
                    y = v * np.exp(-stepper.m_field_values(k))
                self.final_x = ComplexField(x.copy(), self.grid)
                self.final_y = ComplexField(y.copy(), self.grid)
        if self.weights is None and k < self.n_steps:
            # the stochastic mass sum's increment over step k (left endpoint)
            amp2 = v.real**2 + v.imag**2
            w = self.cv * (stepper.e_values * amp2).sum(axis=-1)
            self.ito[k + 1] = 2.0 * float(
                (stepper.model.mu.real * stepper.path.increments[:, k]) @ w)
        return True

    def outcome(self) -> SolutionRecord | NumericalAbort:
        """The row's record, or the abort that stopped it."""
        if self.stop is not None:
            return self.stop
        stepper = self.stepper
        if self.weights is not None:
            # 2 sum_j Re(mu_j) dM_j(k) times the step-start mass
            s_incr = 2.0 * (stepper.model.mu.real @ stepper.path.increments)
            self.ito[1:] = s_incr * self.mass_x[:-1]
        np.cumsum(self.ito, out=self.ito)
        warn_if_underresolved(self.final_x, "final state")
        return SolutionRecord(
            scheme=stepper.params.scheme,
            times=stepper.path.times.copy(),
            mass_x=self.mass_x,
            mass_y=self.mass_y,
            re_m=stepper.re_m.copy(),
            ito_mass_sum=self.ito,
            final_x=self.final_x,
            final_y=self.final_y,
            path=stepper.path,
        )


def _rotate(u: np.ndarray, neg_coef: np.ndarray, pow_half: float,
            amp: np.ndarray, angle: np.ndarray, rot: np.ndarray) -> None:
    """u *= exp(-i coef |u|^{alpha-1}) in place, as cos + i sin of the angle.

    ``neg_coef`` is the (B, 1) column of -coef; amp, angle and rot are
    scratch of u's shape.
    """
    np.square(u.real, out=amp)
    np.square(u.imag, out=angle)
    amp += angle
    if pow_half != 1.0:
        amp = amp ** pow_half
    np.multiply(amp, neg_coef, out=angle)
    np.cos(angle, out=rot.real)
    np.sin(angle, out=rot.imag)
    u *= rot


def _march(runs: list, x: ComplexField) -> None:
    """March a block of runs from x: spectral state at integer times, two
    transforms per step (Strang with spatially varying noise: three), masses
    by Parseval.  Strang steps lead and trail with the half linear flow, Lie
    steps lead with the full one.  Every row records every time index it
    reaches and leaves the block after ``run.end``: its first failing index,
    or the step before a guard."""
    steppers = [run.stepper for run in runs]
    first = steppers[0]
    grid = first.grid
    n_steps = first.path.n_steps
    fused = first.mid_scalar is not None
    phase_on = first.phase_on
    strang = first.params.splitting == "strang"
    lead, trail = (first.lin_half, first.lin_half) if strang else (first.lin_full, None)
    parseval = grid.cell_volume / grid.size
    save_set = runs[0].save_set

    phys = np.tile(x.values, (len(runs), 1))
    yh = grid.forward(phys)
    mass0 = runs[0].mass_of(x.values)
    for run, row in zip(runs, phys):
        run.record(0, mass0, row)
    if fused:
        mid = np.array([st.mid_scalar for st in steppers])
    else:
        noise = np.empty(phys.shape, dtype=np.complex128)
    if phase_on:
        neg_coef = -np.array([(st.phase_fused if fused else st.phase_half)
                              if strang else st.phase_full for st in steppers])
        amp, angle = np.empty(phys.shape), np.empty(phys.shape)
        rot = np.empty(phys.shape, dtype=np.complex128)

    active = runs
    next_end = min(run.end for run in runs)
    for k in range(n_steps):
        if k >= next_end:
            keep = [i for i, run in enumerate(active) if run.end > k]
            if not keep:
                break
            active = [active[i] for i in keep]
            yh = yh[keep]
            if fused:
                mid = mid[keep]
            if phase_on:
                neg_coef = neg_coef[keep]
            next_end = min(run.end for run in active)
        nb = len(active)

        u = grid.inverse(lead * yh)
        if phase_on:
            _rotate(u, neg_coef[:, k:k + 1], first.pow_half, amp[:nb], angle[:nb],
                    rot[:nb])
        if fused:
            u *= mid[:, k:k + 1]
        else:
            for i, run in enumerate(active):
                try:
                    noise[i] = run.stepper.noise_exponent(k)
                except NumericalAbort as exc:
                    run.stop_after(k, exc)
                    next_end = k + 1
                    noise[i] = 0.0
            u *= np.exp(noise[:nb])
            if phase_on and strang:
                _rotate(u, neg_coef[:, k:k + 1], first.pow_half, amp[:nb],
                        angle[:nb], rot[:nb])
        yh = grid.forward(u)
        if trail is not None:
            yh = trail * yh

        if fused and k + 1 not in save_set:
            phys = [None] * nb
        else:
            phys = u if trail is None else grid.inverse(yh)
        masses = (parseval * _squared_norms(yh)).tolist()
        for run, mass, row in zip(active, masses, phys):
            if run.end > k and not run.record(k + 1, mass, row):
                next_end = k + 1
