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
half linear flow.  Transforms act on the spatial axes only: ``fft``/``ifft``
on the last axis for d = 1, ``fftn``/``ifftn`` over axes 1..d otherwise.
Each path's per-step scalars (the spatially constant mid multiplier, the
phase coefficient) enter as (B, 1) columns.  The state stays spectral
between steps, so consecutive linear flows meet without a transform, and
for spatially constant mid multipliers Strang merges its two half phases
through the known modulus scaling (Lie has one phase at the full step);
both are algebraically identical to the plain composition and leave two
transforms per step.  For such homogeneous rows
the step loop keeps only each row's Parseval mass: the other mass, the
stochastic mass sum and the abort checks are computed on the whole series
after the loop, and report the first failing time index a step-by-step check
would.  Spatially varying (direct-scheme) rows keep their per-step
physical-space recording.  A row that aborts leaves the block; its
neighbours march on.

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
length.  A homogeneous row stops marching at its
first failing index, so no snapshot is handed over past an abort.

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
        if self.lam == 0:
            return
        band = 1.0 + 4.0 / dimension
        if not (1.0 < self.alpha < band):
            raise ValueError(
                f"alpha: {self.alpha} outside the band (1, {band}) for d = {dimension}"
            )


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
    params: SimParams
    seed: int | None

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
        ksq = grid.k_squared
        self.lin_half = np.exp(1j * ksq * (0.5 * dt))
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
            raise NumericalAbort("noise exponent exceeds the overflow guard",
                                 time_index=k)
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
    runs = [_RunState(grid, _Stepper(grid, model, params, path), params, n_steps,
                      save_set, None if snapshots is None else snapshots[b])
            for b, path in enumerate(paths)]
    outcomes = _march(runs, x)

    results = []
    for run, seed, outcome in zip(runs, seeds, outcomes):
        if outcome is None:
            warn_if_underresolved(run.final_x, "final state")
            outcome = SolutionRecord(
                scheme=params.scheme,
                times=run.stepper.path.times.copy(),
                mass_x=run.mass_x,
                mass_y=run.mass_y,
                re_m=run.stepper.re_m.copy(),
                ito_mass_sum=run.ito,
                final_x=run.final_x,
                final_y=run.final_y,
                path=run.stepper.path,
                params=params,
                seed=seed,
            )
        results.append(outcome)
    return results


def _exp_series(args: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``math.exp`` of every entry, +inf where it overflows, and the overflow mask."""
    out = []
    for a in args.tolist():
        try:
            out.append(math.exp(a))
        except OverflowError:
            out.append(math.inf)
    values = np.array(out)
    return values, np.isinf(values) & np.isfinite(args)


class _RunState:
    """Per-step recording of one row of the march."""

    def __init__(self, grid: GridSpec, stepper: _Stepper, params: SimParams,
                 n_steps: int, save_set: set, snapshot=None):
        self.grid = grid
        self.stepper = stepper
        self.direct = params.scheme == "direct"
        self.cv = grid.cell_volume
        self.n_steps = n_steps
        self.save_set = save_set
        self.snapshot = snapshot
        self.mass_x = np.empty(n_steps + 1)
        self.mass_y = np.empty(n_steps + 1)
        self.ito = np.zeros(n_steps + 1)
        self.final_x: ComplexField | None = None
        self.final_y: ComplexField | None = None
        # 2 sum_j Re(mu_j) dM_j(k), the homogeneous stochastic-sum weights.
        self.s_incr = 2.0 * (stepper.model.mu.real @ stepper.path.increments)

    def mass_of(self, values: np.ndarray) -> float:
        return self.cv * float(_squared_norms(values))

    def record(self, k: int, v: np.ndarray, mass: float) -> None:
        """Record time index k given the physical state and its mass.

        At a save index the X field goes to the snapshot callable; at the
        last index the (X, y) pair is kept.
        """
        if not np.isfinite(mass):
            raise NumericalAbort(f"non-finite state at time index {k}", time_index=k)
        stepper = self.stepper
        rm = stepper.re_m[k]
        y = None
        try:
            if self.direct:
                self.mass_x[k] = mass
                if stepper.homogeneous:
                    self.mass_y[k] = math.exp(-2.0 * rm) * mass
                else:
                    y = v * np.exp(-stepper.m_field_values(k))
                    self.mass_y[k] = self.mass_of(y)
            else:
                self.mass_y[k] = mass
                self.mass_x[k] = math.exp(2.0 * rm) * mass
        except OverflowError as exc:
            raise NumericalAbort(
                f"mass reconstruction overflows at time index {k}", time_index=k
            ) from exc
        if not (np.isfinite(self.mass_x[k]) and np.isfinite(self.mass_y[k])):
            raise NumericalAbort(f"non-finite mass at time index {k}", time_index=k)
        if k not in self.save_set:
            return
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

    def mass_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Weights taking a homogeneous run's own mass to the other one at
        every time index (``math.exp`` of -2 Re M direct, 2 Re M rescaled),
        and where they overflow."""
        return _exp_series((-2.0 if self.direct else 2.0) * self.stepper.re_m)

    def record_series(self, masses: np.ndarray, guard: int | None,
                      weights: np.ndarray,
                      overflow: np.ndarray) -> NumericalAbort | None:
        """Fill the series of a homogeneous run from its marched masses.

        ``masses`` holds the scheme's own mass at time indices 0..len-1,
        ``guard`` the index where |Re M| first exceeds the guard, if any, and
        ``weights``/``overflow`` come from :meth:`mass_weights`.  The checks
        ``record`` and the |Re M| guard would make step by step are made on
        the whole series; the abort at the first failing index is returned
        with the message the step-by-step check gives.
        """
        weights, overflow = weights[:masses.size], overflow[:masses.size]
        with np.errstate(over="ignore", invalid="ignore"):
            other = weights * masses
        mass_x, mass_y = (masses, other) if self.direct else (other, masses)
        first = None
        for bad, message in (
                (~np.isfinite(masses), "non-finite state"),
                (overflow, "mass reconstruction overflows"),
                (~(np.isfinite(mass_x) & np.isfinite(mass_y)), "non-finite mass")):
            if bad.any() and (first is None or np.argmax(bad) < first[0]):
                first = (int(np.argmax(bad)), message)
        if first is None and guard is not None:
            first = (guard, "|Re M| exceeds the overflow guard")
        if first is not None:
            k, message = first
            return NumericalAbort(f"{message} at time index {k}", time_index=k)
        self.mass_x[:] = mass_x
        self.mass_y[:] = mass_y
        terms = np.concatenate(([0.0], self.s_incr * mass_x[:-1]))
        np.cumsum(terms, out=self.ito)
        return None

    def accumulate_ito(self, k: int, phys: np.ndarray | None) -> None:
        """Stochastic mass sum increment for step k (left endpoint)."""
        stepper = self.stepper
        if stepper.homogeneous:
            self.ito[k + 1] = self.ito[k] + self.s_incr[k] * self.mass_x[k]
        else:
            amp2 = phys.real**2 + phys.imag**2
            w = self.cv * (stepper.e_values * amp2).sum(axis=-1)
            mu_re = stepper.model.mu.real
            self.ito[k + 1] = self.ito[k] + 2.0 * float(
                (mu_re * stepper.path.increments[:, k]) @ w
            )


def _spatial_transforms(grid: GridSpec):
    """Forward and inverse transforms of a (B, n^d) block over its spatial axes."""
    if grid.dimension == 1:
        return (lambda a: np.fft.fft(a, axis=-1),
                lambda a: np.fft.ifft(a, axis=-1))
    axes = tuple(range(1, grid.dimension + 1))
    shape = grid.shape

    def forward(a):
        return np.fft.fftn(a.reshape(-1, *shape), axes=axes).reshape(a.shape)

    def inverse(a):
        return np.fft.ifftn(a.reshape(-1, *shape), axes=axes).reshape(a.shape)

    return forward, inverse


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


def _march(runs: list, x: ComplexField) -> list:
    """March a block of runs from x: spectral state at integer times, two
    transforms per step (Strang with spatially varying noise: three), masses
    by Parseval.  Strang steps lead and trail with the half linear flow, Lie
    steps lead with the full one.  Returns each run's abort, or None."""
    steppers = [run.stepper for run in runs]
    first = steppers[0]
    grid = first.grid
    n_steps = first.path.n_steps
    fused = first.mid_scalar is not None
    phase_on = first.phase_on
    strang = first.params.splitting == "strang"
    lead, trail = (first.lin_half, first.lin_half) if strang else (first.lin_full, None)
    parseval = grid.cell_volume / grid.size
    forward, inverse = _spatial_transforms(grid)
    rows = len(runs)
    outcomes: list = [None] * rows
    ends = [n_steps] * rows  # steps each row marches before it stops
    save_set = runs[0].save_set

    phys = np.tile(x.values, (rows, 1))
    yh = forward(phys)
    mass0 = runs[0].mass_of(x.values)
    if fused:
        # Homogeneous rows: the guard index and the mass weights are known
        # from Re M up front.  A row stops at its first failing index, as a
        # step-by-step check would, so it hands over no snapshot past it.
        guards: list = [None] * rows
        weights = [run.mass_weights() for run in runs]
        weight_lists = [w.tolist() for w, _ in weights]
        for b, st in enumerate(steppers):
            over = np.flatnonzero(np.abs(st.re_m[1:]) > OVERFLOW_GUARD)
            if over.size:
                guards[b] = int(over[0]) + 1
                ends[b] = guards[b] - 1
            overflow = weights[b][1]
            if overflow.any():
                ends[b] = min(ends[b], int(np.argmax(overflow)))
            if 0 in save_set:
                try:
                    runs[b].record(0, x.values, mass0)
                except NumericalAbort:
                    ends[b] = 0
        masses = [[mass0] for _ in runs]
        mid = np.array([st.mid_scalar for st in steppers])
    else:
        for b, run in enumerate(runs):
            try:
                run.record(0, phys[b], mass0)
            except NumericalAbort as exc:
                outcomes[b], ends[b] = exc, 0
        noise = np.empty(phys.shape, dtype=np.complex128)
    if phase_on:
        neg_coef = -np.array([(st.phase_fused if fused else st.phase_half)
                              if strang else st.phase_full for st in steppers])
        amp, angle = np.empty(phys.shape), np.empty(phys.shape)
        rot = np.empty(phys.shape, dtype=np.complex128)

    active = list(range(rows))
    next_end = min(ends)
    for k in range(n_steps):
        if k >= next_end:
            keep = [i for i, b in enumerate(active) if ends[b] > k]
            if not keep:
                break
            active = [active[i] for i in keep]
            yh, phys = yh[keep], phys[keep]
            if fused:
                mid = mid[keep]
            if phase_on:
                neg_coef = neg_coef[keep]
            next_end = min(ends[b] for b in active)
        nb = len(active)

        if not fused:
            for b, row in zip(active, phys):
                runs[b].accumulate_ito(k, row)
        u = inverse(lead * yh)
        if phase_on:
            _rotate(u, neg_coef[:, k:k + 1], first.pow_half, amp[:nb], angle[:nb],
                    rot[:nb])
        if fused:
            u *= mid[:, k:k + 1]
        else:
            for i, b in enumerate(active):
                try:
                    noise[i] = steppers[b].noise_exponent(k)
                except NumericalAbort as exc:
                    outcomes[b], ends[b], next_end = exc, k + 1, k + 1
                    noise[i] = 0.0
            u *= np.exp(noise[:nb])
            if phase_on and strang:
                _rotate(u, neg_coef[:, k:k + 1], first.pow_half, amp[:nb],
                        angle[:nb], rot[:nb])
        yh = forward(u)
        if trail is not None:
            yh = trail * yh

        if fused:
            row_masses = (parseval * _squared_norms(yh)).tolist()
            for b, mass in zip(active, row_masses):
                masses[b].append(mass)
                # stop where either mass is non-finite, as record() would
                if not math.isfinite(mass * weight_lists[b][k + 1]):
                    ends[b], next_end = k + 1, k + 1
            if k + 1 in save_set:
                # record() checks the row before it hands over the snapshot;
                # the abort itself is found on the whole series after the loop.
                for b, row in zip(active, u if trail is None else inverse(yh)):
                    try:
                        runs[b].record(k + 1, row, masses[b][-1])
                    except NumericalAbort:
                        ends[b], next_end = k + 1, k + 1
        else:
            phys = u if trail is None else inverse(yh)
            for b, row, prow in zip(active, yh, phys):
                if outcomes[b] is not None:
                    continue
                try:
                    runs[b].record(k + 1, prow, parseval * float(_squared_norms(row)))
                except NumericalAbort as exc:
                    outcomes[b], ends[b], next_end = exc, k + 1, k + 1

    if fused:
        for b, run in enumerate(runs):
            outcomes[b] = run.record_series(np.array(masses[b]), guards[b],
                                            *weights[b])
    return outcomes
