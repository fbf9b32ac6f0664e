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
half linear flow.  The state stays spectral between steps, so consecutive
linear flows meet without a transform.  Every step of every row makes one
pointwise pass, ``_Block.pointwise_step``:

* the noise-or-damping multiplier e^{a + ib} scales |u| by e^a pointwise,
  so Strang's two half phases merge into one, theta = -c |u|^{alpha-1}
  (1 + e^{(alpha-1) a}) with c the half-step coefficient (Lie: theta =
  -c_full |u|^{alpha-1}), and the row takes u *= e^a (cos(b + theta) +
  i sin(b + theta)).  On a spatially varying row, a and b come from one
  batched product of the path coefficients with the profile table, and b
  and e^a enter the rotation: one real exp and one cos/sin pair per point.
  On a homogeneous row (every rescaled row) they are constant in space and
  read from per-path tables: the row rotates by theta alone, then takes
  e^{a + ib} as one complex factor, since theta is small where |u| is and
  cos and sin of small angles cost about half.  Where e^{(alpha-1) a}
  overflows on a row, its second half phase comes from |u e^a|^{alpha-1}
  instead, so the row stops where two rotations would.  Two transforms per
  step; a varying row's recording needs the physical state, so its Strang
  step takes three.

All of this is algebraically identical to the plain composition.  Every
step writes into scratch the block allocates once.

One state, ``_Block``, holds the block: the tables every path shares, built
once; each path's tables (Re M, multipliers or noise coefficients, phase
coefficients, mass weights), stacked as (B, ...) rows; every row's series
as (B, n_steps + 1) arrays; and the scratch.  One call records a time index
for all rows still marching: each row's own mass, taken by Parseval from the
block's one sum of squares, and the other mass.  On homogeneous rows that is
three operations over the block: the own masses, the ``math.exp`` weights
times them, and one finiteness test.  A spatially varying row takes the mass
of y = X e^{-M(xi)} as cv sum |X|^2 e^{-2 Re M(xi)}, a real weight, and its
Ito increment from the same |X|^2, row by row, so the march transforms it
back to physical space at every step; the complex y is built only at the
last index.  A row leaves the block at its first index with a non-finite
mass, or before the step its guard trips (|Re M| past ``OVERFLOW_GUARD`` on a
homogeneous row, the noise exponent on a varying one).  One method sets a
row's end and stop, called by the recording with the reason and by both
guards; the row then returns that abort, with the message and time index a
step-by-step check gives, and its neighbours march on.  The march runs under
``np.errstate(over="ignore", invalid="ignore")``: a row that overflows goes
through the block's arithmetic before it leaves, and its abort reports it.

Every row is bitwise equal to the same path marched alone with its checks
and sums taken step by step, because:

* batched transforms over the spatial axes equal per-row transforms;
* each path's tables are built from that path alone, never by a product
  across the path axis;
* the free multiplier is applied as ``half * x`` (complex products are not
  bitwise commutative: ``h * a`` and ``a * h`` can differ in the last bit);
* the rotation is written in place as cos + i sin of the real angle, which
  equals ``np.exp(1j * theta)``, times e^a on a varying row;
* the pointwise step is elementwise in each row, with that row's own a, b
  and coefficient; a varying row's noise exponents are its own slice of one
  batched product, equal to its one-row product;
* the noise guard and the e^{(alpha-1) a} overflow rule are decided per row;
* a varying row's mass weight and Ito sums are taken one row at a time,
  from that row's (n^d,) values and its own path's coefficients;
* each row's mass, and a varying row's weighted mass sum, is a numpy
  pairwise sum over that row alone (never BLAS, whose threads change the
  bits);
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


# -- full runs ----------------------------------------------------------------------

def simulate(grid: GridSpec, model: NoiseModel, params: SimParams,
             x: ComplexField, seed: int = 0,
             path: MartingalePath | None = None,
             snapshot=None) -> SolutionRecord:
    """Integrate from x over [0, t_final] and record the run.

    The noise path is sampled once from (model, dt, n_steps, seed) unless one
    is supplied, so paired runs can share it; ``seed`` is then unused.
    Scalar series (masses, Re M, the stochastic mass sum) are recorded at
    every step.  ``snapshot``, when given, is called as ``snapshot(k, t_k, X)``
    with the X field at every ``save_every``-th time index (default about 512
    over the run) and at the last one, in time order, as the march produces
    them; X must not be modified, but it is a field the march never writes
    again, so the callable may keep it without a copy.  The record keeps
    only the final state.
    This is the one-path call of :func:`simulate_block`.
    """
    if path is None:
        path = sample_martingale(model, params.dt, params.n_steps, seed)
    outcome, = simulate_block(grid, model, params, x, [path],
                              snapshots=None if snapshot is None else [snapshot])
    if isinstance(outcome, NumericalAbort):
        raise outcome
    return outcome


def simulate_block(grid: GridSpec, model: NoiseModel, params: SimParams,
                   x: ComplexField, paths: list,
                   snapshots: list | None = None) -> list:
    """Integrate from x over [0, t_final] along each noise path, marched together.

    ``paths`` is a non-empty list of :class:`MartingalePath`, each with the
    run's dt and step count.  Returns, in path order, each path's
    :class:`SolutionRecord` or the :class:`NumericalAbort` that stopped it,
    so one diverging path does not stop its neighbours.  ``snapshots`` holds
    one snapshot callable per path (see :func:`simulate`); an aborted path
    has handed over the fields of the save indices before its abort.
    """
    if not paths:
        raise ValueError("paths: a block needs at least one noise path")
    if x.grid is not grid and x.grid != grid:
        raise ValueError("initial state lives on a different grid")
    if snapshots is not None and len(snapshots) != len(paths):
        raise ValueError(f"{len(snapshots)} snapshot callables for {len(paths)} paths")
    params.validate_alpha(grid.dimension)
    if params.scheme == "rescaled" and not model.spatially_homogeneous:
        raise AssumptionVeto(
            "scheme=rescaled requires constant-one noise profiles (set "
            "noise.profiles to constant-one or use scheme=direct)"
        )
    n_steps = params.n_steps
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
    # a row whose tables or state overflow goes through the block's
    # arithmetic before it leaves; its abort, not a numpy warning, reports it
    with np.errstate(over="ignore", invalid="ignore"):
        block = _Block(grid, model, params, paths, save_set, snapshots)
        _march(block, x)
    return block.outcomes()


def _exp_series(args: np.ndarray) -> list:
    """``math.exp`` of every entry, +inf where it overflows."""
    out = []
    for a in args.tolist():
        try:
            out.append(math.exp(a))
        except OverflowError:
            out.append(math.inf)
    return out


class _Block:
    """The march's state for B paths on one grid, row b for ``paths[b]``: the
    tables every path shares, built once; each path's tables, built path by
    path and stacked as (B, ...) arrays; each row's series, end and stop; and
    the scratch every step writes into.  The defaults build the tables alone,
    with no save index and no snapshot."""

    def __init__(self, grid: GridSpec, model: NoiseModel, params: SimParams,
                 paths: list, save_set=frozenset(), snapshots: list | None = None):
        self.grid, self.model, self.params, self.paths = grid, model, params, paths
        self.save_set, self.snapshots = save_set, snapshots
        self.homogeneous = model.spatially_homogeneous
        self.direct = params.scheme == "direct"
        self.cv = grid.cell_volume
        self.n_steps = n_steps = params.n_steps
        dt, mu, alpha = params.dt, model.mu, params.alpha
        self.lin_half = grid.propagator(0.5 * dt)
        self.pow_half = 0.5 * (alpha - 1.0)
        self.phase_on = params.lam != 0
        self.strang_phase = self.phase_on and params.splitting == "strang"
        self.phase_factor = self.neg_coef = None
        qv_coef = mu**2 + np.abs(mu) ** 2  # twice the Ito correction per unit dQ_j
        corr = 0.5 * qv_coef
        if self.homogeneous:
            # every step's spatially constant multiplier e^{a + ib}, the damping
            # (rescaled) or the noise (direct), and the factor
            # 1 + e^{(alpha-1) a} of a Strang phase: one entry per path and step
            expo = [mu @ p.increments.astype(np.complex128) - corr @ p.dqv if self.direct
                    else -(corr @ p.dqv) for p in paths]
            self.mid_scalar = np.array([np.exp(z) for z in expo])
            if self.strang_phase:
                self.phase_factor = np.array([np.exp((alpha - 1.0) * z.real) + 1.0
                                              for z in expo])
        else:
            e = model.sample_profiles(grid)
            # the real table [e; e^2], whose first J rows are the profiles:
            # a and b of step k's noise exponent
            # sum_j mu_j e_j dM_j(k) - corr_j e_j^2 dQ_j(k) are the product of
            # a path's (2, 2J) coefficient block k with it; (B, n_steps, 2, 2J)
            self.profile_table = np.concatenate([e, e**2])
            self.e_values = self.profile_table[:mu.size]
            c = np.array([np.concatenate([mu[:, None] * p.increments,
                                          -corr[:, None] * p.dqv]) for p in paths])
            self.noise_coefs = np.ascontiguousarray(
                np.stack([c.real, c.imag]).transpose(1, 3, 0, 2))

        # sum_j Re(mu_j) M_j and sum_j mu_j M_j at every grid time
        self.re_m = np.array([path.real_part_series(mu) for path in paths])
        self.m_scalar = np.array([path.complex_series(mu) for path in paths])
        if self.phase_on:
            if params.scheme == "rescaled":
                scale = params.lam * np.array([np.exp((alpha - 1.0) * r[:-1])
                                               for r in self.re_m])
            else:
                scale = np.full((len(paths), n_steps), float(params.lam))
            # -c, the rotation's coefficient of |u|^{alpha-1}: a half step's
            # (Strang) or a full step's (Lie)
            self.neg_coef = scale * (-0.5 * dt if params.splitting == "strang" else -dt)

        self.mass_x, self.mass_y = np.empty(self.re_m.shape), np.empty(self.re_m.shape)
        # the scheme's own mass (taken by Parseval) and the other one, as
        # [k, b] views: one time index of every row is then a basic index
        self.own, self.other = (self.mass_x.T, self.mass_y.T) if self.direct \
            else (self.mass_y.T, self.mass_x.T)
        # increments of the stochastic mass sum, summed after the march
        self.ito = np.zeros(self.re_m.shape)
        self.final_x, self.final_y = [None] * len(paths), [None] * len(paths)
        self.end, self.stop = np.full(len(paths), n_steps), [None] * len(paths)
        if self.homogeneous:
            # math.exp of -2 Re M (direct) or 2 Re M (rescaled) takes the own
            # mass to the other one; |Re M| past the guard stops the row
            # before that index.
            sign = -2.0 if self.direct else 2.0
            self.weights = np.array([_exp_series(sign * r) for r in self.re_m]).T
            over = np.abs(self.re_m[:, 1:]) > OVERFLOW_GUARD
            for b in np.flatnonzero(over.any(axis=1)).tolist():
                k = int(over[b].argmax()) + 1
                self.stop_after(b, k - 1,
                                _abort_at("|Re M| exceeds the overflow guard", k))

        # Scratch every step writes into, rows 0..B-1 for the rows still
        # marching: the state's spectrum, a spectral and a physical buffer,
        # the rotation factor, two real fields, and e^a and the Strang phase
        # factor, one column entry per row when they are constant in space.
        rows = (len(paths), grid.size)
        self.yh, self.spec, self.phys, self.rot = np.empty((4, *rows), dtype=complex)
        self.amp, self.angle = np.empty((2, *rows))
        self.ea, self.fac = np.empty((2, len(paths), 1 if self.homogeneous else grid.size))

    def noise_factors(self, k: int, rows: np.ndarray, coefs: np.ndarray) -> tuple:
        """The ``pointwise_step`` factors of step k on the varying rows
        ``rows``: 1 + e^{(alpha-1) a} (Strang phase only, else None), e^a and
        b, from the noise exponents a + ib, the product of the rows' (2, 2J)
        coefficient blocks ``coefs`` with the profile table.  A row whose a
        passes the guard stops after k."""
        nb = rows.size
        # a and b go into the spectral buffer, which the step does not read
        # between its inverse and forward transforms
        out = self.spec[:nb].view(np.float64).reshape(nb, 2, -1)
        a, b = np.matmul(coefs, self.profile_table, out=out).transpose(1, 0, 2)
        tripped = (a.max(axis=1) > OVERFLOW_GUARD) | (a.min(axis=1) < -OVERFLOW_GUARD)
        for row in rows[tripped].tolist():
            self.stop_after(row, k, _abort_at("noise exponent exceeds the overflow guard", k))
        factor = None
        if self.strang_phase:
            factor = np.multiply(a, self.params.alpha - 1.0, out=self.fac[:nb])
            np.exp(factor, out=factor)
            factor += 1.0
        return factor, np.exp(a, out=self.ea[:nb]), b

    def pointwise_step(self, u: np.ndarray, neg_coef: np.ndarray | None,
                       factor: np.ndarray | None, scale: np.ndarray,
                       b: np.ndarray | None) -> None:
        """Apply the step's multiplier e^{a + ib} and its phase rotation to
        the physical states u of the rows still marching, as the module
        docstring describes.  ``neg_coef`` is the (nb, 1) column of -c, the
        rows' phase coefficient of the step, or None without a phase;
        ``factor`` is 1 + e^{(alpha-1) a}, or None unless the phase is
        Strang's.  On spatially varying rows, ``factor``, ``scale`` = e^a
        and ``b`` are (nb, n^d) rows; on homogeneous rows, ``factor`` is an
        (nb, 1) column, ``scale`` the multiplier e^{a + ib} as an (nb, 1)
        complex column, and ``b`` None.  Where e^{(alpha-1) a} overflows,
        the row's second half phase comes from |u e^a|^{alpha-1}, as a
        second rotation takes it: u = 0 stays 0, and the angle overflows only
        where that rotation's does."""
        nb = u.shape[0]
        amp, angle, rot, fac = self.amp[:nb], self.angle[:nb], self.rot[:nb], self.fac[:nb]
        if neg_coef is None:
            angle = b
        else:
            np.square(u.real, out=amp)
            np.square(u.imag, out=angle)
            amp += angle
            if self.pow_half != 1.0:
                amp **= self.pow_half
            if factor is None:
                np.multiply(amp, neg_coef, out=angle)
            else:
                # per row, so that no row's bits depend on its neighbours
                over = None if factor.max() < math.inf else factor.max(axis=1) == math.inf
                if b is None:  # one factor per row: fold -coef into it first
                    np.multiply(amp, np.multiply(factor, neg_coef, out=fac), out=angle)
                else:
                    np.multiply(amp, factor, out=angle)
                    angle *= neg_coef
                if over is not None and over.any():
                    v, e = u[over], np.abs(scale[over])
                    second = ((np.square(v.real) + np.square(v.imag)) * e * e) ** self.pow_half
                    angle[over] = (second + amp[over]) * neg_coef[over]
            if b is not None:
                angle += b
        if angle is not None:
            np.cos(angle, out=rot.real)
            np.sin(angle, out=rot.imag)
            if b is not None:
                rot.real *= scale
                rot.imag *= scale
            u *= rot
        if b is None:
            u *= scale

    def m_field_values(self, b: int, k: int) -> np.ndarray:
        """Row b's M(t_k, xi), flat complex (a scalar broadcast if homogeneous)."""
        if self.homogeneous:
            return np.full(self.grid.size, self.m_scalar[b, k])
        c = self.model.mu * self.paths[b].values[:, k]
        m = np.empty(self.grid.size, dtype=np.complex128)
        m.real, m.imag = c.real @ self.e_values, c.imag @ self.e_values
        return m

    def stop_after(self, b: int, end: int, abort: NumericalAbort) -> None:
        """Record no time index of row b after ``end``; the row returns
        ``abort``.  The only code that changes a row's ``end`` and ``stop``."""
        self.end[b], self.stop[b] = end, abort

    def mass_of(self, values: np.ndarray) -> float:
        return self.cv * float(_squared_norms(values))

    def varying_masses(self, i: int, b: int, k: int, v: np.ndarray) -> float:
        """Row b's mass of y = v e^{-M} at index k, from its physical state v
        in block row i: cv sum |v|^2 e^{-2 Re M}, with e^{-Re M} applied
        twice, so the sum overflows where |y|^2 does.  Before the last index
        it also sets the row's stochastic mass sum increment over step k
        from the same |v|^2."""
        amp2, w, tmp = self.amp[i], self.angle[i], self.fac[i]
        np.square(v.real, out=amp2)
        amp2 += np.square(v.imag, out=tmp)
        path = self.paths[b]
        # -Re M(t_k, xi) = sum_j (-Re mu_j) M_j(t_k) e_j(xi), all real
        np.exp(np.matmul(-self.model.mu.real * path.values[:, k], self.e_values,
                         out=w), out=w)
        np.multiply(amp2, w, out=tmp)
        tmp *= w
        mass = self.cv * float(tmp.sum())
        if k < self.n_steps:
            # the increment over step k, at its left endpoint:
            # 2 sum_j Re(mu_j) dM_j(k) cv sum e_j |v|^2
            w_j = [self.cv * float(np.multiply(e, amp2, out=tmp).sum())
                   for e in self.e_values]
            self.ito[b, k + 1] = 2.0 * float(
                (self.model.mu.real * path.increments[:, k]) @ w_j)
        return mass

    def record(self, k: int, rows: np.ndarray, masses: np.ndarray, phys) -> bool:
        """Record time index k of the block rows ``rows`` from their own
        masses and physical states ``phys``, which homogeneous rows need only
        at save indices; False if a row stopped.  A row its noise guard
        stopped before k is skipped.

        Where either mass is non-finite the row stops after k with the reason
        (a non-finite own mass before an overflowing reconstruction weight
        before a non-finite other mass) and hands nothing over.  Otherwise, at
        a save index a copy of the X field goes to the row's snapshot
        callable, and at the last index the (X, y) pair is kept."""
        own, other = self.own, self.other
        if self.homogeneous:
            at = k if rows.size == len(self.paths) else (k, rows)
            own[at] = masses
            # Python floats: on a few rows cheaper than numpy calls
            other[at] = weighted = [w * m for w, m in zip(self.weights[at].tolist(),
                                                          masses.tolist())]
            if all(map(math.isfinite, weighted)) and k not in self.save_set:
                return True
        recorded = True
        for i, b in enumerate(rows.tolist()):
            if self.end[b] < k:
                continue
            if not self.homogeneous:
                own[k, b] = masses[i]
                other[k, b] = self.varying_masses(i, b, k, phys[i]) \
                    if math.isfinite(masses[i]) else math.nan
            if not math.isfinite(other[k, b]):
                if not math.isfinite(own[k, b]):
                    reason = "non-finite state"
                elif self.homogeneous and math.isinf(self.weights[k, b]):
                    reason = "mass reconstruction overflows"
                else:
                    reason = "non-finite mass"
                self.stop_after(b, k, _abort_at(reason, k))
                recorded = False
                continue
            if k in self.save_set:
                # phys is the march's scratch: the snapshot gets its own copy
                v = phys[i]
                x = v.copy() if self.direct else v * np.exp(self.m_scalar[b, k])
                if self.snapshots is not None:
                    self.snapshots[b](k, float(self.paths[b].times[k]),
                                      ComplexField(x, self.grid))
                if k == self.n_steps:
                    if self.direct:  # y = v e^{-M}, built in place
                        y = self.m_field_values(b, k)
                        np.exp(np.negative(y, out=y), out=y)
                        np.multiply(v, y, out=y)
                    else:
                        y = v.copy()
                    self.final_x[b] = ComplexField(x.copy(), self.grid)
                    self.final_y[b] = ComplexField(y, self.grid)
        return recorded

    def outcomes(self) -> list:
        """Each row's record, or the abort that stopped it, in row order."""
        out = []
        for b, path in enumerate(self.paths):
            if self.stop[b] is not None:
                out.append(self.stop[b])
                continue
            ito = self.ito[b]
            if self.homogeneous:
                # 2 sum_j Re(mu_j) dM_j(k) times the step-start mass
                s_incr = 2.0 * (self.model.mu.real @ path.increments)
                ito[1:] = s_incr * self.mass_x[b, :-1]
            np.cumsum(ito, out=ito)
            warn_if_underresolved(self.final_x[b], "final state")
            out.append(SolutionRecord(
                scheme=self.params.scheme, times=path.times.copy(),
                mass_x=self.mass_x[b], mass_y=self.mass_y[b], re_m=self.re_m[b].copy(),
                ito_mass_sum=ito, final_x=self.final_x[b], final_y=self.final_y[b],
                path=path))
        return out


def _march(block: _Block, x: ComplexField) -> None:
    """March a block from x: spectral state at integer times, two transforms
    per step (Strang with spatially varying noise: three), masses by
    Parseval.  Strang steps lead and trail with the half linear flow, Lie
    steps lead with the full one.  ``rows`` holds the block rows still
    marching, and row i of each scratch buffer and live table holds
    ``rows[i]``; every row records every time index it reaches and leaves
    after its end: its first failing index, or the step before a guard."""
    grid, n_steps, save_set = block.grid, block.n_steps, block.save_set
    strang = block.params.splitting == "strang"
    half = block.lin_half
    lead, trail = (half, half) if strang else (half * half, None)
    parseval = grid.cell_volume / grid.size
    scratch = (block.yh, block.spec, block.phys, block.rot)
    yh, spec, u, rot = scratch

    rows = np.arange(len(block.paths))
    u[:] = x.values
    grid.forward(u, out=yh)
    block.record(0, rows, np.full(rows.size, block.mass_of(x.values)), u)
    # the per-row tables the step reads: the multipliers e^{a + ib}
    # (homogeneous) or the noise coefficient blocks, the Strang phase
    # factors, and the phase coefficients
    mult = block.mid_scalar if block.homogeneous else block.noise_coefs
    factor, neg_coef = block.phase_factor, block.neg_coef

    next_end = block.end.min()
    for k in range(n_steps):
        if k >= next_end:
            keep = block.end[rows] > k
            if not keep.any():
                break
            nb = int(np.count_nonzero(keep))
            block.yh[:nb] = yh[keep]
            yh, spec, u, rot = (buf[:nb] for buf in scratch)
            rows = rows[keep]
            mult, factor, neg_coef = (None if table is None else table[keep]
                                      for table in (mult, factor, neg_coef))
            next_end = block.end[rows].min()

        np.multiply(lead, yh, out=spec)
        grid.inverse(spec, out=u)
        coef = None if neg_coef is None else neg_coef[:, k:k + 1]
        if block.homogeneous:
            block.pointwise_step(u, coef, None if factor is None else factor[:, k:k + 1],
                                 mult[:, k:k + 1], None)
        else:
            factors = block.noise_factors(k, rows, mult[:, k])
            next_end = min(next_end, block.end[rows].min())
            block.pointwise_step(u, coef, *factors)
        if trail is None:
            grid.forward(u, out=yh)
        else:
            grid.forward(u, out=spec)
            np.multiply(trail, spec, out=yh)

        if block.homogeneous and k + 1 not in save_set:
            phys = None
        else:
            phys = u if trail is None else grid.inverse(yh, out=u)
        if not block.record(k + 1, rows, parseval * _squared_norms(yh, rot), phys):
            next_end = k + 1
