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
pointwise pass, ``_Block.pointwise_step``.

A spatially varying row takes the noise multiplier e^{a + ib}, which scales
|u| by e^a pointwise, so Strang's two half phases merge into one,
theta = -c |u|^{alpha-1} (1 + e^{(alpha-1) a}) with c the half-step
coefficient (Lie: theta = -c_full |u|^{alpha-1}), and the row takes
u *= e^a (cos(b + theta) + i sin(b + theta)): a and b come from one batched
product of the path coefficients with the profile table, one real exp and
one cos/sin pair per point.  Where e^{(alpha-1) a} overflows on a row, its
second half phase comes from |u e^a|^{alpha-1} instead, so the row stops
where two rotations would.  Its recording needs the physical state, so its
Strang step takes three transforms.

On a homogeneous row (every rescaled row) the multiplier is constant in
space and commutes with the free flow, and the rotation keeps |u|
pointwise, so the row's mass is a functional of its path,
mass_k = mass_0 prod_{i<k} |e^{a_i + i b_i}|^2, and its state is
u_k = sqrt(mass_k) e^{i sum_{i<k} b_i} w_k with w_k of unit mass.  The row
marches w from x / sqrt(mass_0), and a rotation is all of its step: with
p = (alpha-1)/2, by -c_k (mass_k^p + mass_{k+1}^p) |w|^{alpha-1} (Strang) or
-c_k mass_k^p |w|^{alpha-1} (Lie).  ``mass_identity`` reads from the path
alone both masses at every index (the other is the ``math.exp`` weight of
-2 Re M, direct, or 2 Re M, rescaled, times the own), these coefficients
and the path's abort; the block adds the scalar
sqrt(mass_s) e^{i sum_{i<s} b_i} that takes w to the state at each save
index s (times e^{M_s} for the X of a rescaled row).  The march takes w's
mass only at the row's check indices, the save indices and its finish
index, and stops the row there where it is non-finite or departs from 1 by
more than ``MASS_DEPARTURE`` per step (where the identity mass exceeds
``MASS_FLOOR``).  A run that needs no field, an ensemble path, takes its
identity alone and marches nothing (``identity_outcome``).

The row stops marching at its finish index, once its nonlinear phase is
below rounding for the rest of the run, and fast-forwards.  By
Cauchy-Schwarz and Parseval, |w| <= (1/N) sum |wh_k| <= cv^{-1/2}, so
B_k = cv^{-p} sum_{j>=k} |c_j| bounds the summed angle of every step after k
at every point.  The row's finish index, the first k < n with
B_k < ``FF_THRESHOLD`` = 2^-63 (a margin of 2^10 under the rounding unit
2^-53), is read from its coefficients when the block is built
(``_finish_index``); without a phase (lambda = 0) it is 0.  There the
row's record hands over its fields at each later save index s from
U((s - k) dt) wh_k, one multiply and one inverse, and the row stops.
All of this is algebraically identical to the plain composition; only the
fast-forward departs from it, by dropping angles that sum to under 2^-63.

One state, ``_Block``, holds the block: the tables every path shares, built
once; each path's tables, stacked as (B, ...) rows; every row's series as
(B, n_steps + 1) arrays; and the scratch every step writes into.  Row b of
each is ``paths[b]`` for the whole march.  Every mass the march records or
checks is cv sum |v|^2 of a physical state v, as ``ComplexField.mass``
takes it, so it overflows only where the mass does.  A spatially varying
row records both masses at every step: its own from the block's one sum of
squares, and the mass of y = X e^{-M(xi)} as cv sum |X|^2 e^{-2 Re M(xi)},
a real weight, with its Ito increment from the same |X|^2, row by row; the
complex y is built only at the last index.

A row stops at its first index with a non-finite mass (its identity's
abort on a homogeneous row), at a failed check, or before the step its guard
trips (|Re M| past ``OVERFLOW_GUARD`` on a homogeneous row, the noise
exponent on a varying one): ``stop_after`` sets its end and abort, with the
message and time index a step-by-step check gives, or, without an abort,
finishes it.  A stopped row keeps its slot and is stepped with its
neighbours, but records nothing more; the march ends once every row has
stopped.  It runs under ``np.errstate(over="ignore", invalid="ignore")``: a
row that overflows goes through the block's arithmetic, and its abort, not
a numpy warning, reports it.

Every row is bitwise equal to the same path marched alone with its checks
and sums taken step by step, because:

* batched transforms over the spatial axes equal per-row transforms;
* each path's tables, and a homogeneous row's masses, end, finish index,
  hand-over scalars and tail, are built from that path alone, never across
  the path axis;
* the free multiplier is applied as ``half * x`` (complex products are not
  bitwise commutative: ``h * a`` and ``a * h`` can differ in the last bit);
* the rotation is written in place as cos + i sin of the real angle, which
  equals ``np.exp(1j * theta)``, times e^a on a varying row;
* the pointwise step is elementwise in each row, with that row's own a, b
  and coefficient; a varying row's noise exponents are its own slice of one
  batched product, equal to its one-row product;
* the noise guard and the e^{(alpha-1) a} overflow rule are decided per row,
  and the guard trips only rows still marching;
* a varying row's mass weight and Ito sums are taken one row at a time,
  from that row's (n^d,) values and its own path's coefficients;
* each row's mass, and a varying row's weighted mass sum, is a numpy
  pairwise sum over that row alone (never BLAS, whose threads change the
  bits);
* the mass reconstruction weights use ``math.exp``, never ``np.exp`` (the
  two differ in the last bit on some entries);
* the stochastic mass sum is a sequential ``cumsum`` from 0.

A run records its scalar series (both masses, Re M, the stochastic mass
sum) at every step, but keeps no field except its final state, the (X, y)
pair at t_final.  Fields at the save indices (every ``save_every`` steps,
and the last step) go to an optional snapshot callable in time order, so
memory is bounded by the grid, not by the run length; M(t_k) is kept at
those indices only.  No snapshot is handed over past an abort, and a
handed-over field skips ``ComplexField``'s finiteness scan: its masses, and
a marched one's sum of squares, were checked finite.

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
from .spectral_grid import (ComplexField, GridSpec, _squared_norms, _trusted_field,
                            warn_if_underresolved)

SCHEMES = ("direct", "rescaled")
SPLITTINGS = ("lie", "strang")
# Largest step count a run may take: 400 times the 25,000 steps of the
# acceptance ensemble.  The per-step series of a longer run would not fit.
MAX_STEPS = 10**7
#: |Re M| beyond which exp() leaves double range; a path this large has long
#: since left any physically meaningful regime.
OVERFLOW_GUARD = 700.0
#: Bound on the summed nonlinear angle of every remaining step, at every
#: point, below which a homogeneous row fast-forwards: 2^-63, a margin of
#: 2^10 under the rounding unit 2^-53 of one rotation.
FF_THRESHOLD = 2.0 ** -63
#: Relative departure per step of a homogeneous row's Parseval mass from its
#: identity past which the check stops the row: 250x the largest measured.
MASS_DEPARTURE = 1e-13
#: Masses below this are treated as underflow: excluded from log fits, and
#: checked only for finiteness against the identity.
MASS_FLOOR = 1e-300


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
    """Integrate from x over [0, t_final] and record the run: the one-path
    call of :func:`simulate_block`.

    The noise path is sampled once from (model, dt, n_steps, seed) unless one
    is supplied, so paired runs can share it; ``seed`` is then unused.
    ``snapshot``, when given, is called as ``snapshot(k, t_k, X)`` with the X
    field at every ``save_every``-th time index (default about 512 over the
    run) and at the last one, in time order; X must not be modified, but the
    run never writes it again, so the callable may keep it without a copy.
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
    # arithmetic; its abort, not a numpy warning, reports it
    with np.errstate(over="ignore", invalid="ignore"):
        block = _Block(grid, model, params, paths, save_set, snapshots, x.mass)
        _march(block, x)
        return block.outcomes()


def _finish_index(neg_coef: np.ndarray | None, scale: float) -> int:
    """The first index k < n_steps at which one homogeneous row's bound
    B_k = ``scale`` sum_{j>=k} |c_j| (module docstring) is below
    FF_THRESHOLD, or n_steps if none is; ``scale`` is cv^{-(alpha-1)/2} and
    c_j the row's phase coefficients, its mass folded in.  0 without a
    phase.  A term 0 x inf (a zero mass times an overflowing scale) is left
    out: the state is 0 there and turns no more."""
    if neg_coef is None:
        return 0
    terms = np.abs(neg_coef)
    terms[np.isnan(terms)] = 0.0
    passed = np.cumsum(terms[::-1])[::-1] * scale < FF_THRESHOLD
    return int(passed.argmax()) if passed.any() else neg_coef.size


@dataclass
class MassIdentity:
    """A homogeneous path's mass identity at every index, also past its
    abort: ``exponents`` are its steps' a + ib, ``neg_coef`` its phase
    coefficients, masses folded in (None without a phase)."""

    times: np.ndarray
    mass_x: np.ndarray
    mass_y: np.ndarray
    re_m: np.ndarray
    exponents: np.ndarray
    neg_coef: np.ndarray | None
    abort: NumericalAbort | None


@np.errstate(over="ignore", invalid="ignore")  # its abort reports an overflow
def mass_identity(model: NoiseModel, params: SimParams, path: MartingalePath,
                  mass: float) -> MassIdentity:
    """A homogeneous path's mass identity from an initial mass, read from the
    path alone (module docstring); its ``math.exp`` weights are +inf past
    log(DBL_MAX).  Its abort names |Re M| past the guard, then a non-finite
    own mass, an overflowing weight, then a non-finite other mass."""
    direct = params.scheme == "direct"
    mu, corr = model.mu, model.ito_correction
    # every step's spatially constant exponent a + ib, the noise (direct) or
    # the damping (rescaled)
    expo = mu @ path.increments.astype(np.complex128) - corr @ path.dqv if direct \
        else -(corr @ path.dqv)
    re_m = path.real_part_series(mu)
    own = np.cumprod(np.concatenate([[mass], np.square(np.abs(np.exp(expo)))]))
    top = math.log(np.finfo(float).max)
    weights = np.array([math.inf if a > top else math.exp(a)
                        for a in ((-2.0 if direct else 2.0) * re_m).tolist()])
    other = weights * own
    neg_coef = None
    if params.lam != 0:
        scale = np.full(params.n_steps, float(params.lam)) if direct \
            else params.lam * np.exp((params.alpha - 1.0) * re_m[:-1])
        strang = params.splitting == "strang"
        # -c, the rotation's coefficient of |u|^{alpha-1}, a half step's
        # (Strang) or a full step's (Lie), times the unit state's scale:
        # |u|^{alpha-1} is mass^{(alpha-1)/2} |w|^{alpha-1}, and the Strang
        # step's second half phase sees the next mass
        neg_coef = scale * (-0.5 * params.dt if strang else -params.dt)
        m_pow = own ** (0.5 * (params.alpha - 1.0))
        neg_coef *= m_pow[:-1] + m_pow[1:] if strang else m_pow[:-1]
    abort = None
    bad = (np.abs(re_m) > OVERFLOW_GUARD) | ~np.isfinite(other)
    if bad.any():
        k = int(bad.argmax())
        abort = _abort_at("|Re M| exceeds the overflow guard" if abs(re_m[k]) > OVERFLOW_GUARD
                          else "non-finite state" if not math.isfinite(own[k])
                          else "mass reconstruction overflows" if math.isinf(weights[k])
                          else "non-finite mass", k)
    mass_x, mass_y = (own, other) if direct else (other, own)
    return MassIdentity(path.times, mass_x, mass_y, re_m, expo, neg_coef, abort)


def identity_outcome(grid: GridSpec, model: NoiseModel, params: SimParams,
                     x: ComplexField, path: MartingalePath):
    """What :func:`simulate_block` returns for one homogeneous path from x
    when no index but the last is saved, without its fields: the path's
    :class:`MassIdentity` (the record's series) or its abort.  The march
    stops a row the identity lets through only where its unit state w or a
    step's angle is non-finite.  By Cauchy-Schwarz |w|^2 <= 1/cv and step
    k's angle is at most cv^{-p} |c_k|: where 1/cv and that bound, summed
    before the path's abort, are finite, nothing is marched.  Otherwise the
    angle depends on the field (a state on one point reaches the bound),
    and the path is marched alone."""
    identity = mass_identity(model, params, path, x.mass)
    bound, coef = 1.0 / grid.cell_volume, identity.neg_coef
    if coef is not None:
        stop = None if identity.abort is None else identity.abort.time_index
        bound += (float(np.abs(coef[:stop]).sum())
                  * grid.cell_volume ** -(0.5 * (params.alpha - 1.0)))
    if math.isfinite(bound):
        return identity.abort or identity
    outcome, = simulate_block(grid, model, params, x, [path])
    return outcome if isinstance(outcome, NumericalAbort) else identity


class _Block:
    """The march's state for B paths on one grid, row b for ``paths[b]``
    (module docstring).  ``mass`` is the initial state's, from which
    homogeneous rows' identities are read.  The defaults build the tables
    alone: no save index, no snapshot and a unit initial mass."""

    def __init__(self, grid: GridSpec, model: NoiseModel, params: SimParams,
                 paths: list, save_set=frozenset(), snapshots: list | None = None,
                 mass: float = 1.0):
        self.grid, self.model, self.params, self.paths = grid, model, params, paths
        self.save_set, self.snapshots = save_set, snapshots
        self.homogeneous = model.spatially_homogeneous
        self.direct = params.scheme == "direct"
        self.cv = grid.cell_volume
        self.n_steps = n_steps = params.n_steps
        dt, mu, rows = params.dt, model.mu, len(paths)
        self.lin_half = grid.propagator(0.5 * dt)
        self.pow_half = 0.5 * (params.alpha - 1.0)
        self.phase_on = params.lam != 0
        self.strang_phase = self.phase_on and params.splitting == "strang"
        # sum_j mu_j M_j at the save indices, the only ones that read it (taken
        # from the whole series: one entry's own product can differ from it in
        # the last bit)
        saves = sorted(save_set)
        self.m_saved = [dict(zip(saves, path.complex_series(mu)[saves])) for path in paths]
        self.final_x, self.final_y = [None] * rows, [None] * rows
        self.end, self.stop, self.last = np.full(rows, n_steps), [None] * rows, n_steps
        # each homogeneous row's finish index, and the indices the march checks
        self.finish, self.checks = [], frozenset()
        if self.homogeneous:
            ids = [mass_identity(model, params, path, mass) for path in paths]
            self.re_m, self.mass_x, self.mass_y = (np.array([getattr(i, name) for i in ids])
                                                   for name in ("re_m", "mass_x", "mass_y"))
            self.neg_coef = np.array([i.neg_coef for i in ids]) if self.phase_on else None
            scale = self.cv ** -self.pow_half if self.phase_on else None
            self.finish = [_finish_index(i.neg_coef, scale) for i in ids]
            self.checks = frozenset(save_set).union(self.finish)
            # the unit state times sqrt(mass_s) e^{i sum_{i<s} b_i} is the
            # row's state at save index s
            own = self.mass_x if self.direct else self.mass_y
            turn = np.zeros(own.shape)
            np.cumsum(np.array([i.exponents.imag for i in ids]), axis=1, out=turn[:, 1:])
            hand = np.sqrt(own[:, saves]) * np.exp(1j * turn[:, saves])
            self.hand = [dict(zip(saves, row)) for row in hand]
            # a row stops before its path's abort
            for b, identity in enumerate(ids):
                if identity.abort is not None:
                    self.stop_after(b, identity.abort.time_index - 1, identity.abort)
        else:
            e = model.sample_profiles(grid)
            # the real table [e; e^2], whose first J rows are the profiles:
            # a and b of step k's noise exponent
            # sum_j mu_j e_j dM_j(k) - corr_j e_j^2 dQ_j(k) are the product of
            # a path's (2, 2J) coefficient block k with it; (B, n_steps, 2, 2J)
            self.profile_table = np.concatenate([e, e**2])
            self.e_values = self.profile_table[:mu.size]
            corr = model.ito_correction
            c = np.array([np.concatenate([mu[:, None] * p.increments,
                                          -corr[:, None] * p.dqv]) for p in paths])
            self.noise_coefs = np.ascontiguousarray(
                np.stack([c.real, c.imag]).transpose(1, 3, 0, 2))
            # sum_j Re(mu_j) M_j at every grid time
            self.re_m = np.array([path.real_part_series(mu) for path in paths])
            self.mass_x, self.mass_y = np.empty(self.re_m.shape), np.empty(self.re_m.shape)
            # -c, the rotation's coefficient of |u|^{alpha-1}: a half step's
            # (Strang) or a full step's (Lie)
            self.neg_coef = np.full((rows, n_steps), float(params.lam)) * (
                -0.5 * dt if params.splitting == "strang" else -dt) if self.phase_on else None
        # the scheme's own mass (the state's) and the other one, as [k, b]
        # views: one time index of every row is then a basic index
        self.own, self.other = (self.mass_x.T, self.mass_y.T) if self.direct \
            else (self.mass_y.T, self.mass_x.T)
        # increments of the stochastic mass sum, summed after the march
        self.ito = np.zeros(self.re_m.shape)

        # Scratch every step writes into, row b for paths[b] for the whole
        # march: the state's spectrum, a spectral and a physical buffer, the
        # rotation factor, two real fields, and on varying rows e^a and the
        # Strang phase factor.
        shape = (rows, grid.size)
        self.yh, self.spec, self.phys, self.rot = np.empty((4, *shape), dtype=complex)
        self.amp, self.angle = np.empty((2, *shape))
        if not self.homogeneous:
            self.ea, self.fac = np.empty((2, *shape))

    def noise_factors(self, k: int, coefs: np.ndarray) -> tuple:
        """The ``pointwise_step`` factors of step k on every varying row:
        1 + e^{(alpha-1) a} (Strang phase only, else None), e^a and b, from
        the noise exponents a + ib, the product of the rows' (2, 2J)
        coefficient blocks ``coefs`` with the profile table.  A row still
        marching whose a passes the guard stops after k."""
        # a and b go into the spectral buffer, which the step does not read
        # between its inverse and forward transforms
        out = self.spec.view(np.float64).reshape(len(self.paths), 2, -1)
        a, b = np.matmul(coefs, self.profile_table, out=out).transpose(1, 0, 2)
        tripped = (a.max(axis=1) > OVERFLOW_GUARD) | (a.min(axis=1) < -OVERFLOW_GUARD)
        for row in np.flatnonzero(tripped & (self.end > k)).tolist():
            self.stop_after(row, k, _abort_at("noise exponent exceeds the overflow guard", k))
        factor = None
        if self.strang_phase:
            factor = np.multiply(a, self.params.alpha - 1.0, out=self.fac)
            np.exp(factor, out=factor)
            factor += 1.0
        return factor, np.exp(a, out=self.ea), b

    def pointwise_step(self, u: np.ndarray, neg_coef: np.ndarray | None,
                       factor: np.ndarray | None = None, scale: np.ndarray | None = None,
                       b: np.ndarray | None = None) -> None:
        """Rotate the physical states u of every row by the step's phase
        (module docstring); ``neg_coef`` is the (B, 1) column of the rows'
        -c, or None without a phase.  A spatially varying row also takes the
        step's multiplier e^{a + ib}: ``scale`` = e^a and ``b`` are (B, n^d)
        rows, and ``factor`` is 1 + e^{(alpha-1) a}, or None unless the phase
        is Strang's.  Where that overflows, the second half phase comes from
        |u e^a|^{alpha-1}, as a second rotation takes it."""
        amp, angle, rot = self.amp, self.angle, self.rot
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
                np.multiply(amp, factor, out=angle)
                angle *= neg_coef
                if over is not None and over.any():
                    v, e = u[over], scale[over]
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

    def m_field_values(self, b: int, k: int) -> np.ndarray:
        """Spatially varying row b's M(t_k, xi), flat complex."""
        c = self.model.mu * self.paths[b].values[:, k]
        m = np.empty(self.grid.size, dtype=np.complex128)
        m.real, m.imag = c.real @ self.e_values, c.imag @ self.e_values
        return m

    def stop_after(self, b: int, end: int, abort: NumericalAbort | None = None) -> None:
        """Row b's march records no index after ``end``; the row returns
        ``abort``, or without one finishes there, keeping its path's abort,
        if any.  The only code that sets ``end``, ``stop`` and ``last``, the
        largest end."""
        self.end[b], self.stop[b] = end, abort or self.stop[b]
        self.last = int(self.end.max())

    def fast_forward(self, b: int, k0: int, yh: np.ndarray) -> None:
        """Hand over row b's fields at the save indices after its finish
        index k0 and before its path's abort, if any, from its unit state's
        spectrum yh at k0, as if no later step had a phase: the unit state at
        save index s is U((s - k0) dt) yh, one multiply and one inverse.
        Called by ``record`` at k0; it writes the row's scratch, which the
        next step overwrites before reading."""
        end = self.n_steps if self.stop[b] is None else self.stop[b].time_index - 1
        spec, v = self.spec[b], self.phys[b]
        for s in sorted(self.save_set):
            if k0 < s <= end:
                np.multiply(self.grid.propagator((s - k0) * self.params.dt), yh, out=spec)
                self.save(b, s, self.grid.inverse(spec, out=v))

    def varying_masses(self, b: int, k: int, v: np.ndarray) -> float:
        """Row b's mass of y = v e^{-M} at index k, from its physical state
        v: cv sum |v|^2 e^{-2 Re M}, with e^{-Re M} applied twice, so the
        sum overflows where |y|^2 does.  Before the last index it also sets
        the row's stochastic mass sum increment over step k from the same
        |v|^2."""
        amp2, w, tmp = self.amp[b], self.angle[b], self.fac[b]
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

    def record(self, k: int, phys: np.ndarray) -> None:
        """Record time index k of each row still marching that is due there
        (every varying row; a homogeneous row at a save or its finish index)
        from its physical state ``phys``, a homogeneous row's unit state.  A
        row stops after k where its state is non-finite, a homogeneous row's
        mass departs from 1 by more than ``MASS_DEPARTURE`` per step (its
        identity mass above ``MASS_FLOOR``) or a varying row's other mass is
        non-finite.  One that passes hands its fields over at a save index;
        a homogeneous row at its finish index, unless k is its last, then
        hands over its tail (``fast_forward``) and finishes."""
        save = k in self.save_set
        rows = [b for b in np.flatnonzero(self.end >= k).tolist()
                if not self.homogeneous or save or self.finish[b] == k]
        masses = self.cv * _squared_norms(phys, self.rot) if rows else None
        for b in rows:
            mass = float(masses[b])
            if self.homogeneous:
                departure = abs(mass - 1.0) if self.own[k, b] > MASS_FLOOR else 0.0
                reason = f"mass departs from the identity by {departure:.3g}" \
                    if departure > MASS_DEPARTURE * (k + 1) else None
            else:
                self.own[k, b] = mass
                self.other[k, b] = self.varying_masses(b, k, phys[b]) \
                    if math.isfinite(mass) else math.nan
                reason = None if math.isfinite(self.other[k, b]) else "non-finite mass"
            if not math.isfinite(mass):
                reason = "non-finite state"
            if reason is not None:
                self.stop_after(b, k, _abort_at(reason, k))
                continue
            if save:
                self.save(b, k, phys[b])
            if self.homogeneous and self.finish[b] == k < self.end[b]:
                self.fast_forward(b, k, self.yh[b])
                self.stop_after(b, k)

    def save(self, b: int, k: int, v: np.ndarray) -> None:
        """Hand row b's X field at save index k, built once from its physical
        state v (a homogeneous row's unit state), to its snapshot callable,
        and at the last index keep it and y.  Both masses are finite here, so
        the fields are built without a finiteness scan."""
        if self.homogeneous:
            # the state's scale, and e^M between X and y
            scale, m = self.hand[b][k], np.exp(self.m_saved[b][k])
            x = v * (scale if self.direct else scale * m)
        else:
            x = v.copy()  # v is the march's scratch
        x = _trusted_field(x, self.grid)
        if self.snapshots is not None:
            self.snapshots[b](k, float(self.paths[b].times[k]), x)
        if k == self.n_steps:
            if self.homogeneous:
                y = v * (scale / m if self.direct else scale)
            else:  # y = v e^{-M}, built in place
                y = self.m_field_values(b, k)
                np.exp(np.negative(y, out=y), out=y)
                np.multiply(v, y, out=y)
            self.final_x[b] = x
            self.final_y[b] = _trusted_field(y, self.grid)

    def outcomes(self) -> list:
        """Each row's record, or the abort that stopped it, in row order:
        the march has handed over every field."""
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
    """March a block from x (module docstring): spectral state at integer
    times, two transforms per step, and one more at an index whose masses or
    checks need the physical state after a Strang step.  A row is recorded
    up to its end, and the march ends at ``block.last``."""
    grid, n_steps = block.grid, block.n_steps
    strang = block.params.splitting == "strang"
    half = block.lin_half
    lead, trail = (half, half) if strang else (half * half, None)
    yh, spec, u = block.yh, block.spec, block.phys
    neg_coef = block.neg_coef

    u[:] = x.values
    mass = x.mass
    if block.homogeneous and mass > 0:
        u /= math.sqrt(mass)
    grid.forward(u, out=yh)
    block.record(0, u)

    for k in range(n_steps):
        if k >= block.last:
            break
        np.multiply(lead, yh, out=spec)
        grid.inverse(spec, out=u)
        coef = None if neg_coef is None else neg_coef[:, k:k + 1]
        if block.homogeneous:
            block.pointwise_step(u, coef)
        else:
            block.pointwise_step(u, coef, *block.noise_factors(k, block.noise_coefs[:, k]))
        if trail is None:
            grid.forward(u, out=yh)
        else:
            grid.forward(u, out=spec)
            np.multiply(trail, spec, out=yh)
        if not block.homogeneous or k + 1 in block.checks:
            block.record(k + 1, u if trail is None else grid.inverse(yh, out=u))
