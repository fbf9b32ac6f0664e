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

All of this is algebraically identical to the plain composition; only the
fast-forward below departs from it, by dropping phase angles that sum to
less than 2^-63.  Every step writes into scratch the block allocates once.

One state, ``_Block``, holds the block: the tables every path shares, built
once; each path's tables (Re M, multipliers or noise coefficients, phase
coefficients, mass weights), stacked as (B, ...) rows; every row's series
as (B, n_steps + 1) arrays; and the scratch.  Row b of each is ``paths[b]``
for the whole march.  One call records a time index for every row: its own
mass, taken by Parseval from the block's one sum of squares, and the other
mass.  On homogeneous rows that is three operations over the block: the own
masses, the ``math.exp`` weights times them, and one finiteness test.  A
spatially varying row takes the mass of y = X e^{-M(xi)} as
cv sum |X|^2 e^{-2 Re M(xi)}, a real weight, and its Ito increment from the
same |X|^2, row by row, so the march transforms it back to physical space at
every step; the complex y is built only at the last index.  A row stops at
its first index with a non-finite mass, or before the step its guard trips
(|Re M| past ``OVERFLOW_GUARD`` on a homogeneous row, the noise exponent on a
varying one).

A homogeneous row also stops marching once its nonlinear phase is below
rounding for the rest of the run, and fast-forwards.  Its multiplier is
constant in space and commutes with the free flow, which keeps |yh| per
mode, so S_k = (1/N) sum |yh_k| times the product of the later |mid_i|
bounds |u| at every later step, and with the path-known phase coefficients
c_j and Strang factors F_j, S_k^{alpha-1} R_k, where
R_k = sum_{j>=k} |c_j| F_j prod_{k<=i<j} |mid_i|^{alpha-1}, bounds the
summed angle of every step after k at every point.  At the rungs of a
dyadic ladder, 0, n >> j and n - (n >> j) for j >= 1 with n = n_steps
(``_ladder``), a row still marching compares that bound, from its own
spectrum and tables alone, with ``FF_THRESHOLD`` = 2^-63, a margin of 2^10
under the rounding unit 2^-53; a row without a phase (lambda = 0) passes at
k = 0.  A row so marches at most twice as far as its phase needs in the first
half of the run, and at most half its remaining steps in the second.  A
block's march length is one of a few rungs set by the run length, not a step
count that follows each path's noise, so an ensemble's cost holds from one
seed to the next.  Once it passes, the row's remaining indices are recorded
at once in closed form: own masses as the mass at k times the running
product of |mid_i|^2, the other masses through the same weights, and the
state at each later save index as prod mid_i U((s - k) dt) yh_k, one
multiply and one inverse transform, so fields still stream.  The tail takes
the same checks, reasons and time indices as a marched index, and the
row's guard, if it trips later, still stops it.

One method, ``stop_after``, sets a row's end and stop: called by the
recording with the reason, by both guards, and with no reason when the row
fast-forwards; an aborted row returns its abort, with the message and time
index a step-by-step check gives.  A stopped or fast-forwarded row keeps its
slot and is stepped with its neighbours, but records nothing more; the
march ends once every row has stopped, so a block takes as many steps as
its last row needs.  It runs under ``np.errstate(over="ignore",
invalid="ignore")``: a row that overflows goes through the block's
arithmetic, and its abort, not a numpy warning, reports it.

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
* the noise guard and the e^{(alpha-1) a} overflow rule are decided per row,
  and the guard trips only rows still marching;
* a varying row's mass weight and Ito sums are taken one row at a time,
  from that row's (n^d,) values and its own path's coefficients;
* each row's mass, and a varying row's weighted mass sum, is a numpy
  pairwise sum over that row alone (never BLAS, whose threads change the
  bits);
* a row fast-forwards at an index decided from its own spectrum and its own
  path's tables, and its tail is computed from that row alone;
* the mass reconstruction weights use ``math.exp``, never ``np.exp`` (the
  two differ in the last bit on some entries);
* the stochastic mass sum is a sequential ``cumsum`` from 0.

A run records its scalar series (both masses, Re M, the stochastic mass
sum) at every step, marched or fast-forwarded, but keeps no field except its
final state: the record holds the one (X, y) pair at t_final.  Fields at the
save indices (every ``save_every`` steps, and the last step) go to an
optional snapshot callable as they are produced, in time order, so memory is
bounded by the grid, not by the run length; M(t_k) is kept at those indices
only.  A row records nothing past its first failing index, so no snapshot
is handed over past an abort.  A handed-over field skips ``ComplexField``'s
finiteness scan: its masses, sums of its squares, were checked finite.

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
    # arithmetic; its abort, not a numpy warning, reports it
    with np.errstate(over="ignore", invalid="ignore"):
        block = _Block(grid, model, params, paths, save_set, snapshots)
        _march(block, x)
    return block.outcomes()


def _ladder(n_steps: int) -> list:
    """The indices where a homogeneous row tests whether it may fast-forward,
    ascending: 0, n >> j and n - (n >> j) for j >= 1, n = n_steps."""
    halves = [n_steps >> j for j in range(1, n_steps.bit_length())]
    return sorted({0} | set(halves) | {n_steps - h for h in halves})


def _log_tail(mid: np.ndarray, neg_coef: np.ndarray | None, factor: np.ndarray | None,
              power: float, ks: list) -> np.ndarray:
    """log R_k of one homogeneous row at the indices ``ks`` < n_steps, with
    R_k = sum_{j>=k} |c_j| F_j prod_{k<=i<j} |mid_i|^{alpha-1} (``power`` is
    alpha - 1, F_j the Strang phase factor or 1), summed in logs because the
    products underflow over a decay run; -inf where R_k = 0, as without a
    phase."""
    n = mid.size
    if neg_coef is None:
        return np.full(len(ks), -math.inf)
    with np.errstate(divide="ignore"):  # log 0 = -inf: a zero factor
        cum = np.zeros(n + 1)
        np.cumsum(power * np.log(np.abs(mid)), out=cum[1:])
        terms = np.log(np.abs(neg_coef)) + cum[:-1]
        if factor is not None:
            terms += np.log(factor)
    suffix = np.logaddexp.accumulate(terms[::-1])[::-1]
    return suffix[ks] - cum[ks]


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
        corr = model.ito_correction
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

        # sum_j Re(mu_j) M_j at every grid time, and sum_j mu_j M_j at the
        # save indices, the only ones that read it (taken from the whole
        # series: one entry's own product can differ from it in the last bit)
        self.re_m = np.array([path.real_part_series(mu) for path in paths])
        saves = sorted(save_set)
        self.m_saved = [dict(zip(saves, path.complex_series(mu)[saves])) for path in paths]
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
        self.last = n_steps
        # row b -> (indices, own masses, other masses) of its closed-form tail
        self.tails = {}
        if self.homogeneous:
            # log R_k on the ladder, by rung: see ``finished``
            ladder = _ladder(n_steps)
            self.rung = {k: i for i, k in enumerate(ladder)}
            coefs = [None] * len(paths) if self.neg_coef is None else self.neg_coef
            factors = [None] * len(paths) if self.phase_factor is None else self.phase_factor
            self.log_tail = np.array([_log_tail(m, c, f, alpha - 1.0, ladder) for m, c, f
                                      in zip(self.mid_scalar, coefs, factors)])
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

        # Scratch every step writes into, row b for paths[b] for the whole
        # march: the state's spectrum, a spectral and a physical buffer, the
        # rotation factor, two real fields, and e^a and the Strang phase
        # factor, one column entry per row when they are constant in space.
        rows = (len(paths), grid.size)
        self.yh, self.spec, self.phys, self.rot = np.empty((4, *rows), dtype=complex)
        self.amp, self.angle = np.empty((2, *rows))
        self.ea, self.fac = np.empty((2, len(paths), 1 if self.homogeneous else grid.size))

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
                       factor: np.ndarray | None, scale: np.ndarray,
                       b: np.ndarray | None) -> None:
        """Apply the step's multiplier e^{a + ib} and its phase rotation to
        the physical states u of every row, as the module docstring
        describes.  ``neg_coef`` is the (B, 1) column of -c, the
        rows' phase coefficient of the step, or None without a phase;
        ``factor`` is 1 + e^{(alpha-1) a}, or None unless the phase is
        Strang's.  On spatially varying rows, ``factor``, ``scale`` = e^a
        and ``b`` are (B, n^d) rows; on homogeneous rows, ``factor`` is a
        (B, 1) column, ``scale`` the multiplier e^{a + ib} as a (B, 1)
        complex column, and ``b`` None.  Where e^{(alpha-1) a} overflows,
        the row's second half phase comes from |u e^a|^{alpha-1}, as a
        second rotation takes it: u = 0 stays 0, and the angle overflows only
        where that rotation's does."""
        amp, angle, rot, fac = self.amp, self.angle, self.rot, self.fac
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

    def m_value(self, b: int, k: int) -> complex:
        """Row b's sum_j mu_j M_j(t_k): kept for the save indices, taken from
        the whole series otherwise."""
        saved = self.m_saved[b]
        return saved[k] if k in saved else self.paths[b].complex_series(self.model.mu)[k]

    def m_field_values(self, b: int, k: int) -> np.ndarray:
        """Row b's M(t_k, xi), flat complex (a scalar broadcast if homogeneous)."""
        if self.homogeneous:
            return np.full(self.grid.size, self.m_value(b, k))
        c = self.model.mu * self.paths[b].values[:, k]
        m = np.empty(self.grid.size, dtype=np.complex128)
        m.real, m.imag = c.real @ self.e_values, c.imag @ self.e_values
        return m

    def stop_after(self, b: int, end: int, abort: NumericalAbort | None = None) -> None:
        """Row b's march records no index after ``end``.  With ``abort`` the
        row returns it.  Without one the row has finished (``finished``): its
        later indices, up to the step before its guard if it has one, are
        recorded in closed form now, and it returns the tail's abort or the
        guard's, if any.  The only code that sets ``end``, ``stop`` and
        ``last``, the largest end."""
        if abort is None:
            abort = self.fast_forward(b, end) or self.stop[b]
        self.end[b], self.stop[b] = end, abort
        self.last = int(self.end.max())

    def finished(self, b: int, k: int, yh: np.ndarray) -> bool:
        """Whether homogeneous row b, at ladder index k with spectrum yh, may
        drop its nonlinear phase for the rest of the run.  The free flow
        keeps |yh| per mode and the multipliers only scale it, so
        S = (1/N) sum |yh| times prod |mid_i| bounds |u| at every later
        step, and S^{alpha-1} R_k (``_log_tail``) bounds the summed angle of
        every step after k at every point; it must be below FF_THRESHOLD.
        Read from the row's own spectrum and tables only."""
        log_r = float(self.log_tail[b, self.rung[k]])
        if log_r == -math.inf:
            return True
        s = float(np.abs(yh).sum()) / self.grid.size
        return s == 0.0 or (math.isfinite(s) and (self.params.alpha - 1.0) * math.log(s)
                            + log_r < math.log(FF_THRESHOLD))

    def fast_forward(self, b: int, k0: int) -> NumericalAbort | None:
        """Record row b's indices k0 < k <= ``end[b]`` in closed form from its
        spectrum ``yh[b]`` at k0, as if every later step had no phase: the own
        mass is the own mass at k0 times the running product of |mid_i|^2,
        the other mass its ``math.exp`` weight times that, and the spectrum
        at a save index s is prod_{k0<=i<s} mid_i U((s - k0) dt) yh, one
        multiply and one inverse.  The masses are also kept in ``tails``,
        because the march, which steps the row on, writes over them.  Returns
        the abort of the first index whose mass is non-finite, as ``record``
        names it; no field is handed over from that index on."""
        end = int(self.end[b])
        tail = slice(k0 + 1, end + 1)
        mid = self.mid_scalar[b, k0:end]
        own, other = self.own[tail, b], self.other[tail, b]
        np.multiply(self.own[k0, b], np.cumprod(np.square(np.abs(mid))), out=own)
        np.multiply(self.weights[tail, b], own, out=other)
        self.tails[b] = (tail, own.copy(), other.copy())
        bad = np.flatnonzero(~np.isfinite(other))
        good = end if bad.size == 0 else k0 + int(bad[0])
        saves = [s for s in sorted(self.save_set) if k0 < s <= good]
        if saves:
            factors, spec, v = np.cumprod(mid), self.spec[b], self.phys[b]
            for s in saves:
                np.multiply(self.grid.propagator((s - k0) * self.params.dt), self.yh[b],
                            out=spec)
                spec *= factors[s - k0 - 1]
                self.save(b, s, self.grid.inverse(spec, out=v))
        return None if good == end else self.failure(b, good + 1)

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

    def record(self, k: int, masses: np.ndarray, phys) -> None:
        """Record time index k of every row from its own mass and physical
        state ``phys``, which homogeneous rows need only at save indices.  A
        row that stopped before k is skipped.  A homogeneous index is
        written for every row, a finished one too, whose tail ``outcomes``
        puts back: one store per index, whoever has finished.

        Where either mass is non-finite the row stops after k with the reason
        (``failure``) and hands nothing over.  Otherwise, at a save index the
        row's fields are handed over (``save``).  Then, at a ladder index,
        every homogeneous row still marching that may fast-forward finishes
        after k."""
        own, other = self.own, self.other
        rows = range(len(self.paths))
        if self.homogeneous:
            own[k] = masses
            # Python floats: on a few rows cheaper than numpy calls
            other[k] = weighted = [w * m for w, m in zip(self.weights[k].tolist(),
                                                         masses.tolist())]
            if all(map(math.isfinite, weighted)) and k not in self.save_set:
                rows = ()
        for b in rows:
            if self.end[b] < k:
                continue
            if not self.homogeneous:
                own[k, b] = masses[b]
                other[k, b] = self.varying_masses(b, k, phys[b]) \
                    if math.isfinite(masses[b]) else math.nan
            if not math.isfinite(other[k, b]):
                self.stop_after(b, k, self.failure(b, k))
            elif k in self.save_set:
                self.save(b, k, phys[b])
        if self.homogeneous and k in self.rung:
            for b in np.flatnonzero(self.end > k).tolist():
                if self.finished(b, k, self.yh[b]):
                    self.stop_after(b, k)

    def failure(self, b: int, k: int) -> NumericalAbort:
        """The abort of row b at k, where its other mass is non-finite: a
        non-finite own mass, before an overflowing reconstruction weight,
        before a non-finite other mass."""
        if not math.isfinite(self.own[k, b]):
            reason = "non-finite state"
        elif self.homogeneous and math.isinf(self.weights[k, b]):
            reason = "mass reconstruction overflows"
        else:
            reason = "non-finite mass"
        return _abort_at(reason, k)

    def save(self, b: int, k: int, v: np.ndarray) -> None:
        """Hand row b's X field at save index k, built once from its physical
        state v, to its snapshot callable, and at the last index keep it and
        y.  Both masses are finite here, so the fields are built without a
        finiteness scan."""
        # v is the march's scratch: the X field gets its own copy
        x = _trusted_field(v.copy() if self.direct else v * np.exp(self.m_value(b, k)),
                           self.grid)
        if self.snapshots is not None:
            self.snapshots[b](k, float(self.paths[b].times[k]), x)
        if k == self.n_steps:
            if self.direct:  # y = v e^{-M}, built in place
                y = self.m_field_values(b, k)
                np.exp(np.negative(y, out=y), out=y)
                np.multiply(v, y, out=y)
            else:
                y = v.copy()
            self.final_x[b] = x
            self.final_y[b] = _trusted_field(y, self.grid)

    def outcomes(self) -> list:
        """Each row's record, or the abort that stopped it, in row order."""
        for b, (tail, own, other) in self.tails.items():
            self.own[tail, b], self.other[tail, b] = own, other
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
    steps lead with the full one.  Row b of every buffer and table is
    ``paths[b]``; a row marches every index up to its end (its first failing
    index, the step before a guard, or the index where it fast-forwards), is
    stepped but skipped after it, and the march ends at ``block.last``, once
    every row has stopped."""
    grid, n_steps, save_set = block.grid, block.n_steps, block.save_set
    strang = block.params.splitting == "strang"
    half = block.lin_half
    lead, trail = (half, half) if strang else (half * half, None)
    parseval = grid.cell_volume / grid.size
    yh, spec, u, rot = block.yh, block.spec, block.phys, block.rot

    u[:] = x.values
    grid.forward(u, out=yh)
    block.record(0, np.full(len(block.paths), x.mass), u)
    # the per-row tables the step reads: the multipliers e^{a + ib}
    # (homogeneous) or the noise coefficient blocks, the Strang phase
    # factors, and the phase coefficients
    mult = block.mid_scalar if block.homogeneous else block.noise_coefs
    factor, neg_coef = block.phase_factor, block.neg_coef

    for k in range(n_steps):
        if k >= block.last:
            break
        np.multiply(lead, yh, out=spec)
        grid.inverse(spec, out=u)
        coef = None if neg_coef is None else neg_coef[:, k:k + 1]
        if block.homogeneous:
            block.pointwise_step(u, coef, None if factor is None else factor[:, k:k + 1],
                                 mult[:, k:k + 1], None)
        else:
            block.pointwise_step(u, coef, *block.noise_factors(k, mult[:, k]))
        if trail is None:
            grid.forward(u, out=yh)
        else:
            grid.forward(u, out=spec)
            np.multiply(trail, spec, out=yh)

        if block.homogeneous and k + 1 not in save_set:
            phys = None
        else:
            phys = u if trail is None else grid.inverse(yh, out=u)
        block.record(k + 1, parseval * _squared_norms(yh, rot), phys)
