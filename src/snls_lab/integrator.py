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
plain composition survives only as the test suite's oracle.  ``simulate``
marches one noise path per call, its state one flat n^d complex array.  A
step leads with the linear flow, half (Strang) or full (Lie), rotates the
phase and applies the noise-or-damping multiplier; Strang then trails with
the second half linear flow.  The state stays spectral between steps, so
consecutive linear flows meet without a transform.  Every step makes one
pointwise pass, ``_Block.pointwise_step``.

A spatially varying run takes the noise multiplier e^{a + ib}, which scales
|u| by e^a pointwise, so Strang's two half phases merge into one,
theta = -c |u|^{alpha-1} (1 + e^{(alpha-1) a}) with c the half-step
coefficient (Lie: theta = -c_full |u|^{alpha-1}), and the run takes
u *= e^a (cos(b + theta) + i sin(b + theta)): a and b come from one
product of the step's path coefficients with the profile table, one real
exp and one cos/sin pair per point.  Where e^{(alpha-1) a} overflows, the
second half phase comes from |u e^a|^{alpha-1} instead, so the run stops
where two rotations would.  Its recording needs the physical state, so its
Strang step takes three transforms.

On a homogeneous run (every rescaled run) the multiplier is constant in
space and commutes with the free flow, and the rotation keeps |u|
pointwise, so the run's mass is a functional of its path,
mass_k = mass_0 prod_{i<k} |e^{a_i + i b_i}|^2, and its state is
u_k = sqrt(mass_k) e^{i sum_{i<k} b_i} w_k with w_k of unit mass.  The run
marches w from x / sqrt(mass_0), and a rotation is all of its step: with
p = (alpha-1)/2, by -c_k (mass_k^p + mass_{k+1}^p) |w|^{alpha-1} (Strang) or
-c_k mass_k^p |w|^{alpha-1} (Lie).  ``mass_identity`` reads from the path
alone both masses at every index (the other is the ``math.exp`` weight of
-2 Re M, direct, or 2 Re M, rescaled, times the own), these coefficients
and the path's abort; the march adds the scalar
sqrt(mass_s) e^{i sum_{i<s} b_i} that takes w to the state at each save
index s (times e^{M_s} for the X of a rescaled run).  The march takes w's
mass only at its check indices, the save indices and its finish index, and
stops there where it is non-finite or departs from 1 by more than
``MASS_DEPARTURE`` per step (where the identity mass exceeds
``MASS_FLOOR``).  A run that needs no field, an ensemble path, takes its
identity alone and marches nothing (``identity_outcome``).

The run stops marching at its finish index, once its nonlinear phase is
below rounding for the rest of the run, and fast-forwards.  By
Cauchy-Schwarz and Parseval, |w| <= (1/N) sum |wh_k| <= cv^{-1/2}, so
B_k = cv^{-p} sum_{j>=k} |c_j| bounds the summed angle of every step after k
at every point.  The finish index, the first k < n with
B_k < ``FF_THRESHOLD`` = 2^-63 (a margin of 2^10 under the rounding unit
2^-53), is read from the coefficients before the march
(``_finish_index``); without a phase (lambda = 0) it is 0.  There the
record hands over the fields at each later save index s from
U((s - k) dt) wh_k, one multiply and one inverse, and the march stops.
All of this is algebraically identical to the plain composition; only the
fast-forward departs from it, by dropping angles that sum to under 2^-63.

One state, ``_Block``, holds the march: the path's tables, its series as
(n_steps + 1,) arrays, and the scratch every step writes into.  Every mass
the march records or checks is cv sum |v|^2 of a physical state v, as
``ComplexField.mass`` takes it, so it overflows only where the mass does.
A spatially varying run records both masses at every step: its own from
the state's sum of squares, and the mass of y = X e^{-M(xi)} as
cv sum |X|^2 e^{-2 Re M(xi)}, a real weight, with its Ito increment from
the same |X|^2; the complex y is built only at the last index.

The march stops at its first index with a non-finite mass (its identity's
abort on a homogeneous run), at a failed check, or before the step its
guard trips (|Re M| past ``OVERFLOW_GUARD`` on a homogeneous run, the noise
exponent on a varying one): ``stop_after`` sets its end and abort, with the
message and time index a step-by-step check gives, or, without an abort,
finishes it.  It runs under ``np.errstate(over="ignore", invalid="ignore")``:
a run that overflows goes through the march's arithmetic, and its abort,
not a numpy warning, reports it.

The march is bitwise equal to the same path with its checks and sums taken
step by step, whatever the BLAS thread count, because:

* the free multiplier is applied as ``half * x`` (complex products are not
  bitwise commutative: ``h * a`` and ``a * h`` can differ in the last bit);
* the rotation is written in place as cos + i sin of the real angle, which
  equals ``np.exp(1j * theta)``, times e^a on a varying run;
* each mass, and a varying run's weighted mass sum, is a numpy pairwise
  sum (never BLAS, whose threads change the bits);
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
#: point, below which a homogeneous run fast-forwards: 2^-63, a margin of
#: 2^10 under the rounding unit 2^-53 of one rotation.
FF_THRESHOLD = 2.0 ** -63
#: Relative departure per step of a homogeneous run's Parseval mass from its
#: identity past which the check stops the run: 250x the largest measured.
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

    @property
    def save_stride(self) -> int:
        """Steps between the fields a snapshot callable receives, besides the
        last one: ``save_every``, by default about 512 over the run."""
        return self.save_every or max(1, math.ceil(self.n_steps / 512))

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
    """Integrate from x over [0, t_final] along one noise path and record
    the run, or raise the :class:`NumericalAbort` that stopped it.

    The noise path is sampled once from (model, dt, n_steps, seed) unless one
    is supplied, so paired runs can share it; ``seed`` is then unused.
    ``snapshot``, when given, is called as ``snapshot(k, t_k, X)`` with the X
    field at every ``save_every``-th time index (default about 512 over the
    run) and at the last one, in time order; X must not be modified, but the
    run never writes it again, so the callable may keep it without a copy.
    An aborted run has handed over the fields of the save indices before its
    abort.
    """
    if path is None:
        path = sample_martingale(model, params.dt, params.n_steps, seed)
    if x.grid is not grid and x.grid != grid:
        raise ValueError("initial state lives on a different grid")
    params.validate_alpha(grid.dimension)
    if params.scheme == "rescaled" and not model.spatially_homogeneous:
        raise AssumptionVeto(
            "scheme=rescaled requires constant-one noise profiles (set "
            "noise.profiles to constant-one or use scheme=direct)"
        )
    n_steps = params.n_steps
    if path.n_steps != n_steps:
        raise ValueError(f"supplied path has {path.n_steps} steps, run needs {n_steps}")
    if abs(path.dt - params.dt) > 1e-12 * params.dt:
        raise ValueError(f"supplied path step {path.dt} != dt {params.dt}")
    warn_if_underresolved(x, "initial state")

    save_set = {n_steps}
    if snapshot is not None:
        save_set.update(range(0, n_steps + 1, params.save_stride))
    # a run whose tables or state overflow goes through the march's
    # arithmetic; its abort, not a numpy warning, reports it
    with np.errstate(over="ignore", invalid="ignore"):
        block = _Block(grid, model, params, path, save_set, snapshot, x.mass)
        _march(block, x)
        outcome = block.outcome()
    if isinstance(outcome, NumericalAbort):
        raise outcome
    return outcome


def _finish_index(neg_coef: np.ndarray | None, scale: float) -> int:
    """The first index k < n_steps at which a homogeneous run's bound
    B_k = ``scale`` sum_{j>=k} |c_j| (module docstring) is below
    FF_THRESHOLD, or n_steps if none is; ``scale`` is cv^{-(alpha-1)/2} and
    c_j the run's phase coefficients, its mass folded in.  0 without a
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
    """What :func:`simulate` gives for one homogeneous path from x when no
    index but the last is saved, without its fields: the path's
    :class:`MassIdentity` (the record's series) or its abort.  The march
    stops a run the identity lets through only where its unit state w or a
    step's angle is non-finite.  By Cauchy-Schwarz |w|^2 <= 1/cv and step
    k's angle is at most cv^{-p} |c_k|: where 1/cv and that bound, summed
    before the path's abort, are finite, nothing is marched.  Otherwise the
    angle depends on the field (a state on one point reaches the bound),
    and the path is marched."""
    identity = mass_identity(model, params, path, x.mass)
    bound, coef = 1.0 / grid.cell_volume, identity.neg_coef
    if coef is not None:
        stop = None if identity.abort is None else identity.abort.time_index
        bound += (float(np.abs(coef[:stop]).sum())
                  * grid.cell_volume ** -(0.5 * (params.alpha - 1.0)))
    if math.isfinite(bound):
        return identity.abort or identity
    try:
        simulate(grid, model, params, x, path=path)
    except NumericalAbort as abort:
        return abort
    return identity


class _Block:
    """The march's state for one path on one grid (module docstring).
    ``mass`` is the initial state's, from which a homogeneous path's
    identity is read.  The defaults build the tables alone: no save index,
    no snapshot and a unit initial mass."""

    def __init__(self, grid: GridSpec, model: NoiseModel, params: SimParams,
                 path: MartingalePath, save_set=frozenset(), snapshot=None,
                 mass: float = 1.0):
        self.grid, self.model, self.params, self.path = grid, model, params, path
        self.save_set, self.snapshot = save_set, snapshot
        self.homogeneous = model.spatially_homogeneous
        self.direct = params.scheme == "direct"
        self.cv = grid.cell_volume
        self.n_steps = n_steps = params.n_steps
        dt, mu = params.dt, model.mu
        self.lin_half = grid.propagator(0.5 * dt)
        self.pow_half = 0.5 * (params.alpha - 1.0)
        self.phase_on = params.lam != 0
        self.strang_phase = self.phase_on and params.splitting == "strang"
        self.final_x = self.final_y = self.stop = None
        self.end = n_steps
        # the finish index, and the indices the march records: every index
        # of a varying run
        self.finish, self.checks = n_steps, range(n_steps + 1)
        if self.homogeneous:
            identity = mass_identity(model, params, path, mass)
            self.re_m, self.mass_x, self.mass_y = identity.re_m, identity.mass_x, identity.mass_y
            self.neg_coef = identity.neg_coef
            self.finish = _finish_index(
                self.neg_coef, self.cv ** -self.pow_half if self.phase_on else None)
            self.checks = frozenset(save_set).union([self.finish])
            # sum_j mu_j M_j at the save indices, the only ones that read it
            # (taken from the whole series: one entry's own product can
            # differ from it in the last bit), and the scalar
            # sqrt(mass_s) e^{i sum_{i<s} b_i} that takes the unit state to
            # the state at save index s
            saves = sorted(save_set)
            self.m_saved = dict(zip(saves, path.complex_series(mu)[saves]))
            own = self.mass_x if self.direct else self.mass_y
            turn = np.zeros(own.shape)
            np.cumsum(identity.exponents.imag, out=turn[1:])
            self.hand = dict(zip(saves, np.sqrt(own[saves]) * np.exp(1j * turn[saves])))
            # the march stops before its path's abort
            if identity.abort is not None:
                self.stop_after(identity.abort.time_index - 1, identity.abort)
        else:
            e = model.sample_profiles(grid)
            # the real table [e; e^2], whose first J rows are the profiles:
            # a and b of step k's noise exponent
            # sum_j mu_j e_j dM_j(k) - corr_j e_j^2 dQ_j(k) are the product of
            # the path's (2, 2J) coefficient block k with it; (n_steps, 2, 2J)
            self.profile_table = np.concatenate([e, e**2])
            self.e_values = self.profile_table[:mu.size]
            c = np.concatenate([mu[:, None] * path.increments,
                                -model.ito_correction[:, None] * path.dqv])
            self.noise_coefs = np.ascontiguousarray(np.stack([c.real, c.imag]).transpose(2, 0, 1))
            # sum_j Re(mu_j) M_j at every grid time
            self.re_m = path.real_part_series(mu)
            self.mass_x, self.mass_y = np.empty(self.re_m.shape), np.empty(self.re_m.shape)
            # -c, the rotation's coefficient of |u|^{alpha-1}: a half step's
            # (Strang) or a full step's (Lie)
            self.neg_coef = np.full(n_steps, float(params.lam)) * (
                -0.5 * dt if params.splitting == "strang" else -dt) if self.phase_on else None
        # the scheme's own mass (the state's) and the other one
        self.own, self.other = (self.mass_x, self.mass_y) if self.direct \
            else (self.mass_y, self.mass_x)
        # increments of the stochastic mass sum, summed after the march
        self.ito = np.zeros(self.re_m.shape)

        # Scratch every step writes into: the state's spectrum, a spectral
        # and a physical buffer, the rotation factor, two real fields, and
        # on a varying run e^a and the Strang phase factor.
        self.yh, self.spec, self.phys, self.rot = np.empty((4, grid.size), dtype=complex)
        self.amp, self.angle = np.empty((2, grid.size))
        if not self.homogeneous:
            self.ea, self.fac = np.empty((2, grid.size))

    def noise_factors(self, k: int, coefs: np.ndarray) -> tuple:
        """The ``pointwise_step`` factors of step k on a varying run:
        1 + e^{(alpha-1) a} (Strang phase only, else None), e^a and b, from
        the noise exponents a + ib, the product of the step's (2, 2J)
        coefficient block ``coefs`` with the profile table.  Where a passes
        the guard, the march stops after k."""
        # a and b go into the spectral buffer, which the step does not read
        # between its inverse and forward transforms
        out = self.spec.view(np.float64).reshape(2, -1)
        a, b = np.matmul(coefs, self.profile_table, out=out)
        if a.max() > OVERFLOW_GUARD or a.min() < -OVERFLOW_GUARD:
            self.stop_after(k, _abort_at("noise exponent exceeds the overflow guard", k))
        factor = None
        if self.strang_phase:
            factor = np.multiply(a, self.params.alpha - 1.0, out=self.fac)
            np.exp(factor, out=factor)
            factor += 1.0
        return factor, np.exp(a, out=self.ea), b

    def pointwise_step(self, u: np.ndarray, neg_coef: float | None,
                       factor: np.ndarray | None = None, scale: np.ndarray | None = None,
                       b: np.ndarray | None = None) -> None:
        """Rotate the physical state u by the step's phase (module
        docstring); ``neg_coef`` is the step's -c, or None without a phase.
        A spatially varying run also takes the step's multiplier e^{a + ib}:
        ``scale`` = e^a and ``b`` are (n^d,) fields, and ``factor`` is
        1 + e^{(alpha-1) a}, or None unless the phase is Strang's.  Where
        that overflows, the second half phase comes from |u e^a|^{alpha-1},
        as a second rotation takes it."""
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
            elif factor.max() == math.inf:
                second = ((np.square(u.real) + np.square(u.imag)) * scale * scale) \
                    ** self.pow_half
                np.multiply(second + amp, neg_coef, out=angle)
            else:
                np.multiply(amp, factor, out=angle)
                angle *= neg_coef
            if b is not None:
                angle += b
        if angle is not None:
            np.cos(angle, out=rot.real)
            np.sin(angle, out=rot.imag)
            if b is not None:
                rot.real *= scale
                rot.imag *= scale
            u *= rot

    def m_field_values(self, k: int) -> np.ndarray:
        """A spatially varying path's M(t_k, xi), flat complex."""
        c = self.model.mu * self.path.values[:, k]
        m = np.empty(self.grid.size, dtype=np.complex128)
        m.real, m.imag = c.real @ self.e_values, c.imag @ self.e_values
        return m

    def stop_after(self, end: int, abort: NumericalAbort | None = None) -> None:
        """The march records no index after ``end``; the run returns
        ``abort``, or without one finishes there, keeping its path's abort,
        if any.  The only code that sets ``end`` and ``stop``."""
        self.end, self.stop = end, abort or self.stop

    def fast_forward(self, k0: int, yh: np.ndarray) -> None:
        """Hand over the fields at the save indices after the finish index
        k0 and before the path's abort, if any, from the unit state's
        spectrum yh at k0, as if no later step had a phase: the unit state
        at save index s is U((s - k0) dt) yh, one multiply and one inverse.
        Called by ``record`` at k0; it writes the march's scratch."""
        end = self.n_steps if self.stop is None else self.stop.time_index - 1
        for s in sorted(self.save_set):
            if k0 < s <= end:
                np.multiply(self.grid.propagator((s - k0) * self.params.dt), yh, out=self.spec)
                self.save(s, self.grid.inverse(self.spec, out=self.phys))

    def varying_masses(self, k: int, v: np.ndarray) -> float:
        """The mass of y = v e^{-M} at index k, from the physical state v:
        cv sum |v|^2 e^{-2 Re M}, with e^{-Re M} applied twice, so the sum
        overflows where |y|^2 does.  Before the last index it also sets the
        stochastic mass sum increment over step k from the same |v|^2."""
        amp2, w, tmp = self.amp, self.angle, self.fac
        np.square(v.real, out=amp2)
        amp2 += np.square(v.imag, out=tmp)
        # -Re M(t_k, xi) = sum_j (-Re mu_j) M_j(t_k) e_j(xi), all real
        np.exp(np.matmul(-self.model.mu.real * self.path.values[:, k], self.e_values,
                         out=w), out=w)
        np.multiply(amp2, w, out=tmp)
        tmp *= w
        mass = self.cv * float(tmp.sum())
        if k < self.n_steps:
            # the increment over step k, at its left endpoint:
            # 2 sum_j Re(mu_j) dM_j(k) cv sum e_j |v|^2
            w_j = [self.cv * float(np.multiply(e, amp2, out=tmp).sum())
                   for e in self.e_values]
            self.ito[k + 1] = 2.0 * float(
                (self.model.mu.real * self.path.increments[:, k]) @ w_j)
        return mass

    def record(self, k: int, phys: np.ndarray) -> None:
        """Record check index k (``checks``), unless the march has stopped
        before it, from the physical state ``phys``, a homogeneous run's
        unit state.  The march stops after k where the state is non-finite,
        a homogeneous run's mass departs from 1 by more than
        ``MASS_DEPARTURE`` per step (its identity mass above ``MASS_FLOOR``)
        or a varying run's other mass is non-finite.  Otherwise the fields
        are handed over at a save index; at the finish index, unless k is
        the last, the tail is handed over (``fast_forward``) and the run
        finishes."""
        if k > self.end:
            return
        mass = self.cv * float(_squared_norms(phys, self.rot))
        if self.homogeneous:
            departure = abs(mass - 1.0) if self.own[k] > MASS_FLOOR else 0.0
            reason = f"mass departs from the identity by {departure:.3g}" \
                if departure > MASS_DEPARTURE * (k + 1) else None
        else:
            self.own[k] = mass
            self.other[k] = self.varying_masses(k, phys) if math.isfinite(mass) else math.nan
            reason = None if math.isfinite(self.other[k]) else "non-finite mass"
        if not math.isfinite(mass):
            reason = "non-finite state"
        if reason is not None:
            self.stop_after(k, _abort_at(reason, k))
            return
        if k in self.save_set:
            self.save(k, phys)
        if self.finish == k < self.end:
            self.fast_forward(k, self.yh)
            self.stop_after(k)

    def save(self, k: int, v: np.ndarray) -> None:
        """Hand the X field at save index k, built once from the physical
        state v (a homogeneous run's unit state), to the snapshot callable,
        and at the last index keep it and y.  Both masses are finite here, so
        the fields are built without a finiteness scan."""
        if self.homogeneous:
            # the state's scale, and e^M between X and y
            scale, m = self.hand[k], np.exp(self.m_saved[k])
            x = v * (scale if self.direct else scale * m)
        else:
            x = v.copy()  # v is the march's scratch
        x = _trusted_field(x, self.grid)
        if self.snapshot is not None:
            self.snapshot(k, float(self.path.times[k]), x)
        if k == self.n_steps:
            if self.homogeneous:
                y = v * (scale / m if self.direct else scale)
            else:  # y = v e^{-M}, built in place
                y = self.m_field_values(k)
                np.exp(np.negative(y, out=y), out=y)
                np.multiply(v, y, out=y)
            self.final_x, self.final_y = x, _trusted_field(y, self.grid)

    def outcome(self):
        """The run's record, or the abort that stopped it: the march has
        handed over every field."""
        if self.stop is not None:
            return self.stop
        ito, path = self.ito, self.path
        if self.homogeneous:
            # 2 sum_j Re(mu_j) dM_j(k) times the step-start mass
            ito[1:] = 2.0 * (self.model.mu.real @ path.increments) * self.mass_x[:-1]
        np.cumsum(ito, out=ito)
        warn_if_underresolved(self.final_x, "final state")
        return SolutionRecord(
            scheme=self.params.scheme, times=path.times.copy(), mass_x=self.mass_x,
            mass_y=self.mass_y, re_m=self.re_m, ito_mass_sum=ito,
            final_x=self.final_x, final_y=self.final_y, path=path)


def _march(block: _Block, x: ComplexField) -> None:
    """March from x (module docstring): spectral state at integer times,
    two transforms per step, and one more at a check index whose masses or
    checks need the physical state after a Strang step.  The march records
    the check indices up to its end, and ends there."""
    grid = block.grid
    strang = block.params.splitting == "strang"
    half = block.lin_half
    lead, trail = (half, half) if strang else (half * half, None)
    yh, spec, u = block.yh, block.spec, block.phys
    neg_coef, checks = block.neg_coef, block.checks

    u[:] = x.values
    mass = x.mass
    if block.homogeneous and mass > 0:
        u /= math.sqrt(mass)
    grid.forward(u, out=yh)
    if 0 in checks:
        block.record(0, u)

    for k in range(block.n_steps):
        if k >= block.end:
            break
        np.multiply(lead, yh, out=spec)
        grid.inverse(spec, out=u)
        coef = None if neg_coef is None else neg_coef[k]
        if block.homogeneous:
            block.pointwise_step(u, coef)
        else:
            block.pointwise_step(u, coef, *block.noise_factors(k, block.noise_coefs[k]))
        if trail is None:
            grid.forward(u, out=yh)
        else:
            grid.forward(u, out=spec)
            np.multiply(trail, spec, out=yh)
        if k + 1 in checks:
            block.record(k + 1, u if trail is None else grid.inverse(yh, out=u))
