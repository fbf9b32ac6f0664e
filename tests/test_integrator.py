"""Sub-flow exactness of the plain-composition oracle, the march against it,
and full simulation runs."""

import cmath
import dataclasses
import functools
import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from reference import (
    StepRecorder,
    const_model,
    damping_step,
    exponents,
    fast_forward,
    free_propagator_apply,
    noise_step_direct,
    nonlinear_phase_step,
    step,
)
from snls_lab import integrator
from snls_lab.diagnostics import decay_fit
from snls_lab.errors import AssumptionVeto, NumericalAbort
from snls_lab.integrator import (
    MAX_STEPS,
    OVERFLOW_GUARD,
    SPLITTINGS,
    SimParams,
    _Block,
    _march,
    simulate,
    simulate_block,
)
from snls_lab.noise_process import (
    DensitySpec,
    MartingalePath,
    NoiseModel,
    SpatialProfile,
    restrict_path,
    sample_martingale,
)
from snls_lab.spectral_grid import (
    ComplexField,
    GridSpec,
    _squared_norms,
    constant_field,
    gaussian_field,
    make_grid,
    norm_L2,
    plane_wave,
)


GRID = make_grid(1, 256, 16.0)
X0 = gaussian_field(GRID, width=1.0)


class TestNonlinearPhaseStep:
    def test_lambda_zero_identity(self):
        y = ComplexField(np.linspace(1, 2, GRID.size).astype(complex), GRID)
        out = nonlinear_phase_step(y, 0.1, 0, 3.0)
        assert np.array_equal(out.values, y.values)

    def test_unit_modulus_rotation(self):
        g = make_grid(1, 16, 1.0)
        y = constant_field(g, 1.0)
        out = nonlinear_phase_step(y, 0.1, 1, 3.0)
        assert np.allclose(out.values, np.exp(-0.1j), atol=1e-15)
        assert np.allclose(np.abs(out.values), 1.0, atol=1e-15)

    def test_scalar_closed_form(self):
        # single value y = 2, lam = -1, alpha = 3: |y|^{alpha-1} = 4,
        # rotation +i * 4 * 0.05 = +0.2i
        g = make_grid(1, 4, 1.0)
        y = constant_field(g, 2.0)
        out = nonlinear_phase_step(y, 0.05, -1, 3.0)
        assert np.allclose(out.values, 2.0 * np.exp(0.2j), atol=1e-14)

    def test_modulus_preserved(self):
        rng = np.random.default_rng(0)
        y = ComplexField(rng.standard_normal(GRID.size)
                         + 1j * rng.standard_normal(GRID.size), GRID)
        out = nonlinear_phase_step(y, 0.3, 1, 2.5, re_m=0.7)
        assert np.allclose(np.abs(out.values), np.abs(y.values), rtol=1e-14)


class TestDampingStep:
    def test_unit_coefficient_multiplier(self):
        # mu = 1, e = 1, dQ = 0.1: (|mu|^2 + mu^2)/2 = 1 -> e^{-0.1}
        g = make_grid(1, 8, 1.0)
        m = const_model(1.0)
        p = sample_martingale(m, 0.1, 4, 0)
        y = constant_field(g, 1.0)
        out = damping_step(y, m, p, 0)
        assert np.allclose(out.values, np.exp(-0.1), atol=1e-15)

    def test_purely_imaginary_conserves(self):
        g = make_grid(1, 8, 1.0)
        m = const_model(1j)
        p = sample_martingale(m, 0.1, 4, 0)
        y = constant_field(g, 1.0 + 2.0j)
        out = damping_step(y, m, p, 1)
        assert np.allclose(out.values, y.values, atol=1e-15)

    def test_complex_coefficient_mass_ratio(self):
        # mu = 1 + i, dQ = 0.2: mass ratio e^{-2 (Re mu)^2 dQ} = e^{-0.4}
        g = make_grid(1, 8, 1.0)
        m = const_model(1.0 + 1.0j, v=2.0)
        p = sample_martingale(m, 0.1, 4, 0)  # dQ = 0.2 per step
        y = constant_field(g, 1.0)
        out = damping_step(y, m, p, 0)
        ratio = norm_L2(out) ** 2 / norm_L2(y) ** 2
        assert ratio == pytest.approx(np.exp(-0.4), rel=1e-13)


class TestNoiseStepDirect:
    def test_zero_increment_identity(self):
        g = make_grid(1, 8, 1.0)
        m = const_model(1.0, v=0.0)  # zero-variance density
        p = sample_martingale(m, 0.1, 4, 0)
        x = constant_field(g, 1.5 - 0.5j)
        out = noise_step_direct(x, m, p, 0)
        assert np.allclose(out.values, x.values, atol=1e-15)

    def test_pointwise_factor(self):
        g = make_grid(1, 8, 1.0)
        m = const_model(1.0)
        p = sample_martingale(m, 0.01, 10, 3)
        x = constant_field(g, 1.0)
        k = 4
        out = noise_step_direct(x, m, p, k)
        delta = p.increments[0, k]
        v = p.dqv[0, k]
        assert np.allclose(out.values, np.exp(delta - v), rtol=1e-14)

    def test_mean_mass_ratio_over_samples(self):
        # E[e^{2 delta - 2 v}] = 1 for delta ~ N(0, v); 1e4 single steps of
        # the mass ratio |mid|^2 a homogeneous row's mass identity takes
        m = const_model(1.0)
        p = sample_martingale(m, 1e-2, 10000, 77)
        params = SimParams(lam=0, alpha=3.0, dt=1e-2, t_final=100.0, scheme="direct")
        ratios = np.abs(np.exp(exponents(m, params, p))) ** 2
        assert ratios.size == 10000
        assert 0.98 <= ratios.mean() <= 1.02


class TestStepComposition:
    def test_linear_only_matches_free_propagator(self):
        m = const_model(0.0)
        params = SimParams(lam=0, alpha=3.0, dt=1e-2, t_final=0.1)
        p = sample_martingale(m, 1e-2, 10, 0)
        pw = plane_wave(GRID, 2)
        out = step(pw, p, 0, params, m)
        expect = free_propagator_apply(pw, 1e-2)
        assert np.abs(out.values - expect.values).max() < 1e-12

    def test_constant_state_scalar_closed_form(self):
        # constants are invariant under the linear flow, so one strang step on
        # a constant state has a scalar closed form
        g = make_grid(1, 8, 1.0)
        m = const_model(1.0)
        params = SimParams(lam=1, alpha=3.0, dt=0.01, t_final=0.1, scheme="rescaled")
        p = sample_martingale(m, 0.01, 10, 5)
        y0 = 1.3 - 0.4j
        out = step(constant_field(g, y0), p, 2, params, m)

        amp0 = abs(y0) ** 2
        re_m = float(m.mu.real @ p.values[:, 2])  # step-start value
        half = cmath.exp(-1j * np.exp(2.0 * re_m) * amp0 * 0.005)
        mid = cmath.exp(-p.dqv[0, 2])
        y1 = y0 * half * mid
        half2 = cmath.exp(-1j * np.exp(2.0 * re_m) * abs(y1) ** 2 * 0.005)
        expect = y1 * half2
        assert np.allclose(out.values, expect, rtol=1e-13)


class TestSimulate:
    def test_commuting_linear_closed_form(self):
        # lam = 0, constant-one profiles, V = 1: all sub-flows commute, so
        # y(T) = e^{-(|mu|^2+mu^2) Q(T)/2} U(T,0) x and the mass is e^{-2T}
        m = const_model(1.0)
        params = SimParams(lam=0, alpha=3.0, dt=1e-3, t_final=1.0, scheme="rescaled")
        rec = simulate(GRID, m, params, X0, seed=3)
        expect = free_propagator_apply(X0, 1.0).values * np.exp(-1.0)
        err = np.sqrt(GRID.cell_volume
                      * np.abs(rec.final_y.values - expect).max() ** 2)
        assert err < 1e-10
        assert rec.mass_y[-1] / rec.mass_y[0] == pytest.approx(np.exp(-2.0), rel=1e-10)

    def test_deterministic_nls_conserves_mass(self):
        # mu = 0, lam = 1: every sub-flow is an isometry; 1e4 steps
        m = const_model(0.0)
        params = SimParams(lam=1, alpha=3.0, dt=1e-4, t_final=1.0, scheme="direct")
        rec = simulate(GRID, m, params, X0, seed=0)
        drift = np.abs(rec.mass_x / rec.mass_x[0] - 1.0).max()
        assert drift < 1e-10

    def test_zero_noise_is_seed_independent(self):
        m = const_model(0.0)
        params = SimParams(lam=1, alpha=3.0, dt=1e-3, t_final=0.1, scheme="direct")
        r1 = simulate(GRID, m, params, X0, seed=1)
        r2 = simulate(GRID, m, params, X0, seed=2)
        assert np.array_equal(r1.mass_x, r2.mass_x)
        assert np.array_equal(r1.final_x.values, r2.final_x.values)

    def test_matches_repeated_step(self):
        m = const_model(1.0 + 0.5j)
        params = SimParams(lam=1, alpha=3.0, dt=1e-3, t_final=0.01, scheme="rescaled")
        p = sample_martingale(m, 1e-3, 10, 4)
        rec = simulate(GRID, m, params, X0, seed=4, path=p)
        state = X0
        for k in range(10):
            state = step(state, p, k, params, m)
        scale = np.abs(state.values).max()
        assert np.abs(state.values - rec.final_y.values).max() < 1e-12 * scale

    def test_lie_variant_runs_and_is_first_order_close(self):
        m = const_model(1.0)
        p_lie = SimParams(lam=1, alpha=3.0, dt=1e-3, t_final=0.1,
                          scheme="rescaled", splitting="lie")
        rec = simulate(GRID, m, p_lie, X0, seed=6)
        assert rec.mass_y[-1] < rec.mass_y[0]

    def test_mass_monotone_in_damped_rescaled_run(self):
        m = const_model(1.0, alpha0=1.0)
        params = SimParams(lam=1, alpha=3.0, dt=1e-3, t_final=1.0, scheme="rescaled")
        rec = simulate(GRID, m, params, X0, seed=8)
        assert np.all(np.diff(rec.mass_y) <= 0.0)

    def test_strang_self_convergence_deterministic(self):
        # order >= 1.5 against a dt/8 reference for a smooth mu = 0 run
        m = const_model(0.0)
        ref_params = SimParams(lam=1, alpha=3.0, dt=1.25e-4, t_final=0.5,
                               scheme="direct")
        ref = simulate(GRID, m, ref_params, X0, seed=0)
        errs = []
        dts = [4e-3, 2e-3, 1e-3]
        for dt in dts:
            params = SimParams(lam=1, alpha=3.0, dt=dt, t_final=0.5, scheme="direct")
            rec = simulate(GRID, m, params, X0, seed=0)
            d = rec.final_x.values - ref.final_x.values
            errs.append(np.sqrt(GRID.cell_volume * np.vdot(d, d).real))
        order = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert order >= 1.5

    def test_strang_self_convergence_noisy(self):
        # strong order >= 0.9 measured as RMS error over increment-coupled
        # paths against a reference at least 8x finer
        m = const_model(1.0)
        ref_dt = 1e-4
        t_final = 0.512  # every ladder step divides the reference step count
        dts = [8e-3, 4e-3, 2e-3, 1e-3]
        sq_errs = {dt: [] for dt in dts}
        for seed in range(10):
            master = sample_martingale(m, ref_dt, 5120, seed)
            ref_params = SimParams(lam=1, alpha=3.0, dt=ref_dt, t_final=t_final,
                                   scheme="rescaled")
            ref = simulate(GRID, m, ref_params, X0, seed=seed, path=master)
            for dt in dts:
                p = restrict_path(master, int(round(dt / ref_dt)))
                params = SimParams(lam=1, alpha=3.0, dt=dt, t_final=t_final,
                                   scheme="rescaled")
                rec = simulate(GRID, m, params, X0, seed=seed, path=p)
                d = rec.final_y.values - ref.final_y.values
                sq_errs[dt].append(GRID.cell_volume * np.vdot(d, d).real)
        errs = [np.sqrt(np.mean(sq_errs[dt])) for dt in dts]
        order = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert order >= 0.9

    def test_continuity_in_initial_data(self):
        # perturbing x by 1e-6 in L^2 moves the trajectory by < 1e-3 over T=1
        m = const_model(1.0)
        params = SimParams(lam=1, alpha=3.0, dt=1e-3, t_final=1.0,
                           scheme="rescaled", save_every=50)
        p = sample_martingale(m, 1e-3, 1000, 12)
        keep1, seen1 = collector()
        simulate(GRID, m, params, X0, seed=12, path=p, snapshot=keep1)
        bump = gaussian_field(GRID, width=0.7, l2_norm=1e-6)
        x2 = ComplexField(X0.values + bump.values, GRID)
        keep2, seen2 = collector()
        simulate(GRID, m, params, x2, seed=12, path=p, snapshot=keep2)
        assert len(seen1) == len(seen2) == 21
        sup = 0.0
        for (_, _, f1), (_, _, f2) in zip(seen1, seen2):
            d = f1 - f2
            sup = max(sup, np.sqrt(GRID.cell_volume * np.vdot(d, d).real))
        assert sup <= 1e-3

    def test_heterogeneous_direct_runs(self):
        prof = SpatialProfile("gaussian-bump", width=2.0)
        m = NoiseModel(np.array([0.5 + 0.2j]), [prof], [DensitySpec("constant", value=1.0)])
        params = SimParams(lam=1, alpha=3.0, dt=1e-3, t_final=0.1, scheme="direct")
        rec = simulate(GRID, m, params, X0, seed=20)
        assert np.all(np.isfinite(rec.mass_x))
        assert np.all(np.isfinite(rec.final_y.values))

    def test_rescaled_scheme_veto(self):
        prof = SpatialProfile("gaussian-bump", width=2.0)
        m = NoiseModel(np.array([1.0 + 0j]), [prof], [DensitySpec("constant", value=1.0)])
        params = SimParams(lam=0, alpha=3.0, dt=1e-3, t_final=0.1, scheme="rescaled")
        with pytest.raises(AssumptionVeto):
            simulate(GRID, m, params, X0, seed=0)

    def test_overflow_guard_aborts_with_index(self):
        # a huge coefficient drives |Re M| past the guard almost immediately
        m = const_model(4000.0)
        params = SimParams(lam=0, alpha=3.0, dt=1.0, t_final=10.0, scheme="direct")
        with pytest.raises(NumericalAbort) as err:
            simulate(GRID, m, params, X0, seed=1)
        assert err.value.time_index is not None

    def test_isometry_without_noise_or_damping(self):
        m = const_model(0.0)
        params = SimParams(lam=1, alpha=3.0, dt=1e-3, t_final=0.05, scheme="direct")
        p = sample_martingale(m, 1e-3, 50, 0)
        state = X0
        for k in range(50):
            nxt = step(state, p, k, params, m)
            assert norm_L2(nxt) == pytest.approx(norm_L2(state), rel=1e-12)
            state = nxt

    def test_two_dimensional_linear_decay(self):
        g2 = make_grid(2, 32, 8.0)
        x2 = gaussian_field(g2, width=1.0)
        m = const_model(1.0)
        params = SimParams(lam=0, alpha=3.0, dt=1e-3, t_final=0.5, scheme="rescaled")
        rec = simulate(g2, m, params, x2, seed=0)
        assert rec.mass_y[-1] / rec.mass_y[0] == pytest.approx(np.exp(-1.0),
                                                               rel=1e-10)

    def test_rejects_non_integer_step_count(self):
        with pytest.raises(ValueError):
            SimParams(lam=0, alpha=3.0, dt=3e-3, t_final=1.0)

    def test_rejects_step_counts_above_the_ceiling(self):
        assert SimParams(lam=1, alpha=3.0, dt=1.0, t_final=MAX_STEPS).n_steps == MAX_STEPS
        for t_final in (MAX_STEPS + 1.0, 1e300, math.inf):
            with pytest.raises(ValueError, match="^t_final: .* exceeds the ceiling"):
                SimParams(lam=1, alpha=3.0, dt=1.0, t_final=t_final)

    def test_rejects_alpha_outside_band(self):
        params = SimParams(lam=1, alpha=6.0, dt=1e-3, t_final=0.1)
        m = const_model(1.0)
        with pytest.raises(ValueError):
            simulate(GRID, m, params, X0, seed=0)


def count_calls(monkeypatch, calls, owner, name):
    """Replace ``owner.name`` with a wrapper that appends name to calls."""
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)


def collector():
    """A snapshot callable and the list of (k, t, X values) it fills."""
    seen = []
    return (lambda k, t, f: seen.append((k, t, f.values.copy()))), seen


def assert_same_snapshots(got, want):
    assert [(k, t) for k, t, _ in got] == [(k, t) for k, t, _ in want]
    for (_, _, a), (_, _, b) in zip(got, want):
        assert np.array_equal(a, b)


def sampled(model, params, seeds):
    """One noise path per seed, for a block of the run ``params``."""
    return [sample_martingale(model, params.dt, params.n_steps, s) for s in seeds]


@np.errstate(over="ignore", invalid="ignore")  # as the march runs
def reference_strang(grid, model, params, x, path, snapshot=None, jump=True, angles=None,
                     sums=None):
    """Strang march of one path with every check and sum taken step by step:
    the oracle each row of a block must match bit for bit.  A homogeneous
    run marches its unit state from x / sqrt(mass) and fast-forwards at its
    finish index, as the march does, unless ``jump`` is False; then it
    marches every step, ``angles``, a list, receives each step's largest
    |phase angle|, and ``sums`` each step-start spectrum's (1/N) sum |yh|.
    The recorder's ``masses`` holds the state mass of every marched index."""
    n_steps = params.n_steps
    save_every = params.save_every or max(1, math.ceil(n_steps / 512))
    save_set = set(range(0, n_steps + 1, save_every)) | {n_steps}
    block = _Block(grid, model, params, [path], mass=x.mass)
    run = StepRecorder(grid, block, params, n_steps, save_set, x, snapshot)
    shape, half = grid.shape, block.lin_half

    phys = x.values.copy()
    if block.homogeneous and x.mass > 0:
        phys = phys / math.sqrt(x.mass)
    yh = np.fft.fftn(phys.reshape(shape)).ravel()
    run.record(0, phys, run.mass_of(phys))
    for k in range(n_steps):
        if jump and block.homogeneous and k == block.finish[0]:
            fast_forward(run, yh, k)
            break
        if sums is not None:
            sums.append(float(np.abs(yh).sum()) / grid.size)
        if block.homogeneous and abs(block.re_m[0, k + 1]) > OVERFLOW_GUARD:
            raise NumericalAbort("|Re M| exceeds the overflow guard at time index "
                                 f"{k + 1}", time_index=k + 1)
        run.accumulate_ito(k, phys)
        u = np.fft.ifftn((half * yh).reshape(shape)).ravel()
        # a homogeneous row only rotates its unit state, its masses folded
        # into its coefficient; a varying row takes the multiplier e^{a + ib}
        # and both half phases in one rotation, the second half phase seeing
        # the modulus |u| e^a
        theta = None
        if not block.homogeneous:
            a, theta = block.noise_coefs[0, k] @ block.profile_table
            if a.max() > OVERFLOW_GUARD or a.min() < -OVERFLOW_GUARD:
                raise NumericalAbort("noise exponent exceeds the overflow guard at "
                                     f"time index {k}", time_index=k)
            f, ea = np.exp((params.alpha - 1.0) * a) + 1.0, np.exp(a)
        if block.phase_on:
            amp = u.real**2 + u.imag**2
            if block.pow_half != 1.0:
                amp = amp**block.pow_half
            c = block.neg_coef[0, k]
            if block.homogeneous:
                phases = amp * c
            elif np.isinf(f).any():
                # e^{(alpha-1) a} overflows: |u e^a|^{alpha-1} directly
                phases = (((u.real**2 + u.imag**2) * ea * ea) ** block.pow_half + amp) * c
            else:
                phases = f * amp * c
            theta = phases if theta is None else theta + phases
            if angles is not None:
                angles.append(float(np.abs(phases).max()))
        if block.homogeneous:
            if theta is not None:
                u *= np.exp(1j * theta)
        else:
            u *= ea * np.exp(1j * theta)
        yh = half * np.fft.fftn(u.reshape(shape)).ravel()
        phys = np.fft.ifftn(yh.reshape(shape)).ravel()
        run.record(k + 1, phys, run.mass_of(phys))
    return run


def assert_rows_match_single_path_calls(grid, model, params, rows):
    """Each row of a block of ``rows`` paths equals its one-path call bit for
    bit: series, snapshots handed over, final state, or abort."""
    x = gaussian_field(grid, width=1.0)
    keeps = [collector() for _ in range(rows)]
    block = simulate_block(grid, model, params, x, sampled(model, params, range(rows)),
                           snapshots=[keep for keep, _ in keeps])
    for seed, row in enumerate(block):
        keep, seen = collector()
        alone, = simulate_block(grid, model, params, x, sampled(model, params, [seed]),
                                snapshots=[keep])
        assert_same_snapshots(keeps[seed][1], seen)
        if isinstance(alone, NumericalAbort):
            assert (str(row), row.time_index) == (str(alone), alone.time_index)
            continue
        for name in ("mass_x", "mass_y", "ito_mass_sum"):
            assert np.array_equal(getattr(row, name), getattr(alone, name)), name
        for name in ("final_x", "final_y"):
            assert np.array_equal(getattr(row, name).values,
                                  getattr(alone, name).values), name


BUMP = SpatialProfile("gaussian-bump", width=2.0)
BLOCK_CASES = {
    "rescaled": (make_grid(1, 128, 16.0), const_model(1.0 + 0.5j),
                 SimParams(lam=1, alpha=3.0, dt=1e-3, t_final=0.2)),
    "rescaled_focusing": (make_grid(1, 128, 16.0), const_model(1.0 + 0.5j),
                          SimParams(lam=-1, alpha=2.2, dt=1e-3, t_final=0.2)),
    "direct": (make_grid(1, 128, 16.0), const_model(0.7),
               SimParams(lam=1, alpha=3.0, dt=1e-3, t_final=0.2, scheme="direct")),
    "direct_bump": (make_grid(1, 128, 16.0),
                    NoiseModel(np.array([0.5 + 0.2j, 0.3]),
                               [BUMP, SpatialProfile("constant-one")],
                               [DensitySpec("constant", value=1.0)] * 2),
                    SimParams(lam=1, alpha=2.0, dt=1e-3, t_final=0.1,
                              scheme="direct")),
    "linear": (make_grid(1, 128, 16.0), const_model(1.0),
               SimParams(lam=0, alpha=3.0, dt=1e-3, t_final=0.2)),
    "rescaled_2d": (make_grid(2, 16, 8.0), const_model(1.0),
                    SimParams(lam=1, alpha=2.0, dt=1e-3, t_final=0.05)),
    "rescaled_three": (make_grid(1, 64, 16.0), const_model([0.7 + 0.2j, 0.4, 0.3 - 0.6j]),
                       SimParams(lam=1, alpha=3.0, dt=1e-3, t_final=0.1)),
    # homogeneous rows fast-forward at indices 193-362 of 400 (seeds 0-7),
    # every index a save index, and 849-1,622 of 2,000 (every fourth)
    "fast_forward": (make_grid(1, 64, 16.0), const_model(3.0),
                     SimParams(lam=1, alpha=3.0, dt=1e-2, t_final=4.0)),
    "fast_forward_direct": (make_grid(1, 64, 16.0), const_model(3.0),
                            SimParams(lam=1, alpha=3.0, dt=1e-2, t_final=4.0,
                                      scheme="direct")),
    "decay": (make_grid(1, 128, 16.0), const_model(2.0 + 0.5j),
              SimParams(lam=1, alpha=3.0, dt=5e-3, t_final=10.0)),
    "direct_bump_3d": (make_grid(3, 8, 8.0),
                       NoiseModel(np.array([0.5 + 0j]),
                                  [SpatialProfile("gaussian-bump", width=2.0,
                                                  center=(0.0, 0.0, 0.0))],
                                  [DensitySpec("constant", value=1.0)]),
                       SimParams(lam=1, alpha=1.5, dt=1e-3, t_final=0.02,
                                 scheme="direct")),
    # rows abort at different indices: reconstruction overflow or the guard
    "abort_rescaled": (make_grid(1, 64, 16.0), const_model(400.0),
                       SimParams(lam=1, alpha=3.0, dt=0.5, t_final=10.0)),
    # ... and between save indices, where no snapshot may follow the abort
    "abort_direct_stride": (make_grid(1, 64, 16.0), const_model(150.0),
                            SimParams(lam=1, alpha=3.0, dt=1.0, t_final=40.0,
                                      scheme="direct", save_every=3)),
    "abort_direct": (make_grid(1, 64, 16.0), const_model(4000.0),
                     SimParams(lam=0, alpha=3.0, dt=1.0, t_final=10.0,
                               scheme="direct")),
    "abort_bump": (make_grid(1, 64, 16.0),
                   NoiseModel(np.array([4000.0 + 0j]), [BUMP],
                              [DensitySpec("constant", value=1.0)]),
                   SimParams(lam=0, alpha=3.0, dt=1.0, t_final=10.0,
                             scheme="direct")),
    # spatially varying rows stop on the noise-exponent guard at indices 16,
    # 9, 19 and 1 (seeds 0-3), mostly between save indices
    "abort_bump_mixed": (make_grid(1, 64, 16.0),
                         NoiseModel(np.array([36.5 + 0j]), [BUMP],
                                    [DensitySpec("constant", value=1.0)]),
                         SimParams(lam=1, alpha=3.0, dt=0.5, t_final=10.0,
                                   scheme="direct", save_every=3)),
}


@pytest.mark.filterwarnings("ignore::snls_lab.spectral_grid.SpectralTailWarning")
class TestBlockMarch:
    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    def test_rows_match_step_by_step_reference(self, case):
        grid, model, params = BLOCK_CASES[case]
        x = gaussian_field(grid, width=1.0)
        paths = sampled(model, params, [0, 1, 2, 3])
        keeps = [collector() for _ in paths]
        block = simulate_block(grid, model, params, x, paths,
                               snapshots=[keep for keep, _ in keeps])
        for path, row, (_, seen) in zip(paths, block, keeps):
            keep, want = collector()
            try:
                ref = reference_strang(grid, model, params, x, path, keep)
            except NumericalAbort as exc:
                assert isinstance(row, NumericalAbort)
                assert (str(row), row.time_index) == (str(exc), exc.time_index)
                # the fields of the save indices before the abort, no more
                assert_same_snapshots(seen, want)
                continue
            assert not isinstance(row, NumericalAbort), row
            for name, want_series in (("mass_x", ref.mass_x), ("mass_y", ref.mass_y),
                                      ("ito_mass_sum", ref.ito)):
                assert np.array_equal(getattr(row, name), want_series), name
            assert_same_snapshots(seen, want)
            for name in ("final_x", "final_y"):
                assert np.array_equal(getattr(row, name).values,
                                      getattr(ref, name).values), name

    def test_mixed_outcomes_in_one_block(self):
        grid, model, params = BLOCK_CASES["abort_rescaled"]
        block = simulate_block(grid, model, params, gaussian_field(grid),
                               sampled(model, params, [0, 1, 2]))
        assert len({row.time_index for row in block}) > 1

    def test_march_ends_once_every_row_has_stopped(self, monkeypatch):
        # the rows stop at indices 4, 2 and 11, the last before the step its
        # guard trips on, so with no row finishing the march takes steps 0-9
        # of 20: one forward transform each, plus the initial spectrum and
        # resolution check.  With the finish index, the bound is below 2^-63
        # from index 1 on, where every row finishes and its tail meets the
        # same aborts.
        grid, model, params = BLOCK_CASES["abort_rescaled"]
        calls = []
        count_calls(monkeypatch, calls, GridSpec, "forward")
        for finish, steps in ((lambda coef, *_: coef.size, 10),
                              (integrator._finish_index, 1)):
            monkeypatch.setattr(integrator, "_finish_index", finish)
            calls.clear()
            block = simulate_block(grid, model, params, gaussian_field(grid),
                                   sampled(model, params, [0, 1, 2]))
            assert [row.time_index for row in block] == [4, 2, 11]
            assert len(calls) == 1 + 1 + steps

    def test_refuses_empty_paths(self):
        grid, model, params = BLOCK_CASES["rescaled"]
        with pytest.raises(ValueError, match="paths"):
            simulate_block(grid, model, params, gaussian_field(grid), [])

    def test_without_snapshots_keeps_final_state(self):
        for case in ("rescaled", "direct", "direct_bump"):
            grid, model, params = BLOCK_CASES[case]
            params = dataclasses.replace(params, save_every=7)
            x = gaussian_field(grid, width=1.0)
            keep, seen = collector()
            path = sampled(model, params, [5])
            full, = simulate_block(grid, model, params, x, path, snapshots=[keep])
            bare, = simulate_block(grid, model, params, x, path)
            n_steps = params.n_steps
            want = [*range(0, n_steps + 1, 7), n_steps]
            assert [k for k, _, _ in seen] == want, case
            assert [t for _, t, _ in seen] == [float(full.times[k]) for k in want]
            for rec in (full, bare):
                assert np.array_equal(rec.final_x.values, seen[-1][2])
            assert np.array_equal(bare.final_y.values, full.final_y.values)
            assert np.array_equal(bare.mass_x, full.mass_x)

    def test_shared_tables_built_once(self, monkeypatch):
        # a block builds the propagator and the profile table once for all
        # its rows, not once per row
        calls = []
        count_calls(monkeypatch, calls, GridSpec, "propagator")
        count_calls(monkeypatch, calls, NoiseModel, "sample_profiles")
        grid, model, params = BLOCK_CASES["direct_bump"]
        paths = sampled(model, params, [0, 1, 2, 3])
        simulate_block(grid, model, params, gaussian_field(grid), paths)
        assert sorted(calls) == ["propagator", "sample_profiles"]

    def test_snapshot_callables_match_seeds(self):
        grid, model, params = BLOCK_CASES["rescaled"]
        with pytest.raises(ValueError, match="snapshot callables"):
            simulate_block(grid, model, params, gaussian_field(grid),
                           sampled(model, params, [0, 1]), snapshots=[collector()[0]])

    @pytest.mark.parametrize("case", ["rescaled", "direct", "direct_bump",
                                      "rescaled_2d", "abort_rescaled", "abort_bump",
                                      "abort_bump_mixed"])
    def test_lie_rows_match_single_path_calls(self, case):
        grid, model, params = BLOCK_CASES[case]
        assert_rows_match_single_path_calls(
            grid, model, dataclasses.replace(params, splitting="lie"), 4)

    @pytest.mark.parametrize("case", ["rescaled", "direct_bump_3d"])
    def test_rows_match_single_path_calls_at_32768_points(self, case):
        # row masses of 32,768 values: a block's rows must still be summed
        # exactly as a one-row call sums them
        _, model, params = BLOCK_CASES[case]
        grid = make_grid(1, 32768, 64.0) if case == "rescaled" else make_grid(3, 32, 8.0)
        assert_rows_match_single_path_calls(
            grid, model, dataclasses.replace(params, t_final=5 * params.dt), 3)

    @pytest.mark.parametrize("case", ["rescaled", "direct_bump"])
    def test_lie_rows_match_step_loop(self, case):
        # the oracle composes the plain Lie sub-flows with exp and
        # physical-space masses; the march differs from it only in rounding
        grid, model, params = BLOCK_CASES[case]
        params = dataclasses.replace(params, splitting="lie")
        x = gaussian_field(grid, width=1.0)
        path = sample_martingale(model, params.dt, params.n_steps, 3)
        rec = simulate(grid, model, params, x, seed=3, path=path)
        masses, state = [norm_L2(x) ** 2], x
        for k in range(params.n_steps):
            state = step(state, path, k, params, model)
            masses.append(norm_L2(state) ** 2)
        own = rec.mass_y if params.scheme == "rescaled" else rec.mass_x
        final = rec.final_y if params.scheme == "rescaled" else rec.final_x
        assert np.abs(own - masses).max() <= 1e-12 * max(masses)
        scale = np.abs(state.values).max()
        assert np.abs(final.values - state.values).max() <= 1e-12 * scale

    @pytest.mark.parametrize("case", ["direct", "direct_bump", "rescaled"])
    def test_kept_snapshots_are_not_reused(self, case):
        # a snapshot callable may keep the X it is handed without copying:
        # the march hands over a field it never writes again
        grid, model, params = BLOCK_CASES[case]
        params = dataclasses.replace(params, save_every=3)
        x = gaussian_field(grid, width=1.0)
        path = sample_martingale(model, params.dt, params.n_steps, 2)
        kept = []
        simulate(grid, model, params, x, path=path,
                 snapshot=lambda k, t, f: kept.append((k, t, f.values)))
        keep, want = collector()
        reference_strang(grid, model, params, x, path, keep)
        assert len(kept) > 2
        assert_same_snapshots(kept, want)

    @pytest.mark.parametrize("splitting", SPLITTINGS)
    @pytest.mark.parametrize("case", ["direct_bump", "direct_bump_3d"])
    def test_handed_over_fields_have_the_recorded_mass(self, case, splitting):
        # every mass is cv sum |v|^2 of the physical state, as
        # ComplexField.mass takes it, so each X a varying row hands over has
        # its record's mass_x bit for bit
        grid, model, params = BLOCK_CASES[case]
        params = dataclasses.replace(params, save_every=1, splitting=splitting)
        seen = [[] for _ in range(3)]
        rows = simulate_block(grid, model, params, gaussian_field(grid, width=1.0),
                              sampled(model, params, range(3)),
                              snapshots=[lambda k, t, f, got=got: got.append((k, f.mass))
                                         for got in seen])
        for row, got in zip(rows, seen):
            assert [k for k, _ in got] == list(range(params.n_steps + 1))
            assert [mass for _, mass in got] == row.mass_x.tolist()

    @pytest.mark.parametrize("case, per_step, last", [("direct_bump", 2, 0),
                                                      ("rescaled", 1, 1)],
                             ids=["direct_bump", "rescaled"])
    def test_one_rotation_per_step(self, monkeypatch, case, per_step, last):
        # a Strang step: inverse, forward and one cos for the merged
        # rotation; a spatially varying row adds the inverse its recording
        # needs, a homogeneous row needs one only at the last index.  The
        # run adds the initial spectrum and the two resolution checks.
        calls = []
        for owner, name in ((GridSpec, "forward"), (GridSpec, "inverse"), (np, "cos")):
            count_calls(monkeypatch, calls, owner, name)
        grid, model, params = BLOCK_CASES[case]
        simulate(grid, model, params, gaussian_field(grid), seed=1)
        n = params.n_steps
        assert Counter(calls) == {"forward": n + 3, "inverse": per_step * n + last,
                                  "cos": n}

    @pytest.mark.parametrize("change, key", [
        ({"x": gaussian_field(make_grid(1, 64, 8.0))}, "initial state lives on a different grid"),
        ({"steps": 9}, "supplied path has 9 steps"),
        ({"dt": 2e-3}, "supplied path step"),
    ], ids=["grid", "steps", "dt"])
    def test_rejects_a_mismatched_input(self, change, key):
        # an initial state on another grid, or a path of another step count
        # or step, is a caller's error the block names before it marches
        grid, model, params = BLOCK_CASES["rescaled"]
        x = change.get("x", gaussian_field(grid, width=1.0))
        dt = change.get("dt", params.dt)
        path = sample_martingale(model, dt, change.get("steps", params.n_steps), 0)
        with pytest.raises(ValueError, match=f"^{key}"):
            simulate_block(grid, model, params, x, [path])


HOMOGENEOUS_CASES = sorted(case for case, (_, model, _) in BLOCK_CASES.items()
                           if model.spatially_homogeneous and not case.startswith("abort"))


def marched_block(grid, model, params, paths, x):
    """A block marched from x, as ``simulate_block`` marches it."""
    with np.errstate(over="ignore", invalid="ignore"):
        block = _Block(grid, model, params, paths, {params.n_steps}, mass=x.mass)
        _march(block, x)
    return block


@functools.cache
def full_marches(case):
    """The block of a case's rows 0-7, marched, and each row's step-by-step
    march with no jump: its ``angles`` and ``sums`` (``reference_strang``)."""
    grid, model, params = BLOCK_CASES[case]
    x = gaussian_field(grid, width=1.0)
    paths = sampled(model, params, range(8))
    block = marched_block(grid, model, params, paths, x)
    marches = []
    for path in paths:
        angles, sums = [], []
        reference_strang(grid, model, params, x, path, jump=False, angles=angles, sums=sums)
        marches.append((angles, sums))
    return block, marches


@pytest.mark.filterwarnings("ignore::snls_lab.spectral_grid.SpectralTailWarning")
class TestFastForward:
    """A homogeneous row marches until its remaining nonlinear phase is
    below rounding, then takes its tail in closed form."""

    @pytest.mark.parametrize("case", ["fast_forward", "fast_forward_direct", "decay"])
    def test_skipped_angles_below_rounding(self, case):
        # on full step-by-step marches, the largest angle of each step the
        # row skips, summed, is below one rounding unit: it read at most
        # 6.0e-5 of 2^-53 over these 24 rows (the finish index's bound is 2^-63)
        block, marches = full_marches(case)
        n_steps = BLOCK_CASES[case][2].n_steps
        assert 0 < block.end.min() and block.end.max() < n_steps
        for b, (angles, _) in enumerate(marches):
            assert len(angles) == n_steps
            assert sum(angles[block.end[b]:]) < 2.0 ** -53

    @pytest.mark.parametrize("case", ["fast_forward", "fast_forward_direct", "decay"])
    def test_finish_index_not_before_the_spectral_test(self, case):
        # The finish index reads cv^{-1/2}, the root of the unit mass over cv,
        # where the spectral test reads S_k = (1/N) sum |yh_k| of the marched
        # unit state, tested here at every step: S_k^{alpha-1} R_k < 2^-63,
        # with R_k = sum_{j>=k} |c_j| over the row's coefficients, its masses
        # folded in.  Cauchy-Schwarz makes S_k the smaller, so the finish
        # index is never the earlier; over these 24 rows it was 1.006-1.054
        # times the spectral index.
        block, marches = full_marches(case)
        power = BLOCK_CASES[case][2].alpha - 1.0
        for b, (_, sums) in enumerate(marches):
            tail, spectral = 0.0, []
            for k in reversed(range(len(sums))):
                tail = abs(block.neg_coef[b, k]) + tail
                spectral.append(sums[k] ** power * tail < 2.0 ** -63)
            first = spectral[::-1].index(True)
            assert first <= block.finish[b] == block.end[b], b

    @pytest.mark.parametrize("case", ["fast_forward", "fast_forward_direct", "decay"])
    def test_jump_matches_full_march(self, case):
        # the record (identity masses, the final state fast-forwarded)
        # against a march of every step, whose unit state's mass is the
        # ratio of the marched mass to the identity.  Measured over these 24
        # rows: masses 6.6e-13 relative, final y 1.2e-13 in relative L2 and
        # the Lyapunov exponent 6.6e-14
        grid, model, params = BLOCK_CASES[case]
        x = gaussian_field(grid, width=1.0)
        paths = sampled(model, params, range(8))
        for path, rec in zip(paths, simulate_block(grid, model, params, x, paths)):
            full = reference_strang(grid, model, params, x, path, jump=False)
            ratio = full.masses
            assert np.abs(ratio - 1.0).max() <= 1e-12
            want = full.final_y.values
            assert np.linalg.norm(rec.final_y.values - want) <= 5e-13 * np.linalg.norm(want)
            marched = dataclasses.replace(rec, mass_x=rec.mass_x * ratio,
                                          mass_y=rec.mass_y * ratio)
            assert abs(decay_fit(rec, model).lyapunov
                       - decay_fit(marched, model).lyapunov) <= 1e-13

    @pytest.mark.parametrize("splitting", SPLITTINGS)
    @pytest.mark.parametrize("case", HOMOGENEOUS_CASES)
    def test_own_mass_follows_the_multipliers(self, case, splitting):
        # The free flow and the rotation keep the mass, so a homogeneous
        # row's own mass is ||x||^2 prod |mid_i|^2, marched or
        # fast-forwarded: the running product from the initial mass, bit for
        # bit, and the other mass its math.exp weight times that
        grid, model, params = BLOCK_CASES[case]
        params = dataclasses.replace(params, splitting=splitting)
        x = gaussian_field(grid, width=1.0)
        paths = sampled(model, params, range(4))
        tables = _Block(grid, model, params, paths)
        sign = -2.0 if params.scheme == "direct" else 2.0
        for b, rec in enumerate(simulate_block(grid, model, params, x, paths)):
            own, other = (rec.mass_x, rec.mass_y) if params.scheme == "direct" \
                else (rec.mass_y, rec.mass_x)
            gains = np.abs(np.exp(exponents(model, params, paths[b]))) ** 2
            assert np.array_equal(own, np.cumprod([x.mass, *gains]))
            weights = [math.exp(sign * r) for r in tables.re_m[b]]
            assert np.array_equal(other, np.multiply(weights, own))

    @pytest.mark.parametrize("splitting", SPLITTINGS)
    @pytest.mark.parametrize("case", HOMOGENEOUS_CASES)
    def test_coefficients_fold_in_the_mass(self, case, splitting):
        # a homogeneous row rotates its unit state by -c_k (m_k^p + m_{k+1}^p)
        # |w|^{alpha-1} (Strang) or -c_k m_k^p |w|^{alpha-1} (Lie): c_k is the
        # plain phase coefficient lam e^{(alpha-1) Re M_k} dt/2 (Strang) or
        # lam e^{(alpha-1) Re M_k} dt (Lie), with Re M = 0 on the direct
        # scheme, m_k the identity mass and p = (alpha-1)/2
        grid, model, params = BLOCK_CASES[case]
        params = dataclasses.replace(params, splitting=splitting)
        x = gaussian_field(grid, width=1.0)
        paths = sampled(model, params, range(2))
        block = _Block(grid, model, params, paths, mass=x.mass)
        if params.lam == 0:
            assert block.neg_coef is None
            return
        p, strang = (params.alpha - 1.0) / 2.0, splitting == "strang"
        for b, path in enumerate(paths):
            re_m = path.real_part_series(model.mu)[:-1] if params.scheme == "rescaled" \
                else 0.0
            c = params.lam * np.exp(2.0 * p * re_m) * params.dt * (0.5 if strang else 1.0)
            log_mass = np.cumsum([math.log(x.mass), *(2.0 * exponents(model, params, path).real)])
            scale = np.exp(p * log_mass)
            want = -c * (scale[:-1] + scale[1:] if strang else scale[:-1])
            assert np.allclose(block.neg_coef[b], want, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("splitting", SPLITTINGS)
    @pytest.mark.parametrize("case", HOMOGENEOUS_CASES)
    def test_marched_mass_at_finish_follows_the_multipliers(self, monkeypatch, case,
                                                            splitting):
        # The record's masses, the coefficients and the hand-over read the
        # mass from ||x||^2 prod |mid_i|^2, not from the state, so the unit
        # state's Parseval mass where the row stops marching (its finish
        # index, where it fast-forwards, or the last index) must be 1 up to
        # rounding: it read at most 3.2e-16 per step over these rows
        grid, model, params = BLOCK_CASES[case]
        params = dataclasses.replace(params, splitting=splitting)
        x = gaussian_field(grid, width=1.0)
        paths = sampled(model, params, range(4))

        def parseval(yh):
            return grid.cell_volume / grid.size * float(_squared_norms(yh))

        finished, original = {}, _Block.fast_forward

        def fast_forward(self, b, k0, yh):
            finished[b] = (k0, parseval(yh))
            original(self, b, k0, yh)
        monkeypatch.setattr(_Block, "fast_forward", fast_forward)
        block = marched_block(grid, model, params, paths, x)
        for b in range(len(paths)):
            assert (b in finished) == (block.end[b] < params.n_steps)
            k, marched = finished.get(b) or (int(block.end[b]), parseval(block.yh[b]))
            assert k == block.end[b]
            assert abs(marched - 1.0) <= 2e-15 * (k + 1)

    def test_rows_finish_at_their_own_index(self, monkeypatch):
        # rows 0-3 of "fast_forward" finish at indices 207, 194, 222 and 193,
        # each where it finishes alone; the block marches to the largest, 222
        # steps: one forward transform each, plus the initial spectrum, the
        # initial resolution check and one final check per row
        grid, model, params = BLOCK_CASES["fast_forward"]
        x = gaussian_field(grid, width=1.0)
        paths = sampled(model, params, range(4))
        alone = [int(marched_block(grid, model, params, [p], x).end[0]) for p in paths]
        assert alone == [207, 194, 222, 193]
        block = marched_block(grid, model, params, paths, x)
        assert block.end.tolist() == block.finish == alone
        calls = []
        count_calls(monkeypatch, calls, GridSpec, "forward")
        simulate_block(grid, model, params, x, paths)
        assert len(calls) == 1 + 1 + 222 + 4

    def test_march_reduces_only_at_check_indices(self, monkeypatch):
        # rows 0-3 finish at indices 207, 194, 222 and 193, and the only save
        # index is the last, 400: one Parseval sum over the block at each
        # finish index, none at the other 218 marched indices
        grid, model, params = BLOCK_CASES["fast_forward"]
        calls = []
        count_calls(monkeypatch, calls, integrator, "_squared_norms")
        simulate_block(grid, model, params, gaussian_field(grid, width=1.0),
                       sampled(model, params, range(4)))
        assert len(calls) == 4

    @pytest.mark.parametrize("snapshots, first", [(False, [207, 194, 222, 193]),
                                                  (True, [1, 1, 1, 1])])
    def test_scaled_multiplier_trips_the_check(self, monkeypatch, snapshots, first):
        # a homogeneous step off by a factor 1 + 1e-9 departs from the
        # identity by about 2e-9 per step, far past MASS_DEPARTURE: each row
        # stops at its first check index after a step (its finish index, or
        # index 1 when every index is a save index), with nothing of it
        # handed over
        original = _Block.pointwise_step

        def scaled(self, u, neg_coef, *varying):
            original(self, u, neg_coef, *varying)
            if not varying:
                u *= 1.0 + 1e-9
        monkeypatch.setattr(_Block, "pointwise_step", scaled)
        grid, model, params = BLOCK_CASES["fast_forward"]
        keeps = [collector() for _ in range(4)]
        rows = simulate_block(grid, model, params, gaussian_field(grid, width=1.0),
                              sampled(model, params, range(4)),
                              snapshots=[keep for keep, _ in keeps] if snapshots else None)
        assert [row.time_index for row in rows] == first
        for row, k, (_, seen) in zip(rows, first, keeps):
            assert re.fullmatch(r"mass departs from the identity by "
                                rf"\S+ at time index {k}", str(row)), str(row)
            assert [s for s, _, _ in seen] == ([0] if snapshots else [])

    @pytest.mark.parametrize("save_every", [None, 2])
    def test_state_whose_spectral_sum_overflows_runs(self, save_every):
        # mass 1e302 on 1,024 points, times e^10 by step 0's multiplier: the
        # Parseval sum N/cv mass of the physical state overflows a double
        # from index 1 on while its mass stays finite.  The row marches its
        # unit state and checks masses in physical space, so it runs to the
        # end, and each field it hands over has the record's mass.
        grid = make_grid(1, 1024, 16.0)
        x = gaussian_field(grid, width=1.0, l2_norm=1e151)
        params = SimParams(lam=1, alpha=3.0, dt=0.01, t_final=0.03, scheme="direct",
                           save_every=save_every)
        seen = []
        row, = simulate_block(grid, const_model(1.0), params, x,
                              [handmade_path([[5.0, 0.0, 0.0]], 0.01)],
                              snapshots=[lambda k, t, f: seen.append((k, f.mass))])
        assert not isinstance(row, NumericalAbort), row
        assert row.mass_x[-1] == pytest.approx(1e302 * math.exp(10.0), rel=1e-12)
        assert [k for k, _ in seen] == ([0, 1, 2, 3] if save_every is None else [0, 2, 3])
        for k, mass in seen:
            assert mass == pytest.approx(row.mass_x[k], rel=1e-13)

    def test_without_phase_finishes_at_once(self, monkeypatch):
        # lambda = 0: no step is marched, and the tail is the whole run
        calls = []
        count_calls(monkeypatch, calls, GridSpec, "forward")
        grid, model, params = BLOCK_CASES["linear"]
        simulate_block(grid, model, params, gaussian_field(grid),
                       sampled(model, params, [0, 1]))
        assert len(calls) == 1 + 1 + 2

    @pytest.mark.parametrize("mu", [[1.0 + 0.5j], [0.7 + 0.2j, 0.4],
                                    [0.7 + 0.2j, 0.4, 0.3 - 0.6j]], ids=["J1", "J2", "J3"])
    def test_m_at_save_indices_is_the_series_entry(self, mu):
        grid = make_grid(1, 32, 8.0)
        model = const_model(mu)
        params = SimParams(lam=1, alpha=3.0, dt=1e-2, t_final=0.5, save_every=1)
        paths = sampled(model, params, range(3))
        saves = set(range(params.n_steps + 1))
        block = _Block(grid, model, params, paths, saves)
        for b, path in enumerate(paths):
            series = path.complex_series(model.mu)
            assert block.m_saved[b].keys() == block.hand[b].keys() == saves
            for k in saves:
                assert block.m_saved[b][k] == series[k]


def handmade_path(increments, dt, densities=None):
    """A path with the given increments (components x steps) and density
    samples, by default none, so the noise exponent is sum_j mu_j e_j dM_j."""
    increments = np.asarray(increments, dtype=float)
    steps = increments.shape[1]
    values = np.zeros((increments.shape[0], steps + 1))
    np.cumsum(increments, axis=1, out=values[:, 1:])
    densities = np.zeros(increments.shape) if densities is None \
        else np.asarray(densities, dtype=float)
    qv = np.zeros(values.shape)
    np.cumsum(densities * dt, axis=1, out=qv[:, 1:])
    return MartingalePath(dt * np.arange(steps + 1), values, increments, densities, qv, dt)


@pytest.mark.filterwarnings("ignore::snls_lab.spectral_grid.SpectralTailWarning")
class TestMergedAngleOverflow:
    """e^{(alpha-1) a} overflows where the noise exponent a passes
    709.78 / (alpha - 1).  The merged angle then comes from |u e^a|, as the
    second of two rotations takes it, so a state the two rotations keep
    finite stays finite, and one they make non-finite stops the row at the
    same index."""

    GRID = make_grid(1, 64, 16.0)
    MODEL = NoiseModel(np.array([1.0 + 0j]), [BUMP], [DensitySpec("constant", value=1.0)])
    PARAMS = SimParams(lam=1, alpha=4.0, dt=0.01, t_final=0.01, scheme="direct")
    # a = 240 e(xi): (alpha - 1) a = 720 near the bump's centre
    PATH = handmade_path([[240.0]], 0.01)

    def plain_step(self, x):
        with np.errstate(over="ignore", invalid="ignore"):  # it overflows below
            return step(x, self.PATH, 0, self.PARAMS, self.MODEL).values

    @pytest.mark.parametrize("amplitude", [0.0, 1e-104])
    def test_finite_where_two_rotations_are(self, amplitude):
        # amplitude 0: u = 0 stays 0; 1e-104: |u e^a| is of order one
        x = gaussian_field(self.GRID, width=1.0, amplitude=amplitude)
        rec = simulate(self.GRID, self.MODEL, self.PARAMS, x, path=self.PATH)
        ref = reference_strang(self.GRID, self.MODEL, self.PARAMS, x, self.PATH)
        assert np.array_equal(rec.final_x.values, ref.final_x.values)
        assert np.array_equal(rec.mass_y, ref.mass_y)
        want = self.plain_step(x)
        scale = max(np.abs(want).max(), 1e-300)
        assert np.abs(rec.final_x.values - want).max() <= 1e-12 * scale
        if amplitude:
            assert np.abs(want).max() > 1.0

    def test_stops_where_two_rotations_overflow(self):
        x = gaussian_field(self.GRID, width=1.0)
        with pytest.raises(NumericalAbort, match="^non-finite state at time index 1$"):
            simulate(self.GRID, self.MODEL, self.PARAMS, x, path=self.PATH)
        with pytest.raises(ValueError, match="non-finite"):
            self.plain_step(x)


class TestMergedAngleOverflowHomogeneous(TestMergedAngleOverflow):
    """The same checks on a constant-one profile: a homogeneous row, whose
    a = 240 is constant in space, takes the same rule, so it stays finite
    where the plain composition does."""

    MODEL = const_model(1.0)


def jumps(steps, at):
    """One component's increments over ``steps`` steps: ``at`` maps a step
    to its increment, every other step has none."""
    inc = np.zeros((1, steps))
    for k, value in at.items():
        inc[0, k] = value
    return inc


def point_state(grid, mass):
    """A state on one grid point, of the given mass: its unit state reaches
    the Cauchy-Schwarz bound |w|^2 = 1/cv."""
    values = np.zeros(grid.size, dtype=complex)
    values[grid.size // 2] = math.sqrt(mass / grid.cell_volume)
    return ComplexField(values, grid)


# On L = pi the wavenumbers are the integers m, so dt = 4 pi makes the half
# free flow exp(i m^2 2 pi) the identity up to rounding: a point state stays
# on its point.  There a mass m with dt m^p = 1e307 (p = 1.95) puts every
# phase coefficient in the window where c_k is finite but cv^{-p} |c_k|
# (92.4 |c_k|) overflows.
WINDOW_GRID, WINDOW_DT = make_grid(1, 64, math.pi), 4.0 * math.pi
WINDOW_MASS = (1e307 / WINDOW_DT) ** (1.0 / 1.95)
WINDOW_PARAMS = SimParams(lam=1, alpha=4.9, dt=WINDOW_DT, t_final=4 * WINDOW_DT)

# The other edges: rescaled Strang runs of 10 steps at alpha = 4.9 on 64 points.
EDGE_GRID = make_grid(1, 64, 16.0)
EDGE_PARAMS = SimParams(lam=1, alpha=4.9, dt=0.01, t_final=0.1)

# Each edge: (grid, params, path, initial state, whether the identity decides,
# the outcome: "ok" or the abort message).  Every path but the first is made
# by hand.
IDENTITY_EDGES = {
    # a sampled path: every angle is bounded, the identity alone decides
    "plain": (EDGE_GRID, SimParams(lam=1, alpha=3.0, dt=0.01, t_final=0.5), None,
              gaussian_field(EDGE_GRID, width=1.0), True, "ok"),
    # Re M = 300 over steps 2-3 lies between 709.78 / (alpha - 1) = 182 and
    # the guard, so e^{(alpha-1) Re M} and the phase coefficients overflow
    # there, while the mass 1e-40 e^{600} does not.  The angle is non-finite
    # and the check at the finish index 4 stops the row.
    "phase_scale_overflows": (
        EDGE_GRID, EDGE_PARAMS, handmade_path(jumps(10, {1: 300.0, 3: -300.0}), 0.01),
        gaussian_field(EDGE_GRID, width=1.0, l2_norm=1e-20), False,
        "non-finite state at time index 4"),
    # the own mass underflows to 0 at index 1 (dQ = 1000), then Re M = 300
    # makes every later coefficient inf x 0 = NaN; the row finishes at
    # index 1, before any of them
    "nan_coefficient": (
        EDGE_GRID, EDGE_PARAMS,
        handmade_path(jumps(10, {3: 300.0}), 0.01, jumps(10, {0: 1e5})),
        gaussian_field(EDGE_GRID, width=1.0), False, "ok"),
    # overflowing coefficients, then Re M = 800 at index 5: the guard stops
    # the row first
    "guard_after_overflow": (
        EDGE_GRID, EDGE_PARAMS, handmade_path(jumps(10, {1: 300.0, 4: 500.0}), 0.01),
        gaussian_field(EDGE_GRID, width=1.0, l2_norm=1e-20), False,
        "|Re M| exceeds the overflow guard at time index 5"),
    # finite coefficients whose bound overflows: a spread state turns by
    # finite angles and runs to the end, a point state overflows its angle
    "window_spread": (
        WINDOW_GRID, WINDOW_PARAMS, handmade_path(np.zeros((1, 4)), WINDOW_DT),
        gaussian_field(WINDOW_GRID, width=1.0, l2_norm=math.sqrt(WINDOW_MASS)), False,
        "ok"),
    "window_point": (
        WINDOW_GRID, WINDOW_PARAMS, handmade_path(np.zeros((1, 4)), WINDOW_DT),
        point_state(WINDOW_GRID, WINDOW_MASS), False, "non-finite state at time index 4"),
}


@pytest.mark.filterwarnings("ignore::snls_lab.spectral_grid.SpectralTailWarning")
@pytest.mark.parametrize("edge", sorted(IDENTITY_EDGES))
def test_identity_outcome_matches_the_march(edge, monkeypatch):
    # A homogeneous path's outcome from its identity (an ensemble's) equals
    # simulate_block's on the one path, at each edge where a march could
    # stop the row where the identity does not: the same record series, or
    # the same abort at the same index.  The path is marched only where the
    # identity cannot decide.
    grid, params, path, x, decides, want = IDENTITY_EDGES[edge]
    model = const_model(1.0)
    if path is None:
        path = sample_martingale(model, params.dt, params.n_steps, 3)
    marched, = simulate_block(grid, model, params, x, [path])
    calls = []
    monkeypatch.setattr(integrator, "simulate_block",
                        lambda *args: calls.append(1) or simulate_block(*args))
    outcome = integrator.identity_outcome(grid, model, params, x, path)
    assert len(calls) == (not decides)
    if want == "ok":
        assert not isinstance(marched, NumericalAbort), marched
        for name in ("times", "mass_x", "mass_y", "re_m"):
            assert np.array_equal(getattr(outcome, name), getattr(marched, name)), name
    else:
        assert str(marched) == want
        assert (str(outcome), outcome.time_index) == (want, marched.time_index)


@pytest.mark.filterwarnings("ignore::snls_lab.spectral_grid.SpectralTailWarning")
@pytest.mark.parametrize("splitting, bound", [("strang", 13.5), ("lie", 13.6)])
def test_unfused_march_working_set(splitting, bound):
    # Peak traced memory of a 32^3 direct bump run, in grid-size complex
    # arrays: the block's scratch and tables, the recording temporaries and
    # the final fields.  It reads 13.03 (Strang) and 13.09 (Lie); before the
    # scratch buffers it read 16.08 and 15.08.  One field kept alive by
    # mistake adds one.
    grid = make_grid(3, 32, 8.0)
    unit = DensitySpec("constant", alpha0=1.0, v_max=1.0, value=1.0)
    model = NoiseModel(np.array([0.5 + 0j, 0.5 + 0j]),
                       [SpatialProfile("gaussian-bump", width=2.0, center=(0.0, 0.0, 0.0)),
                        SpatialProfile("constant-one")], [unit, unit])
    params = SimParams(lam=1, alpha=2.0, dt=1e-3, t_final=0.016, scheme="direct",
                       splitting=splitting)
    x = gaussian_field(grid, width=1.0)

    def run():
        simulate(grid, model, params, x, seed=1, snapshot=lambda k, t, f: None)

    run()  # warm-up: first-call allocations are not the march's
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (16 * grid.size) < bound


@pytest.mark.parametrize("scheme", ["rescaled", "direct"])
def test_fast_forward_working_set(scheme):
    # Peak traced memory of a homogeneous lambda = 0 run on 2^14 points,
    # which fast-forwards from index 0, in grid-size complex arrays: the
    # block's scratch and tables and the final fields.  It reads 9.56 on
    # both schemes; with the row's spectrum copied at its finish index and
    # handed over after the march it read 10.56.
    grid = make_grid(1, 2**14, 64.0)
    params = SimParams(lam=0, alpha=3.0, dt=1e-2, t_final=1.0, scheme=scheme)
    x = gaussian_field(grid, width=1.0)

    def run():
        simulate(grid, const_model(1.0 + 0.5j), params, x, seed=1)

    run()  # warm-up: first-call allocations are not the march's
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (16 * grid.size) < 10.0
