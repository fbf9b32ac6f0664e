"""Duhamel quadrature and the fixed-point iteration."""

import numpy as np
import pytest

from reference import duhamel_apply, mixed_norm
from snls_lab.errors import AssumptionVeto
from snls_lab.integrator import SimParams, simulate
from snls_lab.mild_picard import (
    PicardConfig,
    _MapKernel,
    picard_iterate,
    strichartz_exponent,
)
from snls_lab.noise_process import (
    DensitySpec,
    NoiseModel,
    SpatialProfile,
    sample_martingale,
)
from snls_lab.spectral_grid import (
    ComplexField,
    constant_field,
    free_propagator_apply,
    gaussian_field,
    make_grid,
    norm_L2,
    norm_Lp,
)

GRID = make_grid(1, 256, 16.0)


def unit_model(mu=1.0):
    mu = np.atleast_1d(np.asarray(mu, dtype=complex))
    return NoiseModel(mu, [SpatialProfile("constant-one")] * mu.size,
                      [DensitySpec.constant(1.0)] * mu.size)


class TestStrichartzExponent:
    def test_reference_values(self):
        assert strichartz_exponent(1, 3.0) == pytest.approx(8.0, rel=1e-15)
        assert strichartz_exponent(2, 2.0) == pytest.approx(6.0, rel=1e-15)

    def test_band_rejection(self):
        with pytest.raises(ValueError):
            strichartz_exponent(1, 5.0)  # endpoint excluded
        with pytest.raises(ValueError):
            strichartz_exponent(1, 1.0)
        with pytest.raises(ValueError):
            strichartz_exponent(2, 3.5)

    def test_limit_stays_above_endpoint(self):
        for d in (1, 2, 3):
            alpha = 1.0 + 4.0 / d - 1e-6
            assert strichartz_exponent(d, alpha) > 2.0 + 4.0 / d


class TestDuhamelApply:
    def test_zero_forcing(self):
        series = [constant_field(GRID, 0.0) for _ in range(16)]
        out = duhamel_apply(series, GRID, 1.0, 16)
        assert np.all(out.values == 0.0)

    def test_free_trajectory_integrates_exactly(self):
        # f(s) = U(s,0) g makes the back-transported integrand constant, so
        # the result is tau * U(tau,0) g at any node count
        g0 = gaussian_field(GRID, width=1.0)
        tau = 0.7
        for nodes in (8, 13):
            times = np.linspace(0.0, tau, nodes)
            series = [free_propagator_apply(g0, t) for t in times]
            out = duhamel_apply(series, GRID, tau, nodes)
            expect = tau * free_propagator_apply(g0, tau).values
            assert np.abs(out.values - expect).max() < 1e-12

    def test_constant_forcing(self):
        series = [constant_field(GRID, 1.0) for _ in range(32)]
        out = duhamel_apply(series, GRID, 1.0, 32)
        assert np.allclose(out.values, 1.0, atol=1e-12)

    def test_node_count_mismatch(self):
        series = [constant_field(GRID, 1.0) for _ in range(8)]
        with pytest.raises(ValueError):
            duhamel_apply(series, GRID, 1.0, 16)


class TestPicardIterate:
    def test_linear_free_case_converges_immediately(self):
        # lam = 0 and mu = 0: the map ignores its argument beyond the free
        # part, so the first correction already lands on the fixed point
        m = unit_model(0.0)
        x = gaussian_field(GRID, width=1.0, l2_norm=1.0)
        path = sample_martingale(m, 1e-3, 100, 0)
        rep = picard_iterate(x, m, path, PicardConfig(horizon=0.05, nodes=16), 0, 3.0)
        assert rep.converged
        assert rep.distances[0] <= 1e-12
        assert all(r == 0.0 for r in rep.ratios)

    def test_contraction_at_short_horizon(self):
        m = unit_model(1.0)
        x = gaussian_field(GRID, width=1.0, l2_norm=1.0)
        path = sample_martingale(m, 1e-4, 500, 0)
        cfg = PicardConfig(horizon=0.05, nodes=64, tolerance=1e-8)
        rep = picard_iterate(x, m, path, cfg, 1, 3.0)
        assert rep.converged and not rep.no_contraction
        assert rep.iterations <= 20
        assert max(rep.ratios) <= 2.0 / 3.0
        assert rep.q == pytest.approx(8.0)
        assert rep.gamma_tau >= 1.0

    def test_agrees_with_integrator_at_horizon(self):
        m = unit_model(1.0)
        x = gaussian_field(GRID, width=1.0, l2_norm=1.0)
        path = sample_martingale(m, 1e-4, 500, 3)
        cfg = PicardConfig(horizon=0.05, nodes=64, tolerance=1e-10)
        rep = picard_iterate(x, m, path, cfg, 1, 3.0)
        params = SimParams(lam=1, alpha=3.0, dt=1e-4, t_final=0.05, scheme="rescaled")
        rec = simulate(GRID, m, params, x, seed=3, path=path)
        d = rep.iterate[-1] - rec.final_y.values
        err = np.sqrt(GRID.cell_volume * np.vdot(d, d).real)
        assert err <= 5e-3

    def test_linear_node_convergence_is_second_order(self):
        # damped linear problem: closed form e^{-tau} U(tau,0) x
        m = unit_model(1.0)
        x = gaussian_field(GRID, width=1.0, l2_norm=1.0)
        path = sample_martingale(m, 1e-4, 500, 0)
        closed = np.exp(-0.05) * free_propagator_apply(x, 0.05).values
        errs = []
        nodes_list = [16, 32, 64]
        for nodes in nodes_list:
            cfg = PicardConfig(horizon=0.05, nodes=nodes, tolerance=1e-13,
                               max_iterations=30)
            rep = picard_iterate(x, m, path, cfg, 0, 3.0)
            d = rep.iterate[-1] - closed
            errs.append(np.sqrt(GRID.cell_volume * np.vdot(d, d).real))
        spacings = [0.05 / (n - 1) for n in nodes_list]
        order = np.polyfit(np.log(spacings), np.log(errs), 1)[0]
        assert 1.7 <= order <= 2.3

    def test_one_correction_reproduces_duhamel_for_linear_problem(self):
        # F applied to the free trajectory subtracts exactly the Duhamel
        # integral of the damping forcing
        m = unit_model(1.0)
        x = gaussian_field(GRID, width=1.0, l2_norm=1.0)
        path = sample_martingale(m, 1e-4, 500, 1)
        tau, nodes = 0.04, 32
        kern = _MapKernel(x, m, path, tau, nodes, 0, 3.0)
        free = [free_propagator_apply(x, t) for t in kern.times]
        mapped = kern.apply(np.stack([f.values for f in free]))
        forcing = [ComplexField(1.0 * f.values, GRID) for f in free]  # coef = 1
        duh = duhamel_apply(forcing, GRID, tau, nodes)
        expect = free[-1].values - duh.values
        assert np.abs(mapped[-1] - expect).max() < 1e-12

    def test_fixed_point_residual_within_twice_tolerance(self):
        m = unit_model(1.0)
        x = gaussian_field(GRID, width=1.0, l2_norm=1.0)
        path = sample_martingale(m, 1e-4, 500, 5)
        cfg = PicardConfig(horizon=0.05, nodes=64, tolerance=1e-8)
        rep = picard_iterate(x, m, path, cfg, 1, 3.0)
        assert rep.converged
        kern = _MapKernel(x, m, path, cfg.horizon, cfg.nodes, 1, 3.0)
        diff = [ComplexField(row, GRID) for row in kern.apply(rep.iterate) - rep.iterate]
        sup = max(norm_L2(f) for f in diff)
        resid = sup + mixed_norm(kern.times, diff, rep.q, 3.0)
        assert resid <= 2.0 * cfg.tolerance

    def test_halving_horizon_never_increases_max_ratio(self):
        m = unit_model(1.0)
        x = gaussian_field(GRID, width=1.0, l2_norm=1.0)
        for seed in range(10):
            path = sample_martingale(m, 1e-4, 500, seed)
            r_full = picard_iterate(x, m, path,
                                    PicardConfig(horizon=0.05, nodes=64), 1, 3.0)
            r_half = picard_iterate(x, m, path,
                                    PicardConfig(horizon=0.025, nodes=64), 1, 3.0)
            assert max(r_half.ratios) <= max(r_full.ratios) + 1e-12

    def test_no_contraction_status_on_long_horizon(self):
        # a large state on a long horizon leaves the contraction regime:
        # the report flags it instead of raising
        m = unit_model(1.0)
        x = gaussian_field(GRID, width=1.0, l2_norm=40.0)
        path = sample_martingale(m, 1e-3, 2000, 2)
        cfg = PicardConfig(horizon=2.0, nodes=64, max_iterations=12)
        rep = picard_iterate(x, m, path, cfg, 1, 3.0)
        assert rep.no_contraction
        assert not rep.converged

    def test_requires_homogeneous_profiles(self):
        prof = SpatialProfile("gaussian-bump", width=1.0)
        m = NoiseModel(np.array([1.0 + 0j]), [prof], [DensitySpec.constant(1.0)])
        x = gaussian_field(GRID, width=1.0)
        path = sample_martingale(m, 1e-3, 100, 0)
        with pytest.raises(AssumptionVeto):
            picard_iterate(x, m, path, PicardConfig(horizon=0.05), 1, 3.0)

    def test_rejects_zero_state(self):
        m = unit_model(1.0)
        x = constant_field(GRID, 0.0)
        path = sample_martingale(m, 1e-3, 100, 0)
        with pytest.raises(ValueError):
            picard_iterate(x, m, path, PicardConfig(horizon=0.05), 1, 3.0)

    def test_report_json_surface(self):
        m = unit_model(1.0)
        x = gaussian_field(GRID, width=1.0, l2_norm=1.0)
        path = sample_martingale(m, 1e-4, 500, 0)
        rep = picard_iterate(x, m, path, PicardConfig(horizon=0.05, nodes=32), 1, 3.0)
        d = rep.to_json_dict()
        assert set(d) >= {"ratios", "distances", "converged", "gamma_tau", "q"}


class TestMixedNorm:
    def test_constant_trajectory(self):
        # ||y||_{Lq(0,tau; L^{a+1})} of a constant-in-time trajectory is
        # tau^{1/q} times the spatial norm
        tau, nodes, alpha = 0.5, 33, 3.0
        q = strichartz_exponent(1, alpha)
        f = gaussian_field(GRID, width=1.0)
        times = np.linspace(0, tau, nodes)
        expect = tau ** (1.0 / q) * norm_Lp(f, alpha + 1.0)
        assert mixed_norm(times, [f] * nodes, q, alpha) == pytest.approx(expect, rel=1e-12)
