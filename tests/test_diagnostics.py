"""Identity residuals, decay-rate definition, and log-slope fitting."""

import dataclasses

import numpy as np
import pytest

from reference import const_model
from snls_lab.diagnostics import (
    decay_fit,
    energy_identity_residual,
    fit_log_slope,
    gronwall_check,
    mass_identity_residual,
    omega,
)
from snls_lab.errors import AssumptionVeto
from snls_lab.harness import save_series_csv
from snls_lab.integrator import SimParams, simulate
from snls_lab.noise_process import (
    DensitySpec,
    NoiseModel,
    SpatialProfile,
    restrict_path,
    sample_martingale,
)
from snls_lab.spectral_grid import gaussian_field, make_grid

GRID = make_grid(1, 256, 16.0)
X0 = gaussian_field(GRID, width=1.0)


class TestOmega:
    def test_unit_case(self):
        assert omega(const_model(1.0, alpha0=1.0)) == pytest.approx(2.0)

    def test_two_components(self):
        m = NoiseModel(np.array([1.0 + 1.0j, 2.0 + 0j]),
                       [SpatialProfile("constant-one")] * 2,
                       [DensitySpec("constant", alpha0=0.5, value=1.0),
                        DensitySpec("constant", alpha0=0.5, value=1.0)])
        assert omega(m) == pytest.approx(5.0)  # 2 * 0.5 * (1 + 4)

    def test_rejects_purely_imaginary(self):
        with pytest.raises(AssumptionVeto):
            omega(const_model(1j, alpha0=1.0))

    def test_rejects_zero_alpha0(self):
        with pytest.raises(AssumptionVeto):
            omega(const_model(1.0, alpha0=0.0))

    def test_rejects_varying_profiles(self):
        m = NoiseModel(np.array([1.0 + 0j]),
                       [SpatialProfile("gaussian-bump", width=1.0)],
                       [DensitySpec("constant", alpha0=1.0, value=1.0)])
        with pytest.raises(AssumptionVeto):
            omega(m)

    def test_depends_only_on_squared_real_parts(self):
        # metamorphic: replacing each mu_j by Re(mu_j) + i * anything leaves
        # omega unchanged
        rng = np.random.default_rng(3)
        re_parts = np.array([0.7, -1.2, 0.4])
        for _ in range(5):
            mu1 = re_parts + 1j * rng.standard_normal(3)
            mu2 = re_parts * np.where(rng.random(3) < 0.5, 1, -1) \
                + 1j * rng.standard_normal(3)
            m1 = NoiseModel(mu1, [SpatialProfile("constant-one")] * 3,
                            [DensitySpec("constant", alpha0=0.8, value=1.0)] * 3)
            m2 = NoiseModel(mu2, [SpatialProfile("constant-one")] * 3,
                            [DensitySpec("constant", alpha0=0.8, value=1.0)] * 3)
            assert omega(m1) == pytest.approx(omega(m2), rel=1e-14)


class TestMassIdentityResidual:
    def test_zero_coefficient_conserves(self):
        m = const_model(0.0)
        params = SimParams(lam=1, alpha=3.0, dt=1e-3, t_final=1.0, scheme="direct")
        rec = simulate(GRID, m, params, X0, seed=0)
        assert mass_identity_residual(rec).max_abs <= 1e-10

    def test_purely_imaginary_coefficient(self):
        # the stochastic sum vanishes and the noise flow has unit modulus
        m = const_model(1j)
        params = SimParams(lam=1, alpha=3.0, dt=1e-3, t_final=1.0, scheme="direct")
        rec = simulate(GRID, m, params, X0, seed=1)
        assert mass_identity_residual(rec).max_abs <= 1e-10

    def test_residual_shrinks_on_coupled_refinement(self):
        # frozen path: the coarse/fine максimum-residual quotient sits inside
        # [1.5, 2.5] for this seed (the quotient is pathwise random)
        m = const_model(1.0)
        fine = sample_martingale(m, 1e-3, 1000, 4)
        maxima = {}
        for dt, factor in ((1e-3, 1), (2e-3, 2)):
            p = restrict_path(fine, factor)
            params = SimParams(lam=1, alpha=3.0, dt=dt, t_final=1.0, scheme="direct")
            rec = simulate(GRID, m, params, X0, seed=4, path=p)
            maxima[dt] = mass_identity_residual(rec).max_abs
        assert 1.5 <= maxima[2e-3] / maxima[1e-3] <= 2.5

    def test_requires_accumulation(self):
        m = const_model(1.0)
        params = SimParams(lam=0, alpha=3.0, dt=1e-2, t_final=0.1, scheme="direct")
        rec = simulate(GRID, m, params, X0, seed=0)
        rec.ito_mass_sum = None
        with pytest.raises(ValueError):
            mass_identity_residual(rec)


class TestEnergyIdentityResidual:
    def test_purely_imaginary_conserves(self):
        m = const_model(1j)
        params = SimParams(lam=1, alpha=3.0, dt=1e-3, t_final=1.0, scheme="rescaled")
        rec = simulate(GRID, m, params, X0, seed=2)
        assert energy_identity_residual(rec, m).max_abs <= 1e-12

    def test_equality_case_matches_quadrature_defect(self):
        # lam = 0, V = 1: E0(t_k) = m0 e^{-2 t_k} to roundoff, so the
        # left-endpoint residual equals the closed-form quadrature defect
        m = const_model(1.0)
        dt = 1e-3
        params = SimParams(lam=0, alpha=3.0, dt=dt, t_final=1.0, scheme="rescaled")
        rec = simulate(GRID, m, params, X0, seed=0)
        res = energy_identity_residual(rec, m)
        m0 = rec.mass_y[0]
        t = rec.times
        closed = m0 * np.exp(-2.0 * t)
        expected = closed - m0 + 2.0 * dt * np.concatenate(
            ([0.0], np.cumsum(closed[:-1])))
        assert np.abs(res.values - expected).max() <= 1e-10 * m0

    def test_defect_halves_with_dt(self):
        # deterministic given the density: quadrature defect is O(dt)
        m = const_model(1.0)
        maxima = {}
        for dt in (2e-3, 1e-3):
            params = SimParams(lam=1, alpha=3.0, dt=dt, t_final=1.0,
                               scheme="rescaled")
            rec = simulate(GRID, m, params, X0, seed=5)
            maxima[dt] = energy_identity_residual(rec, m).max_abs
        assert 1.5 <= maxima[2e-3] / maxima[1e-3] <= 2.5

    def test_rejects_direct_record(self):
        m = const_model(1.0)
        params = SimParams(lam=0, alpha=3.0, dt=1e-2, t_final=0.1, scheme="direct")
        rec = simulate(GRID, m, params, X0, seed=0)
        with pytest.raises(ValueError):
            energy_identity_residual(rec, m)


class TestResidualOrder:
    def test_order_fit_across_ladder(self):
        # log-log least-squares order of max|R| over a three-step ladder
        m = const_model(1.0)
        dts = (4e-3, 2e-3, 1e-3)
        maxima = []
        for dt in dts:
            params = SimParams(lam=1, alpha=3.0, dt=dt, t_final=1.0,
                               scheme="rescaled")
            rec = simulate(GRID, m, params, X0, seed=5)
            maxima.append(energy_identity_residual(rec, m).max_abs)
        order = np.polyfit(np.log(dts), np.log(maxima), 1)[0]
        assert 0.7 <= order <= 1.3


class TestDecayFit:
    def test_synthetic_exact_series(self):
        t = np.linspace(0, 5, 501)
        slope, _ = fit_log_slope(t, np.exp(-2.0 * t))
        assert slope == pytest.approx(-2.0, abs=1e-8)

    def test_equality_case_slope(self):
        m = const_model(1.0, alpha0=1.0)
        params = SimParams(lam=0, alpha=3.0, dt=1e-3, t_final=5.0, scheme="rescaled")
        rec = simulate(GRID, m, params, X0, seed=0)
        slope, _ = fit_log_slope(rec.times, rec.mass_y)
        assert slope == pytest.approx(-2.0, abs=1e-6)
        assert omega(m) == pytest.approx(2.0)
        assert slope + omega(m) == pytest.approx(0.0, abs=1e-6)

    def test_window_validation(self):
        t = np.linspace(0, 1, 101)
        with pytest.raises(ValueError):
            fit_log_slope(t, np.exp(-t), window=(2.0, 3.0))

    def test_truncates_at_underflow(self):
        t = np.linspace(0, 10, 1001)
        vals = np.exp(-2 * t)
        vals[500:] = 0.0
        slope, window = fit_log_slope(t, vals)
        assert slope == pytest.approx(-2.0, abs=1e-6)
        assert window[1] <= t[499]

    def test_lln_ratio_recorded(self):
        m = const_model(1.0, alpha0=1.0)
        params = SimParams(lam=0, alpha=3.0, dt=1e-3, t_final=1.0, scheme="rescaled")
        rec = simulate(GRID, m, params, X0, seed=7)
        report = decay_fit(rec, m)
        assert report.lln_ratio == pytest.approx(rec.re_m[-1] / rec.times[-1])

    def test_rejects_a_zero_initial_mass(self):
        # a run from the zero state has nothing to fit; no config reaches it,
        # since the harness rejects a zero initial state first
        m = const_model(1.0, alpha0=1.0)
        params = SimParams(lam=0, alpha=3.0, dt=1e-3, t_final=0.01, scheme="rescaled")
        rec = simulate(GRID, m, params, X0, seed=0)
        with pytest.raises(ValueError, match="^initial mass must be positive"):
            decay_fit(dataclasses.replace(rec, mass_x=0.0 * rec.mass_x), m)


class TestStructuralIdentities:
    def test_gronwall_envelope_and_monotonicity(self):
        m = const_model(1.0, alpha0=1.0)
        params = SimParams(lam=1, alpha=3.0, dt=1e-3, t_final=2.0, scheme="rescaled")
        rec = simulate(GRID, m, params, X0, seed=9)
        env = gronwall_check(rec, m)
        assert env["violations"] == 0
        assert env["monotone"]

    def test_bridge_identity_series(self):
        # ||X||^2 = e^{2 Re M} ||y||^2 at every recorded time
        for scheme in ("direct", "rescaled"):
            m = const_model(1.0 + 0.5j)
            params = SimParams(lam=1, alpha=3.0, dt=1e-3, t_final=1.0, scheme=scheme)
            rec = simulate(GRID, m, params, X0, seed=11)
            lhs = rec.mass_x
            rhs = np.exp(2.0 * rec.re_m) * rec.mass_y
            assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(lhs).max()

    def test_lln_wiring_equality(self):
        # (1/T) log(||X(T)||^2 / ||x||^2)
        #   = (1/T) log(E0(T)/E0(0)) + 2 Re M(T)/T, exactly at series level
        m = const_model(1.0, alpha0=1.0)
        params = SimParams(lam=1, alpha=3.0, dt=1e-3, t_final=2.0, scheme="rescaled")
        rec = simulate(GRID, m, params, X0, seed=13)
        T = rec.times[-1]
        lhs = np.log(rec.mass_x[-1] / rec.mass_x[0]) / T
        rhs = np.log(rec.mass_y[-1] / rec.mass_y[0]) / T + 2.0 * rec.re_m[-1] / T
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestCsv:
    def test_residual_csv_format(self, tmp_path):
        m = const_model(1.0)
        params = SimParams(lam=0, alpha=3.0, dt=1e-2, t_final=0.1, scheme="rescaled")
        rec = simulate(GRID, m, params, X0, seed=0)
        res = energy_identity_residual(rec, m)
        # the columns of energy_residual.csv
        save_series_csv(tmp_path / "r.csv", {"t": res.times, "residual": res.values})
        lines = (tmp_path / "r.csv").read_bytes().decode().strip().split("\n")
        assert lines[0] == "t,residual"
        assert len(lines) == res.times.size + 1
