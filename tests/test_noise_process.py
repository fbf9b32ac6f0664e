"""Martingale sampling, noise field assembly, and assumption validation."""

import io

import numpy as np
import pytest

from snls_lab.integrator import SimParams, _Stepper
from snls_lab.noise_process import (
    DensitySpec,
    NoiseModel,
    SpatialProfile,
    lln_ratio,
    path_to_csv,
    restrict_path,
    sample_martingale,
    validate_assumptions,
)
from snls_lab.spectral_grid import make_grid


def unit_model(n=1, mu=None):
    mu = np.ones(n, dtype=complex) if mu is None else np.asarray(mu, dtype=complex)
    return NoiseModel(mu, [SpatialProfile("constant-one")] * mu.size,
                      [DensitySpec.constant(1.0)] * mu.size)


class TestDensitySpec:
    def test_constant(self):
        d = DensitySpec.constant(2.0)
        assert np.all(d.evaluate([0.0, 1.0, 5.0]) == 2.0)

    def test_piecewise(self):
        d = DensitySpec.piecewise([0.0, 1.0, 2.0], [1.0, 3.0, 2.0])
        assert np.allclose(d.evaluate([0.5, 1.0, 1.5, 2.5]), [1.0, 3.0, 3.0, 2.0])

    def test_tabulated_interpolates(self):
        t = np.linspace(0, 1, 11)
        d = DensitySpec.tabulated(t, 1 + t)
        assert d.evaluate(0.55) == pytest.approx(1.55, rel=1e-12)
        assert d.horizon == 1.0

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            DensitySpec.tabulated([0.0, 1.0], [1.0, -0.5])

    def test_rejects_band_violation(self):
        with pytest.raises(ValueError):
            DensitySpec("constant", alpha0=2.0, v_max=3.0, value=1.0)


class TestSampleMartingale:
    def test_deterministic(self):
        m = unit_model()
        p1 = sample_martingale(m, 1e-3, 100, 7)
        p2 = sample_martingale(m, 1e-3, 100, 7)
        assert np.array_equal(p1.values, p2.values)
        assert np.array_equal(p1.qv, p2.qv)

    def test_starts_at_zero(self):
        p = sample_martingale(unit_model(2), 1e-2, 50, 3)
        assert np.all(p.values[:, 0] == 0.0)

    def test_qv_of_linear_density(self):
        # V(s) = 1 + s on [0, 1]: integral 1.5; left-endpoint defect is dt/2
        t = np.linspace(0, 1, 10001)
        d = DensitySpec.tabulated(t, 1 + t)
        m = NoiseModel(np.array([1.0 + 0j]), [SpatialProfile("constant-one")], [d])
        p = sample_martingale(m, 1e-4, 10000, 1)
        assert p.qv[0, -1] == pytest.approx(1.5, abs=1e-4)

    def test_realized_qv_concentrates(self):
        # V = 1, dt = 1e-4, K = 1e4: realized QV within [0.95, 1.05] for
        # at least 99% of seeds (std of realized QV ~ sqrt(2*dt) ~ 0.014)
        m = unit_model()
        hits = 0
        n_seeds = 300
        for seed in range(n_seeds):
            p = sample_martingale(m, 1e-4, 10000, seed)
            qv = float((p.increments[0] ** 2).sum())
            hits += 0.95 <= qv <= 1.05
        assert hits / n_seeds >= 0.99

    def test_rejects_horizon_overrun(self):
        t = np.linspace(0, 1, 11)
        d = DensitySpec.tabulated(t, np.ones(11))
        m = NoiseModel(np.array([1.0 + 0j]), [SpatialProfile("constant-one")], [d])
        with pytest.raises(ValueError):
            sample_martingale(m, 0.1, 11, 0)

    def test_rejects_bad_steps(self):
        m = unit_model()
        with pytest.raises(ValueError):
            sample_martingale(m, -1e-3, 10, 0)
        with pytest.raises(ValueError):
            sample_martingale(m, 1e-3, 0, 0)

    def test_component_independence(self):
        m = unit_model(2)
        p = sample_martingale(m, 1e-3, 100000, 5)
        corr = np.corrcoef(p.increments[0], p.increments[1])[0, 1]
        assert abs(corr) <= 0.02

    def test_qv_bounds(self):
        dns = DensitySpec.piecewise([0.0, 1.0], [1.0, 2.0], alpha0=1.0, v_max=2.0)
        m = NoiseModel(np.array([1.0 + 0j]), [SpatialProfile("constant-one")], [dns])
        p = sample_martingale(m, 1e-2, 300, 9)
        t_end = p.times[-1]
        assert np.all(np.diff(p.qv[0]) >= 0.0)
        assert p.qv[0, -1] <= 2.0 * t_end + 1e-12
        assert p.qv[0, -1] >= 1.0 * t_end - 1e-12

    def test_realized_qv_error_scales_like_sqrt_dt(self):
        # distributional check: std of (realized QV - integral V) halves when
        # dt shrinks by 4
        m = unit_model()
        errs = {}
        for dt, steps in ((4e-3, 250), (1e-3, 1000)):
            devs = [float((sample_martingale(m, dt, steps, s).increments[0] ** 2).sum()) - 1.0
                    for s in range(300)]
            errs[dt] = np.std(devs)
        ratio = errs[4e-3] / errs[1e-3]
        assert 1.5 <= ratio <= 2.5


class TestRestrictPath:
    def test_increments_sum(self):
        m = unit_model(2)
        p = sample_martingale(m, 1e-3, 100, 3)
        c = restrict_path(p, 4)
        assert c.n_steps == 25
        assert np.allclose(c.values, p.values[:, ::4], atol=0)
        assert np.allclose(c.increments.sum(axis=1), p.increments.sum(axis=1),
                           rtol=1e-12)

    def test_rejects_nondivisible(self):
        p = sample_martingale(unit_model(), 1e-3, 100, 3)
        with pytest.raises(ValueError):
            restrict_path(p, 3)


class TestNoiseField:
    """M(t_k, xi) = sum_j mu_j e_j(xi) M_j(t_k) as the integrator assembles it."""

    @staticmethod
    def stepper(model, path, grid):
        params = SimParams(lam=0, alpha=3.0, dt=path.dt, t_final=path.dt * path.n_steps,
                           scheme="direct")
        return _Stepper(grid, model, params, path)

    def test_zero_values_give_zero_field(self):
        g = make_grid(1, 16, 2.0)
        prof = SpatialProfile("gaussian-bump", width=1.0)
        m = NoiseModel(np.array([1.0 + 0j]), [prof], [DensitySpec.constant(1.0)])
        p = sample_martingale(m, 1e-3, 10, 0)
        out = self.stepper(m, p, g).m_field_values(0)  # M(0) = 0
        assert np.all(out == 0.0)

    def test_constant_profile_substitution(self):
        g = make_grid(1, 16, 2.0)
        m = NoiseModel(np.array([2.0 + 1.0j]), [SpatialProfile("constant-one")],
                       [DensitySpec.constant(1.0)])
        p = sample_martingale(m, 1e-3, 10, 0)
        p.values[0, 5] = 0.5  # pin the component value
        out = self.stepper(m, p, g).m_field_values(5)
        assert np.allclose(out, 1.0 + 0.5j, atol=1e-15)

    def test_grid_mismatch(self):
        g = make_grid(1, 16, 2.0)
        prof = SpatialProfile("tabulated", table=np.ones(8))
        m = NoiseModel(np.array([1.0 + 0j]), [prof], [DensitySpec.constant(1.0)])
        p = sample_martingale(m, 1e-3, 10, 0)
        with pytest.raises(ValueError):
            self.stepper(m, p, g)


class TestLlnRatio:
    def test_zero_variance_density_gives_zero(self):
        d = DensitySpec.constant(0.0)
        m = NoiseModel(np.array([1.0 + 0j]), [SpatialProfile("constant-one")], [d])
        p = sample_martingale(m, 1e-2, 100, 0)
        assert lln_ratio(m, p, 100) == 0.0

    def test_rejects_time_zero(self):
        m = unit_model()
        p = sample_martingale(m, 1e-2, 10, 0)
        with pytest.raises(ValueError):
            lln_ratio(m, p, 0)

    def test_ratio_concentrates_at_large_time(self):
        # V = 1, mu = 1, T = 100: ratio ~ N(0, 1/T), |ratio| <= 0.3 is 3 sigma
        m = unit_model()
        hits = 0
        n_seeds = 300
        for seed in range(n_seeds):
            p = sample_martingale(m, 1e-2, 10000, seed)
            hits += abs(lln_ratio(m, p, 10000)) <= 0.3
        assert hits / n_seeds >= 0.99

    def test_std_halves_from_t_to_4t(self):
        m = unit_model()
        stds = {}
        for steps in (2500, 10000):  # T = 25 and T = 100 at dt = 1e-2
            vals = [lln_ratio(m, sample_martingale(m, 1e-2, steps, s), steps)
                    for s in range(500)]
            stds[steps] = np.std(vals)
        ratio = stds[2500] / stds[10000]
        assert abs(ratio - 2.0) <= 0.4  # within 20%


class TestValidateAssumptions:
    def test_constant_profile_h4_pass_h1_fail(self):
        g = make_grid(1, 128, 8.0)
        m = unit_model()
        rep = validate_assumptions(m, g, 10.0)
        assert rep.h4 and not rep.h1 and rep.h3
        assert rep.h4 is True and rep.h1 is False

    def test_purely_imaginary_coefficient_fails_h4(self):
        g = make_grid(1, 64, 8.0)
        m = NoiseModel(np.array([1j]), [SpatialProfile("constant-one")],
                       [DensitySpec.constant(1.0)])
        rep = validate_assumptions(m, g, 10.0)
        assert not rep.h4
        assert any("Re mu = 0" in w for w in rep.witnesses.values())

    def test_gaussian_profile_passes_h1_proxy(self):
        g = make_grid(1, 128, 8.0)
        prof = SpatialProfile("gaussian-bump", width=np.sqrt(0.5))  # exp(-|xi|^2)
        m = NoiseModel(np.array([1.0 + 0j]), [prof], [DensitySpec.constant(1.0)])
        rep = validate_assumptions(m, g, 10.0)
        assert rep.h1

    def test_zero_alpha0_fails_h4(self):
        m = NoiseModel(np.array([1.0 + 0j]), [SpatialProfile("constant-one")],
                       [DensitySpec.constant(1.0, alpha0=0.0)])
        rep = validate_assumptions(m, make_grid(1, 64, 4.0), 1.0)
        assert not rep.h4


class TestCsvExport:
    def test_header_and_precision(self):
        m = unit_model(2)
        p = sample_martingale(m, 1e-3, 5, 1)
        buf = io.StringIO()
        path_to_csv(p, buf)
        lines = buf.getvalue().split("\n")
        assert lines[0] == "t,M_1,M_2,Q_1,Q_2"
        assert len(lines) == 8  # header + 6 rows + trailing newline
        # values round-trip at 17 significant digits
        row = lines[2].split(",")
        assert float(row[1]) == p.values[0, 1]
