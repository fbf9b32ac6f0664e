"""Martingale sampling, noise field assembly, and assumption validation."""

import math

import numpy as np
import pytest

from reference import const_model
from snls_lab.harness import save_series_csv
from snls_lab.integrator import SimParams, _Block
from snls_lab.noise_process import (
    DensitySpec,
    NoiseModel,
    SpatialProfile,
    restrict_path,
    sample_martingale,
    validate_assumptions,
)
from snls_lab.seeding import derive_seed
from snls_lab.spectral_grid import make_grid


class TestDensitySpec:
    def test_constant(self):
        d = DensitySpec("constant", value=2.0)
        assert np.all(d.evaluate([0.0, 1.0, 5.0]) == 2.0)

    def test_piecewise(self):
        d = DensitySpec("piecewise-constant", times=[0.0, 1.0, 2.0],
                        values=[1.0, 3.0, 2.0])
        assert np.allclose(d.evaluate([0.5, 1.0, 1.5, 2.5]), [1.0, 3.0, 3.0, 2.0])

    def test_tabulated_interpolates(self):
        t = np.linspace(0, 1, 11)
        d = DensitySpec("tabulated", times=t, values=1 + t)
        assert d.evaluate(0.55) == pytest.approx(1.55, rel=1e-12)
        assert d.horizon == 1.0

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            DensitySpec("tabulated", times=[0.0, 1.0], values=[1.0, -0.5])

    def test_rejects_band_violation(self):
        with pytest.raises(ValueError):
            DensitySpec("constant", alpha0=2.0, v_max=3.0, value=1.0)


@pytest.mark.parametrize("call, key", [
    (lambda: DensitySpec("constant"), "value: required"),
    (lambda: DensitySpec("tabulated", values=[1.0, 2.0]), "times: tabulated density needs"),
    (lambda: DensitySpec("constant", value=math.nan), "value: must be finite"),
    (lambda: SpatialProfile("tabulated"), "values: a tabulated profile needs"),
    (lambda: SpatialProfile("tabulated", values=[1.0, math.nan]), "values: the table must"),
    (lambda: restrict_path(sample_martingale(const_model(1.0), 1e-3, 4, 0), 0),
     "factor must be >= 1"),
    (lambda: derive_seed(1, -1), "stream index must be nonnegative"),
], ids=["constant_without_value", "tabulated_without_times", "nan_value",
        "profile_without_values", "nan_table", "restrict_by_0", "negative_stream"])
def test_rejects_an_input_no_config_reaches(call, key):
    # the harness's key checks reject these inputs first (a missing key, a
    # non-finite number), so only a direct caller meets these guards
    with pytest.raises(ValueError, match=f"^{key}"):
        call()


class TestSampleMartingale:
    def test_deterministic(self):
        m = const_model(1.0)
        p1 = sample_martingale(m, 1e-3, 100, 7)
        p2 = sample_martingale(m, 1e-3, 100, 7)
        assert np.array_equal(p1.values, p2.values)
        assert np.array_equal(p1.qv, p2.qv)

    def test_starts_at_zero(self):
        p = sample_martingale(const_model([1.0, 1.0]), 1e-2, 50, 3)
        assert np.all(p.values[:, 0] == 0.0)

    def test_qv_of_linear_density(self):
        # V(s) = 1 + s on [0, 1]: integral 1.5; left-endpoint defect is dt/2
        t = np.linspace(0, 1, 10001)
        d = DensitySpec("tabulated", times=t, values=1 + t)
        m = NoiseModel(np.array([1.0 + 0j]), [SpatialProfile("constant-one")], [d])
        p = sample_martingale(m, 1e-4, 10000, 1)
        assert p.qv[0, -1] == pytest.approx(1.5, abs=1e-4)

    def test_realized_qv_concentrates(self):
        # V = 1, dt = 1e-4, K = 1e4: realized QV within [0.95, 1.05] for
        # at least 99% of seeds (std of realized QV ~ sqrt(2*dt) ~ 0.014)
        m = const_model(1.0)
        hits = 0
        n_seeds = 300
        for seed in range(n_seeds):
            p = sample_martingale(m, 1e-4, 10000, seed)
            qv = float((p.increments[0] ** 2).sum())
            hits += 0.95 <= qv <= 1.05
        assert hits / n_seeds >= 0.99

    def test_rejects_horizon_overrun(self):
        t = np.linspace(0, 1, 11)
        d = DensitySpec("tabulated", times=t, values=np.ones(11))
        m = NoiseModel(np.array([1.0 + 0j]), [SpatialProfile("constant-one")], [d])
        with pytest.raises(ValueError):
            sample_martingale(m, 0.1, 11, 0)

    def test_rejects_bad_steps(self):
        m = const_model(1.0)
        with pytest.raises(ValueError):
            sample_martingale(m, -1e-3, 10, 0)
        with pytest.raises(ValueError):
            sample_martingale(m, 1e-3, 0, 0)

    def test_component_independence(self):
        m = const_model([1.0, 1.0])
        p = sample_martingale(m, 1e-3, 100000, 5)
        corr = np.corrcoef(p.increments[0], p.increments[1])[0, 1]
        assert abs(corr) <= 0.02

    def test_qv_bounds(self):
        dns = DensitySpec("piecewise-constant", alpha0=1.0, v_max=2.0,
                          times=[0.0, 1.0], values=[1.0, 2.0])
        m = NoiseModel(np.array([1.0 + 0j]), [SpatialProfile("constant-one")], [dns])
        p = sample_martingale(m, 1e-2, 300, 9)
        t_end = p.times[-1]
        assert np.all(np.diff(p.qv[0]) >= 0.0)
        assert p.qv[0, -1] <= 2.0 * t_end + 1e-12
        assert p.qv[0, -1] >= 1.0 * t_end - 1e-12

    def test_realized_qv_error_scales_like_sqrt_dt(self):
        # distributional check: std of (realized QV - integral V) halves when
        # dt shrinks by 4
        m = const_model(1.0)
        errs = {}
        for dt, steps in ((4e-3, 250), (1e-3, 1000)):
            devs = [float((sample_martingale(m, dt, steps, s).increments[0] ** 2).sum()) - 1.0
                    for s in range(300)]
            errs[dt] = np.std(devs)
        ratio = errs[4e-3] / errs[1e-3]
        assert 1.5 <= ratio <= 2.5


class TestRestrictPath:
    def test_increments_sum(self):
        m = const_model([1.0, 1.0])
        p = sample_martingale(m, 1e-3, 100, 3)
        c = restrict_path(p, 4)
        assert c.n_steps == 25
        assert np.allclose(c.values, p.values[:, ::4], atol=0)
        assert np.allclose(c.increments.sum(axis=1), p.increments.sum(axis=1),
                           rtol=1e-12)

    def test_rejects_nondivisible(self):
        p = sample_martingale(const_model(1.0), 1e-3, 100, 3)
        with pytest.raises(ValueError):
            restrict_path(p, 3)


class TestNoiseField:
    """M(t_k, xi) = sum_j mu_j e_j(xi) M_j(t_k) as the integrator assembles it."""

    @staticmethod
    def block(model, path, grid, saves=frozenset()):
        params = SimParams(lam=0, alpha=3.0, dt=path.dt, t_final=path.dt * path.n_steps,
                           scheme="direct")
        return _Block(grid, model, params, path, saves)

    def test_zero_values_give_zero_field(self):
        g = make_grid(1, 16, 2.0)
        prof = SpatialProfile("gaussian-bump", width=1.0)
        m = NoiseModel(np.array([1.0 + 0j]), [prof], [DensitySpec("constant", value=1.0)])
        p = sample_martingale(m, 1e-3, 10, 0)
        out = self.block(m, p, g).m_field_values(0)  # M(0) = 0
        assert np.all(out == 0.0)

    def test_constant_profile_substitution(self):
        # a constant-one component next to a bump with mu = 0: the field is
        # the constant component's mu M_j alone
        g = make_grid(1, 16, 2.0)
        m = NoiseModel(np.array([2.0 + 1.0j, 0.0]),
                       [SpatialProfile("constant-one"),
                        SpatialProfile("gaussian-bump", width=1.0)],
                       [DensitySpec("constant", value=1.0)] * 2)
        p = sample_martingale(m, 1e-3, 10, 0)
        p.values[0, 5] = 0.5  # pin the component value
        out = self.block(m, p, g, saves={5}).m_field_values(5)
        assert np.allclose(out, 1.0 + 0.5j, atol=1e-15)

    def test_grid_mismatch(self):
        g = make_grid(1, 16, 2.0)
        prof = SpatialProfile("tabulated", values=np.ones(8))
        m = NoiseModel(np.array([1.0 + 0j]), [prof], [DensitySpec("constant", value=1.0)])
        p = sample_martingale(m, 1e-3, 10, 0)
        with pytest.raises(ValueError):
            self.block(m, p, g)


def lln_ratio(m, p, k):
    """Re M(t_k) / t_k, the fluctuation ratio a decay fit reports at t_k = T."""
    return p.real_part_series(m.mu)[k] / p.times[k]


class TestLlnRatio:
    def test_zero_variance_density_gives_zero(self):
        d = DensitySpec("constant", value=0.0)
        m = NoiseModel(np.array([1.0 + 0j]), [SpatialProfile("constant-one")], [d])
        p = sample_martingale(m, 1e-2, 100, 0)
        assert lln_ratio(m, p, 100) == 0.0

    def test_ratio_concentrates_at_large_time(self):
        # V = 1, mu = 1, T = 100: ratio ~ N(0, 1/T), |ratio| <= 0.3 is 3 sigma
        m = const_model(1.0)
        hits = 0
        n_seeds = 300
        for seed in range(n_seeds):
            p = sample_martingale(m, 1e-2, 10000, seed)
            hits += abs(lln_ratio(m, p, 10000)) <= 0.3
        assert hits / n_seeds >= 0.99

    def test_std_halves_from_t_to_4t(self):
        m = const_model(1.0)
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
        m = const_model(1.0)
        rep = validate_assumptions(m, g)
        assert rep.h4 and not rep.h1 and rep.h3
        assert rep.h4 is True and rep.h1 is False

    def test_purely_imaginary_coefficient_fails_h4(self):
        g = make_grid(1, 64, 8.0)
        m = NoiseModel(np.array([1j]), [SpatialProfile("constant-one")],
                       [DensitySpec("constant", value=1.0)])
        rep = validate_assumptions(m, g)
        assert not rep.h4
        assert any("Re mu = 0" in w for w in rep.witnesses.values())

    def test_gaussian_profile_passes_h1_proxy(self):
        g = make_grid(1, 128, 8.0)
        prof = SpatialProfile("gaussian-bump", width=np.sqrt(0.5))  # exp(-|xi|^2)
        m = NoiseModel(np.array([1.0 + 0j]), [prof], [DensitySpec("constant", value=1.0)])
        rep = validate_assumptions(m, g)
        assert rep.h1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("amplitude", [1e-300, 1.0, 1e200, 1e306])
    @pytest.mark.parametrize("dimension, points", [(2, 4), (1, 64), (2, 32), (3, 8)])
    def test_h1_independent_of_the_profile_scale(self, dimension, points, amplitude):
        # h1 is homogeneous of degree one in e, so a bump passes at every
        # amplitude: at 1e200 and 1e306 |grad e|^2 overflowed and h1 failed
        prof = SpatialProfile("gaussian-bump", width=2.0, amplitude=amplitude)
        m = NoiseModel(np.array([1.0 + 0j]), [prof], [DensitySpec("constant", value=1.0)])
        assert validate_assumptions(m, make_grid(dimension, points, 8.0)).h1

    def test_h1_passes_on_one_populated_shell_bin(self):
        # on 4 points the outer shell holds the one radius 8: with fewer
        # than two populated bins there is no decrease to check
        prof = SpatialProfile("gaussian-bump", width=2.0)
        m = NoiseModel(np.array([1.0 + 0j]), [prof], [DensitySpec("constant", value=1.0)])
        assert validate_assumptions(m, make_grid(1, 4, 8.0)).h1

    def test_zero_alpha0_fails_h4(self):
        m = NoiseModel(np.array([1.0 + 0j]), [SpatialProfile("constant-one")],
                       [DensitySpec("constant", alpha0=0.0, value=1.0)])
        rep = validate_assumptions(m, make_grid(1, 64, 4.0))
        assert not rep.h4


class TestCsvExport:
    def test_header_and_precision(self, tmp_path):
        m = const_model([1.0, 1.0])
        p = sample_martingale(m, 1e-3, 5, 1)
        # the columns of path.csv
        save_series_csv(tmp_path / "path.csv", {"t": p.times, "M_1": p.values[0],
                                                "M_2": p.values[1], "Q_1": p.qv[0],
                                                "Q_2": p.qv[1]})
        lines = (tmp_path / "path.csv").read_bytes().decode().split("\n")
        assert lines[0] == "t,M_1,M_2,Q_1,Q_2"
        assert len(lines) == 8  # header + 6 rows + trailing newline
        # values round-trip at 17 significant digits
        row = lines[2].split(",")
        assert float(row[1]) == p.values[0, 1]
