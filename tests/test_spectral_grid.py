"""Grid construction, transforms, operator symbols, and norms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import free_propagator_apply, norm_Lp
from snls_lab.spectral_grid import (
    ComplexField,
    SpectralTailWarning,
    constant_field,
    forward_transform,
    gaussian_field,
    gradient_spectral,
    inverse_transform,
    make_grid,
    norm_L2,
    plane_wave,
    spectral_tail_fraction,
    warn_if_underresolved,
)


def random_field(grid, seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    return ComplexField(vals, grid)


class TestMakeGrid:
    def test_wavenumbers_1d(self):
        g = make_grid(1, 8, np.pi)
        assert np.array_equal(g.axis_wavenumbers, [0, 1, 2, 3, -4, -3, -2, -1])

    def test_cell_volume(self):
        g = make_grid(1, 8, np.pi)
        assert g.cell_volume == pytest.approx(2 * np.pi / 8, rel=1e-15)

    def test_2d_grid(self):
        g = make_grid(2, 4, 1.0)
        assert g.size == 16
        assert np.allclose(g.axis_wavenumbers, [0.0, np.pi, -2 * np.pi, -np.pi])

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            make_grid(1, 12, 1.0)  # not a power of two
        with pytest.raises(ValueError):
            make_grid(1, 2, 1.0)  # too small
        with pytest.raises(ValueError):
            make_grid(1, 8, 0.0)
        with pytest.raises(ValueError):
            make_grid(1, 8, -1.0)
        with pytest.raises(ValueError):
            make_grid(4, 8, 1.0)

    def test_wavenumber_antisymmetry(self):
        g = make_grid(1, 16, 2.0)
        k = g.axis_wavenumbers
        assert k.size == 16
        # every mode except 0 and the Nyquist entry has its negative present
        for m in range(1, 8):
            assert -k[m] in k


class TestLaplacianSymbol:
    def test_plane_wave_eigenvalue(self):
        g = make_grid(1, 8, np.pi)
        sym = -g.k_squared
        assert sym[3] == pytest.approx(-9.0, abs=1e-14)
        assert sym[0] == 0.0
        assert np.all(sym <= 0.0)

    def test_symbol_application_vs_finite_difference(self):
        # independent oracle: centered second difference on a fine grid
        n_fine = 8192
        h = 2 * np.pi / n_fine
        xi = -np.pi + h * np.arange(n_fine)
        f = np.exp(2j * xi)
        fd = (np.roll(f, -1) - 2 * f + np.roll(f, 1)) / h**2
        ratio_fd = fd / f
        assert np.allclose(ratio_fd, -4.0, atol=1e-5)

        g = make_grid(1, 64, np.pi)
        field = plane_wave(g, 2)
        out = inverse_transform(-g.k_squared * forward_transform(field), g)
        assert np.allclose(out.values, -4.0 * field.values, atol=1e-12)


class TestFreePropagator:
    def test_plane_wave_phase(self):
        g = make_grid(1, 32, np.pi)
        pw = plane_wave(g, 1)
        out = free_propagator_apply(pw, 0.5)
        assert np.allclose(out.values, np.exp(0.5j) * pw.values, atol=1e-13)

    def test_zero_dt_is_identity(self):
        g = make_grid(1, 16, 2.0)
        f = random_field(g, 0)
        out = free_propagator_apply(f, 0.0)
        assert np.allclose(out.values, f.values, atol=1e-14)

    def test_unitarity(self):
        g = make_grid(2, 16, 3.0)
        f = random_field(g, 1)
        out = free_propagator_apply(f, 0.37)
        assert norm_L2(out) == pytest.approx(norm_L2(f), rel=1e-12)

    @given(dt1=st.floats(-2, 2), dt2=st.floats(-2, 2))
    @settings(max_examples=20, deadline=None)
    def test_group_property(self, dt1, dt2):
        g = make_grid(1, 32, 4.0)
        f = random_field(g, 7)
        a = free_propagator_apply(free_propagator_apply(f, dt1), dt2)
        b = free_propagator_apply(f, dt1 + dt2)
        assert np.allclose(a.values, b.values, atol=1e-11)


class TestNorms:
    def test_constant_field_l2(self):
        g = make_grid(1, 64, np.pi)
        assert norm_L2(constant_field(g, 1.0)) == pytest.approx(np.sqrt(2 * np.pi),
                                                                rel=1e-14)

    def test_lp_consistency_with_l2(self):
        g = make_grid(1, 32, 2.0)
        f = random_field(g, 3)
        assert norm_Lp(f, 2) == pytest.approx(norm_L2(f), rel=1e-13)

    @given(scale=st.floats(0.1, 10), p=st.sampled_from([1.0, 2.0, 4.0, np.inf]))
    @settings(max_examples=20, deadline=None)
    def test_homogeneity(self, scale, p):
        g = make_grid(1, 16, 1.0)
        f = random_field(g, 5)
        doubled = ComplexField(scale * f.values, g)
        assert norm_Lp(doubled, p) == pytest.approx(scale * norm_Lp(f, p), rel=1e-12)

    def test_rejects_p_below_one(self):
        g = make_grid(1, 16, 1.0)
        with pytest.raises(ValueError):
            norm_Lp(constant_field(g), 0.5)

    def test_zero_iff_zero(self):
        g = make_grid(1, 16, 1.0)
        assert norm_L2(constant_field(g, 0.0)) == 0.0
        assert norm_L2(constant_field(g, 1e-8)) > 0.0


class TestTransformInvariants:
    @given(seed=st.integers(0, 2**31), d=st.sampled_from([1, 2]))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip(self, seed, d):
        g = make_grid(d, 16, 2.0)
        f = random_field(g, seed)
        back = inverse_transform(forward_transform(f), g)
        assert np.allclose(back.values, f.values, rtol=1e-12, atol=1e-12)

    def test_parseval(self):
        g = make_grid(1, 64, 3.0)
        f = random_field(g, 11)
        spectral = forward_transform(f)
        spectral_mass = g.cell_volume / g.size * np.vdot(spectral, spectral).real
        assert norm_L2(f) ** 2 == pytest.approx(spectral_mass, rel=1e-12)

    def test_gradient_of_plane_wave(self):
        g = make_grid(1, 64, np.pi)
        pw = plane_wave(g, 3)
        grad = gradient_spectral(pw.values, g)
        assert np.allclose(grad[0], 3j * pw.values, atol=1e-10)


class TestGridTransforms:
    """GridSpec's transforms and multiplier, bit for bit against the per-field
    ``fftn`` forms and the multiplier expressions they replaced."""

    @pytest.mark.parametrize("d, n", [(1, 64), (2, 16), (3, 8)])
    def test_block_rows_equal_single_fields(self, d, n):
        g = make_grid(d, n, 3.0)
        rng = np.random.default_rng(d)
        block = rng.standard_normal((3, g.size)) + 1j * rng.standard_normal((3, g.size))
        fwd, inv = g.forward(block), g.inverse(block)
        for i, row in enumerate(block):
            expect = np.fft.fftn(row.reshape(g.shape)).ravel()
            for got in (fwd[i], g.forward(row), forward_transform(ComplexField(row, g))):
                assert np.array_equal(got, expect)
            expect = np.fft.ifftn(row.reshape(g.shape)).ravel()
            for got in (inv[i], g.inverse(row), inverse_transform(row, g).values):
                assert np.array_equal(got, expect)
        for transform, want in ((g.forward, fwd), (g.inverse, inv)):
            out = np.empty_like(block)
            transform(block, out=out)
            assert np.array_equal(out, want)

    def test_out_must_be_contiguous(self):
        g = make_grid(2, 8, 3.0)
        block = np.zeros((2, g.size), dtype=complex)
        strided = np.empty((2, 2 * g.size), dtype=complex)[:, ::2]
        for transform in (g.forward, g.inverse):
            with pytest.raises(ValueError, match="^out: must be C-contiguous$"):
                transform(block, out=strided)

    @pytest.mark.parametrize("d, n", [(1, 64), (2, 16), (3, 8)])
    def test_propagator_equals_multiplier_forms(self, d, n):
        g = make_grid(d, n, 3.0)
        ksq, dt = g.k_squared, 2e-3
        times = np.linspace(0.0, 0.4, 16)
        assert np.array_equal(g.propagator(0.5 * dt), np.exp(1j * ksq * (0.5 * dt)))
        assert np.array_equal(g.propagator(times[:, None]),
                              np.exp(1j * np.outer(times, ksq)))

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8)])
    def test_gradient_equals_per_axis_form(self, d, n):
        g = make_grid(d, n, 3.0)
        values = random_field(g, 5).values
        vh = np.fft.fftn(values.reshape(g.shape))
        for axis in range(d):
            shape = [1] * d
            shape[axis] = n
            k = g.axis_wavenumbers.reshape(shape)
            expect = np.fft.ifftn(1j * k * vh).ravel()
            assert np.array_equal(gradient_spectral(values, g)[axis], expect)


class TestFieldValidation:
    def test_rejects_nan(self):
        g = make_grid(1, 8, 1.0)
        vals = np.ones(8, dtype=complex)
        vals[3] = np.nan
        with pytest.raises(ValueError):
            ComplexField(vals, g)

    def test_rejects_wrong_length(self):
        g = make_grid(1, 8, 1.0)
        with pytest.raises(ValueError):
            ComplexField(np.ones(7, dtype=complex), g)


class TestSpectralTail:
    def test_smooth_field_has_tiny_tail(self):
        g = make_grid(1, 256, 16.0)
        f = gaussian_field(g, width=1.0)
        assert spectral_tail_fraction(f) < 1e-10

    def test_warning_fires_for_top_mode(self):
        g = make_grid(1, 64, np.pi)
        f = plane_wave(g, 31)
        with pytest.warns(SpectralTailWarning):
            warn_if_underresolved(f)

    def test_normalized_gaussian(self):
        g = make_grid(1, 128, 8.0)
        f = gaussian_field(g, width=1.0, l2_norm=1.0)
        assert norm_L2(f) == pytest.approx(1.0, rel=1e-13)
