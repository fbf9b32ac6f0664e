"""The change of variables y = e^{-M} X and its damping potential, as the
integrator carries them: the final (X, y) pair of a run and the rescaled
scheme's per-step multiplier exp(-gamma dt), as a homogeneous row's mass
identity and hand-over phase carry it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import const_model
from snls_lab.errors import NumericalAbort
from snls_lab.integrator import SimParams, _Block, simulate
from snls_lab.noise_process import (
    DensitySpec,
    NoiseModel,
    SpatialProfile,
    sample_martingale,
)
from snls_lab.spectral_grid import gaussian_field, make_grid, norm_L2

# widths chosen so the periodic wrap of each bump sits below 1e-12 on the
# L = 10 test domain
GRID = make_grid(1, 64, 10.0)
X0 = gaussian_field(GRID, width=1.0)


def bump_model(scale=1.0):
    profs = [SpatialProfile("gaussian-bump", width=1.0, center=(0.3,)),
             SpatialProfile("gaussian-bump", width=1.2, center=(-0.5,))]
    mu = scale * np.array([0.8 - 0.3j, 1.1 + 0.6j])
    dens = [DensitySpec("constant", value=1.0), DensitySpec("constant", value=2.0)]
    return NoiseModel(mu, profs, dens)


def noise_at(model, path, k):
    """M(t_k, xi) = sum_j mu_j e_j(xi) M_j(t_k), assembled profile by profile."""
    m = np.zeros(GRID.size, dtype=complex)
    for mu, prof, values in zip(model.mu, model.profiles, path.values):
        m += mu * prof.sample(GRID) * values[k]
    return m


def direct_run(seed, model=None):
    params = SimParams(lam=1, alpha=3.0, dt=1e-2, t_final=0.1, scheme="direct")
    return simulate(GRID, model or bump_model(), params, X0, seed=seed)


def rescaled_factors(model, dt=1e-2, steps=10, seed=0):
    """exp(-gamma dt) of each step of one rescaled path, as the march's tables
    built from a unit mass carry it: its modulus squared is the ratio of
    consecutive identity masses, its angle the step of the hand-over phase
    (every index a save index)."""
    params = SimParams(lam=1, alpha=3.0, dt=dt, t_final=dt * steps, scheme="rescaled")
    block = _Block(GRID, model, params, sample_martingale(model, dt, steps, seed),
                   set(range(steps + 1)))
    mass = block.mass_y
    turn = np.angle([block.hand[k] for k in range(steps + 1)])
    return np.sqrt(mass[1:] / mass[:-1]), np.diff(turn)


class TestRoundTrip:
    def test_zero_noise_is_identity(self):
        params = SimParams(lam=1, alpha=3.0, dt=1e-2, t_final=0.1, scheme="rescaled")
        rec = simulate(GRID, const_model(0.0), params, X0, seed=3)
        assert np.array_equal(rec.final_x.values, rec.final_y.values)
        assert np.array_equal(rec.mass_x, rec.mass_y)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_round_trip(self, seed):
        # the direct scheme marches X and reports y = e^{-M} X; e^{M} y is X
        rec = direct_run(seed)
        back = rec.final_y.values * np.exp(noise_at(bump_model(), rec.path, -1))
        scale = np.abs(rec.final_x.values).max()
        assert np.abs(back - rec.final_x.values).max() <= 1e-12 * scale

    def test_constant_exponent_mass_ratio(self):
        # |X|^2 integrates to e^{2 Re M} times |y|^2 for constant M
        params = SimParams(lam=1, alpha=3.0, dt=1e-2, t_final=0.1, scheme="rescaled")
        rec = simulate(GRID, const_model(1.0 + 0.5j), params, X0, seed=4)
        re_m = rec.re_m[-1]
        assert norm_L2(rec.final_x) ** 2 == pytest.approx(
            np.exp(2.0 * re_m) * norm_L2(rec.final_y) ** 2, rel=1e-12)

    def test_overflow_guard(self):
        # an exponent past the guard stops the run at the step that meets it
        with pytest.raises(NumericalAbort, match="overflow guard") as err:
            direct_run(0, bump_model(scale=4000.0))
        assert err.value.time_index == 0

    def test_mass_bridge_pointwise_weight(self):
        # ||e^{-M} X||^2 equals the e^{-2 Re M}-weighted integral of |X|^2
        rec = direct_run(8)
        m = noise_at(bump_model(), rec.path, -1)
        weighted = GRID.cell_volume * (np.exp(-2.0 * m.real)
                                       * np.abs(rec.final_x.values) ** 2).sum()
        assert rec.mass_y[-1] == pytest.approx(weighted, rel=1e-12)


class TestPotentialFields:
    """The rescaled scheme's damping multiplier exp(-gamma dt), with
    gamma = (1/2) sum_j (|mu_j|^2 + mu_j^2) V_j, in closed form."""

    def test_purely_imaginary_coefficient_kills_gamma(self):
        modulus, angle = rescaled_factors(const_model(1j))
        assert np.abs(modulus - 1.0).max() <= 1e-15
        assert np.abs(angle).max() <= 1e-15

    def test_unit_coefficient_gamma(self):
        modulus, angle = rescaled_factors(const_model(1.0))
        assert np.allclose(modulus, np.exp(-1e-2), rtol=1e-15, atol=0.0)
        assert np.all(angle == 0.0)

    def test_gamma_real_part_identity(self):
        # Re gamma = sum_j (Re mu_j)^2 V_j and Im gamma = sum_j Re mu_j Im mu_j V_j,
        # with V taken at each step's left endpoint
        mu = np.array([0.8 - 0.3j, 1.1 + 0.6j])
        model = NoiseModel(mu, [SpatialProfile("constant-one")] * 2,
                           [DensitySpec("constant", value=1.0),
                            DensitySpec("tabulated", times=[0.0, 1.0], values=[1.0, 3.0])])
        dt = 1e-2
        modulus, angle = rescaled_factors(model, dt=dt, steps=50, seed=1)
        t = dt * np.arange(50)
        v = np.stack([np.ones(50), 1.0 + 2.0 * t])
        gamma = (mu.real**2 + 1j * mu.real * mu.imag) @ v
        assert np.allclose(-np.log(modulus), gamma.real * dt, rtol=1e-12, atol=0.0)
        assert np.allclose(-angle, gamma.imag * dt, rtol=1e-12, atol=0.0)
