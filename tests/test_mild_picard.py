"""Duhamel quadrature and the fixed-point iteration."""

import os
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from reference import (
    block_map_apply,
    block_x_norm,
    const_model,
    duhamel_apply,
    free_propagator_apply,
    mixed_norm,
    norm_Lp,
)
from snls_lab import mild_picard
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
    GridSpec,
    constant_field,
    gaussian_field,
    make_grid,
    norm_L2,
)

GRID = make_grid(1, 256, 16.0)


@pytest.fixture
def pipelined(monkeypatch):
    """Every map runs its heads on the helper thread, whatever the grid size
    and the core count."""
    monkeypatch.setattr(mild_picard, "PIPELINE_MIN_SIZE", 0)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


def bounded(fn, timeout=60.0):
    """fn() on a thread joined with a timeout, so a run that hangs fails
    instead of stalling the suite; returns fn's result or raises its
    exception."""
    out = {}

    def target():
        try:
            out["value"] = fn()
        except BaseException as exc:  # re-raised on the test's thread
            out["error"] = exc

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    runner.join(timeout)
    assert not runner.is_alive(), f"no result after {timeout} s"
    if "error" in out:
        raise out["error"]
    return out["value"]


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
        m = const_model(0.0)
        x = gaussian_field(GRID, width=1.0, l2_norm=1.0)
        path = sample_martingale(m, 1e-3, 100, 0)
        rep = picard_iterate(x, m, path, PicardConfig(horizon=0.05, nodes=16), 0, 3.0)
        assert rep.converged
        assert rep.distances[0] <= 1e-12
        assert all(r == 0.0 for r in rep.ratios)

    def test_contraction_at_short_horizon(self):
        m = const_model(1.0)
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
        m = const_model(1.0)
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
        m = const_model(1.0)
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
        m = const_model(1.0)
        x = gaussian_field(GRID, width=1.0, l2_norm=1.0)
        path = sample_martingale(m, 1e-4, 500, 1)
        tau, nodes = 0.04, 32
        kern = _MapKernel(x, m, path, tau, nodes, 0, 3.0)
        free = [free_propagator_apply(x, t) for t in kern.times]
        mapped = np.stack([f.values for f in free])
        kern.apply(mapped)  # in place
        forcing = [ComplexField(1.0 * f.values, GRID) for f in free]  # coef = 1
        duh = duhamel_apply(forcing, GRID, tau, nodes)
        expect = free[-1].values - duh.values
        assert np.abs(mapped[-1] - expect).max() < 1e-12

    def test_fixed_point_residual_within_twice_tolerance(self):
        m = const_model(1.0)
        x = gaussian_field(GRID, width=1.0, l2_norm=1.0)
        path = sample_martingale(m, 1e-4, 500, 5)
        cfg = PicardConfig(horizon=0.05, nodes=64, tolerance=1e-8)
        rep = picard_iterate(x, m, path, cfg, 1, 3.0)
        assert rep.converged
        kern = _MapKernel(x, m, path, cfg.horizon, cfg.nodes, 1, 3.0)
        mapped = rep.iterate.copy()
        sq, lp = kern.apply(mapped)  # in place
        diff = [ComplexField(row, GRID) for row in mapped - rep.iterate]
        sup = max(norm_L2(f) for f in diff)
        resid = sup + mixed_norm(kern.times, diff, rep.q, 3.0)
        assert resid <= 2.0 * cfg.tolerance
        assert kern.x_norm(sq, lp) == pytest.approx(resid, rel=1e-12)

    def test_halving_horizon_never_increases_max_ratio(self):
        m = const_model(1.0)
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
        m = const_model(1.0)
        x = gaussian_field(GRID, width=1.0, l2_norm=40.0)
        path = sample_martingale(m, 1e-3, 2000, 2)
        cfg = PicardConfig(horizon=2.0, nodes=64, max_iterations=12)
        rep = picard_iterate(x, m, path, cfg, 1, 3.0)
        assert rep.no_contraction
        assert not rep.converged

    def test_requires_homogeneous_profiles(self):
        prof = SpatialProfile("gaussian-bump", width=1.0)
        m = NoiseModel(np.array([1.0 + 0j]), [prof], [DensitySpec("constant", value=1.0)])
        x = gaussian_field(GRID, width=1.0)
        path = sample_martingale(m, 1e-3, 100, 0)
        with pytest.raises(AssumptionVeto):
            picard_iterate(x, m, path, PicardConfig(horizon=0.05), 1, 3.0)

    def test_rejects_zero_state(self):
        m = const_model(1.0)
        x = constant_field(GRID, 0.0)
        path = sample_martingale(m, 1e-3, 100, 0)
        with pytest.raises(ValueError):
            picard_iterate(x, m, path, PicardConfig(horizon=0.05), 1, 3.0)

    def test_report_json_surface(self):
        m = const_model(1.0)
        x = gaussian_field(GRID, width=1.0, l2_norm=1.0)
        path = sample_martingale(m, 1e-4, 500, 0)
        rep = picard_iterate(x, m, path, PicardConfig(horizon=0.05, nodes=32), 1, 3.0)
        d = rep.to_json_dict()
        assert set(d) >= {"ratios", "distances", "converged", "gamma_tau", "q"}


# (dimension, lam, alpha) across the band of each dimension: alpha = 1.5
# takes numpy's square-root power, 2.5 a power with no fast path.
NODE_LOOP_CASES = [(d, lam, alpha) for d in (1, 2) for lam in (0, 1, -1)
                   for alpha in (1.5, 2.0, 2.5, 3.0) if alpha < 1.0 + 4.0 / d]


def check_node_loop(grid, lam, alpha, nodes):
    """Iterates and distances of three maps equal the block form's bit for
    bit."""
    m = const_model(1.0 + 0.5j)
    x = gaussian_field(grid, width=1.0, l2_norm=2.0)
    path = sample_martingale(m, 1e-3, 200, 4)
    kern = _MapKernel(x, m, path, 0.1, nodes, lam, alpha)
    fwd = grid.propagator(kern.times[:, None])
    y = kern.free_trajectory()
    assert np.array_equal(y, np.array([grid.inverse(r) for r in fwd * kern.xh]))
    for _ in range(3):
        expect = block_map_apply(kern, y)
        y_prev = y.copy()
        sq, lp = kern.apply(y)  # y becomes F(y)
        assert np.array_equal(y, expect)
        assert kern.x_norm(sq, lp) == block_x_norm(kern, expect - y_prev)
    return kern


@pytest.mark.parametrize("dimension, lam, alpha", NODE_LOOP_CASES)
def test_node_loop_equals_block_form(monkeypatch, dimension, lam, alpha):
    # The map runs node by node; the block form makes each stage one pass
    # over all nodes.  Iterates and distances agree bit for bit.  The blocks
    # are 384 KiB, a size at which the block form's operand order is also
    # the order numpy ran its expressions in.  Off the pipeline, the caller
    # runs every head and no thread starts.
    def refuse(self):
        raise AssertionError("a map off the pipeline started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    grid = make_grid(dimension, 1024 if dimension == 1 else 32, 8.0)
    assert not check_node_loop(grid, lam, alpha, 24).pipelined


@pytest.mark.parametrize("nodes", [8, 9])
@pytest.mark.parametrize("dimension, lam, alpha", NODE_LOOP_CASES)
def test_pipelined_node_loop_equals_block_form(pipelined, dimension, lam, alpha, nodes):
    # The same bits when the helper thread runs the heads: 8 and 9 nodes end
    # the rings of two multipliers and three spectra at different slots.
    # The blocks are 512 KiB and more, so the block form's operand order
    # still holds.
    grid = make_grid(dimension, 8192 if dimension == 1 else 64, 8.0)
    assert check_node_loop(grid, lam, alpha, nodes).pipelined


@pytest.mark.parametrize("slow", ["_head", "_tail"])
def test_pipelined_node_loop_with_a_lagging_stage(pipelined, monkeypatch, slow):
    # A stage that sleeps before each node lets the other run ahead: a slow
    # tail lets each head write its ring slots before the tail of the node
    # before reads its own, and a slow head makes each tail wait for the
    # head of its node.  A slot shared between the two shows in the bits.
    original = getattr(_MapKernel, slow)

    def lagging(self, *args):
        time.sleep(1e-3)
        return original(self, *args)

    monkeypatch.setattr(_MapKernel, slow, lagging)
    check_node_loop(make_grid(1, 8192, 8.0), 1, 2.5, 9)


class Boom(Exception):
    pass


def spy(monkeypatch, stage, fail_at=None):
    """Record the thread of every call of GridSpec.<stage>; the call numbered
    fail_at (from 1) raises a Boom instead."""
    original = getattr(GridSpec, stage)
    threads = []

    def recorded(self, a, out=None):
        threads.append(threading.current_thread())
        if len(threads) == fail_at:
            raise Boom(stage, fail_at)
        return original(self, a, out=out)

    monkeypatch.setattr(GridSpec, stage, recorded)
    return threads


def run_on_thread(nodes=16, l2_norm=1.0):
    """picard_iterate on GRID through :func:`bounded`; returns the report and
    the thread that called it."""
    m = const_model(1.0)
    x = gaussian_field(GRID, width=1.0, l2_norm=l2_norm)
    path = sample_martingale(m, 1e-4, 500, 0)
    cfg = PicardConfig(horizon=0.05, nodes=nodes)
    caller = []

    def run():
        caller.append(threading.current_thread())
        return picard_iterate(x, m, path, cfg, 1, 3.0)

    return bounded(run), caller


def test_helper_runs_the_heads_and_ends_with_the_call(pipelined, monkeypatch):
    threads = spy(monkeypatch, "forward")
    before = threading.active_count()
    rep, (caller,) = run_on_thread()
    assert rep.converged
    assert threading.active_count() == before
    # the kernel's x spectrum and each map's first head run on the caller,
    # every other head on one helper per map, joined before the map returns
    helpers = [t for t in threads if t is not caller]
    assert len(helpers) == rep.iterations * 15
    assert not any(t.is_alive() for t in helpers)
    assert len(set(helpers)) == rep.iterations


# Forward call 4 is the head of node 2, on the helper; inverse call 19 is the
# tail of node 2 (16 inverses build the free trajectory), on the caller,
# while the helper runs the head of node 3.
@pytest.mark.parametrize("stage, fail_at, on_helper", [("forward", 4, True),
                                                       ("inverse", 19, False)])
def test_stage_error_propagates_and_ends_the_helper(pipelined, monkeypatch, stage,
                                                    fail_at, on_helper):
    threads = spy(monkeypatch, stage, fail_at)
    before = threading.active_count()
    with pytest.raises(Boom) as info:
        run_on_thread()
    assert info.value.args == (stage, fail_at)
    assert threading.active_count() == before
    caller = threads[0]  # x's spectrum, or the free trajectory's first node
    assert (threads[fail_at - 1] is not caller) == on_helper


def test_overflowing_head_warns_nothing(pipelined):
    # |y|^2 y overflows in every head of the first map: the helper computes
    # under the caller's error state, so the run reports no_contraction
    # and no RuntimeWarning escapes from either thread
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep, _ = run_on_thread(l2_norm=1e120)
    assert rep.no_contraction and not rep.converged
    assert rep.distances == [float("inf")]


@pytest.mark.parametrize("dimension, n", [(1, 1024), (2, 128), (3, 32)])
def test_gathered_multipliers_equal_propagator(dimension, n):
    # Each node's U(t_i, 0) row, gathered from the distinct |k|^2 levels,
    # has the bits of the propagator evaluated on the whole grid.
    grid = make_grid(dimension, n, 8.0)
    m = const_model(1.0)
    x = gaussian_field(grid, width=1.0)
    path = sample_martingale(m, 1e-3, 500, 0)
    kern = _MapKernel(x, m, path, 0.37, 9, 1, 1.5)
    full = grid.propagator(kern.times[:, None])
    row = np.empty(grid.size, dtype=np.complex128)
    for i in range(kern.nodes):
        kern.multiplier(i, row)
        assert np.array_equal(row.view(np.uint64), full[i].view(np.uint64))


@pytest.mark.parametrize("dimension, n, bound", [(1, 4096, 1.8), (2, 64, 1.4),
                                                 (2, 128, 1.4)])
def test_picard_working_set(dimension, n, bound):
    # Peak traced memory of one picard_iterate, in units of nodes x n^d
    # complex values: the iterate, which the map overwrites node by node,
    # the U(t_i, 0) table over the distinct |k|^2 levels (half a block in
    # 1-D, an eighth on 64^2 and 128^2) and the map's (n^d,) rows.  It reads
    # 1.69 in 1-D, 1.32 on 64^2 and 1.30 on 128^2, where the helper thread
    # runs the heads.  With the tail's two real rows held apart from its
    # complex row f it read 1.71, 1.33 and 1.31.  With one multiplier row and
    # one scratch set shared by both stages it read 1.65 and 1.28.  With a
    # stored multiplier block and a fresh output block per call it read 3.13
    # in 2-D; the block form, which held every stage of the map as a full
    # block, read 9.55.
    grid = make_grid(dimension, n, 8.0)
    m = const_model(1.0 + 0.5j)
    x = gaussian_field(grid, width=1.0, l2_norm=1.0)
    path = sample_martingale(m, 1e-4, 500, 0)
    cfg = PicardConfig(horizon=0.05, nodes=64, max_iterations=3)

    def run():
        picard_iterate(x, m, path, cfg, 1, 2.0)

    run()  # warm-up: first-call allocations are not the iteration's
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (16 * cfg.nodes * grid.size) < bound


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
