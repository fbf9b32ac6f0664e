"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The two Monte Carlo ensembles are computed once in session fixtures and
shared by the criteria that consume them.  All runs are deterministic in the
frozen master seeds below.
"""

import json
import os
import time

import numpy as np
import pytest

from reference import const_model
from snls_lab.diagnostics import mass_identity_residual, omega
from snls_lab.errors import AssumptionVeto
from snls_lab.harness import RunConfig, run, run_ensemble
from snls_lab.integrator import SimParams, _Block, simulate
from snls_lab.mild_picard import PicardConfig, picard_iterate
from snls_lab.noise_process import restrict_path, sample_martingale
from snls_lab.spectral_grid import gaussian_field, make_grid

GRID = make_grid(1, 256, 16.0)
X_GAUSS = gaussian_field(GRID, width=1.0)
THREADS = min(2, os.cpu_count() or 1)

SEED_DECAY_ENSEMBLE = 2025   # criterion 2/3
SEED_BROWNIAN_ENSEMBLE = 7   # criterion 8
SEED_RESIDUAL_PATH = 4       # criterion 4 refinement quotient


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'} - {detail}")


def decay_ensemble_config() -> dict:
    # lam = 1, alpha = 3, mu = 1 + 0.5i, V(s) = 1.5 + 0.5 sin s (alpha0 = 1,
    # so omega = 2); 200 paths, T = 50, dt = 2e-3.  512 points keep the
    # early nonlinear transient below the spectral-tail flag.
    t = np.arange(0, 50.0 + 2e-3, 2e-3)
    return {
        "schema_version": 1,
        "kind": "ensemble",
        "seed": SEED_DECAY_ENSEMBLE,
        "grid": {"dimension": 1, "points": 512, "half_length": 16.0},
        "noise": {
            "coefficients": [[1.0, 0.5]],
            "profiles": [{"kind": "constant-one"}],
            "densities": [{
                "kind": "tabulated",
                "times": t.tolist(),
                "values": (1.5 + 0.5 * np.sin(t)).tolist(),
                "alpha0": 1.0,
                "v_max": 2.0,
            }],
        },
        "sim": {"lambda": 1, "alpha": 3.0, "dt": 2e-3, "t_final": 50.0,
                "scheme": "rescaled", "splitting": "strang"},
        "initial": {"kind": "gaussian", "width": 1.0},
        "ensemble": {"size": 200, "lyapunov_tolerance": 0.5},
    }


@pytest.fixture(scope="session")
def decay_ensemble():
    t0 = time.perf_counter()
    rep = run_ensemble(RunConfig.from_dict(decay_ensemble_config()), threads=THREADS)
    return rep, time.perf_counter() - t0


@pytest.fixture(scope="session")
def brownian_ensemble():
    cfg = decay_ensemble_config()
    cfg["seed"] = SEED_BROWNIAN_ENSEMBLE
    cfg["noise"]["coefficients"] = [[1.0, 0.0], [0.5, 0.0]]
    cfg["noise"]["profiles"] = [{"kind": "constant-one"}] * 2
    cfg["noise"]["densities"] = [{"kind": "constant", "value": 1.0,
                                  "alpha0": 1.0, "v_max": 1.0}] * 2
    return run_ensemble(RunConfig.from_dict(cfg), threads=THREADS)


def test_criterion_01_exact_linear_decay():
    model = const_model(1.0, alpha0=1.0)
    params = SimParams(lam=0, alpha=3.0, dt=1e-3, t_final=10.0, scheme="rescaled")
    t0 = time.perf_counter()
    rec = simulate(GRID, model, params, X_GAUSS, seed=1)
    wall = time.perf_counter() - t0
    ratio = rec.mass_y[-1] / rec.mass_y[0]
    rel_err = abs(ratio / np.exp(-20.0) - 1.0)
    ok = rel_err <= 1e-8 and wall < 5.0
    report(1, ok, f"mass ratio rel err {rel_err:.2e} (tol 1e-8), wall {wall:.2f}s < 5s")
    assert rel_err <= 1e-8
    assert wall < 5.0


def test_criterion_02_pathwise_decay_bound(decay_ensemble):
    rep, wall = decay_ensemble
    assert rep.omega == pytest.approx(2.0)
    assert {p["status"] for p in rep.per_path} == {"ok"}
    lyaps = np.array([p["lyapunov"] for p in rep.per_path])
    assert lyaps.size == 200
    median = float(np.median(lyaps))
    q99 = float(np.quantile(lyaps, 0.99))
    ok = median <= -2.0 + 0.05 and q99 <= -2.0 + 0.5 and wall < 300.0
    report(2, ok, f"median {median:.3f} <= -1.95, q99 {q99:.3f} <= -1.5, "
                  f"wall {wall:.0f}s < 300s")
    assert median <= -2.0 + 0.05
    assert q99 <= -2.0 + 0.5
    assert wall < 300.0
    # reference decay config: essentially every path beats -omega + 0.5
    assert rep.fraction_passing >= 0.99


def test_criterion_03_monotone_gronwall_envelope(decay_ensemble):
    rep, _ = decay_ensemble
    violations = sum(p["gronwall_violations"] for p in rep.per_path)
    monotone = all(p["e0_monotone"] for p in rep.per_path)
    ok = violations == 0 and monotone
    report(3, ok, f"envelope violations {violations} (zero allowed), "
                  f"E0 nonincreasing on all 200 paths: {monotone}")
    assert violations == 0
    assert monotone


def test_criterion_04_mass_identity_residual():
    model = const_model(1.0)
    fine = sample_martingale(model, 1e-3, 1000, SEED_RESIDUAL_PATH)
    maxima = {}
    for dt, factor in ((1e-3, 1), (2e-3, 2)):
        p = restrict_path(fine, factor)
        params = SimParams(lam=1, alpha=3.0, dt=dt, t_final=1.0, scheme="direct")
        rec = simulate(GRID, model, params, X_GAUSS, seed=SEED_RESIDUAL_PATH, path=p)
        maxima[dt] = mass_identity_residual(rec).max_abs
    quotient = maxima[2e-3] / maxima[1e-3]

    model_i = const_model(1j)
    params = SimParams(lam=1, alpha=3.0, dt=1e-3, t_final=1.0, scheme="direct")
    rec_i = simulate(GRID, model_i, params, X_GAUSS, seed=2)
    max_r_imag = mass_identity_residual(rec_i).max_abs

    ok = 1.5 <= quotient <= 2.5 and max_r_imag <= 1e-10
    report(4, ok, f"refinement quotient {quotient:.2f} in [1.5, 2.5]; "
                  f"purely imaginary max|R| {max_r_imag:.2e} <= 1e-10")
    assert 1.5 <= quotient <= 2.5
    assert max_r_imag <= 1e-10


def test_criterion_05_rescaling_equivalence():
    model = const_model(1.0)
    fine = sample_martingale(model, 1e-3, 1000, 123)
    dts = [4e-3, 2e-3, 1e-3]
    errs = []
    bridge_worst = 0.0
    for dt in dts:
        p = restrict_path(fine, int(round(dt / 1e-3)))
        recs = {}
        for scheme in ("direct", "rescaled"):
            params = SimParams(lam=1, alpha=3.0, dt=dt, t_final=1.0, scheme=scheme)
            recs[scheme] = simulate(GRID, model, params, X_GAUSS, seed=123, path=p)
            r = recs[scheme]
            rel = np.abs(r.mass_x - np.exp(2.0 * r.re_m) * r.mass_y) / r.mass_x
            bridge_worst = max(bridge_worst, float(rel.max()))
        d = recs["direct"].final_x.values - recs["rescaled"].final_x.values
        errs.append(np.sqrt(GRID.cell_volume * np.vdot(d, d).real))
    order = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    ok = order >= 0.9 and bridge_worst <= 1e-12
    report(5, ok, f"scheme-difference order {order:.2f} >= 0.9; "
                  f"bridge identity worst rel {bridge_worst:.2e} <= 1e-12")
    assert order >= 0.9
    assert bridge_worst <= 1e-12


def test_criterion_06_picard_contraction():
    model = const_model(1.0)
    x = gaussian_field(GRID, width=1.0, l2_norm=1.0)
    path = sample_martingale(model, 1e-4, 500, 0)
    cfg = PicardConfig(horizon=0.05, nodes=64, max_iterations=20, tolerance=1e-8)
    rep = picard_iterate(x, model, path, cfg, 1, 3.0)
    max_ratio = max(rep.ratios)
    ok = rep.converged and rep.iterations <= 20 and max_ratio <= 0.67

    halving_ok = True
    for seed in range(10):
        p = sample_martingale(model, 1e-4, 500, seed)
        r_full = picard_iterate(x, model, p, PicardConfig(horizon=0.05, nodes=64),
                                1, 3.0)
        r_half = picard_iterate(x, model, p, PicardConfig(horizon=0.025, nodes=64),
                                1, 3.0)
        if max(r_half.ratios) > max(r_full.ratios) + 1e-12:
            halving_ok = False
    ok = ok and halving_ok
    report(6, ok, f"converged in {rep.iterations} <= 20 iterations, max ratio "
                  f"{max_ratio:.3f} <= 0.67; horizon halving monotone over 10 seeds")
    assert rep.converged and rep.iterations <= 20
    assert max_ratio <= 0.67
    assert halving_ok


def test_criterion_07_conservation_degeneracy():
    model = const_model(1j)
    drifts = {}
    for scheme in ("rescaled", "direct"):
        params = SimParams(lam=1, alpha=3.0, dt=1e-3, t_final=10.0, scheme=scheme)
        rec = simulate(GRID, model, params, X_GAUSS, seed=3)
        drifts[scheme] = max(
            float(np.abs(rec.mass_y / rec.mass_y[0] - 1.0).max()),
            float(np.abs(rec.mass_x / rec.mass_x[0] - 1.0).max()),
        )
    worst = max(drifts.values())
    with pytest.raises(AssumptionVeto):
        omega(model)
    ok = worst <= 1e-10
    report(7, ok, f"conservation drift {worst:.2e} <= 1e-10 over T=10 (both "
                  f"schemes); omega() rejects the model")
    assert worst <= 1e-10


def test_criterion_08_brownian_special_case(brownian_ensemble):
    rep = brownian_ensemble
    assert rep.omega == pytest.approx(2.5)
    assert {p["status"] for p in rep.per_path} == {"ok"}
    lyaps = np.array([p["lyapunov"] for p in rep.per_path])
    median = float(np.median(lyaps))
    ok = median <= -2.45
    report(8, ok, f"omega 2.5; median Lyapunov {median:.3f} <= -2.45")
    assert median <= -2.45


def test_criterion_09_noise_flow_martingale_property():
    # the mass ratio |mid|^2 of each direct-scheme noise step, the factor
    # the march multiplies a homogeneous row by
    g = make_grid(1, 8, np.pi)
    model = const_model(1.0)
    params = SimParams(lam=0, alpha=3.0, dt=1e-2, t_final=1000.0, scheme="direct")
    path = sample_martingale(model, 1e-2, 100000, 77)
    ratios = np.abs(_Block(g, model, params, [path]).mid_scalar[0]) ** 2
    assert ratios.size == 100000
    mean = float(ratios.mean())
    ok = 0.99 <= mean <= 1.01
    report(9, ok, f"sample-mean mass ratio {mean:.5f} in [0.99, 1.01] over 1e5 steps")
    assert 0.99 <= mean <= 1.01


@pytest.mark.filterwarnings("ignore::snls_lab.spectral_grid.SpectralTailWarning")
def test_criterion_10_reproducibility(tmp_path):
    # byte-identical artifacts across reruns and across worker counts 1 and 8,
    # exercised on a simulate run, a picard run, and a reduced ensemble.
    # One mini-ensemble path catches an early noise excursion large enough to
    # trip the resolution flag; reproducibility, the thing under test here,
    # is unaffected.
    sim_cfg = {
        "schema_version": 1, "kind": "simulate", "seed": 1,
        "grid": {"dimension": 1, "points": 256, "half_length": 16.0},
        "noise": {"coefficients": [1.0], "profiles": [{"kind": "constant-one"}],
                  "densities": [{"kind": "constant", "value": 1.0,
                                 "alpha0": 1.0, "v_max": 1.0}]},
        "sim": {"lambda": 0, "alpha": 3.0, "dt": 1e-3, "t_final": 10.0,
                "scheme": "rescaled", "splitting": "strang"},
        "initial": {"kind": "gaussian", "width": 1.0},
        "diagnostics": {"decay_fit": True, "residuals": True},
    }
    picard_cfg = {
        "schema_version": 1, "kind": "picard", "seed": 0,
        "grid": {"dimension": 1, "points": 256, "half_length": 16.0},
        "noise": sim_cfg["noise"],
        "initial": {"kind": "gaussian", "width": 1.0, "l2_norm": 1.0},
        "picard": {"horizon": 0.05, "nodes": 64, "lambda": 1, "alpha": 3.0,
                   "path_dt": 1e-4},
    }
    ens_cfg = decay_ensemble_config()
    ens_cfg["sim"]["t_final"] = 2.0
    ens_cfg["noise"]["densities"][0]["times"] = \
        ens_cfg["noise"]["densities"][0]["times"][:1001]
    ens_cfg["noise"]["densities"][0]["values"] = \
        ens_cfg["noise"]["densities"][0]["values"][:1001]
    ens_cfg["ensemble"]["size"] = 16

    checked = []
    for name, cfg, files in (
        ("simulate", sim_cfg, ["series.csv", "path.csv", "decay_report.json",
                               "mass_residual.csv", "energy_residual.csv",
                               "config_echo.json"]),
        ("picard", picard_cfg, ["picard_report.json", "config_echo.json"]),
        ("ensemble", ens_cfg, ["ensemble_report.json", "config_echo.json"]),
    ):
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        outputs = []
        for tag, threads in (("a", 1), ("b", 1), ("c", 8)):
            out = tmp_path / f"{name}_{tag}"
            code = run(cfg_path, out_dir=str(out), threads=threads)
            assert code == 0
            outputs.append(out)
        for fname in files:
            blobs = [(o / fname).read_bytes() for o in outputs]
            assert blobs[0] == blobs[1] == blobs[2], f"{name}/{fname} differs"
            checked.append(f"{name}/{fname}")
    report(10, True, f"{len(checked)} artifacts byte-identical across reruns "
                     f"and worker counts 1 and 8")
