"""Config validation, orchestration, file formats, and reproducibility."""

import contextlib
import copy
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import snls_lab
from snls_lab import harness, integrator, seeding
from snls_lab.diagnostics import MASS_FLOOR, decay_fit, gronwall_check
from snls_lab.errors import (
    EXIT_ASSUMPTION_VETO,
    EXIT_CONFIG_ERROR,
    EXIT_NUMERICAL_ABORT,
    EXIT_OK,
    AssumptionVeto,
    ConfigError,
    NumericalAbort,
)
from snls_lab.harness import (
    RunConfig,
    _ensemble_member,
    build_grid,
    build_initial,
    build_model,
    build_params,
    read_field_dump,
    run,
    run_convergence,
    run_ensemble,
    run_picard,
    run_simulation,
    run_validate,
    write_field_dump,
)
from snls_lab.spectral_grid import ComplexField, SpectralTailWarning, gaussian_field, make_grid


def base_config(**overrides):
    cfg = {
        "schema_version": 1,
        "kind": "simulate",
        "seed": 11,
        "grid": {"dimension": 1, "points": 128, "half_length": 16.0},
        "noise": {
            "coefficients": [1.0],
            "profiles": [{"kind": "constant-one"}],
            "densities": [{"kind": "constant", "value": 1.0,
                           "alpha0": 1.0, "v_max": 1.0}],
        },
        "sim": {"lambda": 1, "alpha": 3.0, "dt": 2e-3, "t_final": 1.0,
                "scheme": "rescaled", "splitting": "strang"},
        "initial": {"kind": "gaussian", "width": 1.0},
        "diagnostics": {"decay_fit": True},
    }
    cfg.update(overrides)
    return cfg


class TestConfigValidation:
    def test_round_trip(self):
        cfg = RunConfig.from_dict(base_config())
        again = RunConfig.from_dict(cfg.to_dict())
        assert cfg == again
        assert cfg.to_dict() == again.to_dict()

    def test_messages_name_keys(self):
        bad = base_config()
        bad["grid"]["points"] = 100
        with pytest.raises(ConfigError, match="grid.points"):
            RunConfig.from_dict(bad)

        bad = base_config()
        bad["sim"]["dt"] = -1.0
        with pytest.raises(ConfigError, match="sim.dt"):
            RunConfig.from_dict(bad)

        bad = base_config()
        bad["noise"]["coefficients"] = []
        with pytest.raises(ConfigError, match="noise.coefficients"):
            RunConfig.from_dict(bad)

    @pytest.mark.parametrize("key, value", [
        ("lambda", True),
        ("save_every", True),
        ("alpha", "abc"),
        ("alpha", [3]),
        ("dt", True),
        ("t_final", True),
    ])
    def test_sim_messages_name_keys(self, tmp_path, capsys, key, value):
        cfg = base_config()
        cfg["sim"][key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert run(path, out_dir=str(tmp_path / "out")) == EXIT_CONFIG_ERROR
        assert f"sim.{key}:" in capsys.readouterr().err

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            RunConfig.from_dict(base_config(kind="benchmark"))

    def test_ensemble_size_required(self):
        cfg = base_config(kind="ensemble", ensemble={})
        cfg["ensemble"] = {"lyapunov_tolerance": 0.5}
        with pytest.raises(ConfigError, match="ensemble.size"):
            RunConfig.from_dict(cfg)

    def test_convergence_ladder_checks(self):
        cfg = base_config(kind="convergence",
                          convergence={"dts": [4e-3, 2e-3, 1.1e-3],
                                       "reference_dt": 1e-4})
        with pytest.raises(ConfigError, match="geometric"):
            RunConfig.from_dict(cfg)

        cfg = base_config(kind="convergence",
                          convergence={"dts": [4e-3, 2e-3, 1e-3],
                                       "reference_dt": 5e-4})
        with pytest.raises(ConfigError, match="reference_dt"):
            RunConfig.from_dict(cfg)


    def test_diagnostics_section_is_normalized(self):
        cfg = base_config(diagnostics={"fit_window": [0, 1], "foo": "bar"})
        echo = RunConfig.from_dict(cfg).to_dict()
        assert json.dumps(echo["diagnostics"]) == '{"fit_window": [0.0, 1.0]}'


README = Path(__file__).resolve().parent.parent / "README.md"
# The README's words for the types of CONFIG_KEYS
TYPE_WORDS = {int: "integer", float: "number", bool: "bool", str: "string", dict: "object"}
PLURALS = {int: "integers", float: "numbers", complex: "numbers or `[re, im]` pairs"}


def type_words(kind) -> str:
    if isinstance(kind, tuple):  # a scalar or a list
        return f"{TYPE_WORDS[kind[0]]} or list of {PLURALS[kind[0]]}"
    if isinstance(kind, list):  # entries of a section are objects
        return "list of " + ("objects" if isinstance(kind[0], str) else PLURALS[kind[0]])
    return TYPE_WORDS[kind]


def default_words(default) -> str:
    if default is harness.REQUIRED:
        return "required"
    return "absent" if default is None else f"`{json.dumps(default)}`"


def table_rows() -> list:
    """(key, type, default) of every CONFIG_KEYS leaf in table order; a leaf
    that several kinds have is listed once, and must agree between them."""
    rows = {}
    for section, spec in harness.CONFIG_KEYS.items():
        for name, leaf in spec.items():
            for leaf_name, (kind, default) in (leaf.items() if isinstance(leaf, dict)
                                               else [(name, leaf)]):
                key = f"{section}.{leaf_name}" if section else leaf_name
                row = (type_words(kind), default_words(default))
                assert rows.setdefault(key, row) == row, key
    return [(key, *row) for key, row in rows.items()]


def readme_rows() -> list:
    """(key, type, default) of each row of the README's "Config keys" table."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Config keys\n", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        if line.startswith("| `"):
            key, kind, default = (c.strip() for c in re.split(r"(?<!\\)\|", line)[1:4])
            rows.append((key.strip("`"), kind, default))
    return rows


def test_readme_lists_the_config_keys():
    """The README's key table lists exactly the keys of CONFIG_KEYS, in its
    order, with their types and defaults; a default may carry a note in
    parentheses."""
    readme, table = readme_rows(), table_rows()
    assert [row[0] for row in readme] == [row[0] for row in table]
    for (key, kind, default), (_, want_kind, want_default) in zip(readme, table):
        assert kind == want_kind, key
        assert default == want_default or (
            default.startswith(f"{want_default} (") and default.endswith(")")), key


def test_readme_example_config_builds():
    """The README's one JSON example is a valid config: a simulate run of
    25,000 steps."""
    example, = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    config = RunConfig.from_dict(json.loads(example))
    assert config.kind == "simulate" and config.built.params.n_steps == 25_000


class TestRunKinds:
    def test_simulate_and_decay(self):
        rec, report = run_simulation(RunConfig.from_dict(base_config()))
        assert rec.mass_y[-1] < rec.mass_y[0]
        assert report is not None and report.omega == pytest.approx(2.0)

    def test_ensemble_size_one_reduces_to_simulate(self):
        from snls_lab import seeding
        from snls_lab.diagnostics import decay_fit
        from snls_lab.harness import build_grid, build_initial, build_model, build_params
        from snls_lab.integrator import simulate

        cfg = RunConfig.from_dict(base_config(kind="ensemble",
                                              ensemble={"size": 1}))
        rep = run_ensemble(cfg, threads=1)
        assert rep.size == 1 and len(rep.per_path) == 1

        grid = build_grid(cfg)
        model = build_model(cfg)
        params = build_params(cfg)
        x = build_initial(cfg, grid)
        rec = simulate(grid, model, params, x, seed=seeding.derive_seed(cfg.seed, 0))
        direct_report = decay_fit(rec, model)
        assert rep.per_path[0]["lyapunov"] == pytest.approx(direct_report.lyapunov,
                                                            rel=1e-14)

    def test_ensemble_thread_count_invariance(self):
        cfg = RunConfig.from_dict(base_config(kind="ensemble",
                                              ensemble={"size": 6}))
        r1 = run_ensemble(cfg, threads=1)
        r8 = run_ensemble(cfg, threads=8)
        assert json.dumps(dataclasses.asdict(r1), sort_keys=True) == \
            json.dumps(dataclasses.asdict(r8), sort_keys=True)

    def test_ensemble_quantiles_monotone(self):
        cfg = RunConfig.from_dict(base_config(kind="ensemble",
                                              ensemble={"size": 8}))
        rep = run_ensemble(cfg, threads=1)
        q = rep.lyapunov
        assert q["q01"] <= q["q25"] <= q["q50"] <= q["q75"] <= q["q99"]
        assert len(rep.per_path) == 8

    def test_ensemble_propagates_aborts_as_statuses(self):
        # a huge coefficient trips the overflow guard on every path; the
        # ensemble reports per-path statuses instead of raising
        cfg = base_config(kind="ensemble", ensemble={"size": 3})
        cfg["noise"]["coefficients"] = [4000.0]
        cfg["noise"]["densities"] = [{"kind": "constant", "value": 1.0}]
        cfg["sim"] = {"lambda": 0, "alpha": 3.0, "dt": 1.0, "t_final": 10.0,
                      "scheme": "direct", "splitting": "strang"}
        rep = run_ensemble(RunConfig.from_dict(cfg), threads=1)
        assert len(rep.per_path) == 3
        assert all("aborted" in p["status"] for p in rep.per_path)

    def test_ensemble_member_parses_no_config(self, monkeypatch):
        # the shares take the objects the config built; nothing parses again
        cfg = RunConfig.from_dict(base_config(kind="ensemble", ensemble={"size": 2}))

        def parse(cls, raw):
            raise AssertionError("an ensemble block parsed the config again")

        monkeypatch.setattr(RunConfig, "from_dict", classmethod(parse))
        rep = run_ensemble(cfg, threads=1)
        assert [p["status"] for p in rep.per_path] == ["ok", "ok"]

    def test_simulate_underflow_before_fit_window_exits_4(self, tmp_path):
        # the mass falls below MASS_FLOOR near t = 2.4, before the window
        code, err = run_captured(underflow_config("simulate", [5.0, 10.0]), tmp_path)
        assert code == EXIT_NUMERICAL_ABORT, err
        cfg = RunConfig.from_dict(underflow_config("simulate", [5.0, 10.0]))
        cut, _ = first_underflow(cfg, cfg.seed)
        assert f"mass underflows at time index {cut}:" in err

    def test_ensemble_unfitted_paths_get_statuses(self):
        # per path, the mass underflows before or inside the fit window; the
        # paths left with fewer than two samples in it are named and left out
        # of the quantiles
        cfg = RunConfig.from_dict(underflow_config("ensemble", [2.3, 2.5], t_final=3.0))
        rep = run_ensemble(cfg, threads=1)
        fitted = []
        for entry in rep.per_path:
            cut, times = first_underflow(cfg, seeding.derive_seed(cfg.seed, entry["index"]))
            if np.count_nonzero(times >= 2.3) < 2:
                assert entry["status"] == \
                    f"unfitted: mass underflows at time index {cut}", entry
                assert "lyapunov" not in entry
            else:
                assert entry["status"] == "ok"
                fitted.append(entry["lyapunov"])
        assert 0 < len(fitted) < len(rep.per_path)
        assert rep.lyapunov["q50"] == pytest.approx(float(np.median(fitted)))
        # with no path fitted there is no fraction to report, not a zero one
        cfg = RunConfig.from_dict(underflow_config("ensemble", [2.35, 2.6]))
        rep = run_ensemble(cfg, threads=1)
        assert all(p["status"].startswith("unfitted") for p in rep.per_path)
        assert rep.fraction_passing is None
        assert rep.lyapunov == rep.lln_ratio == {}

    def test_ensemble_veto_before_marching(self, monkeypatch):
        def march(*args, **kwargs):
            raise AssertionError("a decay fit with no decay rate marched")

        monkeypatch.setattr(harness, "identity_outcome", march)
        monkeypatch.setattr(harness, "simulate", march)
        # omega is undefined for mu = i, and overflows a double for mu = 6e153
        # with alpha0 = 4 (2 alpha0 mu^2 = 2.9e308, while the Ito correction
        # mu^2 = 3.6e307 is finite), so no path may march, in an ensemble or
        # in a simulate run with a decay fit
        for coefficient, message in [([0.0, 1.0], "decay rate undefined"),
                                     (6e153, "noise.coefficients: .* overflows a double")]:
            cfg = base_config(kind="ensemble", ensemble={"size": 2})
            cfg["noise"]["coefficients"] = [coefficient]
            cfg["noise"]["densities"][0].update(value=4.0, alpha0=4.0, v_max=4.0)
            with pytest.raises(AssumptionVeto, match=message):
                run_ensemble(RunConfig.from_dict(cfg), threads=1)
            with pytest.raises(AssumptionVeto, match=message):
                run_simulation(RunConfig.from_dict({**cfg, "kind": "simulate"}))

    def test_simulate_decay_fit_veto_writes_only_the_echo(self, tmp_path):
        # a bump profile leaves h4: no field is dumped before the veto
        cfg = short_config()
        cfg["noise"]["profiles"] = [BUMP_PROFILE]
        cfg["sim"]["scheme"] = "direct"
        cfg["diagnostics"]["field_dumps"] = True
        code, err = run_captured(cfg, tmp_path)
        assert code == EXIT_ASSUMPTION_VETO, err
        assert "decay rate undefined" in err
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["config_echo.json"]

    def test_overflowing_decay_rate_exits_3(self, tmp_path):
        # 2 alpha0 mu^2 = 2.9e308 overflows, the Ito correction 3.6e307 does not
        cfg = short_config("ensemble")
        cfg["noise"]["coefficients"] = [6e153]
        cfg["noise"]["densities"][0].update(value=4.0, alpha0=4.0, v_max=4.0)
        code, err = run_captured(cfg, tmp_path)
        assert code == EXIT_ASSUMPTION_VETO, err
        assert err.startswith("assumption veto: ") and "Traceback" not in err
        assert "noise.coefficients" in err

    def test_validate_kind(self):
        cfg = RunConfig.from_dict(base_config(kind="validate"))
        rep = run_validate(cfg)
        assert rep.h4 and rep.h3 and not rep.h1

    def test_validate_needs_only_grid_and_noise(self, tmp_path):
        # a validate section is an unknown key: ignored and not echoed
        cfg = {key: base_config()[key] for key in ("grid", "noise")}
        cfg.update(kind="validate", validate={"horizon": -1})
        assert run_captured(cfg, tmp_path) == (0, "")
        echo = json.loads((tmp_path / "out" / "config_echo.json").read_text())
        assert "validate" not in echo
        report = json.loads((tmp_path / "out" / "validation_report.json").read_text())
        assert report["h4"] == "pass"

    @pytest.mark.parametrize("profile, flags", [
        ({"kind": "gaussian-bump", "width": 2.0}, {"h1": "pass", "h3": "pass", "h4": "fail"}),
        ({"kind": "constant-one"}, {"h1": "fail", "h4": "pass"}),
    ], ids=["bump", "constant"])
    def test_validate_on_a_2d_grid(self, tmp_path, profile, flags):
        # in d = 2 the weight zeta carries the extra factor (log(3 + |xi|^2))^2
        cfg = base_config(kind="validate",
                          grid={"dimension": 2, "points": 32, "half_length": 8.0})
        cfg["sim"]["alpha"] = 2.0  # inside 1 < alpha < 1 + 4/d
        cfg["noise"]["profiles"] = [profile]
        assert run_captured(cfg, tmp_path) == (0, "")
        report = json.loads((tmp_path / "out" / "validation_report.json").read_text())
        assert {key: report[key] for key in flags} == flags
        if profile["kind"] == "gaussian-bump":
            assert report["witnesses"]["h4[0]"] == "profiles[0]: not constant-one (gaussian-bump)"

    def test_h3_passes_for_every_accepted_density(self, tmp_path):
        # 5e-13 above v_max lies inside DensitySpec's slack of
        # 1e-12 max(1, v_max): the density is accepted, so its band holds
        # over the run [0, 1], second piece included
        cfg = base_config(kind="validate")
        cfg["noise"]["densities"] = [{"kind": "piecewise-constant", "alpha0": 0.05,
                                      "v_max": 0.1, "times": [0.0, 1.0],
                                      "values": [0.05, 0.1000000000005]}]
        assert run_captured(cfg, tmp_path) == (0, "")
        report = json.loads((tmp_path / "out" / "validation_report.json").read_text())
        assert report["h3"] == "pass"
        assert not [key for key in report["witnesses"] if key.startswith("h3")]
        (tmp_path / "simulate").mkdir()
        assert run_captured({**cfg, "kind": "simulate"}, tmp_path / "simulate")[0] == 0

    def test_picard_kind(self):
        cfg = RunConfig.from_dict(base_config(
            kind="picard",
            initial={"kind": "gaussian", "width": 1.0, "l2_norm": 1.0},
            picard={"horizon": 0.05, "nodes": 32, "lambda": 1, "alpha": 3.0},
        ))
        rep = run_picard(cfg)
        assert rep.converged
        assert max(rep.ratios) < 1.0

    def test_convergence_kind_exact_flag(self):
        cfg = RunConfig.from_dict(base_config(
            kind="convergence",
            sim={"lambda": 0, "alpha": 3.0, "dt": 1e-3, "t_final": 0.5,
                 "scheme": "rescaled", "splitting": "strang"},
            convergence={"dts": [4e-3, 2e-3, 1e-3], "reference_dt": 1.25e-4},
        ))
        out = run_convergence(cfg)
        assert out["order"] == "exact"

    def test_convergence_kind_deterministic_order(self):
        cfg = RunConfig.from_dict(base_config(
            kind="convergence",
            noise={"coefficients": [0.0],
                   "profiles": [{"kind": "constant-one"}],
                   "densities": [{"kind": "constant", "value": 1.0}]},
            sim={"lambda": 1, "alpha": 3.0, "dt": 1e-3, "t_final": 0.5,
                 "scheme": "direct", "splitting": "strang"},
            convergence={"dts": [4e-3, 2e-3, 1e-3], "reference_dt": 1.25e-4},
        ))
        out = run_convergence(cfg)
        assert 1.7 <= out["order"] <= 2.3

    def test_convergence_kind_noisy_order(self):
        # single-path order estimates scatter around the strong-order limit;
        # the seed is frozen on a path measuring inside the band
        cfg = RunConfig.from_dict(base_config(
            kind="convergence",
            seed=5,
            sim={"lambda": 1, "alpha": 3.0, "dt": 1e-3, "t_final": 0.5,
                 "scheme": "rescaled", "splitting": "strang"},
            convergence={"dts": [4e-3, 2e-3, 1e-3], "reference_dt": 1.25e-4},
        ))
        out = run_convergence(cfg)
        assert 0.8 <= out["order"] <= 1.5

    @pytest.mark.filterwarnings("ignore::snls_lab.spectral_grid.SpectralTailWarning")
    def test_convergence_error_overflow_exits_4(self, tmp_path):
        # l2_norm 8e153 on 32 points: the dt = 0.02 state differs from the
        # reference by more than a double's L2 norm holds.  The run aborts
        # naming that step and leaves no convergence.json
        cfg = base_config(
            kind="convergence",
            grid={"dimension": 1, "points": 32, "half_length": 8.0},
            sim={"lambda": 1, "alpha": 3.0, "dt": 0.01, "t_final": 0.08, "scheme": "direct"},
            initial={"kind": "gaussian", "width": 1.0, "l2_norm": 8e153},
            convergence={"dts": [0.04, 0.02, 0.01], "reference_dt": 0.00125},
            diagnostics={},
        )
        cfg["noise"]["coefficients"] = [[1.0, 0.5]]
        code, err = run_captured(cfg, tmp_path)
        assert (code, err) == (EXIT_NUMERICAL_ABORT, "numerical abort: convergence: the "
                               "error at dt=0.02 overflows a double\n")
        assert not (tmp_path / "out" / "convergence.json").exists()

    def test_convergence_zero_error_beside_nonzero_exits_4(self, tmp_path, monkeypatch):
        # a step that ends on the reference's state while the others do not:
        # log 0 leaves the order undefined
        cfg = base_config(
            kind="convergence",
            noise={"coefficients": [0.0], "profiles": [{"kind": "constant-one"}],
                   "densities": [{"kind": "constant", "value": 1.0}]},
            sim={"lambda": 1, "alpha": 3.0, "dt": 1e-3, "t_final": 0.5,
                 "scheme": "direct", "splitting": "strang"},
            convergence={"dts": [4e-3, 2e-3, 1e-3], "reference_dt": 1.25e-4},
            diagnostics={},
        )
        records = []

        def simulate(grid, model, params, x, path):
            if params.dt == 2e-3:
                return records[0]  # the reference's
            records.append(integrator.simulate(grid, model, params, x, path=path))
            return records[-1]

        monkeypatch.setattr(harness, "simulate", simulate)
        code, err = run_captured(cfg, tmp_path)
        assert (code, err) == (EXIT_NUMERICAL_ABORT, "numerical abort: convergence: the "
                               "error at dt=0.002 is 0 while another is not, so the order "
                               "is not finite\n")
        assert not (tmp_path / "out" / "convergence.json").exists()


def underflow_config(kind, fit_window, t_final=10.0):
    """n = 64, mu = 12: the mass underflows near t = 2.4, path by path."""
    cfg = base_config(kind=kind, diagnostics={"decay_fit": True,
                                              "fit_window": fit_window})
    cfg["grid"]["points"] = 64
    cfg["noise"]["coefficients"] = [12.0]
    cfg["sim"].update(dt=0.01, t_final=t_final)
    if kind == "ensemble":
        cfg["ensemble"] = {"size": 4}
    return cfg


def first_underflow(cfg: RunConfig, seed: int) -> tuple[int, np.ndarray]:
    """The first time index at which a path's mass is at or below MASS_FLOOR,
    and the times before it."""
    b = cfg.built
    rec = integrator.simulate(b.grid, b.model, b.params, b.x, seed=seed)
    cut = int(np.argmax(rec.mass_x <= MASS_FLOOR))
    return cut, rec.times[:cut]


def boosted(path, start=10, factor=1e4):
    """The same path with every increment from ``start`` on scaled up."""
    inc = path.increments.copy()
    inc[:, start:] *= factor
    values = np.zeros_like(path.values)
    np.cumsum(inc, axis=1, out=values[:, 1:])
    return dataclasses.replace(path, increments=inc, values=values)


def collector():
    """A snapshot callable and the list of (k, X values) it fills."""
    seen = []
    return (lambda k, t, f: seen.append((k, f.values.copy()))), seen


def per_path_entry(cfg: RunConfig, index: int) -> dict:
    """One ensemble entry computed from a per-path simulate."""
    grid, model, params = build_grid(cfg), build_model(cfg), build_params(cfg)
    x = build_initial(cfg, grid)
    try:
        rec = integrator.simulate(grid, model, params, x,
                                  seed=seeding.derive_seed(cfg.seed, index))
    except NumericalAbort as exc:
        return {"index": index, "status": f"aborted at time index {exc.time_index}"}
    rep = decay_fit(rec, model)
    env = gronwall_check(rec, model)
    return {"index": index, "status": "ok", "lyapunov": rep.lyapunov,
            "fitted_slope": rep.fitted_slope, "lln_ratio": rep.lln_ratio,
            "margin": rep.margin, "final_mass_x": float(rec.mass_x[-1]),
            "final_mass_y": float(rec.mass_y[-1]),
            "gronwall_violations": env["violations"], "e0_monotone": env["monotone"]}


class TestEnsembleBlocks:
    """simulate_block's blocks of paths, and the chunks of path indices an
    ensemble's process pool maps."""

    def test_block_layout(self, monkeypatch):
        # one contiguous chunk per worker, in index order, of ceil(size /
        # threads) paths: 9 paths on 4 threads take 3 workers
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
        received = []

        class RecordingPool:
            def __init__(self, max_workers):
                self.workers = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, indices, chunksize):
                chunks = [indices[i:i + chunksize] for i in range(0, len(indices), chunksize)]
                received.append((self.workers, chunksize, chunks))
                return (fn(index) for chunk in chunks for index in chunk)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        cfg = base_config(kind="ensemble")
        cfg["grid"] = {"dimension": 1, "points": 32, "half_length": 8.0}
        cfg["sim"]["t_final"] = 10 * cfg["sim"]["dt"]
        for size, threads, want in [(7, 2, [4, 3]), (7, 3, [3, 3, 1]), (7, 8, [1] * 7),
                                    (9, 4, [3, 3, 3]), (200, 2, [100, 100])]:
            received.clear()
            rep = run_ensemble(RunConfig.from_dict({**cfg, "ensemble": {"size": size}}),
                               threads=threads)
            (workers, chunksize, chunks), = received
            assert len(chunks) == workers <= threads
            assert chunksize == math.ceil(size / min(threads, size))
            assert [len(c) for c in chunks] == want
            assert [i for c in chunks for i in c] == list(range(size))
            assert [p["index"] for p in rep.per_path] == list(range(size))

    def test_one_worker_starts_no_process(self, monkeypatch):
        # one thread, or one path, maps the paths in this process
        def refuse(*args, **kwargs):
            raise AssertionError("an ensemble on one worker opened a process pool")

        monkeypatch.setattr(harness, "ProcessPoolExecutor", refuse)
        for size, threads in ((3, 1), (1, 8)):
            cfg = base_config(kind="ensemble", ensemble={"size": size})
            rep = run_ensemble(RunConfig.from_dict(cfg), threads=threads)
            assert [p["status"] for p in rep.per_path] == ["ok"] * size

    def test_report_bytes_independent_of_workers(self, tmp_path, monkeypatch):
        cfg = base_config(kind="ensemble", ensemble={"size": 7})
        cfg["sim"]["t_final"] = 0.1
        # mu = 150 on 32 points: paths 3 and 6 abort late in the run, while
        # the others run on and fit
        aborting = base_config(kind="ensemble", ensemble={"size": 7},
                               diagnostics={"decay_fit": True, "fit_window": [0.0, 0.01]})
        aborting["grid"] = {"dimension": 1, "points": 32, "half_length": 8.0}
        aborting["noise"]["coefficients"] = [150.0]
        aborting["sim"]["t_final"] = 3.0
        # mu = 3 over 400 steps: marched, every path would fast-forward, each
        # at its own index
        fast = base_config(kind="ensemble", ensemble={"size": 4})
        fast["grid"] = {"dimension": 1, "points": 64, "half_length": 16.0}
        fast["noise"]["coefficients"] = [3.0]
        fast["sim"].update(dt=2e-2, t_final=8.0)
        statuses = {}
        for name, c in (("plain", cfg), ("aborting", aborting), ("fast", fast)):
            p = tmp_path / f"{name}.json"
            p.write_text(json.dumps(c), encoding="utf-8")
            reports = []
            for threads in (1, 2, 3, 7, 8):
                out = tmp_path / f"{name}{threads}"
                assert run(p, out_dir=str(out), threads=threads) == EXIT_OK
                reports.append((out / "ensemble_report.json").read_bytes())
            assert all(r == reports[0] for r in reports[1:]), name
            statuses[name] = [e["status"] for e in json.loads(reports[0])["per_path"]]
        assert statuses["plain"] == ["ok"] * 7
        assert [s.startswith("aborted") for s in statuses["aborting"]] == \
            [False, False, False, True, False, False, True]
        assert statuses["aborting"].count("ok") == 5
        assert statuses["fast"] == ["ok"] * 4

        # A simulate_block block marches until its last row finishes: one
        # forward transform a step, plus the initial spectrum, the initial
        # resolution check and one final check per row.  A row finishes where
        # it does marched alone.
        config = RunConfig.from_dict(fast)
        built = config.built
        model, params = built.model, built.params
        paths = [integrator.sample_martingale(model, params.dt, params.n_steps,
                                              seeding.derive_seed(config.seed, index))
                 for index in range(4)]
        finish = []
        for path in paths:
            with np.errstate(over="ignore", invalid="ignore"):
                block = integrator._Block(built.grid, model, params, [path],
                                          mass=built.x.mass)
                integrator._march(block, built.x)
            finish.append(int(block.end[0]))
        assert finish == [128, 122, 111, 101]

        calls = []
        forward = integrator.GridSpec.forward

        def counted(*args, **kwargs):
            calls.append(1)
            return forward(*args, **kwargs)
        monkeypatch.setattr(integrator.GridSpec, "forward", counted)
        for blocks in ([range(4)], [range(2), range(2, 4)], [range(1, 4)]):
            calls.clear()
            for b in blocks:
                integrator.simulate_block(built.grid, model, params, built.x,
                                          [paths[i] for i in b])
            assert len(calls) == sum(2 + max(finish[i] for i in b) + len(b) for b in blocks)

    @pytest.mark.filterwarnings("error::snls_lab.spectral_grid.SpectralTailWarning")
    def test_ensemble_marches_nothing(self, monkeypatch):
        # An ensemble's numbers are its paths' mass identities: no path is
        # marched, no field transformed or checked for resolution, though
        # each of these paths, marched, ends under-resolved
        config = RunConfig.from_dict(short_config("ensemble"))
        b = config.built
        for index in range(2):
            path = integrator.sample_martingale(b.model, b.params.dt, b.params.n_steps,
                                                seeding.derive_seed(config.seed, index))
            with pytest.warns(SpectralTailWarning, match="final state"):
                integrator.simulate_block(b.grid, b.model, b.params, b.x, [path])
        want = json.dumps(dataclasses.asdict(run_ensemble(config, threads=1)))

        def refuse(*args, **kwargs):
            raise AssertionError("an ensemble marched or transformed a field")

        monkeypatch.setattr(integrator, "_march", refuse)
        monkeypatch.setattr(integrator.GridSpec, "forward", refuse)
        for threads in (1, 2):
            rep = run_ensemble(config, threads=threads)
            assert json.dumps(dataclasses.asdict(rep)) == want
        assert {p["status"] for p in rep.per_path} == {"ok"}

    def test_overflowing_phase_reports_its_march(self, tmp_path):
        # alpha = 4.9 and a mass of 1e160: the mass^{(alpha-1)/2} folded into
        # every phase coefficient overflows, though the mass does not.  Each
        # ensemble path then has its march decide, and reports the abort a
        # simulate run of that path prints
        cfg = short_config("ensemble")
        cfg["sim"]["alpha"] = 4.9
        cfg["initial"]["l2_norm"] = 1e80
        code, err = run_captured(cfg, tmp_path)
        assert code == EXIT_OK, err
        report = json.loads((tmp_path / "out" / "ensemble_report.json").read_text())
        assert [p["status"] for p in report["per_path"]] == \
            ["aborted at time index 10"] * 2
        for index in range(2):
            single = {**cfg, "kind": "simulate", "diagnostics": {},
                      "seed": seeding.derive_seed(cfg["seed"], index)}
            (tmp_path / str(index)).mkdir()
            code, err = run_captured(single, tmp_path / str(index))
            assert (code, err) == (EXIT_NUMERICAL_ABORT,
                                   "numerical abort: non-finite state at time index 10\n")

    def test_pool_capped_at_core_count(self, monkeypatch):
        cores = os.cpu_count()
        opened = []

        class InProcessPool:
            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, indices, chunksize):
                return map(fn, indices)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
        cfg = base_config(kind="ensemble", ensemble={"size": cores + 2})
        cfg["grid"] = {"dimension": 1, "points": 32, "half_length": 8.0}
        cfg["sim"]["t_final"] = 10 * cfg["sim"]["dt"]
        rep = run_ensemble(RunConfig.from_dict(cfg), threads=10**6)
        assert len(rep.per_path) == cores + 2
        assert opened or cores == 1
        assert all(workers <= cores for workers in opened), opened

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_block_with_abort_matches_per_path(self, monkeypatch):
        # A simulate_block block whose row 1 aborts: each row equals its path
        # marched alone.  Each ensemble entry, read from its path's identity,
        # equals the one a per-path simulate gives.
        cfg = RunConfig.from_dict(base_config(kind="ensemble", ensemble={"size": 3}))
        b = cfg.built
        sample = integrator.sample_martingale
        bad_seed = seeding.derive_seed(cfg.seed, 1)

        def sampler(model, dt, n_steps, seed, *args):
            path = sample(model, dt, n_steps, seed, *args)
            return boosted(path) if seed == bad_seed else path

        paths = [sampler(b.model, b.params.dt, b.params.n_steps,
                         seeding.derive_seed(cfg.seed, i)) for i in range(3)]
        block = integrator.simulate_block(b.grid, b.model, b.params, b.x, paths)
        assert [isinstance(row, NumericalAbort) for row in block] == [False, True, False]
        for path, row in zip(paths, block):
            alone, = integrator.simulate_block(b.grid, b.model, b.params, b.x, [path])
            if isinstance(alone, NumericalAbort):
                assert (str(row), row.time_index) == (str(alone), alone.time_index)
                continue
            for name in ("mass_x", "mass_y", "ito_mass_sum", "re_m"):
                assert np.array_equal(getattr(row, name), getattr(alone, name)), name
            for name in ("final_x", "final_y"):
                assert np.array_equal(getattr(row, name).values,
                                      getattr(alone, name).values), name

        # the ensemble samples its paths in harness, a lone path in integrator
        monkeypatch.setattr(harness, "sample_martingale", sampler)
        monkeypatch.setattr(integrator, "sample_martingale", sampler)
        entries = [_ensemble_member(cfg.built, None, cfg.seed, index) for index in range(3)]
        assert [e["status"] == "ok" for e in entries] == [True, False, True]
        assert entries == [per_path_entry(cfg, i) for i in range(3)]

    def test_direct_bump_block_matches_per_path(self):
        # a simulate_block block under spatially varying noise: rows keep
        # their per-step physical work
        cfg = base_config()
        cfg["noise"]["coefficients"] = [[0.5, 0.2]]
        cfg["noise"]["profiles"] = [{"kind": "gaussian-bump", "width": 2.0}]
        cfg["sim"].update(scheme="direct", alpha=2.0, t_final=0.2)
        cfg = RunConfig.from_dict(cfg)
        grid, model, params = build_grid(cfg), build_model(cfg), build_params(cfg)
        x = build_initial(cfg, grid)
        paths = [integrator.sample_martingale(model, params.dt, params.n_steps, s)
                 for s in (1, 2, 3)]
        paths[1] = boosted(paths[1], factor=1e5)
        keeps = [collector() for _ in paths]
        block = integrator.simulate_block(grid, model, params, x, paths,
                                          snapshots=[keep for keep, _ in keeps])
        assert isinstance(block[1], NumericalAbort)
        for seed, path, row, (_, seen) in zip((1, 2, 3), paths, block, keeps):
            keep, want = collector()
            try:
                ref = integrator.simulate(grid, model, params, x, seed=seed,
                                          path=path, snapshot=keep)
            except NumericalAbort as exc:
                assert (str(row), row.time_index) == (str(exc), exc.time_index)
                assert [k for k, _ in seen] == [k for k, _ in want]
                continue
            for name in ("mass_x", "mass_y", "ito_mass_sum", "re_m"):
                assert np.array_equal(getattr(row, name), getattr(ref, name))
            assert [k for k, _ in seen] == [k for k, _ in want]
            for (_, a), (_, b) in zip(seen, want):
                assert np.array_equal(a, b)
            for name in ("final_x", "final_y"):
                assert np.array_equal(getattr(row, name).values,
                                      getattr(ref, name).values), name


class TestCliRun:
    def write_config(self, tmp_path, cfg):
        p = tmp_path / "config.json"
        p.write_text(json.dumps(cfg), encoding="utf-8")
        return p

    def test_validate_run_exit_zero(self, tmp_path):
        p = self.write_config(tmp_path, base_config(kind="validate"))
        code = run(p, out_dir=str(tmp_path / "out"))
        assert code == EXIT_OK
        report = json.loads((tmp_path / "out" / "validation_report.json").read_text())
        assert report["h4"] == "pass"

    def test_assumption_veto_exit_code(self, tmp_path):
        cfg = base_config()
        cfg["noise"]["coefficients"] = [[0.0, 1.0]]  # mu = i
        p = self.write_config(tmp_path, cfg)
        code = run(p, out_dir=str(tmp_path / "out"))
        assert code == EXIT_ASSUMPTION_VETO

    def test_config_error_exit_code(self, tmp_path):
        cfg = base_config()
        cfg["sim"]["scheme"] = "magic"
        p = self.write_config(tmp_path, cfg)
        code = run(p, out_dir=str(tmp_path / "out"))
        assert code == EXIT_CONFIG_ERROR

    def test_unusable_output_dir_is_config_error(self, tmp_path, capsys):
        p = self.write_config(tmp_path, base_config())
        blocker = tmp_path / "a_file"
        blocker.write_text("", encoding="utf-8")
        for out in (blocker, blocker / "below"):
            assert run(p, out_dir=str(out)) == EXIT_CONFIG_ERROR
            assert "output_dir: cannot create" in capsys.readouterr().err

    def test_missing_file_is_config_error(self, tmp_path):
        assert run(tmp_path / "nope.json") == EXIT_CONFIG_ERROR

    def test_from_file_applies_overrides(self, tmp_path):
        # the overrides replace the file's kind and seed before validation
        cfg = base_config(kind="validate")
        p = self.write_config(tmp_path, cfg)
        assert RunConfig.from_file(p, kind="simulate", seed=5) == \
            RunConfig.from_dict({**cfg, "kind": "simulate", "seed": 5})

    @pytest.mark.parametrize("text, message", [
        (b"[1, 2]", "config: must be an object"),
        (b'{"kind": ', "config: invalid JSON in"),
        pytest.param(b'{"kind": "validate", "x": "\xff"}', "config: invalid JSON in",
                     id="not_utf8"),
        pytest.param(b"[" * 100_000 + b"]" * 100_000, "config: invalid JSON in",
                     id="nested_100000_deep"),
    ])
    def test_unparsable_config_is_config_error(self, tmp_path, capsys, text, message):
        p = tmp_path / "config.json"
        p.write_bytes(text)
        assert run(p, kind="simulate", out_dir=str(tmp_path / "out")) == EXIT_CONFIG_ERROR
        assert message in capsys.readouterr().err

    def test_nul_in_a_path_is_config_error(self, tmp_path, capsys):
        p = self.write_config(tmp_path, base_config(kind="validate"))
        assert run(p, out_dir=str(tmp_path / "o\0ut")) == EXIT_CONFIG_ERROR
        assert "output_dir: cannot create" in capsys.readouterr().err
        with pytest.raises(ConfigError, match="config: cannot read"):
            RunConfig.from_file(f"{p}\0")

    def test_kind_override_revalidates_requirements(self, tmp_path):
        # a config valid for 'validate' lacks sim/initial: forcing it to run
        # as 'simulate' must fail cleanly, naming the missing section
        cfg = base_config(kind="validate")
        del cfg["sim"]
        del cfg["initial"]
        p = self.write_config(tmp_path, cfg)
        assert run(p, out_dir=str(tmp_path / "v")) == EXIT_OK
        assert run(p, kind="simulate", out_dir=str(tmp_path / "s")) == \
            EXIT_CONFIG_ERROR

    def test_byte_identical_reruns(self, tmp_path):
        cfg = base_config()
        cfg["diagnostics"]["residuals"] = True
        p = self.write_config(tmp_path, cfg)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(p, out_dir=str(out)) == EXIT_OK
            outs.append(out)
        for fname in ("series.csv", "path.csv", "decay_report.json",
                      "config_echo.json", "mass_residual.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        p = self.write_config(tmp_path, base_config())
        run(p, out_dir=str(tmp_path / "a"))
        run(p, out_dir=str(tmp_path / "b"), seed=999)
        a = (tmp_path / "a" / "series.csv").read_bytes()
        b = (tmp_path / "b" / "series.csv").read_bytes()
        assert a != b

    def test_cli_entry_point(self, tmp_path):
        from snls_lab.cli import main

        p = self.write_config(tmp_path, base_config(kind="validate"))
        code = main(["validate", "--config", str(p), "--out",
                     str(tmp_path / "out")])
        assert code == EXIT_OK

    def test_cli_process_exit_code(self, tmp_path):
        # the README's exit-code contract as a shell sees it: a config that
        # cannot be read exits 2 with one line naming it on stderr
        missing = tmp_path / "missing.json"
        src = str(Path(snls_lab.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-m", "snls_lab.cli", "validate",
                               "--config", str(missing)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == EXIT_CONFIG_ERROR == 2
        assert done.stderr.splitlines()[-1].startswith(
            f"config error: config: cannot read {missing}")

    def test_overrides_parse_the_config_once(self, tmp_path, monkeypatch):
        from snls_lab.cli import main

        calls = []
        parse = RunConfig.from_dict.__func__

        def counted(cls, raw):
            calls.append(raw.get("seed"))
            return parse(cls, raw)

        monkeypatch.setattr(RunConfig, "from_dict", classmethod(counted))
        p = self.write_config(tmp_path, base_config(kind="validate"))
        code = main(["validate", "--config", str(p), "--out", str(tmp_path / "out"),
                     "--seed", "5"])
        assert code == EXIT_OK
        assert calls == [5]

    def test_config_echo_reparses_identically(self, tmp_path):
        p = self.write_config(tmp_path, base_config(kind="validate"))
        out = tmp_path / "out"
        assert run(p, out_dir=str(out)) == EXIT_OK
        echoed = json.loads((out / "config_echo.json").read_text())
        original = RunConfig.from_file(p)
        original.output_dir = echoed["output_dir"]
        assert RunConfig.from_dict(echoed) == original

    @pytest.mark.parametrize("case", ["rescaled_32768", "direct_bump_32cubed"])
    def test_bytes_independent_of_blas_threads(self, tmp_path, case):
        # 32,768 values per field, where OpenBLAS threads np.vdot and its
        # bits then depend on the thread count
        cfg = base_config(diagnostics={"residuals": True})
        cfg["sim"].update(dt=1e-3, t_final=0.01)
        if case == "rescaled_32768":
            cfg["grid"] = {"dimension": 1, "points": 32768, "half_length": 64.0}
            cfg["noise"]["coefficients"] = [[1.0, 0.5]]
        else:
            cfg["grid"] = {"dimension": 3, "points": 32, "half_length": 8.0}
            cfg["sim"].update(scheme="direct", alpha=2.0)
            cfg["noise"] = {"coefficients": [0.5, 0.5],
                            "profiles": [{**BUMP_PROFILE, "center": [0.0, 0.0, 0.0]},
                                         {"kind": "constant-one"}],
                            "densities": [{"kind": "constant", "value": 1.0}] * 2}
        p = self.write_config(tmp_path, cfg)
        src = str(Path(snls_lab.__file__).resolve().parents[1])
        outs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            out = tmp_path / f"blas{threads}"
            done = subprocess.run([sys.executable, "-m", "snls_lab.cli", "simulate",
                                   "--config", str(p), "--out", str(out)],
                                  env=env, capture_output=True, text=True,
                                  timeout=300)
            assert done.returncode == EXIT_OK, done.stderr
            outs.append(out)
        names = sorted(f.name for f in outs[0].iterdir())
        assert "mass_residual.csv" in names
        assert names == sorted(f.name for f in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        cfg = base_config(kind="ensemble", ensemble={"size": 2})
        cfg["sim"]["t_final"] = 0.1
        p = self.write_config(tmp_path, cfg)
        monkeypatch.setenv("SNLS_LAB_THREADS", "2")
        assert run(p, out_dir=str(tmp_path / "env_out")) == EXIT_OK
        monkeypatch.setenv("SNLS_LAB_THREADS", "not-a-number")
        assert run(p, out_dir=str(tmp_path / "bad_env")) == EXIT_CONFIG_ERROR

    # every march abort's message names its time index: the noise-exponent
    # guard, the |Re M| guard and an overflowing mass reconstruction
    @pytest.mark.parametrize("noise, sim, seed, message", [
        ({"coefficients": [36.5], "profiles": [{"kind": "gaussian-bump", "width": 2.0}]},
         {"lambda": 1, "dt": 0.5, "scheme": "direct"}, 0,
         "noise exponent exceeds the overflow guard at time index 16"),
        ({"coefficients": [4000.0]}, {"lambda": 0, "dt": 1.0, "scheme": "direct"}, 0,
         "|Re M| exceeds the overflow guard at time index 1"),
        ({"coefficients": [400.0]}, {"lambda": 1, "dt": 0.5}, 1,
         "mass reconstruction overflows at time index 2"),
    ])
    def test_march_aborts_name_their_time_index(self, tmp_path, noise, sim, seed,
                                                message):
        cfg = base_config(seed=seed, diagnostics={})
        cfg["grid"].update(points=64)
        cfg["noise"].update(noise, densities=[{"kind": "constant", "value": 1.0}])
        cfg["sim"].update(sim, t_final=10.0)
        code, err = run_captured(cfg, tmp_path)
        assert code == EXIT_NUMERICAL_ABORT, err
        assert err == f"numerical abort: {message}\n"

    # the |Re M| guard of homogeneous rows, reached from a config: with
    # mu = 300 it stops these draws before the mass overflows
    @pytest.mark.filterwarnings("ignore::snls_lab.spectral_grid.SpectralTailWarning")
    @pytest.mark.parametrize("scheme, seed, index", [("rescaled", 0, 589),
                                                     ("direct", 5, 141)])
    def test_homogeneous_guard_from_config(self, tmp_path, scheme, seed, index):
        cfg = base_config(seed=seed, diagnostics={})
        cfg["grid"].update(points=32)
        cfg["noise"].update(coefficients=[300.0],
                            densities=[{"kind": "constant", "value": 1.0}])
        cfg["sim"].update(dt=0.01, t_final=10.0, scheme=scheme)
        code, err = run_captured(cfg, tmp_path)
        assert code == EXIT_NUMERICAL_ABORT, err
        assert err == ("numerical abort: |Re M| exceeds the overflow guard at time "
                       f"index {index}\n")

    # an initial amplitude of 1e150 overflows |u|^{alpha-1} in the first step
    # of a spatially varying row: the abort line is all the run prints
    @pytest.mark.filterwarnings("error::RuntimeWarning",
                                "ignore::snls_lab.spectral_grid.SpectralTailWarning")
    @pytest.mark.parametrize("splitting", ["strang", "lie"])
    def test_overflowing_march_prints_only_its_abort(self, tmp_path, splitting):
        cfg = base_config(diagnostics={"residuals": True})
        cfg["grid"].update(points=32)
        cfg["noise"].update(profiles=[{"kind": "gaussian-bump", "width": 2.0}])
        cfg["sim"].update(alpha=3.53, dt=0.01, t_final=0.1, scheme="direct",
                          splitting=splitting)
        cfg["initial"]["amplitude"] = 1e150
        code, err = run_captured(cfg, tmp_path)
        assert code == EXIT_NUMERICAL_ABORT, err
        assert err == "numerical abort: non-finite state at time index 1\n"


class TestFieldDump:
    def test_round_trip(self, tmp_path):
        g = make_grid(1, 64, 8.0)
        f = gaussian_field(g, width=1.0)
        path = tmp_path / "field.bin"
        write_field_dump(f, 1.25, path)
        back, t = read_field_dump(path)
        assert t == 1.25
        assert back.grid == g
        assert np.array_equal(back.values, f.values)

    def test_layout_is_little_endian_interleaved(self, tmp_path):
        import struct

        g = make_grid(1, 4, 1.0)
        from snls_lab.spectral_grid import ComplexField
        f = ComplexField(np.array([1 + 2j, 3 + 4j, 5 + 6j, 7 + 8j]), g)
        path = tmp_path / "field.bin"
        write_field_dump(f, 0.5, path)
        raw = path.read_bytes()
        d, n, L, t = struct.unpack("<iidd", raw[:24])
        assert (d, n, L, t) == (1, 4, 1.0, 0.5)
        flat = np.frombuffer(raw[24:], dtype="<f8")
        assert np.array_equal(flat, [1, 2, 3, 4, 5, 6, 7, 8])


# -- malformed configs ---------------------------------------------------------------

def short_config(kind="simulate"):
    """A valid config of the given kind that runs in well under a second:
    n = 64 and 10 steps."""
    cfg = base_config(kind=kind)
    cfg["grid"]["points"] = 64
    cfg["sim"].update(dt=0.01, t_final=0.1)
    if kind == "ensemble":
        cfg["ensemble"] = {"size": 2}
    if kind == "picard":
        cfg["picard"] = {"horizon": 0.05, "nodes": 16, "lambda": 1, "alpha": 3.0}
    return cfg


def put(cfg, dotted, value):
    """Set the leaf at a key path such as ``noise.profiles[0].width``."""
    keys = [int(k) if k.isdigit() else k for k in re.findall(r"[^.\[\]]+", dotted)]
    for key in keys[:-1]:
        cfg = cfg[key]
    cfg[keys[-1]] = value


BUMP_PROFILE = {"kind": "gaussian-bump", "width": 2.0}
DIRECT = {"sim.scheme": "direct"}

# Malformed configs: (run kind, leaves to set, key the error must name).
MALFORMED = {
    "dimension_bool": ("simulate", {"grid.dimension": True}, "grid.dimension"),
    "half_length_bool": ("simulate", {"grid.half_length": True}, "grid.half_length"),
    "coefficient_bool": ("simulate", {"noise.coefficients[0]": True},
                         "noise.coefficients[0]"),
    "ensemble_size_bool": ("ensemble", {"ensemble.size": True}, "ensemble.size"),
    "picard_lambda_bool": ("picard", {"picard.lambda": True}, "picard.lambda"),
    "seed_bool": ("simulate", {"seed": True}, "seed"),
    "profile_width_str": ("simulate", {**DIRECT, "noise.profiles[0]": BUMP_PROFILE,
                                       "noise.profiles[0].width": "2.0"},
                          "noise.profiles[0].width"),
    "density_value_str": ("simulate", {"noise.densities[0].value": "1.0"},
                          "noise.densities[0].value"),
    "density_values_str": ("simulate", {"noise.densities[0]": {
        "kind": "piecewise-constant", "times": [0.0, 0.5], "values": ["1.0", 1.0]}},
        "noise.densities[0].values"),
    "density_alpha0_str": ("simulate", {"noise.densities[0].alpha0": "1.0"},
                           "noise.densities[0].alpha0"),
    "initial_width_str": ("simulate", {"initial.width": "1.0"}, "initial.width"),
    "initial_amplitude_str": ("simulate", {"initial.amplitude": "1.0"},
                              "initial.amplitude"),
    "initial_mode_str": ("simulate", {"initial": {"kind": "plane-wave", "mode": "1"}},
                         "initial.mode"),
    "fit_window_str": ("simulate", {"diagnostics.fit_window": ["0.01", "0.09"]},
                       "diagnostics.fit_window"),
    "lyapunov_tolerance_str": ("ensemble", {"ensemble.lyapunov_tolerance": "0.5"},
                               "ensemble.lyapunov_tolerance"),
    "max_iterations_str": ("picard", {"picard.max_iterations": "20"},
                           "picard.max_iterations"),
    "sim_alpha_band": ("simulate", {"sim.alpha": 7.0}, "sim.alpha"),
    "picard_alpha_band": ("picard", {"picard.alpha": 9.0}, "picard.alpha"),
    "max_iterations_zero": ("picard", {"picard.max_iterations": 0},
                            "picard.max_iterations"),
    "tolerance_negative": ("picard", {"picard.tolerance": -1.0}, "picard.tolerance"),
    "initial_mode_fraction": ("simulate", {"initial": {"kind": "plane-wave",
                                                       "mode": 1.5}}, "initial.mode"),
    "density_horizon_short": ("simulate", {"noise.densities[0].horizon": 0.05},
                              "noise.densities[0]"),
    "fit_window_outside_run": ("simulate", {"diagnostics.fit_window": [5.0, 9.0]},
                               "diagnostics.fit_window"),
    "initial_center_dimension": ("simulate", {"initial.center": [0.0, 0.0]},
                                 "initial.center"),
    "profile_table_length": ("simulate", {**DIRECT, "noise.profiles[0]": {
        "kind": "tabulated", "values": [1.0, 1.0, 1.0]}}, "noise.profiles[0].values"),
    "profile_center_dimension": ("simulate", {**DIRECT, "noise.profiles[0]": {
        **BUMP_PROFILE, "center": [0.0, 0.0]}}, "noise.profiles[0].center"),
    "zero_gaussian_normalized": ("simulate", {"initial": {
        "kind": "gaussian", "amplitude": 0.0, "l2_norm": 1.0}}, "initial.l2_norm"),
    # the unscaled norm overflows, or underflows to 0, from a nonzero field
    "gaussian_amplitude_huge_normalized": ("simulate", {"initial": {
        "kind": "gaussian", "amplitude": 1e200, "l2_norm": 1.0}}, "initial.amplitude"),
    "gaussian_amplitude_tiny_normalized": ("simulate", {"initial": {
        "kind": "gaussian", "amplitude": 1e-200, "l2_norm": 1.0}}, "initial.amplitude"),
    "zero_constant_decay_fit": ("simulate", {"initial": {"kind": "constant",
                                                         "value": 0.0}}, "initial"),
    "t_final_huge": ("simulate", {"sim.t_final": 1e300}, "sim.t_final"),
    "decay_fit_one_step": ("simulate", {"sim.t_final": 0.01}, "sim.t_final"),
    "ensemble_one_step": ("ensemble", {"sim.t_final": 0.01}, "sim.t_final"),
    "picard_path_dt_tiny": ("picard", {"picard.path_dt": 1e-300}, "picard.path_dt"),
    "convergence_reference_dt_tiny": ("convergence", {"convergence": {
        "dts": [0.05, 0.025, 0.0125], "reference_dt": 1e-300}},
        "convergence.reference_dt"),
    # dt / reference_dt overflows a double
    "convergence_reference_dt_subnormal": ("convergence", {"convergence": {
        "dts": [0.05, 0.025, 0.0125], "reference_dt": 5e-324}},
        "convergence.reference_dt"),
    "convergence_dts_fractional_steps": ("convergence", {
        "sim.t_final": 1.0,
        "convergence": {"dts": [0.4, 0.2, 0.1], "reference_dt": 0.0125}},
        "convergence.dts"),
    # integers out of range: each value is refused before anything is allocated
    "initial_mode_overflow": ("simulate", {"initial": {"kind": "plane-wave",
                                                       "mode": [10**23]}}, "initial.mode"),
    "grid_points_huge_1d": ("simulate", {"grid.points": 2**70}, "grid.points"),
    "grid_points_huge_3d": ("simulate", {"grid.dimension": 3, "grid.points": 2**20},
                            "grid.points"),
    "picard_nodes_huge": ("picard", {"picard.nodes": 10**30}, "picard.nodes"),
    "ensemble_size_huge": ("ensemble", {"ensemble.size": 10**30}, "ensemble.size"),
    # finite floats whose square or cell volume overflows a double
    "initial_width_overflow": ("simulate", {"initial.width": 1e155}, "initial.width"),
    # ... or whose squared distance |xi - c|^2 from a grid point does
    "initial_center_far": ("simulate", {"initial.center": [1e308]}, "initial.center"),
    "profile_center_far": ("simulate", {**DIRECT, "noise.profiles[0]": BUMP_PROFILE,
                                        "noise.profiles[0].center": [1e308]},
                           "noise.profiles[0].center"),
    "gaussian_half_length_huge": ("simulate", {"grid.half_length": 1e300}, "initial"),
    "profile_width_overflow": ("simulate", {**DIRECT, "noise.profiles[0]": BUMP_PROFILE,
                                            "noise.profiles[0].width": 1e300},
                               "noise.profiles[0].width"),
    "half_length_overflow": ("simulate", {"grid.dimension": 2, "grid.points": 4,
                                          "grid.half_length": 1e200}, "grid.half_length"),
    # finite floats with a derived value past double range: the spacing 2L/n,
    # a width's square, the decay fit's squared times
    "half_length_spacing_overflow": ("simulate", {"grid.half_length": 1e308},
                                     "grid.half_length"),
    # ... and below it: |k|^2 = (pi n / 2L)^2 overflows, the cell volume
    # (2L/n)^3 underflows to 0
    "half_length_wavenumber_overflow": ("simulate", {"grid.points": 32,
                                                     "grid.half_length": 1e-300},
                                        "grid.half_length"),
    "half_length_cell_volume_underflow": ("simulate", {"grid.dimension": 3,
                                                       "grid.points": 4,
                                                       "grid.half_length": 1e-110,
                                                       "sim.alpha": 1.5},
                                          "grid.half_length"),
    "initial_width_underflow": ("simulate", {"initial.width": 1e-300}, "initial.width"),
    "decay_fit_dt_float_floor": ("simulate", {"sim.dt": 1e-300, "sim.t_final": 1e-299},
                                 "sim.dt"),
    "ensemble_dt_float_floor": ("ensemble", {"sim.dt": 1e-300, "sim.t_final": 1e-299},
                                "sim.dt"),
    # a state whose mass h^d sum |x|^2 overflows a double
    "initial_mass_overflow": ("simulate", {"initial.amplitude": 1e160}, "initial"),
    "ensemble_initial_mass_overflow": ("ensemble", {"initial.l2_norm": 1e300},
                                       "initial"),
    "picard_initial_mass_overflow": ("picard", {"initial.amplitude": 1e308}, "initial"),
    # range checks of the domain constructors, each named by its key
    "t_final_negative": ("simulate", {"sim.t_final": -1.0}, "sim.t_final"),
    "save_every_zero": ("simulate", {"sim.save_every": 0}, "sim.save_every"),
    "picard_horizon_zero": ("picard", {"picard.horizon": 0.0}, "picard.horizon"),
    # the default path_dt, horizon / 1024, underflows to 0; the propagator's
    # |k|^2 t overflows
    "picard_horizon_subnormal": ("picard", {"picard.horizon": 5e-324}, "picard.horizon"),
    "picard_horizon_huge": ("picard", {"picard.horizon": 1e308}, "picard.horizon"),
    # (mu^2 + |mu|^2)/2 overflows: inf for mu = 1e200, inf - inf for mu = 1e200 i
    "ito_correction_overflows": ("picard", {"noise.coefficients": [1e200]},
                                 "noise.coefficients"),
    "ito_correction_overflows_imaginary": ("picard", {"noise.coefficients": [[0, 1e200]]},
                                           "noise.coefficients"),
    "picard_nodes_few": ("picard", {"picard.nodes": 4}, "picard.nodes"),
    "initial_kind_unknown": ("simulate", {"initial.kind": "bogus"}, "initial.kind"),
    "initial_width_zero": ("simulate", {"initial.width": 0.0}, "initial.width"),
    "density_kind_unknown": ("simulate", {"noise.densities[0].kind": "bogus"},
                             "noise.densities[0].kind"),
    "density_times_late_start": ("simulate", {"noise.densities[0]": {
        "kind": "piecewise-constant", "times": [0.5, 1.0], "values": [1.0, 1.0]}},
        "noise.densities[0].times"),
    "density_times_repeated": ("simulate", {"noise.densities[0]": {
        "kind": "piecewise-constant", "times": [0.0, 0.0], "values": [1.0, 1.0]}},
        "noise.densities[0].times"),
    "density_times_length": ("simulate", {"noise.densities[0]": {
        "kind": "piecewise-constant", "times": [0.0, 0.5], "values": [1.0]}},
        "noise.densities[0].times"),
    "density_alpha0_negative": ("simulate", {"noise.densities[0].alpha0": -1.0},
                                "noise.densities[0].alpha0"),
    "density_v_max_zero": ("simulate", {"noise.densities[0].v_max": 0.0},
                           "noise.densities[0].v_max"),
    "profile_width_zero": ("simulate", {**DIRECT, "noise.profiles[0]": BUMP_PROFILE,
                                        "noise.profiles[0].width": 0.0},
                           "noise.profiles[0].width"),
}


def run_captured(cfg, root) -> tuple[int, str]:
    """harness.run on a config written under root; returns (exit code, stderr)."""
    path = Path(root) / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(path, out_dir=str(Path(root) / "out"), threads=1)
    return code, err.getvalue()


class TestMalformedConfigs:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_exits_2_naming_key(self, tmp_path, name):
        kind, leaves, key = MALFORMED[name]
        cfg = short_config(kind)
        for dotted, value in leaves.items():
            put(cfg, dotted, copy.deepcopy(value))  # leaves shared dicts intact
        code, err = run_captured(cfg, tmp_path)
        assert code == EXIT_CONFIG_ERROR, err
        assert f"config error: {key}" in err

    def test_integer_past_the_digit_limit_is_invalid_json(self, tmp_path):
        # json reads an integer of more than 4,300 digits as a ValueError, not
        # a JSONDecodeError: the file was read, and its JSON is not valid input
        path = tmp_path / "config.json"
        path.write_text('{"kind": "validate", "seed": ' + "1" * 5000 + "}", encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(path, out_dir=str(tmp_path / "out"), threads=1)
        assert code == EXIT_CONFIG_ERROR, err.getvalue()
        assert f"config error: config: invalid JSON in {path}" in err.getvalue()


@pytest.mark.filterwarnings("ignore::snls_lab.spectral_grid.SpectralTailWarning")
@pytest.mark.parametrize("leaves", [{}, DIRECT, {**DIRECT, "noise.profiles[0]": BUMP_PROFILE}],
                         ids=["rescaled", "direct", "direct_bump"])
def test_state_whose_spectral_sum_overflows_exits_0(tmp_path, leaves):
    # mass 1e306 on 1,024 points: the spectrum's sum of squares, N/cv times
    # the mass, overflows a double while the mass does not.  Every mass is
    # taken from the physical state and the resolution check squares
    # |vh| / max |vh|, so each run ends with exit 0 and no numpy warning
    # (which the test configuration turns into an error)
    cfg = short_config()
    cfg["grid"]["points"] = 1024
    cfg["initial"]["l2_norm"] = 1e153
    cfg["diagnostics"] = {}
    for dotted, value in leaves.items():
        put(cfg, dotted, copy.deepcopy(value))
    code, err = run_captured(cfg, tmp_path)
    assert code == EXIT_OK, err


# An output file of each kind and the run that writes it: the config echo,
# a CSV, a field dump written inside the march and a report.
OUTPUTS = {"config_echo.json": "simulate", "series.csv": "simulate",
           "field_0002.bin": "simulate", "ensemble_report.json": "ensemble"}


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_unwritable_output_is_config_error(tmp_path, name):
    cfg = short_config(OUTPUTS[name])
    cfg["diagnostics"]["field_dumps"] = True
    (tmp_path / "out" / name).mkdir(parents=True)  # a directory in the file's place
    code, err = run_captured(cfg, tmp_path)
    assert code == EXIT_CONFIG_ERROR, err
    assert f"config error: output_dir: cannot write {tmp_path / 'out' / name}" in err


def read_strict_json(path):
    """The JSON file at path, refusing the NaN and Infinity tokens."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(Path(path).read_text(), parse_constant=refuse)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_picard_report_is_strict_json(tmp_path):
    # mu = 1e5: e^{(alpha-1) Re M} overflows, so the first iterate leaves
    # double range and gamma_tau is infinite; the run warns of neither
    cfg = short_config("picard")
    cfg["noise"]["coefficients"] = [1e5]
    code, err = run_captured(cfg, tmp_path)
    assert code == EXIT_OK, err
    report = read_strict_json(tmp_path / "out" / "picard_report.json")
    assert report["no_contraction"]
    assert report["distances"] == [None] and report["gamma_tau"] is None
    kept = run_picard(RunConfig.from_dict(cfg))
    assert kept.distances == [np.inf] and kept.gamma_tau == np.inf
    # the iterate is the map's last output, the non-finite F(y), not the
    # finite free trajectory it was mapped from
    assert not np.isfinite(kept.iterate).all()


def same(a, b) -> bool:
    """Field-by-field equality of built objects, arrays compared by value."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return type(a) is type(b) and a == b


# Leaves a builder normalizes (an integer half_length, scalar vectors,
# optional keys) for one config of each kind.
REBUILT = {
    "simulate": {**DIRECT, "grid.half_length": 8, "sim.save_every": 2,
                 "noise.profiles[0]": {"kind": "gaussian-bump", "width": 2, "center": 0.5},
                 "initial": {"kind": "plane-wave", "mode": 1}},
    "ensemble": {"noise.densities[0]": {"kind": "piecewise-constant", "times": [0, 0.05],
                                        "values": [1, 2], "horizon": 1},
                 "initial.l2_norm": 1},
    "picard": {"picard.path_dt": 0.001, "initial": {"kind": "constant"}},
    "convergence": {"convergence": {"dts": [0.05, 0.025, 0.0125],
                                    "reference_dt": 0.0015625}},
    "validate": {**DIRECT, "noise.profiles[0]": {"kind": "tabulated", "values": [1] * 64}},
}


@pytest.mark.parametrize("kind", sorted(REBUILT))
def test_builders_rebuild_from_the_echo(kind):
    """The builders read a built config's normalized sections back to equal
    objects and leave its echo unchanged; benchmark setup code builds twice."""
    cfg = short_config(kind)
    for dotted, value in REBUILT[kind].items():
        put(cfg, dotted, copy.deepcopy(value))
    config = RunConfig.from_dict(cfg)
    echo = json.dumps(config.to_dict(), sort_keys=True)
    built = config.built
    grid = build_grid(config)
    assert same(grid, built.grid)
    assert same(build_model(config), built.model)
    assert same(build_initial(config, grid), built.x)
    if config.sim is not None:
        assert same(build_params(config), built.params)
    if config.picard:
        assert same(harness._picard_setup(config), built.picard)
    assert json.dumps(config.to_dict(), sort_keys=True) == echo


# Leaves the fuzzer replaces, and the values it puts there: type swaps, bools
# and strings for numbers, out-of-band numbers, wrong-length tables and
# vectors that do not match the grid dimension.
MUTABLE_KEYS = [
    "seed", "kind", "output_dir", "grid.dimension", "grid.points", "grid.half_length",
    "noise.coefficients", "noise.coefficients[0]", "noise.profiles[0]",
    "noise.profiles[0].width", "noise.densities", "noise.densities[0]",
    "noise.densities[0].value", "noise.densities[0].alpha0",
    "noise.densities[0].v_max", "noise.densities[0].horizon",
    "sim", "sim.lambda", "sim.alpha", "sim.dt", "sim.t_final", "sim.scheme",
    "sim.splitting", "sim.save_every", "initial", "initial.kind", "initial.width",
    "initial.center", "initial.amplitude", "initial.l2_norm", "initial.mode",
    "diagnostics", "diagnostics.decay_fit", "diagnostics.fit_window",
    "diagnostics.residuals", "diagnostics.field_dumps", "ensemble", "ensemble.size",
    "ensemble.lyapunov_tolerance", "picard", "picard.horizon", "picard.nodes",
    "picard.max_iterations", "picard.tolerance", "picard.lambda", "picard.alpha",
    "picard.path_dt", "validate", "validate.horizon",
]
MUTANT_VALUES = [
    True, False, None, "1.0", "x", 0, 1, 2, 3, -1, 7, 1.5, 0.05, 0.1, -1.0, 9.0,
    [], [0.0, 0.0], [1.0, 1.0, 1.0], [5.0, 9.0], [0.02, 0.08], [1, 2], {},
    "direct", "lie", "picard", "ensemble", "validate", "convergence",
    {"kind": "gaussian-bump", "width": 2.0, "center": [0.0, 0.0]},
    {"kind": "gaussian-bump", "width": -2.0},
    {"kind": "tabulated", "values": [1.0, 1.0, 1.0]},
    {"kind": "piecewise-constant", "times": [0.0, 0.05], "values": [1.0]},
    {"kind": "tabulated", "times": [0.0, 0.05], "values": [1.0, 2.0]},
    {"kind": "plane-wave", "mode": [1, 2]},
    {"kind": "constant", "value": 0.0},
]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(kind=st.sampled_from(["simulate", "ensemble", "picard", "validate"]),
       mutations=st.lists(st.tuples(st.sampled_from(MUTABLE_KEYS),
                                    st.sampled_from(MUTANT_VALUES)),
                          min_size=1, max_size=3))
def test_mutated_configs_exit_cleanly(kind, mutations):
    cfg = short_config(kind)
    for dotted, value in mutations:
        try:
            put(cfg, dotted, copy.deepcopy(value))
        except (KeyError, IndexError, TypeError):
            pass  # the mutation removed the key's parent
    with tempfile.TemporaryDirectory() as root:
        code, err = run_captured(cfg, root)
    assert code in (EXIT_OK, EXIT_CONFIG_ERROR, EXIT_ASSUMPTION_VETO,
                    EXIT_NUMERICAL_ABORT), err


# Valid configs whose noise paths carry the runs anywhere: strong
# coefficients, small or large density floors, both schemes, splittings and
# profile kinds, and fit windows the mass may underflow before.  Spatially
# varying runs take the wider draw ``varying``: coefficients up to 1000,
# alpha across the whole band (1, 5) of d = 1, up to 2,000 steps on n = 32,
# and initial amplitudes up to 1e150, which overflow |u|^{alpha-1} and so the
# merged phase angle.
@pytest.mark.filterwarnings("ignore::snls_lab.spectral_grid.SpectralTailWarning")
@settings(derandomize=True, max_examples=200, deadline=None)
@given(kind=st.sampled_from(["simulate", "ensemble"]),
       points=st.sampled_from([32, 64]),
       modulus=st.floats(0.0, 30.0), angle=st.floats(-np.pi, np.pi),
       density=st.floats(0.05, 4.0), floor=st.floats(0.0, 1.0),
       lam=st.sampled_from([-1, 1]), alpha=st.sampled_from([1.5, 2.0, 3.0, 4.5]),
       dt=st.sampled_from([0.005, 0.01, 0.05, 0.2, 0.5]), steps=st.integers(1, 200),
       scheme=st.sampled_from(["rescaled", "direct"]),
       splitting=st.sampled_from(["strang", "lie"]),
       profile=st.sampled_from([{"kind": "constant-one"}, BUMP_PROFILE]),
       fit=st.booleans(), start=st.integers(0, 199), width=st.integers(1, 200),
       varying=st.tuples(st.floats(0.0, 1000.0),
                         st.floats(1.0, 5.0, exclude_min=True, exclude_max=True),
                         st.integers(1, 2000), st.sampled_from([1.0, 1e40, 1e150])))
def test_noisy_dynamics_exit_cleanly(kind, points, modulus, angle, density, floor,
                                     lam, alpha, dt, steps, scheme, splitting,
                                     profile, fit, start, width, varying):
    amplitude = 1.0
    if profile["kind"] != "constant-one":
        # vetoed before the march in any other run
        kind, scheme, fit = "simulate", "direct", False
        modulus, alpha, steps, amplitude = varying
        points = 32
    cfg = short_config(kind)
    cfg["grid"]["points"] = points
    cfg["initial"]["amplitude"] = amplitude
    cfg["noise"] = {"coefficients": [[modulus * np.cos(angle), modulus * np.sin(angle)]],
                    "profiles": [profile],
                    "densities": [{"kind": "constant", "value": density,
                                   "alpha0": floor * density}]}
    cfg["sim"] = {"lambda": lam, "alpha": alpha, "dt": dt, "t_final": dt * steps,
                  "scheme": scheme, "splitting": splitting}
    cfg["diagnostics"] = {"residuals": True}
    if fit:
        start = min(start, steps - 1)
        cfg["diagnostics"].update(decay_fit=True, fit_window=[
            dt * start, dt * min(start + width, steps)])
    with tempfile.TemporaryDirectory() as root:
        code, err = run_captured(cfg, root)
    assert code in (EXIT_OK, EXIT_CONFIG_ERROR, EXIT_ASSUMPTION_VETO,
                    EXIT_NUMERICAL_ABORT), err


# Valid picard configs on n = 32 from no noise to noise that overflows
# e^{(alpha-1) Re M}, on horizons far past the contraction regime.
@settings(derandomize=True, max_examples=60, deadline=None)
@given(modulus=st.one_of(st.just(0.0), st.floats(1e-2, 1e5)),
       angle=st.floats(-np.pi, np.pi), horizon=st.floats(1e-3, 2.0),
       nodes=st.integers(8, 32), lam=st.sampled_from([-1, 0, 1]),
       alpha=st.floats(1.0, 5.0, exclude_min=True, exclude_max=True))
def test_picard_exits_cleanly(modulus, angle, horizon, nodes, lam, alpha):
    cfg = short_config("picard")
    cfg["grid"]["points"] = 32
    cfg["noise"]["coefficients"] = [[modulus * np.cos(angle), modulus * np.sin(angle)]]
    cfg["picard"] = {"horizon": horizon, "nodes": nodes, "lambda": lam, "alpha": alpha}
    with tempfile.TemporaryDirectory() as root:
        code, err = run_captured(cfg, root)
        assert code in (EXIT_OK, EXIT_CONFIG_ERROR, EXIT_ASSUMPTION_VETO,
                        EXIT_NUMERICAL_ABORT), err
        if code == EXIT_OK:
            read_strict_json(Path(root) / "out" / "picard_report.json")


# -- streamed field dumps ---------------------------------------------------------

def dump_config(**sim):
    """The short simulate config with field dumps and the given sim leaves."""
    cfg = short_config()
    cfg["diagnostics"] = {"field_dumps": True}
    cfg["sim"].update(sim)
    return cfg


STREAM_CASES = {
    # X = y e^M, with a complex coefficient so e^M carries a phase
    "rescaled": {"noise.coefficients": [[1.0, 0.5]]},
    "direct_bump": {**DIRECT, "noise.coefficients": [[0.5, 0.2]],
                    "noise.profiles[0]": BUMP_PROFILE},
}


class TestFieldDumpStreaming:
    @pytest.mark.parametrize("case", sorted(STREAM_CASES))
    def test_dumps_equal_kept_snapshots(self, tmp_path, case):
        cfg = dump_config(save_every=3)
        for dotted, value in STREAM_CASES[case].items():
            put(cfg, dotted, copy.deepcopy(value))
        code, err = run_captured(cfg, tmp_path)
        assert code == EXIT_OK, err
        config = RunConfig.from_dict(cfg)
        grid, model, params = build_grid(config), build_model(config), build_params(config)
        x, kept = build_initial(config, grid), []
        integrator.simulate(grid, model, params, x, seed=config.seed,
                            snapshot=lambda k, t, f: kept.append(
                                (k, t, ComplexField(f.values.copy(), f.grid))))
        assert [k for k, _, _ in kept] == [0, 3, 6, 9, 10]
        bare = integrator.simulate(grid, model, params, x, seed=config.seed)
        assert np.array_equal(kept[-1][2].values, bare.final_x.values)
        dumps = sorted((tmp_path / "out").glob("field_*.bin"))
        assert len(dumps) == len(kept)
        for i, (_, t, field) in enumerate(kept):
            ref = tmp_path / f"ref_{i}.bin"
            write_field_dump(field, t, ref)
            assert (tmp_path / "out" / f"field_{i:04d}.bin").read_bytes() \
                == ref.read_bytes()

    @pytest.mark.filterwarnings("ignore::snls_lab.spectral_grid.SpectralTailWarning")
    def test_memory_bounded_by_grid(self, tmp_path):
        # 16^3 direct run dumping every step: keeping the 513 fields of the
        # long run would take 64 MB against 8 MB for the short one
        def traced_peak(steps):
            cfg = dump_config(scheme="direct", alpha=2.0, dt=1e-3, t_final=steps * 1e-3,
                              save_every=1)
            cfg["grid"] = {"dimension": 3, "points": 16, "half_length": 8.0}
            cfg["noise"]["profiles"] = [dict(BUMP_PROFILE)]
            root = tmp_path / str(steps)
            root.mkdir()
            tracemalloc.start()
            try:
                code, err = run_captured(cfg, root)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == EXIT_OK, err
            assert len(list((root / "out").glob("field_*.bin"))) == steps + 1
            return peak

        traced_peak(8)  # warm-up: first-call allocations are not the run's
        assert traced_peak(512) <= 1.25 * traced_peak(64)

    def test_abort_keeps_dumps_written_before_it(self, tmp_path):
        # Re M overflows the mass reconstruction at a time index that is not
        # a save index; no field after it may be dumped
        cfg = dump_config(scheme="direct", dt=1.0, t_final=40.0, save_every=3)
        cfg["seed"] = 2
        cfg["noise"]["coefficients"] = [60.0]
        config = RunConfig.from_dict(cfg)
        grid, model, params = build_grid(config), build_model(config), build_params(config)
        with pytest.raises(NumericalAbort) as err:
            integrator.simulate(grid, model, params, build_initial(config, grid),
                                seed=config.seed)
        abort = err.value.time_index
        assert 0 < abort < params.n_steps and abort % 3 != 0
        code, msg = run_captured(cfg, tmp_path)
        assert code == EXIT_NUMERICAL_ABORT, msg
        dumps = sorted((tmp_path / "out").glob("field_*.bin"))
        saved = list(range(0, abort, 3))
        assert [p.name for p in dumps] == [f"field_{i:04d}.bin" for i in range(len(saved))]
        for path, k in zip(dumps, saved):
            field, t = read_field_dump(path)
            assert field.grid == grid and t == float(k)
