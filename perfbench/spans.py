"""Span recorder put around snls_lab's public functions from outside the package.

Nothing under src/ changes.  ``Recorder.install`` replaces each traced
function on its module and on every other snls_lab module that bound it by
``from .x import y``, so calls through either name are seen, and it counts
calls into ``numpy.fft`` so spans carry their transform counts.

Pool workers are forked from the benchmark process and inherit the
wrappers; each worker writes its spans to ``<spill_dir>/spans-<pid>.jsonl``
when a path finishes, and ``collect`` merges them.
"""

from __future__ import annotations

import functools
import inspect
import json
import multiprocessing
import os
import sys
import time

import numpy as np

# Layers are the package modules; ``rescaling`` has no function on any run
# path and ``cli`` is argparse only, so neither is traced.
LAYER_MODULES = ("harness", "integrator", "spectral_grid", "noise_process",
                 "seeding", "diagnostics", "mild_picard")
# Private harness functions on the run paths: the pool task and file output.
HARNESS_PRIVATE = ("_ensemble_member", "_emit_simulate", "_write_json")
CONFIG_SPANS = {"harness.RunConfig.from_file", "harness.RunConfig.from_dict"}
BUILD_SPANS = {"harness.build_grid", "harness.build_model", "harness.build_params",
               "harness.build_initial"}
WRITE_SPANS = {"harness.save_series_csv", "harness.write_field_dump",
               "harness._write_json", "noise_process.path_to_csv",
               "diagnostics.residual_to_csv"}
FFT_FUNCTIONS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
                 "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")


def _simulate_attrs(args, kwargs, record) -> dict:
    params = args[2] if len(args) > 2 else kwargs["params"]
    snap = sum(f.values.nbytes for f in record.snapshots_x + record.snapshots_y)
    return {"steps": params.n_steps, "snapshot_bytes": snap}


def _picard_attrs(args, kwargs, report) -> dict:
    return {"iterations": report.iterations}


ATTRS = {"integrator.simulate": _simulate_attrs,
         "mild_picard.picard_iterate": _picard_attrs}


class Recorder:
    """In-memory spans: name, layer, start, end, parent span, process."""

    def __init__(self, spill_dir: str):
        self.spill_dir = spill_dir
        self.main_pid = os.getpid()
        self.pid = self.main_pid
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self.next_id = 0
        self.fft_calls = 0
        self._replaced: list[tuple] = []

    # -- recording -------------------------------------------------------------

    def _enter_process(self) -> None:
        pid = os.getpid()
        if pid != self.pid:  # a forked pool worker starts an empty trace
            self.pid, self.spans, self.stack = pid, [], []

    def wrap(self, fn, name: str):
        rec = self
        layer = name.split(".", 1)[0]
        attrs = ATTRS.get(name)
        spill = name == "harness._ensemble_member"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec._enter_process()
            sid = f"{rec.pid}:{rec.next_id}"
            rec.next_id += 1
            parent = rec.stack[-1] if rec.stack else None
            rec.stack.append(sid)
            fft0 = rec.fft_calls
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                rec.stack.pop()
                span = {"id": sid, "parent": parent, "name": name, "layer": layer,
                        "t0": t0, "t1": t1, "pid": rec.pid,
                        "fft": rec.fft_calls - fft0}
                if attrs is not None and result is not None:
                    span.update(attrs(args, kwargs, result))
                rec.spans.append(span)
                if spill and rec.pid != rec.main_pid:
                    rec._spill()

        return traced

    def _count(self, fn):
        rec = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            rec.fft_calls += 1
            return fn(*args, **kwargs)

        return counted

    def _spill(self) -> None:
        path = os.path.join(self.spill_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def collect(self) -> list[dict]:
        """Spans of this process plus those the pool workers spilled."""
        out = list(self.spans)
        for name in sorted(os.listdir(self.spill_dir)):
            if name.startswith("spans-"):
                path = os.path.join(self.spill_dir, name)
                with open(path, encoding="utf-8") as fh:
                    out.extend(json.loads(line) for line in fh)
                os.remove(path)
        self.spans = []
        return out

    # -- installing ------------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._replaced.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        import snls_lab.harness  # noqa: F401  (imports every layer module)

        if multiprocessing.get_start_method() != "fork":
            raise RuntimeError("the traced run needs the fork start method so "
                               "pool workers inherit the span wrappers")
        os.makedirs(self.spill_dir, exist_ok=True)
        package = [m for n, m in sorted(sys.modules.items())
                   if n == "snls_lab" or n.startswith("snls_lab.")]
        swaps = {}
        for short in LAYER_MODULES:
            module = sys.modules[f"snls_lab.{short}"]
            for attr, obj in list(vars(module).items()):
                if not (inspect.isfunction(obj) and obj.__module__ == module.__name__):
                    continue
                if attr.startswith("_") and not (short == "harness"
                                                 and attr in HARNESS_PRIVATE):
                    continue
                swaps[id(obj)] = (obj, self.wrap(obj, f"{short}.{attr}"))
        for module in package:
            for attr, obj in list(vars(module).items()):
                if id(obj) in swaps and swaps[id(obj)][0] is obj:
                    self._replace(module, attr, swaps[id(obj)][1])
        config_cls = sys.modules["snls_lab.harness"].RunConfig
        for attr in ("from_file", "from_dict"):
            fn = config_cls.__dict__[attr].__func__
            self._replace(config_cls, attr,
                          classmethod(self.wrap(fn, f"harness.RunConfig.{attr}")))
        for attr in FFT_FUNCTIONS:
            self._replace(np.fft, attr, self._count(getattr(np.fft, attr)))

    def uninstall(self) -> None:
        while self._replaced:
            owner, attr, original = self._replaced.pop()
            setattr(owner, attr, original)


# -- per-layer metrics -----------------------------------------------------------

def _dur(span) -> float:
    return span["t1"] - span["t0"]


def _outermost(spans, names) -> list:
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        if s["name"] not in names:
            continue
        parent = by_id.get(s["parent"])
        while parent is not None and parent["name"] not in names:
            parent = by_id.get(parent["parent"])
        if parent is None:
            out.append(s)
    return out


def self_time(spans, layer: str) -> float:
    """Time inside the layer minus the part its callees in other layers cover."""
    by_id = {s["id"]: s for s in spans}
    total = 0.0
    for s in spans:
        parent = by_id.get(s["parent"])
        parent_layer = parent["layer"] if parent is not None else None
        if s["layer"] == layer and parent_layer != layer:
            total += _dur(s)
        elif s["layer"] != layer and parent_layer == layer:
            total -= _dur(s)
    return total


def layer_metrics(spans: list, runs: int, threads: int) -> dict:
    """Per-layer figures from one traced run; ``runs`` counts harness.run calls.

    Times and counts are per harness.run call, summed over processes; a layer
    that is not on the workload's path reads 0.
    """
    def named(name):
        return [s for s in spans if s["name"] == name]

    def ratio(a, b):
        return a / b if b else 0.0

    sims = named("integrator.simulate")
    steps = sum(s["steps"] for s in sims)
    picards = named("mild_picard.picard_iterate")
    iters = sum(s["iterations"] for s in picards)
    members = [s for s in named("harness._ensemble_member") if s["parent"] is None]
    configs = _outermost(spans, CONFIG_SPANS)
    return {
        "integrator.us_per_path_step": 1e6 * ratio(sum(map(_dur, sims)), steps),
        "integrator.transforms_per_path_step": ratio(sum(s["fft"] for s in sims), steps),
        "integrator.snapshot_mb": 1e-6 * ratio(sum(s["snapshot_bytes"] for s in sims),
                                               len(sims)),
        "harness.pool_busy_frac": ratio(
            sum(map(_dur, members)),
            threads * sum(map(_dur, named("harness.run_ensemble")))),
        "harness.config_load_s": ratio(sum(map(_dur, configs)), runs),
        "harness.config_loads": ratio(len(configs), runs),
        "harness.build_s": ratio(sum(map(_dur, _outermost(spans, BUILD_SPANS))), runs),
        "harness.write_s": ratio(sum(map(_dur, _outermost(spans, WRITE_SPANS))), runs),
        "noise_process.sample_s": ratio(
            sum(map(_dur, named("noise_process.sample_martingale"))), runs),
        "seeding.normals_s": ratio(sum(map(_dur, named("seeding.normals"))), runs),
        "diagnostics.self_s": ratio(self_time(spans, "diagnostics"), runs),
        "mild_picard.self_s": ratio(self_time(spans, "mild_picard"), runs),
        "mild_picard.iterations": ratio(iters, len(picards)),
        "mild_picard.s_per_iteration": ratio(sum(map(_dur, picards)), iters),
        "mild_picard.transforms_per_iteration": ratio(sum(s["fft"] for s in picards),
                                                      iters),
    }


def calibrate(calls: int = 20000) -> tuple[float, float]:
    """Seconds one span and one counted transform call add to the call they wrap."""
    def noop():
        return None

    rec = Recorder(spill_dir="")
    costs = []
    for wrapped in (rec.wrap(noop, "trace.calibrate"), rec._count(noop)):
        elapsed = []
        for fn in (noop, wrapped):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            elapsed.append(time.perf_counter() - t0)
        costs.append(max(0.0, (elapsed[1] - elapsed[0]) / calls))
        rec.spans.clear()
    return costs[0], costs[1]
