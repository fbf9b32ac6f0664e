#!/usr/bin/env python3
"""snls-lab benchmark: runs one workload through ``snls_lab.harness.run``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load is closed-loop from one client: a round of ``harness.run`` calls (one
call, or five for picard_sweep_2d) starts only after the previous round
finished, until S seconds have passed.  Every call's output files pass the
workload's gate and are digested; repeats of one input must give one digest.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the same
loop under the span recorder and prints the per-layer metrics.  The last
stdout line is the JSON result; the full result, with the environment stamp
and digests, is also written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

# One BLAS thread: the ensemble already puts one worker on each core, and on
# a shared two-core machine BLAS threads made single-run times swing by 40%.
# Set before numpy loads; the setup interpreters inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")
RESULTS = os.path.join(HERE, "results")
SETUP_REPEATS = 5
# Round times on a shared machine switch between a fast and a slow state
# (1.3 s and 2.2 s for the same simulate call), so one short round is a
# coin toss; wall_s takes the median over blocks of at least this much.
BLOCK_S = 4.0

END_TO_END_UNITS = {"wall_s": "s", "throughput_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB", "ok_frac": "frac"}
PER_LAYER_UNITS = {
    "integrator.us_per_path_step": "us", "integrator.transforms_per_path_step": "count",
    "integrator.snapshot_mb": "MB", "harness.pool_busy_frac": "frac",
    "harness.config_load_s": "s", "harness.config_loads": "count",
    "harness.build_s": "s", "harness.write_s": "s", "harness.bytes_written": "B",
    "noise_process.sample_s": "s", "seeding.normals_s": "s",
    "diagnostics.self_s": "s", "mild_picard.self_s": "s",
    "mild_picard.iterations": "count", "mild_picard.s_per_iteration": "s",
    "mild_picard.transforms_per_iteration": "count",
    "spectral_grid.fft_pair_us": "us", "spectral_grid.fft_pair_bytes_computed": "B",
    "trace.overhead_frac": "frac",
}

# Time from a fresh interpreter to a run ready to step: import, parse and
# validate the config, build grid, noise model, parameters and initial state.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from snls_lab import harness
config = harness.RunConfig.from_file(sys.argv[2])
grid = harness.build_grid(config)
harness.build_model(config)
if config.sim is not None:
    harness.build_params(config)
harness.build_initial(config, grid)
print(time.perf_counter() - t0)
"""


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = os.path.join(ROOT, ".git", "HEAD")
    revision = "unknown (not a git checkout)"
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        revision = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    revision = fh.read().strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_revision": revision,
        "start_method": multiprocessing.get_start_method(),
    }


def _bytes_in(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def run_loop(workload, seed: int, seconds: float, smoke: bool, tag: str) -> dict:
    """Closed-loop rounds until ``seconds`` pass; gates and digests every call."""
    from snls_lab import harness

    from workloads import GateFailure, digest

    work = os.path.join(WORK, f"{workload.name}-{tag}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    paths = []
    for i, cfg in enumerate(workload.configs(seed, smoke)):
        path = os.path.join(work, f"config_{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        paths.append((path, cfg))

    rounds, digests, failures = [], {}, []
    attempted = work_done = bytes_written = 0
    peak_rss = 0.0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        round_wall = 0.0
        for i, (path, cfg) in enumerate(paths):
            out = os.path.join(work, f"out_{i}")
            shutil.rmtree(out, ignore_errors=True)
            attempted += 1
            try:
                t0 = time.perf_counter()
                code = harness.run(path, out_dir=out, threads=workload.threads)
                wall = time.perf_counter() - t0
                round_wall += wall
                if attempted == 1:  # before any gate or setup child adds to it
                    peak_rss = peak_rss_mb()
                if code != 0:
                    raise GateFailure(f"exit code {code}")
                done = workload.gate(out, cfg)
                d = digest(out)
                if digests.setdefault(i, d) != d:
                    raise GateFailure(f"config {i}: digest {d} differs from "
                                      f"the first repeat's {digests[i]}")
            except Exception as exc:  # a failed call is counted, never fatal
                failures.append(f"config {i}: {type(exc).__name__}: {exc}")
                traceback.print_exc(file=sys.stderr)
                continue
            work_done += done
            bytes_written += _bytes_in(out)
        rounds.append(round_wall)
    shutil.rmtree(work, ignore_errors=True)
    return {"rounds": rounds, "attempted": attempted, "failures": failures,
            "work_done": work_done, "digests": digests,
            "bytes_written": bytes_written, "peak_rss_mb": peak_rss}


def blocked_median(rounds: list, minimum: float = BLOCK_S) -> float:
    """Median round time over blocks of consecutive rounds that together take
    at least ``minimum`` seconds; a short tail block is dropped."""
    blocks, total, count = [], 0.0, 0
    for t in rounds:
        total, count = total + t, count + 1
        if total >= minimum:
            blocks.append(total / count)
            total, count = 0.0, 0
    return statistics.median(blocks) if blocks else total / count


def peak_rss_mb() -> float:
    """Largest resident set so far of this process or of any child it reaped."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


def setup_seconds(workload, seed: int, smoke: bool) -> list:
    work = os.path.join(WORK, f"{workload.name}-setup")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    path = os.path.join(work, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(workload.configs(seed, smoke)[0], fh)
    times = []
    try:
        for _ in range(SETUP_REPEATS):
            proc = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC, path],
                                  capture_output=True, text=True, timeout=120,
                                  cwd=ROOT, check=True)
            times.append(float(proc.stdout.strip().splitlines()[-1]))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return times


def fft_pair_us(cfg: dict, budget_s: float = 0.3) -> float:
    """Median time of one forward_transform + inverse_transform at the grid."""
    from snls_lab import spectral_grid

    g = cfg["grid"]
    grid = spectral_grid.make_grid(g["dimension"], g["points"], g["half_length"])
    field = spectral_grid.gaussian_field(grid)
    samples = []
    start = time.perf_counter()
    while len(samples) < 20 or time.perf_counter() - start < budget_s:
        t0 = time.perf_counter()
        spectral_grid.inverse_transform(spectral_grid.forward_transform(field), grid)
        samples.append(time.perf_counter() - t0)
    return 1e6 * statistics.median(samples)


def traced_metrics(workload, seed, seconds, smoke) -> tuple[dict, dict]:
    import spans

    rec = spans.Recorder(os.path.join(WORK, f"{workload.name}-spans"))
    shutil.rmtree(rec.spill_dir, ignore_errors=True)
    rec.install()
    try:
        loop = run_loop(workload, seed, seconds, smoke, "trace")
        trace = rec.collect()
    finally:
        rec.uninstall()
        shutil.rmtree(rec.spill_dir, ignore_errors=True)
    runs = loop["attempted"]
    metrics = spans.layer_metrics(trace, runs, workload.threads)
    metrics["harness.bytes_written"] = loop["bytes_written"] / runs
    first = workload.configs(seed, smoke)[0]
    metrics["spectral_grid.fft_pair_us"] = fft_pair_us(first)
    size = first["grid"]["points"] ** first["grid"]["dimension"]
    # Computed, not measured: each transform reads and writes n^d complex128.
    metrics["spectral_grid.fft_pair_bytes_computed"] = 2 * 2 * 16 * size
    span_cost, count_cost = spans.calibrate()
    fft_calls = sum(s["fft"] for s in trace if s["parent"] is None)
    metrics["trace.overhead_frac"] = \
        (len(trace) * span_cost + fft_calls * count_cost) / sum(loop["rounds"])
    return metrics, loop


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's self-test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "snls_lab", "__init__.py")):
        print(f"error: no snls_lab sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import snls_lab

    if os.path.dirname(os.path.dirname(os.path.abspath(snls_lab.__file__))) != SRC:
        print(f"error: snls_lab imported from {snls_lab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("error: --seed must be in [0, 2^64)", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    env = environment()
    env["loadavg_before"] = os.getloadavg()
    if args.trace:
        metrics, loop = traced_metrics(workload, args.seed, args.seconds, args.smoke)
        units = PER_LAYER_UNITS
    else:
        loop = run_loop(workload, args.seed, args.seconds, args.smoke, "e2e")
        setup = setup_seconds(workload, args.seed, args.smoke)
        wall = blocked_median(loop["rounds"])
        metrics = {
            "wall_s": wall,
            "throughput_per_s": loop["work_done"] / len(loop["rounds"]) / wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": loop["peak_rss_mb"],
            "ok_frac": 1.0 - len(loop["failures"]) / loop["attempted"],
        }
        units = END_TO_END_UNITS
    env["loadavg_after"] = os.getloadavg()
    metrics = {name: metrics[name] for name in units}

    attempted, failed = loop["attempted"], len(loop["failures"])
    rounds = sorted(loop["rounds"])
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(rounds)}  calls {attempted}  failed {failed}")
    print(f"  round wall s: min {rounds[0]:.4f}  median {statistics.median(rounds):.4f}"
          f"  max {rounds[-1]:.4f}")
    print("  env " + json.dumps(env))
    for i, d in sorted(loop["digests"].items()):
        print(f"  digest config_{i} sha256 {d}")
    for msg in loop["failures"]:
        print(f"  FAILED {msg}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    if not args.trace:
        per_s = metrics["throughput_per_s"]
        named = ("path_steps_per_s" if workload.work_unit == "path_steps"
                 else "picard_iters_per_s")
        print(f"  {named} = {per_s:.6g} 1/s   (throughput_per_s on this workload)")
        print(f"  failed_frac = {failed / attempted:.6g} frac   (1 - ok_frac)")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    os.makedirs(RESULTS, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.smoke:
        stem += "-smoke"
    with open(os.path.join(RESULTS, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump({**result, "workload": workload.name, "seed": args.seed,
                   "seconds": args.seconds, "smoke": args.smoke, "env": env,
                   "rounds_s": loop["rounds"], "work_done": loop["work_done"],
                   "work_unit": workload.work_unit,
                   "digests": loop["digests"], "failures": loop["failures"]},
                  fh, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
