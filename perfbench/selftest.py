#!/usr/bin/env python3
"""Self-test of the benchmark at smoke size (about 15 s).

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is printed with its unit on
every workload, that a traced run writes the same digests as an untraced
one, and that a corrupted output file trips its workload's gate.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from workloads import WORKLOADS, GateFailure  # noqa: E402

SEED = 3


def run_bench(name: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{name} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    with open(os.path.join(HERE, "results",
                           f"{name}-seed{SEED}-trace{trace}-smoke.json"),
              encoding="utf-8") as fh:
        result["digests"] = json.load(fh)["digests"]
    result["printed"] = lines[:-1]
    return result


def check_metrics(name: str, trace: int, result: dict, spec: list) -> None:
    if set(result) - {"digests", "printed"} != {"correct", "attempted", "failed",
                                                "metrics"}:
        raise AssertionError(f"{name}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        raise AssertionError(f"{name} trace {trace}: a call failed")
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        raise AssertionError(f"{name} trace {trace}: metrics {got} != {want}")
    for metric, unit in want.items():
        if not any(line.split()[:2] == [metric, "="] and line.split()[3] == unit
                   for line in result["printed"]):
            raise AssertionError(f"{name}: {metric} not printed with unit {unit}")


def corruptions(name: str, out: str):
    """(description, edit) pairs; each edit damages the output in place."""
    def edit_json(file, change):
        def apply():
            path = os.path.join(out, file)
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            change(data)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
        return apply

    def truncate(file, drop):
        def apply():
            path = os.path.join(out, file)
            with open(path, "rb") as fh:
                data = fh.read()
            with open(path, "wb") as fh:
                fh.write(data[:-drop])
        return apply

    def inflate_residual(file):
        def apply():
            path = os.path.join(out, file)
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
            t, _ = lines[-1].split(",")
            lines[-1] = f"{t},1e300\n"
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(lines)
        return apply

    if name == "ensemble_decay_1d":
        file = "ensemble_report.json"
        return [("aborted path", edit_json(file, lambda d: d["per_path"][0].update(
                    status="aborted at time index 7"))),
                ("slow decay", edit_json(file, lambda d: [p.update(lyapunov=0.0)
                                                          for p in d["per_path"]])),
                ("envelope violation", edit_json(file, lambda d: d["per_path"][-1].update(
                    gronwall_violations=1)))]
    if name == "simulate_bump_3d":
        dump = sorted(f for f in os.listdir(out) if f.startswith("field_"))[1]
        return [("mass residual", inflate_residual("mass_residual.csv")),
                ("truncated series", truncate("series.csv", 40)),
                ("truncated dump", truncate(dump, 16)),
                ("missing dump", lambda: os.remove(os.path.join(out, dump)))]
    file = "picard_report.json"
    return [("ratio above one", edit_json(file, lambda d: d["ratios"].append(1.25))),
            ("not converged", edit_json(file, lambda d: d.update(converged=False)))]


def check_gates(name: str) -> None:
    from snls_lab import harness

    workload = WORKLOADS[name]
    cfg = workload.configs(SEED, True)[0]
    work = os.path.join(HERE, "work", f"selftest-{name}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        path = os.path.join(work, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        clean = os.path.join(work, "clean")
        if harness.run(path, out_dir=clean, threads=workload.threads) != 0:
            raise AssertionError(f"{name}: smoke run failed")
        workload.gate(clean, cfg)
        out = os.path.join(work, "damaged")
        for i, (what, _) in enumerate(corruptions(name, clean)):
            shutil.rmtree(out, ignore_errors=True)
            shutil.copytree(clean, out)
            corruptions(name, out)[i][1]()
            try:
                workload.gate(out, cfg)
            except GateFailure:
                continue
            raise AssertionError(f"{name}: {what} passed the gate")
        if workloads.digest(clean) == workloads.digest(out):
            raise AssertionError(f"{name}: digest blind to a damaged file")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        raise AssertionError("BENCHMARK.json workloads differ from workloads.py")
    for name in WORKLOADS:
        plain = run_bench(name, 0)
        check_metrics(name, 0, plain, spec["end_to_end"])
        traced = run_bench(name, 1)
        check_metrics(name, 1, traced, spec["per_layer"])
        if plain["digests"] != traced["digests"]:
            raise AssertionError(f"{name}: traced digests differ from untraced")
        check_gates(name)
        print(f"ok  {name}: metrics and units, traced digests, corrupted outputs")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
