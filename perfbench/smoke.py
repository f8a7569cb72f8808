"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

For every workload, a ``--trace 0`` run must be correct and print every
end-to-end metric with its unit. A ``--trace 1`` run that expects a
deliberately wrong answer must print every per-layer metric with its unit
and report every job as failed. Last, a directory that holds only
BENCHMARK.json and this directory must make run.py fail without a result.
Exits non-zero on the first failed assertion.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from run import END_TO_END, ROOT
from tracing import PER_LAYER
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def bench(*args, cwd=HERE, run=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, run, "--seed", "3", "--seconds", "1", *args],
                          capture_output=True, text=True, timeout=180, cwd=cwd)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units(res):
    return {name: m["unit"] for name, m in res["metrics"].items()}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(PER_LAYER)

    for workload in WORKLOADS:
        proc = bench("--workload", workload, "--trace", "0", "--size", "tiny")
        res = result(proc)
        assert res["correct"] and res["failed"] == 0, (workload, proc.stderr)
        assert res["attempted"] >= 2, res
        assert units(res) == dict(END_TO_END), res
        assert all(m["value"] > 0 for m in res["metrics"].values()), res
        assert "metric failed_frac 0.0 ratio" in proc.stdout

        proc = bench("--workload", workload, "--trace", "1", "--size", "tiny",
                     "--inject-wrong-answer")
        res = result(proc)
        assert not res["correct"] and res["failed"] == res["attempted"], (workload, res)
        assert units(res) == dict(PER_LAYER), res
        assert "metric failed_frac 1.0 ratio" in proc.stdout
        print(f"smoke: {workload} ok", flush=True)

    bare = os.path.join(ROOT, ".bench_run", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = bench("--workload", "sombrero_cycle", "--trace", "0", cwd=bare,
                 run=os.path.join("perfbench", "run.py"))
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    shutil.rmtree(bare)
    print("smoke: all ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
