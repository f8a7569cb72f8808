"""geodiss benchmark: one workload per invocation, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: rigid_threshold, sombrero_orbit, sombrero_cycle, cli_basin_4d
(README.md in this directory says why each exists and which layers it
stresses). The library is imported from ``src/`` of the checkout that holds
this directory; nothing is installed.

With ``--trace 0`` it times the set-up of several fresh processes, then runs
the workload's job in one fresh worker process, repeatedly for about
``--seconds`` seconds (at least two jobs), and reports the end-to-end
metrics: the median wall and CPU time of a job and the mean set-up time,
all in reference seconds (reference.py says why), and the worker's peak
RSS. With ``--trace 1`` the worker alternates untraced and traced jobs, and
reports the per-layer metrics and the tracing overhead.

Every answer is checked against analytic ground truth. Before the final
JSON line it prints a provenance block, the job's machine-independent counts
(also compared with the counts an earlier run of the same source and seed
recorded under ``.bench_run/counts``) and one line per metric with its unit.
``failed_frac`` is printed there; the JSON line carries it as
``failed`` / ``attempted``.

``--size tiny`` and ``--inject-wrong-answer`` exist for smoke.py.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

THREAD_CAP = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# before numpy is imported, here (reference.py) and in every child
for _var in THREAD_VARS:
    os.environ[_var] = str(THREAD_CAP)

from reference import SLICE_ITERATIONS, in_reference_seconds, time_reference  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 7
SETUP_REFERENCE_ITERATIONS = 1000
DEADLINE_S = 170.0

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def worker_args(args) -> list:
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size]
    if args.inject_wrong_answer:
        cmd.append("--wrong")
    return cmd


def setup_seconds(args, env, deadline) -> tuple[float, list]:
    """Time from process start until the job could begin, in reference seconds.

    One untimed probe first, so compiling the sources into ``__pycache__``
    is not counted. A probe is a child process, so the reference loop runs
    here before every timed probe and after the last, rather than during
    them. Returns the reference-second figure and the probes' own times.
    """
    times = []
    reference_s = 0.0
    for i in range(1 + (2 if args.size == "tiny" else SETUP_PROBES)):
        if i:
            reference_s += time_reference(SETUP_REFERENCE_ITERATIONS)[0]
        t0 = time.perf_counter()
        proc = subprocess.Popen(worker_args(args) + ["--probe"], env=env,
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.close()
            code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe exited with code {code}")
        if i:
            times.append(elapsed)
    reference_s += time_reference(SETUP_REFERENCE_ITERATIONS)[0]
    # the mean probe, over the mean speed of the passes around the probes
    passes = len(times) + 1
    return in_reference_seconds(statistics.mean(times), passes * SETUP_REFERENCE_ITERATIONS,
                                reference_s), times


def source_digest(top: str) -> str:
    """sha256 over the .py and .json files under a directory."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def provenance(args, numpy_version: str) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {"workload": args.workload, "seed": args.seed, "size": args.size,
            "seconds": args.seconds, "trace": args.trace, "commit": commit,
            "source_sha256": source_digest(os.path.join(ROOT, "src")),
            "benchmark_sha256": source_digest(HERE), "nproc": os.cpu_count(),
            "cpu_model": cpu_model, "python": platform.python_version(),
            "numpy": numpy_version, "thread_cap": THREAD_CAP}


def check_recorded_counts(args, digest: str, counts: dict) -> list:
    """Compare counts with those recorded by earlier runs of the same code and seed.

    ``digest`` names the code: the library's sources and the benchmark's own.
    """
    path = os.path.join(ROOT, ".bench_run", "counts",
                        f"{args.workload}-{args.size}-seed{args.seed}.json")
    record = {}
    if os.path.exists(path):
        with open(path) as fh:
            record = json.load(fh)
    known = record.get(digest, {})
    differ = sorted(k for k in known.keys() & counts.keys() if known[k] != counts[k])
    record[digest] = {**known, **counts}
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path + ".tmp", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)
    return differ


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("normal", "tiny"), default="normal")
    ap.add_argument("--inject-wrong-answer", action="store_true",
                    help="expect a wrong answer; every job must then fail")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "geodiss", "__init__.py")):
        print(f"no geodiss sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    env = child_env()

    setup_s, probe_s = (None, None) if args.trace else setup_seconds(args, env, deadline)
    cmd = worker_args(args) + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    # its own process group, so a timeout also stops a `geodiss` child
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("worker did not finish in time", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not stdout.strip():
        print(f"worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    out = json.loads(stdout.strip().splitlines()[-1])

    prov = provenance(args, out["numpy"])
    jobs = out["jobs"]
    counts = jobs[0]["counts"]
    differ = check_recorded_counts(
        args, prov["source_sha256"] + prov["benchmark_sha256"], counts)
    failed = sum(1 for j in jobs if j["problems"])
    if differ:
        # the counts of this run's jobs agree with each other but not with an
        # earlier process given the same source and seed
        print(f"counts differ from an earlier run: {differ}", file=sys.stderr)
        failed = len(jobs)
    for j in jobs:
        for problem in j["problems"][:3]:
            print(f"{j['run_id']}: {problem}", file=sys.stderr)
    if out["missing_hooks"]:
        print(f"hooks not found, their metrics read 0: {out['missing_hooks']}",
              file=sys.stderr)

    if args.trace:
        metrics = {name: {"value": out["layer"].get(name, 0), "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        # the median over jobs of each job's time in reference seconds
        values = {name: statistics.median(
                      in_reference_seconds(j[name], j["slices"] * SLICE_ITERATIONS,
                                           j[f"slice_{name}"]) for j in jobs)
                  for name in ("wall_s", "cpu_s")}
        values.update(setup_s=setup_s, peak_rss_mb=out["peak_rss_mb"])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        # the plain figures, before the reference loop's speed rescales them
        measured = {"job_wall_s": [round(j["wall_s"], 4) for j in jobs],
                    "job_cpu_s": [round(j["cpu_s"], 4) for j in jobs],
                    "probe_s": [round(t, 4) for t in probe_s],
                    "slices": [j["slices"] for j in jobs],
                    "slice_ms": [round(1e3 * j["slice_wall_s"] / max(1, j["slices"]), 3)
                                 for j in jobs]}

    print("provenance " + json.dumps(prov, sort_keys=True))
    print("counts " + json.dumps(counts, sort_keys=True))
    if args.trace:
        print(f"spans {out['spans_file']}")
    else:
        print("measured " + json.dumps(measured, sort_keys=True))
    for name, m in metrics.items():
        print(f"metric {name} {m['value']} {m['unit']}")
    print(f"metric failed_frac {failed / len(jobs)} ratio")
    print(json.dumps({"correct": failed == 0, "attempted": len(jobs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
