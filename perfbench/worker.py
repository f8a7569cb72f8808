"""One workload in a fresh process: repeat its job for a time budget.

run.py starts this with the thread caps and ``PYTHONPATH`` already set, once
per setup probe (``--probe``: set up, print ``ready``, exit) and once for the
measured run. The measured run prints one JSON object as its last line:
every job's wall and CPU time, its problems and counts, the process's peak
RSS, and with ``--trace 1`` the per-layer metrics of the traced jobs. With
``--trace 0`` every job also records the reference slices run during it
(see reference.py).

Every job runs with counting wrappers on (see tracing.py). A job fails when
it raises, when its answer disagrees with ground truth, or when its counts
differ from the first job's, since the same inputs must give the same counts.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

from reference import Sampler, time_reference
from tracing import Tracer, job_counts, layer_metrics
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# two jobs at least: the CLI workload compares the output of two
# invocations, and a traced run needs an untraced and a traced job
MIN_JOBS = 2


def child_usage():
    """(CPU seconds, peak RSS in MB) of the child processes waited for."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def one_job(wl, tracer, traced: bool, run_id: str, sampler=None) -> tuple[dict, list]:
    """One job, timed. With a ``sampler``, the reference slices it ran during
    the job (or the CLI child's, read back by the workload) are recorded and
    their time is taken out of the job's."""
    tracer.reset()
    tracer.spans_on = traced
    before = sampler.totals() if sampler else (0, 0.0, 0.0)
    cpu0 = time.process_time()
    child_cpu0, _ = child_usage()
    t0 = time.perf_counter()
    try:
        result = wl.run(tracer)
        problems, counts = wl.check(result)
    except Exception as exc:  # a failed operation is counted, not fatal
        problems, counts = [f"{type(exc).__name__}: {exc}"], {}
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0 + child_usage()[0] - child_cpu0
    slices = [b - a for a, b in zip(before, sampler.totals() if sampler else before)]
    if sampler and not wl.in_process:
        slices = [a + b for a, b in zip(slices, wl.child_slices)]
    wall -= slices[1]
    cpu -= slices[2]
    if sampler and not slices[0]:
        # a job too short for the timer: one slice right after it
        slices = [1, *time_reference()]
    rec = {"run_id": run_id, "traced": traced, "wall_s": wall, "cpu_s": cpu,
           "slices": slices[0], "slice_wall_s": slices[1], "slice_cpu_s": slices[2],
           "problems": problems, "counts": {**job_counts(tracer), **counts}}
    if traced:
        rec["layer"] = layer_metrics(tracer.counts, tracer.spans)
    return rec, tracer.spans


def run_jobs(wl, tracer, budget_s, jobs, prefix, alternate=False, sampler=None):
    """Run jobs until the next would likely end over half a job past the budget.

    With ``alternate`` every second job is traced, so traced and untraced
    jobs see the same spells of a noisy host. A ``sampler`` runs reference
    slices during the jobs: in this process, or in the CLI's child process
    when the job is one. Returns the last traced job's spans.
    """
    start = time.perf_counter()
    walls = []
    spans = []
    if sampler and wl.in_process:
        sampler.start()
    try:
        while True:
            traced = alternate and len(walls) % 2 == 1
            rec, job_spans = one_job(wl, tracer, traced, f"{prefix}-{len(jobs)}", sampler)
            if traced:
                spans = job_spans
            jobs.append(rec)
            walls.append(rec["wall_s"])
            elapsed = time.perf_counter() - start
            if len(walls) >= MIN_JOBS and elapsed + statistics.median(walls) / 2 > budget_s:
                return spans
    finally:
        if sampler and wl.in_process:
            sampler.stop()


def mark_count_mismatches(jobs) -> None:
    ref = jobs[0]["counts"]
    for rec in jobs[1:]:
        differ = sorted(k for k in ref.keys() & rec["counts"].keys()
                        if ref[k] != rec["counts"][k])
        if differ:
            rec["problems"].append(f"counts differ from the first job: {differ}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", default="normal")
    ap.add_argument("--wrong", action="store_true")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed, args.size, ROOT, wrong=args.wrong)
    wl.setup()
    if args.probe:
        print("ready", flush=True)
        return 0

    import geodiss
    import numpy

    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(geodiss.__file__).startswith(src):
        print(f"geodiss imported from {geodiss.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = Tracer(spans=False)
    tracer.install()
    if hasattr(wl, "system"):
        tracer.count_system(wl.system)
    else:
        tracer.count_new_systems()
    if hasattr(wl, "prepare"):
        wl.prepare()
    wl.in_process = wl.in_process or bool(args.trace)

    run = f"{args.workload}-{args.seed}"
    jobs: list = []
    sampler = None if args.trace else Sampler()
    spans = run_jobs(wl, tracer, args.seconds, jobs, run, alternate=bool(args.trace),
                     sampler=sampler)
    tracer.uninstall()
    mark_count_mismatches(jobs)

    if not wl.in_process:
        peak_mb = child_usage()[1]
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {"numpy": numpy.__version__, "jobs": jobs, "peak_rss_mb": peak_mb,
           "missing_hooks": tracer.missing}
    if args.trace:
        traced = [j for j in jobs if j["traced"]]
        untraced = [j for j in jobs if not j["traced"]]
        # counts repeat exactly between jobs; median_low keeps them integers
        layer = {k: statistics.median_low(j["layer"][k] for j in traced)
                 for k in traced[0]["layer"]}
        base = statistics.median(j["wall_s"] for j in untraced)
        layer["trace.untraced_wall_s"] = base
        layer["trace.traced_wall_s"] = statistics.median(j["wall_s"] for j in traced)
        layer["trace.overhead_frac"] = layer["trace.traced_wall_s"] / base - 1.0
        out["layer"] = layer
        out["spans_file"] = write_spans(args, traced[-1]["run_id"], spans)
    print(json.dumps(out))
    return 0


def write_spans(args, run_id, spans) -> str:
    """Write the last traced job's spans: [name, start_ns, end_ns, parent, run]."""
    path = os.path.join(ROOT, ".bench_run", "spans",
                        f"{args.workload}-{args.size}-seed{args.seed}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "run"],
                   "spans": [s + [run_id] for s in spans]}, fh)
    return os.path.relpath(path, ROOT)


if __name__ == "__main__":
    sys.exit(main())
