"""Counters and spans around geodiss's public functions, installed from outside.

Nothing under ``src/`` knows about this module. ``Tracer.install`` replaces
each hooked function in every loaded ``geodiss.*`` module namespace with a
wrapper, and ``Tracer.count_system`` wraps the user callables of a system.

Two modes share the same wrappers:

* counting (``spans=False``): every wrapper only bumps an integer. This is
  on for every job, so each run records its machine-independent counts.
* tracing (``spans=True``): wrappers also record a span
  ``[name, start_ns, end_ns, parent]`` in memory. ``layer_metrics`` turns
  one job's spans into self and inclusive times per layer.

Spans cover the calls into each module's public functions; a span's self
time is its duration minus the time its child spans cover.
"""
from __future__ import annotations

import dataclasses
import importlib
import sys
import time
from collections import Counter

# (module, attribute, span name). A class method is given as "Class.method".
HOOKS = [
    ("geodiss.gram", "system_frame", "gram.frame"),
    ("geodiss.control", "dissipated_rhs", "control.rhs"),
    ("geodiss.integrators", "integrate", "integrators.integrate"),
    ("geodiss.structure", "project_to_leaf", "structure.leaf_projection"),
    ("geodiss.structure", "refine_to_invariant_set", "structure.refine"),
    ("geodiss.structure", "classify_point", "structure.classify"),
    ("geodiss.structure", "stability_classify", "structure.stability"),
    ("geodiss.basin", "sublevel_component", "basin.component"),
    ("geodiss.basin", "scan_invariant_witnesses", "basin.witness_scan"),
    ("geodiss.basin", "basin_certify", "basin.certify"),
    ("geodiss.basin", "periodic_orbit_certify", "basin.orbit_certify"),
    ("geodiss.basin", "threshold_search", "basin.threshold_search"),
    ("geodiss.cli", "main", "cli.main"),
    ("geodiss.report", "json_text", "report.json"),
    ("geodiss.report", "write_text_atomic", "report.write"),
    ("geodiss.poly", "Polynomial.value", "poly.value"),
    ("geodiss.poly", "Polynomial.diff", "poly.diff"),
]

# Called hundreds of thousands of times per job: counted, never spanned.
COUNT_ONLY = {"poly.value", "poly.diff"}

LAYERS = ("fields", "poly", "gram", "control", "integrators", "structure",
          "basin", "cli", "report")

# Per-layer metrics and units, in the order BENCHMARK.json lists them.
PER_LAYER = [
    ("fields.X_evals", "count"),
    ("fields.diff_evals", "count"),
    ("fields.value_evals", "count"),
    ("fields.metric_evals", "count"),
    ("poly.evals", "count"),
    ("gram.frames", "count"),
    ("gram.frame_self_s", "s"),
    ("gram.frame_us", "us"),
    ("control.rhs_evals", "count"),
    ("integrators.calls", "count"),
    ("integrators.s", "s"),
    ("integrators.accepted_steps", "count"),
    ("integrators.rejected_steps", "count"),
    ("integrators.steps_per_s", "1/s"),
    ("integrators.rhs_per_step", "ratio"),
    ("integrators.frames_per_step", "ratio"),
    ("structure.leaf_projections", "count"),
    ("structure.leaf_projection_s", "s"),
    ("structure.leaf_projection_failures", "count"),
    ("structure.refinements", "count"),
    ("structure.refine_s", "s"),
    ("structure.refine_yield", "ratio"),
    ("structure.classify_calls", "count"),
    ("structure.stability_s", "s"),
    ("basin.component_builds", "count"),
    ("basin.component_s", "s"),
    ("basin.component_members", "count"),
    ("basin.witness_scan_s", "s"),
    ("basin.witnesses", "count"),
    ("basin.ensemble_s", "s"),
    ("basin.ensemble_trajectories", "count"),
    ("basin.certify_calls", "count"),
    ("basin.orbit_setup_s", "s"),
    ("cli.main_s", "s"),
    ("report.json_s", "s"),
    ("report.bytes_written", "B"),
] + [(f"{layer}.self_s", "s") for layer in
     ("gram", "control", "integrators", "structure", "basin", "cli", "report")] + [
    ("trace.spans", "count"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
]


def _post(counts, name, result):
    """Counts read off a hooked function's result."""
    if name == "integrators.integrate":
        counts["integrators.accepted_steps"] += getattr(result, "n_accepted", 0)
        counts["integrators.rejected_steps"] += getattr(result, "n_rejected", 0)
    elif name == "structure.refine":
        counts["structure.refine_hits"] += result is not None
    elif name == "basin.component":
        counts["basin.component_members"] += len(getattr(result, "members", ()))
    elif name == "basin.witness_scan":
        counts["basin.witnesses"] += len(result)
    elif name in ("basin.certify", "basin.orbit_certify"):
        counts["basin.ensemble_trajectories"] += getattr(result, "trajectories_total", 0)


class Tracer:
    def __init__(self, spans: bool):
        self.spans_on = spans
        self.counts: Counter = Counter()
        self.spans: list = []
        self.missing: list = []
        self._stack: list = []
        self._integrating = 0
        self._undo: list = []

    def reset(self) -> None:
        self.counts = Counter()
        self.spans = []
        self._stack = []
        self._integrating = 0

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        integrate = name == "integrators.integrate"
        report_write = name == "report.write"
        span = name not in COUNT_ONLY

        def wrapper(*args, **kwargs):
            counts = tracer.counts
            counts[name] += 1
            if report_write and args:
                counts["report.bytes_written"] += len(str(args[0]).encode())
            if name == "gram.frame" and tracer._integrating:
                counts["gram.frame.in_integrate"] += 1
            idx = None
            if span and tracer.spans_on:
                idx = len(tracer.spans)
                parent = tracer._stack[-1] if tracer._stack else -1
                tracer.spans.append([name, time.perf_counter_ns(), 0, parent])
                tracer._stack.append(idx)
            if integrate:
                tracer._integrating += 1
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[name + ".raised"] += 1
                raise
            finally:
                if integrate:
                    tracer._integrating -= 1
                if idx is not None:
                    tracer.spans[idx][2] = time.perf_counter_ns()
                    tracer._stack.pop()
            _post(counts, name, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, key, fn):
        if fn is None:
            return None
        tracer = self

        def counted(*args, **kwargs):
            tracer.counts[key] += 1
            if key == "fields.X_evals" and tracer._integrating:
                tracer.counts["fields.X_evals.in_integrate"] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every hooked function wherever a geodiss module refers to it.

        A hook whose module or attribute no longer exists is skipped and
        listed in ``self.missing``; its metrics then read 0.
        """
        for modname, attr, name in HOOKS:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                self.missing.append(f"{modname}.{attr}")
                continue
            owner_name, _, meth = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            orig = getattr(owner, meth, None)
            if orig is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapped = self._wrap(name, orig)
            if owner_name:
                self._set(owner, meth, wrapped)
                continue
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("geodiss"):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is orig:
                        self._set(loaded, key, wrapped)

    def count_new_systems(self) -> None:
        """Count the user callables of every system built from now on.

        For systems the program builds itself, such as the CLI's inline
        system, which the benchmark cannot wrap before the job starts.
        """
        from geodiss.fields import DissipativeSystem

        orig = DissipativeSystem.__post_init__
        tracer = self

        def post_init(system):
            orig(system)
            tracer.count_system(system)

        self._set(DissipativeSystem, "__post_init__", post_init)

    def _set(self, owner, key, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo = []

    def count_system(self, system) -> None:
        """Wrap, in place, the user callables of a system built by the benchmark."""
        c = self._counted

        def scalar(f):
            return dataclasses.replace(
                f, value=c("fields.value_evals", f.value),
                differential=c("fields.diff_evals", f.differential))

        new = {
            "X": dataclasses.replace(system.X, func=c("fields.X_evals", system.X.func)),
            "conserved": tuple(scalar(f) for f in system.conserved),
            "dissipated": scalar(system.dissipated),
            "metric": dataclasses.replace(
                system.metric, matrix=c("fields.metric_evals", system.metric.matrix)),
        }
        for key, value in new.items():
            object.__setattr__(system, key, value)


def job_counts(tracer: Tracer) -> dict:
    """The machine-independent counts of one job, as plain ints."""
    return {k: int(v) for k, v in sorted(tracer.counts.items())}


def layer_metrics(counts: dict, spans: list) -> dict:
    """Per-layer metrics of one job from its counts and spans."""
    dur = [s[2] - s[1] for s in spans]
    child = [0] * len(spans)
    children: dict = {}
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
            children.setdefault(s[3], []).append(i)
    incl: Counter = Counter()
    self_ns: Counter = Counter()
    for i, s in enumerate(spans):
        incl[s[0]] += dur[i]
        self_ns[s[0]] += dur[i] - child[i]

    # certificate phases, measured between the spans of its direct children
    ensemble_ns = 0
    orbit_setup_ns = 0
    for i, s in enumerate(spans):
        if s[0] not in ("basin.certify", "basin.orbit_certify"):
            continue
        kids = [spans[j] for j in children.get(i, ())]
        scans = [k for k in kids if k[0] == "basin.witness_scan"]
        if scans:
            ensemble_ns += s[2] - scans[-1][2]
        comps = [k for k in kids if k[0] == "basin.component"]
        if s[0] == "basin.orbit_certify" and comps:
            orbit_setup_ns += comps[0][1] - s[1]

    def sec(ns):
        return ns / 1e9

    def ratio(a, b):
        return a / b if b else 0.0

    n = counts.get
    steps = n("integrators.accepted_steps", 0) + n("integrators.rejected_steps", 0)
    integ_s = sec(incl["integrators.integrate"])
    out = {
        "fields.X_evals": n("fields.X_evals", 0),
        "fields.diff_evals": n("fields.diff_evals", 0),
        "fields.value_evals": n("fields.value_evals", 0),
        "fields.metric_evals": n("fields.metric_evals", 0),
        "poly.evals": n("poly.value", 0) + n("poly.diff", 0),
        "gram.frames": n("gram.frame", 0),
        "gram.frame_self_s": sec(self_ns["gram.frame"]),
        "gram.frame_us": 1e6 * ratio(sec(self_ns["gram.frame"]), n("gram.frame", 0)),
        "control.rhs_evals": n("control.rhs", 0),
        "integrators.calls": n("integrators.integrate", 0),
        "integrators.s": integ_s,
        "integrators.accepted_steps": n("integrators.accepted_steps", 0),
        "integrators.rejected_steps": n("integrators.rejected_steps", 0),
        "integrators.steps_per_s": ratio(n("integrators.accepted_steps", 0), integ_s),
        "integrators.rhs_per_step": ratio(n("fields.X_evals.in_integrate", 0), steps),
        "integrators.frames_per_step": ratio(n("gram.frame.in_integrate", 0), steps),
        "structure.leaf_projections": n("structure.leaf_projection", 0),
        "structure.leaf_projection_s": sec(incl["structure.leaf_projection"]),
        "structure.leaf_projection_failures": n("structure.leaf_projection.raised", 0),
        "structure.refinements": n("structure.refine", 0),
        "structure.refine_s": sec(incl["structure.refine"]),
        "structure.refine_yield": ratio(n("structure.refine_hits", 0),
                                        n("structure.refine", 0)),
        "structure.classify_calls": n("structure.classify", 0),
        "structure.stability_s": sec(incl["structure.stability"]),
        "basin.component_builds": n("basin.component", 0),
        "basin.component_s": sec(incl["basin.component"]),
        "basin.component_members": n("basin.component_members", 0),
        "basin.witness_scan_s": sec(incl["basin.witness_scan"]),
        "basin.witnesses": n("basin.witnesses", 0),
        "basin.ensemble_s": sec(ensemble_ns),
        "basin.ensemble_trajectories": n("basin.ensemble_trajectories", 0),
        "basin.certify_calls": n("basin.certify", 0) + n("basin.orbit_certify", 0),
        "basin.orbit_setup_s": sec(orbit_setup_ns),
        "cli.main_s": sec(incl["cli.main"]),
        "report.json_s": sec(incl["report.json"]),
        "report.bytes_written": n("report.bytes_written", 0),
        "trace.spans": len(spans),
    }
    for layer in ("gram", "control", "integrators", "structure", "basin", "cli", "report"):
        out[f"{layer}.self_s"] = sec(sum(v for k, v in self_ns.items()
                                         if k.split(".")[0] == layer))
    return out
