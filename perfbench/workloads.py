"""The benchmark's four workloads: inputs made from a seed, one job, its check.

Each workload is a class with

* ``__init__(seed, size, root, wrong)``: derive the inputs from the seed
  with the standard library's ``random``, so inputs do not change with the
  numpy version (an input whose draw would change the job's work a lot,
  such as ``RigidThreshold.traj_seed``, is fixed instead). ``wrong``
  replaces the expected answer by a wrong one, which the check must then
  report (the smoke test relies on it);
* ``setup()``: imports and system construction, everything before the job
  can start (this is what ``setup_s`` times in a fresh process). Jobs call
  the library through its modules, not through names bound here, so the
  wrappers that ``tracing`` installs afterwards see the top-level call;
* ``run(tracer)``: one job, returning its result;
* ``in_process``: False for a workload whose untraced job is a subprocess;
  the worker sets it True for traced runs, so traced and untraced jobs of
  one run are timed the same way;
* ``check(result)``: ``(problems, counts)``: the ways the answer disagrees
  with analytic ground truth, and the machine-independent counts read off
  the result.

Why each workload exists is written in README.md next to this file.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys

CLI_CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")
TRAJ_SEED = 12345

# Normal sizes take 2.5 to 4.5 reference seconds (reference.py) a job, so a
# 20-s run holds 4 to 9 jobs.
SIZES = {
    "normal": {
        "rigid_threshold": {"cells": 14, "steps": 4, "n_trajectories": 4},
        "sombrero_orbit": {"cells": 12, "halfwidth": 2.8, "n_trajectories": 4},
        "sombrero_cycle": {"t_end": 100.0},
        "cli_basin_4d": {"n_samples": 2048, "n_trajectories": 4},
    },
    "tiny": {
        "rigid_threshold": {"cells": 14, "steps": 2, "n_trajectories": 1},
        "sombrero_orbit": {"cells": 10, "halfwidth": 2.8, "n_trajectories": 1},
        "sombrero_cycle": {"t_end": 4.0},
        "cli_basin_4d": {"n_samples": 1024, "n_trajectories": 1},
    },
}


class RigidThreshold:
    """Bisection for the sharp 1/4 threshold of the rigid body's major axis."""

    name = "rigid_threshold"
    in_process = True
    inertia = (3.0, 2.0, 1.0)

    def __init__(self, seed, size, root, wrong=False):
        rng = random.Random(seed)
        self.p = dict(SIZES[size][self.name])
        # the major axis of either sign, on a leaf of radius near 1: the
        # energy levels, and so the threshold, scale with the radius squared
        radius = rng.uniform(0.97, 1.03)
        sign = rng.choice((1.0, -1.0))
        self.target = [sign * radius, 0.0, 0.0]
        self.g_min = radius ** 2 / (2.0 * self.inertia[0])
        self.threshold = radius ** 2 / (2.0 * self.inertia[1])
        self.level_max = 1.6 * self.threshold
        # The seed that picks the test trajectories' starts is fixed: drawn
        # from the seed it changed the job's ODE steps by up to 29% (2521 to
        # 3241 over seeds 11 to 18), and with it fixed by under 2%.
        self.traj_seed = TRAJ_SEED
        self.resolution = (self.level_max - self.g_min) / 2 ** self.p["steps"]
        self.expected = self.threshold + (0.5 if wrong else 0.0)

    def setup(self):
        import geodiss.basin
        from geodiss.catalog import rigid_body
        from geodiss.structure import Stability

        self.basin = geodiss.basin
        self.sampler = geodiss.basin.SamplerConfig(cells_per_axis=self.p["cells"])
        self.stable = Stability.ASYMPTOTICALLY_STABLE
        self.system = rigid_body(*self.inertia).system

    def run(self, tracer):
        return self.basin.threshold_search(
            self.system, self.target, self.level_max, steps=self.p["steps"],
            sampler=self.sampler, stability=self.stable,
            n_trajectories=self.p["n_trajectories"], traj_seed=self.traj_seed)

    def check(self, result):
        level, history = result
        problems = []
        if abs(level - self.expected) > self.resolution:
            problems.append(f"level {level!r} not within {self.resolution:.3g} "
                            f"of {self.expected!r}")
        passed = [lvl for lvl, ok in history if ok]
        failed = [lvl for lvl, ok in history if not ok]
        if passed and failed and max(passed) >= min(failed):
            problems.append("a passed level is not below every failed level")
        return problems, {"levels": len(history), "levels_passed": len(passed)}


class SombreroOrbit:
    """Periodic-orbit certificate for the unit circle of the sombrero system."""

    name = "sombrero_orbit"
    in_process = True
    level = 0.2
    # The automatic horizon follows the median rate of the sampled starts
    # and swung between 20 and 40 from seed to seed, which made the work of
    # a 4-trajectory ensemble vary by 30%. 20 is its floor; by the
    # logistic law every start in the component is within 1e-4 of the
    # circle by t = 6.
    horizon = 20.0

    def __init__(self, seed, size, root, wrong=False):
        rng = random.Random(seed)
        self.p = dict(SIZES[size][self.name])
        # a seed point near the circle at a random phase and height; the
        # circle on every horizontal plane is the same orbit of period 2 pi
        angle = rng.uniform(0.0, 2.0 * math.pi)
        rho = rng.uniform(1.03, 1.07)
        self.seed_point = [rho * math.cos(angle), rho * math.sin(angle),
                           rng.uniform(-0.05, 0.05)]
        self.traj_seed = rng.randrange(2 ** 31)
        self.expected_period = 2.0 * math.pi + (1.0 if wrong else 0.0)

    def setup(self):
        import geodiss.basin
        from geodiss.catalog import mexican_hat

        self.basin = geodiss.basin
        self.sampler = geodiss.basin.SamplerConfig(cells_per_axis=self.p["cells"],
                                                   halfwidth=self.p["halfwidth"])
        self.system = mexican_hat().system

    def run(self, tracer):
        return self.basin.periodic_orbit_certify(
            self.system, self.seed_point, self.level, self.sampler,
            n_trajectories=self.p["n_trajectories"], horizon=self.horizon,
            traj_seed=self.traj_seed)

    def check(self, cert):
        problems = []
        if not cert.passed:
            problems.append(f"certificate failed: {cert.reasons}")
        if abs(cert.period - self.expected_period) > 1e-6:
            problems.append(f"period {cert.period!r} is not {self.expected_period!r}")
        if cert.trajectories_converged != cert.trajectories_total:
            problems.append(f"{cert.trajectories_converged} of "
                            f"{cert.trajectories_total} trajectories converged")
        return problems, {"component_size": cert.component_size,
                          "witnesses": len(cert.witnesses),
                          "trajectories": cert.trajectories_total}


class SombreroCycle:
    """One long corrected-flow integration spiralling onto the limit cycle."""

    name = "sombrero_cycle"
    in_process = True
    final_tol = 1e-7

    def __init__(self, seed, size, root, wrong=False):
        rng = random.Random(seed)
        self.p = dict(SIZES[size][self.name])
        angle = rng.uniform(0.0, 2.0 * math.pi)
        r0 = rng.uniform(0.35, 0.45)
        self.x0 = [r0 * math.cos(angle), r0 * math.sin(angle), rng.uniform(-0.5, 0.5)]
        self.time_shift = 1.0 if wrong else 0.0

    def setup(self):
        import geodiss.integrators
        from geodiss.catalog import mexican_hat

        self.integrators = geodiss.integrators
        self.config = geodiss.integrators.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12,
                                       t_end=self.p["t_end"])
        self.system = mexican_hat().system

    def run(self, tracer):
        return self.integrators.integrate(self.system, self.x0, self.config)

    def closed_form(self, t):
        """Exact solution: r^2 follows the logistic law, the angle turns at unit rate."""
        x, y, z = self.x0
        r0 = math.hypot(x, y)
        r = 1.0 / math.sqrt(1.0 + (1.0 / r0 ** 2 - 1.0) * math.exp(-2.0 * t))
        th = math.atan2(y, x) + t
        return [r * math.cos(th), r * math.sin(th), z]

    def check(self, tr):
        problems = []
        t_final = float(tr.times[-1])
        exact = self.closed_form(t_final + self.time_shift)
        err = max(abs(float(a) - b) for a, b in zip(tr.final_state, exact))
        if not err <= self.final_tol:
            problems.append(f"final state off the closed form by {err:.3g}")
        if abs(t_final - self.p["t_end"]) > 1e-9 * self.p["t_end"]:
            problems.append(f"stopped at t={t_final!r}")
        if not tr.conservation_drift() <= 1e-12:
            problems.append(f"conservation drift {tr.conservation_drift():.3g}")
        for label, value in (("rate check", tr.rate_check_violation()),
                             ("monotonicity", tr.monotonicity_violation())):
            if not value <= 0.0:
                problems.append(f"{label} violated by {value:.3g}")
        return problems, {"records": len(tr.times)}


class CliBasin4d:
    """`geodiss basin` on an inline 4-D system: sampled component, CLI, report.

    Sphere sum(x^2)/2 conserved, sum(a_i x_i^2) with a = (0.5, 1, 1.5, 2)
    dissipated, no conservative field. On the unit sphere the minimum 0.5 sits
    at +-e1 and the first saddle 1.0 at +-e2, so the component of
    {G < 0.95} around e1 is a cap that holds no other degenerate point.
    """

    name = "cli_basin_4d"
    in_process = False
    weights = (0.5, 1.0, 1.5, 2.0)
    level = 0.95

    def __init__(self, seed, size, root, wrong=False):
        rng = random.Random(seed)
        self.p = dict(SIZES[size][self.name])
        self.cli_seed = rng.randrange(2 ** 31)
        self.expected_verdict = "fail" if wrong else "pass"
        self.workdir = os.path.join(root, ".bench_run", f"{self.name}-{seed}")
        self.config_path = os.path.join(self.workdir, "basin_config.json")
        self.out = os.path.join(self.workdir, "out")
        self.slices_path = os.path.join(self.workdir, "slices.json")
        dim = len(self.weights)

        def square(i, coef):
            powers = [0] * dim
            powers[i] = 2
            return {"coef": coef, "powers": powers}

        self.config = {
            "system": {
                "dim": dim,
                "conserved": [{"terms": [square(i, 0.5) for i in range(dim)]}],
                "dissipated": {"terms": [square(i, a) for i, a in enumerate(self.weights)]},
                "field": "zero",
                "metric": "euclidean",
            },
            "target": [1.0, 0.0, 0.0, 0.0],
            "level": self.level,
            "sampler": {"n_samples": self.p["n_samples"], "halfwidth": 1.5},
            "n_trajectories": self.p["n_trajectories"],
            "proper_G_asserted": True,
        }
        self.argv = ["basin", "--config", self.config_path, "--out", self.out,
                     "--seed", str(self.cli_seed), "--threads", "1"]
        self.reference = None

    def setup(self):
        """What a `geodiss basin` process does before its certificate starts:
        import the CLI, the schema validator and the numerical core, check
        the config against the packaged schema, build the system."""
        from importlib import resources

        import jsonschema
        import numpy as np

        import geodiss.basin
        import geodiss.cli
        import geodiss.report
        from geodiss.fields import DissipativeSystem, MetricField, ScalarField, VectorField
        from geodiss.poly import Polynomial

        self.cli = geodiss.cli
        doc = json.loads(resources.files("geodiss").joinpath("config_schema.json")
                         .read_text())
        schema = dict(doc["basin"], **{"$defs": doc["$defs"]})
        jsonschema.validate(self.config, schema)
        geodiss.cli.build_parser().parse_args(self.argv)

        spec = self.config["system"]
        dim = spec["dim"]

        def scalar(poly_spec, label):
            p = Polynomial.from_terms(dim, [(t["coef"], t["powers"])
                                            for t in poly_spec["terms"]])
            return ScalarField(dim, p.value, p.diff, label=label)

        DissipativeSystem(X=VectorField(dim, lambda x: np.zeros(dim)),
                          conserved=(scalar(spec["conserved"][0], "f1"),),
                          dissipated=scalar(spec["dissipated"], "g"),
                          metric=MetricField.euclidean(dim))

    def prepare(self):
        os.makedirs(self.workdir, exist_ok=True)
        with open(self.config_path, "w") as fh:
            json.dump(self.config, fh)

    def run(self, tracer):
        """A `geodiss` CLI subprocess, or a `main` call when ``in_process`` is set.

        The subprocess is cli_child.py, which runs `geodiss.cli.main` as
        ``python -m geodiss`` does, with reference slices (reference.py)
        during it; ``child_slices`` holds their totals afterwards."""
        # a job that writes no basin.json (or slices.json) must not be
        # checked (or timed) with the last one's
        self.child_slices = (0, 0.0, 0.0)
        for path in (os.path.join(self.out, "basin.json"), self.slices_path):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        if self.in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(self.argv)
            return code, buf.getvalue(), self._basin_json()
        proc = subprocess.run([sys.executable, CLI_CHILD, self.slices_path, *self.argv],
                              capture_output=True, text=True, timeout=170)
        if proc.stderr:
            sys.stderr.write(proc.stderr)
        with open(self.slices_path) as fh:
            self.child_slices = json.load(fh)
        return proc.returncode, proc.stdout, self._basin_json()

    def _basin_json(self):
        try:
            with open(os.path.join(self.out, "basin.json")) as fh:
                return fh.read()
        except OSError:
            return None

    def check(self, result):
        code, stdout, basin_json = result
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        try:
            report = json.loads(stdout)
        except ValueError:
            return problems + ["stdout is not a JSON report"], {}
        if report.get("verdict") != self.expected_verdict:
            problems.append(f"verdict {report.get('verdict')!r}, reasons "
                            f"{report.get('reasons')}")
        if basin_json != stdout:
            problems.append("basin.json differs from stdout")
        if self.reference is None:
            self.reference = (stdout, basin_json)
        elif self.reference != (stdout, basin_json):
            problems.append("output differs from the run's first invocation")
        return problems, {"component_size": report.get("componentSize", 0),
                          "witnesses": len(report.get("witnesses", ())),
                          "trajectories": report.get("trajectoriesTotal", 0)}


WORKLOADS = {w.name: w for w in (RigidThreshold, SombreroOrbit, SombreroCycle,
                                 CliBasin4d)}
