"""Acceptance gate: ten end-to-end checks with pinned tolerances.

Each test prints exactly one ``ACCEPTANCE nn <label>: PASS/FAIL`` line
(bypassing pytest's capture) so a log scan shows the overall status at a
glance.  Tolerances and runtime budgets are asserted inside the tests and
are not configurable.
"""

import json
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import euclid3_pair, seeded_pair
from geodiss.basin import (
    SamplerConfig,
    basin_certify,
    periodic_orbit_certify,
    threshold_search,
)
from geodiss.cli import main
from geodiss.control import Formulation, control_field, identity_scales
from geodiss.errors import SingularLeaf
from geodiss.gram import system_frame
from geodiss.integrators import (
    Flow,
    IntegratorConfig,
    Method,
    flow_agreement_band,
    integrate,
)
from geodiss.structure import (
    Stability,
    classify_point,
    compare_on_invariant_set,
    find_equilibria,
    omega_limit_probe,
    stability_classify,
)

UNIT_3 = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
MAJOR = np.array([1.0, 0.0, 0.0])


@contextmanager
def criterion(num: int, label: str, cap):
    """Time a criterion body and print its PASS/FAIL line to the real stdout.

    ``cap`` is the test's capture fixture (capfd/capsys); its ``disabled()``
    context restores the process file descriptors, which is the only channel
    that survives pytest's fd-level capture.
    """
    t0 = time.perf_counter()

    def emit(status: str) -> None:
        with cap.disabled():
            print(f"ACCEPTANCE {num:02d} {label}: {status} "
                  f"({time.perf_counter() - t0:.2f}s)",
                  file=sys.__stdout__, flush=True)

    try:
        yield t0
    except BaseException:
        emit("FAIL")
        raise
    emit("PASS")


def _rel_gap(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), 1e-300)
    return float(np.linalg.norm(a - b)) / denom


def test_criterion_01_constructions_agree(capfd):
    """All three constructions of the control field agree on 200 random
    systems (dimension 2..6, 0..dim-1 conserved quantities, random SPD
    metrics) within 1e-9 relative, and on Euclidean 3d one-conserved systems
    they match the double cross product of the differentials within 1e-10."""
    with criterion(1, "control-field constructions agree", capfd) as t0:
        worst = 0.0
        skipped = 0
        for i in range(200):
            system, x = seeded_pair(i)
            cof = control_field(system, x, Formulation.COFACTOR).v0
            ten = control_field(system, x, Formulation.TENSOR).v0
            worst = max(worst, _rel_gap(cof, ten))
            try:
                pro = control_field(system, x, Formulation.PROJECTION).v0
            except SingularLeaf:
                skipped += 1
                continue
            worst = max(worst, _rel_gap(cof, pro))
        assert worst <= 1e-9
        assert skipped <= 20              # almost every random leaf is regular

        worst_cross = 0.0
        for i in range(40):
            system, x = euclid3_pair(i)
            v0 = control_field(system, x, Formulation.COFACTOR).v0
            dF = system.conserved[0].d(x)
            dG = system.dissipated.d(x)
            ref = np.cross(dF, np.cross(dG, dF))
            denom = max(float(np.linalg.norm(ref)), 1e-300)
            worst_cross = max(
                worst_cross, float(np.linalg.norm(v0 - ref)) / denom)
        assert worst_cross <= 1e-10
        assert time.perf_counter() - t0 < 10.0


def test_criterion_02_structural_identities(capfd):
    """On the same 200 systems: the control field annihilates every conserved
    differential (<= 1e-9 x scale), pairs with the dissipated differential to
    exactly the full Gram determinant (<= 1e-9 x scale), and that determinant
    is never below -1e-10 x scale."""
    with criterion(2, "orthogonality and pairing identities", capfd) as t0:
        worst_tan = 0.0
        worst_pair = 0.0
        worst_det = 0.0
        for i in range(200):
            system, x = seeded_pair(i)
            ev = control_field(system, x, Formulation.COFACTOR)
            fr = system_frame(system, x)
            scales = identity_scales(fr)
            for j in range(system.k):
                denom = max(scales["tangency"][j], 1e-300)
                worst_tan = max(
                    worst_tan, abs(float(fr.diffs[j] @ ev.v0)) / denom)
            denom = max(scales["dissipation"], 1e-300)
            worst_pair = max(
                worst_pair,
                abs(float(fr.diffs[system.k] @ ev.v0) - ev.det_full) / denom)
            denom = max(scales["classification"], 1e-300)
            worst_det = max(worst_det, -ev.det_full / denom)
        assert worst_tan <= 1e-9
        assert worst_pair <= 1e-9
        assert worst_det <= 1e-10
        assert time.perf_counter() - t0 < 10.0


def test_criterion_03_dissipation_rate_matches(rigid, mexhat, capfd):
    """Along corrected-flow trajectories the finite-difference rate of the
    dissipated value matches minus the full Gram determinant at every step
    midpoint within the step-consistent band, and the recorded values are
    monotone within ten times the integrator tolerance, in RK45's steps and
    in those of the default method, dop853, whose conservation drift is at
    most RK45's at the same tolerances."""
    with criterion(3, "per-step dissipation-rate consistency", capfd) as t0:
        cfg = IntegratorConfig(method=Method.RK45_ADAPTIVE, rel_tol=1e-8, abs_tol=1e-10,
                               t_end=30.0)
        default = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10, t_end=30.0)
        runs = [(rigid.system, UNIT_3),
                (mexhat.system, np.array([2.0, 0.0, 0.0])),
                (mexhat.system, np.array([0.4, -0.2, 0.3]))]
        for system, x0 in runs:
            tr = integrate(system, x0, cfg, flow=Flow.PERTURBED)
            assert tr.rate_measured.size > 100
            assert tr.rate_check_violation() <= 0.0
            assert tr.monotonicity_violation() <= 0.0
            tr853 = integrate(system, x0, default, flow=Flow.PERTURBED)
            assert tr853.config.method is Method.DOP853
            assert tr853.rate_check_violation() <= 0.0
            assert tr853.monotonicity_violation() <= 0.0
            assert tr853.conservation_drift() <= tr.conservation_drift()
        assert time.perf_counter() - t0 < 30.0


def test_criterion_04_conservation_drift_scales(rigid, capfd):
    """At rel_tol 1e-10 the conserved quantity drifts at most 1e-7 over
    t=200, and the drift improves with the tolerance across three decades by
    one to three orders of magnitude per decade pair."""
    with criterion(4, "conservation drift tracks tolerance", capfd):
        drifts = []
        for rel in (1e-6, 1e-8, 1e-10):
            cfg = IntegratorConfig(rel_tol=rel, abs_tol=rel * 1e-2,
                                   t_end=200.0, record_every=4)
            tr = integrate(rigid.system, UNIT_3, cfg, flow=Flow.PERTURBED)
            drifts.append(tr.conservation_drift())
        assert drifts[2] <= 1e-7
        assert drifts[0] > drifts[1] > drifts[2]
        assert 10.0 <= drifts[0] / drifts[1] <= 1000.0
        assert 10.0 <= drifts[1] / drifts[2] <= 1000.0


def test_criterion_05_equilibria_and_convergence(rigid, capfd):
    """Every equilibrium recovered from perturbed seeds is simultaneously an
    equilibrium of the conservative field and of the control field; the
    major axis is asymptotically stable, middle and minor axes unstable; and
    the corrected flow from a generic start reaches the major axis to within
    1e-4 by t=200."""
    with criterion(5, "equilibrium structure of the rigid body", capfd):
        rng = np.random.default_rng(17)
        seeds = [eq + rng.uniform(-0.02, 0.02, 3)
                 for eq in rigid.known_equilibria]
        reports, unresolved = find_equilibria(rigid.system, seeds)
        assert not unresolved
        assert len(reports) >= 6
        for rep in reports:
            assert rep.in_unperturbed_equilibria
            assert rep.in_perturbed_equilibria
            assert rep.in_invariant_set

        assert stability_classify(rigid.system, MAJOR) \
            is Stability.ASYMPTOTICALLY_STABLE
        assert stability_classify(rigid.system, np.array([0.0, 1.0, 0.0])) \
            is Stability.UNSTABLE
        assert stability_classify(rigid.system, np.array([0.0, 0.0, 1.0])) \
            is Stability.UNSTABLE

        cfg = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10, t_end=200.0,
                               record_every=50)
        tr = integrate(rigid.system, UNIT_3, cfg, flow=Flow.PERTURBED)
        gap = min(float(np.linalg.norm(tr.final_state - MAJOR)),
                  float(np.linalg.norm(tr.final_state + MAJOR)))
        assert gap <= 1e-4


def test_criterion_06_invariant_set_is_flow_invariant(rigid, mexhat, capfd):
    """From 100 sampled degeneracy-set points every recorded state along the
    corrected flow still classifies inside the degeneracy set at ten times
    the classification tolerances (determinant ratio or critical-point
    branch), and the corrected and conservative flows coincide within ten
    times the accumulated integrator tolerance over t=10."""
    with criterion(6, "degeneracy set invariance on 100 samples", capfd):
        points = []
        for leaf in (0.18, 0.32, 0.5, 0.72, 0.98, 1.28, 1.62, 2.0):
            points.extend(rigid.inv_sampler([leaf], 6))
        samples_m = []
        for z in (0.0, 0.4):
            samples_m.extend(mexhat.inv_sampler([z], 26))
        systems = [(rigid.system, p) for p in points]
        systems += [(mexhat.system, p) for p in samples_m]
        assert len(systems) == 100

        cfg = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10, t_end=10.0,
                               record_every=2)
        for system, x0 in systems:
            tr = integrate(system, x0, cfg, flow=Flow.PERTURBED)
            for state in tr.states:
                cls = classify_point(system, state,
                                     tol_inv=10.0 * 1e-9, tol_g=10.0 * 1e-6)
                assert cls.in_invariant_set
            gap = compare_on_invariant_set(system, x0, cfg, n_checkpoints=21)
            assert gap <= flow_agreement_band(
                cfg, float(np.linalg.norm(x0)))


def test_criterion_07_omega_limits(rigid, mexhat, capfd):
    """Distance to the intersection of the degeneracy set with the start's
    leaf decays with a monotone tail and ends below 1e-4, while the late-time
    spread of the dissipated value stays below 1e-8."""
    with criterion(7, "omega-limit confinement", capfd) as t0:
        probe_m = omega_limit_probe(mexhat.system, np.array([2.0, 0.0, 0.0]),
                                    horizon=40.0,
                                    inv_sampler=mexhat.inv_sampler)
        assert probe_m.monotone_tail
        assert probe_m.final_distance <= 1e-4
        assert probe_m.late_g_spread <= 1e-8

        probe_r = omega_limit_probe(rigid.system, UNIT_3, horizon=150.0,
                                    inv_sampler=rigid.inv_sampler)
        assert probe_r.monotone_tail
        assert probe_r.final_distance <= 1e-4
        assert probe_r.late_g_spread <= 1e-8
        assert time.perf_counter() - t0 < 60.0


def test_criterion_08_rigid_body_basin_threshold(rigid, capfd):
    """The major-axis sublevel certificate passes at level 0.2 with all 50
    trajectories converging, fails at 0.3 with a degeneracy-set witness at a
    middle-axis saddle, and the bisection search recovers the sharp
    threshold 1/4 within its resolution; all under five minutes."""
    with criterion(8, "basin certificates and threshold", capfd) as t0:
        cert = basin_certify(rigid.system, MAJOR, 0.2, n_trajectories=50)
        assert cert.passed
        assert cert.trajectories_total == 50
        assert cert.trajectories_converged == 50
        assert cert.far_witnesses.size == 0

        cert3 = basin_certify(rigid.system, MAJOR, 0.3, n_trajectories=50)
        assert not cert3.passed
        assert cert3.far_witnesses.size > 0
        d_saddle = np.minimum(
            np.linalg.norm(cert3.far_witnesses - np.array([0.0, 1.0, 0.0]),
                           axis=1),
            np.linalg.norm(cert3.far_witnesses + np.array([0.0, 1.0, 0.0]),
                           axis=1))
        assert float(np.min(d_saddle)) <= 1e-6

        level, history = threshold_search(
            rigid.system, MAJOR, 0.4, steps=8,
            sampler=SamplerConfig(cells_per_axis=48),
            stability=Stability.ASYMPTOTICALLY_STABLE,
            n_trajectories=12, traj_seed=3)
        assert abs(level - 0.25) <= 2e-3
        passed = [l for l, ok in history if ok]
        failed = [l for l, ok in history if not ok]
        assert max(passed) < min(failed)
        assert time.perf_counter() - t0 < 300.0


def test_criterion_09_periodic_orbit_certificate(mexhat, capfd):
    """The unit-circle orbit certificate passes at level 0.2 with the orbit
    verified inside the degeneracy set at 100 phases and every trajectory
    approaching the circle, and fails at level 0.3; under two minutes."""
    with criterion(9, "periodic-orbit certificates", capfd) as t0:
        cert = periodic_orbit_certify(
            mexhat.system, np.array([1.05, 0.0, 0.02]), 0.2,
            sampler=SamplerConfig(cells_per_axis=48))
        assert cert.passed
        assert len(cert.phase_states) == 100
        assert cert.orbit_in_invariant_set
        assert abs(cert.period - 2.0 * np.pi) <= 1e-6
        assert cert.trajectories_converged == cert.trajectories_total

        cert3 = periodic_orbit_certify(
            mexhat.system, np.array([1.05, 0.0, 0.02]), 0.3,
            sampler=SamplerConfig(cells_per_axis=48))
        assert not cert3.passed
        assert cert3.far_witnesses.size > 0
        assert time.perf_counter() - t0 < 120.0


def test_criterion_10_cli_determinism(tmp_path, capsys):
    """Each CLI subcommand repeated with the same config and seed produces
    byte-identical stdout and byte-identical output files."""
    with criterion(10, "CLI byte-determinism", capsys):
        jobs = {
            "simulate": {
                "system": "rigid_body:3,2,1",
                "x0": [0.6, 0.48, 0.64],
                "integrator": {"method": "rk45", "t_end": 5.0,
                               "record_every": 10},
            },
            "verify": {"system": "rigid_body:3,2,1", "n_probes": 30,
                       "seed": 3},
            "equilibria": {
                "system": "rigid_body:3,2,1",
                "seeds": [[1.05, 0.02, -0.03], [0.04, 0.98, 0.05]],
            },
            "basin": {
                "system": "rigid_body:3,2,1",
                "target": [1.0, 0.0, 0.0],
                "level": 0.2,
                "sampler": {"cells_per_axis": 32},
                "n_trajectories": 4,
                "seed": 5,
            },
        }
        for command, payload in jobs.items():
            cfg = tmp_path / f"{command}.json"
            cfg.write_text(json.dumps(payload))
            runs = []
            for tag in ("a", "b"):
                out_dir = tmp_path / f"{command}_{tag}"
                rc = main([command, "--config", str(cfg),
                           "--out", str(out_dir)])
                stdout = capsys.readouterr().out
                assert rc == 0
                files = sorted(out_dir.iterdir())
                assert files
                runs.append((stdout,
                             [(f.name, f.read_bytes()) for f in files]))
            assert runs[0] == runs[1], f"{command} output not reproducible"
