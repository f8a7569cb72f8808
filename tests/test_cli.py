"""Command-line interface: subcommands, exit codes, file outputs, determinism.

Every test drives ``main(argv)`` in-process (one subprocess test covers the
``python -m geodiss`` entry point).  Exit-code contract:

    0  success (including conditional-pass certificates)
    1  configuration problems (bad flags, bad JSON, schema violations)
    2  integration failures (blow-up, step underflow, step budget)
    3  structural identity violations found by ``verify``, or a ``basin``
       system outside the paper's premise
    4  certificates that fail or cannot be issued
"""

import dataclasses
import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import geodiss
import geodiss.catalog
import geodiss.cli
from geodiss.cli import (
    EXIT_CERTIFICATE,
    EXIT_CONFIG,
    EXIT_IDENTITY,
    EXIT_INTEGRATION,
    EXIT_OK,
    main,
)
from geodiss.errors import (
    CertificateFailure,
    ConfigError,
    GeodissError,
    IdentityFailure,
    InputError,
    IntegrationFailure,
)

RIGID = "rigid_body:3,2,1"


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def _strict_json(text):
    """Parse standard JSON only: NaN, Infinity and -Infinity are refused."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

SIM_CONFIG = {
    "system": RIGID,
    "x0": [0.6, 0.48, 0.64],
    "flow": "perturbed",
    "integrator": {"method": "rk45", "rel_tol": 1e-8, "abs_tol": 1e-10,
                   "t_end": 5.0, "record_every": 10},
}


def test_simulate_writes_outputs(tmp_path, capsys):
    cfg = _write(tmp_path, "sim.json", SIM_CONFIG)
    out_dir = tmp_path / "out"
    rc, out, _ = _run(capsys, ["simulate", "--config", cfg, "--out", str(out_dir)])
    assert rc == EXIT_OK

    summary = json.loads(out)
    for key in ("flow", "finalTime", "finalState", "conservationDrift",
                "monotone", "monotonicityViolation", "rateCheckViolation",
                "finalClassification", "accepted", "rejected"):
        assert key in summary
    assert summary["flow"] == "perturbed"
    assert summary["monotone"] is True
    assert summary["rateCheckViolation"] <= 0.0
    assert summary["conservationDrift"] <= 1e-7

    # the on-disk summary equals the stdout report
    assert json.loads((out_dir / "summary.json").read_text()) == summary

    csv_path = out_dir / "trajectory.csv"
    header = csv_path.read_text().splitlines()[0]
    assert header == "t,x1,x2,x3,F1,G,detSigmaFull,v0norm,h"
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    assert data[0, 0] == 0.0
    assert data[-1, 0] == 5.0
    # dissipated column is nonincreasing on the corrected flow
    g = data[:, 5]
    assert np.all(np.diff(g) <= 1e-12)


def test_simulate_stdout_only_without_out(tmp_path, capsys):
    cfg = _write(tmp_path, "sim.json", SIM_CONFIG)
    rc, out, _ = _run(capsys, ["simulate", "--config", cfg])
    assert rc == EXIT_OK
    assert json.loads(out)["accepted"] > 0
    assert list(tmp_path.glob("*.csv")) == []


def test_simulate_blowup_maps_to_integration_exit(tmp_path, capsys):
    cfg = _write(tmp_path, "blow.json", {
        "system": {
            "dim": 2,
            "field": "zero",
            "conserved": [],
            "dissipated": {"terms": [{"coef": -0.5, "powers": [2, 0]},
                                     {"coef": -0.5, "powers": [0, 2]}]},
            "metric": "euclidean",
        },
        "x0": [0.1, 0.1],
        "bound": 1000.0,
        "integrator": {"method": "rk45", "t_end": 50.0},
    })
    rc, _, err = _run(capsys, ["simulate", "--config", cfg])
    assert rc == EXIT_INTEGRATION
    assert "UnboundedTrajectory" in err


def test_simulate_failed_reprojection_maps_to_integration_exit(
        tmp_path, capsys, refused_leaf_projection):
    cfg = _write(tmp_path, "sim.json", {
        **SIM_CONFIG,
        "integrator": {**SIM_CONFIG["integrator"], "leaf_reprojection": True}})
    rc, out, err = _run(capsys, ["simulate", "--config", cfg])
    assert rc == EXIT_INTEGRATION
    assert "LeafProjectionFailure" in err
    assert out == ""


def test_simulate_unperturbed_reports_no_rate_check_as_null(tmp_path, capsys):
    # the unperturbed flow has no rate audit: its worst excess does not exist
    cfg = _write(tmp_path, "sim.json", {**SIM_CONFIG, "flow": "unperturbed"})
    rc, out, _ = _run(capsys, ["simulate", "--config", cfg])
    assert rc == EXIT_OK
    summary = _strict_json(out)
    assert summary["flow"] == "unperturbed"
    assert summary["rateCheckViolation"] is None
    assert summary["monotonicityViolation"] is not None


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_report_json_refuses_non_finite_numbers(value):
    from geodiss.report import json_text

    with pytest.raises(ValueError):
        json_text({"value": value})
    assert _strict_json(json_text({"value": None, "finite": 1.5})) == {
        "value": None, "finite": 1.5}


@settings(max_examples=500, deadline=None, derandomize=True)
@given(value=st.floats(allow_nan=False, allow_infinity=False))
@example(value=0.0)
@example(value=-0.0)
@example(value=5e-324)
@example(value=-5e-324)
@example(value=2.2250738585072009e-308)  # the largest subnormal
@example(value=sys.float_info.max)
@example(value=0.1)
def test_report_json_keeps_the_bits_of_every_finite_float(value):
    # a JSON float is Python's shortest repr that reads back to the same
    # double: a Python float, a numpy scalar and an array entry all survive
    from geodiss.report import json_text

    text = json_text({"float": value, "scalar": np.float64(value), "array": np.array([value])})
    got = json.loads(text)
    for read in (got["float"], got["scalar"], got["array"][0]):
        assert type(read) is float
        assert struct.pack("<d", read) == struct.pack("<d", value)


def test_simulate_is_byte_deterministic(tmp_path, capsys):
    cfg = _write(tmp_path, "sim.json", SIM_CONFIG)
    runs = []
    for sub in ("a", "b"):
        out_dir = tmp_path / sub
        rc, out, _ = _run(capsys, ["simulate", "--config", cfg,
                                   "--out", str(out_dir)])
        assert rc == EXIT_OK
        runs.append((out,
                     (out_dir / "trajectory.csv").read_bytes(),
                     (out_dir / "summary.json").read_bytes()))
    assert runs[0] == runs[1]


def test_simulate_runs_dop853(tmp_path, capsys):
    # the eighth-order method through the CLI: two runs write the same
    # bytes, in fewer steps than RK45's, with clean audits
    config = {**SIM_CONFIG, "integrator": {**SIM_CONFIG["integrator"], "method": "dop853"}}
    cfg = _write(tmp_path, "sim.json", config)
    runs = []
    for sub in ("a", "b"):
        out_dir = tmp_path / sub
        rc, out, _ = _run(capsys, ["simulate", "--config", cfg, "--out", str(out_dir)])
        assert rc == EXIT_OK
        runs.append((out, (out_dir / "trajectory.csv").read_bytes(),
                     (out_dir / "summary.json").read_bytes()))
    assert runs[0] == runs[1]
    summary = json.loads(runs[0][0])
    assert summary["monotone"] is True and summary["rateCheckViolation"] <= 0.0
    assert summary["conservationDrift"] <= 1e-7
    rc, out, _ = _run(capsys, ["simulate", "--config", _write(tmp_path, "rk45.json", SIM_CONFIG)])
    assert summary["accepted"] < json.loads(out)["accepted"]


def test_simulate_without_method_runs_dop853(tmp_path, capsys):
    # an integrator section that names no method steps in dop853, the
    # default: its stdout and --out files are the bytes of the same section
    # naming "dop853"
    plain = {k: v for k, v in SIM_CONFIG["integrator"].items() if k != "method"}
    runs = []
    for name, section in (("default", plain), ("dop853", {**plain, "method": "dop853"})):
        cfg = _write(tmp_path, f"{name}.json", {**SIM_CONFIG, "integrator": section})
        out_dir = tmp_path / name
        rc, out, _ = _run(capsys, ["simulate", "--config", cfg, "--out", str(out_dir)])
        assert rc == EXIT_OK
        runs.append((out, (out_dir / "trajectory.csv").read_bytes(),
                     (out_dir / "summary.json").read_bytes()))
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

VERIFY_CHECKS = {
    "differentialConsistency", "conservation", "formulationAgreement",
    "tangency", "dissipationPairing", "tensorSymmetry", "gramFloor",
    "metricPositive",
}


def test_verify_passes_on_catalog_system(tmp_path, capsys):
    cfg = _write(tmp_path, "ver.json",
                 {"system": RIGID, "n_probes": 40, "seed": 3})
    out_dir = tmp_path / "out"
    rc, out, _ = _run(capsys, ["verify", "--config", cfg, "--out", str(out_dir)])
    assert rc == EXIT_OK
    report = json.loads(out)
    assert report["status"] == "pass"
    assert report["violations"] == []
    assert set(report["checks"]) == VERIFY_CHECKS
    assert all(c["passed"] for c in report["checks"].values())
    assert not report["checks"]["conservation"]["skipped"]
    assert json.loads((out_dir / "verify.json").read_text()) == report


def test_verify_builds_one_frame_per_point(tmp_path, capsys, monkeypatch):
    # the three formulations and the tensor are read off the point's frame
    import geodiss.control
    import geodiss.gram

    frames = []
    frame = geodiss.gram.system_frame

    def counting_frame(system, x):
        frames.append(1)
        return frame(system, x)

    for module in (geodiss.gram, geodiss.control):
        monkeypatch.setattr(module, "system_frame", counting_frame)
    cfg = _write(tmp_path, "ver.json", {"system": RIGID, "n_probes": 7, "seed": 3})
    rc, out, _ = _run(capsys, ["verify", "--config", cfg])
    assert rc == EXIT_OK
    assert json.loads(out)["status"] == "pass"
    assert len(frames) == 7


def test_verify_catches_corrupted_differential(tmp_path, capsys, monkeypatch):
    # shift the dissipated differential away from the value, which the
    # derivative consistency check must flag; the shifted differential takes
    # one point at a time, so the field is not stacked
    real = geodiss.catalog.from_name

    def corrupted(spec):
        entry = real(spec)
        orig = entry.system.dissipated
        bad = dataclasses.replace(orig, differential=lambda x: orig.d(x) + 1e-3,
                                  label=orig.label + "(corrupted)", stacked=False)
        return dataclasses.replace(
            entry, system=dataclasses.replace(entry.system, dissipated=bad))

    monkeypatch.setattr(geodiss.catalog, "from_name", corrupted)
    cfg = _write(tmp_path, "ver.json", {"system": RIGID, "n_probes": 15, "seed": 3})
    rc, out, _ = _run(capsys, ["verify", "--config", cfg])
    assert rc == EXIT_IDENTITY
    report = json.loads(out)
    assert report["status"] == "fail"
    assert "differentialConsistency" in report["violations"]


def test_verify_skips_conservation_for_identity_only_systems(tmp_path, capsys):
    cfg = _write(tmp_path, "ver.json",
                 {"system": "random_poly:5,3,7", "n_probes": 20, "seed": 1})
    rc, out, _ = _run(capsys, ["verify", "--config", cfg])
    assert rc == EXIT_OK
    report = json.loads(out)
    assert report["checks"]["conservation"]["skipped"] is True
    assert report["status"] == "pass"


# k = 0, G = |x|^2 / 2 and an X that does not annihilate G: its corrected flow
# holds a second attractor, at (0.6, 0), inside the disk G < 0.1922
OUTSIDE_PREMISE = {
    "dim": 2,
    "field": [{"terms": [{"coef": -1.0, "powers": [3, 0]}, {"coef": 1.15, "powers": [2, 0]},
                         {"coef": 0.67, "powers": [1, 0]}]},
              {"terms": [{"coef": 0.0, "powers": [0, 0]}]}],
    "dissipated": {"terms": [{"coef": 0.5, "powers": [2, 0]}, {"coef": 0.5, "powers": [0, 2]}]},
}


def test_verify_flags_a_system_outside_the_premise(tmp_path, capsys):
    cfg = _write(tmp_path, "ver.json", {"system": OUTSIDE_PREMISE, "n_probes": 25, "seed": 0})
    rc, out, _ = _run(capsys, ["verify", "--config", cfg])
    assert rc == EXIT_IDENTITY
    report = json.loads(out)
    assert report["violations"] == ["conservation"]
    conservation = report["checks"]["conservation"]
    assert conservation["skipped"] is False
    assert conservation["max"] > 0.1


def test_verify_checks_conservation_without_conserved_quantities(tmp_path, capsys):
    cfg = _write(tmp_path, "ver.json", {"system": "gradient_only", "n_probes": 10, "seed": 0})
    rc, out, _ = _run(capsys, ["verify", "--config", cfg])
    assert rc == EXIT_OK
    conservation = json.loads(out)["checks"]["conservation"]
    assert conservation["skipped"] is False
    assert conservation["passed"] is True


def test_verify_non_finite_field_is_identity_failure(tmp_path, capsys, monkeypatch):
    # X = (NaN, 0) where x1 > 0.5: the frames hold no X, so the premise
    # evaluator meets the NaN, which a running maximum would drop
    real = geodiss.catalog.from_name

    def nan_field(spec):
        entry = real(spec)
        X = geodiss.VectorField(2, lambda p: np.array([np.nan if p[0] > 0.5 else 0.0, 0.0]))
        return dataclasses.replace(entry, system=dataclasses.replace(entry.system, X=X))

    monkeypatch.setattr(geodiss.catalog, "from_name", nan_field)
    cfg = _write(tmp_path, "ver.json",
                 {"system": "gradient_only", "points": [[1.0, 0.0], [0.0, 0.0]]})
    rc, out, err = _run(capsys, ["verify", "--config", cfg])
    assert rc == EXIT_IDENTITY
    assert out == ""
    assert "NonFiniteValue" in err and "[1.0, 0.0]" in err


# ---------------------------------------------------------------------------
# equilibria
# ---------------------------------------------------------------------------


def test_equilibria_scan(tmp_path, capsys):
    cfg = _write(tmp_path, "eq.json", {
        "system": RIGID,
        "seeds": [[1.05, 0.02, -0.03], [0.04, 0.98, 0.05],
                  [0.01, -0.02, 1.1], [0.9, 0.1, -0.1]],
        "stability": True,
    })
    out_dir = tmp_path / "out"
    rc, out, _ = _run(capsys, ["equilibria", "--config", cfg,
                               "--out", str(out_dir)])
    assert rc == EXIT_OK
    report = json.loads(out)
    assert report["system"] == RIGID
    assert report["seedCount"] == 4
    assert report["count"] >= 3
    assert isinstance(report["unresolvedSeeds"], list)
    for eq in report["equilibria"]:
        assert eq["inPerturbedEquilibria"] is True
        assert eq["inUnperturbedEquilibria"] is True
        assert eq["inInvariantSet"] is True
        assert eq["stability"] in {"asymptotically_stable", "unstable",
                                   "undetermined"}
    assert (out_dir / "equilibria.json").exists()

    # the near-major-axis seed resolves to a major-axis point, classified
    # asymptotically stable
    majors = [eq for eq in report["equilibria"]
              if abs(abs(eq["location"][0])
                     - np.linalg.norm(eq["location"])) < 1e-9]
    assert majors
    assert any(eq["stability"] == "asymptotically_stable" for eq in majors)


def test_equilibria_refuses_stability_samples_without_the_stability_test(tmp_path, capsys):
    # the samples of a stability test that does not run are refused before
    # any work; without them the config runs
    config = {"system": "mexican_hat", "n_seeds": 4, "seed": 0, "stability": False}
    out_dir = tmp_path / "out"
    rc, out, err = _run(capsys, ["equilibria", "--out", str(out_dir), "--config",
                                 _write(tmp_path, "eq.json", {**config, "stability_samples": 3})])
    assert (rc, out) == (EXIT_CONFIG, "")
    assert err == ("error: 'stability_samples' applies to the stability test only, "
                   "not with 'stability': false\n")
    assert not out_dir.exists()
    rc, out, _ = _run(capsys, ["equilibria", "--config", _write(tmp_path, "ok.json", config)])
    assert rc == EXIT_OK
    assert {eq["stability"] for eq in json.loads(out)["equilibria"]} == {"undetermined"}


# (command, config with listed points, their key, the draw's count key and a count)
_LISTED = [("verify", {"system": RIGID, "points": [[0.6, 0.48, 0.64]]},
            "points", "n_probes", 40),
           ("equilibria", {"system": "mexican_hat", "seeds": [[1.05, 0.0, 0.02]],
                           "stability": False}, "seeds", "n_seeds", 4)]
_DRAW_KEYS = [(command, config, listed, key, value)
              for command, config, listed, count, n in _LISTED
              for key, value in ((count, n), ("box", 9.0), ("seed", 3), ("--seed", 5))]


@pytest.mark.parametrize("command, config, listed, key, value", _DRAW_KEYS,
                         ids=[f"{c}:{k}" for c, _, _, k, _ in _DRAW_KEYS])
def test_listed_points_refuse_the_keys_of_a_seeded_draw(tmp_path, capsys, command, config,
                                                        listed, key, value):
    # listed points or seeds are all a run reads: the draw's count, box and
    # seed, in the config or from --seed, are refused before any work
    out_dir = tmp_path / "out"
    argv = [command, "--out", str(out_dir)]
    if key == "--seed":
        argv += ["--config", _write(tmp_path, "cfg.json", config), "--seed", str(value)]
    else:
        argv += ["--config", _write(tmp_path, "cfg.json", {**config, key: value})]
    rc, out, err = _run(capsys, argv)
    name = key if key == "--seed" else f"'{key}'"
    assert (rc, out) == (EXIT_CONFIG, "")
    assert err == f"error: {name} applies to a seeded draw only, not with '{listed}'\n"
    assert not out_dir.exists()
    assert _run(capsys, [command, "--config", _write(tmp_path, "ok.json", config)])[0] == EXIT_OK


def test_simulate_takes_no_seed(tmp_path, capsys):
    # simulate draws nothing: a seed key is a schema violation, and --seed
    # is no flag of its parser
    cfg = _write(tmp_path, "sim.json", {**_SIM_SHORT, "seed": 3})
    rc, out, err = _run(capsys, ["simulate", "--config", cfg])
    assert (rc, out) == (EXIT_CONFIG, "")
    assert err == ("error: config invalid at top level: Additional properties are not "
                   "allowed ('seed' was unexpected)\n")
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", _write(tmp_path, "ok.json", _SIM_SHORT), "--seed", "3"])
    assert exc.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("usage: geodiss ")
    assert err.endswith("error: unrecognized arguments: --seed 3\n")


# ---------------------------------------------------------------------------
# basin / orbit / threshold
# ---------------------------------------------------------------------------

BASIN_BASE = {
    "system": RIGID,
    "target": [1.0, 0.0, 0.0],
    "level": 0.2,
    "sampler": {"cells_per_axis": 40},
    "n_trajectories": 6,
    "seed": 5,
}


def test_basin_conditional_pass_without_assertion(tmp_path, capsys):
    cfg = _write(tmp_path, "bas.json", BASIN_BASE)
    rc, out, _ = _run(capsys, ["basin", "--config", cfg])
    assert rc == EXIT_OK
    report = json.loads(out)
    assert report["passed"] is True
    assert report["verdict"] == "conditional-pass"
    assert report["properGAsserted"] is False


def test_basin_pass_with_assertion_and_members_dump(tmp_path, capsys):
    cfg = _write(tmp_path, "bas.json",
                 {**BASIN_BASE, "proper_G_asserted": True,
                  "dump_members": True})
    out_dir = tmp_path / "out"
    rc, out, _ = _run(capsys, ["basin", "--config", cfg, "--out", str(out_dir)])
    assert rc == EXIT_OK
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert report["properGAsserted"] is True
    assert json.loads((out_dir / "basin.json").read_text()) == report

    members = (out_dir / "members.csv").read_text().splitlines()
    assert members[0] == "x1,x2,x3"
    assert len(members) - 1 == report["componentSize"]


def test_basin_names_the_rotated_quadric(tmp_path, capsys):
    # the catalog's closed-form oracle by address: a level between its
    # minimum and its threshold passes, one past the threshold fails
    from geodiss.catalog import rotated_quadric

    entry = rotated_quadric(3, 0)
    low, high = entry.known_min_level, entry.known_saddle_levels[0]
    base = {"system": "rotated_quadric:3,0", "target": entry.known_equilibria[0].tolist(),
            "sampler": {"cells_per_axis": 16, "halfwidth": 1.5}, "n_trajectories": 2,
            "proper_G_asserted": True}
    for f, code in ((0.7, EXIT_OK), (1.5, EXIT_CERTIFICATE)):
        cfg = _write(tmp_path, "rq.json", {**base, "level": low + f * (high - low)})
        rc, out, _ = _run(capsys, ["basin", "--config", cfg])
        assert rc == code, f
        assert json.loads(out)["system"] == "rotated_quadric:3,0"


def test_basin_members_dump_requires_out_dir(tmp_path, capsys):
    cfg = _write(tmp_path, "bas.json", {**BASIN_BASE, "dump_members": True})
    rc, _, err = _run(capsys, ["basin", "--config", cfg])
    assert rc == EXIT_CONFIG
    assert "members.csv" in err


def test_basin_failed_certificate_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, "bas.json", {**BASIN_BASE, "level": 0.3})
    rc, out, _ = _run(capsys, ["basin", "--config", cfg])
    assert rc == EXIT_CERTIFICATE
    report = json.loads(out)
    assert report["verdict"] == "fail"
    assert report["farWitnesses"]


def test_basin_without_a_finished_trajectory_reports_null_g_max(tmp_path, capsys):
    # a step budget of 3 ends every trajectory before its horizon, so the max
    # of G over finished trajectories does not exist
    cfg = _write(tmp_path, "bas.json", {
        "system": RIGID, "target": [1.0, 0.0, 0.0], "level": 0.22,
        "sampler": {"cells_per_axis": 14}, "n_trajectories": 2,
        "integrator": {"max_steps": 3}})
    rc, out, _ = _run(capsys, ["basin", "--config", cfg])
    assert rc == EXIT_CERTIFICATE
    report = _strict_json(out)
    assert report["verdict"] == "fail"
    assert report["trajectoriesConverged"] == 0
    assert [f["error"] for f in report["failedStarts"]] == ["MaxStepsExceeded"] * 2
    assert report["maxTrajectoryG"] is None


SPHERE_4D = {
    "dim": 4,
    "conserved": [{"terms": [{"coef": 0.5, "powers": [2 * (j == i) for j in range(4)]}
                             for i in range(4)]}],
    "dissipated": {"terms": [{"coef": a, "powers": [2 * (j == i) for j in range(4)]}
                             for i, a in enumerate((0.5, 1.0, 1.5, 2.0))]},
}


def test_basin_one_sample_component_is_certificate_failure(tmp_path, capsys):
    cfg = _write(tmp_path, "bas.json", {
        "system": SPHERE_4D, "target": [1.0, 0.0, 0.0, 0.0], "level": 0.9,
        "sampler": {"n_samples": 1}, "n_trajectories": 1, "proper_G_asserted": True})
    rc, out, _ = _run(capsys, ["basin", "--config", cfg])
    assert rc == EXIT_CERTIFICATE
    report = json.loads(out)
    assert report["verdict"] == "fail"
    assert report["componentSize"] == 1
    assert "component holds too few samples, containment unverified" in report["reasons"]


@pytest.mark.parametrize("system, target, sampler", [
    ("rigid_body:3,2,1", [1.0, 0.0, 0.0], {"cells_per_axis": 257}),
    (SPHERE_4D, [1.0, 0.0, 0.0, 0.0], {"n_samples": 2 ** 20 + 1}),
])
def test_basin_oversized_sampler_is_config_error(tmp_path, capsys, system, target, sampler):
    cfg = _write(tmp_path, "bas.json", {"system": system, "target": target,
                                        "level": 0.9, "sampler": sampler})
    rc, out, err = _run(capsys, ["basin", "--config", cfg])
    assert rc == EXIT_CONFIG
    assert out == ""
    assert next(iter(sampler)) in err


@pytest.mark.parametrize("seed", [0, 6, 7])
def test_basin_outside_the_premise_is_identity_failure(tmp_path, capsys, seed):
    cfg = _write(tmp_path, "bas.json", {
        "system": OUTSIDE_PREMISE, "target": [0.0, 0.0], "level": 0.1922,
        "sampler": {"cells_per_axis": 32}, "n_trajectories": 50,
        "proper_G_asserted": True})
    rc, out, err = _run(capsys, ["basin", "--config", cfg, "--seed", str(seed)])
    assert rc == EXIT_IDENTITY
    assert out == ""
    assert "PremiseViolation" in err and "does not annihilate g" in err


def test_basin_refuses_an_identity_only_entry(tmp_path, capsys):
    cfg = _write(tmp_path, "bas.json", {"system": "random_poly:3,1,0",
                                        "target": [1.0, 0.0, 0.0], "level": 0.3})
    rc, out, err = _run(capsys, ["basin", "--config", cfg])
    assert rc == EXIT_IDENTITY
    assert out == ""
    assert "PremiseViolation" in err and "random_poly:3,1,0" in err


def test_basin_unstable_target_is_certificate_failure(tmp_path, capsys):
    cfg = _write(tmp_path, "bas.json",
                 {**BASIN_BASE, "target": [0.0, 1.0, 0.0], "level": 0.3})
    rc, _, err = _run(capsys, ["basin", "--config", cfg])
    assert rc == EXIT_CERTIFICATE
    assert "NotAsymptoticallyStable" in err


def test_orbit_certificate_failure_via_cli(tmp_path, capsys):
    cfg = _write(tmp_path, "orb.json", {
        "system": "mexican_hat",
        "orbit_seed": [1.05, 0.0, 0.02],
        "level": 0.3,
        "sampler": {"cells_per_axis": 32},
        "n_trajectories": 4,
        "seed": 2,
    })
    rc, out, _ = _run(capsys, ["basin", "--config", cfg])
    assert rc == EXIT_CERTIFICATE
    report = json.loads(out)
    assert report["verdict"] == "fail"
    assert "period" in report


def test_threshold_mode(tmp_path, capsys):
    cfg = _write(tmp_path, "thr.json", {
        "system": RIGID,
        "target": [1.0, 0.0, 0.0],
        "threshold": {"level_max": 0.4, "steps": 3},
        "sampler": {"cells_per_axis": 32},
        "n_trajectories": 4,
        "seed": 1,
    })
    out_dir = tmp_path / "out"
    rc, out, _ = _run(capsys, ["basin", "--config", cfg, "--out", str(out_dir)])
    assert rc == EXIT_OK
    report = json.loads(out)
    assert report["mode"] == "threshold"
    assert 0.2 <= report["level"] <= 0.3
    assert report["levelMax"] == 0.4
    assert report["history"][0] == [0.4, False]
    assert (out_dir / "basin.json").exists()


_ORBIT_SMALL = {"system": "mexican_hat", "orbit_seed": [1.05, 0.0, 0.02], "level": 0.2,
                "sampler": {"cells_per_axis": 12, "halfwidth": 2.8}, "n_trajectories": 2}
# each level's ensemble runs to its horizon, and period detection to t_search
_BASIN_T_END = ("'integrator.t_end' does not apply to basin: each level's ensemble runs "
                "to its horizon, and period detection to 't_search'")
_THRESHOLD_SMALL = {"system": RIGID, "target": [1.0, 0.0, 0.0],
                    "threshold": {"level_max": 0.4, "steps": 2},
                    "sampler": {"cells_per_axis": 14}, "n_trajectories": 2}


@pytest.mark.parametrize("config, message", [
    ({**BASIN_BASE, "t_search": 0.001}, "'t_search' applies to orbit targets only"),
    ({**BASIN_BASE, "recur_tol": 5}, "'recur_tol' applies to orbit targets only"),
    ({**_THRESHOLD_SMALL, "t_search": 10}, "'t_search' applies to orbit targets only"),
    ({**_THRESHOLD_SMALL, "dump_members": True},
     "'dump_members' applies to a single level only, not to a 'threshold' search"),
    ({**BASIN_BASE, "integrator": {"t_end": 1000.0}}, _BASIN_T_END),
    ({**_ORBIT_SMALL, "integrator": {"method": "rk45", "t_end": 0.001}}, _BASIN_T_END),
    ({**_THRESHOLD_SMALL, "integrator": {"t_end": 5.0}}, _BASIN_T_END),
], ids=["equilibrium:t_search", "equilibrium:recur_tol", "threshold:t_search",
        "threshold:dump_members", "equilibrium:integrator.t_end", "orbit:integrator.t_end",
        "threshold:integrator.t_end"])
def test_basin_refuses_keys_its_mode_does_not_read(tmp_path, capsys, config, message):
    # a key the run would ignore is refused before any work
    out_dir = tmp_path / "out"
    rc, out, err = _run(capsys, ["basin", "--config", _write(tmp_path, "bas.json", config),
                                 "--out", str(out_dir)])
    assert (rc, out, err) == (EXIT_CONFIG, "", f"error: {message}\n")
    assert not out_dir.exists()


def test_orbit_reads_its_period_search_keys(tmp_path, capsys):
    # the orbit's keys at their defaults print the bytes of the config
    # without them, and a search window shorter than the period fails
    runs = [_run(capsys, ["basin", "--config", _write(tmp_path, f"orb{i}.json", cfg)])
            for i, cfg in enumerate([_ORBIT_SMALL,
                                     {**_ORBIT_SMALL, "t_search": 50.0, "recur_tol": 1e-8}])]
    assert runs[0] == runs[1]
    assert runs[0][0] == EXIT_OK
    cfg = _write(tmp_path, "short.json", {**_ORBIT_SMALL, "t_search": 3.0})
    rc, out, err = _run(capsys, ["basin", "--config", cfg])
    assert (rc, out) == (EXIT_CERTIFICATE, "")
    assert err == "error: NotPeriodic: no return within 0.2 of the seed over [0, 3.0]\n"


# ---------------------------------------------------------------------------
# configuration errors
# ---------------------------------------------------------------------------


def test_schema_violation_names_the_offending_key(tmp_path, capsys):
    cfg = _write(tmp_path, "sim.json", {**SIM_CONFIG, "x0": "nope"})
    rc, _, err = _run(capsys, ["simulate", "--config", cfg])
    assert rc == EXIT_CONFIG
    assert "x0" in err


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    cfg = _write(tmp_path, "ver.json",
                 {"system": RIGID, "n_porbes": 10})
    rc, _, err = _run(capsys, ["verify", "--config", cfg])
    assert rc == EXIT_CONFIG
    assert "n_porbes" in err


def test_missing_required_key_is_rejected(tmp_path, capsys):
    cfg = _write(tmp_path, "ver.json", {"n_probes": 10})
    rc, _, err = _run(capsys, ["verify", "--config", cfg])
    assert rc == EXIT_CONFIG
    assert "system" in err


@pytest.mark.parametrize("command", sorted(geodiss.cli._HANDLERS))
def test_packaged_schema_passes_its_metaschema(command):
    # the CLI validates configs without checking the schema itself
    import jsonschema

    doc = geodiss.cli._load_schema()
    schema = {**doc[command], "$defs": doc["$defs"]}
    jsonschema.validators.validator_for(schema).check_schema(schema)


def test_schema_methods_are_the_integrator_methods():
    # the config's integrator.method admits exactly the integrators' methods,
    # so neither can gain one without the other
    from geodiss.integrators import Method

    enum = geodiss.cli._load_schema()["$defs"]["integrator"]["properties"]["method"]["enum"]
    assert len(enum) == len(set(enum))
    assert set(enum) == {m.value for m in Method}


@pytest.mark.parametrize("command, config", [
    ("simulate", {"system": "mexican_hat", "x0": "nope"}),
    ("verify", {"system": "rigid_body:3,2,1", "n_porbes": 10}),
    ("equilibria", {"n_seeds": 0}),
    ("basin", {"system": "mexican_hat", "level": "high", "sampler": {"cells_per_axis": 1}}),
])
def test_config_errors_are_those_of_jsonschema_validate(tmp_path, command, config):
    import jsonschema

    doc = geodiss.cli._load_schema()
    schema = {**doc[command], "$defs": doc["$defs"]}
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(config, schema)
    with pytest.raises(ConfigError) as got:
        geodiss.cli._load_config(_write(tmp_path, "cfg.json", config), command)
    exc = expected.value
    where = exc.json_path if exc.json_path != "$" else "top level"
    assert str(got.value) == f"config invalid at {where}: {exc.message}"


# the keywords geodiss.cli._conforms interprets; any other one sends every
# config to jsonschema
CONFORMS_KEYWORDS = {"type", "properties", "additionalProperties", "required", "items",
                     "minItems", "minLength", "minimum", "maximum", "exclusiveMinimum",
                     "enum", "const", "oneOf", "$ref", "title", "description"}


def test_packaged_schema_uses_only_keywords_the_fast_check_interprets():
    doc = geodiss.cli._load_schema()
    seen = set()

    def walk(node, where):
        assert set(node) <= CONFORMS_KEYWORDS, (where, set(node) - CONFORMS_KEYWORDS)
        seen.update(node)
        if "type" in node:
            assert node["type"] in geodiss.cli._JSON_TYPES, where
        if "additionalProperties" in node:
            assert node["additionalProperties"] is False, where
        if "$ref" in node:
            assert node["$ref"].removeprefix("#/$defs/") in doc["$defs"], where
        for key in ("enum", "const"):
            if key in node:
                options = node[key] if key == "enum" else [node[key]]
                assert all(isinstance(o, str) for o in options), where
        for name, sub in node.get("properties", {}).items():
            walk(sub, f"{where}/properties/{name}")
        if "items" in node:
            walk(node["items"], f"{where}/items")
        for i, sub in enumerate(node.get("oneOf", [])):
            walk(sub, f"{where}/oneOf/{i}")

    for name, sub in doc["$defs"].items():
        walk(sub, f"$defs/{name}")
    for command in geodiss.cli._HANDLERS:
        walk(doc[command], command)
    # the walk reached every keyword the check knows but the annotations
    assert seen >= CONFORMS_KEYWORDS - {"title", "description"}


def test_conforming_config_is_loaded_without_jsonschema(tmp_path):
    cfg = _write(tmp_path, "bas.json", {
        "system": {**SPHERE_4D, "field": "zero", "metric": "euclidean"},
        "target": [1.0, 0.0, 0.0, 0.0], "level": 0.95,
        "sampler": {"n_samples": 2048, "halfwidth": 1.5}, "n_trajectories": 1,
        "proper_G_asserted": True})
    bad = _write(tmp_path, "bad.json", {"system": RIGID, "level": "high"})
    script = ("import sys, geodiss.cli\n"
              "geodiss.cli._load_config(sys.argv[1], 'basin')\n"
              "print('jsonschema' in sys.modules)\n"
              "try:\n"
              "    geodiss.cli._load_config(sys.argv[2], 'basin')\n"
              "except geodiss.cli.ConfigError:\n"
              "    print('jsonschema' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script, cfg, bad],
                          capture_output=True, text=True, check=True)
    # jsonschema loads only to explain the config that does not conform
    assert proc.stdout.split() == ["False", "True"]


_PLANE = {"dim": 2, "dissipated": {"terms": [{"coef": 0.5, "powers": [2, 0]},
                                              {"coef": 0.5, "powers": [0, 2]}]}}
_SIM_SHORT = {"system": RIGID, "x0": [0.6, 0.48, 0.64], "integrator": {"t_end": 0.2}}
_EQUILIBRIA = {"system": "mexican_hat", "n_seeds": 3, "stability_samples": 4}
_GRID_BASIN = {"system": RIGID, "target": [1.0, 0.0, 0.0], "level": 0.22,
               "sampler": {"cells_per_axis": 8}, "n_trajectories": 2}
_SAMPLED_BASIN = {"system": SPHERE_4D, "target": [1.0, 0.0, 0.0, 0.0], "level": 0.95,
                  "sampler": {"n_samples": 64, "halfwidth": 1.5}, "n_trajectories": 1}

# one config per integer position of the schema, and the path of its integer
INTEGER_FIELDS = [
    ("simulate", {**_SIM_SHORT, "system": _PLANE, "x0": [0.3, 0.1]}, ("system", "dim")),
    ("simulate", {**_SIM_SHORT, "system": _PLANE, "x0": [0.3, 0.1]},
     ("system", "dissipated", "terms", 1, "powers", 1)),
    ("simulate", {**_SIM_SHORT, "integrator": {"t_end": 0.2, "max_steps": 5}},
     ("integrator", "max_steps")),
    ("simulate", {**_SIM_SHORT, "integrator": {"t_end": 0.2, "record_every": 3}},
     ("integrator", "record_every")),
    ("verify", {"system": RIGID, "n_probes": 3}, ("n_probes",)),
    ("verify", {"system": RIGID, "n_probes": 3, "seed": 2}, ("seed",)),
    ("equilibria", _EQUILIBRIA, ("n_seeds",)),
    ("equilibria", {**_EQUILIBRIA, "seed": 2}, ("seed",)),
    ("equilibria", _EQUILIBRIA, ("stability_samples",)),
    ("basin", _GRID_BASIN, ("sampler", "cells_per_axis")),
    ("basin", _SAMPLED_BASIN, ("sampler", "n_samples")),
    ("basin", {**_SAMPLED_BASIN, "sampler": {"n_samples": 64, "halfwidth": 1.5,
                                             "neighbor_count": 4}},
     ("sampler", "neighbor_count")),
    ("basin", {**_SAMPLED_BASIN, "sampler": {"n_samples": 64, "halfwidth": 1.5, "seed": 3}},
     ("sampler", "seed")),
    ("basin", _GRID_BASIN, ("n_trajectories",)),
    ("basin", {**_GRID_BASIN, "seed": 3}, ("seed",)),
    ("basin", {**_GRID_BASIN, "max_refine": 5}, ("max_refine",)),
    ("basin", {**_GRID_BASIN, "threshold": {"level_max": 0.4, "steps": 2}},
     ("threshold", "steps")),
]


# the tolerances of the numerical checks: fixed constants, not config keys
FIXED_TOLERANCES = (
    [("verify", {"system": RIGID, "n_probes": 3}, key)
     for key in ("identity_factor", "gram_floor", "conservation_tol", "tensor_symmetry_tol")]
    + [("equilibria", _EQUILIBRIA, key)
       for key in ("newton_tol", "dedup_tol", "tol_inv", "tol_g", "stability_radius")]
    + [("basin", _GRID_BASIN, key) for key in ("target_radius", "susp_ratio", "susp_g")]
    + [("basin", _ORBIT_SMALL, key) for key in ("witness_tol", "coverage_factor")])


@pytest.mark.parametrize("command, config, key", FIXED_TOLERANCES,
                         ids=[f"{c}:{k}" for c, _, k in FIXED_TOLERANCES])
def test_fixed_tolerance_in_a_config_is_config_error(tmp_path, capsys, command, config, key):
    assert len(FIXED_TOLERANCES) == 14
    assert key not in geodiss.cli._load_schema()[command]["properties"]
    cfg = _write(tmp_path, "cfg.json", {**config, key: 1e-6})
    rc, out, err = _run(capsys, [command, "--config", cfg])
    assert (rc, out) == (EXIT_CONFIG, "")
    assert err == ("error: config invalid at top level: Additional properties are not "
                   f"allowed ({key!r} was unexpected)\n")


def test_integer_fields_are_every_integer_of_the_schema():
    doc = geodiss.cli._load_schema()

    def integers(node):
        subs = [*node.get("properties", {}).values(), *node.get("oneOf", [])]
        if "items" in node:
            subs.append(node["items"])
        return (node.get("type") == "integer") + sum(integers(sub) for sub in subs)

    nodes = [*doc["$defs"].values(), *(doc[command] for command in geodiss.cli._HANDLERS)]
    assert sum(integers(node) for node in nodes) == len(INTEGER_FIELDS) == 17


@pytest.mark.parametrize("command, config, path", INTEGER_FIELDS,
                         ids=[f"{c}:{'.'.join(map(str, p))}" for c, _, p in INTEGER_FIELDS])
def test_integral_float_config_runs_as_its_integer(tmp_path, capsys, command, config, path):
    # 14.0 is an integer to the schema, as in Draft 2020-12: the run gives
    # the exit code and stdout of the config written with 14
    floated = json.loads(json.dumps(config))
    *head, last = path
    node = floated
    for key in head:
        node = node[key]
    assert type(node[last]) is int
    node[last] = float(node[last])
    assert f"{node[last]!r}".endswith(".0")
    runs = [_run(capsys, [command, "--config", _write(tmp_path, f"{name}.json", cfg)])[:2]
            for name, cfg in (("int", config), ("float", floated))]
    assert runs[0] == runs[1]


def test_config_that_is_not_utf8_is_config_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"system": "rigid_body:3,2,1", "n_probes": 2, "seed": 0, "x": "\xff"}')
    rc, out, err = _run(capsys, ["verify", "--config", str(path)])
    assert rc == EXIT_CONFIG
    assert out == ""
    assert err == (f"error: config {path} is not UTF-8 text: 'utf-8' codec can't decode "
                   f"byte 0xff in position 63: invalid start byte\n")


def test_deeply_nested_config_is_config_error(tmp_path, capsys):
    # the JSON reader gives up on deep nesting with a RecursionError
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    rc, out, err = _run(capsys, ["verify", "--config", str(path)])
    assert rc == EXIT_CONFIG
    assert out == ""
    assert err == f"error: config {path} is nested too deeply to read\n"


def test_config_is_read_as_utf8_in_the_c_locale(tmp_path):
    # without UTF-8 mode the C locale decodes files as ASCII
    path = tmp_path / "ver.json"
    path.write_text('{"system": "rigid_body:3,2,1", "n_pr\u00f3bes": 2}', encoding="utf-8")
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
           "PYTHONIOENCODING": "utf-8"}
    proc = subprocess.run([sys.executable, "-m", "geodiss", "verify", "--config", str(path)],
                          capture_output=True, text=True, encoding="utf-8", env=env)
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr == ("error: config invalid at top level: Additional properties are "
                           "not allowed ('n_pr\u00f3bes' was unexpected)\n")


def test_unknown_catalog_address_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "sim.json", {**SIM_CONFIG, "system": "warp_drive"})
    rc, _, err = _run(capsys, ["simulate", "--config", cfg])
    assert rc == EXIT_CONFIG
    assert "warp_drive" in err


def test_nonexistent_config_path(tmp_path, capsys):
    rc, _, err = _run(capsys, ["simulate", "--config",
                               str(tmp_path / "missing.json")])
    assert rc == EXIT_CONFIG
    assert "missing.json" in err


def test_invalid_json_config(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    rc, _, err = _run(capsys, ["simulate", "--config", str(path)])
    assert rc == EXIT_CONFIG
    assert "JSON" in err


def test_argparse_errors_use_config_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate"])                      # missing --config
    assert exc.value.code == EXIT_CONFIG
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command", "--config", "x.json"])
    assert exc.value.code == EXIT_CONFIG
    capsys.readouterr()


@pytest.mark.parametrize("command", ["simulate", "verify", "equilibria", "basin"])
def test_negative_seed_is_an_argument_error(tmp_path, capsys, command):
    # simulate draws nothing and takes no --seed at all
    cfg = _write(tmp_path, "ver.json", {"system": RIGID, "n_probes": 3})
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, "--seed", "-1"])
    assert exc.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    if command == "simulate":
        assert err.startswith("usage: geodiss ")
        assert err.endswith("error: unrecognized arguments: --seed -1\n")
    else:
        assert err.startswith("usage: geodiss " + command)
        assert "--seed" in err and "non-negative integer" in err


@pytest.mark.parametrize("threads", ["0", "-1"])
@pytest.mark.parametrize("command", ["simulate", "verify", "equilibria", "basin"])
def test_non_positive_threads_is_an_argument_error(tmp_path, capsys, monkeypatch,
                                                   command, threads):
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    cfg = _write(tmp_path, "ver.json", {"system": RIGID, "n_probes": 3})
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, "--threads", threads])
    assert exc.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("usage: geodiss " + command)
    assert "--threads" in err and "positive integer" in err
    assert "OMP_NUM_THREADS" not in os.environ


def test_mismatched_state_dimension_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "sim.json", {**SIM_CONFIG, "x0": [1.0, 0.0]})
    rc, _, err = _run(capsys, ["simulate", "--config", cfg])
    assert rc == EXIT_CONFIG


@pytest.mark.parametrize("checkpoints, message", [
    ([0.5, 9.0], "checkpoints must lie within [0, t_end]"),    # past t_end = 5
    ([2.0, 1.0, 2.0], "checkpoints must be strictly increasing"),
])
def test_bad_checkpoints_are_config_errors(tmp_path, capsys, checkpoints, message):
    cfg = _write(tmp_path, "sim.json", {**SIM_CONFIG, "checkpoints": checkpoints})
    rc, out, err = _run(capsys, ["simulate", "--config", cfg])
    assert rc == EXIT_CONFIG
    assert err == f"error: {message}\n"
    assert out == ""


def test_unsorted_and_empty_checkpoints_are_accepted(tmp_path, capsys):
    plain = _run(capsys, ["simulate", "--config",
                          _write(tmp_path, "a.json", SIM_CONFIG)])
    unsorted = _run(capsys, ["simulate", "--config", _write(
        tmp_path, "b.json", {**SIM_CONFIG, "checkpoints": [2.0, 0.5]})])
    empty = _run(capsys, ["simulate", "--config", _write(
        tmp_path, "c.json", {**SIM_CONFIG, "checkpoints": []})])
    assert plain[0] == unsorted[0] == EXIT_OK
    # checkpoints are read off the dense output: the run is unchanged
    assert unsorted == plain
    assert empty == plain


def test_unwritable_out_dir_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "ver.json", {"system": RIGID, "n_probes": 3})
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    rc, out, err = _run(capsys, ["verify", "--config", cfg, "--out", str(blocker)])
    assert rc == EXIT_CONFIG
    assert err.startswith("error: cannot write verify.json under --out: ")
    assert out == ""


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask022", "umask077"])
def test_out_files_take_the_umask(tmp_path, capsys, umask, mode):
    # each file under --out gets the mode of any new file: 0o666 less the umask
    cfg = _write(tmp_path, "sim.json", {"system": RIGID, "x0": [0.6, 0.48, 0.64],
                                        "integrator": {"t_end": 0.1}})
    out_dir = tmp_path / "out"
    old = os.umask(umask)
    try:
        rc, _, _ = _run(capsys, ["simulate", "--config", cfg, "--out", str(out_dir)])
    finally:
        os.umask(old)
    assert rc == 0
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == ["summary.json", "trajectory.csv"]
    for name in files:
        assert (out_dir / name).stat().st_mode & 0o777 == mode, name


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_config_number_is_config_error(tmp_path, capsys, number):
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(SIM_CONFIG).replace('"t_end": 5.0',
                                                   f'"t_end": {number}'))
    rc, out, err = _run(capsys, ["simulate", "--config", str(path)])
    assert rc == EXIT_CONFIG
    assert err == f"error: config {path} holds the non-finite number {number}\n"
    assert out == ""


@pytest.mark.parametrize("command, extra", [
    ("verify", {"n_probes": 5}),
    ("equilibria", {"n_seeds": 4}),
])
def test_box_whose_width_overflows_is_config_error(tmp_path, capsys, command, extra):
    # 1e308 is finite, but the draw's width 2 * box is not
    cfg = _write(tmp_path, "cfg.json", {"system": RIGID, "seed": 0, "box": 1e308,
                                        **extra})
    rc, out, err = _run(capsys, [command, "--config", cfg])
    assert rc == EXIT_CONFIG
    assert err == "error: 'box' 1e+308 is too large: the box width 2 * box overflows\n"
    assert out == ""


def test_t_end_past_the_step_floor_is_config_error(tmp_path, capsys):
    # the first step 0.01 already lies below the floor 1e-14 * t_end
    cfg = _write(tmp_path, "sim.json", {
        **SIM_CONFIG, "integrator": {"t_end": 1e308, "max_steps": 50}})
    rc, out, err = _run(capsys, ["simulate", "--config", cfg])
    assert rc == EXIT_CONFIG
    assert err.startswith("error: the first step min(h0, t_end) = 1.000e-02 "
                          "(h0 = 0.01, t_end = 1e+308) lies below the step floor")
    assert out == ""


RAGGED_SYSTEM = {"dim": 2,
                 "dissipated": {"terms": [{"coef": 0.5, "powers": [2, 0]}]},
                 "metric": [[1.0], [0.0, 1.0]]}


@pytest.mark.parametrize("command, extra", [
    ("simulate", {"x0": [1.0, 0.0]}),
    ("verify", {}),
    ("equilibria", {}),
    ("basin", {"target": [1.0, 0.0], "level": 0.2}),
])
def test_ragged_inline_metric_is_config_error(tmp_path, capsys, command, extra):
    cfg = _write(tmp_path, "cfg.json", {"system": RAGGED_SYSTEM, **extra})
    rc, out, err = _run(capsys, [command, "--config", cfg])
    assert rc == EXIT_CONFIG
    assert err == "error: 'metric' rows have lengths [1, 2], expected 2 each\n"
    assert out == ""


# Each category base and the exit code the documentation gives it.
DOCUMENTED_EXIT_CODES = {InputError: 1, IntegrationFailure: 2,
                         IdentityFailure: 3, CertificateFailure: 4}
ERROR_NAMES = sorted(
    name for name, module in geodiss._EXPORTS.items() if module == "errors"
    and isinstance(getattr(geodiss, name), type)
    and issubclass(getattr(geodiss, name), GeodissError)
    and getattr(geodiss, name) is not GeodissError)


@pytest.mark.parametrize("name", ERROR_NAMES)
def test_every_error_maps_to_its_category_exit_code(tmp_path, capsys, monkeypatch,
                                                    name):
    error = getattr(geodiss, name)
    categories = [base for base in DOCUMENTED_EXIT_CODES if issubclass(error, base)]
    assert len(categories) == 1, f"{name} must have exactly one category base"

    def handler(config, args):
        raise error("raised by the handler")

    monkeypatch.setitem(geodiss.cli._HANDLERS, "verify", handler)
    cfg = _write(tmp_path, "ver.json", {"system": RIGID})
    rc, out, err = _run(capsys, ["verify", "--config", cfg])
    assert rc == DOCUMENTED_EXIT_CODES[categories[0]]
    kind = "" if categories[0] is InputError else f"{name}: "
    assert err == f"error: {kind}raised by the handler\n"
    assert out == ""


def test_every_error_class_is_exported():
    # the exit-code test above reaches a class only through the exports
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    defined = {cls.__name__ for cls in subclasses(GeodissError)
               if cls.__module__ == "geodiss.errors"}
    assert defined <= set(ERROR_NAMES)


# ---------------------------------------------------------------------------
# packaging details
# ---------------------------------------------------------------------------


def test_cli_import_loads_no_numpy():
    # --threads must cap the BLAS pools before numpy first loads
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, geodiss.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_module_entry_point(tmp_path):
    cfg = _write(tmp_path, "ver.json",
                 {"system": "gradient_only:quadratic", "n_probes": 10,
                  "seed": 0})
    proc = subprocess.run(
        [sys.executable, "-m", "geodiss", "verify", "--config", cfg],
        capture_output=True, text=True)
    assert proc.returncode == EXIT_OK
    assert json.loads(proc.stdout)["status"] == "pass"

