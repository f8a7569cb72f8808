"""Command line front end.

Four subcommands share one calling convention: a JSON config, read as
UTF-8 and validated against the packaged schema (unknown keys are rejected
with the offending key named), an optional ``--out`` directory that the
invocation owns and fills atomically, ``--seed`` to override the config's
seed (except ``simulate``, which draws nothing), and ``--threads`` to cap
linear-algebra thread pools before the numerical core loads. The primary
JSON report always goes to stdout; files are written only when ``--out``
is given (simulate: trajectory.csv and summary.json, verify: verify.json,
equilibria: equilibria.json, basin: basin.json plus members.csv on
request).

A config sets only what the run is about: the system, its points, seeds
and counts, the sampler and integrator, and the scales that follow the
system (``t_search``, ``recur_tol``, ``converge_tol``). The tolerances of
the numerical checks are fixed constants, verify's in this module, so the
schema refuses a config that names one. A key that the run would not read
is refused too: ``t_search`` or ``recur_tol`` without ``orbit_seed``,
``dump_members`` with ``threshold``, and the keys of a seeded draw (its
count, ``box``, ``seed`` and ``--seed``) with listed ``points`` or ``seeds``.

Exit codes (the full set; argparse failures are remapped to 1). Each error
class takes its code from its category base in :mod:`geodiss.errors`, and
``main`` turns any of them into that code and one ``error:`` line on stderr
(input errors print their message, the others their type name first):
  0  success (including a conditional pass of a certificate)
  1  InputError: unreadable or non-UTF-8 config, schema violation, bad
     system or shape, unwritable --out
  2  IntegrationFailure: step underflow, step budget, non-finite or
     unbounded state, or a leaf re-projection that did not converge
  3  IdentityFailure: a structural identity, metric positivity, or
     differential consistency check failed, a field value was not finite,
     or a basin system lies outside the paper's premise (PremiseViolation:
     X does not annihilate a conserved quantity or G, or the system is an
     identity-only catalog entry)
  4  CertificateFailure: a basin or orbit certificate did not hold, or its
     preconditions (stability, level, periodicity) were not met

A config that conforms to the schema is checked by ``_conforms``, a
yes/no check of the keywords the schema uses, without loading jsonschema,
whose import takes about 0.1 s, a fifth of a small ``basin`` run. A config
that does not conform is explained by jsonschema: the error line is its
best match.

This module deliberately avoids importing the numerical core at module
scope so that ``--threads`` can still influence BLAS pool sizes.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from importlib import resources

from .errors import (
    CertificateFailure,
    ConfigError,
    GeodissError,
    IdentityFailure,
    InputError,
    IntegrationFailure,
    NonPositiveDefiniteMetric,
    PremiseViolation,
    SingularLeaf,
)

EXIT_OK = 0
EXIT_CONFIG = InputError.exit_code
EXIT_INTEGRATION = IntegrationFailure.exit_code
EXIT_IDENTITY = IdentityFailure.exit_code
EXIT_CERTIFICATE = CertificateFailure.exit_code

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# verify's tolerances: each identity's residual over its scale, the Gram
# matrix's least eigenvalue over its classification scale (a floor below 0),
# and the cofactor tensor's asymmetry over its largest entry
_IDENTITY_FACTOR = 1e-9
_GRAM_FLOOR = 1e-10
_TENSOR_SYMMETRY_TOL = 1e-12


class _Parser(argparse.ArgumentParser):
    """Argument errors are configuration errors; exit 2 is reserved for
    integration failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"error: {message}\n")


def _int_at_least(minimum: int, kind: str):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"expected a {kind} integer, got {text!r}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="geodiss",
        description="Gram-determinant control fields: simulation, structure "
                    "verification, equilibrium search, basin certificates.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    specs = [
        ("simulate", "integrate the corrected or the conservative flow, "
                     "writing a CSV trajectory"),
        ("verify", "check structural identities and derivative consistency "
                   "at sample points"),
        ("equilibria", "locate corrected-flow equilibria and classify them"),
        ("basin", "build a sublevel-set basin certificate for an "
                  "equilibrium or a periodic orbit"),
    ]
    for name, help_text in specs:
        q = sub.add_parser(name, help=help_text)
        q.add_argument("--config", required=True, metavar="PATH",
                       help="JSON config (schema: src/geodiss/config_schema.json)")
        q.add_argument("--out", default=None, metavar="DIR",
                       help="output directory owned by this invocation; "
                            "reports also go to stdout")
        if name != "simulate":  # which draws nothing
            q.add_argument("--seed", type=_int_at_least(0, "non-negative"),
                           default=None, help="override the seed in the config")
        q.add_argument("--threads", type=_int_at_least(1, "positive"),
                       default=None, help="cap linear-algebra thread pools")
    return parser


def _cap_threads(n: int) -> None:
    for var in _THREAD_ENV_VARS:
        os.environ[var] = str(n)


def _load_schema() -> dict:
    with resources.files("geodiss").joinpath("config_schema.json").open() as fh:
        return json.load(fh)


_JSON_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    # bool subclasses int, but true is no number; 2.0 is an integer
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
}


def _conforms(value, schema: dict, defs: dict) -> bool:
    """Whether a parsed JSON value conforms to ``schema``: a yes/no check.

    It interprets the keywords the packaged schema uses, as python-jsonschema
    does under Draft 2020-12: a keyword that constrains one JSON type passes
    any value of another type. Any other keyword, an enum or const of
    non-strings and a ``$ref`` outside ``defs`` answer no, so a no only
    means that jsonschema has to decide.
    """
    number = _JSON_TYPES["number"](value)
    for key, arg in schema.items():
        if key in ("title", "description"):
            continue
        if key == "type":
            ok = isinstance(arg, str) and arg in _JSON_TYPES and _JSON_TYPES[arg](value)
        elif key == "$ref":
            name = arg.removeprefix("#/$defs/")
            ok = name != arg and name in defs and _conforms(value, defs[name], defs)
        elif key == "oneOf":
            ok = sum(_conforms(value, s, defs) for s in arg) == 1
        elif key in ("enum", "const"):
            options = arg if key == "enum" else [arg]
            ok = all(isinstance(o, str) for o in options) and value in options
        elif key == "properties":
            ok = not isinstance(value, dict) or all(
                _conforms(value[k], s, defs) for k, s in arg.items() if k in value)
        elif key == "additionalProperties":
            ok = arg is False and (not isinstance(value, dict)
                                   or value.keys() <= schema.get("properties", {}).keys())
        elif key == "required":
            ok = not isinstance(value, dict) or all(k in value for k in arg)
        elif key == "items":
            ok = not isinstance(value, list) or all(_conforms(v, arg, defs) for v in value)
        elif key == "minItems":
            ok = not isinstance(value, list) or len(value) >= arg
        elif key == "minLength":
            ok = not isinstance(value, str) or len(value) >= arg
        # the failing comparisons are jsonschema's, so NaN fails none
        elif key == "minimum":
            ok = not (number and value < arg)
        elif key == "maximum":
            ok = not (number and value > arg)
        elif key == "exclusiveMinimum":
            ok = not (number and value <= arg)
        else:
            return False
        if not ok:
            return False
    return True


def _load_config(path: str, command: str) -> dict:
    def finite(text: str) -> float:
        # JSON has no NaN or Infinity; Python's reader would accept them
        value = float(text)
        if not math.isfinite(value):
            raise ConfigError(f"config {path} holds the non-finite number {text}")
        return value

    try:
        # JSON text is UTF-8 (RFC 8259), whatever the locale
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh, parse_float=finite, parse_constant=finite)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"config {path} is nested too deeply to read") from exc

    schema_doc = _load_schema()
    if _conforms(config, schema_doc[command], schema_doc["$defs"]):
        return _integral(config, schema_doc[command], schema_doc["$defs"])

    # jsonschema (about 0.1 s to import) only explains a config that does
    # not conform, or one the check above cannot judge
    import jsonschema

    schema = dict(schema_doc[command])
    schema["$defs"] = schema_doc["$defs"]
    # jsonschema.validate without its check of the packaged schema against
    # the metaschema, which costs most of the call; the test suite checks
    # the schema itself
    validator = jsonschema.validators.validator_for(schema)(schema)
    exc = jsonschema.exceptions.best_match(validator.iter_errors(config))
    if exc is not None:
        where = exc.json_path if exc.json_path != "$" else "top level"
        raise ConfigError(f"config invalid at {where}: {exc.message}") from exc
    return _integral(config, schema, schema["$defs"])


def _integral(value, schema: dict, defs: dict):
    """A value valid under ``schema`` with each float at an integer position
    (an integral one, such as 14.0) read as the int it equals."""
    schema = defs.get(schema.get("$ref", "").removeprefix("#/$defs/"), schema)
    if schema.get("type") == "integer" and isinstance(value, float):
        return int(value)
    for branch in schema.get("oneOf", ()):
        if _conforms(value, branch, defs):
            return _integral(value, branch, defs)
    props = schema.get("properties", {})
    if isinstance(value, dict):
        return {k: _integral(v, props[k], defs) if k in props else v for k, v in value.items()}
    if isinstance(value, list) and "items" in schema:
        return [_integral(v, schema["items"], defs) for v in value]
    return value


def _build_system(spec):
    """Resolve a config 'system' entry to (system, identity_only, name)."""
    import numpy as np

    from .fields import DissipativeSystem, MetricField, ScalarField, VectorField

    if isinstance(spec, str):
        from .catalog import from_name
        entry = from_name(spec)
        system, identity_only, name = entry.system, entry.identity_only, entry.name
    else:
        from .poly import Polynomial, vector_values
        dim = spec["dim"]

        def poly_field(pd, label):
            for t in pd["terms"]:
                if len(t["powers"]) != dim:
                    raise ConfigError(
                        f"polynomial term for '{label}' has "
                        f"{len(t['powers'])} exponents, expected {dim}")
            p = Polynomial.from_terms(dim, [(t["coef"], t["powers"])
                                            for t in pd["terms"]])
            return p

        conserved = []
        for i, pd in enumerate(spec.get("conserved", [])):
            p = poly_field(pd, f"f{i + 1}")
            conserved.append(ScalarField(dim, p.value, p.diff, label=f"f{i + 1}",
                                         stacked=True))
        gp = poly_field(spec["dissipated"], "g")
        dissipated = ScalarField(dim, gp.value, gp.diff, label="g", stacked=True)

        fspec = spec.get("field", "zero")
        if fspec == "zero":
            X = VectorField(dim, lambda x: np.zeros(x.shape), label="zero",
                            stacked=True)
        else:
            if len(fspec) != dim:
                raise ConfigError(
                    f"'field' lists {len(fspec)} components, expected {dim}")
            comps = [poly_field(pd, f"X{j + 1}") for j, pd in enumerate(fspec)]
            X = VectorField(dim, lambda x: vector_values(comps, x), label="poly",
                            stacked=True)

        mspec = spec.get("metric", "euclidean")
        if mspec == "euclidean":
            metric = MetricField.euclidean(dim)
        else:
            widths = sorted({len(row) for row in mspec})
            if len(widths) > 1:
                raise ConfigError(
                    f"'metric' rows have lengths {widths}, expected {dim} each")
            mat = np.asarray(mspec, dtype=float)
            if mat.shape != (dim, dim):
                raise ConfigError(
                    f"'metric' has shape {list(mat.shape)}, expected "
                    f"[{dim}, {dim}]")
            metric = MetricField.constant(mat)

        system = DissipativeSystem(X=X, conserved=tuple(conserved),
                                   dissipated=dissipated, metric=metric)
        identity_only, name = False, "inline"
    return system, identity_only, name


def _write_out(args, filename: str, text: str) -> None:
    """Write a file of the given name under --out, when --out is given."""
    from .report import write_text_atomic
    if args.out is None:
        return
    try:
        os.makedirs(args.out, exist_ok=True)
        write_text_atomic(text, os.path.join(args.out, filename))
    except OSError as exc:
        raise ConfigError(f"cannot write {filename} under --out: {exc}") from exc


def _emit(obj, args, filename: str) -> None:
    """Primary report to stdout, plus a file of the given name under --out."""
    from .report import json_text
    text = json_text(obj)
    _write_out(args, filename, text)
    sys.stdout.write(text)


def _pick_seed(config: dict, args, default: int = 0) -> int:
    if args.seed is not None:
        return args.seed
    return config.get("seed", default)


def _point(value, dim: int, what: str):
    import numpy as np
    p = np.asarray(value, dtype=float)
    if p.shape != (dim,):
        raise ConfigError(f"{what} has {p.size} components, expected {dim}")
    return p


def _probe_points(config: dict, args, dim: int, listed: str, what: str,
                  count: str, default_count: int) -> list:
    """The config's listed points, or a seeded uniform draw from its box.

    With listed points, a key or ``--seed`` that only the draw reads is refused."""
    if listed in config:
        for key in (count, "box", "seed"):
            if key in config:
                raise ConfigError(f"'{key}' applies to a seeded draw only, not with '{listed}'")
        if args.seed is not None:
            raise ConfigError(f"--seed applies to a seeded draw only, not with '{listed}'")
        return [_point(p, dim, what) for p in config[listed]]
    import numpy as np
    rng = np.random.default_rng(_pick_seed(config, args))
    box = float(config.get("box", 1.5))
    if not np.isfinite(2.0 * box):
        raise ConfigError(f"'box' {box:g} is too large: the box width 2 * box "
                          "overflows")
    n = config.get(count, default_count)
    return list(rng.uniform(-box, box, size=(n, dim)))


def _options(config: dict, *keys: str, **renamed: str) -> dict:
    """Keyword arguments from the optional config keys that are present;
    ``name="key"`` passes config key ``key`` as ``name``."""
    pairs = [(key, key) for key in keys] + list(renamed.items())
    return {name: config[key] for name, key in pairs if key in config}


def _integrator_config(spec: dict | None):
    from .integrators import IntegratorConfig, Method
    kwargs = dict(spec or {})
    if "method" in kwargs:
        kwargs["method"] = Method(kwargs["method"])
    return IntegratorConfig(**kwargs)


def cmd_simulate(config: dict, args) -> int:
    import numpy as np

    from .integrators import Flow, _check_checkpoints, integrate
    from .structure import classify_point

    system, _, _ = _build_system(config["system"])
    x0 = _point(config["x0"], system.dim, "x0")
    cfg = _integrator_config(config.get("integrator"))
    flow = Flow(config.get("flow", "perturbed"))
    checkpoints = None
    if config.get("checkpoints"):
        checkpoints = np.sort(np.asarray(config["checkpoints"], dtype=float))
        try:
            _check_checkpoints(checkpoints, cfg.t_end)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    tr = integrate(system, x0, cfg, flow=flow, checkpoints=checkpoints,
                   bound=config.get("bound"))

    # -inf is the max over no audited step: the unperturbed flow has none
    rate = tr.rate_check_violation()
    summary = {
        "flow": flow.value,
        "finalTime": float(tr.times[-1]),
        "finalState": tr.final_state.tolist(),
        "conservationDrift": tr.conservation_drift(),
        "monotone": tr.monotonicity_violation() <= 0.0,
        "monotonicityViolation": tr.monotonicity_violation(),
        "rateCheckViolation": None if rate == -np.inf else rate,
        "finalClassification": classify_point(system, tr.final_state).as_report(),
        "accepted": tr.n_accepted,
        "rejected": tr.n_rejected,
    }
    _write_out(args, "trajectory.csv", tr.csv_text())
    _emit(summary, args, "summary.json")
    return EXIT_OK


def cmd_verify(config: dict, args) -> int:
    import numpy as np

    from .control import (
        Formulation,
        _control_from_frame,
        _tensor_from_frame,
        identity_scales,
    )
    from .fields import _PREMISE_TOL, _premise_rows, central_difference
    from .gram import system_frame

    system, identity_only, name = _build_system(config["system"])

    points = _probe_points(config, args, system.dim, "points", "sample point",
                           "n_probes", 25)

    fd_tol = 1e-5
    formulations = [Formulation(f) for f in
                    config.get("formulations",
                               ["cofactor", "tensor", "projection"])]

    fd_max = 0.0
    fd_skipped = sorted({f.label or "(unnamed)" for f in system.all_fields()
                         if f.differential is None})
    agree_max = 0.0
    tangency_max = 0.0
    pairing_max = 0.0
    sym_max = 0.0
    gram_min = 0.0
    metric_failures = []
    metric_passed = []
    projection_skipped = 0

    for p in points:
        try:
            system.metric.at(p)
        except NonPositiveDefiniteMetric:
            metric_failures.append(p.tolist())
            continue
        metric_passed.append(p)

        for f in system.all_fields():
            if f.differential is None:
                continue
            analytic = f.d(p)
            fd = central_difference(f.value, p)
            gap = float(np.max(np.abs(analytic - fd)))
            fd_max = max(fd_max, gap / (1.0 + float(np.max(np.abs(analytic)))))

        fr = system_frame(system, p)
        scales = identity_scales(fr)
        evals = []
        for form in formulations:
            try:
                evals.append(_control_from_frame(fr, form))
            except SingularLeaf:
                projection_skipped += 1
        if len(evals) >= 2:
            denom = max(scales["control"], 1e-300)
            for a in range(len(evals)):
                for b in range(a + 1, len(evals)):
                    gap = float(np.max(np.abs(evals[a].v0 - evals[b].v0)))
                    agree_max = max(agree_max, gap / denom)
        if evals:
            v0 = evals[0].v0
            for i in range(system.k):
                denom = max(scales["tangency"][i], 1e-300)
                tangency_max = max(
                    tangency_max, abs(float(fr.diffs[i] @ v0)) / denom)
            denom = max(scales["dissipation"], 1e-300)
            pairing_max = max(
                pairing_max,
                abs(float(fr.diffs[system.k] @ v0) - fr.det_full()) / denom)
        tmat = _tensor_from_frame(fr)
        denom = max(float(np.max(np.abs(tmat))), 1e-300)
        sym_max = max(sym_max, float(np.max(np.abs(tmat - tmat.T))) / denom)
        eigs = np.linalg.eigvalsh(fr.gram)
        denom = max(fr.classification_scale(), 1e-300)
        gram_min = min(gram_min, float(eigs[0]) / denom)

    # the paper's premise: X annihilates every conserved field and G
    cons_max = 0.0
    if not identity_only:
        res, scale = _premise_rows(system, np.reshape(metric_passed, (-1, system.dim)))
        cons_max = float(np.max(res / scale, initial=0.0))

    checks = {
        "differentialConsistency": {
            "max": fd_max, "tol": fd_tol, "passed": fd_max <= fd_tol,
            "skippedFields": fd_skipped},
        "conservation": {
            "max": cons_max, "tol": _PREMISE_TOL,
            "passed": identity_only or cons_max <= _PREMISE_TOL,
            "skipped": identity_only},
        "formulationAgreement": {
            "max": agree_max, "tol": _IDENTITY_FACTOR,
            "passed": agree_max <= _IDENTITY_FACTOR,
            "projectionSkipped": projection_skipped},
        "tangency": {
            "max": tangency_max, "tol": _IDENTITY_FACTOR,
            "passed": tangency_max <= _IDENTITY_FACTOR},
        "dissipationPairing": {
            "max": pairing_max, "tol": _IDENTITY_FACTOR,
            "passed": pairing_max <= _IDENTITY_FACTOR},
        "tensorSymmetry": {
            "max": sym_max, "tol": _TENSOR_SYMMETRY_TOL,
            "passed": sym_max <= _TENSOR_SYMMETRY_TOL},
        "gramFloor": {
            "min": gram_min, "floor": -_GRAM_FLOOR,
            "passed": gram_min >= -_GRAM_FLOOR},
        "metricPositive": {
            "failures": metric_failures, "passed": not metric_failures},
    }
    violations = sorted(k for k, v in checks.items() if not v["passed"])

    _emit({
        "system": name,
        "pointCount": len(points),
        "status": "fail" if violations else "pass",
        "violations": violations,
        "checks": checks,
    }, args, "verify.json")
    return EXIT_IDENTITY if violations else EXIT_OK


def cmd_equilibria(config: dict, args) -> int:
    from dataclasses import replace

    from .structure import find_equilibria, stability_classify

    system, _, name = _build_system(config["system"])
    if "stability_samples" in config and not config.get("stability", True):
        raise ConfigError("'stability_samples' applies to the stability test only, "
                          "not with 'stability': false")
    seeds = _probe_points(config, args, system.dim, "seeds", "seed",
                          "n_seeds", 64)
    reports, unresolved = find_equilibria(system, seeds)

    if config.get("stability", True):
        st_kwargs = _options(config, leaf_samples="stability_samples")
        reports = [replace(r, stability=stability_classify(
            system, r.location, **st_kwargs)) for r in reports]

    _emit({
        "system": name,
        "seedCount": len(seeds),
        "count": len(reports),
        "equilibria": [r.as_report() for r in reports],
        "unresolvedSeeds": [s.tolist() for s in unresolved],
    }, args, "equilibria.json")
    return EXIT_OK


def cmd_basin(config: dict, args) -> int:
    from dataclasses import replace as dc_replace

    from .basin import (
        SamplerConfig,
        basin_certify,
        periodic_orbit_certify,
        threshold_search,
    )

    system, identity_only, name = _build_system(config["system"])
    if identity_only:
        raise PremiseViolation(
            f"catalog entry {name} is for identity checks only: its X is not "
            "claimed to annihilate its fields, so no certificate applies")
    target = config.get("target")
    orbit_seed = config.get("orbit_seed")
    if (target is None) == (orbit_seed is None):
        raise ConfigError("exactly one of 'target' and 'orbit_seed' is required")
    threshold = config.get("threshold")
    level = config.get("level")
    if threshold is not None and orbit_seed is not None:
        raise ConfigError("'threshold' search applies to equilibrium targets only")
    if (threshold is None) == (level is None):
        raise ConfigError("exactly one of 'level' and 'threshold' is required")
    for key in ("t_search", "recur_tol"):
        if key in config and orbit_seed is None:
            raise ConfigError(f"'{key}' applies to orbit targets only")
    if "t_end" in config.get("integrator", {}):
        raise ConfigError("'integrator.t_end' does not apply to basin: each level's "
                          "ensemble runs to its horizon, and period detection to 't_search'")

    dump_members = bool(config.get("dump_members", False))
    if dump_members and threshold is not None:
        raise ConfigError("'dump_members' applies to a single level only, "
                          "not to a 'threshold' search")
    if dump_members and args.out is None:
        raise ConfigError("'dump_members' needs --out to receive members.csv")

    sampler = SamplerConfig(**config.get("sampler", {}))
    if args.seed is not None:
        sampler = dc_replace(sampler, seed=args.seed)

    kwargs = {"traj_seed": _pick_seed(config, args, default=7),
              "proper_g_asserted": bool(config.get("proper_G_asserted", False)),
              **_options(config, "converge_tol", "n_trajectories", "horizon",
                         "max_refine", "t_search", "recur_tol")}
    if "integrator" in config:
        kwargs["integrator"] = _integrator_config(config["integrator"])

    if threshold is not None:
        found, history = threshold_search(
            system, target, threshold["level_max"],
            steps=threshold.get("steps", 8), sampler=sampler, **kwargs)
        _emit({
            "system": name,
            "mode": "threshold",
            "target": target,
            "level": found,
            "levelMax": threshold["level_max"],
            "history": [[lvl, ok] for lvl, ok in history],
        }, args, "basin.json")
        return EXIT_OK

    if target is not None:
        cert = basin_certify(system, target, level, sampler, **kwargs)
        report = {"system": name, "mode": "equilibrium", **cert.as_report()}
    else:
        cert = periodic_orbit_certify(system, orbit_seed, level, sampler,
                                      **kwargs)
        report = {"system": name, "mode": "orbit", **cert.as_report()}
    if dump_members:
        from .report import csv_text
        columns = [f"x{i + 1}" for i in range(cert.members.shape[1])]
        _write_out(args, "members.csv", csv_text(columns, cert.members))
    _emit(report, args, "basin.json")
    return EXIT_OK if cert.passed else EXIT_CERTIFICATE


_HANDLERS = {
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "equilibria": cmd_equilibria,
    "basin": cmd_basin,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads is not None:
        _cap_threads(args.threads)
    try:
        config = _load_config(args.config, args.command)
        return _HANDLERS[args.command](config, args)
    except GeodissError as exc:
        kind = "" if isinstance(exc, InputError) else f"{type(exc).__name__}: "
        print(f"error: {kind}{exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
