"""Random configs: every one ends in a documented exit code.

Hypothesis draws ``simulate``, ``verify`` and ``equilibria`` configs over
dimensions 1-4 with 0 to dim conserved quantities, exponent lists of the
right or the wrong length, and every kind of metric (euclidean, SPD,
indefinite, all-zero, wrong shape, ragged rows). ``main`` must return one
of the documented codes and raise nothing. The work per example is kept
small (t_end <= 0.5, a step budget, at most 3 probes or 2 seeds).

``basin`` configs are drawn on the rigid body, the sombrero's orbit and an
inline 4-D sphere/weights system, each with one flaw: a target or orbit
seed of the wrong length (exit 1), a level below the anchor's dissipated
value (exit 4), or a sampler of a few cells or samples (a certificate,
exit 0 or 4). One trajectory and a short horizon keep each run small.

The CLI's yes/no schema check ``_conforms`` must answer as jsonschema
does for every command's schema, on these configs and on mutations of them
at each keyword's edge.
"""
import contextlib
import copy
import io
import json
import os
import tempfile

import jsonschema
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from geodiss.cli import _HANDLERS, _conforms, _load_schema, main

DOCUMENTED_EXIT_CODES = {0, 1, 2, 3, 4}


def polynomials(n_powers):
    return st.fixed_dictionaries({"terms": st.lists(st.fixed_dictionaries({
        "coef": st.floats(-2.0, 2.0),
        "powers": st.lists(st.integers(0, 2), min_size=n_powers,
                           max_size=n_powers),
    }), min_size=1, max_size=3)})


@st.composite
def metrics(draw, dim):
    kind = draw(st.sampled_from(
        ["euclidean", "spd", "indefinite", "zero", "wrong_shape", "ragged"]))
    if kind == "euclidean":
        return "euclidean"
    if kind == "wrong_shape":
        rows, cols = draw(st.sampled_from([(dim + 1, dim + 1), (dim, dim + 1),
                                           (dim + 1, dim)]))
        return [[float(i == j) for j in range(cols)] for i in range(rows)]
    if kind == "ragged":
        return [[1.0] * (dim + (i == 0)) for i in range(dim)]
    diag = draw(st.lists(st.floats(0.5, 3.0), min_size=dim, max_size=dim))
    if kind == "zero":
        diag = [0.0] * dim
    if kind == "indefinite":
        diag[draw(st.integers(0, dim - 1))] *= -1.0
    off = draw(st.floats(-0.2, 0.2)) if kind == "spd" else 0.0
    return [[diag[i] if i == j else off for j in range(dim)]
            for i in range(dim)]


@st.composite
def configs(draw):
    dim = draw(st.integers(1, 4))
    # at most one flaw besides the metric, so the later checks are reached
    flaw = draw(st.sampled_from(["none"] * 4 + ["k", "powers", "field", "point"]))
    k = dim if flaw == "k" else draw(st.integers(0, dim - 1))
    system = {
        "dim": dim,
        "conserved": [draw(polynomials(dim)) for _ in range(k)],
        "dissipated": draw(polynomials(dim + (flaw == "powers"))),
        "metric": draw(metrics(dim)),
    }
    if flaw == "field" or draw(st.booleans()):
        system["field"] = [draw(polynomials(dim))
                           for _ in range(dim + (flaw == "field"))]

    def points(count):
        point = st.lists(st.floats(-1.5, 1.5), min_size=dim + (flaw == "point"),
                         max_size=dim + (flaw == "point"))
        return st.lists(point, min_size=count, max_size=count)

    command = draw(st.sampled_from(["simulate", "verify", "equilibria"]))
    config = {"system": system}
    if command == "simulate":
        t_end = draw(st.floats(0.05, 0.5))
        config["x0"] = draw(points(1))[0]
        config["integrator"] = {"t_end": t_end, "max_steps": 200}
        if draw(st.booleans()):
            # inside the run, or past its end
            config["checkpoints"] = draw(st.lists(
                st.floats(0.01, 2.0 * t_end), max_size=3))
    elif command == "verify":
        if flaw == "point" or draw(st.booleans()):
            config["points"] = draw(points(draw(st.integers(1, 3))))
        else:
            config["n_probes"] = draw(st.integers(1, 3))
            config["seed"] = draw(st.integers(0, 3))
    else:
        if flaw == "point" or draw(st.booleans()):
            config["seeds"] = draw(points(draw(st.integers(1, 2))))
        else:
            config["n_seeds"] = draw(st.integers(1, 2))
            config["seed"] = draw(st.integers(0, 3))
        config["stability_samples"] = 8
    return command, config


def _run(command, config):
    """``main`` on a config file; returns the exit code and stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            rc = main([command, "--config", path])
    return rc, err.getvalue()


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs())
def test_inline_configs_end_in_a_documented_exit_code(case):
    command, config = case
    rc, err = _run(command, config)
    assert rc in DOCUMENTED_EXIT_CODES
    if rc not in (0, 3):
        assert err.startswith("error: ")


SPHERE_WEIGHTS_4D = {
    "dim": 4,
    "conserved": [{"terms": [{"coef": 0.5, "powers": [2 if j == i else 0 for j in range(4)]}
                             for i in range(4)]}],
    "dissipated": {"terms": [{"coef": a, "powers": [2 if j == i else 0 for j in range(4)]}
                             for i, a in enumerate((0.5, 1.0, 1.5, 2.0))]},
}

# (system, anchor key, anchor, its dissipated value, grid or sampled)
BASIN_SYSTEMS = [
    ("rigid_body:3,2,1", "target", [1.0, 0.0, 0.0], 1.0 / 6.0, "grid"),
    ("mexican_hat", "orbit_seed", [1.0, 0.0, 0.0], 0.0, "grid"),
    (SPHERE_WEIGHTS_4D, "target", [1.0, 0.0, 0.0, 0.0], 0.5, "sampled"),
]


@st.composite
def basin_configs(draw):
    system, key, anchor, g_anchor, kind = draw(st.sampled_from(BASIN_SYSTEMS))
    flaw = draw(st.sampled_from(["length", "low_level", "tiny_sampler"]))
    if flaw == "length":
        anchor = anchor + [0.0] if draw(st.booleans()) else anchor[:-1]
    if flaw == "low_level":
        level = g_anchor - draw(st.floats(1e-3, 1.0))
    else:
        level = g_anchor + draw(st.floats(1e-3, 2.0))
    config = {"system": system, key: anchor, "level": level,
              "n_trajectories": 1, "horizon": 5.0}
    if flaw == "tiny_sampler" or draw(st.booleans()):
        if kind == "grid":
            config["sampler"] = {"cells_per_axis": draw(st.integers(2, 4))}
        else:
            config["sampler"] = {"n_samples": draw(st.integers(1, 16)),
                                 "neighbor_count": draw(st.integers(1, 3))}
    else:
        config["sampler"] = ({"cells_per_axis": 8} if kind == "grid"
                             else {"n_samples": 64})
    return flaw, config


@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(basin_configs())
@example(("low_level", {"system": "rigid_body:3,2,1", "target": [1.0, 0.0, 0.0],
                        "level": 0.1, "n_trajectories": 1, "horizon": 5.0}))
@example(("tiny_sampler", {"system": SPHERE_WEIGHTS_4D, "target": [1.0, 0.0, 0.0, 0.0],
                           "level": 0.9, "sampler": {"n_samples": 1},
                           "n_trajectories": 1, "horizon": 5.0}))
def test_basin_configs_end_in_their_documented_exit_code(case):
    flaw, config = case
    rc, err = _run("basin", config)
    if flaw == "length":
        assert rc == 1
        assert err.startswith("error: expected a point of dimension")
    elif flaw == "low_level":
        assert rc == 4
    else:
        assert rc in (0, 4)
    if err:
        assert err.startswith("error: ")


# ---------------------------------------------------------------------------
# the yes/no schema check against jsonschema
# ---------------------------------------------------------------------------

SCHEMA = _load_schema()
VALIDATORS = {
    command: jsonschema.validators.validator_for(SCHEMA)({**SCHEMA[command],
                                                          "$defs": SCHEMA["$defs"]})
    for command in sorted(_HANDLERS)}


def _property_names(node, names):
    """Every key that some ``properties`` of the schema names."""
    if isinstance(node, dict):
        names.update(node.get("properties", {}))
        for sub in node.values():
            _property_names(sub, names)
    return names


SCHEMA_KEYS = sorted(_property_names(SCHEMA, set()))
# a bool where a number goes, integral and fractional floats where an integer
# goes, 0 under exclusiveMinimum, the bounds of minimum and maximum, empty
# strings, lists and objects, and each oneOf branch's values
EDGE_VALUES = [True, False, None, 0, 0.0, -0.0, -1, 1, 1.0, 2, 2.0, 2.5, 256, 257.0,
               2 ** 20, 2 ** 20 + 1, 1e-300, "", "x", "zero", "euclidean", "rk4",
               "perturbed", "cofactor", "mexican_hat", [], [0.5], [1, 2], [[1.0]], [[]],
               ["tensor"], [{"terms": [{"coef": 1.0, "powers": [2]}]}], {},
               {"terms": []}, {"coef": 1, "powers": [0]}, {"level_max": 1.0}]


@st.composite
def mutated_configs(draw):
    """A drawn config with up to three keys or list entries set, deleted or added."""
    source = draw(st.one_of(configs(), basin_configs()))[1]
    config = copy.deepcopy(source)  # drawn configs share module constants
    spots = []

    def walk(value):
        if isinstance(value, (dict, list)):
            spots.append(value)
            for sub in (value.values() if isinstance(value, dict) else value):
                walk(sub)

    walk(config)
    for _ in range(draw(st.integers(0, 3))):
        spot = draw(st.sampled_from(spots))
        keys = sorted(spot) if isinstance(spot, dict) else list(range(len(spot)))
        if keys and draw(st.booleans()):
            del spot[draw(st.sampled_from(keys))]
            continue
        value = copy.deepcopy(draw(st.sampled_from(EDGE_VALUES)))
        if isinstance(spot, dict):
            spot[draw(st.sampled_from(keys + SCHEMA_KEYS))] = value
        elif keys and draw(st.booleans()):
            spot[draw(st.sampled_from(keys))] = value
        else:
            spot.append(value)
    return config


def _assert_conforms_as_jsonschema_validates(config):
    for command, validator in VALIDATORS.items():
        expected = not any(validator.iter_errors(config))
        assert _conforms(config, SCHEMA[command], SCHEMA["$defs"]) == expected, command


@settings(max_examples=400, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_configs())
def test_conforms_is_jsonschema_on_drawn_and_mutated_configs(config):
    _assert_conforms_as_jsonschema_validates(config)


RIGID_BASIN = {"system": "rigid_body:3,2,1", "target": [1.0, 0.0, 0.0], "level": 0.2}
INLINE = {"dim": 1, "dissipated": {"terms": [{"coef": 0.5, "powers": [2]}]}}


@pytest.mark.parametrize("config", [
    RIGID_BASIN,
    # not an object
    [], "basin", 1, None,
    # a bool where a number goes
    {**RIGID_BASIN, "level": True},
    {**RIGID_BASIN, "target": [True, 0.0, 0.0]},
    # an integral float where an integer goes, and a fractional one
    {**RIGID_BASIN, "sampler": {"cells_per_axis": 2.0}},
    {**RIGID_BASIN, "sampler": {"cells_per_axis": 2.5}},
    {**RIGID_BASIN, "sampler": {"cells_per_axis": True}},
    # minimum and maximum, at the bound and past it
    {**RIGID_BASIN, "sampler": {"cells_per_axis": 1}},
    {**RIGID_BASIN, "sampler": {"cells_per_axis": 256}},
    {**RIGID_BASIN, "sampler": {"cells_per_axis": 257}},
    {**RIGID_BASIN, "sampler": {"n_samples": 2 ** 20 + 1}},
    # 0 under exclusiveMinimum, and just above it
    {**RIGID_BASIN, "horizon": 0},
    {**RIGID_BASIN, "horizon": -0.0},
    {**RIGID_BASIN, "horizon": 1e-300},
    # an extra key, at the top and nested
    {**RIGID_BASIN, "levle": 0.2},
    {**RIGID_BASIN, "integrator": {"method": "rk4", "step": 0.1}},
    # a missing required key, at the top and nested
    {"target": [1.0, 0.0, 0.0], "level": 0.2},
    {**RIGID_BASIN, "threshold": {"steps": 3}},
    # empty lists under minItems, and an empty string under minLength
    {**RIGID_BASIN, "target": []},
    {"system": "rigid_body:3,2,1", "formulations": []},
    {**RIGID_BASIN, "system": ""},
    # enum members and a value outside
    {**RIGID_BASIN, "integrator": {"method": "rk45", "leaf_reprojection": True}},
    {**RIGID_BASIN, "integrator": {"method": "euler"}},
    {"system": "mexican_hat", "formulations": ["cofactor", "projection"]},
    {"system": "mexican_hat", "formulations": ["cofactor", 1]},
    # each oneOf branch: a catalog name, an inline system, and neither
    {**RIGID_BASIN, "system": INLINE},
    {**RIGID_BASIN, "system": 3},
    {**RIGID_BASIN, "system": {**INLINE, "dim": 0}},
    {**RIGID_BASIN, "system": {**INLINE, "field": "zero", "metric": "euclidean"}},
    {**RIGID_BASIN, "system": {**INLINE, "field": [INLINE["dissipated"]],
                               "metric": [[2.0]]}},
    {**RIGID_BASIN, "system": {**INLINE, "field": "one"}},
    {**RIGID_BASIN, "system": {**INLINE, "field": []}},
    {**RIGID_BASIN, "system": {**INLINE, "metric": "minkowski"}},
    {**RIGID_BASIN, "system": {**INLINE, "metric": [[]]}},
    # $ref into $defs: a polynomial's terms and powers
    {**RIGID_BASIN, "system": {**INLINE, "dissipated": {"terms": []}}},
    {**RIGID_BASIN, "system": {**INLINE, "dissipated": {
        "terms": [{"coef": 0.5, "powers": [2.0]}]}}},
    {**RIGID_BASIN, "system": {**INLINE, "dissipated": {
        "terms": [{"coef": 0.5, "powers": [-1]}]}}},
    {**RIGID_BASIN, "system": {**INLINE, "conserved": [{"terms": [{"coef": 1}]}]}},
])
def test_conforms_is_jsonschema_at_each_keyword_edge(config):
    _assert_conforms_as_jsonschema_validates(config)


@pytest.mark.parametrize("value, schema, conforms", [
    # two branches that both hold: not exactly one
    (1, {"oneOf": [{"type": "number"}, {"type": "integer"}]}, False),
    (1.5, {"oneOf": [{"type": "number"}, {"type": "integer"}]}, True),
    # keywords and uses outside the packaged schema's answer no, for
    # jsonschema to decide
    ([1, 2], {"uniqueItems": True}, False),
    ({"a": 1}, {"additionalProperties": {"type": "integer"}}, False),
    (1, {"enum": [1, 2]}, False),
    (1, {"$ref": "#/definitions/x"}, False),
    (1, {"type": ["integer", "null"]}, False),
])
def test_conforms_outside_the_packaged_schema(value, schema, conforms):
    assert _conforms(value, schema, {}) is conforms
