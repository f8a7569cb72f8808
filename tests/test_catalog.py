"""Built-in example systems: addresses, claimed structure, exact dynamics."""
import numpy as np
import pytest

from geodiss.catalog import (
    from_name,
    gradient_only,
    mexican_hat,
    random_poly,
    rigid_body,
)
from geodiss.errors import BadInertia, ConfigError
from geodiss.fields import ScalarField, validate_conservation
from geodiss.integrators import IntegratorConfig, integrate
from geodiss.structure import classify_point, find_equilibria


def test_address_parsing_round_trip():
    assert from_name("rigid_body:3,2,1").name == "rigid_body:3,2,1"
    assert from_name("mexican_hat").name == "mexican_hat"
    assert from_name("gradient_only").name == "gradient_only:quadratic"
    assert from_name("gradient_only:quadratic").name == "gradient_only:quadratic"
    assert from_name("random_poly:5,3,7").name == "random_poly:5,3,7"


@pytest.mark.parametrize("bad", [
    "unknown_system",
    "rigid_body:3,2,1,0",      # wrong arity
    "rigid_body:a,b,c",        # not numbers
    "mexican_hat:1",           # takes no parameters
    "gradient_only:nope",      # unknown preset
    "random_poly:3",           # wrong arity
])
def test_bad_addresses_are_config_errors(bad):
    with pytest.raises(ConfigError):
        from_name(bad)


@pytest.mark.parametrize("moments", [(1.0, 2.0, 3.0), (2.0, 2.0, 1.0),
                                     (3.0, 2.0, -1.0)])
def test_inertia_must_be_positive_and_strictly_ordered(moments):
    with pytest.raises(BadInertia):
        rigid_body(*moments)


def test_rigid_body_energy_levels_on_the_unit_sphere(rigid):
    g = rigid.system.dissipated
    assert g(np.array([1.0, 0.0, 0.0])) == pytest.approx(1.0 / 6.0)
    assert g(np.array([0.0, 1.0, 0.0])) == pytest.approx(0.25)
    assert g(np.array([0.0, 0.0, 1.0])) == pytest.approx(0.5)
    assert rigid.known_saddle_levels == (0.25,)


def test_euler_field_is_bitwise_the_cross_product():
    # the field is written out componentwise; it must round exactly as
    # np.cross(m, I^-1 m) does, over many orders of magnitude
    inertia = np.array([3.0, 2.0, 1.0])
    X = rigid_body(*inertia).system.X
    rng = np.random.default_rng(2024)
    directions = rng.normal(size=(20000, 3))
    scales = 10.0 ** rng.uniform(-8.0, 3.0, size=(20000, 1))
    momenta = directions / np.linalg.norm(directions, axis=1, keepdims=True) * scales
    got = np.array([X(m) for m in momenta])
    want = np.array([np.cross(m, m / inertia) for m in momenta])
    assert got.tobytes() == want.tobytes()


def test_sombrero_differential_is_bitwise_the_numpy_scalar_formula():
    # the point differential is written out on Python floats; it must round
    # exactly as the same formula on numpy scalars does
    dG = mexican_hat().system.dissipated
    rng = np.random.default_rng(2025)
    pts = rng.normal(size=(10000, 3)) * 10.0 ** rng.uniform(-8.0, 3.0, size=(10000, 1))

    def scalar_formula(p):
        s = p[0] * p[0] + p[1] * p[1] - 1.0
        return np.array([p[0] * s, p[1] * s, 0.0])

    got = np.array([dG.d(p) for p in pts])
    want = np.array([scalar_formula(p) for p in pts])
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("entry", [rigid_body(), mexican_hat(), gradient_only(),
                                   random_poly(4, 2, seed=9)], ids=lambda e: e.name)
def test_stacked_catalog_fields_are_bitwise_the_point_calls(entry):
    # each catalog field takes an (m, n) stack through a branch of its own;
    # every row must give the bits of the point call
    system = entry.system
    rng = np.random.default_rng(31)
    x = rng.normal(size=(500, system.dim)) * 10.0 ** rng.uniform(-4.0, 2.0, size=(500, 1))
    assert system.X.stacked
    assert system.X.values(x).tobytes() == np.array([system.X(row) for row in x]).tobytes()
    for f in system.all_fields():
        assert f.stacked
        assert f.values(x).tobytes() == np.array([f(row) for row in x]).tobytes()
        assert f.diffs(x).tobytes() == np.array([f.d(row) for row in x]).tobytes()


def _frozen_point_values():
    """The point branches of the catalog's value bodies before each became
    one body for a point and a stack, by field label."""
    inertia = np.array([3.0, 2.0, 1.0])

    def rim(p):
        s = p[0] * p[0] + p[1] * p[1] - 1.0
        return 0.25 * s * s

    return {"momentum_sq": lambda m: 0.5 * float(m @ m),
            "kinetic_energy": lambda m: 0.5 * float(m @ (m / inertia)),
            "height": lambda p: float(p[2]),
            "rim_potential": rim,
            "descent_quadratic": lambda x: 0.5 * float(x @ x)}


@pytest.mark.parametrize("entry", [rigid_body(), mexican_hat(), gradient_only()],
                         ids=lambda e: e.name)
def test_catalog_values_are_bitwise_their_old_point_branches(entry):
    # one body serves a point and a stack: at 10,000 points over many
    # orders of magnitude, signed zeros included, each point value has the
    # bits of the old point branch and of its row of the stack
    frozen = _frozen_point_values()
    rng = np.random.default_rng(2026)
    dim = entry.system.dim
    pts = rng.normal(size=(10000, dim)) * 10.0 ** rng.uniform(-8.0, 3.0, size=(10000, 1))
    pts[::5, 0] = -0.0
    pts[1::7, -1] = 0.0
    for f in entry.system.all_fields():
        want = np.array([frozen[f.label](p) for p in pts])
        assert np.array([float(f.value(p)) for p in pts]).tobytes() == want.tobytes()
        assert f.value(pts).tobytes() == want.tobytes()


def test_mexican_hat_claims(mexhat):
    g = mexhat.system.dissipated
    # the rim is the zero set, the axis sits at the saddle level 1/4
    assert g(np.array([1.0, 0.0, 0.3])) == pytest.approx(0.0, abs=1e-15)
    assert g(np.array([0.0, 0.0, 0.3])) == pytest.approx(0.25)
    assert mexhat.known_saddle_levels == (0.25,)


def test_catalog_systems_actually_conserve_their_quantities(rigid, mexhat):
    rng = np.random.default_rng(0)
    probes = rng.uniform(-2.0, 2.0, size=(50, 3))
    assert validate_conservation(rigid.system, probes, tol=1e-12).passed
    assert validate_conservation(mexhat.system, probes, tol=1e-12).passed


def test_known_equilibria_round_trip_through_the_search(rigid):
    reports, unresolved = find_equilibria(rigid.system, rigid.known_equilibria)
    assert not unresolved
    found = np.array([r.location for r in reports])
    for eq in rigid.known_equilibria:
        gap = np.min(np.linalg.norm(found - eq, axis=1))
        assert gap <= 1e-8, eq
    assert all(r.in_perturbed_equilibria for r in reports)


def test_degeneracy_samplers_deliver_degenerate_points(rigid, mexhat):
    pts_r = rigid.inv_sampler([0.5], 6)
    assert pts_r.shape == (6, 3)
    for p in pts_r:
        assert classify_point(rigid.system, p).in_invariant_set, p
    pts_m = mexhat.inv_sampler([0.2], 16)
    assert pts_m.shape == (16, 3)
    for p in pts_m:
        assert classify_point(mexhat.system, p).in_invariant_set, p
        assert p[2] == pytest.approx(0.2)


def test_random_poly_is_deterministic_per_seed():
    a = random_poly(4, 2, seed=11).system
    b = random_poly(4, 2, seed=11).system
    c = random_poly(4, 2, seed=12).system
    x = np.array([0.3, -0.7, 0.2, 0.9])
    assert a.dissipated(x) == b.dissipated(x)
    assert np.array_equal(a.X(x), b.X(x))
    assert np.array_equal(a.metric.at(x), b.metric.at(x))
    assert np.array_equal(a.conserved[1].d(x), b.conserved[1].d(x))
    assert a.dissipated(x) != c.dissipated(x)


def test_random_poly_is_identity_only():
    entry = random_poly(3, 1, seed=0)
    assert entry.identity_only
    assert not rigid_body().identity_only
    assert not mexican_hat().identity_only


def test_random_poly_rejects_bad_counts():
    with pytest.raises(ConfigError):
        random_poly(3, 3, seed=0)
    with pytest.raises(ConfigError):
        random_poly(3, -1, seed=0)


def test_quadratic_descent_has_exponential_solution():
    entry = gradient_only("quadratic")
    system = entry.system
    assert system.k == 0 and system.dim == 2
    x0 = np.array([1.0, 1.0])
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, t_end=1.0)
    tr = integrate(system, x0, cfg)
    assert np.max(np.abs(tr.final_state - np.exp(-1.0) * x0)) <= 1e-8


def test_gradient_only_accepts_a_custom_field():
    quartic = ScalarField(3, lambda p: 0.25 * float(p @ p) ** 2,
                          differential=lambda p: float(p @ p) * p,
                          label="quartic_bowl")
    entry = gradient_only(quartic)
    assert entry.name == "gradient_only:quartic_bowl"
    assert entry.system.dim == 3
    assert entry.known_equilibria == ()
    assert entry.inv_sampler is None
    # descent of a quartic bowl decays algebraically:
    # d|x|^2/dt = -2 |x|^4, so x(t) = x0 / sqrt(1 + 2 |x0|^2 t)
    x0 = np.array([0.5, 0.0, -0.5])
    t_end = 5.0
    tr = integrate(entry.system, x0,
                   IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, t_end=t_end))
    exact = x0 / np.sqrt(1.0 + 2.0 * float(x0 @ x0) * t_end)
    assert np.max(np.abs(tr.final_state - exact)) <= 1e-8
