"""Sublevel components, degeneracy-set witness scans, and basin certificates.

Ground truth used throughout:

* rigid body (3, 2, 1) on the unit momentum sphere: the dissipated energy has
  its minimum 1/6 at (+-1, 0, 0), saddles at value 1/4 at (0, +-1, 0), and
  maxima 1/2 at (0, 0, +-1).  The sharp certification threshold for the major
  axis is therefore exactly 1/4.
* sombrero system: the degeneracy set is the unit circle (any height) plus
  the vertical axis; the dissipated value is 0 on the circle and 1/4 on the
  axis, so a level of 0.2 isolates the circle while 0.3 lets the axis in.
"""

import dataclasses
import inspect
import json
import subprocess
import sys
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import geodiss.basin as basin_mod
from geodiss import (
    AnchorOutsideLevel,
    BasinCertificate,
    ConfigError,
    DissipativeSystem,
    IntegratorConfig,
    Method,
    MetricField,
    NoValidLevel,
    NotAsymptoticallyStable,
    NotPeriodic,
    PremiseViolation,
    SamplerConfig,
    ScalarField,
    Stability,
    VectorField,
    basin_certify,
    classify_point,
    distance_to_orbit,
    gradient_only,
    integrate,
    integrate_ensemble,
    periodic_orbit_certify,
    scan_invariant_witnesses,
    sublevel_component,
    threshold_search,
)
from geodiss.catalog import from_name, random_poly, rotated_quadric
from geodiss.cli import _build_system
from geodiss.errors import LeafProjectionFailure
from geodiss.fields import project_to_leaf
from geodiss.structure import (
    find_equilibria,
    leaf_tangent_basis,
    refine_to_invariant_set,
    stability_classify,
)

AS = Stability.ASYMPTOTICALLY_STABLE
MAJOR = np.array([1.0, 0.0, 0.0])


def _norms(points):
    return np.linalg.norm(points, axis=1)


# ---------------------------------------------------------------------------
# sublevel components: grid path
# ---------------------------------------------------------------------------


def test_rigid_cap_component(rigid):
    comp = sublevel_component(rigid.system, MAJOR, 0.2)
    assert comp.method == "grid"
    assert comp.spacing > 0.0
    assert not comp.touches_boundary
    assert len(comp.members) > 50

    # every member lies on the anchor's momentum sphere ...
    leaf = np.array([rigid.system.conserved[0](p) for p in comp.members])
    assert np.max(np.abs(leaf - 0.5)) <= 1e-8
    # ... strictly below the level ...
    g = np.array([rigid.system.dissipated(p) for p in comp.members])
    assert np.max(g) < 0.2
    # ... and on the cap around (+1, 0, 0) only: the antipodal cap is a
    # different connected component, so no member crosses the equator.
    assert np.min(comp.members[:, 0]) > 0.7

    # some member sits within one cell diagonal of the anchor
    d_anchor = np.min(_norms(comp.members - MAJOR))
    assert d_anchor <= comp.spacing


def test_sombrero_annulus_excludes_origin_at_02(mexhat):
    anchor = np.array([1.0, 0.0, 0.0])
    comp = sublevel_component(mexhat.system, anchor, 0.2)
    r = _norms(comp.members[:, :2])
    # {G < 0.2} in the plane is the annulus 0.325 < r < 1.376
    assert np.min(r) > 0.3
    assert np.max(r) < 1.4
    # the leaf (height) is preserved by the component construction
    assert np.max(np.abs(comp.members[:, 2])) <= 1e-8


def test_sombrero_disk_includes_origin_at_03(mexhat):
    anchor = np.array([1.0, 0.0, 0.0])
    comp = sublevel_component(mexhat.system, anchor, 0.3,
                              SamplerConfig(cells_per_axis=48))
    r = _norms(comp.members[:, :2])
    # above the axis value 1/4 the sublevel set is a disk: the flood fill
    # reaches cells arbitrarily close to the origin
    assert np.min(r) <= 2.0 * comp.spacing


def test_component_monotone_in_level(rigid):
    cfg = SamplerConfig(cells_per_axis=40)
    small = sublevel_component(rigid.system, MAJOR, 0.18, cfg)
    large = sublevel_component(rigid.system, MAJOR, 0.22, cfg)
    assert len(small.members) < len(large.members)
    large_set = {tuple(p) for p in large.members}
    assert all(tuple(p) in large_set for p in small.members)


def test_anchor_strictly_above_level_raises(rigid):
    with pytest.raises(AnchorOutsideLevel):
        sublevel_component(rigid.system, MAJOR, 0.1)


def test_anchor_at_equal_level_gives_singleton(rigid):
    g_e = rigid.system.dissipated(MAJOR)
    comp = sublevel_component(rigid.system, MAJOR, g_e)
    assert len(comp.members) == 1
    assert np.allclose(comp.members[0], MAJOR, atol=1e-12)


# ---------------------------------------------------------------------------
# sublevel components: sampled path (dimension above the grid limit)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def bowl4():
    field = ScalarField(
        dim=4,
        value=lambda x: 0.5 * float(x @ x),
        differential=lambda x: np.asarray(x, dtype=float),
        label="bowl4",
    )
    return gradient_only(field)


def test_sampled_component_in_dim_four(bowl4):
    comp = sublevel_component(bowl4.system, np.zeros(4), 0.5)
    assert comp.method == "sampled"
    assert len(comp.members) > 100
    g = np.array([bowl4.system.dissipated(p) for p in comp.members])
    # the anchor is admitted at its own value; every other member is strict
    assert np.max(g) < 0.5 or np.isclose(np.max(g), 0.0)
    assert np.max(np.abs(comp.members)) <= 1.0 + 1e-12
    # the anchor is the first kept point
    assert np.allclose(comp.members[0], 0.0, atol=1e-12) or (
        np.min(_norms(comp.members)) <= 1e-12)


def test_sampled_component_deterministic(bowl4):
    cfg = SamplerConfig(n_samples=512, seed=5)
    a = sublevel_component(bowl4.system, np.zeros(4), 0.5, cfg)
    b = sublevel_component(bowl4.system, np.zeros(4), 0.5, cfg)
    assert np.array_equal(a.members, b.members)
    assert a.spacing == b.spacing


def _per_point_table(system, anchor, cfg):
    """The leaf table built one point at a time: points, g and cells."""
    leaf = system.leaf_value(anchor)
    hw = basin_mod._halfwidth(anchor, cfg)
    n = system.dim
    found, cells = [], []

    def project(x):
        try:
            return project_to_leaf(system, x, leaf, tol=1e-10, max_iter=20)
        except LeafProjectionFailure:
            return None

    if n <= basin_mod.GRID_DIM_LIMIT:
        n_cells = cfg.cells_per_axis
        cell = 2.0 * hw / n_cells
        diag = cell * np.sqrt(n)
        axes = [anchor[i] - hw + (np.arange(n_cells) + 0.5) * cell for i in range(n)]
        for flat, idx in enumerate(np.ndindex(*([n_cells] * n))):
            center = np.array([axes[i][idx[i]] for i in range(n)])
            if any(abs(f(center) - t) > 1.5 * diag * float(np.linalg.norm(f.d(center))) + 1e-12
                   for f, t in zip(system.conserved, leaf)):
                continue
            y = project(center)
            if y is not None and float(np.linalg.norm(y - center)) <= diag:
                found.append(y)
                cells.append(flat)
    else:
        rng = np.random.default_rng(cfg.seed)
        for x in anchor + rng.uniform(-hw, hw, size=(cfg.n_samples, n)):
            y = project(x)
            if y is not None and float(np.max(np.abs(y - anchor))) <= hw:
                found.append(y)
    g = [np.nan] + [system.dissipated(y) for y in found]
    return np.array([anchor] + found), np.array(g), np.array(cells, dtype=np.intp)


def _squares_system(weights):
    """F = |x|^2 / 2 and G = sum a_i x_i^2 on R^n, as the CLI builds them:
    stacked polynomial fields."""
    n = len(weights)

    def squares(coefs):
        return {"terms": [{"coef": c, "powers": [2 * (j == i) for j in range(n)]}
                          for i, c in enumerate(coefs)]}
    return _build_system({"dim": n, "conserved": [squares([0.5] * n)],
                          "dissipated": squares(list(weights))})[0]


def _sphere_4d_stacked():
    """_sphere_weights_4d as the CLI builds it."""
    return _squares_system([0.5, 1.0, 1.5, 2.0])


def test_row_norms_are_bitwise_the_point_norms():
    rng = np.random.default_rng(5)
    for dim in (2, 3, 4, 5, 6):
        v = rng.normal(size=(2000, dim)) * rng.uniform(1e-3, 1e3, size=(2000, 1))
        ref = np.array([np.linalg.norm(row) for row in v])
        assert basin_mod._row_norms(v).tobytes() == ref.tobytes()


def test_median_is_bitwise_np_median():
    # 8,216 arrays of lengths 1 to 1001: spread magnitudes, the nonnegative
    # values the callers pass, ties, NaN and infinities; a zero of either
    # sign is left out, since 0.0 and -0.0 tie in an order no sort pins
    rng = np.random.default_rng(11)
    count = 0
    for size in range(1, 1002):
        for case in range(8 + 8 * (size <= 26)):
            a = rng.normal(size=size) * 10.0 ** rng.uniform(-8, 8)
            if case % 4 == 1:
                a = np.abs(a)
            elif case % 4 == 2:
                a = rng.integers(1, 4, size=size).astype(float)
            elif case % 4 == 3:
                a[rng.integers(size)] = [np.nan, np.inf, -np.inf][case % 3]
            got = np.float64(basin_mod._median(a))
            assert got.tobytes() == np.float64(np.median(a)).tobytes(), (size, case)
            count += 1
    assert count == 8216


def test_sampled_certificate_does_not_import_numpy_ma():
    # np.median would import numpy.ma, about 1 MB
    script = ("import sys, numpy as np\n"
              "from geodiss.cli import _build_system\n"
              "from geodiss.basin import SamplerConfig, basin_certify\n"
              "from geodiss.structure import Stability\n"
              "sq = lambda c: {'terms': [{'coef': a, 'powers': [2 * (j == i) for j in range(4)]}"
              " for i, a in enumerate(c)]}\n"
              "system = _build_system({'dim': 4, 'conserved': [sq([0.5] * 4)],"
              " 'dissipated': sq([0.5, 1.0, 1.5, 2.0])})[0]\n"
              "cert = basin_certify(system, np.eye(4)[0], 0.95,"
              " SamplerConfig(n_samples=512, halfwidth=1.5, seed=2),"
              " stability=Stability.ASYMPTOTICALLY_STABLE, n_trajectories=2)\n"
              "print(cert.verdict, 'numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.split() == ["conditional-pass", "False"]


@pytest.mark.parametrize("name", ["rigid", "sombrero"])
def test_witness_scores_and_control_norms_are_bitwise_the_point_frames(rigid, mexhat, name):
    # one stacked frame scores all members and rates all starts; each row
    # gives the bits of the per-point frame
    from geodiss.control import _cofactor_from_frame
    from geodiss.gram import system_frame

    system, anchor, level = {"rigid": (rigid.system, MAJOR, 0.24),
                             "sombrero": (mexhat.system, np.array([1.0, 0.0, 0.0]), 0.2)}[name]
    pts = sublevel_component(system, anchor, level, SamplerConfig(cells_per_axis=16)).members
    ratios, gnorms = basin_mod._frame_scores(system, pts)
    norms = basin_mod._control_norms(system, pts)
    for i, p in enumerate(pts):
        fr = system_frame(system, p)
        scale = fr.classification_scale()
        assert ratios[i] == (fr.det_full() / scale if scale > 0 else 0.0)
        assert gnorms[i] == fr.grad_g_norm()
        assert norms[i] == float(np.linalg.norm(_cofactor_from_frame(fr)))
    # the automatic horizon from the starts' rates, as the point path set it
    starts = pts[::7]
    dist = (lambda p: float(np.linalg.norm(p - anchor))) if name == "rigid" else (
        lambda p: abs(float(np.hypot(p[0], p[1])) - 1.0))
    rates = [float(np.linalg.norm(_cofactor_from_frame(system_frame(system, p)))) / dist(p)
             for p in starts if dist(p) > 1e-6]
    expected = float(np.clip(50.0 / float(np.median(rates)), 20.0, 500.0))
    assert basin_mod._auto_horizon(
        system, starts, lambda pts: np.array([dist(p) for p in pts])) == expected


@pytest.mark.parametrize("case", ["rigid14", "rigid32", "sombrero12",
                                  "sphere4_seed1", "sphere4_seed2"])
def test_leaf_table_is_bitwise_the_per_point_build(rigid, mexhat, case):
    # the lockstep build (whole-array gap test, one projection of all rows,
    # one evaluation of G) gives the bits of the point-by-point build
    if case.startswith("rigid"):
        system, anchor = rigid.system, MAJOR
        cfg = SamplerConfig(cells_per_axis=int(case[5:]))
    elif case == "sombrero12":
        system, anchor = mexhat.system, np.array([1.0, 0.0, 0.0])
        cfg = SamplerConfig(cells_per_axis=12, halfwidth=2.8)
    else:
        system, anchor = _sphere_4d_stacked(), np.eye(4)[0]
        seed = int(case[-1])
        cfg = SamplerConfig(n_samples=1024 // seed, halfwidth=1.5, seed=seed)
    table = basin_mod._LeafTable(system, anchor, system.leaf_value(anchor), cfg)
    points, g, cells = _per_point_table(system, anchor, cfg)
    assert len(points) > 50
    assert table.points.tobytes() == points.tobytes()
    assert table.g.tobytes() == g.tobytes()
    if table.method == "grid":
        assert table.cells.tobytes() == cells.tobytes()


def _all_pairs_select(table, level):
    """The sampled selection over one all-pairs distance array."""
    cand = np.concatenate([[0], 1 + np.flatnonzero(table.g[1:] < level)])
    pts = table.points[cand]
    k_nn = min(table.cfg.neighbor_count, len(pts) - 1)
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    np.fill_diagonal(dist, np.inf)
    order = np.argsort(dist, axis=1)[:, :k_nn]
    neigh = [set(row.tolist()) for row in order]
    spacing = float(np.median([dist[i, order[i, -1]] for i in range(len(pts))]))
    seen, queue = {0}, [0]
    while queue:
        cur = queue.pop()
        for j in neigh[cur]:
            if cur in neigh[j] and j not in seen:
                seen.add(j)
                queue.append(j)
    return cand[sorted(seen)], spacing


_FROZEN_KNN_BLOCK = 128


def _frozen_sampled_select(self, level: float):
    """The sampled selection as it was before the cell-hash search, verbatim:
    k nearest candidates by an all-candidates distance block of 128 rows at a
    time, then a breadth-first search over Python sets. Returns its rows,
    spacing and boundary flag, and its neighbours and k-th distances."""
    cand = np.concatenate([[0], 1 + np.flatnonzero(self.g[1:] < level)])
    pts = self.points[cand]
    m = len(pts)
    k_nn = min(self.cfg.neighbor_count, m - 1)
    if k_nn <= 0:
        return cand, self.hw, False, None, None
    # each row's k nearest candidates, one block of rows at a time
    order = np.empty((m, k_nn), dtype=np.intp)
    kth = np.empty(m)
    for start in range(0, m, _FROZEN_KNN_BLOCK):
        block = np.arange(start, min(start + _FROZEN_KNN_BLOCK, m))
        dist = np.linalg.norm(pts[block, None, :] - pts[None, :, :], axis=2)
        dist[block - start, block] = np.inf
        order[block] = np.argsort(dist, axis=1)[:, :k_nn]
        kth[block] = dist[block - start, order[block, -1]]
    neigh = [set(row.tolist()) for row in order]
    spacing = basin_mod._median(kth)

    seen = {0}
    queue = [0]
    while queue:
        cur = queue.pop()
        for j in neigh[cur]:
            if cur in neigh[j] and j not in seen:   # mutual edge only
                seen.add(j)
                queue.append(j)
    rows = cand[sorted(seen)]
    touches = bool(np.any(np.max(np.abs(self.points[rows] - self.anchor), axis=1)
                          > self.hw - 2.0 * spacing))
    return rows, spacing, touches, order, kth


def _assert_frozen_selection(table, level):
    """The selection, its neighbour sets and its k-th distances are the frozen
    blocked search's bits; returns the number of candidates."""
    rows, spacing, touches, ref_order, ref_kth = _frozen_sampled_select(table, level)
    got, got_spacing, got_touches = basin_mod._LeafTable._sampled_select(table, level)
    assert np.array_equal(got, rows)
    assert np.float64(got_spacing).tobytes() == np.float64(spacing).tobytes()
    assert got_touches == touches
    cand = np.concatenate([[0], 1 + np.flatnonzero(table.g[1:] < level)])
    if ref_order is not None:
        order, kth = basin_mod._knn_rows(table.points[cand], ref_order.shape[1])
        assert kth.tobytes() == ref_kth.tobytes()
        assert np.array_equal(np.sort(order, axis=1), np.sort(ref_order, axis=1))
    return len(cand)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("neighbor_count", [1, 2, 3, 10, 32])
def test_sampled_selection_is_the_frozen_blocked_selection(seed, neighbor_count):
    table = basin_mod._LeafTable(_sphere_4d_stacked(), np.eye(4)[0], np.array([0.5]),
                                 SamplerConfig(n_samples=1024, halfwidth=1.5, seed=seed,
                                               neighbor_count=neighbor_count))
    sizes = [_assert_frozen_selection(table, level) for level in (0.6, 0.95, 1.1, 3.0)]
    assert sizes[-1] > 512


@pytest.mark.parametrize("case", ["bowl4", "sphere6", "sphere8", "few_samples"])
def test_sampled_selection_is_the_frozen_blocked_selection_elsewhere(bowl4, case):
    # bowl4 has no conserved quantity, so its candidates fill the 4-D box;
    # the 6-D and 8-D spheres are hashed on four of their axes; 20 samples
    # with 32 neighbours join every candidate to every other
    if case == "bowl4":
        table = basin_mod._LeafTable(bowl4.system, np.zeros(4), np.zeros(0),
                                     SamplerConfig(n_samples=1500, halfwidth=1.0, seed=4))
        levels = (0.1, 0.5, 10.0)
    elif case == "few_samples":
        table = basin_mod._LeafTable(_sphere_4d_stacked(), np.eye(4)[0], np.array([0.5]),
                                     SamplerConfig(n_samples=20, halfwidth=1.5, seed=4,
                                                   neighbor_count=32))
        levels = (0.6, 0.95, 3.0)
    else:
        n = int(case[-1])
        weights = [0.5 * (i + 1) for i in range(n)]
        table = basin_mod._LeafTable(_squares_system(weights), np.eye(n)[0], np.array([0.5]),
                                     SamplerConfig(n_samples=1024, halfwidth=1.5, seed=n))
        levels = (0.95, 1.5, 2.0 * n)
    sizes = [_assert_frozen_selection(table, level) for level in levels]
    assert sizes[-1] > (20 if case == "few_samples" else 500)


@pytest.mark.parametrize("neighbor_count", [1, 3, 10])
def test_sampled_selection_on_a_line_is_the_frozen_blocked_selection(neighbor_count):
    # every candidate on one line: three of the four coordinates are equal
    rng = np.random.default_rng(8)
    points = np.zeros((600, 4))
    points[:, 0] = rng.uniform(-1.0, 1.0, size=600)
    table = SimpleNamespace(points=points, g=np.concatenate([[np.nan], np.abs(points[1:, 0])]),
                            anchor=points[0], hw=1.0,
                            cfg=SamplerConfig(neighbor_count=neighbor_count))
    assert [_assert_frozen_selection(table, level) for level in (0.3, 2.0)][-1] == 600


def test_neighbour_ties_go_to_the_lower_index():
    # a 4^4 lattice and a copy of its first 64 points: every row has exact
    # ties at its k-th distance, zero for the copies, one on the lattice
    lattice = np.stack(np.meshgrid(*[np.arange(4.0)] * 4, indexing="ij"), axis=-1).reshape(-1, 4)
    pts = np.vstack([lattice, lattice[:64]])
    m = len(pts)
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    np.fill_diagonal(dist, np.inf)
    by_distance_then_index = np.lexsort((np.broadcast_to(np.arange(m), (m, m)), dist), axis=1)
    for k in (1, 2, 3, 5, 8, 20):
        order, kth = basin_mod._knn_rows(pts, k)
        assert np.array_equal(order, by_distance_then_index[:, :k])
        assert kth.tobytes() == _frozen_sampled_select(SimpleNamespace(
            points=pts, g=np.zeros(m), anchor=pts[0], hw=10.0,
            cfg=SamplerConfig(neighbor_count=k)), 1.0)[4].tobytes()


def test_neighbours_never_hold_the_row_itself_when_distances_overflow():
    # every squared distance overflows to inf: each row still gets k other
    # rows, the lowest indices, and the k-th distance inf
    pts = np.random.default_rng(1).uniform(-1.0, 1.0, size=(40, 4)) * 1e200
    with np.errstate(over="ignore"):
        order, kth = basin_mod._knn_rows(pts, 5)
    others = [[j for j in range(40) if j != i][:5] for i in range(40)]
    assert order.tolist() == others
    assert np.all(np.isinf(kth))


def test_sampled_selection_in_blocks_is_the_all_pairs_selection():
    system = _sphere_4d_stacked()
    table = basin_mod._LeafTable(system, np.eye(4)[0], np.array([0.5]),
                                 SamplerConfig(n_samples=1024, halfwidth=1.5, seed=3))
    # at the top level more than 512 rows are candidates
    assert np.sum(table.g[1:] < 3.0) > 512
    for level in (0.6, 0.95, 1.1, 3.0):
        component, rows = table.select(level)
        ref_rows, ref_spacing = _all_pairs_select(table, level)
        assert np.array_equal(rows, ref_rows)
        assert component.spacing == ref_spacing


def _select_peak(table, level):
    """``table.select(level)`` and the peak of the memory it traced."""
    tracemalloc.start()
    try:
        component, rows = table.select(level)
        return rows, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampled_selection_memory_is_linear_in_the_rows(bowl4):
    # all 3000 rows below the level: an all-pairs difference array alone
    # would take 3000**2 * 4 * 8 bytes, 275 MB
    table = basin_mod._LeafTable(bowl4.system, np.zeros(4), np.zeros(0),
                                 SamplerConfig(n_samples=2999, halfwidth=1.0))
    assert len(table.points) == 3000
    rows, peak = _select_peak(table, 10.0)
    assert len(rows) > 2900
    assert peak < 8 * 2 ** 20


def test_sampled_selection_memory_at_16384_samples():
    # about 5,200 candidates on the 4-D sphere, where a distance block of 128
    # rows of all candidates (_frozen_sampled_select) peaks at 56.5 MB
    table = basin_mod._LeafTable(_sphere_4d_stacked(), np.eye(4)[0], np.array([0.5]),
                                 SamplerConfig(n_samples=16384, halfwidth=1.5))
    rows, peak = _select_peak(table, 0.95)
    assert len(rows) > 5000
    assert peak < 16 * 2 ** 20


def test_leaf_table_build_projects_in_bounded_blocks():
    # 65,536 samples of the 4-D sphere, projected and evaluated in blocks of
    # 16,384 rows: the build's traced peak stays under 12 MB (9.9 MB; 14.6 MB
    # with G evaluated on all rows at once, 23.3 MB with them also projected
    # at once), and the table holds the bits of one projection and one
    # evaluation of G over all rows
    system, anchor = _sphere_4d_stacked(), np.eye(4)[0]
    cfg = SamplerConfig(n_samples=2 ** 16, halfwidth=1.5)
    tracemalloc.start()
    try:
        table = basin_mod._LeafTable(system, anchor, np.array([0.5]), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2 ** 20
    raw = anchor + np.random.default_rng(cfg.seed).uniform(-1.5, 1.5, size=(2 ** 16, 4))
    y, converged, _ = basin_mod._project_rows(system, raw, np.array([0.5]),
                                              tol=1e-10, max_iter=20)
    found = y[converged & ~(np.max(np.abs(y - anchor), axis=1) > 1.5)]
    assert len(found) > 3 * basin_mod._TABLE_BLOCK
    assert table.points[1:].tobytes() == found.tobytes()
    assert table.g[1:].tobytes() == system.dissipated.values(found).tobytes()


def test_leaf_table_grid_build_tests_the_gap_in_bounded_blocks(rigid):
    # 64^3 cells of the rigid body at its major axis, whose leaf-gap test
    # runs on blocks of 16,384 cells: the build's traced peak stays under
    # 6 MB (2.6 MB, the gap test's blocks and the row graph; 26 MB with
    # every cell centre built at once), and the table holds the bits of one
    # gap test of all cells
    system, anchor = rigid.system, np.array([1.0, 0.0, 0.0])
    leaf, n, n_cells = system.leaf_value(anchor), 3, 64
    tracemalloc.start()
    try:
        table = basin_mod._LeafTable(system, anchor, leaf, SamplerConfig(cells_per_axis=n_cells))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20
    # the all-at-once build: every cell centre from one meshgrid, in C order
    cell = 2.0 * table.hw / n_cells
    diag = cell * np.sqrt(n)
    axes = [anchor[i] - table.hw + (np.arange(n_cells) + 0.5) * cell for i in range(n)]
    centers = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    cells = np.arange(len(centers))
    for f, target in zip(system.conserved, leaf):
        c = centers[cells]
        gap = np.abs(f.values(c) - target)
        cells = cells[~(gap > 1.5 * diag * basin_mod._row_norms(f.diffs(c)) + 1e-12)]
    c = centers[cells]
    y, converged, _ = basin_mod._project_rows(system, c, leaf, tol=1e-10, max_iter=20)
    keep = converged & ~(basin_mod._row_norms(y - c) > diag)
    # the kept cells come from many blocks
    assert len(np.unique(cells[keep] // basin_mod._TABLE_BLOCK)) > 4
    assert table.cells.tobytes() == cells[keep].tobytes()
    assert table.points[1:].tobytes() == y[keep].tobytes()
    assert table.g[1:].tobytes() == system.dissipated.values(y[keep]).tobytes()


def _frozen_face_flood(inside: np.ndarray, start: int, n_cells: int, n: int) -> np.ndarray:
    strides = [n_cells ** (n - 1 - axis) for axis in range(n)]
    seen = np.zeros(inside.size, dtype=bool)
    seen[start] = True
    frontier = np.array([start])
    while frontier.size:
        coords = np.unravel_index(frontier, (n_cells,) * n)
        steps = []
        for axis in range(n):
            steps.append(frontier[coords[axis] > 0] - strides[axis])
            steps.append(frontier[coords[axis] < n_cells - 1] + strides[axis])
        nxt = np.concatenate(steps)
        frontier = _frozen_mark_new(nxt[inside[nxt]], seen)
    return np.flatnonzero(seen)


def _frozen_mark_new(nxt: np.ndarray, seen: np.ndarray) -> np.ndarray:
    nxt = np.sort(nxt[~seen[nxt]])
    first = np.ones(nxt.size, dtype=bool)
    first[1:] = nxt[1:] != nxt[:-1]
    seen[nxt[first]] = True
    return nxt[first]


def _frozen_grid_select(self, level: float):
    """The grid selection as it was before the row graph, verbatim: a
    breadth-first flood over a dense array of every cell, read back through
    a cell-to-row map of every cell. Returns its rows, spacing and boundary
    flag."""
    n_cells, n = self.cfg.cells_per_axis, self.system.dim
    slot = np.full(n_cells ** n, -1)
    slot[self.cells] = np.arange(1, len(self.cells) + 1)
    inside = np.zeros(slot.size, dtype=bool)
    inside[self.cells] = self.g[1:] < level
    a = self.anchor_cell
    anchor_row = slot[a] if inside[a] else 0
    inside[a] = True
    comp = _frozen_face_flood(inside, a, n_cells, n)
    coords = np.unravel_index(comp, (n_cells,) * n)
    touches = any(bool(np.any((c == 0) | (c == n_cells - 1))) for c in coords)
    rows = slot[comp]
    rows[comp == a] = anchor_row
    return rows, self.diag, touches


def _assert_frozen_grid_selection(table, level):
    """The selection is the frozen dense flood's bits; returns its rows."""
    rows, spacing, touches = _frozen_grid_select(table, level)
    got, got_spacing, got_touches = basin_mod._LeafTable._grid_select(table, level)
    assert got.dtype == rows.dtype and got.tobytes() == rows.tobytes(), level
    assert np.float64(got_spacing).tobytes() == np.float64(spacing).tobytes()
    assert got_touches is touches
    component, got = table.select(level)
    assert component.members.tobytes() == table.points[rows].tobytes()
    return rows


def _grid_levels(table):
    """Levels across the table's values: fixed ones, its least and largest,
    quantiles, and either side of the anchor cell's own row."""
    g = table.g[1:]
    levels = [0.05, 0.17, 0.2, 0.26, 0.3, 1.0]
    if g.size:
        levels += [float(np.nanmin(g)), float(np.nanmax(g)) * 1.01,
                   *np.nanquantile(g, [0.02, 0.1, 0.3, 0.6]).tolist()]
    if table.anchor_row:
        own = float(table.g[table.anchor_row])
        levels += [own, float(np.nextafter(own, np.inf))]
    return levels


_RIGID_GRIDS = (2, 3, 5, 8, 13, 24, 64)


@pytest.mark.parametrize("case", [
    *[("rigid", anchor, halfwidth, _RIGID_GRIDS, None)
      for anchor in ((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.9, 0.1, 0.0))
      for halfwidth in (None, 0.7, 1.6)],
    ("sombrero", (1.0, 0.0, 0.0), 2.8, (10, 12, 16), None),
    ("rigid", (1.0, 0.0, 0.0), None, (2, 7, 16), "anchor cell"),
    ("rigid", (1.0, 0.0, 0.0), None, (2, 7, 16), "every cell"),
], ids=lambda case: "-".join(map(str, case[:3] + case[4:])))
def test_grid_selection_is_the_frozen_dense_grid_selection(rigid, mexhat, monkeypatch, case):
    # the rigid body at both ends of its major axis, its minor axis and a
    # point off the axes, at three half-widths, and the sombrero: the anchor
    # cell's own row joins at some levels and not at others. Then the rigid
    # body with the anchor cell's centre, or every centre, refused by the
    # projection: the anchor stands in for its cell, and a table of the
    # anchor alone selects only it
    name, anchor, halfwidth, grids, refused = case
    system, anchor = (rigid if name == "rigid" else mexhat).system, np.array(anchor)
    real = basin_mod._LeafTable._project

    def project(self, pts):
        y, converged = real(self, pts)
        if refused == "every cell":
            return y, np.zeros_like(converged)
        n_cells = self.cfg.cells_per_axis
        idx = np.array(np.unravel_index(self.anchor_cell, (n_cells,) * 3))
        centre = anchor - self.hw + (idx + 0.5) * (2.0 * self.hw / n_cells)
        return y, converged & ~np.all(pts == centre, axis=1)

    if refused:
        monkeypatch.setattr(basin_mod._LeafTable, "_project", project)
    owns = set()
    for n_cells in grids:
        table = basin_mod._LeafTable(system, anchor, system.leaf_value(anchor),
                                     SamplerConfig(cells_per_axis=n_cells, halfwidth=halfwidth))
        assert len(table.points) == 1 or refused != "every cell"
        for level in _grid_levels(table):
            rows = _assert_frozen_grid_selection(table, level)
            if table.anchor_row:
                owns.add(bool(np.isin(table.anchor_row, rows)))
            else:
                assert 0 in rows
    assert owns == (set() if refused else {True, False})


def _build_and_select_peaks(table_args, level):
    """The traced peaks of a leaf table's build and of one selection."""
    tracemalloc.start()
    try:
        table = basin_mod._LeafTable(*table_args)
        build = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return table, build, _select_peak(table, level)


def test_grid_table_and_selection_memory_is_bounded_by_the_rows(rigid):
    # 128^3 cells of the rigid body at its major axis, about 28,600 rows,
    # whose graph takes 1.4 MB: the build peaks at 5.4 MB and a selection at
    # 0.1 MB, where a cell-to-row map of every cell alone takes 16 MB (an
    # 18.25 MB build peak) and a mask of every cell 2 MB (a 4.0 MB selection)
    anchor = np.array([1.0, 0.0, 0.0])
    table, build, (rows, select) = _build_and_select_peaks(
        (rigid.system, anchor, rigid.system.leaf_value(anchor),
         SamplerConfig(cells_per_axis=128)), 0.22)
    assert len(table.points) > 28000 and len(rows) > 1000
    assert build < 8 * 2 ** 20
    assert select < 2 * 2 ** 20


def test_box_halfwidth_has_one_rule(bowl4):
    # the rule the leaf table and the trajectory bound read: a configured
    # half-width is used as given, however small; only None means automatic
    anchor = np.array([0.5, 0.0, 0.0, 0.0])
    auto = 2.0 * 0.5 + 0.5
    for sampler, expected in ((None, auto), (SamplerConfig(), auto),
                              (SamplerConfig(halfwidth=1e-3), 1e-3),
                              (SamplerConfig(halfwidth=0.75), 0.75)):
        assert basin_mod._halfwidth(anchor, sampler) == expected
    table = basin_mod._LeafTable(bowl4.system, anchor, np.zeros(0),
                                 SamplerConfig(n_samples=8, halfwidth=1e-3))
    assert table.hw == 1e-3
    # a zero half-width is refused where the sampler is made
    with pytest.raises(ConfigError):
        SamplerConfig(halfwidth=0.0)


def test_sampler_config_checks_its_fields(rigid):
    # the grid path once took a zero half-width to a cell width of 0 and
    # ended in an untyped ValueError from floor(0/0)
    with pytest.raises(ConfigError, match="halfwidth"):
        sublevel_component(rigid.system, (1, 0, 0), 0.2,
                           SamplerConfig(cells_per_axis=8, halfwidth=0.0))
    # the bounds of the config schema's sampler
    for bad in ({"cells_per_axis": 1}, {"halfwidth": -1.0},
                {"halfwidth": float("nan")}, {"n_samples": 0},
                {"neighbor_count": 0}, {"seed": -1}):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            SamplerConfig(**bad)
    SamplerConfig(cells_per_axis=2, halfwidth=1e-9, n_samples=1,
                  neighbor_count=1, seed=0)


def test_sampler_work_is_bounded_before_any_work(rigid, monkeypatch):
    # the upper bounds of the config schema's sampler; the largest values
    # pass, and nothing here samples or builds a grid
    for bad in ({"cells_per_axis": 257}, {"n_samples": 2 ** 20 + 1}):
        with pytest.raises(ConfigError, match=f"{next(iter(bad))} must be at most"):
            SamplerConfig(**bad)
    SamplerConfig(cells_per_axis=256, n_samples=2 ** 20)
    # the leaf table checks its grid against the cell budget before it
    # allocates anything
    monkeypatch.setattr(basin_mod, "_CELL_BUDGET", 7 ** 3)

    def no_grid(self):
        raise AssertionError("grid built")

    monkeypatch.setattr(basin_mod._LeafTable, "_grid_points", no_grid)
    with pytest.raises(ConfigError, match="exceeds the budget"):
        sublevel_component(rigid.system, MAJOR, 0.2, SamplerConfig(cells_per_axis=8))


def test_sampler_config_refuses_counts_that_are_not_integers():
    # a float count once reached numpy and ended in an untyped TypeError:
    # cells_per_axis 14.0 on the grid, n_samples 512.0 and neighbor_count
    # 10.0 on the sampled path, and a seed of 1.5 in SeedSequence
    for bad in ({"cells_per_axis": 14.0}, {"n_samples": 512.0}, {"neighbor_count": 10.0},
                {"seed": 1.5}, {"seed": 0.0}, {"cells_per_axis": "14"}, {"seed": None}):
        name = next(iter(bad))
        with pytest.raises(ConfigError, match=f"sampler {name} must be an integer of at least"):
            SamplerConfig(**bad)
    # numpy's integers are integers
    SamplerConfig(cells_per_axis=np.int64(14), n_samples=np.int32(512),
                  neighbor_count=np.uint8(10), seed=np.int64(0))


def test_certificates_refuse_trajectory_options_outside_the_schema(rigid, mexhat, monkeypatch):
    # n_trajectories 0 once returned a conditional pass with no trajectory
    # behind it, and -1, 2.5, 4.0 and a traj_seed of 1.5 ended in untyped
    # errors; all three entry points refuse them before any work, the
    # threshold search before it builds its table, and so do the orbit
    # certificate its n_phases and the threshold search its steps
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("_LeafTable", "_require_stable", "refine_to_invariant_set"):
        monkeypatch.setattr(basin_mod, name, no_work)
    sampler = SamplerConfig(cells_per_axis=32)
    for bad in ({"n_trajectories": 0}, {"n_trajectories": -1}, {"n_trajectories": 2.5},
                {"n_trajectories": 4.0}, {"traj_seed": 1.5}, {"traj_seed": -1}):
        name = next(iter(bad))
        for certify in (
                lambda: basin_certify(rigid.system, MAJOR, 0.2, sampler, **bad),
                lambda: threshold_search(rigid.system, MAJOR, 0.4, 4, sampler, **bad),
                lambda: periodic_orbit_certify(mexhat.system, [1.05, 0.0, 0.02], 0.2,
                                               sampler, **bad)):
            with pytest.raises(ConfigError, match=f"{name} must be an integer of at least"):
                certify()
    # n_phases 0 once ended in an untyped ValueError and 2.5 in an
    # IndexError after the whole orbit certificate had run; steps 2.5 ran as
    # 2, and -3 probed only level_max
    for bad in ({"n_phases": 0}, {"n_phases": 2.5}):
        with pytest.raises(ConfigError, match="n_phases must be an integer of at least 1"):
            periodic_orbit_certify(mexhat.system, [1.05, 0.0, 0.02], 0.2, sampler, **bad)
    for steps in (2.5, 0, -3):
        with pytest.raises(ConfigError, match="steps must be an integer of at least 1"):
            threshold_search(rigid.system, MAJOR, 0.4, steps, sampler)


# ---------------------------------------------------------------------------
# distance to a sampled closed orbit
# ---------------------------------------------------------------------------


def _unit_circle(n=2048, z=0.0):
    th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return np.column_stack([np.cos(th), np.sin(th), np.full(n, z)])


def test_distance_to_orbit_on_circle():
    orbit = _unit_circle()
    p = np.array([np.cos(0.3), np.sin(0.3), 0.0])
    assert distance_to_orbit(p, orbit) <= 1e-7


def test_distance_to_orbit_off_circle():
    orbit = _unit_circle()
    d = distance_to_orbit(np.array([1.3, 0.0, 0.0]), orbit)
    assert abs(d - 0.3) <= 1e-5
    d2 = distance_to_orbit(np.array([0.5 * np.cos(1.1), 0.5 * np.sin(1.1), 0.2]),
                           orbit)
    assert abs(d2 - np.hypot(0.5, 0.2)) <= 1e-5


def test_target_distances_are_the_per_row_distances():
    # the one distance the verdict, the witness scan, the horizon and the
    # trap read: bitwise np.linalg.norm of each row for an equilibrium, and
    # distance_to_orbit of each row for an orbit, on a stack of any size
    rng = np.random.default_rng(41)
    pts = rng.normal(size=(2000, 3)) * 10.0 ** rng.uniform(-6.0, 1.0, size=(2000, 1))
    pts[::9] = 0.0
    x_e = np.array([0.8, -0.6, 0.1])
    for anchor in (x_e, MAJOR, np.zeros(3)):
        got = basin_mod._equilibrium(anchor).distances(pts + anchor)
        assert got.tobytes() == np.array(
            [np.linalg.norm(p + anchor - anchor) for p in pts]).tobytes()
    orbit = _unit_circle(z=0.02)
    near = np.concatenate((pts[:300], _unit_circle(300, z=0.02) * (1.0 + pts[:300, :1])))
    target = basin_mod._orbit(orbit, orbit[::20])
    assert target.distances(near).tobytes() == np.array(
        [distance_to_orbit(p, orbit) for p in near]).tobytes()
    assert target.states.tobytes() == orbit[::20].tobytes()
    assert basin_mod._orbit(orbit, orbit[:2]).states is None
    for t in (basin_mod._equilibrium(x_e), target):
        assert t.distances(np.empty((0, 3))).shape == (0,)


def _per_point_arc_newton(p, orbit_states):
    """The distance of one point to a sampled orbit, by the arc Newton on
    Python floats between numpy's dots, with the iteration it stops on and
    why ("fp" for fp <= 0, "step" for a step below 1e-12, "cap" after 20):
    the reference the stacked distances are held to."""
    d2 = np.sum((orbit_states - p) ** 2, axis=1)
    j = int(np.argmin(d2))
    m = len(d2)
    xm, x0, xp = orbit_states[(j - 1) % m], orbit_states[j], orbit_states[(j + 1) % m]
    a1 = 0.5 * (xp - xm)
    a2 = 0.5 * (xp - 2.0 * x0 + xm)
    s, stop = 0.0, ("cap", 20)
    for it in range(20):
        arc = x0 + s * a1 + s * s * a2
        tangent = a1 + 2.0 * s * a2
        f = float((arc - p) @ tangent)
        fp = float(tangent @ tangent + 2.0 * ((arc - p) @ a2))
        if fp <= 0.0:
            stop = ("fp", it)
            break
        s_new = float(np.clip(s - f / fp, -1.5, 1.5))
        if abs(s_new - s) < 1e-12:
            s, stop = s_new, ("step", it)
            break
        s = s_new
    arc = x0 + s * a1 + s * s * a2
    return float(np.linalg.norm(arc - p)), stop


def test_orbit_distances_are_the_per_point_arc_newton():
    # the stacked arc Newton gives each row the bits of its own run: rows
    # that stop on different iterations, rows near the axis of the circle,
    # where fp <= 0 stops them at once, and stacks of several blocks of the
    # nearest-sample search (a row a block on 2,048 samples, 170 on 16)
    rng = np.random.default_rng(43)
    angle = rng.uniform(0.0, 2.0 * np.pi, 297)
    radius = 1.0 + rng.normal(size=297) * 10.0 ** rng.uniform(-9.0, 0.0, 297)
    pts = np.column_stack([radius * np.cos(angle), radius * np.sin(angle),
                           0.02 + rng.normal(size=297) * 10.0 ** rng.uniform(-9.0, 0.0, 297)])
    axis = np.array([[1e-7, 0.0, 0.3], [0.0, -2e-7, -0.4], [0.0, 0.0, 0.0], [3e-8, 4e-8, 0.02]])
    pts = np.concatenate((pts[:150], axis, pts[150:]))
    stops = set()
    for samples in (2048, 16):
        orbit = _unit_circle(samples, z=0.02)
        ref = [_per_point_arc_newton(p, orbit) for p in pts]
        stops |= {stop for _, stop in ref}
        want = np.array([d for d, _ in ref])
        assert basin_mod._orbit(orbit, orbit[::4]).distances(pts).tobytes() == want.tobytes()
        assert np.array([distance_to_orbit(p, orbit) for p in pts]).tobytes() == want.tobytes()
    assert len(pts) > basin_mod._NEAREST_FLOATS // (16 * 3)
    assert {why for why, _ in stops} == {"fp", "step"}
    assert len({it for why, it in stops if why == "step"}) >= 3


# ---------------------------------------------------------------------------
# degeneracy-set witness scan
# ---------------------------------------------------------------------------


def test_witness_scan_at_02_sees_only_target(rigid):
    comp = sublevel_component(rigid.system, MAJOR, 0.2)
    w = scan_invariant_witnesses(rigid.system, comp)
    assert w.size > 0
    assert np.max(_norms(w - MAJOR)) <= 1e-6


# The per-candidate witness scan after scoring that the blocked thinning
# and the one-call post-filter replaced, verbatim: the reference they are
# held to, bit for bit.
def _per_candidate_witnesses(system, component, ratios, gnorms, refine, max_refine):
    pts = component.members
    score = np.minimum(ratios / basin_mod._SUSP_RATIO, gnorms / basin_mod._SUSP_G)
    candidates = np.where(score <= 1.0)[0]
    candidates = candidates[np.argsort(score[candidates])]
    chosen = []
    min_gap = 0.4 * component.spacing
    for i in candidates:
        if len(chosen) >= max_refine:
            break
        if chosen:
            gaps = np.linalg.norm(pts[chosen] - pts[i], axis=1)
            if float(np.min(gaps)) < min_gap:
                continue
        chosen.append(int(i))

    witnesses = []
    for y in refine(chosen):
        if y is None:
            continue
        if not system.dissipated(y) < component.level:
            if float(np.linalg.norm(y - component.anchor)) > 0.25 * component.spacing:
                continue
        if any(np.linalg.norm(y - w) < 0.25 * component.spacing
               for w in witnesses):
            continue
        witnesses.append(y)
    if not witnesses:
        return np.zeros((0, system.dim))
    return np.array(witnesses)


def _thin_block(n, floats):
    """The rows of the thinning's first block of n-dimensional rows, before
    any is kept: b^2 n floats at most."""
    return max(1, int(np.sqrt(4 * (floats // n))) // 2)


@pytest.mark.parametrize("case", ["rigid48_03", "rigid32_045", "sombrero_03",
                                  "sphere4_sampled"])
@pytest.mark.parametrize("floats", [None, 64])
@pytest.mark.parametrize("max_refine", [800, 5])
def test_witness_scan_is_the_per_candidate_scan(rigid, mexhat, monkeypatch, case, floats,
                                                max_refine):
    # the thinning's blocks, many of them at a budget of 64 floats, choose
    # what the per-candidate loop chose, and the witnesses keep their bits
    if floats is not None:
        monkeypatch.setattr(basin_mod, "_THIN_FLOATS", floats)
    system, anchor, level, sampler = {
        "rigid48_03": (rigid.system, MAJOR, 0.3, SamplerConfig(cells_per_axis=48)),
        "rigid32_045": (rigid.system, MAJOR, 0.45, SamplerConfig(cells_per_axis=32)),
        "sombrero_03": (mexhat.system, np.array([1.0, 0.0, 0.0]), 0.3,
                        SamplerConfig(cells_per_axis=24, halfwidth=2.8)),
        "sphere4_sampled": (_sphere_weights_4d(), np.eye(4)[0], 1.2,
                            SamplerConfig(n_samples=8192, halfwidth=1.5, seed=7)),
    }[case]
    comp = sublevel_component(system, anchor, level, sampler)
    ratios, gnorms = basin_mod._frame_scores(system, comp.members)
    score = np.minimum(ratios / basin_mod._SUSP_RATIO, gnorms / basin_mod._SUSP_G)
    assert np.count_nonzero(score <= 1.0) > _thin_block(system.dim, basin_mod._THIN_FLOATS)
    asked = []

    def refine(chosen):
        asked.append(list(chosen))
        return basin_mod._refine_rows(system, comp.members[chosen], comp.leaf_value,
                                      2.0 * comp.spacing)

    got = basin_mod._verified_witnesses(system, comp, ratios, gnorms, refine, max_refine)
    want = _per_candidate_witnesses(system, comp, ratios, gnorms, refine, max_refine)
    assert asked[0] == asked[1]
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert len(want) > (max_refine > 5)


def test_thinning_keeps_the_nan_rule_across_blocks(monkeypatch):
    # a NaN gap keeps a candidate, as np.min's NaN does; the gaps of the
    # witness filter are each np.linalg.norm of a difference
    monkeypatch.setattr(basin_mod, "_THIN_FLOATS", 96)
    rng = np.random.default_rng(17)
    pts = rng.uniform(-1.0, 1.0, size=(600, 3))
    pts[rng.choice(600, 25, replace=False), rng.integers(3, size=25)] = np.nan
    order = rng.permutation(600)[:400]
    assert len(order) > 10 * _thin_block(3, 96)
    for limit in (1000, 37):
        want = []
        for i in order:
            if len(want) >= limit:
                break
            if want and float(np.min(np.linalg.norm(pts[want] - pts[i], axis=1))) < 0.2:
                continue
            want.append(int(i))
        got = basin_mod._thin(pts, order, 0.2, limit, lambda d: np.linalg.norm(d, axis=-1))
        assert got == want
        assert any(np.isnan(pts[i]).any() for i in got)
    finite = pts[~np.isnan(pts).any(axis=1)]
    want = []
    for i in range(len(finite)):
        if not any(np.linalg.norm(finite[i] - finite[j]) < 0.3 for j in want):
            want.append(i)
    got = basin_mod._thin(finite, np.arange(len(finite)), 0.3, len(finite),
                          lambda d: basin_mod._row_norms(d.reshape(-1, 3)).reshape(d.shape[:-1]))
    assert got == want


@pytest.mark.parametrize("n", range(1, 11))
def test_square_sums_are_the_reduction_they_replace(n):
    # numpy adds fewer than eight terms in turn and more pairwise; the
    # column sum that replaces the first must give its bits, at signed
    # zeros, huge squares that overflow and tiny ones that underflow
    rng = np.random.default_rng(n)
    d = rng.normal(size=(6, 257, n)) * 10.0 ** rng.integers(-170, 170, size=(6, 257, n))
    d[rng.random(d.shape) < 0.1] = 0.0
    d[rng.random(d.shape) < 0.1] = -0.0
    d[rng.random(d.shape) < 0.02] = 1e300
    with np.errstate(over="ignore", under="ignore"):
        want = np.sum(d ** 2, axis=2)
        got = basin_mod._square_sums(d)
    assert got.tobytes() == want.tobytes()
    states = rng.normal(size=(300, n))
    pts = np.concatenate((states[:40] + 1e-9, rng.normal(size=(40, n)), -states[:5]))
    assert basin_mod._nearest(pts, states).tolist() == [
        int(np.argmin(np.sum((states - p) ** 2, axis=1))) for p in pts]


def test_witness_scan_at_03_finds_saddles(rigid):
    comp = sublevel_component(rigid.system, MAJOR, 0.3,
                              SamplerConfig(cells_per_axis=48))
    w = scan_invariant_witnesses(rigid.system, comp)
    assert w.size > 0
    # soundness: each witness verifiably sits in the degeneracy set, on the
    # anchor's sphere, strictly below the level
    for y in w:
        assert classify_point(rigid.system, y, tol_inv=1e-12,
                              tol_g=1e-8).in_invariant_set
        assert abs(rigid.system.conserved[0](y) - 0.5) <= 1e-8
        assert rigid.system.dissipated(y) < 0.3
    # completeness at this level: the saddle pair is reported
    d_saddle = np.minimum(_norms(w - np.array([0.0, 1.0, 0.0])),
                          _norms(w - np.array([0.0, -1.0, 0.0])))
    assert np.min(d_saddle) <= 1e-6


# ---------------------------------------------------------------------------
# equilibrium basin certificates
# ---------------------------------------------------------------------------

BASIN_REPORT_KEYS = {
    "passed", "verdict", "properGAsserted", "target", "level", "stability",
    "componentSize", "spacing", "touchesBoundary", "witnesses", "farWitnesses",
    "trajectoriesTotal", "trajectoriesConverged", "failedStarts", "horizon",
    "maxTrajectoryG", "reasons",
}


@pytest.fixture(scope="module")
def rigid_pass_cert(rigid):
    return basin_certify(rigid.system, MAJOR, 0.2, stability=AS,
                         n_trajectories=12, traj_seed=3)


def test_basin_certificate_passes_at_02(rigid_pass_cert):
    cert = rigid_pass_cert
    assert cert.passed
    assert cert.reasons == []
    assert cert.verdict == "conditional-pass"       # properness not asserted
    assert cert.far_witnesses.size == 0
    assert cert.witnesses.size > 0
    assert cert.trajectories_converged == cert.trajectories_total == 12
    assert cert.failed_starts == []
    # forward-invariance evidence: no recorded state above the level
    assert cert.max_trajectory_g <= 0.2 + 1e-6
    assert not cert.touches_boundary


def test_failed_reprojection_is_a_failed_start(rigid, refused_leaf_projection):
    # the leaf table keeps its own projection; only the ensemble's
    # re-projecting integrations fail, and each one is recorded, not raised
    cert = basin_certify(rigid.system, MAJOR, 0.2,
                         SamplerConfig(cells_per_axis=16), stability=AS,
                         n_trajectories=2, traj_seed=3,
                         integrator=IntegratorConfig(method=Method.RK45_ADAPTIVE,
                                                     leaf_reprojection=True))
    assert not cert.passed
    assert cert.trajectories_converged == 0
    assert [f["error"] for f in cert.failed_starts] == ["LeafProjectionFailure"] * 2
    assert all(f["finalDistance"] is None for f in cert.failed_starts)


def test_basin_certificate_report_shape(rigid_pass_cert):
    report = rigid_pass_cert.as_report()
    assert set(report) == BASIN_REPORT_KEYS
    assert "members" not in report
    json.dumps(report)  # fully serializable
    assert report["verdict"] == "conditional-pass"
    assert report["properGAsserted"] is False
    assert report["stability"] == "asymptotically_stable"


def test_verdict_tracks_properness_assertion(rigid_pass_cert):
    asserted = dataclasses.replace(rigid_pass_cert, proper_g_asserted=True)
    assert asserted.verdict == "pass"
    failed = dataclasses.replace(rigid_pass_cert, passed=False)
    assert failed.verdict == "fail"


def test_basin_certificate_fails_at_03(rigid):
    cert = basin_certify(rigid.system, MAJOR, 0.3, stability=AS,
                         sampler=SamplerConfig(cells_per_axis=48),
                         n_trajectories=6, traj_seed=3)
    assert not cert.passed
    assert cert.verdict == "fail"
    assert cert.far_witnesses.size > 0
    d_saddle = np.minimum(
        _norms(cert.far_witnesses - np.array([0.0, 1.0, 0.0])),
        _norms(cert.far_witnesses - np.array([0.0, -1.0, 0.0])))
    assert np.min(d_saddle) <= 1e-6
    # geometric reasons first, then the ensemble's, each in a fixed order
    assert cert.reasons == [
        "degeneracy-set witnesses found away from the target",
        "trajectories failed to converge to the target",
    ]


def test_basin_certificate_reports_an_upward_exit():
    # fixed RK4 on x' = -x multiplies the state by 1.375 a step at h = 3,
    # so the starts leave the disk G < 0.1 upward; at h = 0.5, by 0.607 a
    # step, none does
    upward = "a trajectory exited the sublevel set upward"
    certs = {h0: basin_certify(gradient_only().system, [0.0, 0.0], 0.1,
                               SamplerConfig(cells_per_axis=16), n_trajectories=3,
                               horizon=6.0,
                               integrator=IntegratorConfig(method=Method.RK4_FIXED, h0=h0))
             for h0 in (3.0, 0.5)}
    assert certs[3.0].reasons == ["trajectories failed to converge to the target", upward]
    assert certs[3.0].max_trajectory_g > 0.2
    assert upward not in certs[0.5].reasons
    assert certs[0.5].max_trajectory_g < 0.1


def test_basin_certificate_verdict_stable_under_density(rigid):
    verdicts = []
    for cells in (32, 64):
        cert = basin_certify(rigid.system, MAJOR, 0.2, stability=AS,
                             sampler=SamplerConfig(cells_per_axis=cells),
                             n_trajectories=8, traj_seed=3)
        verdicts.append(cert.passed)
    assert verdicts == [True, True]


def test_vacuous_certificate_at_equal_level(rigid):
    g_e = rigid.system.dissipated(MAJOR)
    cert = basin_certify(rigid.system, MAJOR, g_e, stability=AS)
    assert cert.passed
    assert cert.component_size == 1
    assert cert.trajectories_total == cert.trajectories_converged == 1
    # the supporting witness at the target survives the equality edge case
    assert cert.witnesses.size > 0
    assert np.max(_norms(cert.witnesses - MAJOR)) <= 1e-9
    assert cert.far_witnesses.size == 0


def test_unstable_target_is_rejected(rigid):
    with pytest.raises(NotAsymptoticallyStable):
        basin_certify(rigid.system, np.array([0.0, 1.0, 0.0]), 0.3)


def test_level_below_target_value_is_rejected(rigid):
    with pytest.raises(AnchorOutsideLevel):
        basin_certify(rigid.system, MAJOR, 0.1, stability=AS)


# ---------------------------------------------------------------------------
# periodic-orbit certificates
# ---------------------------------------------------------------------------

ORBIT_EXTRA_KEYS = {
    "seed", "period", "orbitInInvariantSet", "maxDetFull", "maxGradGNorm",
    "coverageGap", "covered",
}


@pytest.fixture(scope="module")
def orbit_pass_cert(mexhat):
    return periodic_orbit_certify(
        mexhat.system, np.array([1.05, 0.0, 0.02]), 0.2,
        sampler=SamplerConfig(cells_per_axis=48),
        n_phases=60, n_trajectories=8, traj_seed=2)


def test_orbit_certificate_passes_at_02(orbit_pass_cert):
    cert = orbit_pass_cert
    assert cert.passed
    assert cert.reasons == []
    assert cert.verdict == "conditional-pass"
    assert abs(cert.period - 2.0 * np.pi) <= 1e-6
    # the refined seed sits on the unit circle at the seed's height
    assert abs(np.hypot(cert.seed_state[0], cert.seed_state[1]) - 1.0) <= 1e-8
    assert abs(cert.seed_state[2] - 0.02) <= 1e-9
    assert cert.orbit_in_invariant_set
    assert cert.max_det_full <= 1e-12
    assert cert.max_grad_g <= 1e-8
    assert cert.covered
    assert cert.coverage_gap <= 2.0 * cert.spacing
    assert cert.far_witnesses.size == 0
    # the gap is the largest over the phases of each one's distance to its
    # nearest near witness, here any witness
    assert cert.coverage_gap == max(np.min(np.linalg.norm(cert.witnesses - p, axis=1))
                                    for p in cert.phase_states)
    assert cert.trajectories_converged == cert.trajectories_total
    assert cert.max_trajectory_g <= 0.2 + 1e-6


def test_orbit_certificate_report_shape(orbit_pass_cert):
    report = orbit_pass_cert.as_report()
    assert set(report) == (BASIN_REPORT_KEYS - {"target", "stability"}) | ORBIT_EXTRA_KEYS
    json.dumps(report)


def test_orbit_certificate_fails_at_03(mexhat):
    cert = periodic_orbit_certify(
        mexhat.system, np.array([1.05, 0.0, 0.02]), 0.3,
        sampler=SamplerConfig(cells_per_axis=40),
        n_phases=40, n_trajectories=6, traj_seed=2)
    assert not cert.passed
    assert cert.verdict == "fail"
    # the vertical axis (value 1/4 < 0.3) obstructs: a witness shows up at
    # radius ~0 far from the orbit
    assert cert.far_witnesses.size > 0
    r = _norms(cert.far_witnesses[:, :2])
    assert np.min(r) <= 1e-6
    assert cert.reasons == [
        "component reaches the sampling box boundary, containment unverified",
        "degeneracy-set witnesses found away from the orbit",
    ]


def test_orbit_certificate_reasons_come_in_a_fixed_order(mexhat):
    # a loose integrator puts the orbit samples off the circle: the phases
    # leave the degeneracy set and the witnesses on the circle count as far;
    # two refinements cannot cover the orbit
    cert = periodic_orbit_certify(
        mexhat.system, np.array([1.05, 0.0, 0.02]), 0.2,
        sampler=SamplerConfig(cells_per_axis=24, halfwidth=2.0),
        integrator=IntegratorConfig(method=Method.RK45_ADAPTIVE, rel_tol=1e-6, abs_tol=1e-8),
        recur_tol=1e-4,
        max_refine=2, n_phases=40, n_trajectories=2, traj_seed=2, horizon=8.0)
    assert not cert.orbit_in_invariant_set
    assert not cert.covered
    assert cert.reasons == [
        "orbit phases leave the degeneracy set at tight tolerance",
        "component reaches the sampling box boundary, containment unverified",
        "degeneracy-set witnesses found away from the orbit",
        "witnesses do not cover the orbit",
    ]


def test_orbit_certificate_without_a_near_witness_has_no_coverage_gap(mexhat, monkeypatch):
    # with no near witness no phase has a nearest one: the gap does not
    # exist (inf, reported as null), and the orbit is not covered
    monkeypatch.setattr(basin_mod, "scan_invariant_witnesses",
                        lambda system, component, max_refine: np.zeros((0, 3)))
    cert = periodic_orbit_certify(mexhat.system, np.array([1.05, 0.0, 0.02]), 0.2,
                                  sampler=SamplerConfig(cells_per_axis=12, halfwidth=2.8),
                                  n_trajectories=2, horizon=8.0)
    assert cert.coverage_gap == np.inf
    assert cert.as_report()["coverageGap"] is None
    assert not cert.covered
    assert "witnesses do not cover the orbit" in cert.reasons


def test_orbit_certify_rejects_dissipative_seed(mexhat):
    # far off the circle, the corrected flow strictly dissipates: the seed
    # neither refines onto the degeneracy set nor recurs
    with pytest.raises(NotPeriodic):
        periodic_orbit_certify(mexhat.system, np.array([2.0, 0.0, 0.0]), 0.2,
                               sampler=SamplerConfig(cells_per_axis=32))


def test_orbit_certify_rejects_coarsely_recurrent_seed(mexhat):
    # returns near the seed after one loop but misses by ~0.3, far beyond
    # the recurrence tolerance
    with pytest.raises(NotPeriodic):
        periodic_orbit_certify(mexhat.system, np.array([1.3, 0.0, 0.0]), 0.2,
                               sampler=SamplerConfig(cells_per_axis=32))


# ---------------------------------------------------------------------------
# threshold search
# ---------------------------------------------------------------------------


def test_threshold_search_recovers_quarter(rigid):
    level, history = threshold_search(
        rigid.system, MAJOR, 0.4, steps=6,
        sampler=SamplerConfig(cells_per_axis=40),
        stability=AS, n_trajectories=6, traj_seed=3)
    assert abs(level - 0.25) <= 0.02
    # bisection bookkeeping: the top level is probed first and fails, the
    # returned level is the largest probed level that certified, and every
    # certified level is below every failed one
    assert history[0] == (0.4, False)
    passed = [l for l, ok in history if ok]
    failed = [l for l, ok in history if not ok]
    assert level == max(passed)
    assert max(passed) < min(failed)


def test_threshold_search_returns_level_max_when_it_passes(rigid):
    level, history = threshold_search(
        rigid.system, MAJOR, 0.2, steps=4,
        sampler=SamplerConfig(cells_per_axis=40),
        stability=AS, n_trajectories=6, traj_seed=3)
    assert level == 0.2
    assert history == [(0.2, True)]


def test_threshold_search_rejects_level_below_equilibrium_value(rigid):
    with pytest.raises(NoValidLevel):
        threshold_search(rigid.system, MAJOR, 0.16, stability=AS)


def test_threshold_search_when_nothing_certifies(rigid):
    # a hopeless horizon makes every probe fail: after the bisection budget
    # the search reports that no level certified
    with pytest.raises(NoValidLevel):
        threshold_search(
            rigid.system, MAJOR, 0.2, steps=2,
            sampler=SamplerConfig(cells_per_axis=32),
            stability=AS, n_trajectories=4, traj_seed=3,
            horizon=1e-3, converge_tol=1e-14)


def _sphere_weights_4d():
    """The 4-D sphere/weights system: F = |x|^2 / 2, G = sum a_i x_i^2 with
    a = (0.5, 1, 1.5, 2) and no conservative part. On the unit sphere the
    minimum 0.5 sits at +-e1 and the first saddle 1.0 at +-e2."""
    weights = np.array([0.5, 1.0, 1.5, 2.0])
    F = ScalarField(4, lambda x: 0.5 * float(x @ x),
                    differential=lambda x: np.array(x, dtype=float), label="f1")
    G = ScalarField(4, lambda x: float(weights @ (x * x)),
                    differential=lambda x: 2.0 * weights * x, label="g")
    return DissipativeSystem(X=VectorField(4, lambda x: np.zeros(4), label="zero"),
                             conserved=(F,), dissipated=G,
                             metric=MetricField.euclidean(4))


@pytest.mark.parametrize("case", ["rigid_grid", "sphere4_sampled"])
def test_threshold_search_verdicts_match_fresh_certificates(rigid, case, monkeypatch):
    # the search reuses one leaf table and its cached refinements, and skips
    # ensembles at levels that fail geometrically; every verdict must still
    # be basin_certify's, and it must refine exactly what the fresh
    # certificates refine (point and trust radius), each once
    if case == "rigid_grid":
        system, target, level_max = rigid.system, MAJOR, 0.4
        sampler = SamplerConfig(cells_per_axis=16)
        steps = 4
    else:
        system, target, level_max = _sphere_weights_4d(), np.eye(4)[0], 1.3
        sampler = SamplerConfig(n_samples=512, halfwidth=1.5, seed=2)
        steps = 3
    refined = []
    refine_rows = basin_mod._refine_rows

    def recording_refine_rows(system, starts, leaf_value, trust_radii):
        radii = np.broadcast_to(trust_radii, (len(starts),))
        refined.extend((tuple(x), float(t)) for x, t in zip(starts, radii))
        return refine_rows(system, starts, leaf_value, trust_radii)

    monkeypatch.setattr(basin_mod, "_refine_rows", recording_refine_rows)
    kwargs = {"stability": AS, "n_trajectories": 3, "traj_seed": 3}
    _, history = threshold_search(system, target, level_max, steps=steps,
                                  sampler=sampler, **kwargs)
    assert {ok for _, ok in history} == {True, False}
    search_refined = list(refined)
    refined.clear()
    for level, ok in history:
        assert basin_certify(system, target, level, sampler, **kwargs).passed == ok, level
    assert search_refined and refined
    assert len(set(search_refined)) == len(search_refined)
    assert set(search_refined) == set(refined)


def test_threshold_search_projects_once_and_integrates_only_where_geometry_passes(
        rigid, monkeypatch):
    projected, starts, calls = [], [], []
    project, integrate = basin_mod._project_rows, basin_mod.integrate_ensemble

    def counting_project(system, pts, *args, **kwargs):
        calls.append(len(pts))
        projected.extend(map(tuple, pts))
        return project(system, pts, *args, **kwargs)

    def counting_integrate(system, x0s, *args, **kwargs):
        starts.extend(map(tuple, x0s))
        return integrate(system, x0s, *args, **kwargs)

    monkeypatch.setattr(basin_mod, "_project_rows", counting_project)
    monkeypatch.setattr(basin_mod, "integrate_ensemble", counting_integrate)
    cells = 16
    sampler = SamplerConfig(cells_per_axis=cells)
    kwargs = {"stability": AS, "n_trajectories": 3, "traj_seed": 3}
    _, history = threshold_search(rigid.system, MAJOR, 0.4, steps=4,
                                  sampler=sampler, **kwargs)
    # the leaf table's one projection, then the trap's: its leaf points at
    # radius converge_tol along the two chart axes of either sign and the
    # seeded directions
    assert calls[1:] == [4 + basin_mod._TRAP_SAMPLES]
    projected = projected[:calls[0]]
    n_projected, n_integrated = len(projected), len(starts)
    assert 0 < n_projected <= cells ** 3
    assert len(set(projected)) == n_projected

    # trajectories run exactly at the levels with no geometric failure
    expected = 0
    geometric_failures = 0
    for level, _ in history:
        cert = basin_certify(rigid.system, MAJOR, level, sampler, **kwargs)
        if (cert.touches_boundary or cert.far_witnesses.size
                or cert.witnesses.size == 0):
            geometric_failures += 1
        else:
            expected += cert.trajectories_total
    assert geometric_failures > 0
    assert n_integrated == expected


def _record_search(monkeypatch):
    """Record what a threshold search judges: every level's geometry, as the
    plan judges it; every ensemble verdict, as the committed walk reads it;
    and the starts of every ensemble call."""
    seen = SimpleNamespace(geometry=[], evidence=[], calls=[])
    judge, read, integrate = (basin_mod._judge_geometry, basin_mod._ensemble_evidence,
                              basin_mod.integrate_ensemble)

    def recording_judge(system, component, *args):
        judged = judge(system, component, *args)
        seen.geometry.append((component.level, judged.reasons))
        return judged

    def recording_read(draw, *args):
        evidence = read(draw, *args)
        seen.evidence.append((draw.level, evidence))
        return evidence

    def recording_integrate(system, starts, *args, **kwargs):
        seen.calls.append(np.array(starts))
        return integrate(system, starts, *args, **kwargs)

    monkeypatch.setattr(basin_mod, "_judge_geometry", recording_judge)
    monkeypatch.setattr(basin_mod, "_ensemble_evidence", recording_read)
    monkeypatch.setattr(basin_mod, "integrate_ensemble", recording_integrate)
    return seen


def test_threshold_search_reasons_at_each_level(rigid, monkeypatch):
    # levels that fail geometrically skip the ensemble; a level that passes
    # geometry can still fail on it, which drops the rest of the plan
    seen = _record_search(monkeypatch)
    level, history = threshold_search(
        rigid.system, MAJOR, 0.4, steps=3, sampler=SamplerConfig(cells_per_axis=16),
        stability=AS, n_trajectories=3, traj_seed=3, horizon=20.0, converge_tol=6e-4)
    geometry = ["component reaches the sampling box boundary, containment unverified",
                "degeneracy-set witnesses found away from the target"]
    # the committed judgements, in order: each history level's geometry, and
    # its ensemble's verdict where its geometry passed
    planned = dict(seen.geometry)
    ensembles = {lvl: evidence.reasons for lvl, evidence in seen.evidence}
    judged = [(lvl, planned[lvl], ensembles.get(lvl)) for lvl, _ in history]
    assert judged == [
        (history[0][0], geometry, None),
        (history[1][0], geometry, None),
        (history[2][0], [], ["trajectories failed to converge to the target"]),
        (history[3][0], [], []),
    ]
    assert [lvl for lvl, _ in seen.evidence] == [lvl for lvl, _ in history[2:]]
    assert [ok for _, ok in history] == [False, False, False, True]
    assert level == history[3][0]
    # the plan guessed that the third level passes and judged the midpoint
    # above it, which failed geometrically; that judgement was dropped, and
    # the search went on below the third level one level at a time
    dropped = [(lvl, reasons) for lvl, reasons in seen.geometry
               if lvl not in dict(history)]
    assert dropped == [(0.5 * (history[1][0] + history[2][0]), geometry)]
    assert [lvl for lvl, _ in seen.geometry] == [
        history[0][0], history[1][0], history[2][0], dropped[0][0], history[3][0]]
    assert [len(starts) for starts in seen.calls] == [3, 3]


def _frozen_sequential_search(system, equilibrium, level_max, steps, sampler,
                              **certify_kwargs):
    """The threshold search before it speculated, verbatim but for what it
    returns, for the ensembles' default integrator, which mirrors
    ``basin._ensemble_setup``'s, and for the target, whose distance to a
    point it takes on its own, one point at a time, with
    ``basin._TARGET_RADIUS``: ``(level, history, evidence)``, with level
    None where it raised NoValidLevel, and each history level's ensemble
    evidence (None where geometry failed it). One integrate_ensemble call per level whose
    geometry passes, one level after another."""
    x_e = np.asarray(equilibrium, dtype=float)
    g_e = float(system.dissipated(x_e))
    call = inspect.signature(basin_certify).bind(
        system, x_e, level_max, sampler, **certify_kwargs)
    call.apply_defaults()
    opts = call.arguments
    table = basin_mod._LeafTable(system, x_e, system.leaf_value(x_e),
                                 sampler or SamplerConfig())

    def distance(p):
        return float(np.linalg.norm(p - x_e))

    history, evidence = [], []

    def ensemble_evidence(component):
        members, level = component.members, component.level
        rng = np.random.default_rng(opts["traj_seed"])
        if len(members) > opts["n_trajectories"]:
            starts = members[rng.choice(len(members), opts["n_trajectories"], replace=False)]
        else:
            starts = members
        t_end = opts["horizon"]
        if t_end is None:
            t_end = basin_mod._auto_horizon(
                system, starts, lambda pts: np.array([distance(p) for p in pts]))
        bound = (float(np.linalg.norm(x_e))
                 + 10.0 * basin_mod._halfwidth(component.anchor, opts["sampler"]))
        base = opts["integrator"] or IntegratorConfig(method=Method.DOP853, rel_tol=1e-8,
                                                      abs_tol=1e-10)
        run = integrate_ensemble(system, starts, dataclasses.replace(base, t_end=t_end),
                                 bound=bound)
        converged = 0
        failures = []
        g_max = -np.inf
        for x0, error, g, final in zip(starts, run.failures, run.g_max.tolist(), run.final):
            if error is not None:
                failures.append({"start": x0.tolist(), "finalDistance": None,
                                 "error": error})
                continue
            g_max = max(g_max, g)
            d = distance(final)
            if d <= opts["converge_tol"]:
                converged += 1
            else:
                failures.append({"start": x0.tolist(), "final": final.tolist(),
                                 "finalDistance": d, "error": None})
        reasons = []
        if converged < len(starts):
            reasons.append("trajectories failed to converge to the target")
        if g_max > level + 10.0 * base.local_tol(abs(level)):
            reasons.append("a trajectory exited the sublevel set upward")
        return basin_mod._EnsembleEvidence(starts=starts, horizon=t_end, converged=converged,
                                           failures=failures, g_max=float(g_max),
                                           reasons=reasons)

    def passes(level):
        if not g_e <= level:
            return False
        component, rows = table.select(level)
        witnesses = table.witnesses(component, rows, opts)
        dists = np.array([distance(w) for w in witnesses])
        far = witnesses[dists > basin_mod._TARGET_RADIUS]
        reasons = []
        if component.method == "sampled" and len(component.members) < system.dim + 1:
            reasons.append("component holds too few samples, containment unverified")
        if component.touches_boundary:
            reasons.append("component reaches the sampling box boundary, "
                           "containment unverified")
        if witnesses.size == 0:
            reasons.append("degeneracy-set scan found no witness at the target")
        if far.size:
            reasons.append("degeneracy-set witnesses found away from the target")
        ensemble = None if reasons else ensemble_evidence(component)
        ok = not reasons and not ensemble.reasons
        history.append((level, ok))
        evidence.append(ensemble)
        return ok

    if passes(level_max):
        return level_max, history, evidence
    lo, hi = g_e, level_max
    lo_passed = False
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if passes(mid):
            lo, lo_passed = mid, True
        else:
            hi = mid
    return (lo if lo_passed else None), history, evidence


_SEARCH_CASES = {
    # test_threshold_search_verdicts_match_fresh_certificates
    "rigid_grid": ("rigid", MAJOR, 0.4, 4, SamplerConfig(cells_per_axis=16),
                   {"n_trajectories": 3, "traj_seed": 3}),
    "sphere4_sampled": ("sphere4", np.eye(4)[0], 1.3, 3,
                        SamplerConfig(n_samples=512, halfwidth=1.5, seed=2),
                        {"n_trajectories": 3, "traj_seed": 3}),
    # test_threshold_search_reasons_at_each_level, and with more steps, so
    # that the dropped tail holds levels whose geometry passed
    "ensemble_failure": ("rigid", MAJOR, 0.4, 3, SamplerConfig(cells_per_axis=16),
                         {"n_trajectories": 3, "traj_seed": 3, "horizon": 20.0,
                          "converge_tol": 6e-4}),
    "ensemble_failure_5": ("rigid", MAJOR, 0.4, 5, SamplerConfig(cells_per_axis=16),
                           {"n_trajectories": 3, "traj_seed": 3, "horizon": 20.0,
                            "converge_tol": 6e-4}),
    # test_threshold_search_when_nothing_certifies
    "nothing_certifies": ("rigid", MAJOR, 0.2, 2, SamplerConfig(cells_per_axis=32),
                          {"n_trajectories": 4, "traj_seed": 3, "horizon": 1e-3,
                           "converge_tol": 1e-14}),
    # test_threshold_search_returns_level_max_when_it_passes
    "level_max_passes": ("rigid", MAJOR, 0.2, 4, SamplerConfig(cells_per_axis=40),
                         {"n_trajectories": 6, "traj_seed": 3}),
    # the automatic horizon differs from level to level
    "auto_horizons": ("rigid", MAJOR, 0.4, 5, SamplerConfig(cells_per_axis=14),
                      {"n_trajectories": 4, "traj_seed": 5}),
}

# (ensemble calls, rows integrated and then discarded) of each case
_SPECULATION = {"rigid_grid": (1, 0), "sphere4_sampled": (1, 0),
                "ensemble_failure": (2, 0), "ensemble_failure_5": (4, 6),
                "nothing_certifies": (3, 0), "level_max_passes": (1, 0),
                "auto_horizons": (1, 0)}


def _same_evidence(a, b):
    return (a.starts.tobytes() == b.starts.tobytes() and a.horizon == b.horizon
            and a.converged == b.converged and a.failures == b.failures
            and a.g_max == b.g_max and a.reasons == b.reasons)


def _warned(run):
    """What ``run()`` returns or raises, and the warnings it emits, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = run()
        except NoValidLevel as exc:
            out = exc
    return out, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("case", sorted(_SEARCH_CASES))
def test_threshold_search_is_the_frozen_sequential_search(rigid, case, monkeypatch):
    # the plan, the one speculative run and the committed walk give the
    # sequential search's (level, history), ensemble evidence and warnings,
    # bitwise
    name, target, level_max, steps, sampler, kwargs = _SEARCH_CASES[case]
    system = rigid.system if name == "rigid" else _sphere_weights_4d()
    kwargs = {"stability": AS, **kwargs}
    (ref_level, ref_history, ref_evidence), ref_warned = _warned(
        lambda: _frozen_sequential_search(system, target, level_max, steps, sampler,
                                          **kwargs))
    seen = _record_search(monkeypatch)
    out, warned = _warned(lambda: threshold_search(
        system, target, level_max, steps=steps, sampler=sampler, **kwargs))
    assert warned == ref_warned
    if ref_level is None:
        assert isinstance(out, NoValidLevel)
        history = [(lvl, False) for lvl, _ in ref_history]
    else:
        level, history = out
        assert level == ref_level
        assert history == ref_history
    # every committed verdict, read in order, is the sequential one
    assert [lvl for lvl, _ in seen.evidence] == [
        lvl for (lvl, _), ev in zip(ref_history, ref_evidence) if ev is not None]
    for (_, evidence), ref in zip(seen.evidence, [ev for ev in ref_evidence if ev]):
        assert _same_evidence(evidence, ref)
    # the plan judged every history level, and in one call integrated every
    # start of a level whose geometry passed, up to the first failed ensemble
    assert {lvl for lvl, _ in ref_history} <= {lvl for lvl, _ in seen.geometry}
    used = sum(len(ev.starts) for ev in ref_evidence if ev is not None)
    integrated = sum(len(starts) for starts in seen.calls)
    assert (len(seen.calls), integrated - used) == _SPECULATION[case]


# Acceptance 08's threshold search (48 cells per axis, 8 steps, 12
# trajectories, seed 3) as its RK45 ensembles decided it
_ACCEPTANCE_08 = (0.24960937499999997, [
    (0.4, False), (0.2833333333333333, False), (0.22499999999999998, True),
    (0.25416666666666665, False), (0.23958333333333331, True), (0.24687499999999998, True),
    (0.2505208333333333, False), (0.24869791666666663, True), (0.24960937499999997, True)])


@pytest.mark.parametrize("integrator", [
    None, IntegratorConfig(method=Method.RK45_ADAPTIVE, rel_tol=1e-8, abs_tol=1e-10)])
def test_acceptance_08_search_is_the_rk45_one(rigid, integrator):
    # the default dop853 ensembles, and an explicit RK45 config, decide
    # every level as the RK45 ensembles did
    out = threshold_search(rigid.system, MAJOR, 0.4, steps=8,
                           sampler=SamplerConfig(cells_per_axis=48), stability=AS,
                           n_trajectories=12, traj_seed=3, integrator=integrator)
    assert out == _ACCEPTANCE_08


def test_explicit_integrator_config_runs_as_given(rigid):
    # an explicit RK45 integrator config runs as it is given: every
    # trajectory of the certificate is its solo RK45 run
    cfg = IntegratorConfig(method=Method.RK45_ADAPTIVE, rel_tol=1e-8, abs_tol=1e-10)
    cert = basin_certify(rigid.system, MAJOR, 0.3, n_trajectories=50, stability=AS,
                         integrator=cfg)
    report = cert.as_report()
    assert (report["verdict"], report["componentSize"], report["trajectoriesConverged"],
            len(report["failedStarts"])) == ("fail", 3944, 27, 23)
    rng = np.random.default_rng(7)  # basin_certify's traj_seed
    starts = cert.members[rng.choice(len(cert.members), 50, replace=False)]
    failed, g_max = [], -np.inf
    for x0 in starts:
        tr = integrate(rigid.system, x0, dataclasses.replace(cfg, t_end=report["horizon"]))
        g_max = max(g_max, float(np.max(tr.dissipated_values)))
        d = float(np.linalg.norm(tr.final_state - MAJOR))
        if d > 1e-4:
            failed.append({"start": x0.tolist(), "final": tr.final_state.tolist(),
                           "finalDistance": d, "error": None})
    assert report["failedStarts"] == failed
    assert report["maxTrajectoryG"] == g_max


_RK45 = IntegratorConfig(method=Method.RK45_ADAPTIVE, rel_tol=1e-8, abs_tol=1e-10)


def _leaf_descent_poly(seed):
    """``random_poly(3, 1, seed)``'s fields and metric with X = 0: the
    corrected flow descends its cubic G on each leaf of its cubic F."""
    rp = random_poly(3, 1, seed).system
    return DissipativeSystem(X=VectorField(3, lambda x: np.zeros(x.shape), stacked=True),
                             conserved=rp.conserved, dissipated=rp.dissipated,
                             metric=rp.metric)


def _assert_trap_rows_are_solo_runs(system, run, starts, horizon, config, trap, bound=None,
                                    distance=None):
    """Each row of an ensemble run with ``stop=trap`` against its solo run:
    a row ends at the first step whose state lies in the trap, with the
    counters, state and max of G of the solo run at that step, and the solo
    run stays within the trap's radius of the target, by the target's
    ``distance`` (by default the distance to the trap's one state), from
    there to the horizon; a row that never enters it is its solo run.
    Returns the count of stopped rows."""
    if distance is None:
        def distance(x):
            return np.linalg.norm(x - trap.states[0])
    stopped = 0
    solo = dataclasses.replace(config, t_end=horizon)
    for i, x0 in enumerate(starts):
        steps = list(basin_mod._lockstep(system, x0, solo, bound=bound))
        inside = [bool(trap(step.x_new[None])[0]) for step in steps]
        last = inside.index(True) if any(inside) else len(steps) - 1
        if any(inside):
            stopped += 1
            dists = [distance(step.x_new) for step in steps[last:]]
            assert max(dists) < trap.radius
        end = steps[last]
        assert (run.n_accepted[i], run.n_rejected[i]) == (end.accepted, end.rejected)
        assert run.failures[i] is None
        assert run.final[i].tobytes() == end.x_new.tobytes()
        states = np.array([x0] + [step.x_new for step in steps[:last + 1]])
        assert run.g_max[i] == np.max(system.dissipated.values(states))
    return stopped


_TRAP_CERTIFICATES = {
    # acceptance 08's certificates at 0.2 and 0.3, at either end of the
    # major axis, and the sampled 4-D sphere/weights certificate at e1:
    # (system, target, sampler, trajectories, {level: rows stopped})
    "rigid+e1": ("rigid", MAJOR, None, 50, {0.2: 50, 0.3: 27}),
    "rigid-e1": ("rigid", -MAJOR, None, 50, {0.2: 50, 0.3: 22}),
    "sphere4": ("sphere4", np.eye(4)[0], SamplerConfig(n_samples=1024, halfwidth=1.5, seed=7),
                8, {0.95: 8}),
}


@pytest.mark.parametrize("config", [None, _RK45], ids=["dop853", "rk45"])
@pytest.mark.parametrize("case", sorted(_TRAP_CERTIFICATES))
def test_trap_stops_certificate_rows_for_good(rigid, case, config):
    # every row the trap stops stays within converge_tol of the target to
    # its horizon, every row is its solo run up to its stop, and the rows
    # that stop are the ones that converge
    name, x_e, sampler, n_traj, expected = _TRAP_CERTIFICATES[case]
    system = rigid.system if name == "rigid" else _sphere_weights_4d()
    opts = dict(sampler=sampler, n_trajectories=n_traj, traj_seed=7, horizon=None,
                converge_tol=1e-4, integrator=config)
    target = basin_mod._equilibrium(x_e)
    cfg, bound, trap = basin_mod._ensemble_setup(system, target, x_e, opts)
    stopped = {}
    for level in expected:
        component = sublevel_component(system, x_e, level, sampler)
        draw = basin_mod._draw_ensemble(system, component, target, opts, cfg)
        run = basin_mod._run_draws(system, [draw], cfg, bound, trap)
        stopped[level] = _assert_trap_rows_are_solo_runs(
            system, run, draw.starts, draw.horizon, cfg, trap, bound)
    assert stopped == expected


@pytest.mark.parametrize("config", [None, _RK45], ids=["dop853", "rk45"])
def test_trap_stops_random_poly_rows_for_good(config):
    # the asymptotically stable roots find_equilibria finds on three leaf
    # descents of random cubics, from leaf points 0.01 to 0.1 away
    cfg = config or IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10)
    stopped = rows = 0
    for seed in (0, 1, 10):
        system = _leaf_descent_poly(seed)
        roots = [r.location for r in find_equilibria(
            system, np.random.default_rng(seed).uniform(-1, 1, (12, 3)))[0]
            if stability_classify(system, r.location) is AS]
        assert roots
        for x_e in roots:
            trap = basin_mod._trap(system, basin_mod._equilibrium(x_e), 1e-4, cfg)
            assert trap is not None
            basis = leaf_tangent_basis(system, x_e)
            offsets = np.array([[0.01, 0.0], [0.0, -0.03], [-0.05, 0.05], [0.1, 0.02]])
            starts = np.array([project_to_leaf(system, x_e + off @ basis,
                                               system.leaf_value(x_e))
                               for off in offsets])
            horizon = basin_mod._auto_horizon(
                system, starts, lambda pts: np.array([np.linalg.norm(p - x_e) for p in pts]))
            run = integrate_ensemble(system, starts, dataclasses.replace(cfg, t_end=horizon),
                                     stop=trap)
            stopped += _assert_trap_rows_are_solo_runs(system, run, starts, horizon, cfg, trap)
            rows += len(starts)
    assert stopped == rows


@pytest.mark.parametrize("config", [None, _RK45], ids=["dop853", "rk45"])
def test_trap_stops_a_row_at_its_first_step(rigid, config):
    # starts already inside the trap, at a quarter of its radius along each
    # chart axis, stop at their first accepted step; a start outside it, at
    # 0.02 along the first axis, runs on into it
    cfg = config or IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10)
    r = 1e-4
    trap = basin_mod._trap(rigid.system, basin_mod._equilibrium(MAJOR), r, cfg)
    basis = leaf_tangent_basis(rigid.system, MAJOR)
    leaf = rigid.system.leaf_value(MAJOR)
    starts = np.array([project_to_leaf(rigid.system, MAJOR + off, leaf)
                       for off in (0.25 * r * basis[0], 0.25 * r * basis[1], 0.02 * basis[0])])
    assert trap(starts).tolist() == [True, True, False]
    horizon = 50.0
    run = integrate_ensemble(rigid.system, starts, dataclasses.replace(cfg, t_end=horizon),
                             stop=trap)
    assert run.n_accepted[:2].tolist() == [1, 1]
    assert run.n_accepted[2] > 1
    assert _assert_trap_rows_are_solo_runs(rigid.system, run, starts, horizon, cfg, trap) == 3


def test_trap_values_are_the_closed_forms(rigid):
    # L = G - mu (F - F(x_e)) has the leaf Hessian diag(1/i2 - 1/i1,
    # 1/i3 - 1/i1) at the rigid body's major axis, and diag(1, 2, 3) at e1
    # of the sphere/weights system, whose L is x2^2 / 2 + x3^2 + 3 x4^2 / 2
    cfg = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10)
    r = 1e-4
    for system, x_e, lam, lam_max in ((rigid.system, MAJOR, 1 / 6, 2 / 3),
                                      (rigid.system, -MAJOR, 1 / 6, 2 / 3),
                                      (_sphere_weights_4d(), np.eye(4)[0], 1.0, 3.0)):
        trap = basin_mod._trap(system, basin_mod._equilibrium(x_e), r, cfg)
        assert trap.lam == pytest.approx(lam, rel=1e-7)
        assert trap.lam_max == pytest.approx(lam_max, rel=1e-7)
        # half of lam r^2 / 2, which the leaf samples at radius r agree with
        assert trap.delta == pytest.approx(lam * r ** 2 / 4, rel=1e-6)
        assert trap.delta > 100 * r * lam_max * cfg.local_tol(1.0)
        # lam d^2 / 2 <= L - L(x_e) <= lam_max d^2 / 2 at a leaf point d
        # away: inside at r / 4 along each chart axis (lam_max < 8 lam);
        # outside at 0.9 r, where L has risen past delta, and at 2 r
        basis = leaf_tangent_basis(system, x_e)
        leaf = system.leaf_value(x_e)
        for scale, expected in ((0.25, True), (0.9, False), (2.0, False)):
            pts = [project_to_leaf(system, x_e + scale * r * b, leaf) for b in basis]
            assert trap(np.array(pts)).tolist() == [expected] * len(basis)


@pytest.mark.parametrize("case", ["rigid_major", "rigid_minus_major", "sphere4",
                                  "sombrero_circle", "sombrero_certificate"])
def test_trap_multipliers_are_the_per_state_lstsq(rigid, mexhat, monkeypatch, case):
    # all states' multipliers come from one stacked solve, each bitwise the
    # np.linalg.lstsq of dF^T mu = dG at its own state: an equilibrium's
    # one, and the sombrero orbit's 100 phases
    solved = []
    stacked = basin_mod._lstsq_rows

    def recording(a, b):
        solved.append(stacked(a, b))
        return solved[-1]

    monkeypatch.setattr(basin_mod, "_lstsq_rows", recording)
    cfg = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10)
    if case == "sombrero_certificate":
        system = mexhat.system
        states = periodic_orbit_certify(system, _CI_ORBIT[0], 0.2, _CI_ORBIT[1],
                                        n_trajectories=2, traj_seed=7).phase_states
    elif case == "sombrero_circle":
        system = mexhat.system
        states = _circle_trap(system, cfg)[0].states
    else:
        system, x_e = {"rigid_major": (rigid.system, MAJOR),
                       "rigid_minus_major": (rigid.system, -MAJOR),
                       "sphere4": (_sphere_weights_4d(), np.eye(4)[0])}[case]
        assert basin_mod._trap(system, basin_mod._equilibrium(x_e), 1e-4, cfg) is not None
        states = x_e[None]
    (mu,) = solved
    assert len(mu) == len(states) == (100 if case.startswith("sombrero") else 1)
    jac = np.stack([f.diffs(states) for f in system.conserved], axis=1)
    dg = system.dissipated.diffs(states)
    for j in range(len(states)):
        want = np.linalg.lstsq(jac[j].T, dg[j], rcond=None)[0]
        assert mu[j].tobytes() == want.tobytes(), j


def test_no_trap_without_a_resolved_positive_curvature(rigid, mexhat):
    cfg = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10)
    # a quartic bowl G = |x|^4 on the plane: L's Hessian vanishes at 0, and
    # a central difference reads the quartic term as a curvature that
    # changes with the step
    quartic = DissipativeSystem(
        X=VectorField(2, lambda x: np.zeros(x.shape), stacked=True), conserved=(),
        dissipated=ScalarField(2, lambda x: np.sum(x * x, axis=-1) ** 2,
                               differential=lambda x: 4.0 * np.sum(x * x) * x),
        metric=MetricField.euclidean(2))
    origin = np.zeros(2)
    assert basin_mod._trap(quartic, basin_mod._equilibrium(origin), 1e-4, cfg) is None
    # the rigid body's middle axis is a saddle of G on the leaf
    middle = basin_mod._equilibrium(np.array([0.0, 1.0, 0.0]))
    assert basin_mod._trap(rigid.system, middle, 1e-4, cfg) is None
    # a fixed step has no tolerance that bounds its error
    assert basin_mod._trap(rigid.system, basin_mod._equilibrium(MAJOR), 1e-4,
                           IntegratorConfig(method=Method.RK4_FIXED)) is None
    # a target that carries no states has no trap
    orbit = basin_mod._Target("orbit", lambda pts: np.zeros(len(pts)), 1e-6, 1.0,
                              needs_witness=False)
    assert basin_mod._ensemble_setup(mexhat.system, orbit, np.array([1.0, 0.0, 0.0]),
                                     dict(integrator=None, sampler=None,
                                          converge_tol=1e-4))[2] is None
    # the quartic bowl's certificate ensemble is the run without a stop test
    opts = dict(sampler=SamplerConfig(cells_per_axis=16, halfwidth=0.5), n_trajectories=6,
                traj_seed=7, horizon=None, converge_tol=1e-4, integrator=None)
    target = basin_mod._equilibrium(origin)
    config, bound, trap = basin_mod._ensemble_setup(quartic, target, origin, opts)
    assert trap is None
    component = sublevel_component(quartic, origin, 0.01, opts["sampler"])
    draw = basin_mod._draw_ensemble(quartic, component, target, opts, config)
    run = basin_mod._run_draws(quartic, [draw], config, bound, trap)
    ref = integrate_ensemble(quartic, draw.starts, dataclasses.replace(config, t_end=draw.horizon),
                             bound=bound)
    for name in ("g_max", "final", "n_accepted", "n_rejected"):
        assert getattr(run, name).tobytes() == getattr(ref, name).tobytes()
    assert run.failures == ref.failures


def _circle_trap(system, config, r=1e-4, z=0.02, n_phases=100):
    """The trap at radius r about the unit circle at height z, from its
    n_phases phase states, and the distance to the circle read off 2048
    states, as an orbit certificate measures it."""
    def circle(count):
        angles = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
        return np.stack([np.cos(angles), np.sin(angles), np.full(count, z)], axis=1)

    dense = circle(2048)

    def distance(p):
        return distance_to_orbit(p, dense)

    return basin_mod._trap(system, basin_mod._orbit(dense, circle(n_phases)), r,
                           config), distance


def _on_circle_leaf(angle, rho, z=0.02):
    return np.array([rho * np.cos(angle), rho * np.sin(angle), z])


def test_orbit_trap_values_are_the_closed_forms(mexhat):
    # across the unit circle, at radius 1 + s on its leaf, L = G = s^2 (1 +
    # s/2)^2: the transverse Hessian is 2 at every phase, the flow direction
    # dropped, and the least G at radius r is r^2 (1 - r/2)^2, below lam r^2
    # / 2 = r^2
    cfg = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10)
    r = 1e-4
    trap, distance = _circle_trap(mexhat.system, cfg, r)
    assert trap.lam == pytest.approx(2.0, rel=1e-5)
    assert trap.lam_max == pytest.approx(2.0, rel=1e-5)
    assert trap.delta == pytest.approx(0.5 * r ** 2 * (1.0 - 0.5 * r) ** 2, rel=1e-5)
    reach = float(np.hypot(1.0, 0.02))
    assert trap.delta > 100 * r * trap.lam_max * cfg.local_tol(reach)
    # G ~ s^2 against delta ~ r^2 / 2: inside at r / 4 on either side, at a
    # phase and half-way between two; outside at 0.9 r and at 2 r
    half = np.pi / 100
    for scale, expected in ((0.25, True), (0.9, False), (2.0, False)):
        pts = np.array([_on_circle_leaf(angle, 1.0 + sign * scale * r)
                        for angle in (0.0, half, 1.0) for sign in (1.0, -1.0)])
        assert trap(pts).tolist() == [expected] * len(pts)
        assert all((distance(p) < r) == (scale < 1.0) for p in pts)
    # on the circles of nearby leaves L = G_j, since mu = 0: only the
    # distance keeps the one 2 r above the orbit out
    pts = np.array([_on_circle_leaf(1.0, 1.0, z=0.02 + dz) for dz in (0.25 * r, 2.0 * r)])
    assert trap(pts).tolist() == [True, False]


def test_trap_reads_the_cheaper_condition_first(rigid, mexhat):
    # an equilibrium's trap reads its distance on every row, then L on the
    # rows near it; an orbit's reads L first and its distance, a Newton
    # solve a row, only on the rows where L is low
    cfg = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10)
    r = 1e-4
    angles = np.linspace(0.0, 2.0 * np.pi, 100, endpoint=False)
    circle = np.stack([np.cos(angles), np.sin(angles), np.full(100, 0.02)], axis=1)
    leaf = rigid.system.leaf_value(MAJOR)
    basis = leaf_tangent_basis(rigid.system, MAJOR)
    cases = [(rigid.system, basin_mod._equilibrium(MAJOR),
              [project_to_leaf(rigid.system, MAJOR + s * basis[0], leaf)
               for s in (0.25 * r, -0.25 * r, 0.02, 0.5)], [4]),
             (mexhat.system, basin_mod._orbit(circle, circle),
              [_on_circle_leaf(a, rho) for a, rho in ((0.0, 1.0 + 0.25 * r),
                                                      (1.0, 1.0 - 0.25 * r),
                                                      (2.0, 1.02), (3.0, 0.5))], [2])]
    for system, target, pts, expected in cases:
        seen = []

        def counted(pts, target=target, seen=seen):
            seen.append(len(pts))
            return target.distances(pts)

        trap = basin_mod._trap(system, dataclasses.replace(target, distances=counted), r, cfg)
        assert trap(np.array(pts)).tolist() == [True, True, False, False]
        assert seen == expected


def test_no_orbit_trap_without_a_transverse_minimum(mexhat):
    cfg = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10)
    trap, _ = _circle_trap(mexhat.system, cfg)
    assert trap is not None
    # with G negated the circle is a transverse maximum of G on its leaf
    g = mexhat.system.dissipated
    negated = dataclasses.replace(mexhat.system, dissipated=ScalarField(
        3, lambda p: -g.value(p), differential=lambda p: -g.differential(p), stacked=True))
    assert _circle_trap(negated, cfg)[0] is None
    # a fixed step has no tolerance that bounds its error
    assert _circle_trap(mexhat.system, IntegratorConfig(method=Method.RK4_FIXED))[0] is None
    # a rotation of the plane whose leaves, the circles |x| = const, are its
    # orbits: no leaf direction is left once the flow's is dropped
    rotation = DissipativeSystem(
        X=VectorField(2, lambda p: np.array([-p[1], p[0]])),
        conserved=(ScalarField(2, lambda p: 0.5 * float(p @ p), differential=lambda p: p),),
        dissipated=ScalarField(2, lambda p: 0.25 * float(p @ p), differential=lambda p: 0.5 * p),
        metric=MetricField.euclidean(2))
    angles = np.linspace(0.0, 2.0 * np.pi, 100, endpoint=False)
    phases = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    assert basin_mod._trap(rotation, basin_mod._orbit(phases, phases), 1e-4, cfg) is None


def _orbit_certificate_runs(monkeypatch, system, seed_point, level, sampler, **kwargs):
    """An orbit certificate and what its ensemble ran on: the target, the
    draw, the config, bound and trap, and the run."""
    seen = {}
    setup, run_draws = basin_mod._ensemble_setup, basin_mod._run_draws

    def capture_setup(system, target, anchor, opts):
        seen["target"] = target
        return setup(system, target, anchor, opts)

    def capture_run(system, draws, config, bound, stop=None):
        run = run_draws(system, draws, config, bound, stop)
        seen.update(draws=draws, config=config, bound=bound, trap=stop, run=run)
        return run

    monkeypatch.setattr(basin_mod, "_ensemble_setup", capture_setup)
    monkeypatch.setattr(basin_mod, "_run_draws", capture_run)
    cert = periodic_orbit_certify(system, seed_point, level, sampler, **kwargs)
    return cert, SimpleNamespace(**seen)


def test_orbit_of_two_phases_has_no_trap(mexhat, monkeypatch):
    # each of two phases is the other's both neighbours, so no chord gives
    # the flow direction: the rows run to their horizons
    cert, seen = _orbit_certificate_runs(
        monkeypatch, mexhat.system, [1.05, 0.0, 0.02], 0.2,
        SamplerConfig(cells_per_axis=12, halfwidth=2.8), n_trajectories=2, n_phases=2)
    assert cert.passed
    assert seen.target.states is None and seen.trap is None


@pytest.mark.parametrize("traj_seed", [0, 5, 11])
def test_trap_stops_orbit_certificate_rows_for_good(mexhat, monkeypatch, traj_seed):
    # every row of the CI orbit config's ensemble, 6 of them, stops in the
    # tube about the orbit, is its solo run up to the stop, and its solo run
    # stays within converge_tol of the orbit to its horizon
    cert, seen = _orbit_certificate_runs(
        monkeypatch, mexhat.system, [1.05, 0.0, 0.02], 0.2,
        SamplerConfig(cells_per_axis=12, halfwidth=2.8), n_trajectories=6, traj_seed=traj_seed)
    assert cert.passed
    assert seen.trap is not None and seen.trap.radius == 1e-4
    assert seen.trap.states.tobytes() == cert.phase_states.tobytes()
    (draw,) = seen.draws
    assert _assert_trap_rows_are_solo_runs(
        mexhat.system, seen.run, draw.starts, draw.horizon, seen.config, seen.trap,
        seen.bound, lambda x: seen.target.distances(x[None])[0]) == len(draw.starts) == 6


@pytest.mark.parametrize("config", [None, _RK45], ids=["dop853", "rk45"])
def test_orbit_trap_stops_a_row_at_its_first_step(mexhat, config):
    # starts a quarter of the trap's radius off the circle, at a phase and
    # half-way between two, stop at their first accepted step; a start 0.02
    # off it runs on into the trap
    cfg = config or IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10)
    r = 1e-4
    trap, distance = _circle_trap(mexhat.system, cfg, r)
    starts = np.array([_on_circle_leaf(0.0, 1.0 + 0.25 * r),
                       _on_circle_leaf(np.pi / 100, 1.0 - 0.25 * r),
                       _on_circle_leaf(2.0, 1.02)])
    assert trap(starts).tolist() == [True, True, False]
    horizon = 20.0
    run = integrate_ensemble(mexhat.system, starts, dataclasses.replace(cfg, t_end=horizon),
                             stop=trap)
    assert run.n_accepted[:2].tolist() == [1, 1]
    assert run.n_accepted[2] > 1
    assert _assert_trap_rows_are_solo_runs(mexhat.system, run, starts, horizon, cfg, trap,
                                           distance=distance) == 3


def _assert_same_certificates(a, b):
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert (x.shape, x.tobytes()) == (y.shape, y.tobytes()), f.name
        else:
            assert x == y, f.name
    assert json.dumps(a.as_report()) == json.dumps(b.as_report())


# (seed point, sampler, keyword options) of the orbit certificates whose
# verdicts the trap must keep: the CI config at traj_seed 0 to 7, as the CLI
# runs it (traj_seed 7, 2 trajectories), and the benchmark's sombrero_orbit
# job at its seeds 101 and 9911
_CI_ORBIT = ([1.05, 0.0, 0.02], SamplerConfig(cells_per_axis=12, halfwidth=2.8))
_ORBIT_PARITY = {
    **{f"seed{seed}": (*_CI_ORBIT, dict(n_trajectories=8, traj_seed=seed))
       for seed in range(8)},
    "ci": (*_CI_ORBIT, dict(n_trajectories=2, traj_seed=7, proper_g_asserted=True)),
    "bench101": ([-0.905779434188891, -0.5065294403429229, 0.04652511070611112],
                 _CI_ORBIT[1], dict(n_trajectories=4, horizon=20.0, traj_seed=1540496234)),
    "bench9911": ([0.4485885811053346, -0.9558354680184732, 0.0318447780934423],
                  _CI_ORBIT[1], dict(n_trajectories=4, horizon=20.0, traj_seed=950454691)),
}


@pytest.mark.parametrize("case", list(_ORBIT_PARITY))
def test_orbit_trap_keeps_every_certificate_field(mexhat, monkeypatch, case):
    # the rows the trap stops are converged for good, and G only falls from
    # their starts, so the certificate is the one whose rows run to the
    # horizon, field for field and byte for byte
    seed_point, sampler, kwargs = _ORBIT_PARITY[case]
    cert, seen = _orbit_certificate_runs(monkeypatch, mexhat.system, seed_point, 0.2,
                                         sampler, **kwargs)
    assert seen.trap is not None
    monkeypatch.undo()
    monkeypatch.setattr(basin_mod, "_trap", lambda *args: None)
    ref, seen_ref = _orbit_certificate_runs(monkeypatch, mexhat.system, seed_point, 0.2,
                                            sampler, **kwargs)
    assert seen_ref.trap is None
    assert seen.run.n_accepted.sum() < seen_ref.run.n_accepted.sum()
    assert cert.passed and cert.trajectories_converged == cert.trajectories_total
    _assert_same_certificates(cert, ref)


def test_orbit_certificate_with_dop853_period_detection(mexhat):
    # without an integrator, period detection runs the default method,
    # dop853, and reads its seventh-order extension of the run's steps: the
    # return-time Newton and the orbit samples
    cert = periodic_orbit_certify(
        mexhat.system, [1.05, 0.0, 0.02], 0.2, SamplerConfig(cells_per_axis=12, halfwidth=2.8),
        n_trajectories=4)
    assert cert.passed and cert.orbit_in_invariant_set and cert.covered
    assert abs(cert.period - 2.0 * np.pi) <= 1e-9


def test_orbit_certificate_with_rk45_period_detection(mexhat):
    # period detection on Dormand-Prince 5(4)'s steps and its free
    # fourth-order extension, the method a config that names rk45 keeps
    cert = periodic_orbit_certify(
        mexhat.system, [1.05, 0.0, 0.02], 0.2, SamplerConfig(cells_per_axis=12, halfwidth=2.8),
        n_trajectories=4, integrator=IntegratorConfig(method=Method.RK45_ADAPTIVE,
                                                      rel_tol=1e-10, abs_tol=1e-12))
    assert cert.passed and cert.orbit_in_invariant_set and cert.covered
    assert abs(cert.period - 2.0 * np.pi) <= 1e-9


def test_threshold_search_redoes_a_speculative_run_that_raises(rigid, monkeypatch):
    # an error out of the one speculative call is raised only where the
    # sequential search meets it: here no single level's call raises, so the
    # search redoes the plan one level at a time and finds the same level
    integrate = basin_mod.integrate_ensemble
    calls = []

    def refusing_integrate(system, starts, *args, **kwargs):
        calls.append(len(starts))
        if len(set(kwargs["t_ends"])) > 1:
            raise RuntimeError("a row of a speculative level failed to run")
        return integrate(system, starts, *args, **kwargs)

    name, target, level_max, steps, sampler, kwargs = _SEARCH_CASES["auto_horizons"]
    kwargs = {"stability": AS, **kwargs}
    ref_level, ref_history, _ = _frozen_sequential_search(
        rigid.system, target, level_max, steps, sampler, **kwargs)
    monkeypatch.setattr(basin_mod, "integrate_ensemble", refusing_integrate)
    level, history = threshold_search(rigid.system, target, level_max, steps=steps,
                                      sampler=sampler, **kwargs)
    assert (level, history) == (ref_level, ref_history)
    assert calls[0] == sum(calls[1:]) > calls[1]


def test_threshold_search_rejects_unstable_target_before_any_work(rigid, monkeypatch):
    def no_projection(*args, **kwargs):
        raise AssertionError("the leaf table was built for an unstable target")

    monkeypatch.setattr(basin_mod, "_project_rows", no_projection)
    with pytest.raises(NotAsymptoticallyStable):
        threshold_search(rigid.system, np.array([0.0, 1.0, 0.0]), 0.4)


def test_fixed_cutoffs_are_not_keyword_options(rigid, mexhat):
    # the witness scan's cutoffs, an orbit's witness distance and coverage
    # factor, and the equilibrium search's dedup distance are constants;
    # the threshold search refuses them through its basin_certify binding
    calls = [
        (lambda **kw: threshold_search(rigid.system, MAJOR, 0.4, stability=AS, **kw),
         ("susp_ratio", "susp_g")),
        (lambda **kw: basin_certify(rigid.system, MAJOR, 0.2, stability=AS, **kw),
         ("susp_ratio", "susp_g")),
        (lambda **kw: scan_invariant_witnesses(rigid.system, None, **kw),
         ("susp_ratio", "susp_g")),
        (lambda **kw: periodic_orbit_certify(mexhat.system, [1.05, 0.0, 0.02], 0.2, **kw),
         ("witness_tol", "coverage_factor", "susp_ratio", "susp_g")),
        (lambda **kw: find_equilibria(rigid.system, [MAJOR], **kw), ("dedup_tol",)),
    ]
    for call, keywords in calls:
        for keyword in keywords:
            with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
                call(**{keyword: 0.1})


def test_threshold_search_does_not_classify_a_given_verdict(rigid, monkeypatch):
    calls = []

    def counting_classify(system, x, *args, **kwargs):
        calls.append(tuple(x))
        return Stability.UNSTABLE

    monkeypatch.setattr(basin_mod, "stability_classify", counting_classify)
    level, _ = threshold_search(rigid.system, MAJOR, 0.2, steps=1,
                                sampler=SamplerConfig(cells_per_axis=16),
                                stability=AS, n_trajectories=2, traj_seed=3)
    assert level == 0.2
    assert calls == []
    # without a verdict, or with None, the target is classified once
    for kwargs in ({}, {"stability": None}):
        with pytest.raises(NotAsymptoticallyStable):
            threshold_search(rigid.system, MAJOR, 0.2, **kwargs)
    assert len(calls) == 2


def test_period_detection_stops_at_the_first_return(mexhat, monkeypatch):
    # one run, stopped a step after the first return, and a return-time
    # Newton and orbit samples that read the run's continuous extension:
    # no second integration
    steps = []
    lockstep = basin_mod._lockstep

    def counting_steps(*args, **kwargs):
        for step in lockstep(*args, **kwargs):
            steps.append(step.t_new)
            yield step

    def no_integrate(*args, **kwargs):
        raise AssertionError("period detection called integrate")

    monkeypatch.setattr(basin_mod, "_lockstep", counting_steps)
    monkeypatch.setattr(basin_mod, "integrate_ensemble", no_integrate)
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
    y0 = np.array([np.cos(0.3), np.sin(0.3), 0.02])
    period, orbit_at = basin_mod._detect_period(mexhat.system, y0, cfg, t_search=50.0,
                                                coarse_tol=0.2, recur_tol=1e-8)
    assert abs(period - 2.0 * np.pi) <= 1e-9
    assert 0 < len(steps) < 400
    assert steps[-1] < 2.0 * np.pi + 1.0
    # the orbit samples come off the same steps: the exact rotation
    n_steps = len(steps)
    for t in np.linspace(0.0, period, 97):
        exact = np.array([np.cos(0.3 + t), np.sin(0.3 + t), 0.02])
        assert np.max(np.abs(orbit_at(t) - exact)) <= 1e-8
    assert len(steps) == n_steps


def test_period_detection_reads_on_past_its_kept_steps(mexhat, monkeypatch):
    # times past the step after the first return read on into further steps
    # of the same run: the states that a run to t_search reads there
    steps = []
    lockstep = basin_mod._lockstep

    def counting_steps(*args, **kwargs):
        for step in lockstep(*args, **kwargs):
            steps.append(step.t_new)
            yield step

    monkeypatch.setattr(basin_mod, "_lockstep", counting_steps)
    cfg = IntegratorConfig(method=Method.DOP853, rel_tol=1e-10, abs_tol=1e-12)
    y0 = refine_to_invariant_set(mexhat.system, [1.05, 0.0, 0.02],
                                 trust_radius=basin_mod._SEED_TRUST)
    period, orbit_at = basin_mod._detect_period(mexhat.system, y0, cfg, t_search=50.0,
                                                coarse_tol=0.2, recur_tol=1e-8)
    kept = len(steps)
    ts = np.array([period + 0.5, period + 3.0, 2.0 * period + 1.0])
    got = orbit_at(ts)
    assert steps[kept - 1] < ts[0] and len(steps) > kept
    tr = integrate(mexhat.system, y0, dataclasses.replace(cfg, t_end=50.0), checkpoints=ts)
    assert got.tobytes() == tr.checkpoint_states.tobytes()


def test_orbit_certificate_integrates_only_its_trajectories(mexhat, monkeypatch):
    # the period and the orbit samples come from the detection run's steps
    starts = []
    integrate = basin_mod.integrate_ensemble

    def counting_integrate(system, x0s, *args, **kwargs):
        starts.extend(map(tuple, x0s))
        return integrate(system, x0s, *args, **kwargs)

    monkeypatch.setattr(basin_mod, "integrate_ensemble", counting_integrate)
    cert = periodic_orbit_certify(mexhat.system, np.array([1.05, 0.0, 0.02]), 0.2,
                                  sampler=SamplerConfig(cells_per_axis=16),
                                  n_trajectories=2, traj_seed=2, horizon=8.0)
    assert cert.orbit_in_invariant_set
    assert abs(cert.period - 2.0 * np.pi) <= 1e-9
    assert len(starts) == cert.trajectories_total == 2


def test_period_detection_without_a_return_searches_the_whole_window(mexhat):
    # spiralling onto the circle from outside never returns near the seed
    with pytest.raises(NotPeriodic, match=r"no return within 0\.2 of the seed over \[0, 8\.0\]"):
        basin_mod._detect_period(mexhat.system, np.array([2.0, 0.0, 0.0]),
                                 IntegratorConfig(), t_search=8.0, coarse_tol=0.2,
                                 recur_tol=1e-8)


# (n_samples, level) -> seeds at which the sampled certificate on the 4-D
# sphere/weights system passes above its true threshold 1.0: the component
# never nears the box face, and the samples leave the saddle neck near +-e2
# almost empty, so the witness scan never sees a saddle
_FALSE_PASSES = {(512, 1.02): (2, 7, 10, 14, 16, 18, 22, 24, 31, 34, 36, 37, 38),
                 (512, 1.1): (2, 22, 24, 38),
                 (256, 1.02): (7, 36)}


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
def test_sampled_certificate_does_not_pass_above_the_threshold():
    system = _sphere_4d_stacked()
    passed = [(n_samples, level, seed)
              for (n_samples, level), seeds in _FALSE_PASSES.items() for seed in seeds
              if basin_certify(system, np.eye(4)[0], level,
                               SamplerConfig(n_samples=n_samples, halfwidth=1.5, seed=seed),
                               stability=AS).passed]
    assert passed == []


# a level 0.33% above the rotated quadric's threshold, at which the sampled
# certificate of 2,048 samples with sampler seed 5 passes
_QUADRIC_FALSE_PASS = 0.28164686


def test_rotated_quadric_threshold_is_its_closed_form():
    entry = rotated_quadric(4, 0)
    system, axes = entry.system, entry.known_equilibria
    threshold = entry.known_saddle_levels[0]
    assert threshold == pytest.approx(0.28073014, abs=1e-8)
    assert entry.known_min_level < threshold < _QUADRIC_FALSE_PASS
    # G at +-Q e_j rises with j, from the minimum to the threshold next
    levels = [system.dissipated(p) for p in axes]
    assert levels[0] == pytest.approx(entry.known_min_level, rel=1e-12)
    assert levels[2] == pytest.approx(threshold, rel=1e-12)
    assert levels == sorted(levels)
    for p in axes:
        assert system.conserved[0](p) == pytest.approx(0.5, rel=1e-15)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP items 1 and 18")
def test_sampled_certificate_does_not_pass_above_the_rotated_quadric_threshold():
    entry = rotated_quadric(4, 0)
    cert = basin_certify(entry.system, entry.known_equilibria[0], _QUADRIC_FALSE_PASS,
                         SamplerConfig(n_samples=2048, halfwidth=1.5, seed=5),
                         stability=AS, n_trajectories=4)
    assert not cert.passed


def test_grid_certificate_is_sharp_at_the_rotated_quadric_threshold():
    # ROADMAP item 18 on the grid path, in two and three dimensions: at
    # levels a1/2 + f (a2 - a1)/2, no certificate passes above the threshold
    # (f = 1.02, 1.1), and every one passes below it (f = 0.9) but n = 2 with
    # rotation seed 5, whose a2 - a1 = 0.0044 leaves descent too slow for the
    # horizon cap: its rows do not converge (pinned here)
    failed = {}
    for n in (2, 3):
        for seed in range(6):
            entry = from_name(f"rotated_quadric:{n},{seed}")
            low, high = entry.known_min_level, entry.known_saddle_levels[0]
            for f in (1.02, 1.1, 0.9):
                cert = basin_certify(entry.system, entry.known_equilibria[0],
                                     low + f * (high - low),
                                     SamplerConfig(cells_per_axis=32, halfwidth=1.5),
                                     stability=AS)
                assert f < 1.0 or not cert.passed, (n, seed, f)
            if not cert.passed:
                failed[n, seed] = (round(2.0 * (high - low), 4), cert.reasons)
    assert failed == {(2, 5): (0.0044, ["trajectories failed to converge to the target"])}


@pytest.mark.parametrize("n_samples", [1, 3])
def test_sampled_component_of_too_few_samples_fails(n_samples):
    # a sampled component of fewer than dim + 1 members carries no
    # containment evidence; the level lies below the true threshold 1.0
    cert = basin_certify(_sphere_weights_4d(), np.eye(4)[0], 0.9,
                         SamplerConfig(n_samples=n_samples, halfwidth=1.5),
                         stability=AS, n_trajectories=1, proper_g_asserted=True)
    assert cert.component_size < 5
    assert not cert.passed
    assert "component holds too few samples, containment unverified" in cert.reasons


# ---------------------------------------------------------------------------
# the paper's premise: X annihilates every conserved quantity and G
# ---------------------------------------------------------------------------

# k = 0, G = |x|^2 / 2 and X = (-x1^3 + 1.15 x1^2 + 0.67 x1, 0): the corrected
# flow is x1' = -x1 (x1 - 0.55) (x1 - 0.6), x2' = -x2, whose attractor at
# (0.6, 0) lies in the disk G < 0.1922 but off the degeneracy set {dG = 0}
_OUTSIDE_PREMISE = {
    "dim": 2,
    "field": [{"terms": [{"coef": -1.0, "powers": [3, 0]}, {"coef": 1.15, "powers": [2, 0]},
                         {"coef": 0.67, "powers": [1, 0]}]},
              {"terms": [{"coef": 0.0, "powers": [0, 0]}]}],
    "dissipated": {"terms": [{"coef": 0.5, "powers": [2, 0]}, {"coef": 0.5, "powers": [0, 2]}]},
}
_OUTSIDE_OPTIONS = dict(sampler=SamplerConfig(cells_per_axis=32), n_trajectories=50,
                        proper_g_asserted=True)


def _no_scan_or_ensemble(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a system outside the premise reached the witness scan "
                             "or the ensemble")

    monkeypatch.setattr(basin_mod, "_frame_scores", refuse)
    monkeypatch.setattr(basin_mod, "integrate_ensemble", refuse)


@pytest.mark.parametrize("traj_seed", [0, 6])
def test_basin_certificate_refuses_a_system_outside_the_premise(traj_seed, monkeypatch):
    system = _build_system(_OUTSIDE_PREMISE)[0]
    _no_scan_or_ensemble(monkeypatch)
    with pytest.raises(PremiseViolation, match="does not annihilate g at"):
        basin_certify(system, np.zeros(2), 0.1922, traj_seed=traj_seed, **_OUTSIDE_OPTIONS)


@pytest.mark.parametrize("traj_seed", [0, 6])
def test_without_the_premise_check_the_disk_is_a_false_pass(traj_seed, monkeypatch):
    # the false pass the check refuses: every drawn start converges to the
    # origin, although the disk holds a second attractor
    monkeypatch.setattr(basin_mod, "_require_premise", lambda system, pts: None)
    cert = basin_certify(_build_system(_OUTSIDE_PREMISE)[0], np.zeros(2), 0.1922,
                         traj_seed=traj_seed, **_OUTSIDE_OPTIONS)
    assert cert.passed
    assert np.min(_norms(cert.members - [0.6, 0.0])) <= cert.spacing


def test_orbit_certificate_refuses_phases_outside_the_premise(mexhat, monkeypatch):
    # the sombrero with X lifted by 0.1 x1 along the height: the unit circle
    # still carries a periodic orbit of the corrected flow, but X no longer
    # conserves the height
    hat = mexhat.system

    def lifted(p):
        v = np.array(hat.X.func(p))
        v[..., 2] += 0.1 * p[..., 0]
        return v

    system = dataclasses.replace(hat, X=VectorField(3, lifted, stacked=True))
    _no_scan_or_ensemble(monkeypatch)
    with pytest.raises(PremiseViolation, match=r"annihilate height at \[1\.0, 0\.0, 0\.02\]"):
        periodic_orbit_certify(system, [1.05, 0.0, 0.02], 0.2,
                               SamplerConfig(cells_per_axis=12, halfwidth=2.8),
                               n_trajectories=2)


def test_threshold_search_refuses_a_system_outside_the_premise(monkeypatch):
    system = _build_system(_OUTSIDE_PREMISE)[0]
    _no_scan_or_ensemble(monkeypatch)
    with pytest.raises(PremiseViolation, match="does not annihilate g at"):
        threshold_search(system, np.zeros(2), 0.1922, steps=3, **_OUTSIDE_OPTIONS)


def test_threshold_search_checks_each_table_row_once(rigid, monkeypatch):
    checked = []
    check = basin_mod._require_premise

    def counting_check(system, pts):
        checked.extend(map(tuple, pts))
        check(system, pts)

    monkeypatch.setattr(basin_mod, "_require_premise", counting_check)
    _, history = threshold_search(rigid.system, MAJOR, 0.4, steps=4,
                                  sampler=SamplerConfig(cells_per_axis=14),
                                  stability=AS, n_trajectories=4)
    assert len(history) == 5
    assert len(checked) == len(set(checked)) > 0
