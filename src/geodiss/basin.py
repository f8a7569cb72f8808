"""Sublevel-set basin certificates for equilibria and periodic orbits.

One pipeline serves two targets: an asymptotically stable equilibrium, or a
periodic orbit inside the degeneracy set. Both rest on the same argument: a
bounded connected component of the strict sublevel set of the dissipated
quantity at level ``c``, on the target's leaf and containing the target,
whose only degeneracy-set points lie on the target, lies in the target's
basin. A level is judged against either target in two halves, from the
component and its witnesses: its geometry,

  1. the component is bounded (it stays away from the sampling box boundary),
  2. every point of the degeneracy set found inside it lies on the target,

and its trajectory ensemble, a seeded draw of starts and a verdict read off
their rows of an ensemble run,

  3. trajectories of the corrected flow started inside it converge to the
     target.

The argument rests on the paper's premise that X annihilates every
conserved quantity and G, so that G falls at rate -det Gamma along the
corrected flow: a member of a judged component, or an orbit phase, where it
fails is refused with :class:`PremiseViolation` before any witness scan or
ensemble (``fields._require_premise``).

The equilibrium and orbit certificates and the threshold search use both
halves; the orbit certificate adds only what is its own (seed refinement,
period detection, phase checks and a coverage test).

Items 2 and 3 are sampling evidence with verified witnesses, not proofs of
absence: a reported witness is always refined until it classifies inside the
degeneracy set at tight tolerance and lies strictly inside the sublevel set,
but the scan can only disprove the certificate, never establish that no
witness was missed between samples.

A component is one flood (``_flood``) of a graph over the rows of a leaf
table through the rows below the level: on the grid the rows' face
adjacency, built once per table in memory bounded by the rows, not the
cells; on the sampled path the mutual nearest neighbours at that level.

The witness scores of all members come from one stacked frame, and the
control-field rates of all starts, which set the automatic horizon, from
one call of the corrected-flow evaluator, ``control._corrected_rows``. A
certificate's trajectory ensemble is one lockstep call
(``integrators.integrate_ensemble``) over all its starts, whose rows take
the steps of their solo runs; the threshold search runs the ensembles of
all the levels it plans in one such call. The rows end in the target's
trap (``_trap``) once within ``converge_tol`` for good: a neighbourhood of
an equilibrium, or a tube about an orbit, that G's descent never leaves.
Only the orbit's period detection consumes the solo step generator.
"""
from __future__ import annotations

import inspect
import itertools
import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .control import _corrected_rows, dissipated_rhs
from .errors import (
    AnchorOutsideLevel,
    ConfigError,
    NoValidLevel,
    NotAsymptoticallyStable,
    NotOnInvariantSet,
    NotPeriodic,
)
from .fields import (
    DissipativeSystem,
    _project_rows,
    _require_premise,
    _row_dots,
    _row_norms,
    as_point,
)
from .gram import _nonfinite_differential, system_frames
from .integrators import (
    EnsembleRun,
    IntegratorConfig,
    _adaptive,
    _check_t_end,
    _dense_states,
    _lockstep,
    integrate_ensemble,
)
from .structure import (
    Stability,
    _classify_rows,
    _lstsq_rows,
    _refine_rows,
    _tangent_bases,
    refine_to_invariant_set,
    stability_classify,
)

GRID_DIM_LIMIT = 3
# an orbit seed must refine onto the degeneracy set within this distance
_SEED_TRUST = 0.1
# the witness scan refines the members whose determinant ratio is at most
# _SUSP_RATIO or whose |dG| is at most _SUSP_G
_SUSP_RATIO = 0.05
_SUSP_G = 0.25
# an equilibrium's witnesses farther than _TARGET_RADIUS from it contradict
_TARGET_RADIUS = 1e-3
# an orbit's witnesses farther than _WITNESS_TOL from it contradict, and the
# nearer ones cover it when every phase has one within _COVERAGE_FACTOR
# spacings
_WITNESS_TOL = 1e-6
_COVERAGE_FACTOR = 2.0
# orbit points read off the period-detection run
_DENSE_STATES = 2048
# the sampled path's neighbour search (_knn_rows): the coordinates hashed into
# cells, so a row reads at most 3 ** 4 = 81 cells; the rows whose k-th
# distance sets the cell width; the cells along a hashed axis, so a packed
# cell key fits in int64; and the floats that one block of candidate pairs
# holds, so memory grows linearly in the rows
_HASH_AXES = 4
_WIDTH_PROBES = 64
_CELLS_PER_AXIS = 2 ** 15
_PAIR_FLOATS = 2 ** 15
# the sampler's work bounds, as in the config schema; a grid holds
# cells_per_axis ** dim cells, at most _CELL_BUDGET
_MAX_SAMPLES = 2 ** 20
_MAX_CELLS_PER_AXIS = 256
_CELL_BUDGET = _MAX_CELLS_PER_AXIS ** GRID_DIM_LIMIT
# the rows the leaf table projects, or evaluates G at, in one call, which
# bounds the memory of its build
_TABLE_BLOCK = 2 ** 14
# the floats of one block of the witness scan's thinning gaps (_thin)
_THIN_FLOATS = 2 ** 14
# the floats of one block of the nearest-state search (_nearest), at least
# one row's: a row against 2,048 orbit samples in three dimensions fits. A
# block of 8 such rows raised the orbit certificate's peak RSS by 0.7 MB.
_NEAREST_FLOATS = 2 ** 13
# a target's trap (_trap): the Hessian's difference step relative to
# max(1, reach), the seeded leaf directions sampled at its radius besides
# the chart axes (spread over an orbit's phases), and the margin of delta
# over one step's change of L
_TRAP_STEP = float(np.finfo(float).eps) ** 0.25
_TRAP_SAMPLES = 32
_TRAP_SEED = 0
_TRAP_FLOOR = 100.0
# the bounds of the automatic ensemble horizon, 50 over the starts' median
# control-field rate |v0| / distance (_auto_horizon)
_HORIZON_FLOOR = 20.0
_HORIZON_CAP = 500.0


def _require_count(name: str, value, least: int) -> None:
    """Refuse, with :class:`ConfigError`, a count or seed that is not an
    integer of at least ``least``; an integral float such as 14.0 is not one."""
    if not (isinstance(value, numbers.Integral) and value >= least):
        raise ConfigError(f"{name} must be an integer of at least {least}, got {value!r}")


def _require_draw(n_trajectories, traj_seed) -> None:
    """Refuse a trajectory count or draw seed outside the config schema's bounds."""
    _require_count("n_trajectories", n_trajectories, 1)
    _require_count("traj_seed", traj_seed, 0)


@dataclass(frozen=True)
class SamplerConfig:
    """How the sublevel component is discretized.

    Dimensions up to GRID_DIM_LIMIT use a regular grid with face-adjacency
    flood fill; higher dimensions fall back to random samples joined through
    mutual nearest neighbors: each sample's ``neighbor_count`` nearest, found
    exactly by a cell-hash search whose memory grows linearly in the samples.
    """

    cells_per_axis: int = 64
    halfwidth: float | None = None   # None: auto from the anchor norm
    n_samples: int = 4096
    neighbor_count: int = 10
    seed: int = 0

    def __post_init__(self):
        # the bounds of the config schema's sampler
        for name, least in (("cells_per_axis", 2), ("n_samples", 1),
                            ("neighbor_count", 1), ("seed", 0)):
            _require_count(f"sampler {name}", getattr(self, name), least)
        for name, most in (("cells_per_axis", _MAX_CELLS_PER_AXIS),
                           ("n_samples", _MAX_SAMPLES)):
            value = getattr(self, name)
            if value > most:
                raise ConfigError(f"sampler {name} must be at most {most}, got {value}")
        if self.halfwidth is not None and not self.halfwidth > 0:
            raise ConfigError(f"sampler halfwidth must be positive, got {self.halfwidth}")


@dataclass(frozen=True)
class SublevelComponent:
    anchor: np.ndarray
    level: float
    leaf_value: np.ndarray
    members: np.ndarray        # leaf points with dissipated value below level
    spacing: float             # cell diagonal, or median sample spacing
    touches_boundary: bool
    method: str


def _halfwidth(anchor: np.ndarray, sampler: SamplerConfig | None) -> float:
    """The sampling box half-width: the configured one, else from the anchor norm."""
    if sampler is not None and sampler.halfwidth is not None:
        return sampler.halfwidth
    return max(1.0, 2.0 * float(np.linalg.norm(anchor)) + 0.5)


def _flood(nbrs: np.ndarray, allowed: np.ndarray, start: int) -> np.ndarray:
    """The rows joined to ``start`` through ``allowed`` rows, sorted: row i's
    neighbours are the entries of ``nbrs[i]``, -1 for none. Breadth-first
    over whole frontiers."""
    ok = np.append(allowed, False)   # so a -1 entry reads False
    seen = np.zeros(len(nbrs), dtype=bool)
    seen[start] = True
    frontier = np.array([start])
    while frontier.size:
        nxt = nbrs[frontier].ravel()
        nxt = np.sort(nxt[ok[nxt] & ~seen[nxt]])
        # deduplicated by hand: np.unique imports numpy.ma, about 1 MB
        first = np.ones(nxt.size, dtype=bool)
        first[1:] = nxt[1:] != nxt[:-1]
        frontier = nxt[first]
        seen[frontier] = True
    return np.flatnonzero(seen)


def _median(values: np.ndarray) -> float:
    """``np.median`` of a 1-D array: its middle value, or the mean of its two
    middle values, and NaN when it is empty or holds a NaN. Sorted by hand:
    ``np.median`` imports numpy.ma, about 1 MB. The bits are np.median's,
    except that where 0.0 and -0.0 tie in the middle either may be read."""
    a = np.sort(values)
    mid = a.size // 2
    if not a.size or np.isnan(a[-1]):
        return float("nan")
    if a.size % 2:
        return float(a[mid])
    return float((a[mid - 1] + a[mid]) / 2.0)


def _knn_rows(pts: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's k nearest other rows, by distance then index, and its k-th distance.

    Exact, by the cell method (Bentley, Stanat & Williams, 1977): the rows are
    hashed into cubic cells on at most _HASH_AXES of the widest coordinates,
    and each row measures only the rows of its own and the adjacent cells.
    Every distance is ``np.linalg.norm(a - b)`` over all coordinates, as an
    all-pairs search takes it, so the k-th distances are that search's bits,
    and so are the neighbours but where an exact tie straddles the k-th
    place, which goes to the lower index. The first cell width comes from a
    stride of probe rows. Requires 1 <= k < len(pts).
    """
    m = len(pts)
    lo = pts.min(axis=0)
    extent = pts.max(axis=0) - lo
    axes = np.argsort(-extent, kind="stable")[:_HASH_AXES]
    hashed = pts[:, axes] - lo[axes]
    widest = float(extent[axes[0]])
    least = widest / _CELLS_PER_AXIS
    order = np.empty((m, k), dtype=np.intp)
    kth = np.empty(m)
    # the probes start from the width at which m rows spread evenly over the
    # hashed box would put k in a cell; the others from their k-th distances
    probes = np.arange(0, m, -(-m // _WIDTH_PROBES))
    width = widest * (k / m) ** (1.0 / len(axes))
    _cell_search(pts, hashed, probes, max(width, least) or 1.0, order, kth)
    rest = np.ones(m, dtype=bool)
    rest[probes] = False
    width = 1.25 * _median(kth[probes])
    _cell_search(pts, hashed, np.flatnonzero(rest), max(width, least) or 1.0, order, kth)
    return order, kth


def _cell_search(pts: np.ndarray, hashed: np.ndarray, rows: np.ndarray, width: float,
                 order: np.ndarray, kth: np.ndarray) -> None:
    """Fill ``order`` and ``kth`` at ``rows`` from cells of ``width`` and wider.

    A row's neighbours are final once its k-th distance lies below its
    certified radius, the width plus its distance to its own cell's nearest
    face: a row outside the adjacent cells is at least that far in one hashed
    coordinate, so at least that far. The rows not certified are searched
    again at twice the width; once one cell holds every row, all are.
    """
    m, n = pts.shape
    k = order.shape[1]
    h = hashed.shape[1]
    # the adjacent cells in every hashed axis but the last; along the last,
    # a cell and its two neighbours are adjacent keys, so one range of rows
    near = np.array(list(itertools.product((-1, 0, 1), repeat=h - 1)),
                    dtype=np.int64).reshape(-1, h - 1)
    while rows.size:
        t = hashed / width
        cell = np.floor(t).astype(np.int64)
        # keys packed in C order, with a margin cell on either side
        dims = cell.max(axis=0) + 3
        strides = np.cumprod(np.concatenate([[1], dims[:0:-1]]))[::-1]
        key = (cell + 1) @ strides
        near_keys = near @ strides[:-1]
        # the rounding of t, of the distances and of the radius, with room
        slack = 16 * np.finfo(float).eps * (float(t.max()) + n + 4)
        reach = width * (1.0 + np.min(np.minimum(t - cell, cell + 1 - t), axis=1)) * (1.0 - slack)
        perm = np.argsort(key, kind="stable")
        sorted_key = key[perm]
        todo = np.zeros(m, dtype=bool)
        todo[rows] = True
        rows = perm[todo[perm]]          # in cell order, so a block's counts are alike
        left = []
        # the rows whose cell ranges are looked up at once, within the budget
        for chunk in np.array_split(rows, -(-rows.size * len(near) // _PAIR_FLOATS)):
            base = key[chunk, None] + near_keys
            start = np.searchsorted(sorted_key, base - 1, "left")
            lens = np.searchsorted(sorted_key, base + 1, "right") - start
            counts = lens.sum(axis=1)
            # blocks of rows, each padded to its largest candidate count
            step = max(1, _PAIR_FLOATS // (n * max(int(counts.max()), k)))
            for s in range(0, chunk.size, step):
                e = s + step
                r, cnt, ln = chunk[s:e], counts[s:e], lens[s:e].ravel()
                # each candidate's place in the cell order
                where = (np.repeat(start[s:e].ravel() - (np.cumsum(ln) - ln), ln)
                         + np.arange(cnt.sum()))
                idx = np.repeat(r[:, None], max(int(cnt.max()), k), axis=1)
                idx[np.repeat(np.arange(r.size), cnt),
                    np.arange(cnt.sum()) - np.repeat(np.cumsum(cnt) - cnt, cnt)] = perm[where]
                dist = np.linalg.norm(pts[r, None, :] - pts[idx], axis=2)
                # the row itself and the padding: NaN is never below or at a k-th distance
                dist[idx == r[:, None]] = np.nan
                kd = np.partition(dist, k - 1, axis=1)[:, k - 1]
                done = (kd < reach[r]) | (cnt == m)
                order[r[done]] = _k_smallest(dist[done], idx[done], kd[done], k)
                kth[r[done]] = kd[done]
                left.append(r[~done])
        rows = np.concatenate(left)
        width *= 2.0


def _k_smallest(dist: np.ndarray, idx: np.ndarray, kd: np.ndarray, k: int) -> np.ndarray:
    """Per row, the k entries of ``idx`` of least (``dist``, ``idx``), so sorted;
    ``kd`` holds each row's k-th smallest distance."""
    below = dist < kd[:, None]
    at = dist == kd[:, None]
    need = k - below.sum(axis=1)
    take = below | at
    tied = np.flatnonzero(at.sum(axis=1) > need)
    if tied.size:
        # an exact tie across the k-th place goes to the lower indices
        last = np.sort(np.where(at[tied], idx[tied], np.iinfo(np.intp).max), axis=1)
        take[tied] &= below[tied] | (idx[tied] <= last[np.arange(tied.size), need[tied] - 1, None])
    picked, d = idx[take].reshape(-1, k), dist[take].reshape(-1, k)
    return np.take_along_axis(picked, np.lexsort((picked, d)), axis=1)


class _LeafTable:
    """The level-independent half of a sublevel component.

    Row 0 holds the anchor. On the grid path the other rows are the cell
    centres that pass the leaf-gap test and project onto the anchor's leaf
    within one cell diagonal, in C order of the cells; on the sampled path
    they are the seed-drawn samples whose projection stays in the box, in
    draw order. ``g`` holds the dissipated value of every row but the
    anchor's. A grid table also holds its row graph (``nbrs``, ``on_face``),
    found by a sorted search of ``cells``, with no array of every cell.

    ``select(level)`` makes the component at any level from the table alone.
    A row's witness score, its refinements and its passing the premise
    check are cached, so a search over levels projects, scores, refines and
    checks each point once.
    """

    def __init__(self, system: DissipativeSystem, anchor: np.ndarray,
                 leaf_value: np.ndarray, cfg: SamplerConfig):
        self.system = system
        self.anchor = anchor
        self.leaf_value = leaf_value
        self.cfg = cfg
        self.hw = _halfwidth(anchor, cfg)
        if system.dim <= GRID_DIM_LIMIT:
            if cfg.cells_per_axis ** system.dim > _CELL_BUDGET:
                raise ConfigError(
                    f"sampler grid of {cfg.cells_per_axis}^{system.dim} cells exceeds "
                    f"the budget of {_CELL_BUDGET} cells")
            self.method = "grid"
            found, self.cells = self._grid_points()
            self._grid_graph()
        else:
            self.method = "sampled"
            found = self._sampled_points()
        self.points = np.vstack([anchor[None], found])
        # the anchor always joins, so its value is never compared; each row's
        # value is its own, so blocks of rows give the bits of one call
        self.g = np.full(len(self.points), np.nan)
        for s in range(1, len(self.points), _TABLE_BLOCK):
            self.g[s:s + _TABLE_BLOCK] = system.dissipated.values(
                self.points[s:s + _TABLE_BLOCK])
        self._ratios = np.full(len(self.points), np.nan)
        self._gnorms = np.full(len(self.points), np.nan)
        self._premise_ok = np.zeros(len(self.points), dtype=bool)
        self._refined: dict[tuple[int, float], np.ndarray | None] = {}

    def _grid_points(self) -> tuple[np.ndarray, np.ndarray]:
        """The projected cell centres and their flat cell indices.

        The leaf-gap test runs on blocks of _TABLE_BLOCK cells in C order, so
        its memory is bounded by the block, not by the cells. Each centre's
        test depends on that centre alone, so the blocks pass exactly the
        cells that one test of all cells passes.
        """
        system, anchor, cfg = self.system, self.anchor, self.cfg
        n = system.dim
        n_cells = cfg.cells_per_axis
        shape = (n_cells,) * n
        cell = 2.0 * self.hw / n_cells
        diag = cell * np.sqrt(n)
        lo = anchor - self.hw
        axes = [lo[i] + (np.arange(n_cells) + 0.5) * cell for i in range(n)]
        self.diag = float(diag)
        self.anchor_cell = int(np.ravel_multi_index(tuple(
            int(np.clip(np.floor((anchor[i] - lo[i]) / cell), 0, n_cells - 1))
            for i in range(n)), shape))

        def centers(cells):
            return np.stack([a[i] for a, i in zip(axes, np.unravel_index(cells, shape))],
                            axis=-1)

        passed = []
        for s in range(0, n_cells ** n, _TABLE_BLOCK):
            cells = np.arange(s, min(s + _TABLE_BLOCK, n_cells ** n))
            for f, target in zip(system.conserved, self.leaf_value):
                c = centers(cells)
                gap = np.abs(f.values(c) - target)
                # a NaN gap passes, as it does not exceed the bound
                cells = cells[~(gap > 1.5 * diag * _row_norms(f.diffs(c)) + 1e-12)]
            passed.append(cells)
        cells = np.concatenate(passed)
        c = centers(cells)
        y, converged = self._project(c)
        keep = converged & ~(_row_norms(y - c) > diag)
        return y[keep], cells[keep]

    def _grid_graph(self) -> None:
        """Each row's 2 * dim face-adjacent rows, -1 where a cell has none,
        whether its cell lies on the box face (row 0 takes the anchor cell's),
        and the anchor cell's own row, 0 where it has none."""
        n_cells, n = self.cfg.cells_per_axis, self.system.dim
        a = self.anchor_cell
        cells = np.concatenate([[a], self.cells])
        # a key past the last row, which no cell equals
        keys = np.append(self.cells, -1)
        self.nbrs = np.full((len(cells), 2 * n), -1)
        self.on_face = np.zeros(len(cells), dtype=bool)
        for axis, c in enumerate(np.unravel_index(cells, (n_cells,) * n)):
            self.on_face |= (c == 0) | (c == n_cells - 1)
            stride = n_cells ** (n - 1 - axis)
            for j, (ok, nb) in enumerate(((c > 0, cells - stride),
                                          (c < n_cells - 1, cells + stride))):
                at = np.searchsorted(self.cells, nb)
                ok &= keys[at] == nb
                self.nbrs[ok, 2 * axis + j] = at[ok] + 1
        at = int(np.searchsorted(self.cells, a))
        self.anchor_row = at + 1 if keys[at] == a else 0

    def _sampled_points(self) -> np.ndarray:
        """The seed-drawn samples, projected at once, that stay in the box."""
        system, anchor, hw = self.system, self.anchor, self.hw
        rng = np.random.default_rng(self.cfg.seed)
        raw = anchor + rng.uniform(-hw, hw, size=(self.cfg.n_samples, system.dim))
        y, converged = self._project(raw)
        keep = converged & ~(np.max(np.abs(y - anchor), axis=1) > hw)
        return y[keep]

    def _project(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each row projected onto the anchor's leaf, and whether it converged.

        ``_project_rows`` on blocks of _TABLE_BLOCK rows: each row takes
        the steps of its own projection, so the blocks give the bits of one
        call over all rows, in memory bounded by the block.
        """
        y = np.empty_like(pts)
        converged = np.empty(len(pts), dtype=bool)
        for s in range(0, len(pts), _TABLE_BLOCK):
            e = s + _TABLE_BLOCK
            y[s:e], converged[s:e], _ = _project_rows(self.system, pts[s:e], self.leaf_value,
                                                      tol=1e-10, max_iter=20)
        return y, converged

    def select(self, level: float) -> tuple[SublevelComponent, np.ndarray]:
        """The component at ``level`` and the table row of each of its members."""
        if self.method == "grid":
            rows, spacing, touches = self._grid_select(level)
        else:
            rows, spacing, touches = self._sampled_select(level)
        return SublevelComponent(anchor=self.anchor, level=level,
                                 leaf_value=self.leaf_value,
                                 members=self.points[rows], spacing=spacing,
                                 touches_boundary=touches,
                                 method=self.method), rows

    def _grid_select(self, level: float):
        allowed = self.g < level
        # the anchor's cell always joins, holding its leaf point when that is
        # below the level and the anchor itself, row 0, otherwise
        start = self.anchor_row if allowed[self.anchor_row] else 0
        rows = _flood(self.nbrs, allowed, start)
        if start == 0:
            # in cell order, row 0 in the anchor cell's place
            rows = np.insert(rows[1:], np.searchsorted(self.cells[rows[1:] - 1],
                                                       self.anchor_cell), 0)
        return rows, self.diag, bool(self.on_face[rows].any())

    def _sampled_select(self, level: float):
        cand = np.concatenate([[0], 1 + np.flatnonzero(self.g[1:] < level)])
        pts = self.points[cand]
        m = len(pts)
        k_nn = min(self.cfg.neighbor_count, m - 1)
        if k_nn <= 0:
            return cand, self.hw, False
        order, kth = _knn_rows(pts, k_nn)
        spacing = _median(kth)
        # rows i and j join when each is in the other's row of order: the
        # pairs (i, j) as sorted keys i * m + j, and each pair reversed
        keys = (np.arange(m)[:, None] * m + np.sort(order, axis=1)).ravel()
        back = order * m + np.arange(m)[:, None]
        mutual = keys[np.minimum(np.searchsorted(keys, back), keys.size - 1)] == back
        rows = cand[_flood(np.where(mutual, order, -1), np.ones(m, dtype=bool), 0)]
        touches = bool(np.any(np.max(np.abs(self.points[rows] - self.anchor), axis=1)
                              > self.hw - 2.0 * spacing))
        return rows, spacing, touches

    def require_premise(self, rows: np.ndarray) -> None:
        """``_require_premise`` on a selected component's rows, each row
        evaluated until it has passed once."""
        todo = rows[~self._premise_ok[rows]]
        if todo.size:
            _require_premise(self.system, self.points[todo])
            self._premise_ok[todo] = True

    def witnesses(self, component: SublevelComponent, rows: np.ndarray,
                  opts) -> np.ndarray:
        """``scan_invariant_witnesses`` on a selected component, from the caches."""
        todo = rows[np.isnan(self._ratios[rows])]
        if todo.size:
            self._ratios[todo], self._gnorms[todo] = _frame_scores(
                self.system, self.points[todo])
        trust = 2.0 * component.spacing

        def refine(chosen):
            keys = [(int(rows[i]), trust) for i in chosen]
            todo = [key for key in keys if key not in self._refined]
            if todo:
                found = _refine_rows(self.system, self.points[[row for row, _ in todo]],
                                     self.leaf_value, trust)
                self._refined.update(zip(todo, found))
            return [self._refined[key] for key in keys]

        return _verified_witnesses(self.system, component, self._ratios[rows],
                                   self._gnorms[rows], refine, opts["max_refine"])


def sublevel_component(system: DissipativeSystem, anchor, level: float,
                       sampler: SamplerConfig | None = None) -> SublevelComponent:
    """Connected component, on the anchor's leaf, of {dissipated < level}."""
    anchor = as_point(anchor, system.dim)
    # equality admitted: the degenerate level G(anchor) yields the singleton
    # component and a vacuous certificate
    if not system.dissipated(anchor) <= level:
        raise AnchorOutsideLevel(
            f"dissipated value {system.dissipated(anchor):.6g} at the anchor "
            f"exceeds the level {level:.6g}")
    table = _LeafTable(system, anchor, system.leaf_value(anchor),
                       sampler or SamplerConfig())
    return table.select(level)[0]


def _frame_scores(system: DissipativeSystem, pts: np.ndarray):
    """Scale-free determinant ratio and dissipated-gradient norm at each point.

    One stacked frame over all the points, bitwise the per-point frames.
    """
    frames = system_frames(system, pts)
    frames.require_finite()
    det = frames.det_full()
    scale = frames.classification_scale()
    ratios = np.zeros(len(pts))
    pos = scale > 0
    ratios[pos] = det[pos] / scale[pos]
    return ratios, frames.grad_g_norm()


def _verified_witnesses(system, component, ratios, gnorms, refine, max_refine) -> np.ndarray:
    """The witness scan after scoring: rank, thin, refine (``refine(chosen)``
    for the chosen members, all at once) and keep the refined points that
    contradict or support."""
    pts = component.members
    score = np.minimum(ratios / _SUSP_RATIO, gnorms / _SUSP_G)
    candidates = np.where(score <= 1.0)[0]
    candidates = candidates[np.argsort(score[candidates])]
    # spatial thinning before the refinement cap: a purely score-ordered cut
    # concentrates on grid-lucky spots and can starve whole stretches of an
    # extended degeneracy locus of any refinement attempt
    chosen = _thin(pts, candidates, 0.4 * component.spacing, max_refine,
                   lambda d: np.linalg.norm(d, axis=-1))

    found = [y for y in refine(chosen) if y is not None]
    if not found:
        return np.zeros((0, system.dim))
    found = np.array(found)
    # the anchor is admitted into the component at equality, so the
    # degenerate level still gets its supporting witness at the target;
    # away from the anchor the strict inequality stands
    below = ((system.dissipated.values(found) < component.level)
             | ~(_row_norms(found - component.anchor) > 0.25 * component.spacing))
    # refined points are finite, so a gap is never NaN, and a point goes
    # when any gap to an earlier witness is below the spacing's quarter
    witnesses = _thin(found, np.flatnonzero(below), 0.25 * component.spacing, len(found),
                      lambda d: _row_norms(d.reshape(-1, d.shape[-1])).reshape(d.shape[:-1]))
    return found[witnesses]


def _thin(pts: np.ndarray, order: np.ndarray, min_gap: float, limit: int,
          norms: Callable[[np.ndarray], np.ndarray]) -> list[int]:
    """The rows ``order`` of ``pts``, in turn, that lie at least ``min_gap``
    from every earlier one kept, at most ``limit`` of them: a row is
    dropped when the ``np.min`` of its gaps to the kept ones is below
    ``min_gap``, so a NaN gap keeps it. ``norms`` takes the gaps, the
    norms over the last axis of a stack of differences, kept row minus
    row.

    The gaps are taken in blocks of rows, each block's to the kept rows
    and to each other in at most ``_THIN_FLOATS`` floats, or one row's. The
    greedy pass over a block reads them as Python values: the gaps to the
    kept rows as one flag per row, those within the block as a bit mask
    per row, tested against the mask of the block's rows kept so far.
    """
    chosen: list[int] = []
    n = pts.shape[1]
    lo = 0
    while lo < len(order) and len(chosen) < limit:
        # b rows against c kept ones and against each other: b (c + b) n floats
        c = len(chosen)
        size = max(1, (math.isqrt(c * c + 4 * (_THIN_FLOATS // n)) - c) // 2)
        block = order[lo:lo + size]
        lo += size
        q = pts[block]
        kept = norms(pts[chosen] - q[:, None])
        near_kept = (kept < min_gap).any(axis=1).tolist()
        nan_kept = np.isnan(kept).any(axis=1).tolist()
        own = norms(q - q[:, None])
        width = (len(block) + 7) // 8
        near_own = np.packbits(own < min_gap, axis=1, bitorder="little").tobytes()
        nan_own = np.packbits(np.isnan(own), axis=1, bitorder="little").tobytes()
        picked = 0
        for b, i in enumerate(block.tolist()):
            if len(chosen) >= limit:
                break
            row = slice(b * width, (b + 1) * width)
            if ((near_kept[b] or int.from_bytes(near_own[row], "little") & picked)
                    and not (nan_kept[b] or int.from_bytes(nan_own[row], "little") & picked)):
                continue
            picked |= 1 << b
            chosen.append(i)
    return chosen


def scan_invariant_witnesses(system: DissipativeSystem,
                             component: SublevelComponent,
                             max_refine: int = 800) -> np.ndarray:
    """Verified degeneracy-set points inside the component, found by refinement.

    Member points are ranked by how close they already sit to gradient
    dependence (scale-free determinant ratio) or to a critical point of the
    dissipated quantity (gradient norm); the suspicious ones, with a ratio
    of at most 0.05 or a norm of at most 0.25, are thinned in space and at
    most ``max_refine`` of them are refined on the leaf. A refined point counts only when it classifies inside the
    degeneracy set at tight tolerance, stays within twice the sampling
    spacing, and its dissipated value is strictly below the level (equality
    is admitted only at the anchor, mirroring the anchor's admission into
    the component), so every returned witness genuinely contradicts (or, at
    the target, supports) the certificate.
    """
    pts = component.members
    ratios, gnorms = _frame_scores(system, pts)

    def refine(chosen):
        return _refine_rows(system, pts[chosen], component.leaf_value,
                            2.0 * component.spacing)

    return _verified_witnesses(system, component, ratios, gnorms, refine, max_refine)


def _control_norms(system: DissipativeSystem, pts: np.ndarray) -> np.ndarray:
    """Euclidean norm of the control field at each row of an (m, n) stack,
    from the corrected-flow evaluator; the first row whose differentials are
    not finite raises :class:`NonFiniteValue`."""
    _, v0, ok = _corrected_rows(system)(pts)
    if ok is not None:
        raise _nonfinite_differential(pts[int(np.argmin(ok))])
    return _row_norms(v0)


def _auto_horizon(system: DissipativeSystem, starts, distances) -> float:
    dists = distances(starts)
    away = dists > 1e-6
    if not away.any():
        return _HORIZON_FLOOR
    rates = _control_norms(system, starts[away]) / dists[away]
    med = _median(rates)
    if med <= 0:
        return _HORIZON_CAP
    return float(np.clip(50.0 / med, _HORIZON_FLOOR, _HORIZON_CAP))


@dataclass(frozen=True)
class _Target:
    """What a level is judged against: an equilibrium, or a sampled orbit."""

    name: str                               # as the failure reasons name it
    # the distance of each row of an (m, n) stack to the target, which the
    # verdict and the trap (_trap) read
    distances: Callable[[np.ndarray], np.ndarray]
    witness_tol: float                      # farther witnesses contradict
    reach: float                            # largest norm on the target
    # an equilibrium fails a scan without any witness; an orbit's own
    # coverage test asks for more
    needs_witness: bool = True
    # the states its trap is built about (_trap): an equilibrium's one, or
    # an orbit's phases in order; None builds no trap
    states: np.ndarray | None = None


def _equilibrium(x_e: np.ndarray) -> _Target:
    # each row's norm is bitwise np.linalg.norm of the row
    return _Target("target", lambda pts: _row_norms(pts - x_e), _TARGET_RADIUS,
                   float(np.linalg.norm(x_e)), states=x_e[None])


@dataclass(frozen=True)
class _Trap:
    """A forward-invariant neighbourhood of a target, built by :func:`_trap`
    about its ``states``: the states within ``radius`` of the target where L
    = G - mu_j . (F - F_j), with mu_j, F_j and G_j of the nearest state j,
    lies below G_j + ``delta``. Called on an (m, n) stack, it returns the
    rows inside it, an ensemble's stop test: ``tests`` are its two
    conditions, the cheaper first, the other read only on the rows that
    pass it. ``lam`` and ``lam_max`` are the extreme eigenvalues of L's
    Hessians on the target's transverse charts."""

    states: np.ndarray
    radius: float
    delta: float
    lam: float
    lam_max: float
    tests: tuple = field(repr=False)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        first, second = self.tests
        inside = first(pts)
        if inside.any():
            inside[inside] = second(pts[inside])
        return inside


def _trap(system: DissipativeSystem, target: _Target, radius: float,
          config: IntegratorConfig) -> _Trap | None:
    """The trap about a target at ``radius`` (the ensembles'
    ``converge_tol``), or None where none is resolved.

    The target's ``states`` are an equilibrium x_e, one state, or an
    orbit's phase states in order, at least three of them; its
    ``distances`` are the ones the convergence verdict reads.

    G never rises along the corrected flow and F stays put, so a set T =
    {dist(x) < r, L(x) < G_j + delta} on the leaf, with L >= G_j + 2 delta
    on the leaf's tube of radius r about the target, is never left: a row
    inside T stays within r of the target to its horizon (the sublevel-set
    estimate of a region of attraction; Khalil, Nonlinear Systems, 3rd ed.,
    4.2 and 8.2, and LaSalle's theorem 4.4 for an orbit). mu_j solves dF^T
    mu_j = dG at state j in least squares, all states in one stacked solve
    (``structure._lstsq_rows``, each state bitwise its own
    ``np.linalg.lstsq``), so dL(x_j) = 0 and one step's
    error off the leaf moves L only to second order, where it moves G by
    mu_j . dF. delta is half the smaller of lam r^2 / 2, lam the smallest
    eigenvalue over the states of a central-difference Hessian of L in the
    transverse chart, and the least G - G_j over leaf points projected from
    radius r. At an equilibrium that chart is the leaf's tangent chart; on
    an orbit it drops the flow direction, the chord between the phase's
    neighbours, along which G does not change. There is no trap for a
    fixed step, whose error no tolerance bounds, where the chart has no
    direction left (a leaf that is the orbit), where lam does not exceed
    the change of the Hessian from step h to 2h at some state (as at a
    quartic bowl), or where delta does not clear 100 r lam_max
    ``local_tol(reach)``, a bound on one step's tangential change of L,
    reach the largest norm of a state.
    """
    states = target.states
    p, n = states.shape
    if not _adaptive(config):
        return None
    k = system.k
    g0 = system.dissipated.values(states)
    f0 = np.zeros((p, k))
    mu = np.zeros((p, k))
    if k:
        jac = np.stack([f.diffs(states) for f in system.conserved], axis=1)
        for i, f in enumerate(system.conserved):
            f0[:, i] = f.values(states)
        mu = _lstsq_rows(jac.transpose(0, 2, 1), system.dissipated.diffs(states))
    bases = _tangent_bases(system, states)
    if p > 1:
        # the flow direction drops out of each phase's chart
        chord = np.roll(states, -1, axis=0) - np.roll(states, 1, axis=0)
        along = (bases @ chord[:, :, None])[:, :, 0]
        bases = np.linalg.svd(along[:, None, :])[2][:, 1:] @ bases
    d = bases.shape[1]
    if not d:
        return None

    def rise(pts, j):
        """L - G_j on a stack, row i with the multipliers of state j[i], or
        every row with those of state j."""
        out = system.dissipated.values(pts) - g0[j]
        for i, f in enumerate(system.conserved):
            out -= mu[j, i] * (f.values(pts) - f0[j, i])
        return out

    # the Hessians' entries (i, j), i <= j, at steps h and 2h, from the
    # corners x + step (+-b_i +- b_j) about every state, in one stacked
    # evaluation
    reach = float(np.max(_row_norms(states)))
    h = _TRAP_STEP * max(1.0, reach)
    upper = np.triu_indices(d)
    signs_i, signs_j = np.array([[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0]])[:, :, None]
    pairs = signs_i * bases[:, upper[0], None] + signs_j * bases[:, upper[1], None]
    steps = np.array([h, 2.0 * h])
    corners = (states[:, None, None, None]
               + steps[:, None, None, None] * pairs[:, None]).reshape(-1, n)
    owner = np.repeat(np.arange(p), len(corners) // p)
    vals = rise(corners, owner).reshape(2 * p, -1, 4) @ np.array([1.0, -1.0, -1.0, 1.0])
    hess = np.zeros((p, 2, d, d))
    hess[:, :, upper[0], upper[1]] = vals.reshape(p, 2, -1) / (4.0 * steps[:, None] ** 2)
    hess[:, :, upper[1], upper[0]] = hess[:, :, upper[0], upper[1]]
    eig = np.linalg.eigvalsh(hess[:, 0])
    resolution = np.max(np.abs(np.linalg.eigvalsh(hess[:, 1] - hess[:, 0])), axis=1)
    if not np.all(eig[:, 0] > resolution):
        return None
    lam, lam_max = float(np.min(eig[:, 0])), float(np.max(eig[:, -1]))

    # G - G_j at leaf points projected from radius r along each state's
    # chart axes and its share of the seeded directions, in one stacked
    # projection
    seeded = np.random.default_rng(_TRAP_SEED).normal(size=(p, -(-_TRAP_SAMPLES // p), d))
    dirs = np.concatenate((bases, -bases, seeded @ bases), axis=1)
    owner = np.repeat(np.arange(p), dirs.shape[1])
    dirs = dirs.reshape(-1, n)
    ys, converged, _ = _project_rows(
        system, states[owner] + radius * dirs / _row_norms(dirs)[:, None], f0[owner])
    if not converged.all():
        return None
    sampled = float(np.min(system.dissipated.values(ys) - g0[owner]))
    delta = 0.5 * float(np.minimum(0.5 * lam * radius ** 2, sampled))  # NaN stays NaN
    floor = _TRAP_FLOOR * radius * lam_max * config.local_tol(reach)
    if not delta > floor:
        return None

    def low(pts):
        # each row's nearest state; for one state, that state for every row
        return rise(pts, 0 if p == 1 else _nearest(pts, states)) < delta

    def near(pts):
        return target.distances(pts) < radius

    # one state's distance costs less than L; an orbit's is a Newton solve
    # a row, read only on the rows near it
    tests = (near, low) if p == 1 else (low, near)
    return _Trap(states=states, radius=radius, delta=delta, lam=lam, lam_max=lam_max,
                 tests=tests)


def _ensemble_setup(system, target, anchor: np.ndarray,
                    opts) -> tuple[IntegratorConfig, float, _Trap | None]:
    """The integrator config (whose own ``t_end`` each level's horizon
    replaces), the state-norm bound and the stop test of a target's
    ensembles: the same at every level, so every level's draw runs under
    them.

    Without an ``integrator`` option the ensembles run the default method,
    dop853, at rel_tol 1e-8, abs_tol 1e-10: they read only each row's max of
    G and its final state, never a state inside a step, and the eighth-order
    pair takes about a quarter of Dormand-Prince 5(4)'s tries there. A given
    config is used as it is. The rows stop in the target's trap
    (:func:`_trap`, at radius ``converge_tol``, about an equilibrium or an
    orbit's phases) where it has one, within ``converge_tol`` of it for
    good.
    """
    config = opts["integrator"] or IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10)
    trap = (None if target.states is None
            else _trap(system, target, opts["converge_tol"], config))
    return config, target.reach + 10.0 * _halfwidth(anchor, opts["sampler"]), trap


@dataclass(frozen=True)
class _Draw:
    """A level's trajectory ensemble before it runs: the seeded starts and
    the horizon they run to."""

    level: float
    starts: np.ndarray
    horizon: float


def _draw_ensemble(system, component, target, opts, config: IntegratorConfig) -> _Draw:
    """A seeded draw of the members to integrate toward the target.

    The draw raises what an ensemble run under ``config`` would refuse as
    input, so a level whose draw succeeds runs in any ensemble call.
    """
    members = component.members
    rng = np.random.default_rng(opts["traj_seed"])
    if len(members) > opts["n_trajectories"]:
        starts = members[rng.choice(len(members), opts["n_trajectories"], replace=False)]
    else:
        starts = members
    t_end = opts["horizon"]
    if t_end is None:
        t_end = _auto_horizon(system, starts, target.distances)
    _check_t_end(config, t_end)
    return _Draw(level=component.level, starts=starts, horizon=t_end)


def _run_draws(system, draws: list[_Draw], config: IntegratorConfig,
               bound: float, stop: _Trap | None = None) -> EnsembleRun:
    """One lockstep ensemble over the starts of every draw, in draw order,
    each row ending at its own draw's horizon, or in the trap ``stop``."""
    return integrate_ensemble(
        system, np.concatenate([d.starts for d in draws]), config,
        bound=bound, t_ends=[d.horizon for d in draws for _ in d.starts], stop=stop)


@dataclass(frozen=True)
class _EnsembleEvidence:
    starts: np.ndarray
    horizon: float
    converged: int
    failures: list
    g_max: float
    reasons: list


def _ensemble_evidence(draw: _Draw, run: EnsembleRun, rows: slice, target, opts,
                       config: IntegratorConfig) -> _EnsembleEvidence:
    """The verdict of a draw's ensemble, read off its ``rows`` of ``run``.

    The max of the dissipated value over every recorded state is forward
    invariance evidence: a certified component must never be exited upward,
    so it is compared against the level plus the integrator band.
    """
    converged = 0
    failures = []
    g_max = -np.inf
    finished = np.array([error is None for error in run.failures[rows]], dtype=bool)
    dists = iter(target.distances(run.final[rows][finished]).tolist())
    for x0, error, g, final in zip(draw.starts, run.failures[rows],
                                   run.g_max[rows].tolist(), run.final[rows]):
        if error is not None:
            failures.append({"start": x0.tolist(), "finalDistance": None,
                             "error": error})
            continue
        g_max = max(g_max, g)
        d = next(dists)
        if d <= opts["converge_tol"]:
            converged += 1
        else:
            failures.append({"start": x0.tolist(), "final": final.tolist(),
                             "finalDistance": d, "error": None})

    reasons = []
    if converged < len(draw.starts):
        reasons.append(f"trajectories failed to converge to the {target.name}")
    if g_max > draw.level + 10.0 * config.local_tol(abs(draw.level)):
        reasons.append("a trajectory exited the sublevel set upward")
    return _EnsembleEvidence(starts=draw.starts, horizon=draw.horizon,
                             converged=converged, failures=failures,
                             g_max=float(g_max), reasons=reasons)


@dataclass(frozen=True)
class _Judgement:
    component: SublevelComponent
    witnesses: np.ndarray
    near: np.ndarray
    far: np.ndarray
    reasons: list                        # boundary contact, a missing or far witness
    ensemble: _EnsembleEvidence | None   # None: not run, as after a geometric failure


def _judge_geometry(system, component, witnesses, target) -> _Judgement:
    """The geometric half of the basin argument at one level, for either kind of target.

    A bounded component whose only degeneracy-set points lie on the target
    lies in the target's basin. So the level fails geometrically when the
    component reaches the box boundary, when a witness lies farther than
    ``witness_tol`` from the target, or when the target needs a witness and
    the scan found none; the trajectory ensemble (``_draw_ensemble``, then
    ``_ensemble_evidence`` on its run) then tests convergence and forward
    invariance. A sampled component of fewer than dim + 1 members, too few
    to span a simplex of the chart, carries no containment evidence and
    fails too.
    """
    dists = target.distances(witnesses)
    far = witnesses[dists > target.witness_tol]
    reasons = []
    if component.method == "sampled" and len(component.members) < system.dim + 1:
        reasons.append("component holds too few samples, containment unverified")
    if component.touches_boundary:
        reasons.append("component reaches the sampling box boundary, "
                       "containment unverified")
    if target.needs_witness and witnesses.size == 0:
        reasons.append(f"degeneracy-set scan found no witness at the {target.name}")
    if far.size:
        reasons.append(f"degeneracy-set witnesses found away from the {target.name}")
    return _Judgement(component=component, witnesses=witnesses,
                      near=witnesses[dists <= target.witness_tol], far=far,
                      reasons=reasons, ensemble=None)


def _certify_level(system, anchor, level, target, opts) -> _Judgement:
    """Judge a level on a freshly built component and witness scan.

    The certificates take this uncached path through the public functions,
    which the threshold search's leaf table must agree with. The members
    are checked against the premise first, and the level's ensemble is one
    lockstep call.
    """
    component = sublevel_component(system, anchor, level, opts["sampler"])
    _require_premise(system, component.members)
    witnesses = scan_invariant_witnesses(system, component, max_refine=opts["max_refine"])
    judged = _judge_geometry(system, component, witnesses, target)
    config, bound, trap = _ensemble_setup(system, target, component.anchor, opts)
    draw = _draw_ensemble(system, component, target, opts, config)
    return replace(judged, ensemble=_ensemble_evidence(
        draw, _run_draws(system, [draw], config, bound, trap), slice(None), target, opts,
        config))


def _require_stable(system: DissipativeSystem, x_e: np.ndarray,
                    stability: Stability | None) -> Stability:
    verdict = stability if stability is not None else stability_classify(system, x_e)
    if verdict is not Stability.ASYMPTOTICALLY_STABLE:
        raise NotAsymptoticallyStable(
            f"stability verdict is {verdict.value}; a basin certificate "
            "requires an asymptotically stable target")
    return verdict


@dataclass(frozen=True)
class _Certificate:
    """The fields, verdict and report keys that both certificates share."""

    passed: bool
    level: float
    component_size: int
    spacing: float
    touches_boundary: bool
    witnesses: np.ndarray
    far_witnesses: np.ndarray
    trajectories_total: int
    trajectories_converged: int
    failed_starts: list
    horizon: float
    reasons: list
    max_trajectory_g: float
    # properness of the dissipated quantity on the leaf is not decidable
    # numerically; the user's assertion is recorded, and without it a passing
    # certificate is only conditional
    proper_g_asserted: bool
    members: np.ndarray = field(repr=False)

    @classmethod
    def _from_judgement(cls, judged: _Judgement, reasons: list,
                        proper_g_asserted: bool, **own):
        component, ensemble = judged.component, judged.ensemble
        return cls(passed=not reasons, level=component.level,
                   component_size=len(component.members),
                   spacing=component.spacing,
                   touches_boundary=component.touches_boundary,
                   witnesses=judged.witnesses, far_witnesses=judged.far,
                   trajectories_total=len(ensemble.starts),
                   trajectories_converged=ensemble.converged,
                   failed_starts=ensemble.failures, horizon=ensemble.horizon,
                   reasons=reasons, max_trajectory_g=ensemble.g_max,
                   proper_g_asserted=proper_g_asserted,
                   members=component.members, **own)

    @property
    def verdict(self) -> str:
        if not self.passed:
            return "fail"
        return "pass" if self.proper_g_asserted else "conditional-pass"

    def as_report(self) -> dict:
        return {
            "passed": self.passed,
            "verdict": self.verdict,
            "properGAsserted": self.proper_g_asserted,
            "level": self.level,
            "componentSize": self.component_size,
            "spacing": self.spacing,
            "touchesBoundary": self.touches_boundary,
            "witnesses": self.witnesses.tolist(),
            "farWitnesses": self.far_witnesses.tolist(),
            "trajectoriesTotal": self.trajectories_total,
            "trajectoriesConverged": self.trajectories_converged,
            "failedStarts": self.failed_starts,
            "horizon": self.horizon,
            # -inf is the max over no finished trajectory: there is none
            "maxTrajectoryG": (None if self.max_trajectory_g == -np.inf
                               else self.max_trajectory_g),
            "reasons": self.reasons,
        }


@dataclass(frozen=True)
class BasinCertificate(_Certificate):
    """Evidence that a sublevel component lies in the basin of an equilibrium."""

    target: np.ndarray
    stability: Stability

    def as_report(self) -> dict:
        return {**super().as_report(), "target": self.target.tolist(),
                "stability": self.stability.value}


def basin_certify(system: DissipativeSystem, equilibrium, level: float,
                  sampler: SamplerConfig | None = None, *,
                  stability: Stability | None = None,
                  proper_g_asserted: bool = False,
                  converge_tol: float = 1e-4,
                  n_trajectories: int = 50,
                  horizon: float | None = None,
                  traj_seed: int = 7,
                  integrator: IntegratorConfig | None = None,
                  max_refine: int = 800) -> BasinCertificate:
    """Certify the sublevel component at ``level`` as basin evidence for an equilibrium.

    Raises :class:`NotAsymptoticallyStable` unless the equilibrium's
    leaf-restricted stability verdict is asymptotically stable (pass a
    precomputed verdict through ``stability`` to skip the sampling test), and
    :class:`AnchorOutsideLevel` when the level is below the equilibrium's own
    dissipated value. The witness scan is :func:`scan_invariant_witnesses`,
    and a witness farther than ``_TARGET_RADIUS`` (1e-3) from the
    equilibrium contradicts. A ``n_trajectories`` that is not an integer of
    at least 1, or a ``traj_seed`` that is not one of at least 0, is
    refused with :class:`ConfigError` before any work, and a component
    member where X does not annihilate every field with
    :class:`PremiseViolation` before the witness scan.
    """
    x_e = as_point(equilibrium, system.dim)
    _require_draw(n_trajectories, traj_seed)
    verdict = _require_stable(system, x_e, stability)
    judged = _certify_level(system, x_e, level, _equilibrium(x_e), dict(
        sampler=sampler, max_refine=max_refine, n_trajectories=n_trajectories,
        traj_seed=traj_seed, horizon=horizon, converge_tol=converge_tol, integrator=integrator))
    return BasinCertificate._from_judgement(
        judged, judged.reasons + judged.ensemble.reasons, proper_g_asserted,
        target=x_e, stability=verdict)


def distance_to_orbit(point, orbit_states: np.ndarray) -> float:
    """Distance from a point to a densely sampled closed orbit.

    The nearest sample and its two cyclic neighbors define a quadratic
    parametric arc; the point is projected onto that arc by a 1d Newton
    iteration. The arc interpolates a smooth orbit to third order in the
    sample spacing, so the reported distance is far sharper than the
    nearest-sample distance. This is :func:`_orbit_distances` on a stack
    of one row.
    """
    return float(_orbit_distances(np.asarray(point, dtype=float)[None], orbit_states)[0])


def _square_sums(d: np.ndarray) -> np.ndarray:
    """``np.sum(d ** 2, axis=-1)``, bitwise. numpy adds fewer than eight
    terms in turn, which a sum of the columns repeats at a fifth of the
    cost on a length-3 axis; it adds more pairwise, so those go to it."""
    d = d * d
    if d.shape[-1] >= 8:
        return np.sum(d, axis=-1)
    out = d[..., 0].copy()
    for i in range(1, d.shape[-1]):
        out += d[..., i]
    return out


def _nearest(pts: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Each row's nearest state by the sum of squared differences, the first
    of equals, in blocks of rows whose differences hold at most
    ``_NEAREST_FLOATS`` floats, or one row's."""
    j = np.empty(len(pts), dtype=int)
    block = max(1, _NEAREST_FLOATS // states.size)
    for lo in range(0, len(pts), block):
        j[lo:lo + block] = np.argmin(_square_sums(states - pts[lo:lo + block, None]), 1)
    return j


def _orbit_distances(pts: np.ndarray, orbit_states: np.ndarray) -> np.ndarray:
    """:func:`distance_to_orbit` of each row of an (m, n) stack.

    Each row's nearest sample comes from :func:`_nearest`, in bounded
    blocks of rows. The rows then run the arc Newton in lockstep: a row's
    arithmetic is its own, and it leaves where its own iteration stops
    (fp <= 0, a step below 1e-12, or 20 iterations).
    """
    m, count = len(pts), len(orbit_states)
    j = _nearest(pts, orbit_states)
    xm, x0, xp = orbit_states[(j - 1) % count], orbit_states[j], orbit_states[(j + 1) % count]
    a1 = 0.5 * (xp - xm)
    a2 = 0.5 * (xp - 2.0 * x0 + xm)

    s = np.zeros(m)
    # the iterating rows, their arcs, points and parameters
    live, x, b1, b2, p, sl = np.arange(m), x0, a1, a2, pts, np.zeros((m, 1))
    for _ in range(20):
        tangent = b1 + 2.0 * sl * b2
        off = x + sl * b1 + sl * sl * b2 - p
        fp = _row_dots(tangent, tangent) + 2.0 * _row_dots(off, b2)
        # a row with fp <= 0 stops where it is, its step 0
        go = ~(fp <= 0.0)
        step = np.divide(_row_dots(off, tangent), fp, out=np.zeros(len(fp)), where=go)
        s_new = np.clip(sl[:, 0] - step, -1.5, 1.5)
        s[live] = s_new
        # and a row whose step falls below 1e-12 at its new parameter
        go &= ~(np.abs(s_new - sl[:, 0]) < 1e-12)
        if not go.any():
            break
        live, x, b1, b2, p, sl = live[go], x[go], b1[go], b2[go], p[go], s_new[go, None]
    s = s[:, None]
    return _row_norms(x0 + s * a1 + s * s * a2 - pts)


def _orbit(orbit_states: np.ndarray, phase_states: np.ndarray) -> _Target:
    """An orbit certificate's target: the distance to the densely sampled
    orbit, and its phase states, for a trap, where there are at least three
    of them; a phase's chord needs two neighbours apart from each other."""
    return _Target("orbit", lambda pts: _orbit_distances(pts, orbit_states), _WITNESS_TOL,
                   float(np.max(np.linalg.norm(orbit_states, axis=1))), needs_witness=False,
                   states=phase_states if len(phase_states) > 2 else None)


def _detect_period(system, y0, cfg, t_search, coarse_tol, recur_tol):
    """Return time of the corrected flow from y0 back to y0, and x(t) along it.

    One run of the integrators' step loop on the point y0, read one step
    at a time and stopped one step after the first recorded local minimum
    of |x - y0| below ``coarse_tol`` once the flow has left that ball.
    Newton then refines the return time on <x(t) - y0, rhs(x(t))> = 0,
    with x(t) read off the continuous extension of the run's kept steps by
    ``integrators._dense_states``. The same read-out is returned, so the
    orbit samples are one read across all the steps, and a later time
    reads on into further steps of the same run.
    """
    steps = _lockstep(system, y0, replace(cfg, t_end=t_search))
    kept = []
    d = [0.0]
    rec_times = [0.0]
    left = False
    cand = None
    for step in steps:
        kept.append(step)
        if not step.recorded:
            continue
        d.append(float(np.linalg.norm(step.x_new - y0)))
        rec_times.append(step.t_new)
        i = len(d) - 2
        if i < 1:
            continue
        if d[i] > coarse_tol:
            left = True
        elif left and d[i] <= d[i - 1] and d[i] <= d[i + 1]:
            cand = i
            break
    if cand is None:
        raise NotPeriodic(
            f"no return within {coarse_tol:.3g} of the seed over [0, {t_search}]")

    def states_at(ts):
        """One row per time of a sorted array ts, or of the one time ts."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        # a late time reads on into steps of the same run
        while ts.size and ts[-1] > kept[-1].t_new:
            nxt = next(steps, None)
            if nxt is None:
                break
            kept.append(nxt)
        out = np.empty((ts.size, y0.size))
        first = int(np.searchsorted(ts, 0.0, side="right"))
        out[:first] = y0
        out[first:] = _dense_states(kept, ts[first:])
        return out

    def gaps(ts):
        xs = states_at(ts)
        return [float((x - y0) @ dissipated_rhs(system, x)) for x in xs], xs[0]

    t_cur = rec_times[cand]
    h_loc = max(rec_times[cand] - rec_times[cand - 1], 1e-6)
    for _ in range(12):
        dt_fd = 1e-6 * max(1.0, abs(t_cur))
        (g0, g1), _ = gaps([t_cur, t_cur + dt_fd])
        slope = (g1 - g0) / dt_fd
        if slope == 0.0:
            break
        dt = float(np.clip(-g0 / slope, -h_loc, h_loc))
        t_cur = t_cur + dt
        if abs(dt) < 1e-13 * max(1.0, t_cur):
            break
    _, x_cur = gaps([t_cur])
    miss = float(np.linalg.norm(x_cur - y0))
    if miss > recur_tol:
        raise NotPeriodic(
            f"closest return misses the seed by {miss:.3g} "
            f"(required {recur_tol:.3g})")
    if t_cur <= 0.0:
        raise NotPeriodic("refined return time is not positive")
    return float(t_cur), states_at


@dataclass(frozen=True)
class OrbitCertificate(_Certificate):
    """Evidence that a sublevel component is the basin of a periodic orbit."""

    seed_state: np.ndarray
    period: float
    orbit_in_invariant_set: bool
    max_det_full: float
    max_grad_g: float
    coverage_gap: float
    covered: bool
    phase_states: np.ndarray

    def as_report(self) -> dict:
        return {**super().as_report(),
                "seed": self.seed_state.tolist(),
                "period": self.period,
                "orbitInInvariantSet": self.orbit_in_invariant_set,
                "maxDetFull": self.max_det_full,
                "maxGradGNorm": self.max_grad_g,
                # inf is the gap to no near witness: there is none
                "coverageGap": None if self.coverage_gap == np.inf else self.coverage_gap,
                "covered": self.covered}


def periodic_orbit_certify(system: DissipativeSystem, seed_point, level: float,
                           sampler: SamplerConfig | None = None, *,
                           proper_g_asserted: bool = False,
                           recur_tol: float = 1e-8,
                           coarse_tol: float = 0.2,
                           t_search: float = 50.0,
                           n_phases: int = 100,
                           converge_tol: float = 1e-4,
                           n_trajectories: int = 50,
                           horizon: float | None = None,
                           traj_seed: int = 11,
                           integrator: IntegratorConfig | None = None,
                           max_refine: int = 800) -> OrbitCertificate:
    """Certify the sublevel component around a periodic orbit of the corrected flow.

    The seed is refined onto the degeneracy set, its period is recovered by
    recurrence detection plus a local Newton refinement of the return time,
    ``_DENSE_STATES`` orbit points are read off the steps of that same run, the
    orbit itself is re-classified at ``n_phases`` phases, and the level is
    then judged exactly as for an equilibrium, with distances measured to the
    densely sampled orbit: a witness farther than 1e-6 from it contradicts.
    The witnesses near the orbit must also cover it, each phase within two
    spacings of one.

    Without an ``integrator``, period detection runs the default method,
    dop853, at rel_tol 1e-10, abs_tol 1e-12, and reads the orbit samples
    and the return-time Newton off its seventh-order extension; the
    ensembles then run at their own default tolerances. A given config is
    used for both. An orbit phase or component member where X does not
    annihilate every field is refused with :class:`PremiseViolation`.
    """
    seed0 = as_point(seed_point, system.dim)
    _require_draw(n_trajectories, traj_seed)
    _require_count("n_phases", n_phases, 1)
    cfg = integrator or IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
    y0 = refine_to_invariant_set(system, seed0, trust_radius=_SEED_TRUST)
    if y0 is None:
        # run recurrence detection on the raw seed anyway so the error names
        # the actual obstruction: a strictly dissipating start is NotPeriodic,
        # while a recurrent one merely failed the degeneracy refinement
        _detect_period(system, seed0, cfg, t_search, coarse_tol, recur_tol)
        raise NotOnInvariantSet(
            "seed does not refine onto the degeneracy set within "
            f"{_SEED_TRUST:.3g} of {seed0.tolist()}")

    period, orbit_at = _detect_period(system, y0, cfg, t_search, coarse_tol, recur_tol)

    cps = np.linspace(0.0, period, _DENSE_STATES, endpoint=False)[1:]
    orbit_states = np.concatenate((y0[None], orbit_at(cps)))

    phase_idx = (np.arange(n_phases) * len(orbit_states)) // n_phases
    phase_states = orbit_states[phase_idx]
    _require_premise(system, phase_states)
    classes = _classify_rows(system, phase_states, tol_inv=1e-12, tol_g=1e-8)
    max_det = max([0.0] + [cls.det_full for cls in classes])
    max_g = max([0.0] + [cls.grad_g_norm for cls in classes])
    on_inv = all(cls.in_invariant_set for cls in classes)

    judged = _certify_level(system, y0, level, _orbit(orbit_states, phase_states), dict(
        sampler=sampler, max_refine=max_refine, n_trajectories=n_trajectories,
        traj_seed=traj_seed, horizon=horizon, converge_tol=converge_tol, integrator=integrator))

    # each phase's distance to its nearest near witness (inf with none), the
    # largest of them
    gaps = np.linalg.norm(judged.near - phase_states[:, None], axis=-1)
    gap = float(np.max(np.min(gaps, axis=1, initial=np.inf)))
    covered = gap <= _COVERAGE_FACTOR * judged.component.spacing

    reasons = [] if on_inv else ["orbit phases leave the degeneracy set at tight tolerance"]
    reasons += judged.reasons
    if not covered:
        reasons.append("witnesses do not cover the orbit")
    reasons += judged.ensemble.reasons

    return OrbitCertificate._from_judgement(
        judged, reasons, proper_g_asserted, seed_state=y0, period=period,
        orbit_in_invariant_set=on_inv, max_det_full=max_det, max_grad_g=max_g,
        coverage_gap=float(gap), covered=covered, phase_states=phase_states)


def threshold_search(system: DissipativeSystem, equilibrium, level_max: float,
                     steps: int = 8,
                     sampler: SamplerConfig | None = None,
                     **certify_kwargs):
    """Bisection for the largest certifiable sublevel for an equilibrium.

    Returns ``(level, history)`` where history lists ``(level, passed)``
    pairs in evaluation order. Raises :class:`NoValidLevel` when no probed
    level certifies. ``certify_kwargs`` are :func:`basin_certify`'s keyword
    options, and ``passed`` at every level is what ``basin_certify`` would
    return there.

    The level-independent work is done once per call: the leaf table (grid
    cells or samples projected onto the equilibrium's leaf, with their
    dissipated values) is built once, and each point's witness score and
    refinement are computed at most once. A level then costs a selection and
    a witness scan over cached results, and its trajectory ensemble runs
    only when no geometric reason (boundary contact, a missing or far
    witness) has already failed it.

    The search speculates, in three phases. Plan: from the current state of
    the bisection, ``level_max`` first, it walks the levels on the guess
    that a level passes exactly when its geometry passes, judging each
    level's geometry and drawing the ensemble (starts, horizon, bound) of
    each level whose geometry passes. Run: the ensembles of every planned
    level are one lockstep ``integrate_ensemble`` call, each row ending at
    its own level's horizon. Commit: the planned levels are walked in
    order; the first whose ensemble fails is recorded as failed, the rest
    of the plan is dropped, and from there on each level is judged and
    integrated alone. So at most one speculative tail per search is
    integrated in vain. The table caches only pure memos and each row takes
    the steps of its solo run, so ``(level, history)``, every verdict and
    every trajectory are those of judging the levels one after another. An
    error raised while planning a level (or by a speculative run, which is
    then redone a level at a time) is raised only if the committed walk
    reaches that level; so is a :class:`PremiseViolation` at a member of
    that level's component, whose table row is evaluated until it passes
    once.
    """
    x_e = as_point(equilibrium, system.dim)
    g_e = float(system.dissipated(x_e))
    if not level_max > g_e:
        raise NoValidLevel(
            f"level_max {level_max:.6g} does not exceed the equilibrium "
            f"value {g_e:.6g}")
    # basin_certify's own defaults, and its TypeError for an unknown option;
    # _require_stable classifies the target only when no verdict is given
    call = inspect.signature(basin_certify).bind(
        system, x_e, level_max, sampler, **certify_kwargs)
    call.apply_defaults()
    opts = call.arguments
    _require_draw(opts["n_trajectories"], opts["traj_seed"])
    _require_count("steps", steps, 1)
    _require_stable(system, x_e, opts["stability"])

    table = _LeafTable(system, x_e, system.leaf_value(x_e), sampler or SamplerConfig())
    target = _equilibrium(x_e)
    config, bound, trap = _ensemble_setup(system, target, x_e, opts)

    def advance(state, level, ok):
        """The bisection's ``(lo, hi, probed)`` after ``level`` passed (ok) or
        failed, or None where level_max passed, which ends the search. Every
        level is at least g_e, since fl(lo + hi) / 2 >= lo."""
        lo, hi, probed = state
        if not ok:
            return lo, level, probed + 1
        return None if probed == 0 else (level, hi, probed + 1)

    def plan(state, speculate):
        """The levels of the bisection from ``state``, each guessed to pass
        exactly when its geometry does, or only the next one: ``(level,
        draw, error)``, the draw None where geometry failed."""
        planned = []
        while state is not None and state[2] <= steps and (speculate or not planned):
            lo, hi, probed = state
            level = level_max if probed == 0 else 0.5 * (lo + hi)
            try:
                component, rows = table.select(level)
                table.require_premise(rows)
                geometry = _judge_geometry(system, component,
                                           table.witnesses(component, rows, opts), target)
                draw = (None if geometry.reasons
                        else _draw_ensemble(system, component, target, opts, config))
            except Exception as exc:
                # raised by the committed walk, if it reaches this level
                planned.append((level, None, exc))
                break
            planned.append((level, draw, None))
            state = advance(state, level, draw is not None)
        return planned

    # level_max is probed first, then up to ``steps`` midpoints
    history = []
    state = (g_e, level_max, 0)
    speculate = True
    while state[2] <= steps:
        planned = plan(state, speculate)
        draws = [draw for _, draw, _ in planned if draw is not None]
        try:
            run = _run_draws(system, draws, config, bound, trap) if draws else None
        except Exception:
            if not speculate:
                raise
            # redone a level at a time, so the error comes from the level
            # the sequential search would meet it at, if any
            speculate = False
            continue
        at = 0
        for level, draw, error in planned:
            if error is not None:
                raise error
            ok = False
            if draw is not None:
                rows = slice(at, at + len(draw.starts))
                at = rows.stop
                ok = not _ensemble_evidence(draw, run, rows, target, opts, config).reasons
            history.append((level, ok))
            state = advance(state, level, ok)
            if state is None:
                return level_max, history
            if ok != (draw is not None):
                # the ensemble failed a level its geometry passed: the rest
                # of the plan bisected the other way
                speculate = False
                break
    if not any(ok for _, ok in history):
        raise NoValidLevel(
            f"no level in ({g_e:.6g}, {level_max:.6g}] certifies "
            f"after {steps} bisection steps")
    return state[0], history
