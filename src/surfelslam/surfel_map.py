"""Surfel map structures: multi-resolution sparse ellipsoid surfels, dense
disc surfels with Wishart state, the global sparse/dense map pair, and the
one fixed-radius lookup every caller shares.

Dense surfels are stored as arrays.  A ``DenseSurfels`` batch holds one
array per ``DenseSurfel`` field with the surfels along the first axis, and
``DenseSurfelMap`` keeps its surfels in one such batch whose row ``k`` is
key ``k``, grown by doubling.  A ``DenseSurfel`` is a value: the map and a
batch hand one out as a read view of a row, copied and not re-checked.

One function, ``check_dense``, validates dense surfel fields: finite values
of the right shapes, symmetrized positive semidefinite covariances, unit
normals and ``dof`` of at least one.  It runs once per batch where a batch
is made (``extract_dense``, a fusion step's fused rows) and on a batch of
one where a single ``DenseSurfel`` is built.  Sparse surfels have the same
kind of batch check, ``_check_sparse``.

The lookup is a bulk radius-pair kernel over a uniform grid (Teschner et
al., Optimized Spatial Hashing, VMV 2003): it sorts the points by cell key
and expands every point pair of each pair of neighbouring occupied cells.
``_radius_pairs`` joins one point set with itself over each cell's 13
half-neighbours; ``radius_join`` joins two sets and expands only pairs of a
cell of one set with a cell of the other, which serves the dense map's
queries and fusion's matching.  Dense extraction works on a whole scan at
once: seeding takes the lexicographically-first maximal independent set of
the pairs closer than the radius, and each seed's moments are segment sums
over its pairs.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError

DEFAULT_SURFEL_RADIUS = 0.02
PSD_TOLERANCE = -1e-12
UNIT_TOLERANCE = 1e-9
# Every grid search pads its radius by this factor (the cell edge of the
# pair kernel, the box radius_join crops to), so that no point the rounded
# test d² ≤ r² accepts lies in a cell or outside a box the search skips.
CELL_REACH = 1.0 + 1e-12


def _symmetrize(m):
    m = np.asarray(m, dtype=float)
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def _row_dot(a, b):
    """Row-wise dot products of two stacks of vectors, through ``matmul`` so
    each rounds as the scalar ``a @ b`` does."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _require_psd(eigenvalues, what):
    """Raise unless every ascending eigenvalue row is non-negative within
    ``PSD_TOLERANCE`` of its largest magnitude (at least 1)."""
    scale = np.maximum(np.abs(eigenvalues[:, -1]), 1.0)
    if (eigenvalues[:, 0] < PSD_TOLERANCE * scale).any():
        raise InvalidArgumentError(f"{what} is not positive semidefinite")


def clamp_psd(m):
    """Symmetrize and clamp negative eigenvalues at zero, for one matrix or a
    stack of them; the result is exactly symmetric."""
    sym = _symmetrize(m)
    eigenvalues, vectors = np.linalg.eigh(sym)
    psd = eigenvalues[..., 0] >= 0.0
    if np.all(psd):
        return sym
    clamped = (vectors * np.maximum(eigenvalues, 0.0)[..., None, :]) @ np.swapaxes(
        vectors, -1, -2
    )
    return np.where(psd[..., None, None], sym, _symmetrize(clamped))


def _unchecked(cls, values):
    """An instance of a frozen surfel dataclass from fields a batch check has
    already passed."""
    surfel = object.__new__(cls)
    surfel.__dict__.update(values)
    return surfel


def _check_sparse(covariance):
    """The sparse surfel check on a stack of covariances: each is
    symmetrized and must be positive semidefinite within tolerance.  Returns
    the symmetrized stack, each one's normal (smallest-eigenvalue
    eigenvector) and planarity ``(l1 - l0) / l2``."""
    cov = _symmetrize(covariance)
    if cov.ndim != 3 or cov.shape[1:] != (3, 3) or not np.isfinite(cov).all():
        raise InvalidArgumentError("sparse surfel covariance must be a finite 3x3 matrix")
    eigenvalues, vectors = np.linalg.eigh(cov)
    _require_psd(eigenvalues, "sparse surfel covariance")
    scale = np.maximum(eigenvalues[:, 2], 1e-30)
    return cov, vectors[:, :, 0], (eigenvalues[:, 1] - eigenvalues[:, 0]) / scale


@dataclass(frozen=True)
class SparseSurfel:
    """Ellipsoid surfel: voxel point statistics at one resolution."""

    centroid: np.ndarray
    covariance: np.ndarray
    count: int
    resolution: float
    timestamp: float
    normal: np.ndarray = None
    planarity: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "centroid", np.asarray(self.centroid, dtype=float))
        cov, normal, planarity = _check_sparse(np.asarray(self.covariance, dtype=float)[None])
        object.__setattr__(self, "covariance", cov[0])
        if self.normal is None:
            object.__setattr__(self, "normal", normal[0].copy())
            object.__setattr__(self, "planarity", float(planarity[0]))
        else:
            object.__setattr__(self, "normal", np.asarray(self.normal, dtype=float))


@dataclass(frozen=True)
class DenseSurfel:
    """Disc surfel with normal-inverse-Wishart state.

    ``scatter`` is the accrued (unnormalized) second-moment matrix whose
    smallest-eigenvalue eigenvector is the surface normal; ``centroid_cov``
    is the uncertainty of the centroid estimate; ``dof`` counts the points
    accrued into the scatter.  Building one runs ``check_dense`` on a batch
    of one.
    """

    centroid: np.ndarray
    normal: np.ndarray
    centroid_cov: np.ndarray
    scatter: np.ndarray
    dof: float
    obs_count: int
    timestamp: float
    radius: float = DEFAULT_SURFEL_RADIUS
    colour: np.ndarray = field(default_factory=lambda: np.full(3, 0.5))
    colour_sigma: float = 0.5

    def __post_init__(self):
        one = DenseSurfels(*(np.asarray(getattr(self, f))[None] for f in _DENSE_LAYOUT))
        self.__dict__.update(_row(check_dense(one), 0))


# Per-surfel shape and dtype of each ``DenseSurfel`` field, in field order.
_DENSE_LAYOUT = {
    "centroid": ((3,), float),
    "normal": ((3,), float),
    "centroid_cov": ((3, 3), float),
    "scatter": ((3, 3), float),
    "dof": ((), float),
    "obs_count": ((), np.int64),
    "timestamp": ((), float),
    "radius": ((), float),
    "colour": ((3,), float),
    "colour_sigma": ((), float),
}


@dataclass(frozen=True, eq=False)
class DenseSurfels:
    """A batch of dense surfels: one array per ``DenseSurfel`` field, the
    surfels along the first axis.

    Batches come from ``check_dense``, from ``DenseSurfels.of`` over
    checked surfels, or from rows of either.  An integer index (a numpy
    integer too) gives a ``DenseSurfel`` view of that row, any other index
    the sub-batch it selects; iteration yields views.
    """

    centroid: np.ndarray
    normal: np.ndarray
    centroid_cov: np.ndarray
    scatter: np.ndarray
    dof: np.ndarray
    obs_count: np.ndarray
    timestamp: np.ndarray
    radius: np.ndarray
    colour: np.ndarray
    colour_sigma: np.ndarray

    def __len__(self):
        return len(self.dof)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return _unchecked(DenseSurfel, _row(self, index))
        return DenseSurfels(*(getattr(self, f)[index] for f in _DENSE_LAYOUT))

    def __iter__(self):
        return (self[k] for k in range(len(self)))

    @classmethod
    def empty(cls, n=0):
        """``n`` zero rows; they fail the check, so only fill them."""
        return cls(*(np.zeros((n,) + shape, dtype) for shape, dtype in _DENSE_LAYOUT.values()))

    @classmethod
    def of(cls, surfels):
        """The batch of checked ``DenseSurfel`` values, or ``surfels`` itself
        when it is a batch."""
        if isinstance(surfels, DenseSurfels):
            return surfels
        surfels = list(surfels)
        n = len(surfels)
        return cls(*(
            np.array([getattr(s, f) for s in surfels], dtype=dtype).reshape((n,) + shape)
            for f, (shape, dtype) in _DENSE_LAYOUT.items()
        ))


def _row(batch, k):
    """The fields of row ``k``: array fields copied, scalars as Python
    numbers."""
    return {
        f: getattr(batch, f)[k].copy() if shape else getattr(batch, f).item(k)
        for f, (shape, _) in _DENSE_LAYOUT.items()
    }


def _put(batch, rows, values):
    """Write the rows of ``values`` into ``batch`` at ``rows``."""
    for f in _DENSE_LAYOUT:
        getattr(batch, f)[rows] = getattr(values, f)


def check_dense(batch: DenseSurfels) -> DenseSurfels:
    """The one check of dense surfel fields, over a whole batch.

    Every field must have its per-surfel shape, with one common length, and
    finite values; ``dof`` must be at least 1.  Both covariance stacks are
    symmetrized and must be positive semidefinite within tolerance (one
    ``eigvalsh`` over both), and normals must have unit length.  Returns the
    batch with float fields, ``int64`` observation counts and the
    symmetrized covariances.
    """
    values = {f: np.asarray(getattr(batch, f)) for f in _DENSE_LAYOUT}
    n = len(values["dof"].reshape(-1))
    for f, (shape, _) in _DENSE_LAYOUT.items():
        if values[f].shape != (n,) + shape:
            raise InvalidArgumentError(f"dense surfel {f} must have shape {shape}")
    if not np.isfinite(np.concatenate([v.reshape(n, -1) for v in values.values()], axis=1)).all():
        bad = next(f for f, v in values.items() if not np.isfinite(v).all())
        raise InvalidArgumentError(f"dense surfel {bad} must be finite")
    values = {f: values[f].astype(dtype, copy=False) for f, (_, dtype) in _DENSE_LAYOUT.items()}
    if (values["dof"] < 1.0).any():
        raise InvalidArgumentError("dense surfel dof must be at least 1")
    for f in ("centroid_cov", "scatter"):
        values[f] = _symmetrize(values[f])
    eigenvalues = np.linalg.eigvalsh(np.concatenate([values["centroid_cov"], values["scatter"]]))
    _require_psd(eigenvalues, "dense surfel centroid covariance or scatter")
    normal = values["normal"]
    if (np.abs(np.sqrt(_row_dot(normal, normal)) - 1.0) > UNIT_TOLERANCE).any():
        raise InvalidArgumentError("dense surfel normal must be unit length")
    return DenseSurfels(**values)


class _SurfelsByKey(Mapping):
    """Key → ``DenseSurfel`` view of a dense map, in key order."""

    def __init__(self, dense_map):
        self._map = dense_map

    def __getitem__(self, key):
        return self._map.get(key)

    def __iter__(self):
        return iter(self._map.keys().tolist())

    def __len__(self):
        return len(self._map)


class DenseSurfelMap:
    """Dense surfel store keyed by insertion order; single writer, many
    readers.

    Row ``k`` of one ``DenseSurfels`` batch holds key ``k``.  The batch
    doubles its capacity when it fills, so ``add`` is amortized O(1); a
    removed key's row stays unused, since keys are never reused.  ``get``
    and ``surfels`` give ``DenseSurfel`` views, ``rows`` and ``write`` move
    whole batches.
    """

    def __init__(self):
        self._rows = DenseSurfels.empty()
        self._alive = np.zeros(0, dtype=bool)
        self._next = 0
        self._count = 0

    def __len__(self):
        return self._count

    @property
    def surfels(self):
        """The stored surfels as a key → ``DenseSurfel`` mapping."""
        return _SurfelsByKey(self)

    def keys(self):
        """The stored keys, ascending, as an array."""
        return np.flatnonzero(self._alive[: self._next])

    def _stored(self, keys):
        """``keys`` as an index array, or ``KeyError`` unless all are stored."""
        index = np.asarray(keys)
        if index.size == 0:
            return index.astype(np.intp)
        if (
            index.dtype.kind not in "iu"
            or np.any((index < 0) | (index >= self._next))
            or not self._alive[index].all()
        ):
            raise KeyError(keys)
        return index

    def _one(self, key):
        try:
            index = operator.index(key)
        except TypeError:
            raise KeyError(key) from None
        if not (0 <= index < self._next and self._alive[index]):
            raise KeyError(key)
        return index

    def get(self, key) -> DenseSurfel:
        return self._rows[self._one(key)]

    def rows(self, keys) -> DenseSurfels:
        """A copy of the surfels at ``keys``."""
        return self._rows[self._stored(keys)]

    def add(self, surfel: DenseSurfel) -> int:
        return int(self.extend(DenseSurfels.of([surfel]))[0])

    def extend(self, batch: DenseSurfels):
        """Store every surfel of a checked batch, in order; returns their
        keys."""
        keys = np.arange(self._next, self._next + len(batch))
        if keys.size and keys[-1] >= len(self._alive):
            capacity = max(2 * len(self._alive), keys[-1] + 1, 16)
            grown = DenseSurfels.empty(capacity)
            _put(grown, slice(0, self._next), self._rows[: self._next])
            alive = np.zeros(capacity, dtype=bool)
            alive[: self._next] = self._alive[: self._next]
            self._rows, self._alive = grown, alive
        _put(self._rows, keys, batch)
        self._alive[keys] = True
        self._next += len(keys)
        self._count += len(keys)
        return keys

    def replace(self, key, surfel: DenseSurfel):
        _put(self._rows, [self._one(key)], DenseSurfels.of([surfel]))

    def write(self, keys, batch: DenseSurfels):
        """Overwrite the surfels at ``keys`` with the rows of a checked
        batch."""
        _put(self._rows, self._stored(keys), batch)

    def remove(self, keys):
        """Delete one key or an array of keys."""
        index = np.unique(self._stored(keys))
        self._alive[index] = False
        self._count -= index.size

    def query_radius(self, center, radius):
        """Keys of the surfels whose centroid lies within ``radius`` of
        ``center``, sorted."""
        keys = self.keys()
        _, found, _ = radius_join(center, self._rows.centroid[keys], radius)
        return sorted(keys[found].tolist())


def merge_moments(mean_a, cov_a, n_a, mean_b, cov_b, n_b):
    """Pooled mean and sample covariance of two point groups."""
    n = n_a + n_b
    mean = (n_a * mean_a + n_b * mean_b) / n
    diff = np.outer(mean_a - mean_b, mean_a - mean_b)
    scatter = (n_a - 1) * cov_a + (n_b - 1) * cov_b + (n_a * n_b / n) * diff
    cov = scatter / max(n - 1, 1)
    return mean, clamp_psd(cov), n


class SparseSurfelMap:
    """Sparse surfel store keyed by (resolution, voxel); fusing a surfel into
    an occupied voxel pools the voxel moments."""

    def __init__(self):
        self.by_voxel = {}

    def __len__(self):
        return len(self.by_voxel)

    def all(self):
        return list(self.by_voxel.values())

    @staticmethod
    def _key(surfel: SparseSurfel):
        voxel = tuple(np.floor(surfel.centroid / surfel.resolution).astype(int))
        return (surfel.resolution, voxel)

    def fuse(self, surfels):
        for s in surfels:
            key = self._key(s)
            existing = self.by_voxel.get(key)
            if existing is None:
                self.by_voxel[key] = s
                continue
            mean, cov, n = merge_moments(
                existing.centroid,
                existing.covariance,
                existing.count,
                s.centroid,
                s.covariance,
                s.count,
            )
            self.by_voxel[key] = SparseSurfel(
                mean, cov, n, s.resolution, max(existing.timestamp, s.timestamp)
            )


@dataclass
class GlobalMaps:
    """The global sparse and dense maps that temporal fusion grows."""

    sparse: SparseSurfelMap = field(default_factory=SparseSurfelMap)
    dense: DenseSurfelMap = field(default_factory=DenseSurfelMap)


def voxelize_sparse(points, times, resolutions, min_points=5):
    """Sparse ellipsoid surfels from multi-resolution voxels.

    One surfel per occupied voxel per resolution when the voxel holds at
    least ``min_points`` points (two or more): centroid is the mean,
    covariance the sample covariance.  The moments are taken voxel by
    voxel; clamping and the sparse check run once over the stack.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    times = np.asarray(times, dtype=float).reshape(-1)
    if len(resolutions) < 1:
        raise InvalidArgumentError("need at least one voxel resolution")
    if times.shape != (len(points),):
        raise InvalidArgumentError("need one time per point")
    if not (np.isfinite(points).all() and np.isfinite(times).all()):
        raise InvalidArgumentError("points and times must be finite")
    extent = float(np.abs(points).max(initial=0.0))
    if not all(math.isfinite(r) and r > 0.0 and extent < 2.0**62 * r for r in resolutions):
        raise InvalidArgumentError(
            "voxel resolutions must be positive, finite and large enough for int64 voxel keys"
        )
    if min_points < 2:
        raise InvalidArgumentError("a voxel covariance needs at least two points")
    moments = []
    for resolution in resolutions:
        if points.shape[0] == 0:
            continue
        keys = np.floor(points / resolution).astype(np.int64)
        _, inverse, counts = np.unique(
            keys, axis=0, return_inverse=True, return_counts=True
        )
        order = np.argsort(inverse, kind="stable")
        boundaries = np.cumsum(counts)[:-1]
        for group in np.split(order, boundaries):
            if group.size < min_points:
                continue
            pts = points[group]
            mean = pts.mean(axis=0)
            centered = pts - mean
            cov = centered.T @ centered / (group.size - 1)
            moments.append(
                (mean, cov, int(group.size), float(resolution), float(times[group].mean()))
            )
    if not moments:
        return []
    cov, normal, planarity = _check_sparse(clamp_psd(np.array([m[1] for m in moments])))
    return [
        _unchecked(SparseSurfel, {
            "centroid": mean, "covariance": cov[k], "count": count,
            "resolution": resolution, "timestamp": timestamp,
            "normal": normal[k].copy(), "planarity": float(planarity[k]),
        })
        for k, (mean, _, count, resolution, timestamp) in enumerate(moments)
    ]


@dataclass
class DenseExtractionConfig:
    radius: float = DEFAULT_SURFEL_RADIUS
    min_points: int = 5
    beam_sigma: float = 0.003


_NEIGHBOURHOOD = np.array(list(itertools.product((-1, 0, 1), repeat=3)))
# The neighbouring cell offsets that follow (0, 0, 0) in lexicographic
# order, with (0, 0, 0) itself: each pair of occupied cells is visited once.
_HALF_NEIGHBOURHOOD = np.array([o for o in _NEIGHBOURHOOD.tolist() if o >= [0, 0, 0]])


def _cell_keys(points, radius, offsets):
    """Linearized grid cell keys of ``points`` and the key steps of
    ``offsets``.

    Cells have edge ``radius`` padded by ``CELL_REACH``, so no pair the
    rounded distance test accepts lies more than one cell apart; at radius 0
    any edge is exact, and 1 is used.
    """
    cell = radius * CELL_REACH or 1.0
    ijk = np.floor(points / cell)
    ijk -= ijk.min(axis=0) - 1.0
    # One empty layer on either side keeps every neighbour key in range.
    dims = ijk.max(axis=0) + 2.0
    if float(np.prod(dims)) >= 2.0**62:
        raise InvalidArgumentError("point extent spans too many cells of the radius")
    ijk = ijk.astype(np.int64)
    dims = dims.astype(np.int64)
    keys = (ijk[:, 0] * dims[1] + ijk[:, 1]) * dims[2] + ijk[:, 2]
    steps = (offsets[:, 0] * dims[1] + offsets[:, 1]) * dims[2] + offsets[:, 2]
    return keys, steps


def _occupied(keys):
    """The stable sort order of ``keys`` and, per occupied cell, its key and
    the start and count of its points in that order."""
    order = np.argsort(keys, kind="stable")
    cells, starts, counts = np.unique(keys[order], return_index=True, return_counts=True)
    return order, cells, starts, counts


def _neighbour_cells(cells_a, cells_b, steps):
    """Index pairs into ``cells_a`` and ``cells_b`` of the occupied cells one
    of ``steps`` apart."""
    targets = (cells_a[:, None] + steps).ravel()
    found = np.minimum(np.searchsorted(cells_b, targets), len(cells_b) - 1)
    hit = cells_b[found] == targets
    return np.repeat(np.arange(len(cells_a)), len(steps))[hit], found[hit]


def _expand(starts_a, counts_a, starts_b, counts_b):
    """Every pair of sorted positions of each cell pair, given the two
    cells' starts and counts."""
    sizes = counts_a * counts_b
    local = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    width = np.repeat(counts_b, sizes)
    return (np.repeat(starts_a, sizes) + local // width,
            np.repeat(starts_b, sizes) + local % width)


def _sq_dist(p, q):
    """Squared distances of paired rows, summed as ``dx*dx + dy*dy + dz*dz``."""
    d = q - p
    return d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2]


def _radius_pairs(points, radius):
    """Every unordered pair of ``points`` within ``radius``: index arrays
    ``i < j`` and the squared distances, in no particular order.

    Each occupied cell is paired with itself and with the occupied cells
    among its 13 half-neighbours, and every point pair of every cell pair is
    expanded and tested.
    """
    keys, steps = _cell_keys(points, radius, _HALF_NEIGHBOURHOOD)
    order, cells, starts, counts = _occupied(keys)
    a_cell, b_cell = _neighbour_cells(cells, cells, steps)
    a, b = _expand(starts[a_cell], counts[a_cell], starts[b_cell], counts[b_cell])
    # A later cell's positions all follow an earlier one's, so this keeps
    # each same-cell pair once and every cross-cell pair.
    keep = a < b
    i, j = order[a[keep]], order[b[keep]]
    d_sq = _sq_dist(points[i], points[j])
    inside = d_sq <= radius * radius
    i, j = i[inside], j[inside]
    return np.minimum(i, j), np.maximum(i, j), d_sq[inside]


def radius_join(a, b, radius):
    """Every pair of a point of ``a`` and a point of ``b`` within ``radius``:
    index arrays into ``a`` and ``b`` and the squared distances, in no
    particular order.

    Both sets are keyed on one grid.  Each occupied cell of ``a`` is paired
    with the occupied cells of ``b`` among its 27 neighbours, and only those
    cross-set point pairs are expanded and tested.  Only the points of ``b``
    inside ``a``'s bounding box, padded by the radius, take part, so a small
    ``a`` over a wide ``b`` spans few cells.
    """
    a = np.asarray(a, dtype=float).reshape(-1, 3)
    b = np.asarray(b, dtype=float).reshape(-1, 3)
    if not radius >= 0.0:
        raise InvalidArgumentError("radius must be non-negative")
    reach = radius * CELL_REACH
    if len(a):
        inside = np.all((b >= a.min(axis=0) - reach) & (b <= a.max(axis=0) + reach), axis=1)
        near = np.flatnonzero(inside)
        b = b[near]
    if len(a) == 0 or len(b) == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0)
    keys, steps = _cell_keys(np.concatenate([a, b]), radius, _NEIGHBOURHOOD)
    order_a, cells_a, starts_a, counts_a = _occupied(keys[: len(a)])
    order_b, cells_b, starts_b, counts_b = _occupied(keys[len(a):])
    a_cell, b_cell = _neighbour_cells(cells_a, cells_b, steps)
    pa, pb = _expand(starts_a[a_cell], counts_a[a_cell], starts_b[b_cell], counts_b[b_cell])
    i, j = order_a[pa], order_b[pb]
    d_sq = _sq_dist(a[i], b[j])
    inside = d_sq <= radius * radius
    return i[inside], near[j[inside]], d_sq[inside]


def _first_independent_set(n, lo, hi):
    """Mask of the vertices that a greedy pass in index order accepts into an
    independent set of the graph with edges ``lo < hi``: the
    lexicographically-first maximal independent set, computed in parallel
    rounds (Blelloch, Fineman & Shun, SPAA 2012).

    Each round accepts the undecided vertices with no undecided earlier
    neighbour and rejects their later neighbours.  Edges with a decided end
    are dropped, so a rejected vertex holds back no later one.  The lowest
    undecided vertex is always accepted, so the rounds end.
    """
    accepted = np.zeros(n, dtype=bool)
    undecided = np.ones(n, dtype=bool)
    while undecided.any():
        live = undecided[lo] & undecided[hi]
        lo, hi = lo[live], hi[live]
        roots = undecided.copy()
        roots[hi] = False
        accepted |= roots
        undecided &= ~roots
        undecided[hi[roots[lo]]] = False
    return accepted


def extract_dense(points, times, traj=None, cfg: DenseExtractionConfig | None = None,
                  colours=None) -> DenseSurfels:
    """Dense disc surfels from deskewed points, as one checked batch.

    Points are deskewed through ``traj`` when given (world point =
    ``T(t_i) p_i``).  Seeds are accepted greedily in input order, each
    rejected only by an earlier seed strictly closer than one surfel radius,
    and each seed's neighborhood (the points within the radius, itself
    included, in input order) provides the centroid, the accrued scatter,
    the centroid uncertainty (scatter over ``n (n-1)`` plus the beam noise
    floor), and the initial Wishart count.  Seeds with fewer than
    ``min_points`` neighbors yield no surfel; surfels follow seed order.
    Normals point toward the observing sensor.
    """
    if cfg is None:
        cfg = DenseExtractionConfig()
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    times = np.asarray(times, dtype=float).reshape(-1)
    n = len(points)
    if colours is not None:
        colours = np.asarray(colours, dtype=float)
    if times.shape != (n,) or (colours is not None and colours.shape != (n, 3)):
        raise InvalidArgumentError("need one time and one RGB colour per point")
    if not (
        np.isfinite(points).all()
        and np.isfinite(times).all()
        and (colours is None or np.isfinite(colours).all())
    ):
        raise InvalidArgumentError("points, times and colours must be finite")
    if not (math.isfinite(cfg.radius) and cfg.radius > 0.0):
        raise InvalidArgumentError("surfel radius must be positive and finite")
    if cfg.min_points < 2:
        raise InvalidArgumentError("a neighborhood needs at least two points")
    if n == 0:
        return DenseSurfels.empty()
    if traj is not None:
        rot, trans = traj.sample_batch(times)
        world = np.einsum("nij,nj->ni", rot, points) + trans
        origins = trans
    else:
        world = points
        origins = np.zeros_like(points)

    i, j, d_sq = _radius_pairs(world, cfg.radius)
    conflict = d_sq < cfg.radius * cfg.radius
    seed = _first_independent_set(n, i[conflict], j[conflict])
    # Neighborhood size of every seed: itself and its pairs within the radius.
    gathered = 1 + np.bincount(i[seed[i]], minlength=n) + np.bincount(j[seed[j]], minlength=n)
    keep = seed & (gathered >= cfg.min_points)
    owners = np.flatnonzero(keep)
    if owners.size == 0:
        return DenseSurfels.empty()
    from_i, from_j = keep[i], keep[j]
    owner = np.concatenate([i[from_i], j[from_j], owners])
    member = np.concatenate([j[from_i], i[from_j], owners])
    # Grouped by seed, each neighborhood in input order.
    member = member[np.argsort(owner * n + member)]
    sizes = gathered[owners]
    starts = np.cumsum(sizes) - sizes
    count = sizes.astype(float)

    def segment_mean(values):
        total = np.add.reduceat(values[member], starts, axis=0)
        return total / count.reshape((-1,) + (1,) * (total.ndim - 1))

    mean = segment_mean(world)
    centered = world[member] - np.repeat(mean, sizes, axis=0)
    scatter = np.add.reduceat(centered[:, :, None] * centered[:, None, :], starts, axis=0)
    centroid_cov = scatter / (count * (count - 1.0))[:, None, None] + cfg.beam_sigma**2 * np.eye(3)
    normal = np.linalg.eigh(scatter)[1][:, :, 0]
    toward_sensor = segment_mean(origins) - mean
    normal[(normal * toward_sensor).sum(axis=1) < 0] *= -1.0
    normal /= np.linalg.norm(normal, axis=1)[:, None]
    m = len(owners)
    return check_dense(DenseSurfels(
        centroid=mean,
        normal=normal,
        centroid_cov=centroid_cov,
        scatter=clamp_psd(scatter),
        dof=count,
        obs_count=np.ones(m, dtype=np.int64),
        timestamp=segment_mean(times),
        radius=np.full(m, cfg.radius),
        colour=segment_mean(colours) if colours is not None else np.full((m, 3), 0.5),
        colour_sigma=np.full(m, 0.5),
    ))
