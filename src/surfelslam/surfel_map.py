"""Surfel map structures: multi-resolution sparse ellipsoid surfels, dense
disc surfels with Wishart state, the global sparse/dense map pair, and the
one fixed-radius lookup every caller shares.

That lookup is a bulk radius-pair kernel over a uniform grid (Teschner et
al., Optimized Spatial Hashing, VMV 2003): it sorts the points by cell key
and expands every point pair of each occupied cell and its 13
half-neighbours.  ``radius_join`` runs it over two point sets at once, which
serves the dense map's queries and fusion's matching.  Dense extraction
works on a whole scan at once: seeding takes the lexicographically-first
maximal independent set of the pairs closer than the radius, and each
seed's moments are segment sums over its pairs.

Covariances are symmetrized on write and validated to be positive
semidefinite within tolerance; surfel values are treated as immutable, so
updates replace entries rather than mutating them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError

DEFAULT_SURFEL_RADIUS = 0.02
PSD_TOLERANCE = -1e-12
# Every grid search pads its radius by this factor (the cell edge of
# _radius_pairs, the box radius_join crops to), so that no point the rounded
# test d² ≤ r² accepts lies in a cell or outside a box the search skips.
CELL_REACH = 1.0 + 1e-12


def _symmetrize(m):
    m = np.asarray(m, dtype=float)
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def _check_psd(m, what):
    eigenvalues = np.linalg.eigvalsh(m)
    if eigenvalues[0] < PSD_TOLERANCE * max(abs(eigenvalues[-1]), 1.0):
        raise InvalidArgumentError(f"{what} is not positive semidefinite")
    return m


def clamp_psd(m):
    """Symmetrize and clamp negative eigenvalues at zero, for one matrix or a
    stack of them."""
    sym = _symmetrize(m)
    eigenvalues, vectors = np.linalg.eigh(sym)
    psd = eigenvalues[..., 0] >= 0.0
    if np.all(psd):
        return sym
    clamped = (vectors * np.maximum(eigenvalues, 0.0)[..., None, :]) @ np.swapaxes(
        vectors, -1, -2
    )
    return np.where(psd[..., None, None], sym, clamped)


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
        cov = _check_psd(_symmetrize(self.covariance), "sparse surfel covariance")
        object.__setattr__(self, "covariance", cov)
        if self.normal is None:
            eigenvalues, vectors = np.linalg.eigh(cov)
            scale = max(eigenvalues[2], 1e-30)
            object.__setattr__(self, "normal", vectors[:, 0].copy())
            object.__setattr__(
                self, "planarity", float((eigenvalues[1] - eigenvalues[0]) / scale)
            )
        else:
            object.__setattr__(self, "normal", np.asarray(self.normal, dtype=float))


@dataclass(frozen=True)
class DenseSurfel:
    """Disc surfel with normal-inverse-Wishart state.

    ``scatter`` is the accrued (unnormalized) second-moment matrix whose
    smallest-eigenvalue eigenvector is the surface normal; ``centroid_cov``
    is the uncertainty of the centroid estimate; ``dof`` counts the points
    accrued into the scatter.
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
        normal = np.asarray(self.normal, dtype=float)
        if abs(np.linalg.norm(normal) - 1.0) > 1e-9:
            raise InvalidArgumentError("dense surfel normal must be unit length")
        object.__setattr__(self, "centroid", np.asarray(self.centroid, dtype=float))
        object.__setattr__(self, "normal", normal)
        object.__setattr__(
            self,
            "centroid_cov",
            _check_psd(_symmetrize(self.centroid_cov), "centroid covariance"),
        )
        object.__setattr__(
            self, "scatter", _check_psd(_symmetrize(self.scatter), "scatter matrix")
        )
        object.__setattr__(self, "colour", np.asarray(self.colour, dtype=float))


class DenseSurfelMap:
    """Dense surfel store keyed by insertion order; single writer, many
    readers."""

    def __init__(self):
        self.surfels = {}
        self._next_id = 0

    def __len__(self):
        return len(self.surfels)

    def get(self, key) -> DenseSurfel:
        return self.surfels[key]

    def add(self, surfel: DenseSurfel) -> int:
        key = self._next_id
        self._next_id += 1
        self.surfels[key] = surfel
        return key

    def replace(self, key, surfel: DenseSurfel):
        if key not in self.surfels:
            raise KeyError(key)
        self.surfels[key] = surfel

    def remove(self, key):
        del self.surfels[key]

    def query_radius(self, center, radius):
        """Keys of the surfels whose centroid lies within ``radius`` of
        ``center``, sorted."""
        keys = list(self.surfels)
        centroids = np.array([self.surfels[k].centroid for k in keys]).reshape(-1, 3)
        _, found, _ = radius_join(center, centroids, radius)
        return sorted(keys[f] for f in found)


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
    covariance the sample covariance.
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
    out = []
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
            out.append(
                SparseSurfel(
                    mean,
                    clamp_psd(cov),
                    int(group.size),
                    float(resolution),
                    float(times[group].mean()),
                )
            )
    return out


@dataclass
class DenseExtractionConfig:
    radius: float = DEFAULT_SURFEL_RADIUS
    min_points: int = 5
    beam_sigma: float = 0.003


# The neighbouring cell offsets that follow (0, 0, 0) in lexicographic
# order, with (0, 0, 0) itself: each pair of occupied cells is visited once.
_HALF_NEIGHBOURHOOD = np.array(
    [o for o in itertools.product((-1, 0, 1), repeat=3) if o >= (0, 0, 0)]
)


def _radius_pairs(points, radius):
    """Every unordered pair of ``points`` within ``radius``: index arrays
    ``i < j`` and the squared distances, in no particular order.

    The points are sorted by a linearized cell key, with cells of edge
    ``radius`` padded so that no pair the rounded distance test accepts lies
    more than one cell apart; at radius 0 any edge is exact, and 1 is used.
    Each occupied cell is paired with itself and with the occupied cells
    among its 13 half-neighbours, and every point pair of every cell pair is
    expanded and tested; d² is summed as ``dx*dx + dy*dy + dz*dz``.
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
    order = np.argsort(keys, kind="stable")
    cells, starts, counts = np.unique(keys[order], return_index=True, return_counts=True)

    di, dj, dk = _HALF_NEIGHBOURHOOD.T
    steps = (di * dims[1] + dj) * dims[2] + dk
    targets = (cells[:, None] + steps).ravel()
    found = np.minimum(np.searchsorted(cells, targets), len(cells) - 1)
    hit = cells[found] == targets
    a_cell = np.repeat(np.arange(len(cells)), len(steps))[hit]
    b_cell = found[hit]

    # Expand each cell pair into its point pairs, in sorted positions.
    width = counts[b_cell]
    sizes = counts[a_cell] * width
    local = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    width = np.repeat(width, sizes)
    a = np.repeat(starts[a_cell], sizes) + local // width
    b = np.repeat(starts[b_cell], sizes) + local % width
    # A later cell's positions all follow an earlier one's, so this keeps
    # each same-cell pair once and every cross-cell pair.
    keep = a < b
    i, j = order[a[keep]], order[b[keep]]
    d = points[j] - points[i]
    d_sq = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2]
    inside = d_sq <= radius * radius
    i, j = i[inside], j[inside]
    return np.minimum(i, j), np.maximum(i, j), d_sq[inside]


def radius_join(a, b, radius):
    """Every pair of a point of ``a`` and a point of ``b`` within ``radius``:
    index arrays into ``a`` and ``b`` and the squared distances, in no
    particular order.

    The pairs are those ``_radius_pairs`` finds over both sets together that
    join ``a`` to ``b``.  Only the points of ``b`` inside ``a``'s bounding
    box, padded by the radius, take part, so a small ``a`` over a wide ``b``
    spans few cells.
    """
    a = np.asarray(a, dtype=float).reshape(-1, 3)
    b = np.asarray(b, dtype=float).reshape(-1, 3)
    if not radius >= 0.0:
        raise InvalidArgumentError("radius must be non-negative")
    if len(a) == 0 or len(b) == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0)
    reach = radius * CELL_REACH
    inside = np.all((b >= a.min(axis=0) - reach) & (b <= a.max(axis=0) + reach), axis=1)
    near = np.flatnonzero(inside)
    i, j, d_sq = _radius_pairs(np.concatenate([a, b[near]]), radius)
    # Pairs come as i < j, so a pair joins the sets when i is in a, j in b.
    cross = (i < len(a)) & (j >= len(a))
    return i[cross], near[j[cross] - len(a)], d_sq[cross]


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
                  colours=None):
    """Dense disc surfels from deskewed points.

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
        return []
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
        return []
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
    scatter = clamp_psd(scatter)
    timestamp = segment_mean(times)
    colour = segment_mean(colours) if colours is not None else np.full((len(owners), 3), 0.5)
    return [
        DenseSurfel(
            centroid=mean[k],
            normal=normal[k],
            centroid_cov=centroid_cov[k],
            scatter=scatter[k],
            dof=float(sizes[k]),
            obs_count=1,
            timestamp=float(timestamp[k]),
            radius=cfg.radius,
            colour=colour[k],
        )
        for k in range(len(owners))
    ]
