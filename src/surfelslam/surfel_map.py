"""Surfel map structures: multi-resolution sparse ellipsoid surfels, dense
disc surfels with Wishart state, the global sparse/dense map pair, and the
one fixed-radius lookup every caller shares.

Surfels are stored as arrays.  A ``DenseSurfels`` or ``SparseSurfels``
batch holds one array per field of ``DenseSurfel`` or ``SparseSurfel`` with
the surfels along the first axis.  ``DenseSurfelMap`` holds one such
batch in insertion order, which each fusion step replaces; a surfel's key
is its row.  ``SparseSurfelMap`` keeps one row per (resolution, voxel) key,
where the voxel is the integer index ``voxelize_sparse`` computed, in the
order the keys were first fused; a fuse matches the keys of a whole batch,
each key at most once, by one sort and pools every revisited voxel by one
stacked ``merge_moments``.  A surfel is a value: ``DenseSurfel`` and
``SparseSurfel`` are plain records that check nothing, and a batch hands
one out as a read view of a row, a record of copies.

Records carry data; batches carry the checks.  One function per kind
validates surfel fields over a whole batch.  ``check_dense`` requires
finite values of the right shapes, symmetrized positive semidefinite
covariances, unit normals and ``dof`` of at least one; ``_check_sparse``
requires finite values of the right shapes, positive resolutions and
symmetrized positive semidefinite covariances, and derives each normal and
planarity from the covariance.  Each runs once per batch where a batch is
made: extraction, a fusion step's fused rows, a sparse fuse's pooled rows,
and ``DenseSurfels.of`` or ``SparseSurfels.of`` over a list of records.  A
batch passes through ``of`` unchanged.

Every 3×3 eigendecomposition goes through one batched closed-form kernel,
``eigh3`` (Smith's eigenvalues and the smallest eigenvector from a cross
product of rows), or its values-only form ``eigvalsh3``; LAPACK runs only
on the rows whose two smallest eigenvalues the closed form cannot tell
apart, and to rebuild the rows a PSD clamp changes.  Each covariance stack
the pipeline makes is decomposed once, by the PSD clamp ``psd_eigh`` (or
``psd_eigvalsh`` where no vector is read), and the result is shared:
extraction takes its normals, its clamp and its whole check from one
``eigh3`` of the scatters, the centroid covariances' spectrum following
from theirs; voxelization and the sparse fuse hand the clamp's eigenpairs
to ``_check_sparse`` for the normals, planarities and PSD check; and
fusion's Wishart update (``fusion.fuse_batch``) hands them to the normal
extraction and to ``check_dense``.  The checks decompose only what they are
not given eigenvalues for: lists of records and direct calls.

The lookup is a bulk radius-pair kernel over a uniform grid (Teschner et
al., Optimized Spatial Hashing, VMV 2003).  ``KeyedPoints`` sorts a point
set by cell key once.  Keys are linearized with z fastest, so the three
cells of one (x, y) column step are consecutive keys and their points one
contiguous range of the sorted order: a cell's 27 neighbours are nine such
column runs, found by two ``searchsorted`` calls over the sorted keys.
``KeyedPoints.join`` tests each point of another set against its nine
runs; ``_radius_pairs`` joins one set with itself, each point with the
points after it in its own column run and with four half-neighbourhood
runs, so every pair is tested once.  Both test squared distances on the
cell-sorted coordinate columns and map only the pairs within the radius
back to input order.  ``radius_join`` is that join applied once, and
serves the dense map's queries and fusion's matching; the ICP keys its
fixed destinations once per call and joins every iterate with them.
Extraction works on a whole scan at once.  Dense seeding takes the
lexicographically-first maximal independent set of the pairs closer than
the radius, and each seed's moments are segment sums over its pairs; sparse
voxelization sorts the points once per resolution by a linearized voxel
key, and each voxel's moments are segment sums over that order.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError

DEFAULT_SURFEL_RADIUS = 0.02
# Fewest points of a surfel, dense or sparse: a dense surfel's Wishart extent
# divides by dof - 4.
MIN_POINTS = 5
BEAM_SIGMA = 0.003  # the beam noise floor of a dense centroid, meters
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


# Rows whose two smallest eigenvalues lie within this fraction of their
# largest magnitude have no well-defined smallest eigenvector for the closed
# form, and go to LAPACK.
CLOSE_EIGENVALUES = 1e-6
_DIAGONAL = (np.arange(3), np.arange(3))
_THIRD_TURNS = np.array([[0.0], [2.0 * np.pi / 3.0]])
# Row pairs (0, 1), (0, 2), (1, 2) and the cyclic column shifts of their
# cross products, as index arrays into a (3, 3, m) stack.
_ROW_A, _ROW_B = np.array([[0], [0], [1]]), np.array([[1], [2], [2]])
_NEXT, _AFTER = np.array([[1, 2, 0]]), np.array([[2, 0, 1]])


def _entries(a):
    """A stack of 3×3 matrices, one matrix or many, as a (3, 3, m) array
    whose ``[i, j]`` is the entry (i, j) of every matrix, and the leading
    shape."""
    a = np.asarray(a, dtype=float)
    return a.reshape(-1, 9).T.reshape(3, 3, -1).copy(), a.shape[:-2]


def _smith(at):
    """Ascending eigenvalues of each symmetric matrix of ``at`` by Smith's
    trigonometric formula (Eigenvalues of a symmetric 3×3 matrix, CACM
    1961): three arrays."""
    (a00, a01, a02), (_, a11, a12), (_, _, a22) = at
    q = (a00 + a11 + a22) / 3.0
    b00, b11, b22 = a00 - q, a11 - q, a22 - q
    off = a01 * a01 + a02 * a02 + a12 * a12
    p = np.sqrt((b00 * b00 + b11 * b11 + b22 * b22 + 2.0 * off) / 6.0)
    det = (b00 * (b11 * b22 - a12 * a12) - a01 * (a01 * b22 - a12 * a02)
           + a02 * (a01 * a12 - b11 * a02))
    p3 = p * p * p
    # det((A - qI) / p) / 2; a multiple of the identity has p = 0 and any angle.
    phi = np.arccos(np.clip(det / (2.0 * np.where(p3 > 0.0, p3, 1.0)), -1.0, 1.0)) / 3.0
    hi, lo = q + 2.0 * p * np.cos(phi + _THIRD_TURNS)
    return lo, 3.0 * q - lo - hi, hi


def _null_vector(at, lam):
    """(3, m) unit vectors along the largest cross product of two rows of
    ``A - lam I``, each matrix's null vector when ``lam`` is its simple
    eigenvalue."""
    r = at.copy()
    r[_DIAGONAL] -= lam
    c = r[_ROW_A, _NEXT] * r[_ROW_B, _AFTER] - r[_ROW_A, _AFTER] * r[_ROW_B, _NEXT]
    sq = (c * c).sum(axis=1)
    best = sq.argmax(axis=0)
    cols = np.arange(len(best))
    norm = np.sqrt(sq[best, cols])
    return (c[best, :, cols] / np.where(norm > 0.0, norm, 1.0)[:, None]).T


def _rayleigh(at, v):
    """``v^T A v`` of each matrix of ``at`` and (3, m) column of ``v``."""
    return (v * (at * v).sum(axis=1)).sum(axis=0)


def _close(lo, mid, hi):
    """Rows whose two smallest eigenvalues are within ``CLOSE_EIGENVALUES``."""
    return mid - lo <= CLOSE_EIGENVALUES * np.maximum(np.abs(lo), np.abs(hi))


def eigh3(a):
    """Ascending eigenvalues and the smallest-eigenvalue unit eigenvector of
    each exactly symmetric 3×3 matrix of a stack (or of one matrix), as
    arrays of shape ``(..., 3)``, by whole-array closed forms.

    Smith's formula gives the eigenvalues.  The eigenvector is the largest
    cross product of two rows of ``A - l0 I`` at Smith's ``l0``, refined
    once with ``l0`` replaced by its Rayleigh quotient; the smallest
    eigenvalue is that vector's Rayleigh quotient, and the other two are
    those of the 2×2 problem in its orthogonal complement (basis of Duff et
    al., Building an orthonormal basis, revisited, JCGT 2017), which stay
    accurate where Smith's lose digits, on discs (l1 = l2).  The rows whose
    two smallest eigenvalues lie within ``CLOSE_EIGENVALUES`` of the
    largest magnitude (zero, multiples of the identity, rank 1) are
    decomposed by ``np.linalg.eigh``.  The vector's sign is arbitrary.
    """
    at, lead = _entries(a)
    lo, mid, hi = _smith(at)
    v = _null_vector(at, lo)
    v = _null_vector(at, _rayleigh(at, v))
    x, y, z = v
    s = np.copysign(1.0, z)
    f = -1.0 / (s + z)
    g = x * y * f
    plane = np.empty((2,) + v.shape)
    plane[0, 0], plane[0, 1], plane[0, 2] = 1.0 + s * x * x * f, s * g, -s * x
    plane[1, 0], plane[1, 1], plane[1, 2] = g, s + y * y * f, -y
    # The 2×2 matrix of A on the plane orthogonal to v.
    image = (at * plane[:, None]).sum(axis=2)
    (u_u, u_w), (_, w_w) = (plane[:, None] * image[None]).sum(axis=2)
    centre = 0.5 * (u_u + w_w)
    half = np.hypot(0.5 * (u_u - w_w), u_w)
    eigenvalues = np.stack([_rayleigh(at, v), centre - half, centre + half], axis=-1)
    normals = v.T.copy()
    close = _close(lo, mid, hi)
    if close.any():
        w, vectors = np.linalg.eigh(np.moveaxis(at[:, :, close], -1, 0))
        eigenvalues[close], normals[close] = w, vectors[:, :, 0]
    return eigenvalues.reshape(lead + (3,)), normals.reshape(lead + (3,))


def eigvalsh3(a):
    """The eigenvalues of ``eigh3`` without its vectors: Smith's formula
    alone, with the same rows decomposed by ``np.linalg.eigvalsh``.  Each
    is within a few ulps of the largest magnitude ``s``, except that two
    eigenvalues ``d s`` apart are off by about ``1e-16 s / d``, up to
    ``1e-8 s`` for a double largest eigenvalue (a disc).  Enough for a PSD
    test, a clamp or a ratio; ``eigh3`` gives every digit."""
    at, lead = _entries(a)
    lo, mid, hi = _smith(at)
    eigenvalues = np.stack([lo, mid, hi], axis=-1)
    close = _close(lo, mid, hi)
    if close.any():
        eigenvalues[close] = np.linalg.eigvalsh(np.moveaxis(at[:, :, close], -1, 0))
    return eigenvalues.reshape(lead + (3,))


def _clamped(sym):
    """The stack ``sym`` with negative eigenvalues set to zero, rebuilt from
    ``np.linalg.eigh``'s eigenpairs and symmetrized."""
    w, v = np.linalg.eigh(sym)
    return _symmetrize((v * np.maximum(w, 0.0)[..., None, :]) @ np.swapaxes(v, -1, -2))


def psd_eigh(m, decomposed=None):
    """Symmetrize one matrix or a stack and clamp negative eigenvalues at
    zero.  Returns the result, exactly symmetric, and its ``eigh3``:
    ``(eigenvalues, normals)``, ascending eigenvalues and the
    smallest-eigenvalue unit eigenvectors.

    This is where a stack's eigendecomposition is shared.  One ``eigh3`` of
    the symmetrized input serves the rows that are positive semidefinite
    already; only the rows the clamp changed, which are rare, are rebuilt
    by ``np.linalg.eigh`` and decomposed again by ``eigh3``, so a clamped
    matrix gets the eigenpairs any later ``eigh3`` of it would.  A caller
    that has decomposed the symmetrized input passes that as
    ``decomposed``.  The eigenpairs returned serve the caller's normals,
    planarities and PSD check (``_check_sparse``, ``check_dense``,
    ``fusion.extract_normal_batch``).
    """
    sym = _symmetrize(m)
    eigenvalues, normals = eigh3(sym) if decomposed is None else decomposed
    changed = eigenvalues[..., 0] < 0.0
    if changed.any():
        sym[changed] = _clamped(sym[changed])
        eigenvalues, normals = eigenvalues.copy(), normals.copy()
        eigenvalues[changed], normals[changed] = eigh3(sym[changed])
    return sym, (eigenvalues, normals)


def psd_eigvalsh(m):
    """``psd_eigh`` for a caller that reads no eigenvector: the clamped,
    exactly symmetric stack and its ``eigvalsh3`` eigenvalues."""
    sym = _symmetrize(m)
    eigenvalues = eigvalsh3(sym)
    changed = eigenvalues[..., 0] < 0.0
    if changed.any():
        sym[changed] = _clamped(sym[changed])
        eigenvalues[changed] = eigvalsh3(sym[changed])
    return sym, eigenvalues


# Per-surfel shape and dtype of each field of a surfel class, in field order.
_SPARSE_LAYOUT = {
    "centroid": ((3,), float),
    "covariance": ((3, 3), float),
    "count": ((), np.int64),
    "resolution": ((), float),
    "timestamp": ((), float),
    "voxel": ((3,), np.int64),
    "normal": ((3,), float),
    "planarity": ((), float),
}
_DENSE_LAYOUT = {
    "centroid": ((3,), float),
    "normal": ((3,), float),
    "centroid_cov": ((3, 3), float),
    "scatter": ((3, 3), float),
    "dof": ((), float),
    "obs_count": ((), np.int64),
    "timestamp": ((), float),
    "radius": ((), float),
}


class _Batch:
    """Rows of a surfel batch: ``_LAYOUT`` gives each field's per-surfel
    shape and dtype, ``_VALUE`` the record class a row is viewed as, and
    ``_check`` the kind's check of the stacked fields of a list of records.

    An integer index (a numpy integer too) gives a view of that row, a record
    of copies, any other index the sub-batch it selects; iteration yields
    views.
    """

    def __len__(self):
        return len(self.timestamp)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return self._VALUE(**_row(self, index))
        return type(self)(*(getattr(self, f)[index] for f in self._LAYOUT))

    def __iter__(self):
        return (self[k] for k in range(len(self)))

    @classmethod
    def empty(cls, n=0):
        """``n`` zero rows, to be filled."""
        return cls(*(np.zeros((n,) + shape, dtype) for shape, dtype in cls._LAYOUT.values()))

    @classmethod
    def of(cls, surfels):
        """The batch of a list of surfel records, stacked field by field and
        checked once by the kind's check, or ``surfels`` itself when it is a
        batch."""
        if isinstance(surfels, cls):
            return surfels
        surfels = list(surfels)
        if not surfels:
            return cls.empty()
        try:
            fields = {f: np.array([getattr(s, f) for s in surfels]) for f in cls._LAYOUT}
        except ValueError:
            raise InvalidArgumentError("surfel fields of one name must share one shape") from None
        return cls._check(**fields)


def _row(batch, k):
    """The fields of row ``k``: array fields copied, scalars as Python
    numbers."""
    return {
        f: getattr(batch, f)[k].copy() if shape else getattr(batch, f).item(k)
        for f, (shape, _) in batch._LAYOUT.items()
    }


def _put(batch, rows, values):
    """Write the rows of ``values`` into ``batch`` at ``rows``."""
    for f in batch._LAYOUT:
        getattr(batch, f)[rows] = getattr(values, f)


def _concat(a, b):
    """A new batch of the rows of ``a`` followed by the rows of ``b``."""
    return type(a)(*(np.concatenate([getattr(a, f), getattr(b, f)]) for f in a._LAYOUT))


def _check_sparse(centroid, covariance, count, resolution, timestamp, voxel, eigh=None):
    """The one check of sparse surfel fields, over a stack of surfels.

    Every field must have its per-surfel shape, with one common length, and
    finite values, and resolutions must be positive.  Covariances are
    symmetrized and must be positive semidefinite within tolerance.  Returns
    the checked ``SparseSurfels``: each normal is the smallest-eigenvalue
    eigenvector of its covariance and each planarity ``(l1 - l0) / l2``.
    ``eigh`` is the covariances' ``(eigenvalues, normals)`` when the caller
    has them (from ``psd_eigh``, whose covariances are exactly symmetric);
    otherwise one ``eigh3`` decomposes the covariances here.
    """
    values = {"centroid": centroid, "covariance": covariance, "count": count,
              "resolution": resolution, "timestamp": timestamp, "voxel": voxel}
    n = len(np.reshape(timestamp, -1))
    for f, v in values.items():
        shape, dtype = _SPARSE_LAYOUT[f]
        v = np.asarray(v)
        if v.shape != (n,) + shape or not np.isfinite(v).all():
            raise InvalidArgumentError(f"sparse surfel {f} must be finite, of shape {shape}")
        values[f] = v.astype(dtype, copy=False)
    if (values["resolution"] <= 0.0).any():
        raise InvalidArgumentError("sparse surfel resolution must be positive")
    values["covariance"] = _symmetrize(values["covariance"])
    eigenvalues, normals = eigh3(values["covariance"]) if eigh is None else eigh
    _require_psd(eigenvalues, "sparse surfel covariance")
    scale = np.maximum(eigenvalues[:, 2], 1e-30)
    return SparseSurfels(
        **values,
        normal=normals,
        planarity=(eigenvalues[:, 1] - eigenvalues[:, 0]) / scale,
    )


@dataclass(frozen=True)
class SparseSurfel:
    """Ellipsoid surfel: the point statistics of one voxel at one
    resolution, a record that checks nothing.

    ``voxel`` is the voxel's integer index.  ``normal`` (the covariance's
    smallest-eigenvalue eigenvector) and ``planarity`` are derived from the
    covariance: a view carries its batch's, and ``SparseSurfels.of`` derives
    them afresh from each record's covariance.
    """

    centroid: np.ndarray
    covariance: np.ndarray
    count: int
    resolution: float
    timestamp: float
    voxel: np.ndarray
    normal: np.ndarray
    planarity: float


@dataclass(frozen=True, eq=False)
class SparseSurfels(_Batch):
    """A batch of sparse surfels: one array per ``SparseSurfel`` field, the
    surfels along the first axis.  Batches come from ``_check_sparse``, from
    ``SparseSurfels.of`` over records, or from rows of either."""

    centroid: np.ndarray
    covariance: np.ndarray
    count: np.ndarray
    resolution: np.ndarray
    timestamp: np.ndarray
    voxel: np.ndarray
    normal: np.ndarray
    planarity: np.ndarray

    _LAYOUT = _SPARSE_LAYOUT
    _VALUE = SparseSurfel

    @staticmethod
    def _check(normal, planarity, **fields):
        # The check derives the normals and planarities from the covariances.
        return _check_sparse(**fields)


@dataclass(frozen=True)
class DenseSurfel:
    """Disc surfel with normal-inverse-Wishart state.

    ``scatter`` is the accrued (unnormalized) second-moment matrix whose
    smallest-eigenvalue eigenvector is the surface normal; ``centroid_cov``
    is the uncertainty of the centroid estimate; ``dof`` counts the points
    accrued into the scatter.  A record checks nothing; ``DenseSurfels.of``
    checks a list of them.
    """

    centroid: np.ndarray
    normal: np.ndarray
    centroid_cov: np.ndarray
    scatter: np.ndarray
    dof: float
    obs_count: int
    timestamp: float
    radius: float = DEFAULT_SURFEL_RADIUS


@dataclass(frozen=True, eq=False)
class DenseSurfels(_Batch):
    """A batch of dense surfels: one array per ``DenseSurfel`` field, the
    surfels along the first axis.  Batches come from ``check_dense``, from
    ``DenseSurfels.of`` over records, or from rows of either."""

    centroid: np.ndarray
    normal: np.ndarray
    centroid_cov: np.ndarray
    scatter: np.ndarray
    dof: np.ndarray
    obs_count: np.ndarray
    timestamp: np.ndarray
    radius: np.ndarray

    _LAYOUT = _DENSE_LAYOUT
    _VALUE = DenseSurfel

    @staticmethod
    def _check(**fields):
        return check_dense(DenseSurfels(**fields))


def check_dense(batch: DenseSurfels, eigenvalues=None) -> DenseSurfels:
    """The one check of dense surfel fields, over a whole batch.

    Every field must have its per-surfel shape, with one common length, and
    finite values; ``dof`` must be at least 1.  Both covariance stacks are
    symmetrized and must be positive semidefinite within tolerance, and
    normals must have unit length.  ``eigenvalues`` maps ``"centroid_cov"``
    or ``"scatter"`` to that stack's ascending eigenvalues when the caller
    has them (from ``psd_eigh`` or ``psd_eigvalsh``, whose stacks are exactly
    symmetric, or derived from them); one ``eigvalsh3`` decomposes the
    stacks it does not name.  Returns the batch
    with float fields, ``int64`` observation counts and the symmetrized
    covariances.
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
    known = eigenvalues or {}
    parts = list(known.values())
    missing = [values[f] for f in ("centroid_cov", "scatter") if f not in known]
    if missing:
        parts.append(eigvalsh3(np.concatenate(missing)))
    _require_psd(np.concatenate(parts), "dense surfel centroid covariance or scatter")
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
        return iter(range(len(self._map)))

    def __len__(self):
        return len(self._map)


class DenseSurfelMap:
    """The global dense map: one ``DenseSurfels`` batch, ``batch``, in
    insertion order, which each fusion step replaces as a whole.

    A surfel's key is its row, valid until the next step: a step keeps the
    surviving rows in their order and appends its new surfels, so an earlier
    key is an earlier insertion.  ``get`` and ``surfels`` give
    ``DenseSurfel`` views of rows.
    """

    def __init__(self):
        self.batch = DenseSurfels.empty()

    def __len__(self):
        return len(self.batch)

    @property
    def surfels(self):
        """The stored surfels as a key → ``DenseSurfel`` mapping."""
        return _SurfelsByKey(self)

    def get(self, key) -> DenseSurfel:
        if not (isinstance(key, (int, np.integer)) and 0 <= key < len(self.batch)):
            raise KeyError(key)
        return self.batch[key]

    def query_radius(self, center, radius):
        """Keys of the surfels whose centroid lies within ``radius`` of
        ``center``, sorted."""
        _, found, _ = radius_join(center, self.batch.centroid, radius)
        return sorted(found.tolist())


def merge_moments(mean_a, cov_a, n_a, mean_b, cov_b, n_b):
    """Pooled mean, sample covariance and count of two point groups, or row
    by row of two stacks of them, and the covariances' ``(eigenvalues,
    normals)``; covariances are clamped PSD by ``psd_eigh``."""
    n_a, n_b = np.asarray(n_a), np.asarray(n_b)
    n = n_a + n_b
    mean = (n_a[..., None] * mean_a + n_b[..., None] * mean_b) / n[..., None]
    d = mean_a - mean_b
    scatter = (
        (n_a - 1)[..., None, None] * cov_a
        + (n_b - 1)[..., None, None] * cov_b
        + (n_a * n_b / n)[..., None, None] * (d[..., :, None] * d[..., None, :])
    )
    cov, eigh = psd_eigh(scatter / np.maximum(n - 1, 1)[..., None, None])
    return mean, cov, n, eigh


class SparseSurfelMap:
    """Sparse surfel store: one ``SparseSurfels`` batch with a row per
    (resolution, voxel) key, in the order the keys were first fused.

    Fusing a surfel whose key is stored pools the voxel moments into that
    row; any other surfel adds a row.  ``all`` hands out the stored batch,
    which ``fuse`` never writes into: it builds a new one.
    """

    def __init__(self):
        self._rows = SparseSurfels.empty()

    def __len__(self):
        return len(self._rows)

    def all(self) -> SparseSurfels:
        """The stored surfels, in key insertion order; read only."""
        return self._rows

    def fuse(self, surfels):
        """Pool each of ``surfels`` (a batch or a list) into the row of its
        key; no two of them may share a key.

        Equal to one ``merge_moments`` of each surfel into its stored row,
        the row taking the later timestamp; a surfel with a new key adds a
        row, in input order.  Keys are matched by one sort of the stored and
        the new keys together, the revisited rows are pooled by one stacked
        ``merge_moments``, and the pooled rows are checked once, with the
        merge's eigenpairs.
        """
        batch = SparseSurfels.of(surfels)
        stored = self._rows
        n, m = len(stored), len(batch)
        resolution = np.concatenate([stored.resolution, batch.resolution])
        voxel = np.concatenate([stored.voxel, batch.voxel])
        order = np.lexsort((voxel[:, 2], voxel[:, 1], voxel[:, 0], resolution))
        step = np.ones(n + m, dtype=bool)
        step[1:] = (np.diff(voxel[order], axis=0) != 0).any(axis=1)
        step[1:] |= np.diff(resolution[order]) != 0
        # The stable sort puts a key's stored row before the new surfels
        # with that key, so a new surfel that follows another one of its
        # key repeats a key of the call.
        if (~step[1:] & (order[:-1] >= n)).any():
            raise InvalidArgumentError("a sparse fuse holds each (resolution, voxel) key once")
        # The owner of each new surfel's key: its stored row, or itself.
        owner = np.empty(n + m, dtype=np.intp)
        owner[order] = order[np.flatnonzero(step)][np.cumsum(step) - 1]
        owner = owner[n:]
        revisit = owner < n
        rows = _concat(stored, batch[~revisit])
        at, src = owner[revisit], batch[revisit]
        mean, cov, count, eigh = merge_moments(
            stored.centroid[at], stored.covariance[at], stored.count[at],
            src.centroid, src.covariance, src.count,
        )
        timestamp = np.maximum(stored.timestamp[at], src.timestamp)
        _put(rows, at, _check_sparse(mean, cov, count, stored.resolution[at], timestamp,
                                     stored.voxel[at], eigh))
        self._rows = rows


@dataclass
class GlobalMaps:
    """The global sparse and dense maps that temporal fusion grows."""

    sparse: SparseSurfelMap = field(default_factory=SparseSurfelMap)
    dense: DenseSurfelMap = field(default_factory=DenseSurfelMap)


def _segment_mean(values, member, sizes):
    """Mean of ``values[member]`` over each run of ``sizes`` consecutive
    entries, as a segment sum."""
    total = np.add.reduceat(values[member], np.cumsum(sizes) - sizes, axis=0)
    return total / sizes.reshape((-1,) + (1,) * (total.ndim - 1))


def _segment_scatter(points, member, sizes, mean):
    """Accrued scatter ``sum (p - m)(p - m)^T`` of ``points[member]`` over
    each run of ``sizes`` consecutive entries, about its mean ``m``."""
    centered = points[member] - np.repeat(mean, sizes, axis=0)
    outer = centered[:, :, None] * centered[:, None, :]
    return np.add.reduceat(outer, np.cumsum(sizes) - sizes, axis=0)


def voxelize_sparse(points, times, resolutions) -> SparseSurfels:
    """Sparse ellipsoid surfels from multi-resolution voxels, as one checked
    batch.

    One surfel per occupied voxel per resolution when the voxel holds at
    least ``MIN_POINTS`` points: centroid is the mean,
    covariance the sample covariance, timestamp the mean time, and
    ``voxel`` the voxel's integer index.  The resolutions must be distinct,
    so no two surfels share a (resolution, voxel) key.  Surfels follow the
    resolutions and, within one, the voxels in lexicographic order.  Per resolution, one
    stable sort of a linearized voxel key groups the points, and the moments
    are segment sums over that order; the clamp and the sparse check run
    once over the stack and share one eigendecomposition.
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
    if len(set(resolutions)) < len(resolutions):
        raise InvalidArgumentError("voxel resolutions must be distinct")
    if len(points) == 0:
        return SparseSurfels.empty()
    parts = []
    for resolution in resolutions:
        voxel = np.floor(points / resolution).astype(np.int64)
        ijk = voxel - voxel.min(axis=0)
        span = ijk.max(axis=0) + 1
        if float(np.prod(span, dtype=float)) >= 2.0**62:
            raise InvalidArgumentError("points span too many voxels of the resolution to key")
        key = (ijk[:, 0] * span[1] + ijk[:, 1]) * span[2] + ijk[:, 2]
        order = np.argsort(key, kind="stable")
        starts = np.flatnonzero(np.diff(key[order], prepend=-1))
        sizes = np.diff(starts, append=len(order))
        kept = sizes >= MIN_POINTS
        if not kept.any():
            continue
        member = order[np.repeat(kept, sizes)]
        first, sizes = order[starts[kept]], sizes[kept]
        mean = _segment_mean(points, member, sizes)
        cov = _segment_scatter(points, member, sizes, mean) / (sizes - 1.0)[:, None, None]
        parts.append((mean, cov, sizes, np.full(len(sizes), resolution),
                      _segment_mean(times, member, sizes), voxel[first]))
    if not parts:
        return SparseSurfels.empty()
    centroid, cov, count, resolution, timestamp, voxel = (np.concatenate(f) for f in zip(*parts))
    cov, eigh = psd_eigh(cov)
    return _check_sparse(centroid, cov, count, resolution, timestamp, voxel, eigh)


@dataclass
class DenseExtractionConfig:
    radius: float = DEFAULT_SURFEL_RADIUS


def _runs(owner, lo, hi):
    """Each ``owner`` paired with every position of its run ``[lo, hi)``:
    the owners and the positions, run after run, by one ``arange`` shifted
    run by run."""
    sizes = hi - lo
    shift = lo - (np.cumsum(sizes) - sizes)
    return np.repeat(owner, sizes), np.arange(sizes.sum()) + np.repeat(shift, sizes)


class KeyedPoints:
    """A point set keyed once on a uniform grid, for any number of radius
    joins with other sets (see :meth:`join`).

    Cells have edge ``radius`` padded by ``CELL_REACH``, so no pair the
    rounded distance test accepts lies more than one cell apart; at radius 0
    any edge is exact, and 1 is used.  The grid spans the set's cells and
    two empty layers on either side: a point of another set outside the
    inner layer has no point of the set among its neighbours, and every
    neighbour of a cell inside it keys in range.  Keys are linearized with z
    fastest, so the three cells of one (x, y) column step are consecutive
    keys.  ``order`` is the stable sort of the set by cell key, ``keys``
    the sorted keys and ``columns`` the (3, n) coordinates in that order:
    the points of three consecutive cells are one contiguous range of
    positions.
    """

    def __init__(self, points, radius):
        if not radius >= 0.0:
            raise InvalidArgumentError("radius must be non-negative")
        points = np.asarray(points, dtype=float).reshape(-1, 3)
        self.radius = radius
        self._edge = radius * CELL_REACH or 1.0
        ijk = np.floor(points / self._edge)
        self._origin = ijk.min(axis=0) - 2.0 if len(ijk) else np.zeros(3)
        ijk -= self._origin
        dims = ijk.max(axis=0, initial=0.0) + 3.0
        if float(np.prod(dims)) >= 2.0**62:
            raise InvalidArgumentError("point extent spans too many cells of the radius")
        self._inner = dims - 2.0
        # Linearized key strides of the three cell coordinates.
        dims = dims.astype(np.int64)
        self._stride = np.array([dims[1] * dims[2], dims[2], 1])
        keys = ijk.astype(np.int64) @ self._stride
        self.order = np.argsort(keys, kind="stable")
        self.keys = keys[self.order]
        self.columns = np.take(points.T, self.order, axis=1)

    def _column_runs(self, keys, dx, dy):
        """The sorted-position range ``[lo, hi)`` of the points in the three
        cells ``key + step - 1``, ``key + step`` and ``key + step + 1`` of
        each (x, y) column offset ``(dx, dy)`` and each cell key, offset by
        offset, from two ``searchsorted`` calls.

        Every key searched around is that of a cell inside the outer empty
        padding layer (an occupied cell lies inside both, and ``join`` drops
        query points outside it), so its cells one z step up and down lie in
        the same column of the grid: a run never wraps from the top of one
        column to the bottom of the next.  Each target is thus the key of a
        cell of the grid, below 2^62, so no sum wraps int64.
        """
        steps = dx * self._stride[0] + dy * self._stride[1]
        targets = (steps[:, None] + keys).ravel()
        return (np.searchsorted(self.keys, targets - 1, side="left"),
                np.searchsorted(self.keys, targets + 1, side="right"))

    def _sq_dist(self, positions, p):
        """Squared distances of the set's points at sorted ``positions`` from
        the rows of the (3, m) columns ``p``, summed as
        ``dx*dx + dy*dy + dz*dz``."""
        x, y, z = self.columns
        dx, dy, dz = x.take(positions) - p[0], y.take(positions) - p[1], z.take(positions) - p[2]
        return dx * dx + dy * dy + dz * dz

    def join(self, a):
        """Every pair of a point of ``a`` and a point of the set within the
        radius: index arrays into ``a`` and the set and the squared
        distances, in no particular order.

        Each point of ``a`` near the grid takes the nine column runs of its
        27 neighbouring cells, and only those pairs are tested.
        """
        a = np.asarray(a, dtype=float).reshape(-1, 3)
        if len(a) == 0 or len(self.keys) == 0:
            return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0)
        ijk = np.floor(a / self._edge) - self._origin
        near = np.flatnonzero(((ijk >= 1.0) & (ijk <= self._inner)).all(axis=1))
        keys = ijk[near].astype(np.int64) @ self._stride
        # Sorted keys search faster, each search starting from the last.
        by_key = np.argsort(keys, kind="stable")
        near = near[by_key]
        lo, hi = self._column_runs(keys[by_key], np.repeat([-1, 0, 1], 3), np.array([-1, 0, 1] * 3))
        i, pos = _runs(np.tile(near, 9), lo, hi)
        d_sq = self._sq_dist(pos, a.T.take(i, axis=1))
        inside = d_sq <= self.radius * self.radius
        return i[inside], self.order[pos[inside]], d_sq[inside]


def _radius_pairs(points, radius):
    """Every unordered pair of ``points`` within ``radius``: index arrays
    ``i < j`` and the squared distances, in no particular order.

    Each point takes the positions after it in its own column run and the
    four column runs of the (x, y) offsets that follow (0, 0) in
    lexicographic order, (0, 1), (1, -1), (1, 0) and (1, 1): every pair of
    points at most one cell apart is tested once.  The keys are sorted, so
    the runs are searched once per occupied cell and repeated for its
    points.
    """
    grid = KeyedPoints(points, radius)
    n = len(grid.keys)
    new_cell = np.ones(n, dtype=bool)
    new_cell[1:] = grid.keys[1:] != grid.keys[:-1]
    cell = np.cumsum(new_cell) - 1
    cells = grid.keys[new_cell]
    lo, hi = grid._column_runs(cells, np.array([0, 0, 1, 1, 1]), np.array([0, 1, -1, 0, 1]))
    lo, hi = (runs.reshape(5, len(cells))[:, cell].ravel() for runs in (lo, hi))
    lo[:n] = np.arange(1, n + 1)
    a, b = _runs(np.tile(np.arange(n), 5), lo, hi)
    d_sq = grid._sq_dist(b, grid.columns.take(a, axis=1))
    inside = d_sq <= radius * radius
    i, j = grid.order[a[inside]], grid.order[b[inside]]
    return np.minimum(i, j), np.maximum(i, j), d_sq[inside]


def radius_join(a, b, radius):
    """Every pair of a point of ``a`` and a point of ``b`` within ``radius``:
    index arrays into ``a`` and ``b`` and the squared distances, in no
    particular order.

    The one-shot form of :meth:`KeyedPoints.join`: only the points of ``b``
    inside ``a``'s bounding box, padded by the radius, are keyed, so a small
    ``a`` over a wide ``b`` spans few cells.  A caller that joins many sets
    with one ``b`` keys ``b`` once instead.
    """
    a = np.asarray(a, dtype=float).reshape(-1, 3)
    b = np.asarray(b, dtype=float).reshape(-1, 3)
    near = np.zeros(0, dtype=np.intp)
    if len(a):
        reach = radius * CELL_REACH
        inside = np.all((b >= a.min(axis=0) - reach) & (b <= a.max(axis=0) + reach), axis=1)
        near = np.flatnonzero(inside)
    i, j, d_sq = KeyedPoints(b[near], radius).join(a)
    return i, near[j], d_sq


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


def extract_dense(points, times, traj=None,
                  cfg: DenseExtractionConfig | None = None) -> DenseSurfels:
    """Dense disc surfels from deskewed points, as one checked batch.

    Points are deskewed through ``traj`` when given (world point =
    ``T(t_i) p_i``).  Seeds are accepted greedily in input order, each
    rejected only by an earlier seed strictly closer than one surfel radius,
    and each seed's neighborhood (the points within the radius, itself
    included, in input order) provides the centroid, the accrued scatter,
    the centroid uncertainty (scatter over ``n (n-1)`` plus the beam noise
    floor ``BEAM_SIGMA``), and the initial Wishart count.  Seeds with fewer
    than ``MIN_POINTS`` neighbors yield no surfel, so that fusion can take
    each surfel's Wishart extent; surfels follow seed order.
    Each normal points toward the mean of its neighbourhood's sensor
    origins: the sample translations ``T(t_i)`` through ``traj``, and the
    world origin without it.  One ``eigh3`` of the
    scatters gives the normals, the PSD clamp (``psd_eigh``) and the whole
    check: the centroid covariances' eigenvalues are the scatters' over
    ``n (n-1)`` plus ``BEAM_SIGMA**2``.  A clamped row's normal still comes
    from its unclamped scatter, whose eigenspace the clamp can make
    degenerate.
    """
    if cfg is None:
        cfg = DenseExtractionConfig()
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    times = np.asarray(times, dtype=float).reshape(-1)
    n = len(points)
    if times.shape != (n,):
        raise InvalidArgumentError("need one time per point")
    if not (np.isfinite(points).all() and np.isfinite(times).all()):
        raise InvalidArgumentError("points and times must be finite")
    if not (math.isfinite(cfg.radius) and cfg.radius > 0.0):
        raise InvalidArgumentError("surfel radius must be positive and finite")
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
    keep = seed & (gathered >= MIN_POINTS)
    owners = np.flatnonzero(keep)
    if owners.size == 0:
        return DenseSurfels.empty()
    from_i, from_j = keep[i], keep[j]
    owner = np.concatenate([i[from_i], j[from_j], owners])
    member = np.concatenate([j[from_i], i[from_j], owners])
    # Grouped by seed, each neighborhood in input order.
    member = member[np.argsort(owner * n + member)]
    sizes = gathered[owners]
    count = sizes.astype(float)
    mean = _segment_mean(world, member, sizes)
    scatter = _segment_scatter(world, member, sizes, mean)
    n_pairs = count * (count - 1.0)
    centroid_cov = scatter / n_pairs[:, None, None] + BEAM_SIGMA**2 * np.eye(3)
    eigenvalues, normals = decomposed = eigh3(scatter)
    toward_sensor = _segment_mean(origins, member, sizes) - mean
    normal = np.where(((normals * toward_sensor).sum(axis=1) < 0)[:, None], -normals, normals)
    m = len(owners)
    # The segment scatters are exactly symmetric, so ``decomposed`` is that
    # of their symmetrization.
    scatter, (scatter_eigenvalues, _) = psd_eigh(scatter, decomposed)
    return check_dense(DenseSurfels(
        centroid=mean,
        normal=normal,
        centroid_cov=centroid_cov,
        scatter=scatter,
        dof=count,
        obs_count=np.ones(m, dtype=np.int64),
        timestamp=_segment_mean(times, member, sizes),
        radius=np.full(m, cfg.radius),
    ), {"scatter": scatter_eigenvalues,
        "centroid_cov": eigenvalues / n_pairs[:, None] + BEAM_SIGMA**2})
