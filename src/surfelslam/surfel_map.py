"""Surfel map structures: multi-resolution sparse ellipsoid surfels, dense
disc surfels with Wishart state, the global sparse/dense map pair, and the
one fixed-radius lookup every caller shares.

Surfels are stored as arrays.  A ``DenseSurfels`` or ``SparseSurfels``
batch holds one array per field, with the surfels along the first axis;
each field is declared once, annotated with its per-surfel shape and dtype,
and the batch's ``_LAYOUT`` is read from those declarations.
``DenseSurfelMap`` holds one such batch in insertion order, which each
fusion step replaces; a surfel's key is its row.  ``SparseSurfelMap``
keeps one row per (resolution, voxel) key, where the voxel is the integer
index ``voxelize_sparse`` computed, in the order the keys were first fused;
a fuse matches the keys of a whole batch, each key at most once, by one
sort and pools every revisited voxel by one stacked ``merge_moments``.
Sparse surfels exist only as batches: the sparse fuse, the ICP and
``fusion.LocalMaps`` refuse anything else (``_require_sparse``).  A batch
of either kind hands out a row as a read view of copies, a namespace of the
row's fields.  ``DenseSurfels.of`` stacks and checks a list of single dense
surfels: row views, or any objects with every field.

Batches carry the checks.  Both kinds share one check, ``_check_fields``,
of each field's per-surfel shape, common length, finite values and dtype,
and each adds its own invariants: ``check_dense`` requires symmetrized
positive semidefinite covariances, unit normals and ``dof`` of at least
one; ``_check_sparse`` requires positive resolutions and symmetrized
positive semidefinite covariances, and derives each normal and planarity
from the covariances' eigenpairs.  Each runs once per batch where a batch
is made: extraction, a fusion step's fused rows, voxelization, a sparse
fuse's pooled rows, and ``DenseSurfels.of`` over a list of single surfels.
A batch passes through ``of`` unchanged.

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
extraction and to ``check_dense``.  ``check_dense`` decomposes only what
it is not given eigenvalues for: lists of single surfels and direct calls.
The Wishart update's Cholesky factors and their inverses come from the
closed-form ``cholesky3`` on the same component-first entries, with no
LAPACK call.

The lookup is a bulk radius-pair kernel over a uniform grid (Teschner et
al., Optimized Spatial Hashing, VMV 2003).  ``KeyedPoints`` sorts a point
set by cell key once.  Keys are linearized with z fastest, so the three
cells of one (x, y) column step are consecutive keys and their points one
contiguous range of the sorted order: a cell's 27 neighbours are nine such
column runs.  One ``searchsorted`` over the occupied cells finds each run's
first cell; the at most three cells of the run follow it, so its end is
read off the next cells' keys.  The cells' start offsets give each run's
range of points.  ``KeyedPoints.join`` tests each point of another set
against its nine runs; ``_radius_pairs`` joins one set with itself, each
point with the points after it in its own column run and with four
half-neighbourhood runs, so every pair is tested once.  Its own column run
needs no search: it ends past the next occupied cell when that cell's key
is one more, and past its own cell otherwise.  Both test squared distances
on the
cell-sorted coordinate columns and map only the pairs within the radius
back to input order.  ``radius_join`` is that join applied once, and
serves the dense map's queries and fusion's matching; the ICP keys its
fixed destinations once per call and joins every iterate with them.
Extraction works on a whole scan at once.  Dense seeding takes the
lexicographically-first maximal independent set of the pairs closer than
the radius, and each seed's moments are segment sums over its pairs; sparse
voxelization sorts the points once per resolution by a linearized voxel
key, and each voxel's moments are segment sums over that order.

Every stable integer order of the package (the grid's, the voxels',
fusion's rounds and the window's row order) is one default sort of the
unique keys ``key * n + position`` (``stable_order``), which numpy runs
several times faster than its stable sort of integers.  The grid's and the
voxels' key guards bound cells (or voxels) times points below 2^62, so
those keys fit int64.

Per-point arithmetic is component first.  Points arrive as (n, 3) rows and
each kernel copies them once to contiguous (3, n) columns with
``np.ascontiguousarray(points.T)``: numpy reduces and broadcasts slowly
along a short axis (an (8000, 3) ``min(axis=0)`` costs some forty times the
same reduction over (3, 8000) columns), and a ufunc applied to the view
``points.T`` keeps its transposed memory order, so only the copy is fast.
The grid's cell indices, origin, extent and keys, ``radius_join``'s crop,
the voxel keys and the segment moments all work on columns; results go
back to rows where a batch stores them.  The layout moves no bit of any
output: minima, maxima, comparisons, gathers and elementwise products are
exact, and ``np.add.reduceat`` sums each segment in order in either
layout.  A contiguous ``.sum`` is no substitute for a ``reduceat``: over
eight or more terms it sums pairwise and rounds differently.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Annotated, get_type_hints

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
    """Row-wise dot products of two (n, 3) stacks of vectors, summed over
    their component columns as ``(a0 b0 + a1 b1) + a2 b2``."""
    (a0, a1, a2), (b0, b1, b2) = a.T, b.T
    return a0 * b0 + a1 * b1 + a2 * b2


def stable_order(keys):
    """The permutation ``np.argsort(keys, kind="stable")`` of the integer
    ``keys``, by one default ``argsort`` of the unique keys
    ``key * n + position``, which orders by key and then by position.

    A sort of unique keys has one answer, so any algorithm gives the stable
    order; numpy's default sort of int64 is its fastest (SIMD where the CPU
    has it), while its stable sort of integers is a timsort.  The caller
    keeps every ``|key| * n`` below 2^62, so no product wraps int64.
    """
    n = len(keys)
    return np.argsort(keys * n + np.arange(n))


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


def _root(p):
    """Where each pivot ``p`` is positive, and the square root of each
    positive pivot (1 for any other) and its reciprocal."""
    ok = p > 0.0
    root = np.sqrt(np.where(ok, p, 1.0))
    return ok, root, 1.0 / root


def cholesky3(at):
    """Lower Cholesky factors ``L`` of the symmetric 3×3 matrices of a
    (3, 3, m) entries stack (``_entries``), read from their lower
    triangles, and their inverses, both (3, 3, m) and zero above the
    diagonal, by the closed form of the unblocked factorization; as
    LAPACK's does, it scales each column below a pivot by the pivot's
    reciprocal.

    Also returns the mask of the rows whose factorization meets a pivot
    that is not positive: where ``np.linalg.cholesky`` raises (a pivot
    ``<= 0``: zero, indefinite or rank-deficient matrices), and rows with a
    NaN pivot, for which it returns NaNs instead.  Those rows hold values of
    no meaning, each such pivot taken as 1.
    """
    (a00, _, _), (a10, a11, _), (a20, a21, a22) = at
    ok0, l00, r0 = _root(a00)
    l10, l20 = a10 * r0, a20 * r0
    ok1, l11, r1 = _root(a11 - l10 * l10)
    l21 = (a21 - l20 * l10) * r1
    ok2, l22, r2 = _root(a22 - (l20 * l20 + l21 * l21))
    # L^-1 by forward substitution on the columns of the identity.
    m10 = -l10 * r0 * r1
    factor, inverse = np.zeros_like(at), np.zeros_like(at)
    factor[0, 0], factor[1, 0], factor[1, 1] = l00, l10, l11
    factor[2, 0], factor[2, 1], factor[2, 2] = l20, l21, l22
    inverse[0, 0], inverse[1, 0], inverse[1, 1] = r0, m10, r1
    inverse[2, 0], inverse[2, 1], inverse[2, 2] = -(l20 * r0 + l21 * m10) * r2, -l21 * r1 * r2, r2
    return factor, inverse, ~(ok0 & ok1 & ok2)


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


# The per-surfel types of a batch's fields: each annotation carries the
# shape and dtype of one surfel's value.
_Vector = Annotated[np.ndarray, (3,), float]
_Matrix = Annotated[np.ndarray, (3, 3), float]
_Real = Annotated[np.ndarray, (), float]
_Count = Annotated[np.ndarray, (), np.int64]
_Cell = Annotated[np.ndarray, (3,), np.int64]


class _Batch:
    """Rows of a surfel batch: a dataclass whose fields each hold one array
    per surfel along the first axis, each declared once with a per-surfel
    type (``_Vector`` and the like).  ``_LAYOUT`` is read from those
    declarations: each field's per-surfel shape and dtype, in field order.

    An integer index (a numpy integer too) gives a read view of that row, a
    namespace of its fields, arrays copied and scalars as Python numbers;
    any other index (a slice, a boolean mask, integer positions) gives the
    sub-batch it selects, a copy: it is turned into positions once, and
    every field is gathered by ``take``, some five times faster than
    indexing each field by a mask.  Iteration yields views.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        hints = get_type_hints(cls, include_extras=True)
        cls._LAYOUT = {f: hints[f].__metadata__ for f in cls.__annotations__}

    def __len__(self):
        return len(self.timestamp)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return SimpleNamespace(**{
                f: getattr(self, f)[index].copy() if shape else getattr(self, f).item(index)
                for f, (shape, _) in self._LAYOUT.items()
            })
        positions = np.arange(len(self))[index]
        return type(self)(*(getattr(self, f).take(positions, axis=0) for f in self._LAYOUT))

    def __iter__(self):
        return (self[k] for k in range(len(self)))

    @classmethod
    def empty(cls, n=0):
        """``n`` zero rows, to be filled."""
        return cls(*(np.zeros((n,) + shape, dtype) for shape, dtype in cls._LAYOUT.values()))


def _put(batch, rows, values):
    """Write the rows of ``values`` into ``batch`` at ``rows``."""
    for f in batch._LAYOUT:
        getattr(batch, f)[rows] = getattr(values, f)


def _concat(a, b):
    """A new batch of the rows of ``a`` followed by the rows of ``b``."""
    return type(a)(*(np.concatenate([getattr(a, f), getattr(b, f)]) for f in a._LAYOUT))


def _check_fields(cls, values):
    """The check that every surfel batch shares: each of ``values``, fields
    of ``cls`` by name, must have its per-surfel shape, with the length of
    ``timestamp``, and finite values.  Returns them as arrays of their
    dtypes."""
    n = len(np.reshape(values["timestamp"], -1))
    for f, v in values.items():
        shape, dtype = cls._LAYOUT[f]
        v = np.asarray(v)
        if v.shape != (n,) + shape or not np.isfinite(v).all():
            raise InvalidArgumentError(f"{cls.__name__} {f} must be finite, of shape {shape}")
        values[f] = v.astype(dtype, copy=False)
    return values


def _check_sparse(centroid, covariance, count, resolution, timestamp, voxel, eigh):
    """The one check of sparse surfel fields, over a stack of surfels.

    The fields must pass ``_check_fields``, and resolutions must be
    positive.  Covariances are symmetrized and must be positive
    semidefinite within tolerance, by their eigenvalues in ``eigh``, the
    covariances' ``(eigenvalues, normals)`` (from ``psd_eigh``, whose
    covariances are exactly symmetric).  Returns the checked
    ``SparseSurfels``: each normal is the smallest-eigenvalue eigenvector of
    its covariance and each planarity ``(l1 - l0) / l2``.
    """
    values = _check_fields(SparseSurfels, {
        "centroid": centroid, "covariance": covariance, "count": count,
        "resolution": resolution, "timestamp": timestamp, "voxel": voxel})
    if (values["resolution"] <= 0.0).any():
        raise InvalidArgumentError("sparse surfel resolution must be positive")
    values["covariance"] = _symmetrize(values["covariance"])
    eigenvalues, normals = eigh
    _require_psd(eigenvalues, "sparse surfel covariance")
    scale = np.maximum(eigenvalues[:, 2], 1e-30)
    return SparseSurfels(
        **values,
        normal=normals,
        planarity=(eigenvalues[:, 1] - eigenvalues[:, 0]) / scale,
    )


@dataclass(frozen=True, eq=False)
class SparseSurfels(_Batch):
    """A batch of ellipsoid surfels, each the point statistics of one voxel
    at one resolution, along the first axis of every field.

    ``voxel`` is the voxel's integer index.  ``normal`` (the covariance's
    smallest-eigenvalue eigenvector) and ``planarity`` are derived from the
    covariance.  Batches come from ``_check_sparse``, or are rows of one.
    """

    centroid: _Vector
    covariance: _Matrix
    count: _Count
    resolution: _Real
    timestamp: _Real
    voxel: _Cell
    normal: _Vector
    planarity: _Real


def _require_sparse(surfels):
    """``surfels`` when it is a ``SparseSurfels`` batch; anything else
    raises ``InvalidArgumentError``."""
    if not isinstance(surfels, SparseSurfels):
        raise InvalidArgumentError("sparse surfels must be a SparseSurfels batch")
    return surfels


@dataclass(frozen=True, eq=False)
class DenseSurfels(_Batch):
    """A batch of disc surfels with normal-inverse-Wishart state, along the
    first axis of every field.

    ``scatter`` is the accrued (unnormalized) second-moment matrix whose
    smallest-eigenvalue eigenvector is the surface normal; ``centroid_cov``
    is the uncertainty of the centroid estimate; ``dof`` counts the points
    accrued into the scatter.  Batches come from ``check_dense``, from
    ``DenseSurfels.of`` over single surfels, or are rows of either.
    """

    centroid: _Vector
    normal: _Vector
    centroid_cov: _Matrix
    scatter: _Matrix
    dof: _Real
    obs_count: _Count
    timestamp: _Real
    radius: _Real

    @classmethod
    def of(cls, surfels):
        """``surfels`` itself when it is a batch; otherwise the batch of a
        list of single surfels, row views or any objects with every field,
        stacked field by field and checked once by ``check_dense``."""
        if isinstance(surfels, cls):
            return surfels
        surfels = list(surfels)
        if not surfels:
            return cls.empty()
        try:
            fields = {f: np.array([getattr(s, f) for s in surfels]) for f in cls._LAYOUT}
        except (AttributeError, ValueError):
            raise InvalidArgumentError(
                "dense surfels must each have every field, of one shape per field"
            ) from None
        return check_dense(cls(**fields))


def check_dense(batch: DenseSurfels, eigenvalues=None) -> DenseSurfels:
    """The one check of dense surfel fields, over a whole batch.

    The fields must pass ``_check_fields``, and ``dof`` must be at least 1.
    Both covariance stacks are symmetrized and must be positive
    semidefinite within tolerance, and normals must have unit length.
    ``eigenvalues`` maps ``"centroid_cov"`` or ``"scatter"`` to that stack's
    ascending eigenvalues when the caller has them (from ``psd_eigh`` or
    ``psd_eigvalsh``, whose stacks are exactly symmetric, or derived from
    them); one ``eigvalsh3`` decomposes the stacks it does not name.
    Returns the batch with float fields, ``int64`` observation counts and
    the symmetrized covariances.
    """
    values = _check_fields(DenseSurfels, {f: getattr(batch, f) for f in DenseSurfels._LAYOUT})
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
    """Key → row view of a dense map, in key order."""

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
    key is an earlier insertion.  ``get`` and ``surfels`` give row views
    (see ``_Batch``).
    """

    def __init__(self):
        self.batch = DenseSurfels.empty()

    def __len__(self):
        return len(self.batch)

    @property
    def surfels(self):
        """The stored surfels as a key → row view mapping."""
        return _SurfelsByKey(self)

    def get(self, key) -> SimpleNamespace:
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
        """Pool each of ``surfels``, a ``SparseSurfels`` batch, into the row
        of its key; no two of them may share a key.

        Equal to one ``merge_moments`` of each surfel into its stored row,
        the row taking the later timestamp; a surfel with a new key adds a
        row, in input order.  Keys are matched by one sort of the stored and
        the new keys together, the revisited rows are pooled by one stacked
        ``merge_moments``, and the pooled rows are checked once, with the
        merge's eigenpairs.
        """
        batch = _require_sparse(surfels)
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
    """Mean of ``values[..., member]`` over each run of ``sizes``
    consecutive entries, as a segment sum along the last axis: a (k, m)
    array of the segments' component means for (k, n) values, or (m,) means
    for one (n,) column.  The values are gathered by ``take``, which on a
    trailing axis costs a fraction of a fancy index."""
    starts = np.cumsum(sizes) - sizes
    return np.add.reduceat(values.take(member, axis=-1), starts, axis=-1) / sizes


# The six distinct entries (i, j), i <= j, of a symmetric 3×3 matrix, and
# the one of them each of the nine entries of the matrix reads, row by row.
_UPPER_I, _UPPER_J = np.triu_indices(3)
_MIRROR = np.array([0, 1, 2, 1, 3, 4, 2, 4, 5])


def _segment_moments(columns, member, sizes):
    """Mean and accrued scatter ``sum (p - m)(p - m)^T`` of the (3, n)
    ``columns`` at ``member`` over each run of ``sizes`` consecutive
    entries: the (3, m) component means and an (m, 3, 3) stack.

    The points are gathered once, for both moments.  Each of the six
    distinct products ``c_i c_j`` of the centered points is written straight
    into its row of a (6, ·) array, the rows are summed by one ``reduceat``,
    and a gather of the sums by ``_MIRROR`` fills the lower triangle
    (``c_i c_j`` equals ``c_j c_i`` bit for bit)."""
    gathered = columns.take(member, axis=1)
    starts = np.cumsum(sizes) - sizes
    mean = np.add.reduceat(gathered, starts, axis=1) / sizes
    centered = np.repeat(mean, sizes, axis=1)
    np.subtract(gathered, centered, out=centered)
    products = np.empty((6, len(member)))
    for row, i, j in zip(products, _UPPER_I, _UPPER_J):
        np.multiply(centered[i], centered[j], out=row)
    sums = np.add.reduceat(products, starts, axis=1)
    return mean, sums.take(_MIRROR, axis=0).T.reshape(len(sizes), 3, 3)


def voxelize_sparse(points, times, resolutions) -> SparseSurfels:
    """Sparse ellipsoid surfels from multi-resolution voxels, as one checked
    batch.

    One surfel per occupied voxel per resolution when the voxel holds at
    least ``MIN_POINTS`` points: centroid is the mean,
    covariance the sample covariance, timestamp the mean time, and
    ``voxel`` the voxel's integer index.  The resolutions must be distinct,
    so no two surfels share a (resolution, voxel) key.  Surfels follow the
    resolutions and, within one, the voxels in lexicographic order.  Per
    resolution, one ``stable_order`` of a linearized voxel key groups the
    points, so the voxels spanned times the points must stay below 2^62, and
    the moments are segment sums over that order; the clamp and the sparse
    check run once over the stack and share one eigendecomposition.
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
    n = len(points)
    if n == 0:
        return SparseSurfels.empty()
    columns = np.ascontiguousarray(points.T)
    parts = []
    for resolution in resolutions:
        voxel = np.floor(columns / resolution).astype(np.int64)
        ijk = voxel - voxel.min(axis=1)[:, None]
        span = ijk.max(axis=1) + 1
        # Voxels times points, so that stable_order's keys fit int64.
        if float(np.prod(span, dtype=float)) * n >= 2.0**62:
            raise InvalidArgumentError("points span too many voxels of the resolution to key")
        key = (ijk[0] * span[1] + ijk[1]) * span[2] + ijk[2]
        order = stable_order(key)
        starts = np.flatnonzero(np.diff(key[order], prepend=-1))
        sizes = np.diff(starts, append=len(order))
        kept = sizes >= MIN_POINTS
        if not kept.any():
            continue
        member = order[np.repeat(kept, sizes)]
        first, sizes = order[starts[kept]], sizes[kept]
        mean, scatter = _segment_moments(columns, member, sizes)
        cov = scatter / (sizes - 1.0)[:, None, None]
        parts.append((np.ascontiguousarray(mean.T), cov, sizes, np.full(len(sizes), resolution),
                      _segment_mean(times, member, sizes),
                      np.ascontiguousarray(voxel.take(first, axis=1).T)))
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
    run by run.  One ``repeat`` numbers each entry's run, and the owners and
    shifts are gathered by it: a gather costs a fraction of a ``repeat``."""
    sizes = hi - lo
    run = np.repeat(np.arange(len(sizes)), sizes)
    shift = lo - (np.cumsum(sizes) - sizes)
    return owner.take(run), np.arange(len(run)) + shift.take(run)


def _sq_dist(p, at, q, positions):
    """Squared distances of the points of the (3, ·) columns ``q`` at
    ``positions`` from those of ``p`` at ``at``, pair by pair, summed as
    ``dx*dx + dy*dy + dz*dz`` with ``dx = q_x - p_x``."""
    (px, py, pz), (qx, qy, qz) = p, q
    dx, dy = qx.take(positions) - px.take(at), qy.take(positions) - py.take(at)
    dz = qz.take(positions) - pz.take(at)
    return dx * dx + dy * dy + dz * dz


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
    keys.  ``order`` is the stable sort of the set by cell key
    (``stable_order``, so the grid's cells times its points must stay below
    2^62) and ``columns`` the (3, n) coordinates in that order: the points
    of three consecutive cells are one contiguous range of positions.
    ``cells`` are the occupied cells' keys, ascending, and ``starts`` the
    sorted position of each one's first point, followed by n.
    """

    def __init__(self, points, radius):
        if not radius >= 0.0:
            raise InvalidArgumentError("radius must be non-negative")
        columns = np.ascontiguousarray(np.asarray(points, dtype=float).reshape(-1, 3).T)
        self.radius = radius
        self._edge = radius * CELL_REACH or 1.0
        ijk = np.floor(columns / self._edge)
        self._origin = ijk.min(axis=1) - 2.0 if ijk.shape[1] else np.zeros(3)
        ijk -= self._origin[:, None]
        dims = ijk.max(axis=1, initial=0.0) + 3.0
        n = ijk.shape[1]
        # Cells times points, so that stable_order's keys fit int64.
        if float(np.prod(dims)) * n >= 2.0**62:
            raise InvalidArgumentError("point extent spans too many cells of the radius")
        self._inner = dims - 2.0
        # Linearized key strides of the three cell coordinates.
        dims = dims.astype(np.int64)
        self._stride = np.array([dims[1] * dims[2], dims[2], 1])
        keys = self._keys(ijk)
        self.order = stable_order(keys)
        keys = keys.take(self.order)
        self.columns = columns.take(self.order, axis=1)
        new_cell = np.ones(n, dtype=bool)
        new_cell[1:] = keys[1:] != keys[:-1]
        self.starts = np.append(np.flatnonzero(new_cell), n)
        self.cells = keys.take(self.starts[:-1])
        # The cells followed by three keys past any of the grid's, so that a
        # column run's last cells are read without a bounds test.
        self._padded_cells = np.append(self.cells, np.full(3, np.iinfo(np.int64).max))

    def _keys(self, ijk):
        """The linearized keys of (3, m) float cell coordinates, by an int64
        multiply-add: numpy has no BLAS path for an int64 matmul."""
        i, j, k = ijk.astype(np.int64)
        keys = i * self._stride[0]
        keys += j * self._stride[1]
        keys += k
        return keys

    def _column_runs(self, keys, dx, dy):
        """The sorted-position range ``[lo, hi)`` of the points in the three
        cells ``key + step - 1``, ``key + step`` and ``key + step + 1`` of
        each (x, y) column offset ``(dx, dy)`` and each cell key, offset by
        offset: one ``searchsorted`` over the occupied cells gives the first
        cell at or after the run, and the first past it follows from at most
        three steps over the cells that follow, each a gather and a test of
        the next key against the run's last, ``key + step + 1``.  Their
        ``starts`` give the range.

        Every key searched around is that of a cell inside the outer empty
        padding layer (an occupied cell lies inside both, and ``join`` drops
        query points outside it), so its cells one z step up and down lie in
        the same column of the grid: a run never wraps from the top of one
        column to the bottom of the next.  Each target is thus the key of a
        cell of the grid, below 2^62, so no sum wraps int64.
        """
        steps = dx * self._stride[0] + dy * self._stride[1]
        targets = (steps[:, None] + keys).ravel()
        first = np.searchsorted(self.cells, targets - 1)
        top = targets + 1
        past = first + (self._padded_cells.take(first) <= top)
        past += self._padded_cells.take(past) <= top
        past += self._padded_cells.take(past) <= top
        return self.starts.take(first), self.starts.take(past)

    def join(self, a):
        """Every pair of a point of ``a`` and a point of the set within the
        radius: index arrays into ``a`` and the set and the squared
        distances, in no particular order.

        Each point of ``a`` near the grid takes the nine column runs of its
        27 neighbouring cells, and only those pairs are tested.
        """
        a = np.ascontiguousarray(np.asarray(a, dtype=float).reshape(-1, 3).T)
        if a.shape[1] == 0 or len(self.cells) == 0:
            return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0)
        ijk = np.floor(a / self._edge) - self._origin[:, None]
        near = np.flatnonzero(((ijk >= 1.0) & (ijk <= self._inner[:, None])).all(axis=0))
        keys = self._keys(ijk.take(near, axis=1))
        # Sorted keys search faster, each search starting from the last.  Ties
        # may fall in any order: they order only the output, which has none.
        by_key = np.argsort(keys)
        near = near.take(by_key)
        lo, hi = self._column_runs(keys.take(by_key), np.repeat([-1, 0, 1], 3),
                                   np.array([-1, 0, 1] * 3))
        i, pos = _runs(np.tile(near, 9), lo, hi)
        d_sq = _sq_dist(a, i, self.columns, pos)
        inside = np.flatnonzero(d_sq <= self.radius * self.radius)
        return i.take(inside), self.order.take(pos.take(inside)), d_sq.take(inside)


def _radius_pairs(points, radius):
    """Every unordered pair of ``points`` within ``radius``: index arrays
    ``i < j`` and the squared distances, in no particular order.

    Each point takes the positions after it in its own column run and the
    four column runs of the (x, y) offsets that follow (0, 0) in
    lexicographic order, (0, 1), (1, -1), (1, 0) and (1, 1): every pair of
    points at most one cell apart is tested once.  The four runs are
    searched once per occupied cell and repeated for its points.  The own
    column's run ends past cell key + 1, which is the next occupied cell if
    any is, so its end is read off the cells without a search.  Every
    candidate is tested on all three coordinates at once: a test on z first
    rejects too few of them to pay for its gathers.
    """
    grid = KeyedPoints(points, radius)
    n, cells = len(grid.order), grid.cells
    cell = np.repeat(np.arange(len(cells)), np.diff(grid.starts))
    # The index of the first cell past each own column run.
    own = np.arange(1, len(cells) + 1)
    own[:-1] += cells[1:] - cells[:-1] == 1
    lo, hi = grid._column_runs(cells, np.array([0, 1, 1, 1]), np.array([1, -1, 0, 1]))
    lo = np.concatenate([np.arange(1, n + 1),
                         lo.reshape(4, len(cells)).take(cell, axis=1).ravel()])
    hi = np.concatenate([grid.starts[own], hi]).reshape(5, len(cells)).take(cell, axis=1).ravel()
    a, b = _runs(np.tile(np.arange(n), 5), lo, hi)
    d_sq = _sq_dist(grid.columns, a, grid.columns, b)
    inside = np.flatnonzero(d_sq <= radius * radius)
    i, j = grid.order.take(a.take(inside)), grid.order.take(b.take(inside))
    return np.minimum(i, j), np.maximum(i, j), d_sq.take(inside)


def radius_join(a, b, radius):
    """Every pair of a point of ``a`` and a point of ``b`` within ``radius``:
    index arrays into ``a`` and ``b`` and the squared distances, in no
    particular order.

    The one-shot form of :meth:`KeyedPoints.join`: only the points of ``b``
    inside ``a``'s bounding box, padded by the radius, are keyed, so a small
    ``a`` over a wide ``b`` spans few cells.  A caller that joins many sets
    with one ``b`` keys ``b`` once instead.
    """
    a = np.ascontiguousarray(np.asarray(a, dtype=float).reshape(-1, 3).T)
    b = np.ascontiguousarray(np.asarray(b, dtype=float).reshape(-1, 3).T)
    near = np.zeros(0, dtype=np.intp)
    if a.shape[1]:
        reach = radius * CELL_REACH
        lo, hi = a.min(axis=1) - reach, a.max(axis=1) + reach
        near = np.flatnonzero(((b >= lo[:, None]) & (b <= hi[:, None])).all(axis=0))
    # Transposed views of the columns: the grid and the join take them
    # back without a copy.
    i, j, d_sq = KeyedPoints(b.take(near, axis=1).T, radius).join(a.T)
    return i, near[j], d_sq


def _first_independent_set(n, lo, hi):
    """Mask of the vertices that a greedy pass in index order accepts into an
    independent set of the graph with edges ``lo < hi``: the
    lexicographically-first maximal independent set, computed in parallel
    rounds (Blelloch, Fineman & Shun, SPAA 2012).

    Each round accepts the undecided vertices with no undecided earlier
    neighbour and rejects their later neighbours.  Edges with a decided end
    are then dropped, so a rejected vertex holds back no later one; every
    vertex starts undecided, so the first round takes every edge as it is.
    The lowest undecided vertex is always accepted, so the rounds end.
    """
    accepted = np.zeros(n, dtype=bool)
    undecided = np.ones(n, dtype=bool)
    while undecided.any():
        roots = undecided.copy()
        roots[hi] = False
        accepted |= roots
        undecided &= ~roots
        # ``take`` and ``compress``: fancy and boolean indexes cost several
        # times more on masks as irregular as these.
        undecided[hi.compress(roots.take(lo))] = False
        live = np.flatnonzero(undecided.take(lo) & undecided.take(hi))
        lo, hi = lo.take(live), hi.take(live)
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
    else:
        world = points
    columns = np.ascontiguousarray(world.T)

    i, j, d_sq = _radius_pairs(columns.T, cfg.radius)
    conflict = d_sq < cfg.radius * cfg.radius
    seed = _first_independent_set(n, i[conflict], j[conflict])
    # Neighborhood size of every seed: itself and its pairs within the radius.
    # ``compress`` selects by a mask as irregular as the seeds' several times
    # faster than a boolean index.
    gathered = (1 + np.bincount(i.compress(seed.take(i)), minlength=n)
                + np.bincount(j.compress(seed.take(j)), minlength=n))
    keep = seed & (gathered >= MIN_POINTS)
    owners = np.flatnonzero(keep)
    if owners.size == 0:
        return DenseSurfels.empty()
    # The unique keys seed * n + member of every kept seed's neighborhood,
    # sorted: grouped by seed, each neighborhood in input order.
    from_i, from_j = np.flatnonzero(keep[i]), np.flatnonzero(keep[j])
    keys = np.concatenate([i.take(from_i) * n + j.take(from_i),
                           j.take(from_j) * n + i.take(from_j), owners * (n + 1)])
    keys.sort()
    member = keys % n
    sizes = gathered[owners]
    count = sizes.astype(float)
    mean, scatter = _segment_moments(columns, member, sizes)
    mean = np.ascontiguousarray(mean.T)
    # The centroid's covariance, the sample covariance over n, scatter / (n (n - 1)).
    denominator = count * (count - 1.0)
    centroid_cov = scatter / denominator[:, None, None] + BEAM_SIGMA**2 * np.eye(3)
    eigenvalues, normals = decomposed = eigh3(scatter)
    # The mean sensor origin less the centroid, in rows: -mean + s is s - mean
    # bit for bit.
    toward_sensor = -mean
    if traj is not None:
        toward_sensor += _segment_mean(trans.T, member, sizes).T
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
        "centroid_cov": eigenvalues / denominator[:, None] + BEAM_SIGMA**2})
