"""Probabilistic surfel fusion: beam noise model, resolution-preserving
two-stage matching, normal-inverse-Wishart centroid/extent updates, and the
temporal active/inactive map step.  The beam noise model, the ICP's limits
and the loop-closure thresholds are fixed model values, module constants.

Each stage works on stacks: the beam noise of every return, the gates of
every candidate pair, and the Wishart and normal updates of every
destination are whole-array operations over ``DenseSurfels`` batches.  The
single-surfel functions (``beam_noise_for_return``, ``match_surfel``,
``fuse_surfel``) are the batch functions on a batch of one; a surfel record
enters through ``DenseSurfels.of``, which checks it.  A fusion step reads
the global dense map's one batch and builds the next one, which replaces
it: it folds its measurements into their destinations in rounds, each
round fusing the next pending measurement of every destination, and checks
the fused rows once, with the eigenvalues of the update's PSD clamps.
``match_surfel`` reads the stored batch as it is.  The sparse ICP reads
the arrays of ``SparseSurfels`` batches, keys its destinations once per call
and pairs its surfels through one join with them per iteration.

Every 3×3 decomposition here is the closed-form kernel of ``surfel_map``:
``eigh3`` through ``psd_eigh`` for the scatters, whose smallest eigenvectors
are the normals, and the values-only ``eigvalsh3`` for the extents' and
centroid covariances' clamps (``psd_eigvalsh``) and the ICP's
normal-eigenvalue ratio.

The Wishart update treats each incoming surfel as a batch of ``n`` points
summarized by their mean, accrued scatter, and world-frame measurement noise;
matrix square roots are lower Cholesky factors throughout.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from . import lie
from .errors import InvalidArgumentError
from .surfel_map import (
    DenseSurfel,
    DenseSurfelMap,
    DenseSurfels,
    GlobalMaps,
    KeyedPoints,
    SparseSurfels,
    _concat,
    _put,
    _row_dot,
    check_dense,
    eigvalsh3,
    psd_eigh,
    psd_eigvalsh,
    radius_join,
)

log = logging.getLogger(__name__)

MEASUREMENT_DIM = 3


def _transpose(m):
    return np.swapaxes(m, -1, -2)


# Beam noise: range noise across the beam (m), depth noise along it of
# SIGMA_D_BASE plus SIGMA_D_PER_METER of range, and the beam divergence (rad)
# whose footprint adds depth noise at oblique incidence, up to GRAZING_CUTOFF.
SIGMA_R = 0.003
SIGMA_D_BASE = 0.008
SIGMA_D_PER_METER = 0.0005
BEAM_DIVERGENCE = 0.003
GRAZING_CUTOFF = np.pi / 2 - 1e-3


def incidence_variance(angle, range_m):
    """Extra depth variance from the beam footprint at oblique incidence, for
    one angle and range or elementwise over arrays; angles at or past the
    grazing cutoff are clamped to it."""
    angle = np.asarray(angle, dtype=float)
    if np.any(angle < 0.0):
        raise InvalidArgumentError("incidence angle must be non-negative")
    return (range_m * np.tan(np.minimum(angle, GRAZING_CUTOFF)) * BEAM_DIVERGENCE) ** 2


def beam_noise_batch(sensor_origin, points, surface_normals=None):
    """World-frame measurement noise of each return in ``points`` seen from
    ``sensor_origin``, given the surface normals when known."""
    beam = np.asarray(points, dtype=float).reshape(-1, 3) - np.asarray(sensor_origin, dtype=float)
    range_m = np.sqrt(_row_dot(beam, beam))
    # A return at the sensor has no beam direction: isotropic range noise.
    at_sensor = range_m < 1e-9
    beam[at_sensor] = 0.0
    range_m[at_sensor] = 1.0
    unit = beam / range_m[:, None]
    sigma_d = SIGMA_D_BASE + SIGMA_D_PER_METER * range_m
    sigma_i_sq = np.zeros(len(beam))
    if surface_normals is not None:
        normals = np.asarray(surface_normals, dtype=float).reshape(-1, 3)
        cos_i = np.abs(_row_dot(normals, unit))
        angle = np.arccos(np.clip(cos_i, 0.0, 1.0))
        sigma_i_sq = incidence_variance(angle, range_m)
    # Range noise across the beam, depth plus incidence noise along it:
    # sigma_r^2 I + (sigma_d^2 + sigma_i^2 - sigma_r^2) b b^T for the unit
    # beam b, symmetric as computed.
    along = sigma_d**2 + sigma_i_sq - SIGMA_R**2
    outer = unit[:, :, None] * unit[:, None, :]
    return SIGMA_R**2 * np.eye(3) + along[:, None, None] * outer


def beam_noise_for_return(sensor_origin, point, surface_normal=None):
    """World-frame measurement noise for one return given the scan geometry."""
    normals = None if surface_normal is None else [surface_normal]
    return beam_noise_batch(sensor_origin, [point], normals)[0]


# -- matching ---------------------------------------------------------------


@dataclass
class MatchParams:
    resolution_threshold: float = 0.02  # theta_r, meters
    depth_threshold: float = 3.0  # theta_d, Mahalanobis


def _gate_arrays(surfels: DenseSurfels):
    """Centroids, normals, normal variances ``n^T C n`` of the centroid
    covariances, and covariance traces."""
    normal, cov = surfels.normal, surfels.centroid_cov
    normal_var = _row_dot((normal[:, None, :] @ cov)[:, 0], normal)
    return surfels.centroid, normal, normal_var, np.trace(cov, axis1=1, axis2=2)


def match_pairs(sources, targets, params: MatchParams | None = None):
    """Every (source, target) pair of dense surfels passing both matching
    gates: index arrays into ``sources`` and ``targets`` (batches, or lists
    of surfel records that ``DenseSurfels.of`` checks) and the source
    centroid's signed distance along the target normal, in no particular
    order.

    A pair passes when the source centroid lies within ``theta_r`` of the
    target's normal line and within ``theta_d`` standard deviations of its
    plane, the variance being the sum of both centroid covariances along
    their normals.  One radius join gathers the candidates.  Its radius
    bounds the farthest centroid that could pass both gates, since a
    covariance's trace bounds its largest eigenvalue, so the result equals
    exhaustive evaluation.
    """
    if params is None:
        params = MatchParams()
    src_c, _, src_var, src_trace = _gate_arrays(DenseSurfels.of(sources))
    dst_c, dst_n, dst_var, dst_trace = _gate_arrays(DenseSurfels.of(targets))
    radius = np.sqrt(
        params.resolution_threshold**2
        + params.depth_threshold**2 * (src_trace.max(initial=0.0) + dst_trace.max(initial=0.0))
    )
    i, j, _ = radius_join(src_c, dst_c, radius)
    delta = src_c[i] - dst_c[j]
    normal = dst_n[j]
    along = _row_dot(normal, delta)
    off_normal = delta - along[:, None] * normal
    in_plane = np.sqrt(_row_dot(off_normal, off_normal))
    sigma = np.sqrt(src_var[i] + dst_var[j])
    passed = (in_plane < params.resolution_threshold) & (
        np.abs(along) / sigma < params.depth_threshold
    )
    return i[passed], j[passed], along[passed]


def match_surfel(src: DenseSurfel, dense_map: DenseSurfelMap,
                 params: MatchParams | None = None):
    """Keys of the map surfels that ``src`` matches (see ``match_pairs``),
    sorted."""
    _, found, _ = match_pairs([src], dense_map.batch, params)
    return sorted(found.tolist())


# -- Wishart fusion -----------------------------------------------------------


@dataclass(frozen=True)
class SurfelMeasurement:
    """Batch summary of the points backing one incoming surfel, or, with a
    leading axis on every field, of a stack of them."""

    mean: np.ndarray
    scatter: np.ndarray
    count: float
    noise: np.ndarray
    timestamp: float = None

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "scatter", np.asarray(self.scatter, dtype=float))
        object.__setattr__(self, "noise", np.asarray(self.noise, dtype=float))
        if np.any(np.asarray(self.count) < 1):
            raise InvalidArgumentError("measurement needs at least one point")


def _chol_or_regularize(m, what):
    """Lower Cholesky factors of a stack; a matrix whose factorization fails
    is factored again with 1e-12 I added, and logged."""
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        pass
    out = np.empty_like(m)
    for k, matrix in enumerate(m):
        try:
            out[k] = np.linalg.cholesky(matrix)
        except np.linalg.LinAlgError:
            log.warning("%s singular during fusion; regularizing", what)
            out[k] = np.linalg.cholesky(matrix + 1e-12 * np.eye(3))
    return out


def extract_normal_batch(eigh, previous):
    """Smallest-eigenvalue eigenvector of each scatter, given the scatters'
    ``eigh3`` ``(eigenvalues, normals)``, sign-continuous with its previous
    normal; the previous normal is kept where the two smallest eigenvalues
    are indistinguishable."""
    eigenvalues, normals = eigh
    scale = np.maximum(np.abs(eigenvalues[:, 2]), 1e-30)
    ambiguous = eigenvalues[:, 1] - eigenvalues[:, 0] < 1e-9 * scale
    if log.isEnabledFor(logging.DEBUG):
        for _ in range(np.count_nonzero(ambiguous)):
            log.debug("ambiguous surfel normal; keeping previous")
    flip = _row_dot(normals, previous) < 0.0
    return np.where(ambiguous[:, None], previous, np.where(flip[:, None], -normals, normals))


def fuse_batch(dst: DenseSurfels, meas: SurfelMeasurement):
    """Normal-inverse-Wishart update of centroid, covariance, and extent of
    each destination row by the measurement in the same row of a stacked
    ``meas``.

    Returns the fused batch, not checked, and the eigenvalues of its
    centroid covariances and scatters as ``check_dense`` takes them: the
    PSD clamps give them, ``psd_eigh`` of the scatters, whose eigenvectors
    give the normals too, and ``psd_eigvalsh`` of the centroid covariances.
    The extent's clamp reads no eigenvalue it returns, so it is
    ``psd_eigvalsh`` too.
    """
    if np.any(dst.dof <= MEASUREMENT_DIM + 1):
        raise InvalidArgumentError("surfel extent state not yet well defined")
    count = np.asarray(meas.count, dtype=float)
    extent = dst.scatter / (dst.dof - MEASUREMENT_DIM - 1)[:, None, None]
    y = extent + meas.noise
    s = dst.centroid_cov + y / count[:, None, None]
    sqrt_y = _chol_or_regularize(y, "innovation scale Y")
    sqrt_s = _chol_or_regularize(s, "innovation covariance S")
    gain = dst.centroid_cov @ np.linalg.inv(s)
    delta = meas.mean - dst.centroid
    mean = dst.centroid + (gain @ delta[:, :, None])[:, :, 0]
    centroid_cov = dst.centroid_cov - gain @ dst.centroid_cov

    sqrt_x = np.linalg.cholesky(psd_eigvalsh(extent)[0] + 1e-18 * np.eye(3))
    innovation = delta[:, :, None] * delta[:, None, :]
    left_s = sqrt_x @ np.linalg.inv(sqrt_s)
    left_y = sqrt_x @ np.linalg.inv(sqrt_y)
    n_bar = left_s @ innovation @ _transpose(left_s)
    y_bar = left_y @ meas.scatter @ _transpose(left_y)
    scatter, scatter_eigh = psd_eigh(dst.scatter + n_bar + y_bar)
    centroid_cov, cov_eigenvalues = psd_eigvalsh(centroid_cov)

    timestamp = dst.timestamp
    if meas.timestamp is not None:
        timestamp = np.maximum(timestamp, meas.timestamp)
    fused = replace(
        dst,
        centroid=mean,
        normal=extract_normal_batch(scatter_eigh, dst.normal),
        centroid_cov=centroid_cov,
        scatter=scatter,
        dof=dst.dof + count,
        obs_count=dst.obs_count + 1,
        timestamp=timestamp,
    )
    return fused, {"centroid_cov": cov_eigenvalues, "scatter": scatter_eigh[0]}


def fuse_surfel(dst: DenseSurfel, meas: SurfelMeasurement) -> DenseSurfel:
    """``fuse_batch`` for one surfel record, checked as it enters and as it
    leaves."""
    one = SurfelMeasurement(
        meas.mean[None], meas.scatter[None], [meas.count], meas.noise[None],
        None if meas.timestamp is None else [meas.timestamp],
    )
    return check_dense(*fuse_batch(DenseSurfels.of([dst]), one))[0]


# -- point-to-plane ICP on sparse surfels -------------------------------------

# The ICP's iteration cap, the radius within which it pairs centroids and
# the plane distance within which a pair is an inlier, in meters.
ICP_MAX_ITERATIONS = 20
MAX_PAIR_DISTANCE = 0.5
INLIER_DISTANCE = 0.05
# Minimum |n_s . n_d| for an ICP pair; sparse normals carry no sign.
NORMAL_COMPATIBILITY = 0.9

# Minimum smallest/largest eigenvalue ratio of the ICP's planarity-weighted
# normal matrix sum(w n n^T) for a loop-closure trigger.  Below it the overlap
# leaves a translation direction unconstrained (floor, ceiling and one wall
# constrain nothing along the wall), so the recovered shift is arbitrary.
MIN_NORMAL_EIGEN_RATIO = 1e-3


@dataclass
class IcpResult:
    rotation: np.ndarray
    translation: np.ndarray
    inlier_fraction: float = 0.0
    converged: bool = False
    # Source and destination centroids of the inlier pairs, each (m, 3).
    pairs: tuple = field(default_factory=lambda: (np.zeros((0, 3)), np.zeros((0, 3))))
    normal_eigen_ratio: float = 0.0  # of sum(w n n^T) at the final association


def _associate(rotation, translation, src_pts, src_normals, dst: KeyedPoints, dst_normals):
    """ICP pairs at one pose: each moved source centroid with its nearest
    destination centroid closer than ``MAX_PAIR_DISTANCE`` (the radius
    ``dst`` is keyed at) whose normal is compatible,
    ``|R n_s . n_d| > NORMAL_COMPATIBILITY``; of equally near ones, the
    lowest index.

    One join with the keyed destinations gathers the candidates.  Each distance is the square
    root of the join's squared distance, which rounds as ``np.linalg.norm``
    of the difference does, and one ``lexsort`` on (source, distance,
    destination) picks each source's nearest compatible destination.
    Returns the paired moved source centroids and the source and
    destination index arrays, by source.
    """
    moved = src_pts @ rotation.T + translation
    i, j, d_sq = dst.join(moved)
    turned = src_normals @ rotation.T
    compatible = np.abs(_row_dot(turned[i], dst_normals[j])) > NORMAL_COMPATIBILITY
    i, j, d = i[compatible], j[compatible], np.sqrt(d_sq[compatible])
    order = np.lexsort((j, d, i))
    i, j, d = i[order], j[order], d[order]
    paired = (np.diff(i, prepend=-1) != 0) & (d < dst.radius)
    return moved[i[paired]], i[paired], j[paired]


def icp_point_to_plane(src_surfels, dst_surfels):
    """Weighted point-to-plane alignment of sparse surfel centroids, in at
    most ``ICP_MAX_ITERATIONS`` solves.  It converges when a step's norm
    falls below 1e-10; an ICP that runs out of solves first, or whose solve
    fails, or that forms fewer than six pairs, does not converge.

    Each source surfel pairs with its nearest destination centroid closer
    than ``MAX_PAIR_DISTANCE`` whose normal is compatible with the rotated
    source normal (``|R n_s . n_d| > NORMAL_COMPATIBILITY``), so voxels on
    different planes never pair; of equally near ones it takes the lowest
    destination index.  The destination centroids are keyed once at
    ``MAX_PAIR_DISTANCE`` (``KeyedPoints``), and each association is one
    join of the moved source centroids with them, not a full distance
    matrix.  The same
    association drives every solve and the final count.  A pair is an
    inlier when the moved source centroid lies within ``INLIER_DISTANCE`` of
    the destination surfel's plane; the inlier fraction is taken over the
    pairs formed at the final pose, since overlap itself is required
    separately (at least six pairs, and the caller's minimum surfel
    counts).

    Returns the transform mapping source centroids onto the destination map,
    that inlier fraction, the inlier pairs as two (m, 3) arrays of the paired
    source and destination centroids (empty when the ICP did not converge),
    and the smallest/largest
    eigenvalue ratio of the planarity-weighted normal matrix ``sum(w n n^T)``
    of the final pairs, which is near 0 when the pairs leave a translation
    direction free.  Either set is a ``SparseSurfels`` batch or a list of
    ``SparseSurfel`` records, checked once (``SparseSurfels.of``).
    """
    src, dst = SparseSurfels.of(src_surfels), SparseSurfels.of(dst_surfels)
    if len(src) == 0 or len(dst) == 0:
        return IcpResult(np.eye(3), np.zeros(3))
    src_pts, src_normals = src.centroid, src.normal
    dst_pts, dst_normals = dst.centroid, dst.normal
    keyed = KeyedPoints(dst_pts, MAX_PAIR_DISTANCE)
    weights_dst = np.maximum(dst.planarity, 0.05)

    rotation = np.eye(3)
    translation = np.zeros(3)
    for _ in range(ICP_MAX_ITERATIONS):
        p, src_idx, dst_idx = _associate(rotation, translation, src_pts, src_normals,
                                         keyed, dst_normals)
        if src_idx.size < 6:
            return IcpResult(rotation, translation)
        q = dst_pts[dst_idx]
        n = dst_normals[dst_idx]
        w = weights_dst[dst_idx]
        residual = np.sum(n * (p - q), axis=1)
        jac = np.concatenate([np.cross(p, n, axis=1), n], axis=1)
        jw = jac * w[:, None]
        hess = jw.T @ jac
        grad = jw.T @ residual
        try:
            delta = np.linalg.solve(hess + 1e-12 * np.eye(6), -grad)
        except np.linalg.LinAlgError:
            return IcpResult(rotation, translation)
        (step_rot,), (step_t,) = lie.se3_exp_batch(delta[None])
        rotation = step_rot @ rotation
        translation = step_rot @ translation + step_t
        if np.linalg.norm(delta) < 1e-10:
            break
    else:
        # Out of iterations with the last step still large: not converged.
        return IcpResult(rotation, translation)

    p, src_idx, dst_idx = _associate(rotation, translation, src_pts, src_normals,
                                     keyed, dst_normals)
    if src_idx.size < 6:
        return IcpResult(rotation, translation)
    n = dst_normals[dst_idx]
    q = dst_pts[dst_idx]
    eigenvalues = eigvalsh3((n * weights_dst[dst_idx][:, None]).T @ n)
    plane_d = np.abs(np.sum(n * (p - q), axis=1))
    inliers = plane_d < INLIER_DISTANCE
    pairs = src_pts[src_idx[inliers]], q[inliers]
    return IcpResult(rotation, translation, float(np.mean(inliers)), True, pairs,
                     float(eigenvalues[0] / eigenvalues[-1]))


# -- temporal fusion ----------------------------------------------------------


@dataclass
class LocalMaps:
    """One window's output: local sparse/dense maps plus the sensor origin.

    ``sparse`` and ``dense`` are ``SparseSurfels`` and ``DenseSurfels``
    batches; a list of surfel records is stacked and checked into one.  The
    sensor origin must be a finite 3-vector and the timestamp finite.
    """

    sparse: SparseSurfels
    dense: DenseSurfels
    sensor_origin: np.ndarray = field(default_factory=lambda: np.zeros(3))
    timestamp: float = None

    def __post_init__(self):
        self.sensor_origin = np.asarray(self.sensor_origin, dtype=float)
        if self.sensor_origin.shape != (3,) or not np.isfinite(self.sensor_origin).all():
            raise InvalidArgumentError("sensor origin must be a finite 3-vector")
        self.sparse = SparseSurfels.of(self.sparse)
        self.dense = DenseSurfels.of(self.dense)
        if self.timestamp is None:
            self.timestamp = float(self.dense.timestamp.max()) if len(self.dense) else 0.0
        if not np.isfinite(self.timestamp):
            raise InvalidArgumentError("local map timestamp must be finite")


@dataclass
class DeformationTrigger:
    rotation: np.ndarray
    translation: np.ndarray
    inlier_pairs: tuple  # IcpResult.pairs


# Loop-closure trigger thresholds: the ICP's inlier fraction (theta_in) and
# misalignment (theta_dist, meters), and the fewest sparse surfels on either
# side for the ICP to run.
INLIER_THRESHOLD = 0.35
DISTANCE_THRESHOLD = 0.05
ICP_MIN_SURFELS = 10
# A surfel observed fewer times than this is culled once it is old enough.
STABLE_OBS = 3


@dataclass
class TemporalFusionConfig:
    active_window: float = 30.0
    cull_age: float = 60.0
    gap_threshold: int = 20  # theta_n
    match: MatchParams = field(default_factory=MatchParams)


@dataclass
class FusionStepMetrics:
    step: int
    n_active: int
    n_inactive: int
    n_new: int
    n_fused: int
    n_culled: int
    icp_inlier: float
    icp_dist: float  # m; NaN when the ICP did not run or did not converge
    triggered: bool


@dataclass
class TemporalFusionResult:
    metrics: FusionStepMetrics
    trigger: DeformationTrigger | None


def _rounds(slot):
    """The positions of ``slot`` in rounds: round ``r`` holds the ``r``-th
    position of every value, so folding the rounds in order visits each
    value's positions in input order and no round holds a value twice."""
    order = np.argsort(slot, kind="stable")
    starts = np.flatnonzero(np.diff(slot[order], prepend=-1) != 0)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order)) - np.repeat(starts, np.diff(starts, append=len(order)))
    return [np.flatnonzero(rank == r) for r in range(rank.max(initial=-1) + 1)]


def _fold(state: DenseSurfels, slot, sources: DenseSurfels, noise):
    """Fuse each local surfel ``sources[m]``, with beam noise ``noise[m]``,
    into row ``slot[m]`` of ``state``, in place; every row must have a
    measurement.  Returns the eigenvalues of the fused covariance stacks, as
    ``check_dense`` takes them.

    A row's measurements are fused in input order, so the rows are folded
    in rounds: round ``r`` fuses the ``r``-th measurement of every row that
    has one, all at once.
    """
    eigenvalues = {f: np.empty((len(state), 3)) for f in ("centroid_cov", "scatter")}
    for pending in _rounds(slot):
        rows, src = slot[pending], sources[pending]
        dst = state[rows]
        meas = SurfelMeasurement(src.centroid, src.scatter, src.dof, noise[pending],
                                 src.timestamp)
        fused, fused_eigenvalues = fuse_batch(dst, meas)
        _put(state, rows, fused)
        for f, w in fused_eigenvalues.items():
            eigenvalues[f][rows] = w
    return eigenvalues


def temporal_fusion_step(local: LocalMaps, global_maps: GlobalMaps,
                         cfg: TemporalFusionConfig | None = None,
                         step=0) -> TemporalFusionResult:
    """Fuse a local map into the active global map and watch the inactive map.

    New surfels fuse only into the active partition (by timestamp age) as it
    stood before the step, so a local map never fuses into itself; unmatched
    ones are inserted as they are, in input order, and count as active.
    Matching sees that snapshot too: every local surfel's gates and best
    match are evaluated against the active surfels before any of them is
    updated; a local surfel's best match is the one nearest it along the
    map normal, and of equally near ones the earliest stored row.  The
    matched surfels are then fused in input order, each into its
    destination's current state; this is folded in rounds (see ``_fold``),
    and the fused rows are checked once.  The inactive sparse
    set is taken before the local sparse surfels are pooled into the global
    sparse map, since pooling stamps every revisited voxel with the current
    time.  A weighted sparse-surfel ICP of the local sparse map against that
    inactive set raises a deformation trigger when its inlier fraction
    exceeds ``INLIER_THRESHOLD``, its translation exceeds
    ``DISTANCE_THRESHOLD`` (see ``icp_point_to_plane`` for the inlier
    definition) and its pairs constrain every translation direction
    (normal eigenvalue ratio at least ``MIN_NORMAL_EIGEN_RATIO``);
    otherwise inactive surfels that overlap the active map may be merged
    back.  Surfels observed fewer than ``STABLE_OBS`` times whose last
    observation is older than ``cfg.cull_age`` are deleted.

    The step reads the dense map's batch as its snapshot and stores the next
    batch once, at the end: the stored rows, in their order, with the fused
    rows and the re-activated timestamps written in, then the new surfels
    in input order, less the culled rows.
    """
    if cfg is None:
        cfg = TemporalFusionConfig()
    now = local.timestamp
    before = global_maps.dense.batch
    inactive = now - before.timestamp > cfg.active_window
    active = np.flatnonzero(~inactive)

    # Each local surfel's best match in the active set from before the step:
    # the smallest |n . delta|, then the earliest row.
    src_idx, dst_idx, along = match_pairs(local.dense, before[active], cfg.match)
    order = np.lexsort((dst_idx, np.abs(along), src_idx))
    src_idx, dst_idx = src_idx[order], dst_idx[order]
    first = np.diff(src_idx, prepend=-1) != 0
    matched = src_idx[first]
    unmatched = np.ones(len(local.dense), dtype=bool)
    unmatched[matched] = False
    new = local.dense[unmatched]
    # The next map: the stored rows, then the new surfels, in a new batch.
    state = _concat(before, new)
    if matched.size:
        fused_rows, slot = np.unique(active[dst_idx[first]], return_inverse=True)
        fused = state[fused_rows]
        sources = local.dense[matched]
        noise = beam_noise_batch(local.sensor_origin, sources.centroid, sources.normal)
        _put(state, fused_rows, check_dense(fused, _fold(fused, slot, sources, noise)))
    inactive = np.concatenate([inactive, np.zeros(len(new), dtype=bool)])

    sparse = global_maps.sparse.all()
    inactive_sparse = sparse[now - sparse.timestamp > cfg.active_window]
    global_maps.sparse.fuse(local.sparse)

    trigger = None
    icp = IcpResult(np.eye(3), np.zeros(3))
    if (
        len(local.sparse) >= ICP_MIN_SURFELS
        and len(inactive_sparse) >= ICP_MIN_SURFELS
    ):
        icp = icp_point_to_plane(local.sparse, inactive_sparse)
        if not icp.converged:
            log.info("inactive-map ICP did not converge; trigger suppressed")
        elif icp.normal_eigen_ratio < MIN_NORMAL_EIGEN_RATIO:
            log.info(
                "inactive-map overlap is degenerate (normal eigenvalue ratio %.2e); "
                "trigger suppressed",
                icp.normal_eigen_ratio,
            )
    misalignment = float(np.linalg.norm(icp.translation)) if icp.converged else np.nan
    if (
        icp.converged
        and icp.normal_eigen_ratio >= MIN_NORMAL_EIGEN_RATIO
        and icp.inlier_fraction > INLIER_THRESHOLD
        and misalignment > DISTANCE_THRESHOLD
    ):
        trigger = DeformationTrigger(icp.rotation, icp.translation, icp.pairs)
    elif inactive.any():
        # Map coherency: re-activate inactive surfels that already overlap
        # the active map, unless too many gaps remain.  An inactive surfel
        # overlaps when an active one lies within theta_r, and is a gap when
        # the nearest active ones lie between theta_r and 3 theta_r.
        theta_r = cfg.match.resolution_threshold
        asleep = np.flatnonzero(inactive)
        near, _, d_sq = radius_join(
            state.centroid[asleep], state.centroid[~inactive], 3.0 * theta_r
        )
        overlapping = np.unique(near[d_sq <= theta_r * theta_r])
        gaps = len(np.unique(near)) - len(overlapping)
        if len(overlapping) and gaps < cfg.gap_threshold:
            woken = asleep[overlapping]
            state.timestamp[woken] = now
            inactive[woken] = False

    culled = (state.obs_count < STABLE_OBS) & (now - state.timestamp > cfg.cull_age)
    global_maps.dense.batch = state[~culled]

    metrics = FusionStepMetrics(
        step=step,
        n_active=int(np.count_nonzero(~inactive & ~culled)),
        n_inactive=int(np.count_nonzero(inactive & ~culled)),
        n_new=len(new),
        n_fused=len(matched),
        n_culled=int(np.count_nonzero(culled)),
        icp_inlier=icp.inlier_fraction,
        icp_dist=misalignment,
        triggered=trigger is not None,
    )
    return TemporalFusionResult(metrics, trigger)
