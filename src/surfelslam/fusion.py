"""Probabilistic surfel fusion: beam noise model, resolution-preserving
two-stage matching, normal-inverse-Wishart centroid/extent updates, colour
fusion, and the temporal active/inactive map step.

The Wishart update treats each incoming surfel as a batch of ``n`` points
summarized by their mean, accrued scatter, and world-frame measurement noise;
matrix square roots are lower Cholesky factors throughout.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import lie
from .errors import InvalidArgumentError
from .surfel_map import (
    DenseSurfel,
    DenseSurfelMap,
    GlobalMaps,
    clamp_psd,
    radius_join,
)

log = logging.getLogger(__name__)

MEASUREMENT_DIM = 3


@dataclass
class BeamNoise:
    """Per-return noise in beam coordinates plus the beam-to-world rotations."""

    sigma_r_sq: float
    sigma_d_sq: float
    sigma_i_sq: float
    rot_world_laser: np.ndarray = field(default_factory=lambda: np.eye(3))
    rot_laser_beam: np.ndarray = field(default_factory=lambda: np.eye(3))

    def __post_init__(self):
        if min(self.sigma_r_sq, self.sigma_d_sq, self.sigma_i_sq) < 0.0:
            raise InvalidArgumentError("beam noise variances must be non-negative")
        self.rot_world_laser = np.asarray(self.rot_world_laser, dtype=float)
        self.rot_laser_beam = np.asarray(self.rot_laser_beam, dtype=float)

    def beam_covariance(self):
        return np.diag(
            [self.sigma_r_sq, self.sigma_r_sq, self.sigma_i_sq + self.sigma_d_sq]
        )


def beam_noise_world(noise: BeamNoise):
    """Rotate the beam-frame covariance into world coordinates."""
    rot = noise.rot_world_laser @ noise.rot_laser_beam
    q = rot @ noise.beam_covariance() @ rot.T
    return 0.5 * (q + q.T)


@dataclass
class BeamModel:
    """Range- and incidence-dependent beam noise defaults."""

    sigma_r: float = 0.003
    sigma_d_base: float = 0.008
    sigma_d_per_meter: float = 0.0005
    beam_divergence: float = 0.003
    grazing_cutoff: float = np.pi / 2 - 1e-3


class IncidenceVariance(NamedTuple):
    value: float
    clamped: bool


def incidence_variance(angle, range_m, cfg: BeamModel | None = None):
    """Extra depth variance from the beam footprint at oblique incidence."""
    if cfg is None:
        cfg = BeamModel()
    if angle < 0.0:
        raise InvalidArgumentError("incidence angle must be non-negative")
    if angle >= cfg.grazing_cutoff:
        worst = (range_m * np.tan(cfg.grazing_cutoff) * cfg.beam_divergence) ** 2
        return IncidenceVariance(float(worst), True)
    return IncidenceVariance(
        float((range_m * np.tan(angle) * cfg.beam_divergence) ** 2), False
    )


def _align_z_to(direction):
    z = direction / np.linalg.norm(direction)
    seed = np.array([1.0, 0.0, 0.0]) if abs(z[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    x = np.cross(seed, z)
    x /= np.linalg.norm(x)
    y = np.cross(z, x)
    return np.stack([x, y, z], axis=1)


def beam_noise_for_return(sensor_origin, point, surface_normal=None,
                          cfg: BeamModel | None = None):
    """World-frame measurement noise for one return given the scan geometry."""
    if cfg is None:
        cfg = BeamModel()
    beam = np.asarray(point, dtype=float) - np.asarray(sensor_origin, dtype=float)
    range_m = float(np.linalg.norm(beam))
    if range_m < 1e-9:
        return cfg.sigma_r**2 * np.eye(3)
    rot = _align_z_to(beam)
    sigma_d = cfg.sigma_d_base + cfg.sigma_d_per_meter * range_m
    if surface_normal is not None:
        cos_i = abs(float(surface_normal @ (beam / range_m)))
        angle = np.arccos(np.clip(cos_i, 0.0, 1.0))
        sigma_i_sq = incidence_variance(angle, range_m, cfg).value
    else:
        sigma_i_sq = 0.0
    noise = BeamNoise(cfg.sigma_r**2, sigma_d**2, sigma_i_sq, rot, np.eye(3))
    return beam_noise_world(noise)


# -- matching ---------------------------------------------------------------


@dataclass
class MatchParams:
    resolution_threshold: float = 0.02  # theta_r, meters
    depth_threshold: float = 3.0  # theta_d, Mahalanobis


def _dot(a, b):
    """Row-wise dot products of two stacks of vectors, through ``matmul`` so
    each rounds as the scalar ``a @ b`` does."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _gate_arrays(surfels):
    """Stacked centroids, normals, normal variances ``n^T C n`` of the
    centroid covariances, and covariance traces."""
    centroid = np.array([s.centroid for s in surfels]).reshape(-1, 3)
    normal = np.array([s.normal for s in surfels]).reshape(-1, 3)
    cov = np.array([s.centroid_cov for s in surfels]).reshape(-1, 3, 3)
    normal_var = _dot((normal[:, None, :] @ cov)[:, 0], normal)
    return centroid, normal, normal_var, np.trace(cov, axis1=1, axis2=2)


def match_pairs(sources, targets, params: MatchParams | None = None):
    """Every (source, target) pair of dense surfels passing both matching
    gates: index arrays into ``sources`` and ``targets`` and the source
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
    src_c, _, src_var, src_trace = _gate_arrays(sources)
    dst_c, dst_n, dst_var, dst_trace = _gate_arrays(targets)
    radius = np.sqrt(
        params.resolution_threshold**2
        + params.depth_threshold**2 * (src_trace.max(initial=0.0) + dst_trace.max(initial=0.0))
    )
    i, j, _ = radius_join(src_c, dst_c, radius)
    delta = src_c[i] - dst_c[j]
    normal = dst_n[j]
    along = _dot(normal, delta)
    off_normal = delta - along[:, None] * normal
    in_plane = np.sqrt(_dot(off_normal, off_normal))
    sigma = np.sqrt(src_var[i] + dst_var[j])
    passed = (in_plane < params.resolution_threshold) & (
        np.abs(along) / sigma < params.depth_threshold
    )
    return i[passed], j[passed], along[passed]


def match_surfel(src: DenseSurfel, dense_map: DenseSurfelMap,
                 params: MatchParams | None = None):
    """Keys of the map surfels that ``src`` matches (see ``match_pairs``),
    sorted."""
    keys = sorted(dense_map.surfels)
    _, found, _ = match_pairs([src], [dense_map.get(k) for k in keys], params)
    return [keys[f] for f in np.sort(found)]


# -- Wishart fusion -----------------------------------------------------------


@dataclass(frozen=True)
class SurfelMeasurement:
    """Batch summary of the points backing one incoming surfel."""

    mean: np.ndarray
    scatter: np.ndarray
    count: float
    noise: np.ndarray
    timestamp: float = None

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "scatter", np.asarray(self.scatter, dtype=float))
        object.__setattr__(self, "noise", np.asarray(self.noise, dtype=float))
        if self.count < 1:
            raise InvalidArgumentError("measurement needs at least one point")


def _chol_or_regularize(m, what):
    try:
        return np.linalg.cholesky(m), False
    except np.linalg.LinAlgError:
        log.warning("%s singular during fusion; regularizing", what)
        return np.linalg.cholesky(m + 1e-12 * np.eye(3)), True


def extract_normal(surfel: DenseSurfel):
    """Smallest-eigenvalue eigenvector of the scatter, sign-continuous with
    the previous normal; retains the previous normal if the two smallest
    eigenvalues are indistinguishable."""
    eigenvalues, vectors = np.linalg.eigh(surfel.scatter)
    scale = max(abs(eigenvalues[2]), 1e-30)
    if eigenvalues[1] - eigenvalues[0] < 1e-9 * scale:
        log.debug("ambiguous surfel normal; keeping previous")
        return surfel.normal
    normal = vectors[:, 0]
    if normal @ surfel.normal < 0.0:
        normal = -normal
    return normal / np.linalg.norm(normal)


def fuse_surfel(dst: DenseSurfel, meas: SurfelMeasurement) -> DenseSurfel:
    """Normal-inverse-Wishart update of centroid, covariance, and extent."""
    if dst.dof <= MEASUREMENT_DIM + 1:
        raise InvalidArgumentError("surfel extent state not yet well defined")
    extent = dst.scatter / (dst.dof - MEASUREMENT_DIM - 1)
    y = extent + meas.noise
    s = dst.centroid_cov + y / meas.count
    sqrt_y, _ = _chol_or_regularize(y, "innovation scale Y")
    sqrt_s, _ = _chol_or_regularize(s, "innovation covariance S")
    gain = dst.centroid_cov @ np.linalg.inv(s)
    mean = dst.centroid + gain @ (meas.mean - dst.centroid)
    centroid_cov = dst.centroid_cov - gain @ dst.centroid_cov

    sqrt_x = np.linalg.cholesky(clamp_psd(extent) + 1e-18 * np.eye(3))
    innovation = np.outer(meas.mean - dst.centroid, meas.mean - dst.centroid)
    left_s = sqrt_x @ np.linalg.inv(sqrt_s)
    left_y = sqrt_x @ np.linalg.inv(sqrt_y)
    n_bar = left_s @ innovation @ left_s.T
    y_bar = left_y @ meas.scatter @ left_y.T
    scatter = dst.scatter + n_bar + y_bar

    centroid_cov = clamp_psd(centroid_cov)
    scatter = clamp_psd(scatter)
    timestamp = dst.timestamp
    if meas.timestamp is not None:
        timestamp = max(timestamp, float(meas.timestamp))
    updated = replace(
        dst,
        centroid=mean,
        centroid_cov=centroid_cov,
        scatter=scatter,
        dof=dst.dof + meas.count,
        obs_count=dst.obs_count + 1,
        timestamp=timestamp,
    )
    return replace(updated, normal=extract_normal(updated))


# -- colour -------------------------------------------------------------------


@dataclass
class ColourCue:
    """Factors degrading a rendered colour sample."""

    radius_px: float
    radius_threshold_px: float
    depths: np.ndarray  # center, down, up, left, right (meters)
    edge_gain: float = 1.0
    variance_gain: float = 1.0
    depth_gain: float = 1.0
    sharpness: float = 4.0

    def __post_init__(self):
        self.depths = np.asarray(self.depths, dtype=float)
        if self.radius_threshold_px <= 0 or np.any(self.depths <= 0):
            raise InvalidArgumentError("colour cue needs positive depths and threshold")


def colour_uncertainty(cue: ColourCue):
    """Sigmoid combination of image-edge, depth-variance, and depth factors."""
    alpha_r = cue.edge_gain * (cue.radius_px / cue.radius_threshold_px) - 0.5
    alpha_v = cue.variance_gain * float(np.std(cue.depths)) - 0.5
    alpha_d = cue.depth_gain * float(cue.depths[0]) - 0.5
    return float(1.0 / (1.0 + np.exp(-cue.sharpness * (alpha_r + alpha_v + alpha_d))))


def fuse_colour(dst: DenseSurfel, src: DenseSurfel):
    """Precision-weighted colour mean and harmonically combined sigma."""
    if dst.colour_sigma <= 0 or src.colour_sigma <= 0:
        raise InvalidArgumentError("colour sigmas must be positive")
    w_d = 1.0 / dst.colour_sigma
    w_s = 1.0 / src.colour_sigma
    colour = (w_d * dst.colour + w_s * src.colour) / (w_d + w_s)
    sigma = 1.0 / (w_d + w_s)
    return colour, float(sigma)


# -- point-to-plane ICP on sparse surfels -------------------------------------

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
    inlier_fraction: float
    converged: bool
    pairs: list
    normal_eigen_ratio: float = 0.0  # of sum(w n n^T) at the final association


def _associate(rotation, translation, src_pts, src_normals, dst_pts, dst_normals,
               max_pair_distance):
    """ICP pairs at one pose: each moved source centroid with its nearest
    destination centroid within ``max_pair_distance`` whose normal is
    compatible, ``|R n_s . n_d| > NORMAL_COMPATIBILITY``.

    Returns the paired moved source centroids and the source and destination
    index arrays.
    """
    moved = src_pts @ rotation.T + translation
    d = np.linalg.norm(moved[:, None, :] - dst_pts[None, :, :], axis=2)
    d[np.abs(src_normals @ rotation.T @ dst_normals.T) <= NORMAL_COMPATIBILITY] = np.inf
    nearest = np.argmin(d, axis=1)
    src_idx = np.flatnonzero(d[np.arange(len(moved)), nearest] < max_pair_distance)
    return moved[src_idx], src_idx, nearest[src_idx]


def icp_point_to_plane(src_surfels, dst_surfels, max_iterations=20,
                       max_pair_distance=0.5, inlier_distance=0.05):
    """Weighted point-to-plane alignment of sparse surfel centroids.

    Each source surfel pairs with its nearest destination centroid within
    ``max_pair_distance`` whose normal is compatible with the rotated source
    normal (``|R n_s . n_d| > NORMAL_COMPATIBILITY``), so voxels on different
    planes never pair.  The same association drives every solve and the
    final count.  A pair is an inlier when the moved source centroid lies
    within ``inlier_distance`` of the destination surfel's plane; the inlier
    fraction is taken over the pairs formed at the final pose, since overlap
    itself is required separately (at least six pairs, and the caller's
    minimum surfel counts).

    Returns the transform mapping source centroids onto the destination map,
    that inlier fraction, the inlier pairs, and the smallest/largest
    eigenvalue ratio of the planarity-weighted normal matrix ``sum(w n n^T)``
    of the final pairs, which is near 0 when the pairs leave a translation
    direction free.
    """
    if not src_surfels or not dst_surfels:
        return IcpResult(np.eye(3), np.zeros(3), 0.0, False, [])
    src_pts = np.array([s.centroid for s in src_surfels])
    src_normals = np.array([s.normal for s in src_surfels])
    dst_pts = np.array([s.centroid for s in dst_surfels])
    dst_normals = np.array([s.normal for s in dst_surfels])
    weights_dst = np.array([max(s.planarity, 0.05) for s in dst_surfels])

    rotation = np.eye(3)
    translation = np.zeros(3)
    for _ in range(max_iterations):
        p, src_idx, dst_idx = _associate(rotation, translation, src_pts, src_normals,
                                         dst_pts, dst_normals, max_pair_distance)
        if src_idx.size < 6:
            return IcpResult(rotation, translation, 0.0, False, [])
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
            return IcpResult(rotation, translation, 0.0, False, [])
        step = lie.se3_exp(np.concatenate([delta[:3], delta[3:]]))
        rotation = step.rotation @ rotation
        translation = step.rotation @ translation + step.translation
        if np.linalg.norm(delta) < 1e-10:
            break

    p, src_idx, dst_idx = _associate(rotation, translation, src_pts, src_normals,
                                     dst_pts, dst_normals, max_pair_distance)
    if src_idx.size < 6:
        return IcpResult(rotation, translation, 0.0, False, [])
    n = dst_normals[dst_idx]
    q = dst_pts[dst_idx]
    eigenvalues = np.linalg.eigvalsh((n * weights_dst[dst_idx][:, None]).T @ n)
    plane_d = np.abs(np.sum(n * (p - q), axis=1))
    inliers = plane_d < inlier_distance
    inlier_fraction = float(np.mean(inliers))
    pairs = [
        (src_pts[i].copy(), dst_pts[j].copy())
        for i, j in zip(src_idx[inliers], dst_idx[inliers])
    ]
    return IcpResult(rotation, translation, inlier_fraction, True, pairs,
                     float(eigenvalues[0] / eigenvalues[-1]))


# -- temporal fusion ----------------------------------------------------------


@dataclass
class LocalMaps:
    """One window's output: local sparse/dense maps plus the sensor origin."""

    sparse: list
    dense: list
    sensor_origin: np.ndarray = field(default_factory=lambda: np.zeros(3))
    timestamp: float = None

    def __post_init__(self):
        self.sensor_origin = np.asarray(self.sensor_origin, dtype=float)
        if self.timestamp is None:
            stamps = [s.timestamp for s in self.dense] or [0.0]
            self.timestamp = float(max(stamps))


@dataclass
class DeformationTrigger:
    rotation: np.ndarray
    translation: np.ndarray
    inlier_pairs: list


@dataclass
class TemporalFusionConfig:
    active_window: float = 30.0
    cull_age: float = 60.0
    inlier_threshold: float = 0.35  # theta_in, fraction of ICP pairs
    distance_threshold: float = 0.05  # theta_dist, meters
    gap_threshold: int = 20  # theta_n
    stable_obs: int = 3
    match: MatchParams = field(default_factory=MatchParams)
    beam: BeamModel = field(default_factory=BeamModel)
    icp_min_surfels: int = 10


@dataclass
class FusionStepMetrics:
    step: int
    n_active: int
    n_inactive: int
    n_new: int
    n_fused: int
    n_culled: int
    icp_inlier: float
    icp_dist: float
    triggered: bool


@dataclass
class TemporalFusionResult:
    metrics: FusionStepMetrics
    trigger: DeformationTrigger | None


def temporal_fusion_step(local: LocalMaps, global_maps: GlobalMaps,
                         cfg: TemporalFusionConfig | None = None,
                         step=0) -> TemporalFusionResult:
    """Fuse a local map into the active global map and watch the inactive map.

    New surfels fuse only into the active partition (by timestamp age) as it
    stood before the step, so a local map never fuses into itself; unmatched
    ones are inserted as they are and count as active.  Matching sees that
    snapshot too: every local surfel's gates and best match are evaluated
    against the active surfels before any of them is updated, and the
    matched surfels are then fused in input order, each into its
    destination's current state.  The inactive sparse
    set is taken before the local sparse surfels are pooled into the global
    sparse map, since pooling stamps every revisited voxel with the current
    time.  A weighted sparse-surfel ICP of the local sparse map against that
    inactive set raises a deformation trigger when its inlier fraction
    exceeds ``cfg.inlier_threshold``, its translation exceeds
    ``cfg.distance_threshold`` (see ``icp_point_to_plane`` for the inlier
    definition) and its pairs constrain every translation direction
    (normal eigenvalue ratio at least ``MIN_NORMAL_EIGEN_RATIO``);
    otherwise inactive surfels that overlap the active map may be merged
    back.  Surfels observed fewer than ``cfg.stable_obs`` times whose last
    observation is older than ``cfg.cull_age`` are deleted.
    """
    if cfg is None:
        cfg = TemporalFusionConfig()
    dense = global_maps.dense
    now = local.timestamp
    active_ids = set()
    inactive_ids = set()
    for key, s in dense.surfels.items():
        (active_ids if now - s.timestamp <= cfg.active_window else inactive_ids).add(key)

    # Each local surfel's best match in the active set from before the step:
    # the smallest |n . delta|, then the lowest key.
    targets = sorted(active_ids)
    src_idx, dst_idx, along = match_pairs(
        local.dense, [dense.get(k) for k in targets], cfg.match
    )
    order = np.lexsort((dst_idx, np.abs(along), src_idx))
    src_idx, dst_idx = src_idx[order], dst_idx[order]
    first = np.diff(src_idx, prepend=-1) != 0
    best = np.full(len(local.dense), -1)
    best[src_idx[first]] = dst_idx[first]

    n_new = 0
    n_fused = 0
    for surfel, target in zip(local.dense, best.tolist()):
        if target >= 0:
            key = targets[target]
            dst = dense.get(key)
            noise = beam_noise_for_return(
                local.sensor_origin, surfel.centroid, surfel.normal, cfg.beam
            )
            meas = SurfelMeasurement(
                surfel.centroid, surfel.scatter, surfel.dof, noise,
                timestamp=surfel.timestamp,
            )
            fused = fuse_surfel(dst, meas)
            colour, sigma = fuse_colour(dst, surfel)
            fused = replace(fused, colour=colour, colour_sigma=sigma)
            dense.replace(key, fused)
            n_fused += 1
        else:
            key = dense.add(surfel)
            active_ids.add(key)
            n_new += 1

    inactive_sparse = [
        s for s in global_maps.sparse.all() if now - s.timestamp > cfg.active_window
    ]
    global_maps.sparse.fuse(local.sparse)

    trigger = None
    icp = IcpResult(np.eye(3), np.zeros(3), 0.0, False, [])
    if (
        len(local.sparse) >= cfg.icp_min_surfels
        and len(inactive_sparse) >= cfg.icp_min_surfels
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
    misalignment = float(np.linalg.norm(icp.translation))
    if (
        icp.converged
        and icp.normal_eigen_ratio >= MIN_NORMAL_EIGEN_RATIO
        and icp.inlier_fraction > cfg.inlier_threshold
        and misalignment > cfg.distance_threshold
    ):
        trigger = DeformationTrigger(icp.rotation, icp.translation, icp.pairs)
    elif inactive_ids:
        # Map coherency: re-activate inactive surfels that already overlap
        # the active map, unless too many gaps remain.  An inactive surfel
        # overlaps when an active one lies within theta_r, and is a gap when
        # the nearest active ones lie between theta_r and 3 theta_r.
        theta_r = cfg.match.resolution_threshold
        inactive = sorted(inactive_ids)
        near, _, d_sq = radius_join(
            [dense.get(k).centroid for k in inactive],
            [dense.get(k).centroid for k in active_ids],
            3.0 * theta_r,
        )
        overlapping = np.unique(near[d_sq <= theta_r * theta_r])
        gaps = len(np.unique(near)) - len(overlapping)
        if len(overlapping) and gaps < cfg.gap_threshold:
            for key in (inactive[k] for k in overlapping):
                s = dense.get(key)
                dense.replace(key, replace(s, timestamp=now))
                inactive_ids.discard(key)
                active_ids.add(key)

    n_culled = 0
    for key in sorted(dense.surfels.keys()):
        s = dense.get(key)
        if s.obs_count < cfg.stable_obs and now - s.timestamp > cfg.cull_age:
            dense.remove(key)
            active_ids.discard(key)
            inactive_ids.discard(key)
            n_culled += 1

    metrics = FusionStepMetrics(
        step=step,
        n_active=len(active_ids),
        n_inactive=len(inactive_ids),
        n_new=n_new,
        n_fused=n_fused,
        n_culled=n_culled,
        icp_inlier=icp.inlier_fraction,
        icp_dist=misalignment,
        triggered=trigger is not None,
    )
    return TemporalFusionResult(metrics, trigger)
