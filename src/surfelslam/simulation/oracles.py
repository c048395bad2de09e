"""Brute-force reference implementations used by the test suite.

Everything here is correctness-first and O(n^2) or worse: truncated power
series of the SE(3) exponential and of the logarithm near the identity, the
left Jacobian by central differences of those series, the SE(3) geodesic of
one pose pair through the series exponential, trajectory brackets with
every sample time gathered afresh where it is read, the spline correction
evaluated from its knot weights and control points, map-prior residuals
evaluated one constraint at a time on the trajectory they read, IMU groups
integrated one sample at a time, linear-scan spatial queries, radius joins
and ICP association from the full distance matrix, exhaustive matching,
hash-grouped voxel moments, dense-surfel seeding by linear scans,
closed-form 3x3 eigen solves, and the Wishart update through LAPACK's
stacked Cholesky factorizations and inverses.  None of it is used on the
fast paths, and none of the Lie references evaluates the closed form of the
map it checks.  A pose here is a 4x4 homogeneous matrix.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .. import lie
from ..errors import InvalidArgumentError, MissingSupportError, OutOfRangeError
from ..fusion import MEASUREMENT_DIM, NORMAL_COMPATIBILITY, extract_normal_batch
from ..local_mapping import GRAVITY
from ..surfel_map import psd_eigh, psd_eigvalsh
from ..trajectory import Trajectory, compose_correction


def se3_exp_series(xi, terms=20):
    """Truncated power series of the 4x4 matrix exponential of a twist."""
    xi = np.asarray(xi, dtype=float)
    m = np.zeros((4, 4))
    m[:3, :3] = lie.hat_batch(xi[None, :3])[0]
    m[:3, 3] = xi[3:]
    out = np.eye(4)
    power = np.eye(4)
    factorial = 1.0
    for k in range(1, terms + 1):
        power = power @ m
        factorial *= k
        out = out + power / factorial
    return out


def _log_near_identity(transform, terms=8):
    """Twist of a 4x4 transform near the identity, by the Mercator series of
    ``log(I + A)``; the series needs ``|A| < 1`` and converges like ``|A|^k``."""
    a = transform - np.eye(4)
    out = np.zeros((4, 4))
    power = np.eye(4)
    for k in range(1, terms + 1):
        power = power @ a
        out = out + (-1) ** (k + 1) * power / k
    return np.array([out[2, 1], out[0, 2], out[1, 0], *out[:3, 3]])


def numeric_left_jacobian(xi, eps=1e-5, terms=40):
    """SE(3) left Jacobian built by central differences of the exponential.

    Column i approximates d/de log(exp(xi + e e_i) exp(-xi)) at e = 0, with
    both maps as power series; ``terms`` must suffice for the norm of ``xi``.
    """
    xi = np.asarray(xi, dtype=float)
    inv = se3_exp_series(-xi, terms)
    out = np.zeros((6, 6))
    for i in range(6):
        step = np.zeros(6)
        step[i] = eps
        plus = _log_near_identity(se3_exp_series(xi + step, terms) @ inv)
        minus = _log_near_identity(se3_exp_series(xi - step, terms) @ inv)
        out[:, i] = (plus - minus) / (2.0 * eps)
    return out


def interp_pose(pose_a, pose_b, alpha, terms=40):
    """``Ta * exp(alpha * log(Ta^-1 Tb))`` for one pair of 4x4 poses, the
    exponential as its power series."""
    phi, rho = lie.se3_relative_log_batch(
        pose_a[None, :3, :3], pose_a[None, :3, 3], pose_b[None, :3, :3], pose_b[None, :3, 3]
    )
    return pose_a @ se3_exp_series(alpha * np.concatenate([phi[0], rho[0]]), terms)


def brackets_by_repeated_gathers(times, taus, tol):
    """``trajectory.brackets`` for valid queries as first written: the
    index read off the mean spacing and searched again where the check
    fails, with ``times[idx]`` and ``times[idx + 1]`` gathered afresh by
    every expression that reads them."""
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    last = len(times) - 2
    rate = (last + 1) / (times[-1] - times[0])
    idx = np.clip(np.floor((taus - times[0]) * rate).astype(np.intp), 0, last)
    miss = ~((times[idx] <= taus) & (taus < times[idx + 1]))
    if miss.any():
        idx[miss] = np.clip(np.searchsorted(times, taus[miss], side="right") - 1, 0, last)
    alpha = np.clip((taus - times[idx]) / (times[idx + 1] - times[idx]), 0.0, 1.0)
    alpha[np.abs(taus - times[idx]) <= tol] = 0.0
    alpha[np.abs(times[idx + 1] - taus) <= tol] = 1.0
    return idx, alpha


def correction_batch(grid, c_t, c_r, taus):
    """Correction rotations (N, 3, 3) and translations (N, 3) at ``taus`` of
    the spline on ``grid`` with translational and rotation-vector control
    points ``c_t`` and ``c_r`` (K, 3), each the knot weights times the
    control points."""
    idx, weights = grid.knot_indices_and_weights(taus)
    r = np.einsum("nk,nkj->nj", weights, c_r[idx])
    return lie.so3_exp_batch(r), np.einsum("nk,nkj->nj", weights, c_t[idx])


def apply_correction(traj, grid, c_t, c_r):
    """Compose the spline correction of control points ``c_t``, ``c_r`` on
    ``grid`` onto every trajectory sample, ``T'_k = dT(tau_k) T_k``."""
    inside = grid.covers(traj.times)
    if not np.all(inside):
        raise MissingSupportError(
            "grid does not span the trajectory", traj.times[~inside]
        )
    rot_c, t_c = correction_batch(grid, c_t, c_r, traj.times)
    rotations, translations = compose_correction(rot_c, t_c, traj.rotations, traj.translations)
    return Trajectory(traj.times.copy(), rotations, translations, traj.nominal_rate)


def residual_map_prior(constraint, traj):
    """Point-to-plane residual against a fixed world-frame map point (meters)
    on ``traj``."""
    rot, t = traj.sample_batch([constraint.tau_c])
    world = rot[0] @ constraint.u_c + t[0]
    return float(constraint.n_mc @ (constraint.u_m - world))


def residual_imu(sample, traj, accel_bias=0.0, gyro_bias=0.0):
    """Six IMU residuals (accel m/s^2, gyro rad/s) of ``sample`` on ``traj``:
    measured minus predicted minus the bias, which the sensor adds.

    The acceleration uses central differences of the interpolated translation
    at the trajectory sample interval; the body rate uses the forward
    difference of the interpolated rotation.
    """
    h = 1.0 / traj.nominal_rate
    taus = np.array([sample.tau - h, sample.tau, sample.tau + h])
    if np.any(taus < traj.start) or np.any(taus > traj.end):
        raise OutOfRangeError("IMU finite-difference stencil outside support")
    rot, t = traj.sample_batch(taus)
    accel_world = (t[2] - 2.0 * t[1] + t[0]) / (h * h)
    accel_res = sample.accel - rot[1].T @ (accel_world - GRAVITY) - accel_bias
    omega = lie.so3_log_batch((rot[1].T @ rot[2])[None])[0] / h
    gyro_res = sample.gyro - omega - gyro_bias
    return np.concatenate([accel_res, gyro_res])


def residual_imu_group(samples, traj, accel_bias=0.0, gyro_bias=0.0):
    """Nine residuals of one group of IMU ``samples``, each one trajectory
    sample interval ``h`` after the one before, on ``traj``: measured minus
    predicted, integrated one sample at a time at the given biases.

    The first three are ``log(R(tau_n)^T R(tau_0) dR) / h`` (rad/s), with
    ``dR`` the product of the gyro steps ``exp((w_i - b_g) h)`` and ``tau_n``
    one step past the last sample.  The other six are the zeroth and the
    centred first moment, weights ``1`` and ``i - (n - 1) / 2``, of the
    samples' acceleration residuals (m/s^2), each turned into the first
    sample's frame by the gyro's rotation up to it, with every sample's
    central difference read from ``traj``.
    """
    h = 1.0 / traj.nominal_rate
    n = len(samples)
    taus = np.array([s.tau for s in samples])
    rot, t = traj.sample_batch(np.r_[taus[0] - h, taus, taus[-1] + h])
    turn = np.eye(3)
    moments = np.zeros((2, 3))
    for i, s in enumerate(samples):
        accel_world = (t[i + 2] - 2.0 * t[i + 1] + t[i]) / (h * h)
        # The first sample's frame, seen from the gyro and from traj.
        measured = turn @ (s.accel - accel_bias)
        predicted = rot[1].T @ (accel_world - GRAVITY)
        for w, weight in enumerate((1.0, i - 0.5 * (n - 1))):
            moments[w] += weight * (measured - predicted)
        turn = turn @ lie.so3_exp_batch(((s.gyro - gyro_bias) * h)[None])[0]
    rotation = lie.so3_log_batch((rot[-1].T @ rot[1] @ turn)[None])[0] / h
    return np.concatenate([rotation, moments.reshape(-1)])


class LinearScanIndex:
    """Shadow spatial index: a dict and a scan, nothing else.

    Each distance is the square root of a row-wise ``matmul`` dot product,
    which rounds as ``np.linalg.norm`` of the one difference vector does.
    """

    def __init__(self):
        self.points = {}

    def insert(self, key, point):
        self.points[key] = np.asarray(point, dtype=float)

    def query_radius(self, center, radius):
        center = np.asarray(center, dtype=float)
        keys = list(self.points)
        d = np.array([self.points[k] for k in keys]).reshape(-1, 3) - center
        inside = np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0]) <= radius
        return sorted(k for k, hit in zip(keys, inside.tolist()) if hit)


def radius_join_bruteforce(a, b, radius):
    """Every pair of a point of ``a`` and a point of ``b`` within ``radius``,
    from the full distance matrix: index arrays into ``a`` and ``b``, sorted
    by ``a`` then ``b``, and the squared distances."""
    d_sq = ((b[None, :, :] - a[:, None, :]) ** 2).sum(axis=2)
    i, j = np.nonzero(d_sq <= radius * radius)
    return i, j, d_sq[i, j]


def radius_pairs_bruteforce(points, radius):
    """Every unordered pair of ``points`` within ``radius``, from the full
    distance matrix: index arrays ``i < j``, sorted by ``i`` then ``j``, and
    the squared distances."""
    i, j, d_sq = radius_join_bruteforce(points, points, radius)
    upper = i < j
    return i[upper], j[upper], d_sq[upper]


def match_surfels_exhaustive(src, surfels_by_id, theta_r, theta_d):
    """Evaluate both matching gates against every map surfel."""
    matched = []
    for key, dst in surfels_by_id.items():
        delta = src.centroid - dst.centroid
        along = float(dst.normal @ delta)
        in_plane = float(np.linalg.norm(delta - along * dst.normal))
        if in_plane >= theta_r:
            continue
        sigma_sq = float(
            src.normal @ src.centroid_cov @ src.normal
            + dst.normal @ dst.centroid_cov @ dst.normal
        )
        if abs(along) / np.sqrt(sigma_sq) < theta_d:
            matched.append(key)
    return sorted(matched)


def icp_pairs_exhaustive(rotation, translation, src_pts, src_normals, dst_pts, dst_normals,
                         max_pair_distance):
    """ICP pairs at one pose from the full distance matrix: each moved source
    centroid with its nearest destination centroid within
    ``max_pair_distance`` whose normal is compatible,
    ``|R n_s . n_d| > NORMAL_COMPATIBILITY``.

    Returns the paired moved source centroids and the source and destination
    index arrays.
    """
    moved = src_pts @ rotation.T + translation
    d = np.linalg.norm(moved[:, None, :] - dst_pts[None, :, :], axis=2)
    d[np.abs(src_normals @ rotation.T @ dst_normals.T) <= NORMAL_COMPATIBILITY] = np.inf
    nearest = np.argmin(d, axis=1)
    src_idx = np.flatnonzero(d[np.arange(len(moved)), nearest] < max_pair_distance)
    return moved[src_idx], src_idx, nearest[src_idx]


def voxel_moments_bruteforce(points, times, resolution):
    """Per-voxel mean, sample covariance, count, and mean time by plain grouping."""
    groups = {}
    for p, t in zip(points, times):
        key = tuple(int(np.floor(c / resolution)) for c in p)
        groups.setdefault(key, []).append((p, t))
    out = {}
    for key, members in groups.items():
        pts = np.array([p for p, _ in members])
        ts = np.array([t for _, t in members])
        mean = pts.mean(axis=0)
        if len(pts) > 1:
            cov = (pts - mean).T @ (pts - mean) / (len(pts) - 1)
        else:
            cov = np.zeros((3, 3))
        out[key] = (mean, cov, len(pts), ts.mean())
    return out


def dense_surfels_bruteforce(points, times, radius, min_points, beam_sigma, traj=None):
    """Dense surfel fields by plain scans: each point deskewed through its
    own ``traj.sample_batch`` call, greedy seeding in input order (a seed
    rejects points strictly closer than ``radius``), neighborhoods within
    ``radius`` inclusive, and each kept seed's moments, as one dict per
    surfel."""
    world = np.asarray(points, dtype=float).reshape(-1, 3)
    times = np.asarray(times, dtype=float)
    origins = np.zeros_like(world)
    if traj is not None:
        poses = [traj.sample_batch([tau]) for tau in times]
        world = np.array([rot[0] @ p + trans[0] for (rot, trans), p in zip(poses, world)])
        origins = np.array([trans[0] for _, trans in poses])
    seeds = []
    for i, p in enumerate(world):
        if np.all(((world[seeds] - p) ** 2).sum(axis=1) >= radius**2):
            seeds.append(i)
    out = []
    for i in seeds:
        nbrs = np.flatnonzero(((world - world[i]) ** 2).sum(axis=1) <= radius**2)
        n = nbrs.size
        if n < min_points:
            continue
        mean = world[nbrs].mean(axis=0)
        centered = world[nbrs] - mean
        scatter = centered.T @ centered
        normal = np.linalg.eigh(scatter)[1][:, 0]
        if normal @ (origins[nbrs].mean(axis=0) - mean) < 0:
            normal = -normal
        out.append(
            {
                "centroid": mean,
                "normal": normal,
                "centroid_cov": scatter / (n * (n - 1)) + beam_sigma**2 * np.eye(3),
                "scatter": scatter,
                "dof": float(n),
                "timestamp": times[nbrs].mean(),
            }
        )
    return out


def eig3_symmetric_closed_form(matrix):
    """Eigenvalues (descending) and smallest-eigenvalue eigenvector of a
    symmetric 3x3 matrix via the characteristic polynomial (trigonometric
    solution), independent of any packaged eigen solver."""
    a = np.asarray(matrix, dtype=float)
    q = np.trace(a) / 3.0
    b = a - q * np.eye(3)
    p2 = float(np.sum(b * b)) / 6.0
    if p2 <= 0.0:
        eigenvalues = np.array([q, q, q])
    else:
        p = np.sqrt(p2)
        det = np.linalg.det(b / p) / 2.0
        det = np.clip(det, -1.0, 1.0)
        phi = np.arccos(det) / 3.0
        eig1 = q + 2.0 * p * np.cos(phi)
        eig3 = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
        eig2 = 3.0 * q - eig1 - eig3
        eigenvalues = np.array([eig1, eig2, eig3])
    smallest = eigenvalues[2]
    # Null-space direction of (A - lambda I) from its two most independent rows.
    m = a - smallest * np.eye(3)
    best = np.zeros(3)
    best_norm = -1.0
    for i in range(3):
        for j in range(i + 1, 3):
            cand = np.cross(m[i], m[j])
            norm = np.linalg.norm(cand)
            if norm > best_norm:
                best_norm = norm
                best = cand
    if best_norm <= 0.0:
        best = np.array([0.0, 0.0, 1.0])
        best_norm = 1.0
    return eigenvalues, best / np.linalg.norm(best)


def fuse_batch_lapack(dst, meas):
    """``fusion.fuse_batch`` as (N, 3, 3) row stacks through LAPACK, for
    stacks whose Cholesky factorizations succeed: the gain from ``inv(S)``,
    the left factors from the inverses of the stacked Cholesky factors of S
    and Y, and the innovation term as the congruence of the outer product
    ``delta delta^T``."""
    if np.any(dst.dof <= MEASUREMENT_DIM + 1):
        raise InvalidArgumentError("surfel extent state not yet well defined")
    count = np.asarray(meas.count, dtype=float)
    extent = dst.scatter / (dst.dof - MEASUREMENT_DIM - 1)[:, None, None]
    y = extent + meas.noise
    s = dst.centroid_cov + y / count[:, None, None]
    sqrt_y = np.linalg.cholesky(y)
    sqrt_s = np.linalg.cholesky(s)
    gain = dst.centroid_cov @ np.linalg.inv(s)
    delta = meas.mean - dst.centroid
    mean = dst.centroid + (gain @ delta[:, :, None])[:, :, 0]
    centroid_cov = dst.centroid_cov - gain @ dst.centroid_cov

    sqrt_x = np.linalg.cholesky(psd_eigvalsh(extent)[0] + 1e-18 * np.eye(3))
    innovation = delta[:, :, None] * delta[:, None, :]
    left_s = sqrt_x @ np.linalg.inv(sqrt_s)
    left_y = sqrt_x @ np.linalg.inv(sqrt_y)
    n_bar = left_s @ innovation @ np.swapaxes(left_s, -1, -2)
    y_bar = left_y @ meas.scatter @ np.swapaxes(left_y, -1, -2)
    scatter, scatter_eigh = psd_eigh(dst.scatter + n_bar + y_bar)
    centroid_cov, cov_eigenvalues = psd_eigvalsh(centroid_cov)

    fused = replace(
        dst,
        centroid=mean,
        normal=extract_normal_batch(scatter_eigh, dst.normal),
        centroid_cov=centroid_cov,
        scatter=scatter,
        dof=dst.dof + count,
        obs_count=dst.obs_count + 1,
        timestamp=np.maximum(dst.timestamp, meas.timestamp),
    )
    return fused, {"centroid_cov": cov_eigenvalues, "scatter": scatter_eigh[0]}
