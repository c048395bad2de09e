"""Brute-force reference implementations used by the test suite.

Everything here is correctness-first and O(n^2) or worse: truncated power
series of the SE(3) exponential and of the logarithm near the identity, the
left Jacobian by central differences of those series, the SE(3) geodesic of
one pose pair through the series exponential, the spline correction
evaluated from its knot weights, window residuals evaluated one constraint at
a time on a freshly corrected trajectory, linear-scan spatial queries,
exhaustive matching, ICP association from the full distance matrix,
hash-grouped voxel moments, dense-surfel seeding by linear scans, and
closed-form 3x3 eigen solves.  None of it is used on the fast paths, and none
of the Lie references evaluates the closed form of the map it checks.  A pose
here is a 4x4 homogeneous matrix.
"""

from __future__ import annotations

import numpy as np

from .. import lie
from ..errors import MissingSupportError, OutOfRangeError
from ..fusion import NORMAL_COMPATIBILITY
from ..local_mapping import GRAVITY
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


def correction_batch(grid, taus):
    """Correction rotations (N, 3, 3) and translations (N, 3) of the spline
    ``grid`` at ``taus``, each the knot weights times the control points."""
    idx, weights = grid.knot_indices_and_weights(taus)
    r = np.einsum("nk,nkj->nj", weights, grid.c_r[idx])
    return lie.so3_exp_batch(r), np.einsum("nk,nkj->nj", weights, grid.c_t[idx])


def apply_correction(traj, grid):
    """Compose the spline correction onto every trajectory sample,
    ``T'_k = dT(tau_k) T_k``."""
    inside = grid.covers(traj.times)
    if not np.all(inside):
        raise MissingSupportError(
            "grid does not span the trajectory", traj.times[~inside]
        )
    rot_c, t_c = correction_batch(grid, traj.times)
    rotations, translations = compose_correction(rot_c, t_c, traj.rotations, traj.translations)
    return Trajectory(traj.times.copy(), rotations, translations, traj.nominal_rate)


def _corrected_pose_at(traj, grid, taus):
    return apply_correction(traj, grid).sample_batch(np.atleast_1d(taus))


def residual_surfel_pair(constraint, traj, grid):
    """Point-to-plane residual between two timed observations (meters)."""
    rot, t = _corrected_pose_at(traj, grid, [constraint.tau_a, constraint.tau_b])
    world_a = rot[0] @ constraint.u_a + t[0]
    world_b = rot[1] @ constraint.u_b + t[1]
    return float(constraint.n_ab @ (world_a - world_b))


def residual_map_prior(constraint, traj, grid):
    """Point-to-plane residual against a fixed world-frame map point (meters)."""
    rot, t = _corrected_pose_at(traj, grid, [constraint.tau_c])
    world = rot[0] @ constraint.u_c + t[0]
    return float(constraint.n_mc @ (constraint.u_m - world))


def residual_imu(sample, traj, grid, state):
    """Six IMU residuals (accel m/s^2, gyro rad/s) at the lag-shifted time.

    The acceleration uses central differences of the interpolated translation
    at the trajectory sample interval; the body rate uses the forward
    difference of the interpolated rotation.
    """
    h = 1.0 / traj.nominal_rate
    tau = sample.tau + state.time_lag
    corrected = apply_correction(traj, grid)
    taus = np.array([tau - h, tau, tau + h])
    if np.any(taus < corrected.start) or np.any(taus > corrected.end):
        raise OutOfRangeError("IMU finite-difference stencil outside support")
    rot, t = corrected.sample_batch(taus)
    accel_world = (t[2] - 2.0 * t[1] + t[0]) / (h * h)
    accel_res = sample.accel - rot[1].T @ (accel_world - GRAVITY) + state.accel_bias
    omega = lie.so3_log_batch((rot[1].T @ rot[2])[None])[0] / h
    gyro_res = sample.gyro - omega + state.gyro_bias
    return np.concatenate([accel_res, gyro_res])


class LinearScanIndex:
    """Shadow spatial index: a dict and a scan, nothing else.

    Each distance is the square root of a row-wise ``matmul`` dot product,
    which rounds as ``np.linalg.norm`` of the one difference vector does.
    """

    def __init__(self):
        self.points = {}

    def insert(self, key, point):
        self.points[key] = np.asarray(point, dtype=float)

    def remove(self, key):
        del self.points[key]

    def query_radius(self, center, radius):
        center = np.asarray(center, dtype=float)
        keys = list(self.points)
        d = np.array([self.points[k] for k in keys]).reshape(-1, 3) - center
        inside = np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0]) <= radius
        return sorted(k for k, hit in zip(keys, inside.tolist()) if hit)


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


def dense_surfels_bruteforce(points, times, radius, min_points, beam_sigma,
                             traj=None, colours=None):
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
                "colour": (
                    np.full(3, 0.5)
                    if colours is None
                    else np.asarray(colours, dtype=float)[nbrs].mean(axis=0)
                ),
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
