"""Correctness checks on a finished pass; none of this runs inside a timed
region.  Each check returns a list of failure messages (empty when it holds).

Known defects that the package's roadmap lists (self-matches inside one
fusion step, the ICP's nearest-centroid pairing) are reported as metrics
and deliberately not checked here.
"""

from __future__ import annotations

import numpy as np

from surfelslam.fusion import MatchParams, match_surfel
from surfelslam.simulation import oracles
from surfelslam.surfel_map import voxelize_sparse

ORTHONORMAL_TOL = 1e-9
MOMENT_TOL = 1e-9
SPOT_CHECKS = 5  # per episode


def translation_rms(estimate, truth):
    err = estimate.translations - truth.translations
    return float(np.sqrt(np.mean(np.sum(err * err, axis=1))))


def check_windows(episode, results):
    """Optimized trajectories beat dead reckoning and hold rotations."""
    out = []
    for win, res in zip(episode.windows, results):
        rot = res.estimate.rotations
        if not np.all(np.isfinite(rot)) or not np.all(np.isfinite(res.estimate.translations)):
            out.append(f"window {win.index}: non-finite pose")
            continue
        gram = np.einsum("nji,njk->nik", rot, rot) - np.eye(3)
        if np.max(np.abs(gram)) > ORTHONORMAL_TOL or np.any(np.linalg.det(rot) <= 0):
            out.append(f"window {win.index}: rotation not orthonormal")
        if res.failed is None:
            ate = translation_rms(res.estimate, win.truth)
            ate_init = translation_rms(win.init, win.truth)
            if not ate < ate_init:
                out.append(
                    f"window {win.index}: optimized ATE {ate:.4g} m does not beat "
                    f"dead reckoning {ate_init:.4g} m"
                )
    return out


def check_bookkeeping(results):
    """Every local surfel is either fused or new; the map size adds up."""
    out = []
    for res in results:
        m = res.fusion.metrics
        if m.n_new + m.n_fused != len(res.local.dense):
            out.append(
                f"window {res.index}: n_new {m.n_new} + n_fused {m.n_fused} != "
                f"{len(res.local.dense)} local surfels"
            )
        if res.map_size_after != res.map_size_before + m.n_new - m.n_culled:
            out.append(
                f"window {res.index}: map size {res.map_size_after} != "
                f"{res.map_size_before} + {m.n_new} - {m.n_culled}"
            )
    return out


def check_dense_map(dense_map):
    """One batched unit-normal and PSD check over the whole dense map."""
    surfels = list(dense_map.surfels.values())
    if not surfels:
        return ["dense map is empty"]
    normals = np.array([s.normal for s in surfels])
    covs = np.array([m for s in surfels for m in (s.centroid_cov, s.scatter)])
    out = []
    if np.max(np.abs(np.linalg.norm(normals, axis=1) - 1.0)) > 1e-9:
        out.append("dense map has a non-unit normal")
    eig = np.linalg.eigvalsh(covs)
    if np.any(eig[:, 0] < -1e-12 * np.maximum(np.abs(eig[:, -1]), 1.0)):
        out.append("dense map has a covariance that is not PSD")
    return out


def check_oracles(dense_map, local_dense, world_points, times, resolution, rng):
    """Sampled spot checks of the fast paths against the brute-force oracles."""
    out = []
    keys = sorted(dense_map.surfels)
    scan = oracles.LinearScanIndex()
    for k in keys:
        scan.insert(k, dense_map.get(k).centroid)
    radius = 3.0 * max(s.radius for s in local_dense)
    for k in rng.choice(keys, size=min(SPOT_CHECKS, len(keys)), replace=False):
        center = dense_map.get(k).centroid + rng.normal(scale=0.5 * radius, size=3)
        if dense_map.query_radius(center, radius) != scan.query_radius(center, radius):
            out.append(f"query_radius differs from the linear scan at {center}")

    params = MatchParams()
    pick = rng.choice(len(local_dense), size=min(SPOT_CHECKS, len(local_dense)), replace=False)
    for i in pick:
        src = local_dense[i]
        fast = match_surfel(src, dense_map, params)
        slow = oracles.match_surfels_exhaustive(
            src, dense_map.surfels, params.resolution_threshold, params.depth_threshold
        )
        if fast != slow:
            out.append(f"match_surfel differs from the exhaustive match for local surfel {i}")

    sample = rng.choice(len(world_points), size=min(2000, len(world_points)), replace=False)
    pts, ts = world_points[sample], times[sample]
    fast = voxelize_sparse(pts, ts, [resolution])
    slow = {
        key: v for key, v in oracles.voxel_moments_bruteforce(pts, ts, resolution).items()
        if v[2] >= 5
    }
    if len(fast) != len(slow):
        out.append(f"voxelize_sparse made {len(fast)} surfels, the oracle {len(slow)}")
    for s in fast:
        key = tuple(int(c) for c in np.floor(s.centroid / resolution))
        ref = slow.get(key)
        if ref is None or s.count != ref[2] or not (
            np.allclose(s.centroid, ref[0], atol=MOMENT_TOL)
            and np.allclose(s.covariance, ref[1], atol=MOMENT_TOL)
            and abs(s.timestamp - ref[3]) < MOMENT_TOL
        ):
            out.append(f"voxelize_sparse moments differ from the oracle in voxel {key}")
    return out
