"""End-to-end and per-layer metrics of one run.

End-to-end numbers come from untraced passes only.  Per-layer numbers come
from the traced passes' spans, the pipeline's own counts, and fixed-size
micro-benchmarks of public calls made after the pipeline has finished.
"""

from __future__ import annotations

import resource
import statistics
import time

import numpy as np

from surfelslam import lie
from surfelslam.fusion import (
    MatchParams,
    SurfelMeasurement,
    beam_noise_for_return,
    fuse_surfel,
    match_surfel,
)

MICRO_SIZE = 10_000
MICRO_REPEATS = 15
QUERIES = 200
RPE_SPAN = 1.0  # s


def _median_call_s(fn, repeats=MICRO_REPEATS):
    fn()  # warm caches and lazy set-up
    samples = []
    for _ in range(repeats):
        start = time.process_time()
        fn()
        samples.append(time.process_time() - start)
    return statistics.median(samples)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- per-episode summary ----------------------------------------------------


def summarize(episode, results, global_maps):
    """What the metrics need from an episode's first pass, so its maps can
    be dropped: squared errors per sample, and the pipeline's counts."""
    t_sq, r_sq, rpe_sq = [], [], []
    for win, res in zip(episode.windows, results):
        est, truth = res.estimate, win.truth
        t_sq.append(np.sum((est.translations - truth.translations) ** 2, axis=1))
        rel = np.einsum("nji,njk->nik", truth.rotations, est.rotations)
        r_sq.append(np.sum(lie.so3_log_batch(rel) ** 2, axis=1))
        lag = int(round(RPE_SPAN * truth.nominal_rate))

        def motion(traj):
            rot, t = traj.rotations, traj.translations
            return np.einsum("nji,nj->ni", rot[:-lag], t[lag:] - t[:-lag])

        rpe_sq.append(np.sum((motion(est) - motion(truth)) ** 2, axis=1))
    centroids = np.array([s.centroid for s in global_maps.dense.surfels.values()])
    reports = [r.report for r in results if r.report is not None]
    fm = [r.fusion.metrics for r in results]
    return {
        "t_sq": np.concatenate(t_sq),
        "r_sq": np.concatenate(r_sq),
        "rpe_sq": np.concatenate(rpe_sq),
        "map_sq": episode.planes.distance(centroids) ** 2,
        "growth": len(global_maps.dense) / results[0].map_size_after,
        "windows": len(results),
        "failed": sum(r.failed is not None for r in results),
        "reports": len(reports),
        "iterations": sum(len(r.records) - 1 for r in reports),
        "converged": sum(r.converged for r in reports),
        "final_costs": [r.final_cost for r in reports],
        "points": sum(r.n_points for r in results),
        "local_surfels": sum(len(r.local.dense) for r in results),
        "fused": sum(m.n_fused for m in fm),
        "new": sum(m.n_new for m in fm),
        "culled": sum(m.n_culled for m in fm),
        "first_window_fused": fm[0].n_fused,
        "inactive": max(m.n_inactive for m in fm),
        "triggers": sum(m.triggered for m in fm),
    }


def accuracy(summaries):
    """ATE translation (m) and rotation (deg) and 1 s RPE (m), RMS over
    every window sample; map RMS (m) over every final dense surfel; mean
    map growth over episodes."""

    def rms(key):
        return float(np.sqrt(np.mean(np.concatenate([s[key] for s in summaries]))))

    return {
        "ate_m": rms("t_sq"),
        "ate_rot_deg": float(np.degrees(rms("r_sq"))),
        "rpe_m": rms("rpe_sq"),
        "map_rms_m": rms("map_sq"),
        "map_growth": statistics.fmean(s["growth"] for s in summaries),
    }


# -- per-layer ----------------------------------------------------------------


def lie_micro(results, rng):
    """Batch Lie ops at 10^4 inputs drawn from the run's own poses."""
    rot = np.concatenate([r.estimate.rotations for r in results])
    trans = np.concatenate([r.estimate.translations for r in results])
    pick = rng.integers(0, len(rot) - 1, MICRO_SIZE)
    rot_a, rot_b = rot[pick], rot[pick + 1]
    t_a, t_b = trans[pick], trans[pick + 1]
    rotvecs = lie.so3_log_batch(rot_a)
    alpha = rng.uniform(0.0, 1.0, MICRO_SIZE)
    return {
        "lie.so3_exp_batch_us_1e4": 1e6 * _median_call_s(lambda: lie.so3_exp_batch(rotvecs)),
        "lie.so3_log_batch_us_1e4": 1e6 * _median_call_s(lambda: lie.so3_log_batch(rot_a)),
        "lie.se3_interp_batch_us_1e4": 1e6 * _median_call_s(
            lambda: lie.se3_interp_batch(rot_a, t_a, rot_b, t_b, alpha)
        ),
    }


def sample_batch_micro(trajectory, rng):
    taus = rng.uniform(trajectory.start, trajectory.end, MICRO_SIZE)
    return 1e6 * _median_call_s(lambda: trajectory.sample_batch(taus))


def query_micro(dense_map, radius, rng):
    """Mean time and result size of ``query_radius`` on the final map for a
    fixed query set (centroids of random map surfels)."""
    keys = sorted(dense_map.surfels)
    centers = [dense_map.get(k).centroid for k in rng.choice(keys, size=QUERIES)]
    found = sum(len(dense_map.query_radius(c, radius)) for c in centers)

    def run():
        for c in centers:
            dense_map.query_radius(c, radius)

    return 1e6 * _median_call_s(run, repeats=5) / QUERIES, found / QUERIES


def fusion_micro(dense_map, local, rng):
    """Mean ``match_surfel`` time for last-window surfels against the final
    map, and mean ``fuse_surfel`` time for the pairs it matched (each
    surfel into itself when none matched)."""
    params = MatchParams()
    pick = rng.choice(len(local.dense), size=min(QUERIES, len(local.dense)), replace=False)
    sources = [local.dense[i] for i in pick]
    pairs = []
    for src in sources:
        ids = match_surfel(src, dense_map, params)
        dst = dense_map.get(ids[0]) if ids else src
        noise = beam_noise_for_return(local.sensor_origin, src.centroid, src.normal)
        pairs.append(
            (dst, SurfelMeasurement(src.centroid, src.scatter, src.dof, noise, src.timestamp))
        )

    def match_all():
        for src in sources:
            match_surfel(src, dense_map, params)

    def fuse_all():
        for dst, meas in pairs:
            fuse_surfel(dst, meas)

    return (
        1e6 * _median_call_s(match_all, repeats=5) / len(sources),
        1e6 * _median_call_s(fuse_all, repeats=5) / len(pairs),
    )
