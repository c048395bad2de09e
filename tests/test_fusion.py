import logging

import numpy as np
import pytest

from surfelslam import fusion, lie
from surfelslam.errors import InvalidArgumentError
from surfelslam.simulation import oracles
from surfelslam.surfel_map import DenseSurfel, DenseSurfelMap, DenseSurfels

from conftest import count_decompositions, random_rotation, random_spd

from surfelslam.fusion import (
    DeformationTrigger,
    GlobalMaps,
    LocalMaps,
    MatchParams,
    SurfelMeasurement,
    TemporalFusionConfig,
    beam_noise_batch,
    beam_noise_for_return,
    extract_normal_batch,
    fuse_surfel,
    icp_point_to_plane,
    incidence_variance,
    match_surfel,
    temporal_fusion_step,
)
from surfelslam.surfel_map import (
    KeyedPoints,
    SparseSurfelMap,
    eigh3,
    radius_join,
    voxelize_sparse,
)


def make_surfel(centroid, normal=(0.0, 0.0, 1.0), cov_scale=1e-6, scatter=None,
                dof=10.0, timestamp=0.0, obs_count=1):
    normal = np.asarray(normal, dtype=float)
    normal = normal / np.linalg.norm(normal)
    if scatter is None:
        basis = np.linalg.svd(np.outer(normal, normal))[0]
        scatter = basis @ np.diag([1e-10, 1e-4, 1e-4]) @ basis.T * dof
        scatter = basis[:, ::-1] @ np.diag([1e-4, 1e-4, 1e-10]) @ basis[:, ::-1].T * dof
    return DenseSurfel(
        centroid=np.asarray(centroid, dtype=float),
        normal=normal,
        centroid_cov=np.eye(3) * cov_scale,
        scatter=scatter,
        dof=dof,
        obs_count=obs_count,
        timestamp=timestamp,
    )


def mapped(surfels, dense_map=None):
    """``dense_map`` (a new one by default) holding ``surfels`` in order, and
    their keys."""
    dense_map = DenseSurfelMap() if dense_map is None else dense_map
    dense_map.batch = DenseSurfels.of(surfels)
    return dense_map, list(range(len(surfels)))


# -- beam noise ---------------------------------------------------------------


def test_beam_noise_batch_is_the_beam_frame_covariance(rng):
    # Each return's noise has the range variance across the beam and the
    # depth plus incidence variance along it; a return at the sensor gets
    # the isotropic range variance.
    origin = rng.normal(size=3)
    points = origin + rng.normal(size=(300, 3)) * rng.uniform(0.2, 20.0, size=(300, 1))
    points[7] = origin
    normals = rng.normal(size=(300, 3))
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    noise = beam_noise_batch(origin, points, normals)
    assert np.array_equal(noise[7], fusion.SIGMA_R**2 * np.eye(3))
    for k in range(300):
        assert np.array_equal(noise[k], beam_noise_for_return(origin, points[k], normals[k]))
        if k == 7:
            continue
        beam = points[k] - origin
        range_m = np.linalg.norm(beam)
        angle = np.arccos(abs(normals[k] @ beam) / range_m)
        along = (fusion.SIGMA_D_BASE + fusion.SIGMA_D_PER_METER * range_m) ** 2 + (
            incidence_variance(angle, range_m)
        )
        eigenvalues, vectors = np.linalg.eigh(noise[k])
        assert np.allclose(eigenvalues, [fusion.SIGMA_R**2, fusion.SIGMA_R**2, along], rtol=1e-9)
        assert abs(abs(vectors[:, 2] @ beam) / range_m - 1.0) < 1e-9


def test_incidence_variance_zero_angle():
    assert incidence_variance(0.0, 10.0) == 0.0


def test_incidence_variance_quadratic_in_range():
    a = incidence_variance(0.3, 5.0)
    b = incidence_variance(0.3, 10.0)
    assert abs(b - 4.0 * a) < 1e-15


def test_incidence_variance_monotone_sweep():
    values = [incidence_variance(a, 5.0) for a in np.linspace(0.0, 1.5, 50)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_incidence_variance_grazing_clamp():
    # Both angles lie past the grazing cutoff, so both are clamped to it.
    assert incidence_variance(np.pi / 2 - 1e-6, 5.0) == incidence_variance(np.pi / 2 - 1e-4, 5.0)


# -- matching -----------------------------------------------------------------


def test_match_coincident_surfel():
    m, keys = mapped([make_surfel([0.0, 0.0, 0.0])])
    src = make_surfel([0.0, 0.0, 0.001])
    assert match_surfel(src, m) == keys


def test_match_rejects_in_plane_offset():
    params = MatchParams()
    m, _ = mapped([make_surfel([0.0, 0.0, 0.0])])
    src = make_surfel([1.5 * params.resolution_threshold, 0.0, 0.0])
    assert match_surfel(src, m, params) == []


def test_match_reaches_past_theta_r_along_an_uncertain_normal():
    # 2.5 standard deviations of the map surfel's centroid off its plane,
    # beyond theta_r = 0.02 of it: the candidate radius must include the map
    # side's uncertainty, not only the source's.
    m, keys = mapped([make_surfel([0.0, 0.0, 0.0], cov_scale=1e-4)])
    src = make_surfel([0.0, 0.0, 0.025], cov_scale=1e-8)
    assert match_surfel(src, m) == keys


def test_match_equals_bruteforce(rng):
    for _ in range(5):
        params = MatchParams(resolution_threshold=0.05, depth_threshold=3.0)
        stored = []
        for _ in range(500):
            normal = rng.normal(size=3)
            normal /= np.linalg.norm(normal)
            stored.append(
                make_surfel(
                    rng.uniform(-1.0, 1.0, size=3),
                    normal,
                    cov_scale=rng.uniform(1e-8, 4e-4),
                )
            )
        m, _ = mapped(stored)
        for _ in range(50):
            normal = rng.normal(size=3)
            normal /= np.linalg.norm(normal)
            src = make_surfel(
                rng.uniform(-1.0, 1.0, size=3), normal, cov_scale=rng.uniform(1e-8, 4e-4)
            )
            fast = match_surfel(src, m, params)
            slow = oracles.match_surfels_exhaustive(
                src, m.surfels, params.resolution_threshold, params.depth_threshold
            )
            assert fast == slow


# -- Wishart fusion -----------------------------------------------------------


def test_fuse_surfel_hand_example():
    dst = DenseSurfel(
        centroid=np.zeros(3),
        normal=np.array([0.0, 0.0, 1.0]),
        centroid_cov=np.eye(3),
        scatter=np.eye(3),
        dof=5.0,
        obs_count=1,
        timestamp=0.0,
    )
    meas = SurfelMeasurement(
        mean=np.array([1.0, 0.0, 0.0]), scatter=np.zeros((3, 3)), count=1,
        noise=np.eye(3),
    )
    out = fuse_surfel(dst, meas)
    assert np.allclose(out.centroid, [1.0 / 3.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(out.centroid_cov, np.eye(3) * 2.0 / 3.0, atol=1e-12)
    assert out.dof == 6.0
    expected_scatter = np.eye(3) + np.diag([1.0 / 3.0, 0.0, 0.0])
    assert np.allclose(out.scatter, expected_scatter, atol=1e-9)
    # The two smallest scatter eigenvalues tie: the previous normal is kept.
    assert np.allclose(out.normal, dst.normal)


def test_fuse_surfel_zero_innovation_still_contracts():
    dst = make_surfel([1.0, 2.0, 3.0], cov_scale=1e-4, dof=20.0)
    meas = SurfelMeasurement(dst.centroid.copy(), np.zeros((3, 3)), 5,
                             np.eye(3) * 1e-6)
    out = fuse_surfel(dst, meas)
    assert np.allclose(out.centroid, dst.centroid, atol=1e-15)
    assert np.trace(out.centroid_cov) < np.trace(dst.centroid_cov)


def test_fuse_surfel_trace_strictly_decreases(rng):
    surfel = make_surfel([0.0, 0.0, 0.0], cov_scale=1e-4, dof=12.0)
    for _ in range(50):
        meas = SurfelMeasurement(
            surfel.centroid + rng.normal(scale=0.002, size=3),
            random_spd(rng, scale=1e-5),
            rng.integers(3, 30),
            random_spd(rng, scale=1e-6),
        )
        out = fuse_surfel(surfel, meas)
        assert np.trace(out.centroid_cov) < np.trace(surfel.centroid_cov)
        surfel = out


def test_fuse_surfel_monte_carlo_consistency(rng):
    rot = random_rotation(rng)
    true_mean = np.array([0.4, -0.2, 1.1])
    true_extent = rot @ np.diag([0.05**2, 0.03**2, 0.004**2]) @ rot.T
    noise = np.eye(3) * 0.005**2
    true_normal = rot @ np.array([0.0, 0.0, 1.0])

    def draw_batch(n):
        pts = rng.multivariate_normal(true_mean, true_extent + noise, size=n)
        mean = pts.mean(axis=0)
        centered = pts - mean
        return mean, centered.T @ centered, n

    mean0, scatter0, n0 = draw_batch(30)
    surfel = DenseSurfel(
        centroid=mean0,
        normal=np.array([0.0, 0.0, 1.0]),
        centroid_cov=(true_extent + noise) / n0,
        scatter=scatter0,
        dof=float(n0),
        obs_count=1,
        timestamp=0.0,
    )
    for _ in range(200):
        mean, scatter, n = draw_batch(30)
        surfel = fuse_surfel(
            surfel, SurfelMeasurement(mean, scatter, n, noise)
        )
    assert np.linalg.norm(surfel.centroid - true_mean) < 1e-3
    angle = np.arccos(np.clip(abs(surfel.normal @ true_normal), 0.0, 1.0))
    assert angle < 0.05


def test_fuse_surfel_requires_defined_extent():
    dst = make_surfel([0.0, 0.0, 0.0], dof=3.0)
    meas = SurfelMeasurement(np.zeros(3), np.zeros((3, 3)), 1, np.eye(3) * 1e-6)
    with pytest.raises(InvalidArgumentError):
        fuse_surfel(dst, meas)


def test_fold_matches_sequential_fuse_surfel(rng):
    # Forty destinations with one to four measurements each, in shuffled
    # input order.  The round fold must equal fusing one measurement at a
    # time, in input order, with fuse_surfel.
    dests = [
        make_surfel(rng.uniform(-1.0, 1.0, size=3), rng.normal(size=3),
                    cov_scale=rng.uniform(1e-6, 1e-4), scatter=random_spd(rng, scale=1e-4),
                    dof=rng.uniform(6.0, 40.0), timestamp=rng.uniform(0.0, 5.0))
        for _ in range(40)
    ]
    slot = rng.permutation(np.repeat(np.arange(40), rng.integers(1, 5, size=40)))
    sources = DenseSurfels.of([
        make_surfel(dests[k].centroid + rng.normal(scale=0.003, size=3), rng.normal(size=3),
                    cov_scale=1e-6, scatter=random_spd(rng, scale=1e-5),
                    dof=float(rng.integers(5, 30)), timestamp=rng.uniform(0.0, 10.0))
        for k in slot
    ])
    noise = np.array([random_spd(rng, scale=1e-6) for _ in slot])

    state = DenseSurfels.of(dests)
    fusion._fold(state, slot, sources, noise)

    current = list(dests)
    for m, k in enumerate(slot):
        src = sources[m]
        meas = SurfelMeasurement(src.centroid, src.scatter, src.dof, noise[m], src.timestamp)
        current[k] = fuse_surfel(current[k], meas)
    assert [s.obs_count for s in current] == state.obs_count.tolist()
    for k, dst in enumerate(dests):
        mine = slot == k
        assert state.obs_count[k] == dst.obs_count + mine.sum()
        assert state.timestamp[k] == max(dst.timestamp, sources.timestamp[mine].max())
    for name in ("centroid", "normal", "centroid_cov", "scatter", "dof", "timestamp"):
        want = np.array([getattr(s, name) for s in current])
        got = getattr(state, name)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want).max()), name


# -- normal extraction ----------------------------------------------------------


def extract_normal(surfel):
    """``extract_normal_batch`` on a batch of one surfel."""
    return extract_normal_batch(eigh3(surfel.scatter[None]), surfel.normal[None])[0]


def test_extract_normal_axis_aligned():
    s = make_surfel([0, 0, 0], normal=(0.0, 0.0, 1.0),
                    scatter=np.diag([1.0, 1.0, 1e-6]))
    n = extract_normal(s)
    assert abs(abs(n[2]) - 1.0) < 1e-12


def test_extract_normal_equivariant_under_rotation(rng):
    for _ in range(20):
        rot = random_rotation(rng)
        base = np.diag([1.0, 0.5, 1e-6])
        s = make_surfel([0, 0, 0], normal=rot @ np.array([0.0, 0.0, 1.0]),
                        scatter=rot @ base @ rot.T)
        n = extract_normal(s)
        expected = rot @ np.array([0.0, 0.0, 1.0])
        assert min(np.linalg.norm(n - expected), np.linalg.norm(n + expected)) < 1e-9


def test_extract_normal_matches_cubic_oracle(rng):
    for _ in range(50):
        scatter = random_spd(rng, scale=1.0)
        s = make_surfel([0, 0, 0], scatter=scatter)
        n = extract_normal(s)
        eigenvalues, v = oracles.eig3_symmetric_closed_form(scatter)
        if eigenvalues[1] - eigenvalues[2] < 1e-9 * eigenvalues[0]:
            continue
        assert min(np.linalg.norm(n - v), np.linalg.norm(n + v)) < 1e-7


def test_extract_normal_ambiguous_keeps_previous():
    prev = np.array([1.0, 0.0, 0.0])
    s = make_surfel([0, 0, 0], normal=prev, scatter=np.diag([1.0, 1e-7, 1e-7]))
    assert np.allclose(extract_normal(s), prev)


# -- temporal fusion ------------------------------------------------------------


def corner_scene_points(rng, n=3000, shift=np.zeros(3)):
    """Three mutually orthogonal plane patches (an open box corner)."""
    pts = []
    per = n // 3
    for axis in range(3):
        uv = rng.uniform(0.0, 2.0, size=(per, 2))
        p = np.zeros((per, 3))
        other = [i for i in range(3) if i != axis]
        p[:, other[0]] = uv[:, 0]
        p[:, other[1]] = uv[:, 1]
        pts.append(p)
    return np.vstack(pts) + shift


def make_local_maps(rng, points, timestamp, radius=0.05):
    from surfelslam.surfel_map import DenseExtractionConfig, extract_dense

    times = np.full(len(points), timestamp)
    dense = extract_dense(points, times, cfg=DenseExtractionConfig(radius=radius))
    sparse = voxelize_sparse(points, times, [0.5])
    return LocalMaps(sparse, dense, sensor_origin=np.array([1.0, 1.0, 1.0]),
                     timestamp=timestamp)


@pytest.mark.parametrize("args", [
    {"sensor_origin": [0.0, 0.0]}, {"sensor_origin": np.zeros((1, 3))},
    {"sensor_origin": [0.0, np.nan, 0.0]}, {"timestamp": np.nan}, {"timestamp": np.inf},
])
def test_local_maps_rejects_a_malformed_origin_or_timestamp(args):
    # A two-entry origin used to raise numpy's broadcast ValueError inside the
    # beam noise and a NaN one a LinAlgError; a NaN timestamp fused silently,
    # and an infinite one culled the map on the next step.
    with pytest.raises(InvalidArgumentError):
        LocalMaps([], [make_surfel([0.0, 0.0, 0.0])], **args)


def test_temporal_fusion_identical_local_map(rng):
    pts = corner_scene_points(rng)
    global_maps = GlobalMaps()
    first = make_local_maps(rng, pts, timestamp=0.0)
    r0 = temporal_fusion_step(first, global_maps, step=0)
    assert r0.metrics.n_new == len(first.dense)
    second = make_local_maps(rng, pts, timestamp=5.0)
    r1 = temporal_fusion_step(second, global_maps, step=1)
    assert r1.metrics.n_fused == len(second.dense)
    assert r1.metrics.n_new == 0
    assert r1.trigger is None


def test_temporal_fusion_decomposes_each_covariance_stack_once(rng, monkeypatch):
    # A regression guard: each fold round decomposes its extents, scatters
    # and centroid covariances once by the closed-form kernels, the
    # scatters' eigenvectors give the normals, and the clamps' eigenvalues
    # serve the check of the fused rows; the sparse pooling decomposes each
    # merge once.  Beyond that only the rows a clamp changed are rebuilt by
    # LAPACK and decomposed again, a few here, and LAPACK decomposes only
    # those and the kernels' fallback rows.  The ICP does not run: nothing
    # is inactive.
    pts = corner_scene_points(rng)
    global_maps = GlobalMaps()
    temporal_fusion_step(make_local_maps(rng, pts, timestamp=0.0), global_maps, step=0)
    second = make_local_maps(rng, pts, timestamp=5.0)
    calls = count_decompositions(monkeypatch, fusion)
    r = temporal_fusion_step(second, global_maps, step=1)
    assert r.metrics.n_fused == len(second.dense) and len(global_maps.sparse) == len(second.sparse)
    rows = {}
    for name, n in calls:
        rows[name] = rows.get(name, 0) + n
    once_each = 3 * r.metrics.n_fused + len(second.sparse)
    again = r.metrics.n_fused // 4
    assert once_each <= rows.get("eigh3", 0) + rows.get("eigvalsh3", 0) <= once_each + again
    assert rows.get("eigh", 0) + rows.get("eigvalsh", 0) <= again


def test_temporal_fusion_disjoint_region_inserts(rng):
    global_maps = GlobalMaps()
    first = make_local_maps(rng, corner_scene_points(rng), timestamp=0.0)
    temporal_fusion_step(first, global_maps, step=0)
    n_before = len(global_maps.dense)
    far = make_local_maps(rng, corner_scene_points(rng, shift=np.array([50.0, 0, 0])),
                          timestamp=1.0)
    r = temporal_fusion_step(far, global_maps, step=1)
    assert r.metrics.n_new == len(far.dense)
    assert len(global_maps.dense) == n_before + len(far.dense)


def test_temporal_fusion_shifted_inactive_triggers(rng):
    cfg = TemporalFusionConfig(active_window=30.0)
    global_maps = GlobalMaps()
    base = corner_scene_points(rng, n=4500)
    old = make_local_maps(rng, base, timestamp=0.0)
    temporal_fusion_step(old, global_maps, cfg, step=0)
    # Revisit much later: previous content is inactive.  The local view is
    # the same corner displaced by -0.2 x, with only 80% of it seen.
    subset = base[rng.uniform(size=len(base)) < 0.8]
    local_pts = subset - np.array([0.2, 0.0, 0.0])
    local = make_local_maps(rng, local_pts, timestamp=100.0)
    r = temporal_fusion_step(local, global_maps, cfg, step=1)
    assert r.trigger is not None
    assert r.metrics.icp_dist == np.linalg.norm(r.trigger.translation)
    assert abs(r.trigger.translation[0] - 0.2) < 0.01
    assert np.linalg.norm(r.trigger.translation[1:]) < 0.01
    assert np.linalg.norm(r.trigger.rotation - np.eye(3)) < 0.02


def test_temporal_fusion_reports_no_distance_without_a_converged_icp(rng, caplog):
    # The first step has no inactive map, so the ICP does not run.  The
    # second lies 50 m from the inactive map: the ICP runs, forms fewer than
    # six pairs and does not converge.  Neither step measures a misalignment,
    # and neither triggers.
    cfg = TemporalFusionConfig(active_window=30.0)
    global_maps = GlobalMaps()
    first = make_local_maps(rng, corner_scene_points(rng), timestamp=0.0)
    r0 = temporal_fusion_step(first, global_maps, cfg, step=0)
    assert np.isnan(r0.metrics.icp_dist) and not r0.metrics.triggered
    far = make_local_maps(rng, corner_scene_points(rng, shift=np.array([50.0, 0.0, 0.0])),
                          timestamp=100.0)
    assert len(far.sparse) >= fusion.ICP_MIN_SURFELS
    assert len(global_maps.sparse.all()) >= fusion.ICP_MIN_SURFELS
    with caplog.at_level(logging.INFO, logger="surfelslam.fusion"):
        r1 = temporal_fusion_step(far, global_maps, cfg, step=1)
    assert "ICP did not converge" in caplog.text
    assert np.isnan(r1.metrics.icp_dist) and r1.metrics.icp_inlier == 0.0
    assert not r1.metrics.triggered and r1.trigger is None


def test_icp_out_of_iterations_is_not_converged(rng, monkeypatch):
    # A 0.2 m shift takes more than one solve.  Allowed one, the ICP ends
    # with its last step still large: it has not converged, so the fusion
    # step measures no misalignment and raises no trigger.
    cfg = TemporalFusionConfig(active_window=30.0)
    global_maps = GlobalMaps()
    base = corner_scene_points(rng, n=4500)
    temporal_fusion_step(make_local_maps(rng, base, timestamp=0.0), global_maps, cfg, step=0)
    local = make_local_maps(rng, base - np.array([0.2, 0.0, 0.0]), timestamp=100.0)
    inactive = list(global_maps.sparse.all())
    assert icp_point_to_plane(local.sparse, inactive).converged
    monkeypatch.setattr(fusion, "ICP_MAX_ITERATIONS", 1)
    icp = icp_point_to_plane(local.sparse, inactive)
    assert not icp.converged and [p.shape for p in icp.pairs] == [(0, 3), (0, 3)]
    r = temporal_fusion_step(local, global_maps, cfg, step=1)
    assert r.trigger is None and not r.metrics.triggered and np.isnan(r.metrics.icp_dist)


def test_temporal_fusion_matches_against_the_active_map_before_the_step():
    # Both local surfels pass the gates against the active surfel as it
    # stood before the step: the one at z = 0.02 lies two standard
    # deviations off its plane.  Fusing the first shrinks the active
    # surfel's centroid covariance far enough that the second would fail
    # against the updated state; it still fuses, into that updated state.
    global_maps = GlobalMaps()
    _, (key,) = mapped([make_surfel([0.0, 0.0, 0.0], cov_scale=1e-4)], global_maps.dense)
    local = [make_surfel([0.0, 0.0, z], cov_scale=1e-8, timestamp=1.0) for z in (0.0, 0.02)]
    r = temporal_fusion_step(LocalMaps([], local), global_maps)
    assert (r.metrics.n_fused, r.metrics.n_new) == (2, 0)
    assert len(global_maps.dense) == 1
    assert global_maps.dense.get(key).obs_count == 3


def test_temporal_fusion_picks_the_nearest_plane_then_the_lowest_key():
    # All three map surfels pass both gates for each local surfel.  The first
    # lies nearest key 2 along the shared normal and fuses into it; the
    # second lies on the plane of keys 0 and 1, which coincide, and fuses
    # into the lower key.
    global_maps = GlobalMaps()
    corners = ([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.004])
    mapped([make_surfel(c, cov_scale=1e-4) for c in corners], global_maps.dense)
    local = [make_surfel(c, timestamp=1.0) for c in ([0.0, 0.0, 0.003], [0.015, 0.0, 0.0])]
    m = global_maps.dense
    temporal_fusion_step(LocalMaps([], local[:1]), global_maps)
    assert [m.get(k).obs_count for k in range(3)] == [1, 1, 2]
    temporal_fusion_step(LocalMaps([], local[1:]), global_maps)
    assert [m.get(k).obs_count for k in range(3)] == [2, 1, 2]


@pytest.mark.parametrize("gap_threshold, reactivated", [(20, [0]), (1, [])])
def test_temporal_fusion_reactivates_overlapping_inactive_surfels(gap_threshold, reactivated):
    # theta_r = 0.25 and a dyadic lattice make every distance exact.  Inactive
    # surfel 0 has active ones at exactly theta_r and at 2 theta_r (it
    # overlaps), surfel 1 its nearest active one at 1.5 theta_r (a gap),
    # surfel 2 no active one within 3 theta_r, and surfels 3 and 4 only each
    # other.  Overlapping surfels come back unless gap_threshold or more gaps
    # remain.
    cfg = TemporalFusionConfig(
        active_window=30.0, cull_age=1e9, gap_threshold=gap_threshold,
        match=MatchParams(resolution_threshold=0.25),
    )
    global_maps = GlobalMaps()
    inactive = [(0.0, 0.0, 0.0), (5.0, 0.0, 0.0), (10.0, 0.0, 0.0),
                (15.0, 0.0, 0.0), (15.125, 0.0, 0.0)]
    active = [(0.25, 0.0, 0.0), (0.0, -0.5, 0.0), (5.0, 0.375, 0.0)]
    mapped([make_surfel(c, timestamp=0.0) for c in inactive]
           + [make_surfel(c, timestamp=90.0) for c in active], global_maps.dense)
    r = temporal_fusion_step(LocalMaps([], [], timestamp=100.0), global_maps, cfg)
    now = [k for k in range(len(inactive)) if global_maps.dense.get(k).timestamp == 100.0]
    assert now == reactivated
    assert r.metrics.n_inactive == len(inactive) - len(reactivated)
    assert r.metrics.n_active == len(active) + len(reactivated)
    assert r.trigger is None


def test_temporal_fusion_keeps_the_row_order():
    # One step fuses into row 2, wakes row 0 (its active neighbour, row 5,
    # lies within theta_r), culls rows 1 and 4 (old, seen once) and inserts
    # two new surfels.  The next map holds the survivors in their old order,
    # with the fused and woken rows updated in place, then the new surfels
    # in input order.
    cfg = TemporalFusionConfig(active_window=30.0, cull_age=60.0)
    global_maps = GlobalMaps()
    stored = [
        make_surfel([5.0, 0.0, 0.0], timestamp=0.0),
        make_surfel([30.0, 0.0, 0.0], timestamp=0.0),
        make_surfel([0.0, 0.0, 0.0], timestamp=90.0),
        make_surfel([0.0, 10.0, 0.0], timestamp=90.0),
        make_surfel([0.0, -30.0, 0.0], timestamp=0.0),
        make_surfel([5.0, 0.015625, 0.0], timestamp=95.0),
    ]
    mapped(stored, global_maps.dense)
    local = [make_surfel(c, timestamp=100.0)
             for c in ([0.0, 0.0, 0.001], [20.0, 0.0, 0.0], [-20.0, 0.0, 0.0])]
    r = temporal_fusion_step(LocalMaps([], local), global_maps, cfg)
    assert (r.metrics.n_fused, r.metrics.n_new, r.metrics.n_culled) == (1, 2, 2)
    assert (r.metrics.n_active, r.metrics.n_inactive) == (6, 0)
    m = global_maps.dense
    want = [stored[0], stored[2], stored[3], stored[5], local[1], local[2]]
    assert len(m) == len(want)
    assert [m.get(k).obs_count for k in range(6)] == [1, 2, 1, 1, 1, 1]
    assert [m.get(k).timestamp for k in range(6)] == [100.0, 100.0, 90.0, 95.0, 100.0, 100.0]
    for k, surfel in enumerate(want):
        if k != 1:
            assert np.array_equal(m.get(k).centroid, surfel.centroid)
            assert np.array_equal(m.get(k).scatter, surfel.scatter)
    assert 0.0 < m.get(1).centroid[2] < 0.001


def test_icp_recovers_synthetic_shift(rng):
    pts = corner_scene_points(rng)
    src_sparse = voxelize_sparse(pts - np.array([0.15, 0.05, 0.0]),
                                 np.zeros(len(pts)), [0.5])
    dst_sparse = voxelize_sparse(pts, np.zeros(len(pts)), [0.5])
    out = icp_point_to_plane(src_sparse, dst_sparse)
    assert out.converged
    assert np.allclose(out.translation, [0.15, 0.05, 0.0], atol=0.01)
    assert out.inlier_fraction > 0.8


def test_icp_inlier_pairs_are_centroid_arrays(rng):
    # The pairs are two (m, 3) arrays: source centroids and the destination
    # centroids they pair with, each moved source on its destination's plane
    # within the inlier distance; an ICP that did not converge has none.
    pts = corner_scene_points(rng)
    src = voxelize_sparse(pts - np.array([0.15, 0.05, 0.0]), np.zeros(len(pts)), [0.5])
    dst = voxelize_sparse(pts, np.zeros(len(pts)), [0.5])
    out = icp_point_to_plane(src, dst)
    src_pairs, dst_pairs = out.pairs
    assert out.converged and src_pairs.shape == dst_pairs.shape and src_pairs.shape[1:] == (3,)
    assert len(src_pairs) >= 6
    assert (src_pairs[:, None] == src.centroid[None]).all(axis=2).any(axis=1).all()
    j = np.argmax((dst_pairs[:, None] == dst.centroid[None]).all(axis=2), axis=1)
    assert np.array_equal(dst_pairs, dst.centroid[j])
    moved = src_pairs @ out.rotation.T + out.translation
    assert (np.abs(np.sum(dst.normal[j] * (moved - dst_pairs), axis=1)) < 0.05).all()
    for failed in (icp_point_to_plane(src[:0], dst), icp_point_to_plane(src[:3], dst)):
        assert not failed.converged
        assert [p.shape for p in failed.pairs] == [(0, 3), (0, 3)]


def floor_ceiling_wall_points(rng, n=4500, noise=0.003):
    """Floor, ceiling and the wall x = 0: no plane constrains y."""
    per = n // 3
    a, b, c = rng.uniform(0.0, 2.0, size=(3, per, 2))
    pts = np.vstack([
        np.column_stack([a, np.zeros(per)]),
        np.column_stack([b, np.full(per, 2.0)]),
        np.column_stack([np.zeros(per), c]),
    ])
    return pts + rng.normal(scale=noise, size=pts.shape)


def test_temporal_fusion_shift_along_wall_raises_no_trigger():
    # The revisit is shifted along the wall, which the overlap cannot
    # measure; without the degeneracy gate the ICP reported arbitrary shifts
    # of 0.07-0.19 m with every pair an inlier and triggered at three of
    # these four seeds.
    cfg = TemporalFusionConfig(active_window=30.0)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        global_maps = GlobalMaps()
        base = floor_ceiling_wall_points(rng)
        temporal_fusion_step(make_local_maps(rng, base, timestamp=0.0), global_maps, cfg, step=0)
        inactive = list(global_maps.sparse.all())
        subset = base[rng.uniform(size=len(base)) < 0.8]
        local = make_local_maps(rng, subset - np.array([0.0, 0.3, 0.0]), timestamp=100.0)
        icp = icp_point_to_plane(local.sparse, inactive)
        assert icp.converged and icp.inlier_fraction > 0.9
        assert icp.normal_eigen_ratio < fusion.MIN_NORMAL_EIGEN_RATIO
        r = temporal_fusion_step(local, global_maps, cfg, step=1)
        assert r.trigger is None
    corner = corner_scene_points(np.random.default_rng(0))
    src = voxelize_sparse(corner - np.array([0.15, 0.05, 0.0]), np.zeros(len(corner)), [0.5])
    dst = voxelize_sparse(corner, np.zeros(len(corner)), [0.5])
    assert icp_point_to_plane(src, dst).normal_eigen_ratio > 0.1


def icp_cloud(rng, n):
    """Centroids in a 2 m box with normals near the three axes, as the
    sparse surfels of a room's corner give."""
    pts = rng.uniform(0.0, 2.0, size=(n, 3))
    normals = np.eye(3)[rng.integers(0, 3, size=n)] + rng.normal(scale=0.2, size=(n, 3))
    return pts, normals / np.linalg.norm(normals, axis=1)[:, None]


def associate(rotation, translation, src, src_n, dst, dst_n, max_pair_distance):
    """``fusion._associate`` with the destinations keyed as the ICP keys
    them, called as ``oracles.icp_pairs_exhaustive`` is."""
    keyed = KeyedPoints(dst, max_pair_distance)
    return fusion._associate(rotation, translation, src, src_n, keyed, dst_n)


def test_icp_association_matches_exhaustive_oracle(rng):
    src, src_n = icp_cloud(rng, 150)
    dst, dst_n = icp_cloud(rng, 200)
    # Destinations 200-259 repeat 140-199: every such pair is an exact tie,
    # which the lower index wins.
    dst, dst_n = np.vstack([dst, dst[140:]]), np.vstack([dst_n, dst_n[140:]])
    tied = 0
    for _ in range(8):
        rotation = random_rotation(rng, max_angle=0.3)
        translation = rng.normal(scale=0.1, size=3)
        for max_pair_distance in (0.5, 0.3):
            args = (rotation, translation, src, src_n, dst, dst_n, max_pair_distance)
            got = associate(*args)
            want = oracles.icp_pairs_exhaustive(*args)
            assert got[1].size > 20
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
            tied += np.count_nonzero(got[2] >= 140)
    assert tied > 0


def test_icp_association_boundaries():
    # Identity pose and exact coordinates and normal products.  Source 0
    # lies exactly max_pair_distance from its only destination (excluded),
    # source 1 one ulp closer (paired); source 2's near destination has
    # |n_s . n_d| exactly NORMAL_COMPATIBILITY (excluded), source 3's one
    # just above it (paired); source 4 is equally near destinations 6 and 5
    # and pairs with the lower index.  Source 5 is 0.25 m from destination
    # 8 and one ulp of the squared distance farther from destination 7,
    # which rounds to the same distance, so it pairs with 7.
    compat = fusion.NORMAL_COMPATIBILITY
    src = np.array([[0.25, 0, 0], [0.0, 2, 0], [0.0, 4, 0], [0.0, 6, 0], [0.0, 8, 0],
                    [0.0, 10, 0]])
    src_n = np.tile([1.0, 0.0, 0.0], (6, 1))
    dst = np.array([[0.75, 0, 0], [np.nextafter(0.5, 0.0), 2, 0], [0.125, 4, 0],
                    [0.125, 6, 0], [3.0, 3, 3], [0.25, 8, 0], [-0.25, 8, 0],
                    [-0.24268839711408885, 10.051918144315282, -0.030113920320208345],
                    [0.25, 10, 0]])
    dst_n = np.tile([1.0, 0.0, 0.0], (9, 1))
    dst_n[2] = [compat, np.sqrt(1.0 - compat**2), 0.0]
    dst_n[3] = [np.nextafter(compat, 1.0), np.sqrt(1.0 - compat**2), 0.0]
    _, j, d_sq = radius_join(src[5], dst[7:], 0.5)
    d_sq = d_sq[np.argsort(j)]
    assert d_sq[0] > d_sq[1] and np.sqrt(d_sq[0]) == np.sqrt(d_sq[1]) == 0.25
    args = (np.eye(3), np.zeros(3), src, src_n, dst, dst_n, 0.5)
    for pairs in (associate, oracles.icp_pairs_exhaustive):
        _, src_idx, dst_idx = pairs(*args)
        assert src_idx.tolist() == [1, 3, 4, 5]
        assert dst_idx.tolist() == [1, 3, 5, 7]


def test_icp_takes_a_list_or_a_batch(rng):
    pts = corner_scene_points(rng)
    src = voxelize_sparse(pts - np.array([0.15, 0.05, 0.0]), np.zeros(len(pts)), [0.5])
    dst = voxelize_sparse(pts, np.zeros(len(pts)), [0.5])
    batch = icp_point_to_plane(src, dst)
    listed = icp_point_to_plane(list(src), list(dst))
    assert batch.converged and listed.converged
    assert np.array_equal(batch.rotation, listed.rotation)
    assert np.array_equal(batch.translation, listed.translation)
    assert batch.inlier_fraction == listed.inlier_fraction
    assert batch.normal_eigen_ratio == listed.normal_eigen_ratio
    (src_pairs, dst_pairs), (src_listed, dst_listed) = batch.pairs, listed.pairs
    assert src_pairs.shape == dst_pairs.shape and len(src_pairs) > 0
    assert np.array_equal(src_pairs, src_listed) and np.array_equal(dst_pairs, dst_listed)
