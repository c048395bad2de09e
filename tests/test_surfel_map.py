from dataclasses import replace

import numpy as np
import pytest

from surfelslam import lie
from surfelslam.errors import InvalidArgumentError
from surfelslam.simulation import oracles
from surfelslam.surfel_map import (
    BEAM_SIGMA,
    MIN_POINTS,
    DenseExtractionConfig,
    DenseSurfel,
    DenseSurfelMap,
    DenseSurfels,
    KeyedPoints,
    SparseSurfelMap,
    SparseSurfels,
    _check_sparse,
    _radius_pairs,
    check_dense,
    eigh3,
    eigvalsh3,
    extract_dense,
    merge_moments,
    psd_eigh,
    radius_join,
    voxelize_sparse,
)
from surfelslam.trajectory import Trajectory

from conftest import count_decompositions


def test_voxelize_cube_corners():
    pts = np.array(
        [[x, y, z] for x in (1.0, 9.0) for y in (1.0, 9.0) for z in (1.0, 9.0)]
    )
    surfels = voxelize_sparse(pts, np.zeros(8), [10.0])
    assert len(surfels) == 1
    assert np.allclose(surfels[0].centroid, [5.0, 5.0, 5.0])
    assert surfels[0].count == 8


def test_voxelize_coplanar_points(rng):
    pts = rng.uniform(0.0, 1.0, size=(50, 3))
    pts[:, 2] = 0.5
    surfels = voxelize_sparse(pts, np.zeros(50), [2.0])
    assert len(surfels) == 1
    eigenvalues = np.linalg.eigvalsh(surfels[0].covariance)
    assert eigenvalues[0] < 1e-12 * eigenvalues[2]
    assert abs(abs(surfels[0].normal[2]) - 1.0) < 1e-9


def test_voxelize_empty_input():
    assert len(voxelize_sparse(np.zeros((0, 3)), np.zeros(0), [1.0])) == 0


def test_voxelize_matches_bruteforce_moments(rng):
    pts = rng.uniform(-5.0, 5.0, size=(10_000, 3))
    times = rng.uniform(0.0, 10.0, size=10_000)
    for resolution in (1.0, 0.5):
        surfels = voxelize_sparse(pts, times, [resolution])
        expected = {
            k: v
            for k, v in oracles.voxel_moments_bruteforce(pts, times, resolution).items()
            if v[2] >= 5
        }
        assert len(surfels) == len(expected)
        for s in surfels:
            key = tuple(np.floor(s.centroid / resolution).astype(int))
            mean, cov, count, t_mean = expected[key]
            assert count == s.count
            assert np.allclose(s.centroid, mean, atol=1e-12)
            assert np.allclose(s.covariance, cov, atol=1e-10)
            assert abs(s.timestamp - t_mean) < 1e-9


def test_voxelize_requires_resolution():
    with pytest.raises(InvalidArgumentError):
        voxelize_sparse(np.zeros((4, 3)), np.zeros(4), [])


@pytest.mark.parametrize(
    "case",
    [
        {"resolutions": [0.0]},
        {"resolutions": [-1.0]},
        {"resolutions": [np.nan]},
        {"resolutions": [np.inf]},
        {"resolutions": [1.0, 1e-300]},
        {"times": np.r_[np.zeros(7), np.inf]},
        {"points": np.r_[np.ones((6, 3)), [[-(2.0**61)] * 3, [2.0**61] * 3]]},
        {"times": np.zeros(7)},
        {"times": np.zeros(9)},
        {"times": np.r_[np.zeros(7), np.nan]},
        {"points": np.r_[np.ones((7, 3)), [[np.nan, 0.0, 0.0]]]},
        {"points": np.r_[np.ones((7, 3)), [[np.inf, 0.0, 0.0]]]},
        {"resolutions": [1.0, 0.5, 1.0]},
    ],
)
def test_voxelize_rejects_invalid_input(case):
    # Each case alone: a zero, NaN or tiny resolution warned on division or
    # cast, a negative or infinite one and mismatched or NaN times passed
    # silently, a cloud spanning more voxels than an int64 key holds would
    # overflow the key, and a repeated resolution made two surfels of one
    # (resolution, voxel) key.
    args = {"points": np.ones((8, 3)), "times": np.zeros(8), "resolutions": [1.0]}
    args.update(case)
    with pytest.raises(InvalidArgumentError):
        voxelize_sparse(**args)


def plane_points(rng, n=4000, extent=0.5, noise=0.0, normal=(0.0, 0.0, 1.0)):
    normal = np.asarray(normal) / np.linalg.norm(normal)
    basis = np.linalg.svd(np.outer(normal, normal))[0][:, 1:]
    uv = rng.uniform(-extent, extent, size=(n, 2))
    pts = uv @ basis.T
    if noise:
        pts += rng.normal(scale=noise, size=(n, 3))
    return pts


def test_extract_dense_plane_normals(rng):
    pts = plane_points(rng, normal=(1.0, 2.0, 2.0))
    # Sensor sits on the +normal side.
    surfels = extract_dense(pts + np.array([3.0, 0.0, 0.0]), np.zeros(len(pts)))
    true_n = np.array([1.0, 2.0, 2.0]) / 3.0
    assert len(surfels) > 10
    for s in surfels:
        assert abs(abs(s.normal @ true_n) - 1.0) < 1e-9


def test_extract_dense_matches_greedy_seed_oracle(rng):
    pts = plane_points(rng, n=6000, extent=0.35, noise=0.001)
    cfg = DenseExtractionConfig()
    surfels = extract_dense(pts, np.zeros(len(pts)), cfg=cfg)

    # Brute-force greedy seeding in input order.
    seeds = []
    for i, p in enumerate(pts):
        if all(np.linalg.norm(p - pts[j]) >= cfg.radius for j in seeds):
            seeds.append(i)
    d = np.linalg.norm(pts[seeds][:, None] - pts[seeds][None, :], axis=2)
    np.fill_diagonal(d, np.inf)
    assert d.min() >= cfg.radius

    expected = []
    for i in seeds:
        nbrs = np.flatnonzero(np.linalg.norm(pts - pts[i], axis=1) <= cfg.radius)
        if nbrs.size >= MIN_POINTS:
            expected.append(pts[nbrs].mean(axis=0))
    got = sorted(map(tuple, (s.centroid for s in surfels)))
    want = sorted(map(tuple, expected))
    assert len(got) == len(want)
    assert np.allclose(np.array(got), np.array(want), atol=1e-12)


def test_extract_dense_tie_rules_on_exact_lattice():
    # 9x9 lattice at the surfel radius: every spacing and distance is exact.
    # A seed rejects only seeds strictly closer than the radius, so every
    # point seeds; a neighborhood includes points at exactly the radius, so
    # each of the 7x7 interior points gathers itself and its four neighbors.
    coords = -1.0 + 0.25 * np.arange(9)
    pts = np.array([[x, y, -1.0] for x in coords for y in coords])
    cfg = DenseExtractionConfig(radius=0.25)
    surfels = extract_dense(pts, np.zeros(len(pts)), cfg=cfg)
    assert len(surfels) == 49
    assert all(s.dof == 5 for s in surfels)
    got = sorted(tuple(s.centroid) for s in surfels)
    want = sorted((x, y, -1.0) for x in coords[1:-1] for y in coords[1:-1])
    assert got == want


def test_extract_dense_reduces_plane_noise(rng):
    noise = 0.005
    pts = plane_points(rng, n=8000, noise=noise)
    surfels = extract_dense(pts, np.zeros(len(pts)))
    raw = np.mean(np.abs(pts @ np.array([0.0, 0.0, 1.0])))
    fused = np.mean(np.abs(np.array([s.centroid for s in surfels]) @ np.array([0, 0, 1.0])))
    assert fused < raw


def test_extract_dense_initializes_wishart_state(rng):
    pts = plane_points(rng, noise=0.002)
    surfels = extract_dense(pts, np.zeros(len(pts)))
    for s in surfels:
        assert s.dof >= MIN_POINTS
        assert s.obs_count == 1
        eigenvalues = np.linalg.eigvalsh(s.centroid_cov)
        assert eigenvalues[0] > 0.0


def constant_velocity_trajectory():
    """Identity rotation, constant velocity along x."""
    n = 51
    times = np.arange(n) / 100.0
    return Trajectory(
        times,
        np.stack([np.eye(3)] * n),
        np.outer(times, np.array([1.0, 0.0, 0.0])),
    )


def test_extract_dense_deskews_with_trajectory(rng):
    traj = constant_velocity_trajectory()
    pts = plane_points(rng, n=2000, noise=0.0)
    t_obs = rng.uniform(0.0, 0.5, size=len(pts))
    sensor = pts - np.outer(t_obs, np.array([1.0, 0.0, 0.0]))
    surfels = extract_dense(sensor, t_obs, traj=traj)
    for s in surfels:
        assert abs(s.centroid @ np.array([0.0, 0.0, 1.0])) < 1e-9


def test_extract_dense_matches_bruteforce_oracle(rng):
    plane = plane_points(rng, n=3000, extent=0.3, noise=0.001, normal=(1.0, 2.0, 2.0))
    plane += np.array([0.0, 0.0, -1.0])
    azimuth = plane[np.argsort(np.arctan2(plane[:, 1], plane[:, 0]))]
    repeated = plane[rng.permutation(np.r_[np.arange(2000), rng.choice(2000, 800)])]
    # Spacing half the radius on 0.125 m cells: seeds sit exactly one radius
    # apart and each neighborhood includes the points at exactly the radius.
    # At -1e-17 in place of 0 a point lies one radius (after rounding) from
    # the points at 0.125, which are two unpadded cells away.
    coords = -0.5 + 0.0625 * np.arange(17)
    coords[8] = -1e-17
    lattice = np.array([[x, y, -0.25] for x in coords for y in coords])
    deskewed = plane_points(rng, n=2000, extent=0.3, noise=0.001) + np.array([0.0, 0.0, -1.0])
    t_obs = rng.uniform(0.0, 0.5, size=len(deskewed))
    sensor = deskewed - np.outer(t_obs, np.array([1.0, 0.0, 0.0]))
    cases = [
        (plane, None, 0.02),
        (azimuth, None, 0.02),
        (repeated, None, 0.02),
        (lattice, None, 0.125),
        (sensor, constant_velocity_trajectory(), 0.02),
    ]
    for points, traj, radius in cases:
        times = t_obs if traj is not None else rng.uniform(0.0, 1.0, size=len(points))
        cfg = DenseExtractionConfig(radius=radius)
        got = extract_dense(points, times, traj=traj, cfg=cfg)
        want = oracles.dense_surfels_bruteforce(
            points, times, radius, MIN_POINTS, BEAM_SIGMA, traj=traj
        )
        assert len(got) == len(want) > 10
        assert [s.dof for s in got] == [w["dof"] for w in want]
        assert all(s.obs_count == 1 and s.radius == radius for s in got)
        for field in ("centroid", "normal", "centroid_cov", "scatter", "timestamp"):
            g = np.array([getattr(s, field) for s in got])
            w = np.array([s[field] for s in want])
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max(), field


def test_extract_dense_returns_a_batch_of_views(rng):
    pts = plane_points(rng, n=2000, noise=0.001)
    batch = extract_dense(pts, rng.uniform(0.0, 1.0, size=len(pts)))
    assert isinstance(batch, DenseSurfels) and len(batch) > 10
    views = list(batch)
    assert len(views) == len(batch)
    for k in (0, np.int64(len(batch) - 1), -1):
        view = batch[k]
        assert isinstance(view, DenseSurfel)
        assert np.array_equal(view.centroid, batch.centroid[k])
        assert np.array_equal(view.scatter, batch.scatter[k])
        assert view.dof == batch.dof[k] and view.timestamp == batch.timestamp[k]
    # A view holds copies: writing into one leaves the batch as it was.
    views[0].centroid[:] = 99.0
    assert not np.any(batch.centroid[0] == 99.0)
    sub = batch[np.array([2, 0])]
    assert isinstance(sub, DenseSurfels)
    assert np.array_equal(sub.normal, batch.normal[[2, 0]])


def test_extract_dense_empty_input():
    assert len(extract_dense(np.zeros((0, 3)), np.zeros(0))) == 0


def test_extract_dense_sparse_input_yields_nothing(rng):
    # Every point sits alone in its 0.1 m lattice site, five radii apart.
    pts = 0.1 * np.array([[x, y, 0.0] for x in range(10) for y in range(10)])
    assert len(extract_dense(pts, np.zeros(len(pts)))) == 0


def test_extract_dense_coincident_cluster():
    # Every pair in one cell: the pair kernel's quadratic worst case.
    pts = np.tile([0.3, -0.2, 1.0], (500, 1))
    surfels = extract_dense(pts, np.linspace(0.0, 1.0, 500))
    assert len(surfels) == 1
    assert surfels[0].dof == 500
    assert np.allclose(surfels[0].centroid, [0.3, -0.2, 1.0], atol=1e-15)
    assert surfels[0].timestamp == pytest.approx(0.5)


def test_extract_dense_rejects_non_finite_input(rng):
    pts = plane_points(rng, n=200)
    times = np.zeros(200)
    for which, value in enumerate((np.nan, np.inf)):
        args = [pts, times]
        args[which] = args[which].copy()
        args[which].flat[7] = value
        with pytest.raises(InvalidArgumentError):
            extract_dense(*args)


def test_extract_dense_rejects_length_mismatch(rng):
    pts = plane_points(rng, n=200)
    for times in (np.zeros(199), np.zeros(201)):
        with pytest.raises(InvalidArgumentError):
            extract_dense(pts, times)


def test_extract_dense_rejects_non_positive_radius(rng):
    pts = plane_points(rng, n=200)
    for radius in (0.0, -0.02, np.nan):
        with pytest.raises(InvalidArgumentError):
            extract_dense(pts, np.zeros(200), cfg=DenseExtractionConfig(radius=radius))


def test_extract_dense_rejects_extent_beyond_cell_keys():
    # 1e7 m apart at a 1 mm radius: 1e30 cells, past the int64 cell keys.
    pts = np.array([[0.0, 0.0, 0.0], [1e7, 1e7, 1e7]])
    with pytest.raises(InvalidArgumentError):
        extract_dense(pts, np.zeros(2), cfg=DenseExtractionConfig(radius=1e-3))


# -- dense surfel check and store ----------------------------------------------


@pytest.mark.parametrize(
    "name, value",
    [
        ("centroid", [np.nan, 0.0, 0.0]),
        ("centroid", [0.0, -np.inf, 0.0]),
        ("centroid", [0.0, 0.0, 0.0, 1.0]),
        ("centroid", 0.0),
        ("normal", [0.0, np.nan, 1.0]),
        ("normal", [0.0, 0.0, 2.0]),
        ("normal", [0.0, 1.0]),
        ("centroid_cov", np.full((3, 3), np.nan)),
        ("centroid_cov", -1e-3 * np.eye(3)),
        ("centroid_cov", 1e-6 * np.eye(4)),
        ("scatter", np.diag([np.inf, 1e-4, 1e-4])),
        ("scatter", np.diag([1e-4, 1e-4, -1e-3])),
        ("scatter", np.eye(3)[:2]),
        ("dof", np.nan),
        ("dof", -3.0),
        ("dof", 0.5),
        ("dof", [6.0, 6.0]),
        ("timestamp", np.nan),
        ("timestamp", np.inf),
        ("obs_count", [1, 2]),
        ("radius", np.nan),
    ],
)
def test_dense_surfel_check_rejects_invalid_fields(name, value):
    # The parent accepted a NaN centroid (it warned later inside the radius
    # join), a NaN timestamp (fused silently), dof = -3 (it failed only in
    # SurfelMeasurement) and a 4-vector centroid (a ValueError deep in
    # matching).  One check serves a list of records, alone or among good
    # ones, and a batch.
    proto = _surfel_at(np.zeros(3))
    bad = replace(proto, **{name: value})
    for records in ([bad], [proto, bad]):
        with pytest.raises(InvalidArgumentError):
            DenseSurfels.of(records)
    batch = DenseSurfels.of([proto, proto])
    if np.shape(value) == np.shape(getattr(proto, name)):
        # One bad row among good ones.
        values = getattr(batch, name).astype(float)
        values[1] = value
    else:
        values = np.array([value, value])
    with pytest.raises(InvalidArgumentError):
        check_dense(replace(batch, **{name: values}))
    good = check_dense(batch)
    assert len(good) == 2 and np.array_equal(good.scatter, batch.scatter)


def _random_surfel(rng):
    normal = rng.normal(size=3)
    a, b = rng.normal(size=(2, 3, 3))
    return DenseSurfel(
        centroid=rng.uniform(-5.0, 5.0, size=3),
        normal=normal / np.linalg.norm(normal),
        centroid_cov=1e-4 * a @ a.T,
        scatter=1e-3 * b @ b.T,
        dof=rng.uniform(5.0, 50.0),
        obs_count=int(rng.integers(1, 9)),
        timestamp=rng.uniform(0.0, 100.0),
        radius=rng.uniform(0.01, 0.3),
    )


def test_dense_map_keys_are_rows(rng):
    # A key is a row of the stored batch: keys run over [0, len) in row
    # order, a view carries its row's values and types, and every other key
    # is missing.
    names = ("centroid", "normal", "centroid_cov", "scatter", "dof", "obs_count",
             "timestamp", "radius")
    records = [_random_surfel(rng) for _ in range(40)]
    m = DenseSurfelMap()
    m.batch = DenseSurfels.of(records)
    assert len(m) == len(m.surfels) == 40 and list(m.surfels) == list(range(40))
    for key, record in enumerate(records):
        for got in (m.get(key), m.surfels[np.int64(key)]):
            for name in names:
                want = getattr(m.batch[key], name)
                assert np.array_equal(getattr(got, name), want), name
                assert type(getattr(got, name)) is type(want), name
            assert np.array_equal(got.centroid, record.centroid)
    # A view is a copy: writing into it leaves the map as it was.
    m.get(3).centroid[:] = 1e9
    assert np.array_equal(m.get(3).centroid, records[3].centroid)
    for key in (-1, 40, np.int64(40), 2.0, "0"):
        with pytest.raises(KeyError):
            m.get(key)
        with pytest.raises(KeyError):
            m.surfels[key]
        assert key not in m.surfels
    m.batch = DenseSurfels.empty()
    assert len(m) == 0 and list(m.surfels) == []
    with pytest.raises(KeyError):
        m.get(0)
    assert m.query_radius([0.0, 0.0, 0.0], 100.0) == []


def test_linear_scan_distance_rounds_as_norm(rng):
    # oracles.LinearScanIndex takes each distance as the square root of a
    # row-wise matmul dot product; it must round exactly as the scalar
    # np.linalg.norm of each difference vector.
    d = rng.normal(size=(20_000, 3)) * 10.0 ** rng.uniform(-6.0, 6.0, size=(20_000, 1))
    d[:1000] = np.round(d[:1000] * 8.0) / 8.0
    batch = np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])
    assert np.array_equal(batch, [np.linalg.norm(v) for v in d])


# -- spatial lookup -----------------------------------------------------------


def _surfel_at(point):
    return DenseSurfel(
        centroid=point, normal=[0.0, 0.0, 1.0],
        centroid_cov=np.eye(3) * 1e-6, scatter=np.eye(3) * 1e-4,
        dof=6.0, obs_count=1, timestamp=0.0,
    )


def _mapped(points):
    """A dense map holding one surfel at each point, in order, and the
    linear-scan shadow of its centroids, keyed by row."""
    m = DenseSurfelMap()
    proto = _surfel_at(np.zeros(3))
    m.batch = DenseSurfels.of([replace(proto, centroid=p) for p in points])
    shadow = oracles.LinearScanIndex()
    for key, p in enumerate(points):
        shadow.insert(key, p)
    return m, shadow


def test_index_empty_query():
    assert DenseSurfelMap().query_radius([0.0, 0.0, 0.0], 1.0) == []


def test_index_exact_hit():
    m, _ = _mapped([[5.0, 5.0, 5.0]] * 7 + [[1.0, 2.0, 3.0]])
    assert m.query_radius([1.0, 2.0, 3.0], 1e-12) == [7]


def test_index_matches_linear_scan_bulk(rng):
    m, shadow = _mapped(rng.uniform(-20.0, 20.0, size=(10_000, 3)))
    for _ in range(100):
        center = rng.uniform(-22.0, 22.0, size=3)
        radius = rng.uniform(0.1, 5.0)
        assert m.query_radius(center, radius) == shadow.query_radius(center, radius)


def test_index_randomized_insert_remove_query(rng):
    # A sequence of maps, each a random sub-batch of one pool of surfels in
    # pool order, as fusion steps leave them: rows dropped, rows appended.
    m = DenseSurfelMap()
    proto = _surfel_at(np.zeros(3))
    pool = rng.uniform(-50.0, 50.0, size=(4000, 3))
    batch = DenseSurfels.of([replace(proto, centroid=p) for p in pool])
    for _ in range(40):
        kept = np.flatnonzero(rng.uniform(size=len(pool)) < rng.uniform(0.0, 0.5))
        m.batch = batch[kept]
        shadow = oracles.LinearScanIndex()
        for key, p in enumerate(pool[kept]):
            shadow.insert(key, p)
        for _ in range(50):
            center = rng.uniform(-55.0, 55.0, size=3)
            radius = rng.uniform(0.5, 10.0)
            assert m.query_radius(center, radius) == shadow.query_radius(center, radius)
        assert sorted(m.surfels) == sorted(shadow.points)


def test_index_grows_beyond_initial_bounds():
    m, _ = _mapped([[100.0, -250.0, 3.0], [0.1, 0.1, 0.1]])
    assert m.query_radius([100.0, -250.0, 3.0], 0.5) == [0]
    assert m.query_radius([0.1, 0.1, 0.1], 0.0) == [1]


def test_index_matches_linear_scan_on_cell_faces(rng):
    # Dyadic lattice points on the faces of the join's cells, whose edge is
    # the padded radius, negative coordinates included; the radii are
    # distances the lattice realizes exactly (0.625 from the 0.375/0.5/0.625
    # triple), so spheres touch points, and radius 0 finds only coincident
    # points.
    coords = -0.5 + 0.125 * np.arange(9)
    pts = np.array([[x, y, z] for x in coords for y in coords for z in coords])

    def check(points):
        m, shadow = _mapped(points)
        centers = [points[i] for i in rng.choice(len(points), 12)]
        centers += [[0.0, 0.0, 0.0], [-0.25, 0.25, -0.5], [0.0625, -0.1875, 0.3125]]
        for radius in (0.0, 0.125, 0.25, 0.625, 2.0):
            for center in centers:
                assert m.query_radius(center, radius) == shadow.query_radius(center, radius)
        assert sorted(m.surfels) == sorted(shadow.points)
        return m

    check(pts)
    # Empty the 0.25 m cell [0.5, 0.75)^3, which holds only the corner
    # point, by a move, then refill it by an insert.
    moved = pts.copy()
    moved[-1] = [-0.625, -0.625, -0.625]
    assert check(moved).query_radius([0.5, 0.5, 0.5], 0.1) == []
    check(np.r_[moved, [[0.625, 0.5, 0.75]]])
    # Empty a whole interior cell, [0, 0.25)^3, whose eight points sit on
    # its lower faces.
    inner = np.all((moved >= 0.0) & (moved < 0.25), axis=1)
    assert np.count_nonzero(inner) == 8
    assert check(moved[~inner]).query_radius([0.1, 0.1, 0.1], 0.1) == []


def test_radius_join_matches_bruteforce(rng):
    # ``wide`` holds copies of 40 cluster points, so radius 0 finds pairs,
    # and most of its points lie outside the cluster's box.
    cluster = rng.uniform(-1.0, 1.0, size=(200, 3))
    wide = np.r_[rng.uniform(-20.0, 20.0, size=(3000, 3)), cluster[::5]]
    lattice = -0.5 + 0.125 * np.array([[x, y, z] for x in range(9) for y in range(9) for z in range(9)])
    cases = [
        (cluster, wide, 0.0),
        (cluster, wide, 0.3),
        (cluster, wide, 3.0),
        (wide[:500], wide, 1.5),
        (lattice, lattice[::7], 0.25),
        (lattice[::5], lattice, 0.0),
        (wide[17:18], wide, 1e-12),
        (np.zeros((0, 3)), wide, 1.0),
        (cluster, np.zeros((0, 3)), 1.0),
    ]
    for a, b, radius in cases:
        i, j, d_sq = radius_join(a, b, radius)
        order = np.lexsort((j, i))
        want = oracles.radius_join_bruteforce(a, b, radius)
        assert np.array_equal(i[order], want[0])
        assert np.array_equal(j[order], want[1])
        assert np.array_equal(d_sq[order], want[2])
    # A 1e-12 radius over the 40 m extent of ``wide`` spans 4e13 cells an
    # axis, too many to key; only ``a``'s padded box is keyed.
    i, j, _ = radius_join(wide[17:18], wide, 1e-12)
    assert i.tolist() == [0] and j.tolist() == [17]
    with pytest.raises(InvalidArgumentError):
        radius_join(cluster, wide, -1.0)


def test_dense_map_write_moves_index(rng):
    # A step that moves a surfel stores a batch with its row moved; queries
    # read the stored batch.
    m = DenseSurfelMap()
    m.batch = DenseSurfels.of([_surfel_at([0.0, 0.0, 0.0])])
    assert m.query_radius([0.0, 0.0, 0.0], 0.1) == [0]
    moved = replace(_surfel_at([5.0, 0.0, 0.0]), obs_count=2, timestamp=1.0)
    m.batch = DenseSurfels.of([moved])
    assert m.query_radius([5.0, 0.0, 0.0], 0.1) == [0]
    assert m.query_radius([0.0, 0.0, 0.0], 0.1) == []


def test_sparse_map_fusion_pools_moments(rng):
    pts_a = rng.normal(size=(40, 3)) * 0.1 + 0.5
    pts_b = rng.normal(size=(60, 3)) * 0.1 + 0.5
    sa = voxelize_sparse(pts_a, np.zeros(40), [4.0])[0]
    sb = voxelize_sparse(pts_b, np.ones(60), [4.0])[0]
    m = SparseSurfelMap()
    m.fuse([sa])
    m.fuse([sb])
    assert len(m) == 1
    fused = m.all()[0]
    both = voxelize_sparse(np.vstack([pts_a, pts_b]), np.zeros(100), [4.0])[0]
    assert np.allclose(fused.centroid, both.centroid, atol=1e-12)
    assert np.allclose(fused.covariance, both.covariance, atol=1e-10)
    assert fused.count == 100


def test_covariances_stay_psd_through_merges(rng):
    mean_a, cov_a = rng.normal(size=3), np.eye(3) * 1e-6
    for _ in range(200):
        mean_b = rng.normal(size=3)
        amplitude = rng.uniform(1e-8, 1e-2)
        a = rng.normal(size=(3, 3)) * amplitude
        cov_b = a @ a.T
        mean_a, cov_a, _, _ = merge_moments(mean_a, cov_a, 10, mean_b, cov_b, 7)
        assert np.allclose(cov_a, cov_a.T)
        assert np.linalg.eigvalsh(cov_a)[0] >= -1e-15


def pool_sequentially(pooled, surfels):
    """The sparse map's pooling rule one surfel at a time: one
    ``merge_moments`` into the stored moments of the surfel's (resolution,
    voxel) key, which keeps the later timestamp; ``pooled`` maps each key
    to (centroid, covariance, count, timestamp) in insertion order."""
    for s in surfels:
        key = (s.resolution, tuple(s.voxel.tolist()))
        if key not in pooled:
            pooled[key] = (s.centroid, s.covariance, s.count, s.timestamp)
            continue
        mean, cov, count, t = pooled[key]
        mean, cov, count, _ = merge_moments(mean, cov, count, s.centroid, s.covariance, s.count)
        pooled[key] = (mean, cov, int(count), max(t, s.timestamp))


def test_sparse_map_fuse_matches_sequential_merges(rng):
    resolutions = [0.5, 1.0]

    def scan(shift, n, t):
        pts = rng.uniform(-1.5, 1.5, size=(n, 3)) + shift
        return voxelize_sparse(pts, rng.uniform(t, t + 0.1, size=n), resolutions)

    # The second scan revisits voxels of the first and adds new ones; the
    # third revisits both, and stamps its voxels earlier than the second.
    first = scan(np.zeros(3), 3000, 0.0)
    second, third = scan([1.0, -0.5, 0.0], 3000, 2.0), scan([1.0, -0.5, 0.0], 2000, 1.0)
    m, want = SparseSurfelMap(), {}
    for call in (first, second, list(third)):
        m.fuse(call)
        pool_sequentially(want, call)
    got = m.all()
    assert len(m) == len(want) > len(first)
    assert [(s.resolution, tuple(s.voxel.tolist())) for s in got] == list(want)
    assert sum(got.count) == sum(first.count) + sum(second.count) + sum(third.count)
    for s, (mean, cov, count, t) in zip(got, want.values()):
        assert s.count == count and s.timestamp == t
        assert np.max(np.abs(s.centroid - mean)) <= 1e-12 * np.max(np.abs(mean))
        assert np.max(np.abs(s.covariance - cov)) <= 1e-12 * np.max(np.abs(cov))
        assert abs(abs(s.normal @ np.linalg.eigh(cov)[1][:, 0]) - 1.0) < 1e-9
    revisited = {(s.resolution, tuple(s.voxel.tolist())) for s in first}
    keys = [(s.resolution, tuple(s.voxel.tolist())) for s in second]
    assert any(key in revisited for key in keys) and any(key not in revisited for key in keys)
    # One call holds each key once, stored or new; the map stays as it was.
    for repeated in (list(second[:2]) * 2, [second[0], third[0], second[0]],
                     [scan(np.full(3, 9.0), 500, 3.0)[0]] * 2):
        with pytest.raises(InvalidArgumentError):
            m.fuse(repeated)
        assert m.all() is got


def test_sparse_map_keeps_the_latest_timestamp(rng):
    pts = rng.normal(scale=0.1, size=(30, 3)) + 0.5
    m = SparseSurfelMap()
    for t, want in ((5.0, 5.0), (3.0, 5.0), (7.0, 7.0)):
        m.fuse(voxelize_sparse(pts, np.full(30, t), [4.0]))
        assert len(m) == 1 and m.all()[0].timestamp == want
    assert m.all()[0].count == 90


def test_voxelize_orders_by_resolution_then_voxel(rng):
    # Lexicographic voxel order within each resolution, as grouping by the
    # sorted voxel index gives, across negative and positive indices.
    pts = rng.uniform(-2.0, 2.0, size=(4000, 3))
    times = np.zeros(len(pts))
    out = voxelize_sparse(pts, times, [1.0, 0.5])
    want = [
        (r, key)
        for r in (1.0, 0.5)
        for key in sorted(
            k for k, v in oracles.voxel_moments_bruteforce(pts, times, r).items() if v[2] >= 5
        )
    ]
    assert [(s.resolution, tuple(s.voxel.tolist())) for s in out] == want
    assert np.array_equal(out.voxel, np.floor(out.centroid / out.resolution[:, None]))


def test_keyed_points_join_matches_bruteforce(rng):
    # One keyed set serves every join, as the ICP's destinations do: query
    # sets inside it, straddling its grid's edge and far outside it.
    b = rng.uniform(-1.0, 1.0, size=(400, 3))
    for radius in (0.0, 0.2, 0.5):
        keyed = KeyedPoints(b, radius)
        for a in (
            b[::7] + rng.normal(scale=0.05, size=(58, 3)),
            rng.uniform(-1.6, 1.6, size=(300, 3)),
            b[:40] + 50.0,
            -1.0 - radius * np.abs(rng.uniform(size=(30, 3))),
            np.zeros((0, 3)),
        ):
            i, j, d_sq = keyed.join(a)
            order = np.lexsort((j, i))
            want = oracles.radius_join_bruteforce(a, b, radius)
            assert np.array_equal(i[order], want[0])
            assert np.array_equal(j[order], want[1])
            assert np.array_equal(d_sq[order], want[2])
    i, j, d_sq = KeyedPoints(np.zeros((0, 3)), 0.5).join(b)
    assert i.size == j.size == d_sq.size == 0


# Two close pairs at opposite corners of a grid of radius-1 cells of
# 1664509 cells an axis, padding included: 1664509^3 is just under the 2^62
# cells the keys allow.
_CORNERS = np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.5],
                     [1664505.0, 1664505.0, 1664505.0], [1664504.5, 1664505.0, 1664504.5]])


def _pair_sets(rng):
    """Point sets and radii that stress the column runs of the grid kernel."""
    lattice = -0.5 + 0.125 * np.array([[x, y, z] for x in range(9) for y in range(9) for z in range(9)])
    repeated = np.repeat(rng.uniform(-1.0, 1.0, size=(60, 3)), [1, 2, 3] * 20, axis=0)
    slab = rng.uniform(0.0, 1.0, size=(300, 3)) * [5.0, 0.04, 0.04]
    return [
        (lattice, 0.125),  # d² == r² on the cell faces
        (repeated, 0.0),  # duplicates only
        (slab, 0.05),  # one cell thick in y and z: every run reaches the padding
        (rng.uniform(0.0, 0.3, size=(600, 3)), 0.1),  # tens of points a cell
        (1e3 + rng.uniform(-1.0, 1.0, size=(400, 3)), 0.2),
        (_CORNERS, 1.0),
        (np.ones((1, 3)), 0.5),
        (np.zeros((0, 3)), 0.5),
    ]


def _sorted_pairs(i, j, d_sq):
    order = np.lexsort((j, i))
    return i[order], j[order], d_sq[order]


def test_radius_pairs_matches_bruteforce(rng):
    for points, radius in _pair_sets(rng):
        got = _sorted_pairs(*_radius_pairs(points, radius))
        want = oracles.radius_pairs_bruteforce(points, radius)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
    i, j, _ = _radius_pairs(_CORNERS, 1.0)
    assert sorted(zip(i.tolist(), j.tolist())) == [(0, 1), (2, 3)]
    # The corner set keys in range only just: a 1% wider extent does not.
    with pytest.raises(InvalidArgumentError):
        _radius_pairs(_CORNERS * 1.01, 1.0)


def test_radius_pairs_is_the_upper_half_of_the_self_join(rng):
    # Both forms of the kernel find the same pairs with bit-equal distances.
    for points, radius in _pair_sets(rng):
        i, j, d_sq = KeyedPoints(points, radius).join(points)
        upper = i < j
        want = _sorted_pairs(i[upper], j[upper], d_sq[upper])
        got = _sorted_pairs(*_radius_pairs(points, radius))
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def _mixed_psd_stack(rng):
    """Nearly symmetric matrices: positive definite rows, rows with one or
    more negative eigenvalues, a zero row and a repeated-eigenvalue row."""
    a = rng.normal(size=(4, 3, 3))
    spd = a @ np.swapaxes(a, 1, 2)
    basis = np.linalg.qr(rng.normal(size=(3, 3, 3)))[0]
    spectra = np.array([[-1e-3, 0.5, 2.0], [-1e-18, 1e-4, 1.0], [-0.2, -0.1, 0.3]])
    negative = (basis * spectra[:, None, :]) @ np.swapaxes(basis, 1, 2)
    rows = np.concatenate([spd[:2], negative[:2], np.zeros((1, 3, 3)), spd[2:],
                           negative[2:], np.eye(3)[None]])
    noise = 1e-17 * rng.normal(size=rows.shape)
    noise[4] = 0.0
    return rows + noise


def _with_spectra(rng, spectra):
    """Exactly symmetric matrices with the rows of ``spectra`` as
    eigenvalues, in random orthonormal bases."""
    basis = np.linalg.qr(rng.normal(size=(len(spectra), 3, 3)))[0]
    m = (basis * np.asarray(spectra, dtype=float)[:, None, :]) @ np.swapaxes(basis, 1, 2)
    return 0.5 * (m + np.swapaxes(m, 1, 2))


def _adversarial_stacks(rng, n=200):
    """Named stacks of exactly symmetric 3×3 matrices that test a
    closed-form decomposition where it can lose digits."""
    r = rng.uniform(0.5, 2.0, size=n)
    zero, one = np.zeros(n), np.ones(n)
    b = rng.normal(size=(n, 3, 3))
    spd = b @ np.swapaxes(b, 1, 2)
    # Points on the plane z = 0 give a scatter with an exact zero eigenvalue.
    flat = rng.normal(size=(n, 20, 3)) * [1.0, 0.5, 0.0]
    flat -= flat.mean(axis=1, keepdims=True)
    stacks = {f"spd at {scale:g}": scale * spd for scale in (1e-12, 1.0, 1e6)}
    stacks.update({
        "planar": np.swapaxes(flat, 1, 2) @ flat,
        "thin plane": _with_spectra(rng, np.stack([2e-4 * r, r, 2.0 * r], axis=1)),
        "disc": _with_spectra(rng, np.stack([1e-3 * r, r, r], axis=1)),
        "near disc": _with_spectra(rng, np.stack([1e-3 * r, r, r + 1e-9], axis=1)),
        "double smallest": _with_spectra(rng, np.stack([r, r, 2.0 * r], axis=1)),
        "rank 1": _with_spectra(rng, np.stack([zero, zero, r], axis=1)),
        "diagonal": np.eye(3) * rng.normal(size=(n, 1, 3)),
        "identity": np.broadcast_to(np.eye(3), (n, 3, 3)).copy(),
        "zero": np.zeros((n, 3, 3)),
        "negative": _with_spectra(rng, np.stack([-0.1 * r, r, 2.0 * one], axis=1)),
        "single": spd[0],
    })
    return stacks


def _assert_matches_eigh(a, eigenvalues, normals):
    """``eigh3``'s output for the stack ``a`` against ``np.linalg.eigh``:
    eigenvalues within 1e-14 of the largest magnitude, unit normals, and
    each normal along the oracle's (1 - |v.v_ref| at most 1e-13) where the
    two smallest eigenvalues are 1e-6 of it apart, an eigenvector of the
    smallest (residual at most 1e-14 of it) where they are closer."""
    a = np.reshape(a, (-1, 3, 3))
    eigenvalues, normals = np.reshape(eigenvalues, (-1, 3)), np.reshape(normals, (-1, 3))
    want, vectors = np.linalg.eigh(a)
    scale = np.abs(want).max(axis=1)
    assert (np.abs(eigenvalues - want).max(axis=1) <= 1e-14 * scale).all()
    assert (np.abs(np.linalg.norm(normals, axis=1) - 1.0) <= 1e-15).all()
    apart = want[:, 1] - want[:, 0] > 1e-6 * scale
    along = np.abs(np.einsum("ni,ni->n", normals, vectors[:, :, 0]))
    assert (1.0 - along[apart] <= 1e-13).all()
    residual = np.einsum("nij,nj->ni", a, normals) - eigenvalues[:, :1] * normals
    assert (np.linalg.norm(residual, axis=1)[~apart] <= 1e-14 * scale[~apart]).all()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_eigh3_matches_lapack_on_adversarial_stacks(rng):
    for name, a in _adversarial_stacks(rng).items():
        eigenvalues, normals = eigh3(a)
        assert eigenvalues.shape == normals.shape == a.shape[:-2] + (3,), name
        _assert_matches_eigh(a, eigenvalues, normals)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_eigvalsh3_matches_lapack_to_its_stated_accuracy(rng):
    # Smith's formula alone: within 1e-13 of the largest magnitude where
    # the eigenvalues are 1e-3 of it apart, 1e-7 at a double eigenvalue.
    for name, a in _adversarial_stacks(rng).items():
        got = eigvalsh3(a)
        assert got.shape == a.shape[:-2] + (3,), name
        want = np.linalg.eigvalsh(a).reshape(-1, 3)
        got = got.reshape(-1, 3)
        scale = np.abs(want).max(axis=1)
        error = np.abs(got - want).max(axis=1)
        apart = np.diff(want, axis=1).min(axis=1) > 1e-3 * scale
        assert (error <= 1e-7 * scale).all(), name
        assert (error[apart] <= 1e-13 * scale[apart]).all(), name


def test_psd_eigh_returns_the_eigenpairs_of_its_output(rng):
    m = _mixed_psd_stack(rng)
    sym = 0.5 * (m + np.swapaxes(m, 1, 2))
    psd = np.linalg.eigvalsh(sym)[:, 0] >= 0.0
    assert psd.any() and not psd.all()
    out, (eigenvalues, normals) = psd_eigh(m)
    _assert_matches_eigh(out, eigenvalues, normals)
    assert np.array_equal(out, np.swapaxes(out, 1, 2))
    assert np.array_equal(out[psd], sym[psd])
    assert np.array_equal(out[4], np.zeros((3, 3)))
    scale = np.maximum(np.abs(eigenvalues[:, 2]), 1.0)
    assert (eigenvalues[:, 0] >= -1e-15 * scale).all()
    # A decomposition the caller already has gives the same result, and so
    # does decomposing the output again.
    given, (given_values, given_normals) = psd_eigh(m, eigh3(sym))
    assert np.array_equal(given, out)
    assert np.array_equal(given_values, eigenvalues) and np.array_equal(given_normals, normals)
    again_values, again_normals = eigh3(out)
    assert np.array_equal(again_values, eigenvalues) and np.array_equal(again_normals, normals)
    # One matrix is a stack of one.
    for k in (0, 2):
        one, (one_values, one_normals) = psd_eigh(m[k])
        assert np.array_equal(one, out[k]) and np.array_equal(one_values, eigenvalues[k])
        assert np.array_equal(one_normals, normals[k])


def test_psd_checks_reject_non_psd_at_every_entry_point(rng):
    # The checks decompose whatever stack they are not given eigenvalues
    # for, and check the eigenvalues they are given.
    bad = np.diag([1e-4, 1e-4, -1e-3])
    proto = _surfel_at(np.zeros(3))
    batch = DenseSurfels.of([proto, proto])
    for name, other in (("centroid_cov", "scatter"), ("scatter", "centroid_cov")):
        values = getattr(batch, name).copy()
        values[1] = bad
        broken = replace(batch, **{name: values})
        known = {other: np.linalg.eigvalsh(getattr(batch, other))}
        for eigenvalues in (None, known, {name: np.linalg.eigvalsh(values)}):
            with pytest.raises(InvalidArgumentError):
                check_dense(broken, eigenvalues)
        fields = {f: getattr(proto, f) for f in ("centroid", "normal", "centroid_cov",
                                                  "scatter", "dof", "obs_count", "timestamp")}
        with pytest.raises(InvalidArgumentError):
            DenseSurfels.of([DenseSurfel(**{**fields, name: bad})])
    sparse = voxelize_sparse(rng.normal(scale=0.1, size=(200, 3)), np.zeros(200), [0.5, 1.0])
    covariance = sparse.covariance.copy()
    covariance[1] = bad
    fields = (sparse.centroid, covariance, sparse.count, sparse.resolution, sparse.timestamp,
              sparse.voxel)
    for eigh in (None, eigh3(covariance)):
        with pytest.raises(InvalidArgumentError):
            _check_sparse(*fields, eigh=eigh)
    with pytest.raises(InvalidArgumentError):
        SparseSurfels.of([sparse[0], replace(sparse[1], covariance=bad)])


def test_one_eigendecomposition_per_covariance_stack(rng, monkeypatch):
    # A regression guard on a small batch whose stacks need no clamping and
    # no LAPACK fallback: extraction decomposes its scatters once (normals,
    # clamp and check) and its centroid covariances never (their spectrum
    # follows from the scatters'); voxelization and a sparse fuse decompose
    # each covariance stack once (clamp, normals and check).
    points = 0.25 + rng.normal(scale=0.01, size=(400, 3))
    times = np.zeros(len(points))
    first = voxelize_sparse(points, times, [0.5, 1.0])
    again = voxelize_sparse(points[::2], times[::2], [0.5, 1.0])
    sparse_map = SparseSurfelMap()
    sparse_map.fuse(first)
    calls = count_decompositions(monkeypatch)
    dense = extract_dense(points, times)
    assert len(dense) > 1 and calls == [("eigh3", len(dense))]
    calls.clear()
    assert len(voxelize_sparse(points, times, [0.5, 1.0])) == 2
    assert calls == [("eigh3", 2)]
    calls.clear()
    sparse_map.fuse(again)
    assert calls == [("eigh3", 2)]
