import dataclasses
import logging
from types import SimpleNamespace

import numpy as np
import pytest

from surfelslam import fusion, lie
from surfelslam.errors import InvalidArgumentError
from surfelslam.simulation import oracles
from surfelslam.surfel_map import (BEAM_SIGMA, DenseSurfelMap, DenseSurfels, _entries,
                                   check_dense, cholesky3)

from conftest import (count_decompositions, dense_surfel, random_rotation, random_spd,
                      replaced, spd_stack)

from surfelslam.fusion import (
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
    SparseSurfels,
    eigh3,
    radius_join,
    voxelize_sparse,
)


def make_surfel(centroid, normal=(0.0, 0.0, 1.0), cov_scale=1e-6, scatter=None,
                dof=10.0, timestamp=0.0, obs_count=1, centroid_cov=None):
    normal = np.asarray(normal, dtype=float)
    normal = normal / np.linalg.norm(normal)
    if scatter is None:
        basis = np.linalg.svd(np.outer(normal, normal))[0]
        scatter = basis @ np.diag([1e-10, 1e-4, 1e-4]) @ basis.T * dof
        scatter = basis[:, ::-1] @ np.diag([1e-4, 1e-4, 1e-10]) @ basis[:, ::-1].T * dof
    return dense_surfel(
        centroid=np.asarray(centroid, dtype=float),
        normal=normal,
        centroid_cov=np.eye(3) * cov_scale if centroid_cov is None else centroid_cov,
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


def _match_cov(rng, kind, normal):
    """A centroid covariance: isotropic, a disc of variance up to 4e-4 m^2
    along the unit ``normal`` and two unequal ones up to 1e-2 m^2 across
    it, or of no particular shape."""
    if kind == "isotropic":
        return np.eye(3) * rng.uniform(1e-8, 4e-4)
    if kind == "disc":
        basis = np.linalg.qr(np.c_[normal, rng.normal(size=(3, 2))])[0]
        spectrum = [rng.uniform(1e-8, 4e-4), rng.uniform(1e-6, 1e-2), rng.uniform(1e-6, 1e-2)]
        return (basis * spectrum) @ basis.T
    return random_spd(rng, scale=rng.uniform(1e-8, 1e-4))


def test_match_equals_bruteforce(rng):
    # Isotropic covariances, whose trace is three times n^T C n, discs wide
    # across their normal, and covariances of no particular shape.
    for kind in ("isotropic", "disc", "random"):
        for _ in range(5):
            params = MatchParams(resolution_threshold=0.05, depth_threshold=3.0)
            stored = []
            for _ in range(500):
                normal = rng.normal(size=3)
                normal /= np.linalg.norm(normal)
                stored.append(make_surfel(rng.uniform(-1.0, 1.0, size=3), normal,
                                          centroid_cov=_match_cov(rng, kind, normal)))
            m, _ = mapped(stored)
            for _ in range(50):
                normal = rng.normal(size=3)
                normal /= np.linalg.norm(normal)
                src = make_surfel(rng.uniform(-1.0, 1.0, size=3), normal,
                                  centroid_cov=_match_cov(rng, kind, normal))
                fast = match_surfel(src, m, params)
                slow = oracles.match_surfels_exhaustive(
                    src, m.surfels, params.resolution_threshold, params.depth_threshold
                )
                assert fast == slow


def test_match_reaches_a_pair_at_both_gates_bounds():
    # Target 1 has the map's largest normal variance and a normal 0.9e-9
    # short of unit length, which the check allows.  A source within 1e-10
    # of theta_r of its normal line and of theta_d standard deviations of
    # its plane passes both gates, yet lies about 7e-10 (relative) beyond
    # sqrt(theta_r^2 + theta_d^2 V): the join's pad must reach it.  A source
    # 1e-9 past theta_d fails the depth gate.
    params = MatchParams()
    theta_r, theta_d = params.resolution_threshold, params.depth_threshold
    shrink = 1.0 - 0.9e-9
    m, _ = mapped([make_surfel([0.3, 0.0, 0.0], cov_scale=1e-5),
                   replaced(make_surfel([0.0, 0.0, 0.0], cov_scale=2e-4),
                            normal=np.array([0.0, 0.0, shrink]))])
    src_var = 1e-4
    sigma = np.sqrt(src_var + shrink**2 * 2e-4)
    for depth, found in ((1.0 - 1e-10, [1]), (1.0 + 1e-9, [])):
        offset = np.array([theta_r * (1.0 - 1e-10), 0.0, theta_d * sigma * depth / shrink])
        src = make_surfel(offset, cov_scale=src_var)
        assert match_surfel(src, m, params) == found
        assert oracles.match_surfels_exhaustive(src, m.surfels, theta_r, theta_d) == found
        assert np.linalg.norm(offset) > np.sqrt(theta_r**2 + theta_d**2 * sigma**2)


def test_match_join_radius_reads_only_the_normal_variances(monkeypatch):
    # A disc 1 m^2 wide across its normal but 1e-6 m^2 along it widens the
    # candidate join no more than its normal variance does.
    radii = []

    def recording(a, b, radius):
        radii.append(radius)
        return radius_join(a, b, radius)

    monkeypatch.setattr(fusion, "radius_join", recording)
    params = MatchParams()
    m, _ = mapped([make_surfel([0.0, 0.0, 0.0], centroid_cov=np.diag([1.0, 0.5, 1e-6])),
                   make_surfel([1.0, 0.0, 0.0], cov_scale=1e-7)])
    src = make_surfel([0.0, 0.0, 0.001], cov_scale=1e-6)
    assert match_surfel(src, m, params) == [0]
    bound = np.sqrt(params.resolution_threshold**2 + params.depth_threshold**2 * (1e-6 + 1e-6))
    assert radii == [pytest.approx(bound, rel=2e-6)]
    assert radii[0] >= bound


# -- Wishart fusion -----------------------------------------------------------


def test_fuse_surfel_hand_example():
    dst = dense_surfel(
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
        noise=np.eye(3), timestamp=0.0,
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
                             np.eye(3) * 1e-6, 0.0)
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
            0.0,
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
    surfel = dense_surfel(
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
            surfel, SurfelMeasurement(mean, scatter, n, noise, 0.0)
        )
    assert np.linalg.norm(surfel.centroid - true_mean) < 1e-3
    angle = np.arccos(np.clip(abs(surfel.normal @ true_normal), 0.0, 1.0))
    assert angle < 0.05


def test_a_row_view_is_a_single_surfel_for_every_reader(rng):
    # Single dense surfels are row views: of a batch, by index or iteration,
    # and of the dense map, by key.  Each one passes through
    # DenseSurfels.of, match_surfel, fuse_surfel and the exhaustive match as
    # its row does, and one that lacks a field is refused.
    m, _ = mapped([make_surfel([x, 0.0, 0.0], timestamp=x) for x in (0.0, 0.5, 1.0)])
    params = MatchParams()
    meas = SurfelMeasurement(np.array([0.5, 0.0, 1e-3]), random_spd(rng, scale=1e-5), 7,
                             1e-6 * np.eye(3), 2.0)
    stacked = SurfelMeasurement(meas.mean[None], meas.scatter[None], [meas.count],
                                meas.noise[None], [meas.timestamp])
    row = m.batch[[1]]
    fused_row = check_dense(*fusion.fuse_batch(row, stacked))
    for view in (m.batch[1], m.batch[np.int64(1)], list(m.batch)[1], m.get(1), m.surfels[1]):
        one = DenseSurfels.of([view])
        for f in dataclasses.fields(row):
            assert np.array_equal(getattr(one, f.name), getattr(row, f.name)), f.name
        assert match_surfel(view, m, params) == [1] == oracles.match_surfels_exhaustive(
            view, m.surfels, params.resolution_threshold, params.depth_threshold)
        fused = fuse_surfel(view, meas)
        assert list(vars(fused)) == list(vars(view))
        for f in dataclasses.fields(row):
            assert np.array_equal(getattr(fused, f.name), getattr(fused_row, f.name)[0]), f.name
        for name in vars(view):
            lacking = SimpleNamespace(**{k: v for k, v in vars(view).items() if k != name})
            for read in (lambda s: DenseSurfels.of([s]), lambda s: match_surfel(s, m, params),
                         lambda s: fuse_surfel(s, meas)):
                with pytest.raises(InvalidArgumentError, match="every field"):
                    read(lacking)


def test_fuse_surfel_requires_defined_extent():
    dst = make_surfel([0.0, 0.0, 0.0], dof=3.0)
    meas = SurfelMeasurement(np.zeros(3), np.zeros((3, 3)), 1, np.eye(3) * 1e-6, 0.0)
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


def _wishart_stacks(rng, n, cond, dof_above):
    """``n`` destinations and a stacked measurement for ``fuse_batch``: the
    scatters of both with condition number ``cond``, centroid covariances
    and noise above the beam floor, and dof from ``4 + dof_above`` (the
    first row's) up."""
    floor = BEAM_SIGMA**2 * np.eye(3)
    dof = 4.0 + dof_above + rng.uniform(0.0, 30.0, n)
    dof[:1] = 4.0 + dof_above
    dst = DenseSurfels(
        centroid=rng.normal(size=(n, 3)), normal=np.tile([0.0, 0.0, 1.0], (n, 1)),
        centroid_cov=spd_stack(rng, n, 1e2, 1e-4) + floor, scatter=spd_stack(rng, n, cond, 1e-2),
        dof=dof, obs_count=np.ones(n, dtype=np.int64), timestamp=rng.uniform(0.0, 1.0, n),
        radius=np.full(n, 0.02))
    meas = SurfelMeasurement(dst.centroid + rng.normal(scale=3e-3, size=(n, 3)),
                             spd_stack(rng, n, cond, 1e-2), rng.integers(1, 30, n).astype(float),
                             spd_stack(rng, n, 1e2, 1e-4) + floor, rng.uniform(0.0, 2.0, n))
    return dst, meas


def test_fuse_batch_matches_the_lapack_oracle(rng):
    # The closed form against LAPACK's stacked inverses, row by row: every
    # fused matrix and the clamps' eigenvalues within 1e-12 relative, or
    # 1e-15 sqrt(cond) where the scatters' condition number makes that
    # larger (the forward error of the extent's Cholesky factor grows so),
    # and each normal within that over its scatter's relative eigengap.
    # Counts and times are exact.  One-row and empty stacks too.
    for cond in (1e2, 1e6, 1e10):
        tol = max(1e-12, 1e-15 * np.sqrt(cond))
        for dof_above in (1e-3, 1.0):
            for n in (300, 1, 0):
                dst, meas = _wishart_stacks(rng, n, cond, dof_above)
                got, got_eigenvalues = fusion.fuse_batch(dst, meas)
                want, want_eigenvalues = oracles.fuse_batch_lapack(dst, meas)

                def close(a, b, sensitivity=1.0):
                    rows = tuple(range(1, b.ndim))
                    scale = np.abs(b).max(axis=rows, initial=0.0)
                    error = np.abs(a - b).max(axis=rows, initial=0.0)
                    return bool((error <= tol * sensitivity * scale).all())

                for f in ("centroid", "centroid_cov", "scatter"):
                    assert close(getattr(got, f), getattr(want, f)), (cond, dof_above, n, f)
                for f, w in want_eigenvalues.items():
                    assert close(got_eigenvalues[f], w), (cond, dof_above, n, f)
                w = want_eigenvalues["scatter"]
                gap = w[:, 2] / (w[:, 1] - w[:, 0])
                assert close(got.normal, want.normal, gap), (cond, dof_above, n)
                for f in ("dof", "obs_count", "timestamp", "radius"):
                    assert np.array_equal(getattr(got, f), getattr(want, f)), f


def test_only_a_failing_factorization_is_regularized(rng, caplog):
    # One singular Y (a flat extent and no noise) among healthy rows: that
    # row alone is factored with 1e-12 I added, and one warning, in the text
    # the benchmark's trace counts, names it.
    dst, meas = _wishart_stacks(rng, 5, 1e2, 1.0)
    extent = np.diag([1e-2, 1e-2, 0.0])
    dst.scatter[2] = extent * (dst.dof[2] - 4.0)
    meas.noise[2] = 0.0
    y = _entries(dst.scatter / (dst.dof - 4.0)[:, None, None] + meas.noise)[0]
    assert cholesky3(y)[2].tolist() == [False, False, True, False, False]
    factor, inverse = fusion._chol_or_regularize(y, "innovation scale Y")
    want_factor, want_inverse, _ = cholesky3(y)
    regularized = y[:, :, 2:3] + 1e-12 * np.eye(3)[:, :, None]
    want_factor[:, :, 2:3], want_inverse[:, :, 2:3], failed = cholesky3(regularized)
    assert not failed.any()
    assert np.array_equal(factor, want_factor) and np.array_equal(inverse, want_inverse)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="surfelslam.fusion"):
        fused, _ = fusion.fuse_batch(dst, meas)
    assert [r.getMessage() for r in caplog.records] == [
        "innovation scale Y singular during fusion; regularizing"]
    assert np.isfinite(fused.scatter).all() and np.isfinite(fused.centroid_cov).all()


def test_a_factorization_that_fails_regularized_raises_a_typed_error(rng, caplog):
    # An indefinite Y stays indefinite with 1e-12 I added: the typed
    # InvalidArgumentError names the matrix, after the one warning.
    dst, meas = _wishart_stacks(rng, 3, 1e2, 1.0)
    meas.noise[1] = -np.eye(3)
    with caplog.at_level(logging.WARNING, logger="surfelslam.fusion"):
        with pytest.raises(InvalidArgumentError, match="innovation scale Y"):
            fusion.fuse_batch(dst, meas)
    assert len(caplog.records) == 1


def test_named_blocks_factor_in_one_call_as_in_one_call_each(rng, caplog):
    # fuse_batch factors Y and S side by side in one cholesky3 call.  The
    # factors and inverses equal those of one call per block, the warnings
    # come block by block, Y's first, and a block that still fails raises
    # its own error once its warnings are out, before the next block's.
    names = ("innovation scale Y", "innovation covariance S")
    y, s = (_entries(spd_stack(rng, 4, 1e3, 1.0))[0] for _ in names)
    y[:, :, 1] = np.diag([1.0, 1.0, 0.0])
    s[:, :, [0, 3]] = np.diag([0.0, 1.0, 1.0])[:, :, None]
    warn_y, warn_s = (f"{name} singular during fusion; regularizing" for name in names)
    with caplog.at_level(logging.WARNING, logger="surfelslam.fusion"):
        factor, inverse = fusion._chol_or_regularize(np.concatenate([y, s], axis=-1), *names)
        separate = [fusion._chol_or_regularize(m, name) for m, name in zip((y, s), names)]
    assert np.array_equal(factor, np.concatenate([f for f, _ in separate], axis=-1))
    assert np.array_equal(inverse, np.concatenate([i for _, i in separate], axis=-1))
    assert [r.getMessage() for r in caplog.records] == [warn_y, warn_s, warn_s] * 2
    for blocks, name, warned in (((-y, s), names[0], [warn_y] * 4),
                                 ((y, -s), names[1], [warn_y] + [warn_s] * 4)):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="surfelslam.fusion"):
            with pytest.raises(InvalidArgumentError, match=name):
                fusion._chol_or_regularize(np.concatenate(blocks, axis=-1), *names)
        assert [r.getMessage() for r in caplog.records] == warned


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


def dense_local_maps(dense, timestamp):
    """Local maps of ``dense`` surfels alone, seen from the origin at
    ``timestamp``."""
    return LocalMaps(SparseSurfels.empty(), dense, sensor_origin=np.zeros(3),
                     timestamp=timestamp)


@pytest.mark.parametrize("args", [
    {"sensor_origin": [0.0, 0.0]}, {"sensor_origin": np.zeros((1, 3))},
    {"sensor_origin": [0.0, np.nan, 0.0]}, {"timestamp": np.nan}, {"timestamp": np.inf},
])
def test_local_maps_rejects_a_malformed_origin_or_timestamp(args):
    # A two-entry origin used to raise numpy's broadcast ValueError inside the
    # beam noise and a NaN one a LinAlgError; a NaN timestamp fused silently,
    # and an infinite one culled the map on the next step.
    args = {"sensor_origin": np.zeros(3), "timestamp": 0.0, **args}
    with pytest.raises(InvalidArgumentError):
        LocalMaps(SparseSurfels.empty(), [make_surfel([0.0, 0.0, 0.0])], **args)


def test_local_maps_needs_its_origin_and_timestamp():
    # A local map without a timestamp used to read it from its dense
    # surfels, 0.0 when it had none: every stored surfel then counted as
    # active, so no ICP ran and nothing was culled.  One without a sensor
    # origin took the beam noise from the world origin.
    with pytest.raises(TypeError):
        LocalMaps(SparseSurfels.empty(), [make_surfel([0.0, 0.0, 0.0])])
    with pytest.raises(TypeError):
        LocalMaps(SparseSurfels.empty(), [], sensor_origin=np.zeros(3))
    with pytest.raises(TypeError):
        LocalMaps(SparseSurfels.empty(), [], timestamp=1.0)


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
    assert not r1.metrics.triggered


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


@pytest.mark.parametrize("seed", range(20))
def test_temporal_fusion_shifted_inactive_triggers(seed):
    # Twenty draws of the scene and of the 80% seen: a recovered shift that
    # holds at one draw only is not recovered.
    rng = np.random.default_rng(seed)
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
    assert r.metrics.triggered and r.icp.converged
    c = r.icp.pairs[0].mean(axis=0)
    assert r.metrics.icp_dist == np.linalg.norm(r.icp.rotation @ c + r.icp.translation - c)
    assert abs(r.icp.translation[0] - 0.2) < 0.01
    assert np.linalg.norm(r.icp.translation[1:]) < 0.01
    assert np.linalg.norm(r.icp.rotation - np.eye(3)) < 0.02


@pytest.mark.parametrize("seed", range(3))
def test_temporal_fusion_measures_the_misalignment_at_the_overlap(seed):
    # A drift-free corner re-seen with fresh 3 mm noise: the ICP turns it a
    # little about the overlap, and |t| about the world origin grows with the
    # corner's distance from it (2-25 mm at 50 m).  The overlap's own shift
    # does not.  A 0.2 m shift triggers wherever the corner lies.
    cfg = TemporalFusionConfig(active_window=30.0)
    for place in (0.0, 20.0, 50.0):
        for shift, triggers in ((0.0, False), (0.2, True)):
            rng = np.random.default_rng(seed)
            base = corner_scene_points(rng, n=4500) + rng.normal(scale=0.003, size=(4500, 3))
            base += [place, 0.0, 0.0]
            global_maps = GlobalMaps()
            temporal_fusion_step(make_local_maps(rng, base, timestamp=0.0), global_maps, cfg)
            seen = base[rng.uniform(size=len(base)) < 0.8] - [shift, 0.0, 0.0]
            r = temporal_fusion_step(make_local_maps(rng, seen, timestamp=100.0), global_maps,
                                     cfg, step=1)
            assert r.icp.converged and r.metrics.triggered == triggers
            if triggers:
                assert abs(r.metrics.icp_dist - shift) < 0.02
            else:
                assert r.metrics.icp_dist < 0.005


def test_temporal_fusion_reports_no_distance_without_a_converged_icp(rng, caplog):
    # The first step has no inactive map, so the ICP does not run.  The
    # second lies 50 m from the inactive map: the ICP runs, forms fewer than
    # six pairs and does not converge.  Neither step measures a misalignment,
    # and neither triggers.
    cfg = TemporalFusionConfig(active_window=30.0)
    global_maps = GlobalMaps()
    first = make_local_maps(rng, corner_scene_points(rng), timestamp=0.0)
    r0 = temporal_fusion_step(first, global_maps, cfg, step=0)
    assert np.isnan(r0.metrics.icp_dist) and not r0.metrics.triggered and r0.icp is None
    far = make_local_maps(rng, corner_scene_points(rng, shift=np.array([50.0, 0.0, 0.0])),
                          timestamp=100.0)
    assert len(far.sparse) >= fusion.ICP_MIN_SURFELS
    assert len(global_maps.sparse.all()) >= fusion.ICP_MIN_SURFELS
    with caplog.at_level(logging.INFO, logger="surfelslam.fusion"):
        r1 = temporal_fusion_step(far, global_maps, cfg, step=1)
    assert "ICP did not converge" in caplog.text
    assert r1.icp.report.reason == "too_few_pairs" and not r1.icp.converged
    assert np.isnan(r1.metrics.icp_dist) and r1.metrics.icp_inlier == 0.0
    assert not r1.metrics.triggered


def test_icp_out_of_iterations_is_not_converged(rng, monkeypatch):
    # A 0.2 m shift takes more than one association round.  Allowed one,
    # the ICP ends with its pairs still changing: it has not converged, so
    # the fusion step measures no misalignment and raises no trigger.
    cfg = TemporalFusionConfig(active_window=30.0)
    global_maps = GlobalMaps()
    base = corner_scene_points(rng, n=4500)
    temporal_fusion_step(make_local_maps(rng, base, timestamp=0.0), global_maps, cfg, step=0)
    local = make_local_maps(rng, base - np.array([0.2, 0.0, 0.0]), timestamp=100.0)
    inactive = global_maps.sparse.all()
    assert icp_point_to_plane(local.sparse, inactive).converged
    monkeypatch.setattr(fusion, "ICP_MAX_ITERATIONS", 1)
    icp = icp_point_to_plane(local.sparse, inactive)
    assert not icp.converged and [p.shape for p in icp.pairs] == [(0, 3), (0, 3)]
    assert icp.report.reason == "max_rounds"
    r = temporal_fusion_step(local, global_maps, cfg, step=1)
    assert not r.metrics.triggered and np.isnan(r.metrics.icp_dist)


def test_temporal_fusion_matches_against_the_active_map_before_the_step():
    # Both local surfels pass the gates against the active surfel as it
    # stood before the step: the one at z = 0.02 lies two standard
    # deviations off its plane.  Fusing the first shrinks the active
    # surfel's centroid covariance far enough that the second would fail
    # against the updated state; it still fuses, into that updated state.
    global_maps = GlobalMaps()
    _, (key,) = mapped([make_surfel([0.0, 0.0, 0.0], cov_scale=1e-4)], global_maps.dense)
    local = [make_surfel([0.0, 0.0, z], cov_scale=1e-8, timestamp=1.0) for z in (0.0, 0.02)]
    r = temporal_fusion_step(dense_local_maps(local, 1.0), global_maps)
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
    temporal_fusion_step(dense_local_maps(local[:1], 1.0), global_maps)
    assert [m.get(k).obs_count for k in range(3)] == [1, 1, 2]
    temporal_fusion_step(dense_local_maps(local[1:], 1.0), global_maps)
    assert [m.get(k).obs_count for k in range(3)] == [2, 1, 2]


@pytest.mark.parametrize("gap_threshold, reactivated", [(20, [0]), (1, [])])
def test_temporal_fusion_reactivates_overlapping_inactive_surfels(gap_threshold, reactivated,
                                                                  monkeypatch):
    # theta_r = 0.25 and a dyadic lattice make every distance exact.  Inactive
    # surfel 0 has active ones at exactly theta_r and at 2 theta_r (it
    # overlaps), surfel 1 its nearest active one at 1.5 theta_r (a gap),
    # surfel 2 no active one within 3 theta_r, and surfels 3 and 4 only each
    # other.  Overlapping surfels come back unless gap_threshold or more gaps
    # remain.
    monkeypatch.setattr(fusion, "CULL_AGE", 1e9)
    monkeypatch.setattr(fusion, "GAP_THRESHOLD", gap_threshold)
    cfg = TemporalFusionConfig(active_window=30.0, match=MatchParams(resolution_threshold=0.25))
    global_maps = GlobalMaps()
    inactive = [(0.0, 0.0, 0.0), (5.0, 0.0, 0.0), (10.0, 0.0, 0.0),
                (15.0, 0.0, 0.0), (15.125, 0.0, 0.0)]
    active = [(0.25, 0.0, 0.0), (0.0, -0.5, 0.0), (5.0, 0.375, 0.0)]
    mapped([make_surfel(c, timestamp=0.0) for c in inactive]
           + [make_surfel(c, timestamp=90.0) for c in active], global_maps.dense)
    r = temporal_fusion_step(dense_local_maps([], 100.0), global_maps, cfg)
    now = [k for k in range(len(inactive)) if global_maps.dense.get(k).timestamp == 100.0]
    assert now == reactivated
    assert r.metrics.n_inactive == len(inactive) - len(reactivated)
    assert r.metrics.n_active == len(active) + len(reactivated)
    assert not r.metrics.triggered


def test_temporal_fusion_keeps_the_row_order(monkeypatch):
    # One step fuses into row 2, wakes row 0 (its active neighbour, row 5,
    # lies within theta_r), culls rows 1 and 4 (old, seen once) and inserts
    # two new surfels.  The next map holds the survivors in their old order,
    # with the fused and woken rows updated in place, then the new surfels
    # in input order.
    monkeypatch.setattr(fusion, "CULL_AGE", 60.0)
    cfg = TemporalFusionConfig(active_window=30.0)
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
    r = temporal_fusion_step(dense_local_maps(local, 100.0), global_maps, cfg)
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


def test_icp_recovers_synthetic_rotation_and_shift(rng):
    # The destination is the source turned by 4 degrees about a tilted axis
    # and moved by about 0.1 m.  The voxel centroids of the turned scene are
    # not the turned centroids, so the transform is recovered to within a
    # fraction of a degree and a centimetre.
    pts = corner_scene_points(rng)
    axis = np.array([1.0, -2.0, 3.0]) / np.sqrt(14.0)
    rotation = lie.so3_exp_batch(np.radians(4.0) * axis[None])[0]
    shift = np.array([0.08, -0.05, 0.04])
    src = voxelize_sparse((pts - shift) @ rotation, np.zeros(len(pts)), [0.5])
    dst = voxelize_sparse(pts, np.zeros(len(pts)), [0.5])
    out = icp_point_to_plane(src, dst)
    assert out.converged
    error = lie.so3_log_batch((out.rotation.T @ rotation)[None])[0]
    assert np.degrees(np.linalg.norm(error)) < 0.5
    assert np.allclose(out.translation, shift, atol=0.01)
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


def test_icp_reports_its_rounds_as_plane_records(rng):
    # Each round restarts the driver's records at iteration 0; a record
    # holds the RMS plane distance, in meters, in rms_prior and nothing in
    # the window's other families.  The rounds anneal one Cauchy scale, so
    # the cost never rises within a round.
    pts = corner_scene_points(rng)
    src = voxelize_sparse(pts - np.array([0.15, 0.05, 0.0]), np.zeros(len(pts)), [0.5])
    dst = voxelize_sparse(pts, np.zeros(len(pts)), [0.5])
    out = icp_point_to_plane(src, dst)
    records = out.report.records
    assert out.converged and out.report.reason in fusion.ICP_CONVERGED
    assert records[0].iteration == 0 and [r.iteration for r in records].count(0) >= 2
    assert all(r.rms_accel == r.rms_gyro == 0.0 for r in records)
    assert records[0].rms_prior > 0.01 > records[-1].rms_prior
    for a, b in zip(records, records[1:]):
        assert b.iteration == 0 or b.cost <= a.cost


def test_icp_on_an_exactly_planar_overlap_is_not_converged():
    # Noise-free points of one plane leave two translations and a rotation
    # free: the driver's rank check finds them, the ICP ends unconverged with
    # that reason instead of reporting an arbitrary shift, and the fusion
    # step measures no misalignment and raises no trigger.
    rng = np.random.default_rng(0)
    pts = np.column_stack([rng.uniform(0.0, 3.0, size=(3000, 2)), np.zeros(3000)])
    shift = np.array([0.1, 0.05, 0.02])
    src = voxelize_sparse(pts - shift, np.zeros(len(pts)), [0.5])
    dst = voxelize_sparse(pts, np.zeros(len(pts)), [0.5])
    icp = icp_point_to_plane(src, dst)
    assert not icp.converged and icp.report.reason == "rank_deficient"
    assert [p.shape for p in icp.pairs] == [(0, 3), (0, 3)]
    cfg = TemporalFusionConfig(active_window=30.0)
    global_maps = GlobalMaps()
    temporal_fusion_step(make_local_maps(rng, pts, timestamp=0.0), global_maps, cfg, step=0)
    r = temporal_fusion_step(make_local_maps(rng, pts - shift, timestamp=100.0), global_maps,
                             cfg, step=1)
    assert r.icp.report.reason == "rank_deficient"
    assert not r.metrics.triggered and np.isnan(r.metrics.icp_dist)


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
    # measure; before the ICP froze its weak directions it reported
    # arbitrary shifts of 0.07-0.19 m with every pair an inlier, and without
    # the degeneracy gate it triggered at three of these four seeds.
    cfg = TemporalFusionConfig(active_window=30.0)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        global_maps = GlobalMaps()
        base = floor_ceiling_wall_points(rng)
        temporal_fusion_step(make_local_maps(rng, base, timestamp=0.0), global_maps, cfg, step=0)
        inactive = global_maps.sparse.all()
        subset = base[rng.uniform(size=len(base)) < 0.8]
        local = make_local_maps(rng, subset - np.array([0.0, 0.3, 0.0]), timestamp=100.0)
        icp = icp_point_to_plane(local.sparse, inactive)
        assert icp.converged and icp.inlier_fraction > 0.9
        assert icp.normal_eigen_ratio < fusion.MIN_NORMAL_EIGEN_RATIO
        r = temporal_fusion_step(local, global_maps, cfg, step=1)
        assert not r.metrics.triggered
    corner = corner_scene_points(np.random.default_rng(0))
    src = voxelize_sparse(corner - np.array([0.15, 0.05, 0.0]), np.zeros(len(corner)), [0.5])
    dst = voxelize_sparse(corner, np.zeros(len(corner)), [0.5])
    assert icp_point_to_plane(src, dst).normal_eigen_ratio > 0.1


def test_icp_freezes_the_shift_along_the_wall():
    # Nothing constrains a shift along the wall, so the ICP freezes that
    # direction and stays where it started; before the freeze it slid
    # 0.005-0.18 m along the wall.  The frozen direction is the move of the
    # paired sources' mean: the observed turns are about that mean, so the
    # world origin moves by their lever arm, about 1 mm here.
    for seed in range(4):
        rng = np.random.default_rng(seed)
        global_maps = GlobalMaps()
        base = floor_ceiling_wall_points(rng)
        temporal_fusion_step(make_local_maps(rng, base, timestamp=0.0), global_maps,
                             TemporalFusionConfig(active_window=30.0), step=0)
        subset = base[rng.uniform(size=len(base)) < 0.8]
        local = make_local_maps(rng, subset - np.array([0.0, 0.3, 0.0]), timestamp=100.0)
        icp = icp_point_to_plane(local.sparse, global_maps.sparse.all())
        assert icp.converged and icp.frozen_dim >= 1
        mean = icp.pairs[0].mean(axis=0)
        shift = icp.rotation @ mean + icp.translation - mean
        assert abs(shift[1]) < 1e-3
        assert np.linalg.norm(icp.translation) < fusion.DISTANCE_THRESHOLD


@pytest.mark.parametrize("scene, shift, frozen_dim", [
    (floor_ceiling_wall_points, [0.0, 0.3, 0.0], 1), (corner_scene_points, [0.15, 0.05, 0.0], 0),
], ids=["wall", "corner"])
def test_icp_freezes_the_same_directions_at_any_scale_and_place(scene, shift, frozen_dim):
    # The ICP steps about the overlap's own centre and compares turns and
    # moves without units: the scene scaled by 10 (and its voxels with it)
    # or moved 50 m, 1.2 km or 10 km from the origin freezes what it froze,
    # one direction along the wall and none in the corner.  Moved, it also
    # stops for the same reason and moves the overlap as it did, to within
    # 1e-9 m; stepping about the world origin, it ended "rank_deficient"
    # from 1.2 km on.  The pairing radius is fixed in meters, so the shift is
    # not scaled.
    pts = scene(np.random.default_rng(0))
    runs = {}
    for scale, offset in ((1.0, 0.0), (10.0, 0.0), (1.0, 50.0), (1.0, 1.2e3), (1.0, 1e4)):
        moved = scale * pts + offset
        src = voxelize_sparse(moved - shift, np.zeros(len(pts)), [0.5 * scale])
        dst = voxelize_sparse(moved, np.zeros(len(pts)), [0.5 * scale])
        runs[scale, offset] = icp_point_to_plane(src, dst)
    assert [icp.frozen_dim for icp in runs.values()] == [frozen_dim] * len(runs)
    assert all(icp.converged for icp in runs.values())

    def overlap_move(icp):
        mean = icp.pairs[0].mean(axis=0)
        return icp.rotation @ mean + icp.translation - mean

    at_origin = runs.pop((1.0, 0.0))
    for (scale, _), icp in runs.items():
        if scale == 1.0:
            assert icp.report.reason == at_origin.report.reason
            assert np.abs(overlap_move(icp) - overlap_move(at_origin)).max() < 1e-9


def test_icp_ends_a_cycle_of_pairings_unconverged(rng, monkeypatch, caplog):
    # The pairings alternate between all the pairs and all but the last:
    # round 2 pairs as round 0 did, so the ICP ends there, unconverged, after
    # solving rounds 0 and 1, and the fusion step raises no trigger.
    pts = corner_scene_points(rng)
    src = voxelize_sparse(pts - np.array([0.15, 0.05, 0.0]), np.zeros(len(pts)), [0.5])
    dst = voxelize_sparse(pts, np.zeros(len(pts)), [0.5])
    associate_at, first, calls = fusion._associate, [], []

    def alternating(rotation, translation, src_pts, *rest):
        if not calls:
            first[:] = associate_at(rotation, translation, src_pts, *rest)[1:]
        i, j = (pairs[: len(pairs) - len(calls) % 2] for pairs in first)
        calls.append(len(i))
        return src_pts[i] @ rotation.T + translation, i, j

    monkeypatch.setattr(fusion, "_associate", alternating)
    icp = icp_point_to_plane(src, dst)
    assert icp.report.reason == "cycle" and not icp.converged
    assert len(calls) == 3 and [r.iteration for r in icp.report.records].count(0) == 2
    assert [p.shape for p in icp.pairs] == [(0, 3), (0, 3)]
    cfg = TemporalFusionConfig(active_window=30.0)
    global_maps = GlobalMaps()
    temporal_fusion_step(make_local_maps(rng, pts, timestamp=0.0), global_maps, cfg, step=0)
    local = make_local_maps(rng, pts - np.array([0.15, 0.05, 0.0]), timestamp=100.0)
    calls.clear()
    with caplog.at_level(logging.INFO, logger="surfelslam.fusion"):
        r = temporal_fusion_step(local, global_maps, cfg, step=1)
    assert r.icp.report.reason == "cycle" and "ICP did not converge" in caplog.text
    assert not r.metrics.triggered and np.isnan(r.metrics.icp_dist)


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


def test_sparse_surfels_are_refused_unless_a_batch(rng):
    # The ICP, a local map and the sparse fuse take sparse surfels as one
    # SparseSurfels batch only: a list of its rows, the rows' fields as a
    # dict or a dense batch is refused, and the sparse map stays as it was.
    pts = corner_scene_points(rng)
    src = voxelize_sparse(pts - np.array([0.15, 0.05, 0.0]), np.zeros(len(pts)), [0.5])
    dst = voxelize_sparse(pts, np.zeros(len(pts)), [0.5])
    assert icp_point_to_plane(src, dst).converged
    dense = DenseSurfels.of([make_surfel([0.0, 0.0, 0.0])])
    sparse_map = SparseSurfelMap()
    sparse_map.fuse(dst)
    stored = sparse_map.all()
    for other in (list(src), [], {f: getattr(src, f) for f in src._LAYOUT}, dense):
        with pytest.raises(InvalidArgumentError, match="SparseSurfels batch"):
            icp_point_to_plane(other, dst)
        with pytest.raises(InvalidArgumentError, match="SparseSurfels batch"):
            icp_point_to_plane(src, other)
        with pytest.raises(InvalidArgumentError, match="SparseSurfels batch"):
            LocalMaps(other, dense, sensor_origin=np.zeros(3), timestamp=0.0)
        with pytest.raises(InvalidArgumentError, match="SparseSurfels batch"):
            sparse_map.fuse(other)
        assert sparse_map.all() is stored


def test_an_icp_that_stops_before_its_first_round_has_no_final_cost():
    # Two 2x2 m planes 5 m apart: no source centroid has a destination
    # within MAX_PAIR_DISTANCE, so the ICP stops before its first round,
    # with no records, and its final cost is NaN.
    u, v = np.meshgrid(np.linspace(0.0, 2.0, 41), np.linspace(0.0, 2.0, 41))
    plane = np.column_stack([u.ravel(), v.ravel(), np.zeros(u.size)])
    src = voxelize_sparse(plane, np.zeros(len(plane)), [0.5])
    dst = voxelize_sparse(plane + [0.0, 0.0, 5.0], np.zeros(len(plane)), [0.5])
    icp = icp_point_to_plane(src, dst)
    assert not icp.converged and icp.report.reason == "too_few_pairs"
    assert icp.report.records == [] and np.isnan(icp.report.final_cost)
