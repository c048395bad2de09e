import numpy as np
import pytest

from surfelslam import lie
from surfelslam.errors import InvalidArgumentError, MissingSupportError, OutOfRangeError
from surfelslam.simulation.oracles import apply_correction, correction_batch
from surfelslam.trajectory import ControlGrid, Trajectory, spline_weights


def make_trajectory(rng, n=101, rate=100.0, rot_scale=0.2, t_scale=0.5):
    times = np.arange(n) / rate
    rotvecs = np.cumsum(rng.normal(scale=rot_scale / n, size=(n, 3)), axis=0)
    translations = np.cumsum(rng.normal(scale=t_scale / n, size=(n, 3)), axis=0)
    return Trajectory(times, lie.so3_exp_batch(rotvecs), translations, rate)


def test_sample_at_knot_returns_stored_pose(rng):
    traj = make_trajectory(rng)
    pose = traj.sample(traj.times[17])
    assert np.allclose(pose.rotation, traj.rotations[17])
    assert np.allclose(pose.translation, traj.translations[17])


# Sampling blends neighbouring poses along the SE(3) geodesic ("se3").
@pytest.mark.parametrize((), [pytest.param(id="se3")])
def test_exact_sample_queries_copy_stored_pose(rng):
    traj = make_trajectory(rng)
    picks = np.array([0, 17, 18, len(traj) - 1])
    rot, t = traj.sample_batch(traj.times[picks] + 1e-13)
    assert np.array_equal(rot, traj.rotations[picks])
    assert np.array_equal(t, traj.translations[picks])


def test_two_sample_translation():
    traj = Trajectory(
        np.array([0.0, 1.0]),
        np.stack([np.eye(3), np.eye(3)]),
        np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        nominal_rate=1.0,
    )
    pose = traj.sample(0.25)
    assert np.allclose(pose.translation, [0.25, 0.0, 0.0], atol=1e-12)


def test_sample_lies_on_geodesic(rng):
    traj = make_trajectory(rng)
    for _ in range(50):
        k = rng.integers(0, len(traj) - 1)
        alpha = rng.uniform(0.05, 0.95)
        tau = traj.times[k] + alpha * (traj.times[k + 1] - traj.times[k])
        sample = traj.sample(tau)
        pose_k = traj.pose(k)
        rel_full = lie.se3_log(pose_k.inverse() @ traj.pose(k + 1))
        rel_part = lie.se3_log(pose_k.inverse() @ sample)
        assert np.linalg.norm(rel_part - alpha * rel_full) < 1e-9


def test_sample_out_of_range(rng):
    traj = make_trajectory(rng)
    with pytest.raises(OutOfRangeError):
        traj.sample(traj.end + 0.5)


def test_rejects_non_increasing_times():
    times = np.array([0.0, 0.01, 0.01])
    eye = np.stack([np.eye(3)] * 3)
    with pytest.raises(InvalidArgumentError):
        Trajectory(times, eye, np.zeros((3, 3)))


def test_rejects_irregular_spacing():
    times = np.array([0.0, 0.01, 0.025])
    eye = np.stack([np.eye(3)] * 3)
    with pytest.raises(InvalidArgumentError):
        Trajectory(times, eye, np.zeros((3, 3)))


def test_partition_of_unity(rng):
    u = rng.uniform(0.0, 1.0, size=1000)
    w = spline_weights(u)
    assert np.max(np.abs(w.sum(axis=1) - 1.0)) < 1e-15


def test_spline_weights_at_zero():
    w = spline_weights(0.0)
    assert np.allclose(w, [1.0 / 6.0, 4.0 / 6.0, 1.0 / 6.0, 0.0], atol=1e-15)


def test_zero_grid_identity_correction(rng):
    grid = ControlGrid.zeros(0.0, 1.0, 0.1)
    rot, t = correction_batch(grid, rng.uniform(0.0, 1.0, size=20))
    assert np.allclose(rot, np.eye(3))
    assert np.allclose(t, 0.0)


def test_constant_translation_controls(rng):
    grid = ControlGrid.zeros(0.0, 1.0, 0.1)
    grid.c_t[:] = np.array([0.1, 0.0, 0.0])
    rot, t = correction_batch(grid, rng.uniform(0.0, 1.0, size=20))
    assert np.allclose(t, [0.1, 0.0, 0.0], atol=1e-14)
    assert np.allclose(rot, np.eye(3))


def test_single_knot_weight():
    # One nonzero knot k evaluated at the segment start: weight must be 4/6.
    grid = ControlGrid.zeros(0.0, 1.0, 0.1)
    k = 5
    grid.c_t[k] = np.array([1.0, 0.0, 0.0])
    _, t = correction_batch(grid, grid.times[[k]])
    assert np.allclose(t[0], [4.0 / 6.0, 0.0, 0.0], atol=1e-14)


def test_correction_outside_support():
    grid = ControlGrid.zeros(0.0, 1.0, 0.1)
    with pytest.raises(MissingSupportError):
        correction_batch(grid, [1.5])


def test_correction_is_c2_continuous(rng):
    # One-sided 4-point stencils are exact for the cubic segments, so any
    # residual disagreement measures the derivative jump at the boundary.
    grid = ControlGrid.zeros(0.0, 2.0, 0.2)
    grid.c_t[:] = rng.normal(scale=0.1, size=grid.c_t.shape)
    grid.c_r[:] = rng.normal(scale=0.05, size=grid.c_r.shape)
    h = 1e-3
    for boundary in grid.times[2:-2]:
        for which in ("t", "r"):

            def value(tau):
                idx, w = grid.knot_indices_and_weights(np.array([tau]))
                c = grid.c_t if which == "t" else grid.c_r
                return (w[0][:, None] * c[idx[0]]).sum(axis=0)

            def one_sided(sign):
                f = [value(boundary + sign * k * h) for k in range(4)]
                d1 = sign * (11 * f[0] - 18 * f[1] + 9 * f[2] - 2 * f[3]) / (6 * h)
                d2 = (2 * f[0] - 5 * f[1] + 4 * f[2] - f[3]) / h**2
                return d1, d2

            d1_left, d2_left = one_sided(-1.0)
            d1_right, d2_right = one_sided(1.0)
            for left, right in ((d1_left, d1_right), (d2_left, d2_right)):
                scale = max(np.max(np.abs(left)), np.max(np.abs(right)), 1e-9)
                assert np.max(np.abs(left - right)) / scale < 1e-6


def test_apply_correction_zero_grid(rng):
    traj = make_trajectory(rng)
    grid = ControlGrid.zeros(-0.1, traj.end + 0.1, 0.1)
    out = apply_correction(traj, grid)
    assert np.allclose(out.rotations, traj.rotations)
    assert np.allclose(out.translations, traj.translations)


def test_apply_correction_constant_translation(rng):
    n = 101
    times = np.arange(n) / 100.0
    eye = np.stack([np.eye(3)] * n)
    traj = Trajectory(times, eye, np.zeros((n, 3)))
    grid = ControlGrid.zeros(-0.1, 1.1, 0.1)
    grid.c_t[:] = np.array([0.05, 0.0, 0.0])
    out = apply_correction(traj, grid)
    assert np.allclose(out.translations, np.array([0.05, 0.0, 0.0]), atol=1e-14)


def test_apply_correction_matches_pointwise_composition(rng):
    traj = make_trajectory(rng)
    grid = ControlGrid.zeros(-0.1, traj.end + 0.1, 0.1)
    grid.c_t[:] = rng.normal(scale=0.05, size=grid.c_t.shape)
    grid.c_r[:] = rng.normal(scale=0.02, size=grid.c_r.shape)
    out = apply_correction(traj, grid)
    picks = rng.integers(0, len(traj), size=25)
    rot_c, t_c = correction_batch(grid, traj.times[picks])
    for k, rot, t in zip(picks, rot_c, t_c):
        expected = lie.Pose(rot, t) @ traj.pose(k)
        assert np.linalg.norm(out.pose(k).matrix() - expected.matrix()) < 1e-9


def test_apply_correction_missing_support(rng):
    traj = make_trajectory(rng)
    grid = ControlGrid.zeros(0.2, 0.6, 0.1)
    with pytest.raises(MissingSupportError) as err:
        apply_correction(traj, grid)
    assert len(err.value.timestamps) > 0


def test_csv_round_trip(tmp_path, rng):
    traj = make_trajectory(rng)
    path = tmp_path / "traj.csv"
    traj.write_csv(path)
    assert path.read_text().splitlines()[0] == "t,tx,ty,tz,rx,ry,rz"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (len(traj), 7)
    # Every value is written with repr, so it parses back exactly.
    assert np.array_equal(data[:, 0], traj.times)
    assert np.array_equal(data[:, 1:4], traj.translations)
    assert np.array_equal(data[:, 4:7], lie.so3_log_batch(traj.rotations))
    assert np.allclose(lie.so3_exp_batch(data[:, 4:7]), traj.rotations, atol=1e-12)
