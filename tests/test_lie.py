import math

import numpy as np
import pytest

from surfelslam import lie
from surfelslam.errors import AmbiguousLogarithmError, InvalidArgumentError
from surfelslam.simulation import oracles

from conftest import random_pose

# 0, 1e-9 and both sides of each SO(3) series switch.
SWITCH_ANGLES = [0.0, 1e-9] + [
    a * f for a in (lie.SMALL_ANGLE, lie.SERIES_ANGLE) for f in (1.0 - 1e-9, 1.0, 1.0 + 1e-9)
]


def test_exp_zero_twist_is_identity():
    pose = lie.se3_exp(np.zeros(6))
    assert np.allclose(pose.rotation, np.eye(3))
    assert np.allclose(pose.translation, 0.0)


def test_exp_pure_translation():
    pose = lie.se3_exp(np.array([0.0, 0.0, 0.0, 1.0, 2.0, 3.0]))
    assert np.allclose(pose.rotation, np.eye(3))
    assert np.allclose(pose.translation, [1.0, 2.0, 3.0])


def test_exp_matches_series_oracle():
    xi = np.array([np.pi / 2, 0.0, 0.0, 0.0, 0.0, 0.0])
    expected = oracles.se3_exp_series(xi, terms=20)
    pose = lie.se3_exp(xi)
    assert np.allclose(pose.matrix(), expected, atol=1e-12)
    # 90 degrees about x.
    assert np.allclose(pose.rotation @ np.array([0.0, 1.0, 0.0]), [0.0, 0.0, 1.0])


def test_exp_matches_series_oracle_random(rng):
    for _ in range(50):
        xi = rng.normal(scale=0.4, size=6)
        assert np.allclose(
            lie.se3_exp(xi).matrix(), oracles.se3_exp_series(xi), atol=1e-12
        )


def test_exp_rejects_non_finite():
    with pytest.raises(InvalidArgumentError):
        lie.se3_exp(np.array([np.nan, 0, 0, 0, 0, 0]))


def test_log_identity_is_zero():
    assert np.allclose(lie.se3_log(lie.Pose.identity()), 0.0)


def test_log_pure_translation():
    xi = lie.se3_log(lie.Pose(np.eye(3), np.array([0.5, -1.0, 2.0])))
    assert np.allclose(xi[:3], 0.0)
    assert np.allclose(xi[3:], [0.5, -1.0, 2.0])


def test_exp_log_round_trip_1000(rng):
    worst = 0.0
    for _ in range(1000):
        direction = rng.normal(size=6)
        direction[:3] *= rng.uniform(0.0, 3.0) / max(np.linalg.norm(direction[:3]), 1e-12)
        xi = direction
        back = lie.se3_log(lie.se3_exp(xi))
        worst = max(worst, np.max(np.abs(back - xi)))
    assert worst < 1e-9


def test_round_trip_near_pi(rng):
    for _ in range(100):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        xi = np.concatenate([axis * (np.pi - 1e-3), rng.normal(size=3)])
        pose = lie.se3_exp(xi)
        again = lie.se3_exp(lie.se3_log(pose))
        assert np.linalg.norm(again.matrix() - pose.matrix()) < 1e-9


def test_log_rejects_angle_at_pi():
    pose = lie.Pose(lie.so3_exp(np.array([np.pi - 1e-9, 0.0, 0.0])), np.zeros(3))
    with pytest.raises(AmbiguousLogarithmError):
        lie.se3_log(pose)


def test_left_jacobian_inv_identity_at_zero():
    assert np.allclose(lie.se3_left_jacobian_inv_batch(np.zeros((1, 6)))[0], np.eye(6))


def test_left_jacobian_composition_defect(rng):
    xi = rng.normal(scale=0.8, size=(50, 6))
    small = rng.normal(size=(50, 6))
    small *= (1e-4 / np.linalg.norm(small, axis=1))[:, None]
    moved = (lie.se3_left_jacobian_inv_batch(xi) @ small[:, :, None])[:, :, 0] + xi
    for i in range(50):
        lhs = lie.se3_exp(moved[i])
        rhs = lie.se3_exp(small[i]) @ lie.se3_exp(xi[i])
        assert np.linalg.norm(lhs.matrix() - rhs.matrix()) < 1e-7


def test_left_jacobian_inverse_against_numeric(rng):
    for scale in (1e-6, 0.01, 0.5, 1.5):
        xi = rng.normal(size=(10, 6))
        xi *= (scale / np.linalg.norm(xi, axis=1))[:, None]
        jl_inv = lie.se3_left_jacobian_inv_batch(xi)
        for i in range(10):
            product = jl_inv[i] @ oracles.numeric_left_jacobian(xi[i])
            assert np.linalg.norm(product - np.eye(6)) < 1e-9


def test_left_jacobian_pair_is_inverse(rng):
    xi = rng.normal(scale=1.0, size=(20, 6))
    product = lie.se3_left_jacobian_inv_batch(xi) @ lie.se3_left_jacobian_batch(xi)
    assert np.max(np.linalg.norm(product - np.eye(6), axis=(1, 2))) < 1e-12


def interp(poses_a, poses_b, alphas):
    """``lie.se3_interp_batch`` over lists of poses, as a list of poses."""
    rot, t = lie.se3_interp_batch(
        np.stack([p.rotation for p in poses_a]),
        np.stack([p.translation for p in poses_a]),
        np.stack([p.rotation for p in poses_b]),
        np.stack([p.translation for p in poses_b]),
        np.asarray(alphas, dtype=float),
    )
    return [lie.Pose(r, v) for r, v in zip(rot, t)]


def test_interp_endpoints(rng):
    a, b = random_pose(rng), random_pose(rng)
    start, end = interp([a, a], [b, b], [0.0, 1.0])
    assert np.allclose(start.matrix(), a.matrix())
    assert np.allclose(end.matrix(), b.matrix())


def test_interp_translation_midpoint():
    a = lie.Pose.identity()
    b = lie.Pose(np.eye(3), np.array([2.0, 0.0, 0.0]))
    mid = interp([a], [b], [0.5])[0]
    assert np.allclose(mid.translation, [1.0, 0.0, 0.0], atol=1e-12)


def test_interp_rotation_scaling():
    b = lie.Pose(lie.so3_exp(np.array([0.0, 0.0, np.pi / 2])), np.zeros(3))
    third = interp([lie.Pose.identity()], [b], [1.0 / 3.0])[0]
    expected = lie.so3_exp(np.array([0.0, 0.0, np.pi / 6]))
    assert np.allclose(third.rotation, expected, atol=1e-12)


def test_interp_symmetry(rng):
    poses_a = [random_pose(rng) for _ in range(50)]
    poses_b = [random_pose(rng) for _ in range(50)]
    alphas = rng.uniform(size=50)
    lhs = interp(poses_a, poses_b, alphas)
    rhs = interp(poses_b, poses_a, 1.0 - alphas)
    for left, right in zip(lhs, rhs):
        assert np.linalg.norm(left.matrix() - right.matrix()) < 1e-9


def test_composition_chain_stays_orthonormal(rng):
    step = lie.se3_exp(np.array([1e-3, 2e-3, -1e-3, 0.01, 0.0, 0.02]))
    pose = lie.Pose.identity()
    for _ in range(10_000):
        pose = pose @ step
    defect = np.linalg.norm(pose.rotation.T @ pose.rotation - np.eye(3))
    assert defect < 1e-9
    assert abs(np.linalg.det(pose.rotation) - 1.0) < 1e-9


def test_pose_rejects_bad_rotation():
    with pytest.raises(InvalidArgumentError):
        lie.Pose(np.eye(3) * 2.0, np.zeros(3))


def test_series_coefficients_match_taylor_reference():
    # Each coefficient of the rotation angle against its Taylor series summed
    # to more terms than it uses: a closed form evaluated too close to 0
    # loses its digits to cancellation.
    def alternating(t, first):
        return sum((-1) ** k * t ** (2 * k) / math.factorial(2 * k + first) for k in range(8))

    references = {
        lie._sinc: lambda t: alternating(t, 1),
        lie._cos_coeff: lambda t: alternating(t, 2),
        lie._one_minus_sinc_coeff: lambda t: alternating(t, 3),
        lie._jl_inv_coeff: lambda t: (
            1 / 12 + t**2 / 720 + t**4 / 30240 + t**6 / 1209600 + t**8 / 47900160
        ),
    }
    for angle in SWITCH_ANGLES:
        for coeff, reference in references.items():
            assert abs(coeff(angle) - reference(angle)) < 1e-10 * reference(angle)


def test_batch_helpers_match_scalar(rng):
    angles = np.concatenate([SWITCH_ANGLES, rng.uniform(0.0, 3.0, size=64)])
    n = angles.size
    rotvecs = rng.normal(size=(n, 3))
    rotvecs *= (angles / np.linalg.norm(rotvecs, axis=1))[:, None]
    rots = lie.so3_exp_batch(rotvecs)
    for i in range(n):
        assert np.allclose(rots[i], lie.so3_exp(rotvecs[i]), atol=1e-12)
    back = lie.so3_log_batch(rots)
    assert np.allclose(back, rotvecs, atol=1e-9)
    jl = lie.so3_left_jacobian_batch(rotvecs)
    jli = lie.so3_left_jacobian_inv_batch(rotvecs)
    for i in range(n):
        assert np.allclose(jl[i], lie.so3_left_jacobian(rotvecs[i]), atol=1e-12)
        assert np.allclose(jli[i], lie.so3_left_jacobian_inv(rotvecs[i]), atol=1e-12)

    # Along a coordinate axis the scalar and the batch norm are both exact, so
    # both paths see the same angle and evaluate the same series and closed
    # forms.  They agree exactly, except that numpy rounds the closed forms'
    # t**2 and t**3 differently for a scalar and an array, by up to an ulp.
    axial = np.zeros((n, 3))
    axial[:, 1] = -angles
    for scalar, batch in (
        (lie.so3_exp, lie.so3_exp_batch),
        (lie.so3_left_jacobian, lie.so3_left_jacobian_batch),
        (lie.so3_left_jacobian_inv, lie.so3_left_jacobian_inv_batch),
    ):
        out = batch(axial)
        for i in range(n):
            expected = scalar(axial[i])
            if scalar is lie.so3_exp or angles[i] < lie.SERIES_ANGLE:
                assert np.array_equal(out[i], expected)
            else:
                assert np.allclose(out[i], expected, rtol=0.0, atol=1e-15)


def test_se3_left_jacobian_batch_matches_scalar_and_numeric(rng):
    # Rotation angles on both sides of the Q-matrix series switch.
    switch = lie.Q_SERIES_ANGLE
    angles = np.concatenate([
        [0.0, 1e-6],
        rng.uniform(0.01, switch, 6),
        [switch - 1e-7, switch, switch + 1e-7],
        rng.uniform(switch, 2.5, 6),
    ])
    xi = rng.normal(size=(angles.size, 6))
    xi[:, :3] *= (angles / np.linalg.norm(xi[:, :3], axis=1))[:, None]
    jl = lie.se3_left_jacobian_batch(xi)
    jl_inv = lie.se3_left_jacobian_inv_batch(xi)
    for i in range(angles.size):
        # One twist at a time gives the same rows as the mixed batch.
        assert np.array_equal(jl[i], lie.se3_left_jacobian_batch(xi[i : i + 1])[0])
        assert np.array_equal(jl_inv[i], lie.se3_left_jacobian_inv_batch(xi[i : i + 1])[0])
        numeric = oracles.numeric_left_jacobian(xi[i])
        assert np.allclose(jl[i], numeric, atol=1e-8)
        assert np.allclose(jl_inv[i] @ numeric, np.eye(6), atol=1e-8)
        assert np.linalg.norm(jl_inv[i] @ jl[i] - np.eye(6)) < 1e-12


def test_se3_interp_batch_matches_interp_pose(rng):
    poses_a = [random_pose(rng, max_angle=1.5) for _ in range(32)]
    poses_b = [random_pose(rng, max_angle=1.5) for _ in range(32)]
    alphas = rng.uniform(size=32)
    for a, b, alpha, got in zip(poses_a, poses_b, alphas, interp(poses_a, poses_b, alphas)):
        expected = oracles.interp_pose(a, b, alpha)
        assert np.allclose(got.rotation, expected.rotation, atol=1e-10)
        assert np.allclose(got.translation, expected.translation, atol=1e-10)
