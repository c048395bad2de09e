import math

import numpy as np
import pytest

from surfelslam import lie
from surfelslam.errors import AmbiguousLogarithmError, InvalidArgumentError
from surfelslam.simulation import oracles
from surfelslam.trajectory import compose_correction

from conftest import random_poses

# 0, 1e-9 and both sides of each SO(3) series switch.
SWITCH_ANGLES = [0.0, 1e-9] + [
    a * f for a in (lie.SMALL_ANGLE, lie.SERIES_ANGLE) for f in (1.0 - 1e-9, 1.0, 1.0 + 1e-9)
]
# The same and both sides of the SE(3) Q-matrix series switch.
ALL_SWITCH_ANGLES = SWITCH_ANGLES + [
    lie.Q_SERIES_ANGLE * f for f in (1.0 - 1e-9, 1.0, 1.0 + 1e-9)
]


def matrices(rot, t):
    """4x4 homogeneous matrices of rotation and translation stacks."""
    out = np.zeros(rot.shape[:-2] + (4, 4))
    out[..., :3, :3] = rot
    out[..., :3, 3] = t
    out[..., 3, 3] = 1.0
    return out


def log_from_identity(rot, t):
    """Twists (N, 6) of pose stacks: their logarithms relative to the identity."""
    n = rot.shape[0]
    phi, rho = lie.se3_relative_log_batch(
        np.broadcast_to(np.eye(3), (n, 3, 3)), np.zeros((n, 3)), rot, t
    )
    return np.concatenate([phi, rho], axis=1)


def twists_at(rng, angles):
    """Random twists whose rotation angles are ``angles``."""
    angles = np.asarray(angles, dtype=float)
    xi = rng.normal(size=(angles.size, 6))
    xi[:, :3] *= (angles / np.linalg.norm(xi[:, :3], axis=1))[:, None]
    return xi


def rotation_about_x(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def test_exp_zero_twist_is_identity():
    rot, t = lie.se3_exp_batch(np.zeros((1, 6)))
    assert np.array_equal(rot[0], np.eye(3))
    assert np.array_equal(t[0], np.zeros(3))


def test_exp_pure_translation():
    rot, t = lie.se3_exp_batch(np.array([[0.0, 0.0, 0.0, 1.0, 2.0, 3.0]]))
    assert np.allclose(rot[0], np.eye(3))
    assert np.allclose(t[0], [1.0, 2.0, 3.0])


def test_exp_matches_series_oracle():
    xi = np.array([np.pi / 2, 0.0, 0.0, 0.0, 0.0, 0.0])
    expected = oracles.se3_exp_series(xi, terms=20)
    rot, t = lie.se3_exp_batch(xi[None])
    assert np.allclose(matrices(rot, t)[0], expected, atol=1e-12)
    # 90 degrees about x.
    assert np.allclose(rot[0] @ np.array([0.0, 1.0, 0.0]), [0.0, 0.0, 1.0])


def test_exp_matches_series_oracle_random(rng):
    xi = rng.normal(scale=0.4, size=(50, 6))
    got = matrices(*lie.se3_exp_batch(xi))
    for i in range(50):
        assert np.allclose(got[i], oracles.se3_exp_series(xi[i]), atol=1e-12)


def test_se3_exp_batch_matches_series_at_the_switches(rng):
    # Rotation angles on both sides of every series switch, with unit-scale
    # translations; 30 terms sum the series past these twist norms.
    xi = twists_at(rng, np.repeat(ALL_SWITCH_ANGLES, 4))
    got = matrices(*lie.se3_exp_batch(xi))
    for i in range(len(xi)):
        assert np.allclose(got[i], oracles.se3_exp_series(xi[i], terms=30), rtol=0.0, atol=1e-14)


def test_exp_rejects_non_finite():
    for bad in (np.nan, np.inf):
        xi = np.zeros((3, 6))
        xi[1, 4] = bad
        with pytest.raises(InvalidArgumentError):
            lie.se3_exp_batch(xi)
    with pytest.raises(InvalidArgumentError):
        lie.se3_exp_batch(np.zeros(6))


def test_log_identity_is_zero():
    assert np.array_equal(log_from_identity(np.eye(3)[None], np.zeros((1, 3))), np.zeros((1, 6)))


def test_log_pure_translation():
    xi = log_from_identity(np.eye(3)[None], np.array([[0.5, -1.0, 2.0]]))[0]
    assert np.allclose(xi[:3], 0.0)
    assert np.allclose(xi[3:], [0.5, -1.0, 2.0])


def test_exp_log_round_trip_1000(rng):
    # The logarithm inverts the series exponential, so it is pinned without
    # the closed-form exponential.
    xi = rng.normal(size=(1000, 6))
    angles = rng.uniform(0.0, 3.0, 1000)
    xi[:, :3] *= (angles / np.maximum(np.linalg.norm(xi[:, :3], axis=1), 1e-12))[:, None]
    poses = np.stack([oracles.se3_exp_series(x, terms=60) for x in xi])
    back = log_from_identity(poses[:, :3, :3], poses[:, :3, 3])
    assert np.max(np.abs(back - xi)) < 1e-9


def test_round_trip_near_pi(rng):
    axis = rng.normal(size=(100, 3))
    axis /= np.linalg.norm(axis, axis=1)[:, None]
    xi = np.concatenate([axis * (np.pi - 1e-3), rng.normal(size=(100, 3))], axis=1)
    poses = np.stack([oracles.se3_exp_series(x, terms=60) for x in xi])
    back = log_from_identity(poses[:, :3, :3], poses[:, :3, 3])
    assert np.max(np.abs(back - xi)) < 1e-9
    again = matrices(*lie.se3_exp_batch(back))
    assert np.max(np.linalg.norm(again - poses, axis=(1, 2))) < 1e-9


def test_log_rejects_angle_at_pi():
    # Within 1e-6 of pi the logarithm is ambiguous; just outside it is not.
    for gap in (0.0, 1e-9, 9e-7):
        rot = rotation_about_x(np.pi - gap)
        with pytest.raises(AmbiguousLogarithmError):
            lie.so3_log_batch(np.stack([np.eye(3), rot]))
        with pytest.raises(AmbiguousLogarithmError):
            log_from_identity(rot[None], np.zeros((1, 3)))
    rv = lie.so3_log_batch(rotation_about_x(np.pi - 2e-6)[None])
    assert np.allclose(rv, [[np.pi - 2e-6, 0.0, 0.0]], rtol=0.0, atol=1e-9)


def test_batch_helpers_match_scalar(rng):
    # A single value is a batch of one.  Each row takes its own series
    # branch, so a row's result does not depend on the other angles in its
    # batch.  The SE(3) Jacobians are checked the same way below.
    xi = twists_at(rng, np.concatenate([ALL_SWITCH_ANGLES, rng.uniform(0.0, 3.0, 16)]))
    r = xi[:, :3]
    for fn, batch in (
        (lie.so3_exp_batch, r),
        (lie.so3_log_batch, lie.so3_exp_batch(r)),
        (lie.so3_left_jacobian_batch, r),
        (lie.so3_left_jacobian_inv_batch, r),
    ):
        out = fn(batch)
        for i in range(len(batch)):
            assert np.array_equal(out[i], fn(batch[i : i + 1])[0]), fn.__name__
    rot, t = lie.se3_exp_batch(xi)
    for i in range(len(xi)):
        (rot_i,), (t_i,) = lie.se3_exp_batch(xi[i : i + 1])
        assert np.array_equal(rot[i], rot_i) and np.array_equal(t[i], t_i)


def test_left_jacobian_inv_identity_at_zero():
    assert np.allclose(lie.se3_left_jacobian_inv_batch(np.zeros((1, 6)))[0], np.eye(6))


def test_left_jacobian_composition_defect(rng):
    xi = rng.normal(scale=0.8, size=(50, 6))
    small = rng.normal(size=(50, 6))
    small *= (1e-4 / np.linalg.norm(small, axis=1))[:, None]
    moved = (lie.se3_left_jacobian_inv_batch(xi) @ small[:, :, None])[:, :, 0] + xi
    for i in range(50):
        lhs = oracles.se3_exp_series(moved[i], terms=40)
        rhs = oracles.se3_exp_series(small[i]) @ oracles.se3_exp_series(xi[i], terms=40)
        assert np.linalg.norm(lhs - rhs) < 1e-7


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


def test_interp_endpoints(rng):
    a = [np.repeat(x, 2, axis=0) for x in random_poses(rng, 1)]
    b = [np.repeat(x, 2, axis=0) for x in random_poses(rng, 1)]
    rot, t = lie.se3_interp_batch(*a, *b, np.array([0.0, 1.0]))
    assert np.allclose(matrices(rot[0], t[0]), matrices(a[0][0], a[1][0]))
    assert np.allclose(matrices(rot[1], t[1]), matrices(b[0][0], b[1][0]))


def test_interp_translation_midpoint():
    _, t = lie.se3_interp_batch(
        np.eye(3)[None], np.zeros((1, 3)), np.eye(3)[None], np.array([[2.0, 0.0, 0.0]]),
        np.array([0.5]),
    )
    assert np.allclose(t[0], [1.0, 0.0, 0.0], atol=1e-12)


def test_interp_rotation_scaling():
    rot, _ = lie.se3_interp_batch(
        np.eye(3)[None], np.zeros((1, 3)), rotation_about_x(np.pi / 2)[None], np.zeros((1, 3)),
        np.array([1.0 / 3.0]),
    )
    assert np.allclose(rot[0], rotation_about_x(np.pi / 6), atol=1e-12)


def test_interp_symmetry(rng):
    a, b = random_poses(rng, 50), random_poses(rng, 50)
    alphas = rng.uniform(size=50)
    lhs = matrices(*lie.se3_interp_batch(*a, *b, alphas))
    rhs = matrices(*lie.se3_interp_batch(*b, *a, 1.0 - alphas))
    assert np.max(np.linalg.norm(lhs - rhs, axis=(1, 2))) < 1e-9


def test_composition_chain_stays_orthonormal():
    # Poses are composed without re-orthonormalization; the rounding of
    # 10,000 compositions stays far below what any consumer notices.
    step_rot, step_t = lie.se3_exp_batch(np.array([[1e-3, 2e-3, -1e-3, 0.01, 0.0, 0.02]]))
    rot, t = np.eye(3)[None], np.zeros((1, 3))
    for _ in range(10_000):
        rot, t = compose_correction(rot, t, step_rot, step_t)
    defect = np.linalg.norm(rot[0].T @ rot[0] - np.eye(3))
    assert defect < 1e-9
    assert abs(np.linalg.det(rot[0]) - 1.0) < 1e-9


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
    angles = np.array(SWITCH_ANGLES)
    for coeff, reference in references.items():
        expected = np.array([reference(angle) for angle in SWITCH_ANGLES])
        assert np.all(np.abs(coeff(angles) - expected) < 1e-10 * expected)


def test_se3_left_jacobian_batch_matches_scalar_and_numeric(rng):
    # Rotation angles on both sides of every series switch.
    switch = lie.Q_SERIES_ANGLE
    angles = np.concatenate([
        ALL_SWITCH_ANGLES,
        [1e-6],
        rng.uniform(0.01, switch, 6),
        [switch - 1e-7, switch + 1e-7],
        rng.uniform(switch, 2.5, 6),
    ])
    xi = twists_at(rng, angles)
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
    a = random_poses(rng, 32, max_angle=1.5)
    b = random_poses(rng, 32, max_angle=1.5)
    alphas = rng.uniform(size=32)
    got = matrices(*lie.se3_interp_batch(*a, *b, alphas))
    pose_a, pose_b = matrices(*a), matrices(*b)
    for i in range(32):
        expected = oracles.interp_pose(pose_a[i], pose_b[i], alphas[i])
        assert np.allclose(got[i], expected, atol=1e-10)
