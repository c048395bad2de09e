import math

import numpy as np
import pytest

from surfelslam import lie
from surfelslam.errors import AmbiguousLogarithmError
from surfelslam.simulation import oracles
from surfelslam.trajectory import compose_correction

from conftest import random_poses

# 0, 1e-9 and both sides of each series switch.
SWITCH_ANGLES = [0.0, 1e-9] + [
    a * f for a in (lie.SMALL_ANGLE, lie.SERIES_ANGLE) for f in (1.0 - 1e-9, 1.0, 1.0 + 1e-9)
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


def kernel_exp(xi):
    """4x4 exponentials of twists (N, 6) from the SO(3) kernel: the rotation
    ``Exp(phi)`` of ``so3_exp_batch`` and the translation ``Jl(phi) rho`` of
    the left Jacobian of ``so3_exp_left_jacobian``."""
    _, jl = lie.so3_exp_left_jacobian(xi[:, :3])
    return matrices(lie.so3_exp_batch(xi[:, :3]), (jl @ xi[:, 3:, None])[:, :, 0])


def geodesic_exp(xi):
    """4x4 exponentials of twists (N, 6) from ``se3_geodesic_batch``: each
    twist its own bracket from the identity, read at alpha = 1."""
    n = len(xi)
    return matrices(*lie.se3_geodesic_batch(
        np.broadcast_to(np.eye(3), (n, 3, 3)), np.zeros((n, 3)), xi[:, :3], xi[:, 3:],
        np.arange(n), np.ones(n),
    ))


def so3_left_jacobian_inv_matrices(r):
    """(N, 3, 3) inverse SO(3) left Jacobians of (N, 3) rotation vectors,
    rebuilt column by column from ``lie.so3_left_jacobian_inv_apply``
    applied to the three unit vectors."""
    return lie.so3_left_jacobian_inv_apply(r.T[:, None], np.eye(3)[:, :, None]).transpose(2, 0, 1)


def rotation_about_x(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def test_exp_zero_twist_is_identity():
    zero = np.zeros((1, 6))
    assert np.array_equal(lie.so3_exp_batch(zero[:, :3])[0], np.eye(3))
    for m in lie.so3_exp_left_jacobian(zero[:, :3]):
        assert np.array_equal(m[0], np.eye(3))
    assert np.array_equal(geodesic_exp(zero)[0], np.eye(4))


def test_exp_pure_translation():
    xi = np.array([[0.0, 0.0, 0.0, 1.0, 2.0, 3.0]])
    for exp in (kernel_exp, geodesic_exp):
        got = exp(xi)[0]
        assert np.allclose(got[:3, :3], np.eye(3))
        assert np.allclose(got[:3, 3], [1.0, 2.0, 3.0])


def test_exp_matches_series_oracle():
    xi = np.array([np.pi / 2, 0.0, 0.0, 0.3, -0.2, 0.5])
    expected = oracles.se3_exp_series(xi, terms=20)
    for exp in (kernel_exp, geodesic_exp):
        got = exp(xi[None])[0]
        assert np.allclose(got, expected, atol=1e-12)
        # 90 degrees about x.
        assert np.allclose(got[:3, :3] @ np.array([0.0, 1.0, 0.0]), [0.0, 0.0, 1.0])


def test_exp_matches_series_oracle_random(rng):
    xi = rng.normal(scale=0.4, size=(50, 6))
    for exp in (kernel_exp, geodesic_exp):
        got = exp(xi)
        for i in range(50):
            assert np.allclose(got[i], oracles.se3_exp_series(xi[i]), atol=1e-12)


def test_exp_matches_series_at_the_switches(rng):
    # Rotation angles on both sides of every series switch, with unit-scale
    # translations; 30 terms sum the series past these twist norms.
    xi = twists_at(rng, np.repeat(SWITCH_ANGLES, 4))
    for exp in (kernel_exp, geodesic_exp):
        got = exp(xi)
        for i in range(len(xi)):
            expected = oracles.se3_exp_series(xi[i], terms=30)
            assert np.allclose(got[i], expected, rtol=0.0, atol=1e-14), exp.__name__


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
    for exp in (kernel_exp, geodesic_exp):
        assert np.max(np.linalg.norm(exp(back) - poses, axis=(1, 2))) < 1e-9


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
    # batch.  The inverse SO(3) Jacobian is rebuilt from its application to
    # unit vectors.
    xi = twists_at(rng, np.concatenate([SWITCH_ANGLES, rng.uniform(0.0, 3.0, 16)]))
    r = xi[:, :3]
    for fn, batch in (
        (lie.so3_exp_batch, r),
        (lambda v: np.stack(lie.so3_exp_left_jacobian(v), axis=1), r),
        (lie.so3_left_jacobian_inv, r),
        (lie.so3_log_batch, lie.so3_exp_batch(r)),
        (so3_left_jacobian_inv_matrices, r),
        (geodesic_exp, xi),
    ):
        out = fn(batch)
        for i in range(len(batch)):
            assert np.array_equal(out[i], fn(batch[i : i + 1])[0]), fn.__name__


def test_left_jacobian_inv_identity_at_zero():
    assert np.array_equal(so3_left_jacobian_inv_matrices(np.zeros((1, 3)))[0], np.eye(3))


def test_left_jacobian_composition_defect(rng):
    # exp(phi + Jl^-1(phi) d) = exp(d) exp(phi) to first order in d.
    phi = rng.normal(scale=0.8, size=(50, 3))
    small = rng.normal(size=(50, 3))
    small *= (1e-4 / np.linalg.norm(small, axis=1))[:, None]
    moved = (so3_left_jacobian_inv_matrices(phi) @ small[:, :, None])[:, :, 0] + phi
    zero = np.zeros(3)
    for i in range(50):
        lhs = oracles.se3_exp_series(np.r_[moved[i], zero], terms=40)
        rhs = oracles.se3_exp_series(np.r_[small[i], zero]) @ oracles.se3_exp_series(
            np.r_[phi[i], zero], terms=40
        )
        assert np.linalg.norm(lhs - rhs) < 1e-7


def test_left_jacobian_inverse_against_numeric(rng):
    # The inverse SO(3) Jacobian against the rotation block of the numeric
    # SE(3) one, at both sides of every series switch and at larger angles.
    angles = np.concatenate([SWITCH_ANGLES, np.repeat([1e-6, 0.01, 0.5, 1.5, 2.5], 4)])
    xi = twists_at(rng, angles)
    jl_inv = so3_left_jacobian_inv_matrices(xi[:, :3])
    for i in range(len(xi)):
        product = jl_inv[i] @ oracles.numeric_left_jacobian(xi[i])[:3, :3]
        assert np.linalg.norm(product - np.eye(3)) < 1e-9


def test_kernel_matrices_match_each_other_and_the_vector_kernel(rng):
    # The SO(3) kernel's matrices at both sides of every series switch and
    # at larger angles: the exponential of so3_exp_left_jacobian against
    # so3_exp_batch, which takes sin t / t from its own series, the inverse
    # left Jacobian against the vector kernel applied to unit vectors, and
    # the left Jacobian against that inverse.  Entries are at most about 1,
    # so the forms agree to a few roundings.
    tol = 8 * np.finfo(float).eps
    angles = np.concatenate([SWITCH_ANGLES, np.repeat([1e-6, 0.01, 0.5, 1.5, 3.0], 4)])
    r = twists_at(rng, angles)[:, :3]
    exp, jl = lie.so3_exp_left_jacobian(r)
    jl_inv = lie.so3_left_jacobian_inv(r)
    assert np.abs(exp - lie.so3_exp_batch(r)).max() < tol
    assert np.abs(jl_inv - so3_left_jacobian_inv_matrices(r)).max() < tol
    assert np.abs(jl_inv @ jl - np.eye(3)).max() < tol


# The column kernel's pinned angles: 0, 1e-9, the small-angle switch, both
# sides of the series switch, 1 and just below pi.
KERNEL_ANGLES = [0.0, 1e-9, lie.SMALL_ANGLE, lie.SERIES_ANGLE * (1.0 - 1e-9),
                 lie.SERIES_ANGLE * (1.0 + 1e-9), 1.0, np.pi - 1e-6]


def test_column_kernel_matches_the_row_stack_kernel_bit_for_bit(rng):
    # Each caller's matrices against the row-stack kernel of
    # oracles.so3_matrices_by_rows at the caller's coefficients, bit for
    # bit, and C-contiguous: numpy's einsum rounds over a strided stack
    # differently from over a contiguous one, so the layout is part of the
    # result.
    r = np.ascontiguousarray(twists_at(rng, np.repeat(KERNEL_ANGLES, 3))[:, :3])
    theta, theta_sq = lie._angles(r)
    cos_coeff, one_minus_sinc = lie._cos_coeff(theta), lie._one_minus_sinc_coeff(theta)
    exp_terms = (1.0 - cos_coeff * theta_sq, lie._sinc(theta), cos_coeff)
    sinc = 1.0 - one_minus_sinc * theta_sq
    exp_jl_terms = [(1.0 - cos_coeff * theta_sq, sinc, cos_coeff),
                    (sinc, cos_coeff, one_minus_sinc)]
    jl_inv = lie._jl_inv_coeff(theta)
    cases = [
        ([lie.so3_exp_batch(r)], [exp_terms]),
        (lie.so3_exp_left_jacobian(r), exp_jl_terms),
        ([lie.so3_left_jacobian_inv(r)], [(1.0 - jl_inv * theta_sq, -0.5, jl_inv)]),
    ]
    # The kernel itself at scalar, array and mixed coefficients.
    a, b, c = rng.normal(size=(3, len(r)))
    for terms in ([(0.3, -0.5, 2.0)], [(a, b, c)], [(a, -0.5, 2.0), (1.0, b, c)]):
        cases.append((lie._so3_matrices(r, *terms), terms))
    for got, terms in cases:
        expected = oracles.so3_matrices_by_rows(r, *terms)
        assert len(got) == len(expected)
        for m, e in zip(got, expected):
            assert m.shape == (len(r), 3, 3) and m.flags.c_contiguous
            assert np.array_equal(m, e)


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
    # 10,000 compositions stays far below what any consumer notices.  Each
    # is the step of the window and the ICP, R <- Exp(phi) R and
    # t <- Exp(phi) t + rho.
    phi, rho = np.array([[1e-3, 2e-3, -1e-3]]), np.array([[0.01, 0.0, 0.02]])
    rot, t = np.eye(3)[None], np.zeros((1, 3))
    for _ in range(10_000):
        rot, t = compose_correction(lie.so3_exp_batch(phi), rho, rot, t)
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


def test_se3_interp_batch_matches_interp_pose(rng):
    a = random_poses(rng, 32, max_angle=1.5)
    b = random_poses(rng, 32, max_angle=1.5)
    alphas = rng.uniform(size=32)
    got = matrices(*lie.se3_interp_batch(*a, *b, alphas))
    pose_a, pose_b = matrices(*a), matrices(*b)
    for i in range(32):
        expected = oracles.interp_pose(pose_a[i], pose_b[i], alphas[i])
        assert np.allclose(got[i], expected, atol=1e-10)
