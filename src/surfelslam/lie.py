"""SO(3)/SE(3) algebra: exponential and logarithm maps, and the batched
left Jacobians and geodesic interpolation of the window optimizer.

Twist ordering is fixed as (rotational, translational): a twist is a 6-vector
``xi = [rx, ry, rz, tx, ty, tz]`` with the rotational part in radians
(rotation vector) and the translational part in meters.  All updates in this
package are left perturbations, ``T <- exp(xi) * T``.

Rotations are stored as 3x3 matrices.  Poses re-orthonormalize themselves by
polar projection every ``REORTHONORMALIZE_EVERY`` compositions to bound
accumulated drift.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import AmbiguousLogarithmError, InvalidArgumentError

REORTHONORMALIZE_EVERY = 1000

# Taylor-series branch thresholds.  Below SMALL_ANGLE the closed forms are
# 0/0; below SERIES_ANGLE the closed forms lose digits to cancellation.
SMALL_ANGLE = 1e-8
SERIES_ANGLE = 0.02

_MAX_LOG_ANGLE = np.pi - 1e-6


def hat(v):
    """Skew-symmetric matrix of a 3-vector."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def _series_below(threshold, series):
    """Decorate the closed form of a coefficient of the rotation angle so
    that angles below ``threshold`` take ``series(theta)`` instead.

    The coefficient takes a scalar angle or an array of them.  A scalar takes
    a plain branch, so it does not pay for a batch of one; an array evaluates
    the closed form only at the angles it is valid for.
    """

    def decorate(closed):
        @functools.wraps(closed)
        def coeff(theta):
            if isinstance(theta, float):
                return series(theta) if theta < threshold else closed(theta)
            small = theta < threshold
            out = closed(np.where(small, 1.0, theta))
            if np.any(small):
                out = np.where(small, series(theta), out)
            return out

        return coeff

    return decorate


@_series_below(SMALL_ANGLE, lambda t: 1.0 - t * t / 6.0)
def _sinc(t):
    # sin(t) / t
    return np.sin(t) / t


@_series_below(SMALL_ANGLE, lambda t: 0.5 - t * t / 24.0)
def _cos_coeff(t):
    # (1 - cos(t)) / t^2, via 2 sin^2(t/2) to avoid cancellation
    s = np.sin(0.5 * t)
    return 2.0 * s * s / (t * t)


@_series_below(SERIES_ANGLE, lambda t: 1.0 / 6.0 - t * t / 120.0 + (t * t) ** 2 / 5040.0)
def _one_minus_sinc_coeff(t):
    # (t - sin(t)) / t^3
    return (t - np.sin(t)) / t**3


@_series_below(SERIES_ANGLE, lambda t: 1.0 / 12.0 + t * t / 720.0 + (t * t) ** 2 / 30240.0)
def _jl_inv_coeff(t):
    # 1/t^2 - (1 + cos(t)) / (2 t sin(t))
    return 1.0 / t**2 - (1.0 + np.cos(t)) / (2.0 * t * np.sin(t))


def so3_exp(r):
    """Rodrigues formula for a rotation vector."""
    r = np.asarray(r, dtype=float)
    theta = np.linalg.norm(r)
    k = hat(r)
    return np.eye(3) + _sinc(theta) * k + _cos_coeff(theta) * (k @ k)


def so3_log(rotation):
    """Rotation vector of a rotation matrix; rejects angles at/near pi."""
    w = 0.5 * np.array(
        [
            rotation[2, 1] - rotation[1, 2],
            rotation[0, 2] - rotation[2, 0],
            rotation[1, 0] - rotation[0, 1],
        ]
    )
    s = np.linalg.norm(w)  # sin(theta)
    c = 0.5 * (np.trace(rotation) - 1.0)  # cos(theta)
    theta = np.arctan2(s, c)
    if theta >= _MAX_LOG_ANGLE:
        raise AmbiguousLogarithmError(
            f"rotation angle {theta:.9f} rad is within 1e-6 of pi; logarithm ambiguous"
        )
    if theta < SMALL_ANGLE:
        return w
    return w * (theta / s)


def so3_left_jacobian(r):
    r = np.asarray(r, dtype=float)
    theta = np.linalg.norm(r)
    k = hat(r)
    return np.eye(3) + _cos_coeff(theta) * k + _one_minus_sinc_coeff(theta) * (k @ k)


def so3_left_jacobian_inv(r):
    r = np.asarray(r, dtype=float)
    theta = np.linalg.norm(r)
    k = hat(r)
    return np.eye(3) - 0.5 * k + _jl_inv_coeff(theta) * (k @ k)


def polar_projection(m):
    """Nearest rotation matrix in Frobenius norm (det +1 branch)."""
    u, _, vt = np.linalg.svd(m)
    d = np.sign(np.linalg.det(u @ vt))
    u[:, -1] *= d
    return u @ vt


@dataclass(frozen=True)
class Pose:
    """Rigid transform in SE(3); maps sensor-frame points p to R p + t."""

    rotation: np.ndarray
    translation: np.ndarray
    _compositions: int = field(default=0, repr=False, compare=False)

    def __post_init__(self):
        rotation = np.asarray(self.rotation, dtype=float)
        translation = np.asarray(self.translation, dtype=float)
        if rotation.shape != (3, 3) or translation.shape != (3,):
            raise InvalidArgumentError("Pose needs a 3x3 rotation and a 3-vector")
        if not (np.all(np.isfinite(rotation)) and np.all(np.isfinite(translation))):
            raise InvalidArgumentError("Pose entries must be finite")
        defect = np.linalg.norm(rotation.T @ rotation - np.eye(3))
        if defect > 1e-6 or np.linalg.det(rotation) < 0.0:
            raise InvalidArgumentError(
                f"rotation is not orthonormal (defect {defect:.2e})"
            )
        rotation.setflags(write=False)
        translation.setflags(write=False)
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "translation", translation)

    @staticmethod
    def identity():
        return Pose(np.eye(3), np.zeros(3))

    def matrix(self):
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def compose(self, other: "Pose") -> "Pose":
        rotation = self.rotation @ other.rotation
        translation = self.rotation @ other.translation + self.translation
        count = self._compositions + other._compositions + 1
        if count >= REORTHONORMALIZE_EVERY:
            rotation = polar_projection(rotation)
            count = 0
        return Pose(rotation, translation, count)

    def __matmul__(self, other: "Pose") -> "Pose":
        return self.compose(other)

    def inverse(self) -> "Pose":
        return Pose(self.rotation.T, -self.rotation.T @ self.translation, self._compositions)

    def apply(self, points):
        """Transform one point (3,) or a batch (N, 3)."""
        points = np.asarray(points, dtype=float)
        return points @ self.rotation.T + self.translation


def se3_exp(xi) -> Pose:
    """Matrix exponential of a twist (rotational, translational)."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (6,) or not np.all(np.isfinite(xi)):
        raise InvalidArgumentError("twist must be a finite 6-vector")
    r, t = xi[:3], xi[3:]
    return Pose(so3_exp(r), so3_left_jacobian(r) @ t)


def se3_log(pose: Pose):
    """Twist such that ``se3_exp(se3_log(T)) == T``; angle must be below pi."""
    r = so3_log(pose.rotation)
    t = so3_left_jacobian_inv(r) @ pose.translation
    return np.concatenate([r, t])


# Below this angle the Q-matrix coefficients switch to their Taylor series.
Q_SERIES_ANGLE = 0.1


def _se3_q_coeffs(theta):
    """Coefficients (c1, c2, c3) of the SE(3) Q matrix for angles ``theta``
    (N,)."""
    theta = np.asarray(theta, dtype=float)
    small = theta < Q_SERIES_ANGLE
    t = np.where(small, 1.0, theta)
    s, c = np.sin(t), np.cos(t)
    t3 = t**3
    a = (1.0 - t * t / 2.0 - c) / t**4
    c1 = (t - s) / t3
    c2 = -a
    c3 = -0.5 * (a - 3.0 * (t - s - t3 / 6.0) / t**5)
    if np.any(small):
        t2 = theta * theta
        c1 = np.where(small, 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0, c1)
        c2 = np.where(small, 1.0 / 24.0 - t2 / 720.0 + t2 * t2 / 40320.0, c2)
        c3 = np.where(small, 1.0 / 120.0 - t2 / 2520.0 + t2 * t2 / 120960.0, c3)
    return c1, c2, c3


def _q_from_hats(rx, tx, c1, c2, c3):
    # Coupling block of the SE(3) left Jacobian (Baker-Campbell-Hausdorff
    # terms) from (N, 3, 3) hat stacks and coefficients shaped (N, 1, 1).
    rxtx = rx @ tx
    txrx = tx @ rx
    rxtxrx = rxtx @ rx
    q = 0.5 * tx
    q = q + c1 * (rxtx + txrx + rxtxrx)
    q = q + c2 * (rx @ rxtx + txrx @ rx - 3.0 * rxtxrx)
    q = q + c3 * (rxtxrx @ rx + rx @ rxtxrx)
    return q


def _se3_blocks(diagonal, lower):
    """Stacked 6x6 matrices ``[[D, 0], [L, D]]``."""
    out = np.zeros(diagonal.shape[:-2] + (6, 6))
    out[..., :3, :3] = diagonal
    out[..., 3:, 3:] = diagonal
    out[..., 3:, :3] = lower
    return out


# ---------------------------------------------------------------------------
# Batched rotation helpers (hot paths in trajectory sampling and optimization).


def hat_batch(v):
    """(N, 3) -> (N, 3, 3)."""
    n = v.shape[0]
    out = np.zeros((n, 3, 3))
    out[:, 0, 1] = -v[:, 2]
    out[:, 0, 2] = v[:, 1]
    out[:, 1, 0] = v[:, 2]
    out[:, 1, 2] = -v[:, 0]
    out[:, 2, 0] = -v[:, 1]
    out[:, 2, 1] = v[:, 0]
    return out


def so3_exp_batch(r):
    """Rodrigues formula over (N, 3) rotation vectors."""
    theta = np.linalg.norm(r, axis=1)
    k = hat_batch(r)
    kk = k @ k
    return np.eye(3) + _sinc(theta)[:, None, None] * k + _cos_coeff(theta)[:, None, None] * kk


def so3_log_batch(rotations):
    """Rotation vectors of (N, 3, 3) rotation matrices; all angles must be below pi."""
    w = 0.5 * np.stack(
        [
            rotations[:, 2, 1] - rotations[:, 1, 2],
            rotations[:, 0, 2] - rotations[:, 2, 0],
            rotations[:, 1, 0] - rotations[:, 0, 1],
        ],
        axis=1,
    )
    s = np.linalg.norm(w, axis=1)
    c = 0.5 * (np.trace(rotations, axis1=1, axis2=2) - 1.0)
    theta = np.arctan2(s, c)
    if np.any(theta >= _MAX_LOG_ANGLE):
        raise AmbiguousLogarithmError("batch contains a rotation with angle at/near pi")
    scale = np.where(theta < SMALL_ANGLE, 1.0, theta / np.where(s == 0, 1.0, s))
    return w * scale[:, None]


def so3_left_jacobian_batch(r):
    theta = np.linalg.norm(r, axis=1)
    k = hat_batch(r)
    b = _cos_coeff(theta)[:, None, None]
    c = _one_minus_sinc_coeff(theta)[:, None, None]
    return np.eye(3) + b * k + c * (k @ k)


def so3_left_jacobian_inv_batch(r):
    theta = np.linalg.norm(r, axis=1)
    k = hat_batch(r)
    return np.eye(3) - 0.5 * k + _jl_inv_coeff(theta)[:, None, None] * (k @ k)


def _se3_q_batch(r, t):
    c1, c2, c3 = (c[:, None, None] for c in _se3_q_coeffs(np.linalg.norm(r, axis=1)))
    return _q_from_hats(hat_batch(r), hat_batch(t), c1, c2, c3)


def se3_left_jacobian_batch(xi):
    """(N, 6) twists -> (N, 6, 6) left Jacobians of SE(3) in (rotational,
    translational) ordering."""
    r, t = xi[:, :3], xi[:, 3:]
    return _se3_blocks(so3_left_jacobian_batch(r), _se3_q_batch(r, t))


def se3_left_jacobian_inv_batch(xi):
    """(N, 6) twists -> (N, 6, 6) inverse left Jacobians: to second order in
    ``d``, ``exp(Jl^-1(xi) d + xi) = exp(d) exp(xi)``."""
    r, t = xi[:, :3], xi[:, 3:]
    jl_inv = so3_left_jacobian_inv_batch(r)
    return _se3_blocks(jl_inv, -jl_inv @ _se3_q_batch(r, t) @ jl_inv)


def se3_relative_log_batch(rot_a, t_a, rot_b, t_b):
    """Twists (rotational (N, 3), translational (N, 3)) of ``Ta^-1 Tb``."""
    rot_rel = rot_a.transpose(0, 2, 1) @ rot_b
    t_rel = np.einsum("nji,nj->ni", rot_a, t_b - t_a)
    phi = so3_log_batch(rot_rel)
    rho = np.einsum("nij,nj->ni", so3_left_jacobian_inv_batch(phi), t_rel)
    return phi, rho


def se3_interp_batch(rot_a, t_a, rot_b, t_b, alpha, twist=None):
    """Vectorized ``Ta * exp(alpha * log(Ta^-1 Tb))`` for pose arrays.

    alpha is (N,) in [0, 1]; bracketing pairs are given as rotation stacks
    (N, 3, 3) and translation stacks (N, 3).  ``twist`` is the pairs'
    :func:`se3_relative_log_batch`, computed when not given.
    """
    if twist is None:
        twist = se3_relative_log_batch(rot_a, t_a, rot_b, t_b)
    phi, rho = twist
    phi_s = phi * alpha[:, None]
    rho_s = rho * alpha[:, None]
    rot_d = so3_exp_batch(phi_s)
    t_d = np.einsum("nij,nj->ni", so3_left_jacobian_batch(phi_s), rho_s)
    rot = rot_a @ rot_d
    t = np.einsum("nij,nj->ni", rot_a, t_d) + t_a
    return rot, t
