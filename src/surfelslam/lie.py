"""SO(3)/SE(3) algebra over batches: exponential and logarithm maps, the
SO(3) left Jacobian and geodesic interpolation, each written once, and the
coefficient series they read.

Every map takes a stack of inputs along the first axis, so a single value is
a batch of one.  Twist ordering is fixed as (rotational, translational): a
twist is a 6-vector ``xi = [rx, ry, rz, tx, ty, tz]`` with the rotational
part in radians (rotation vector) and the translational part in meters.  The
window optimizer and the ICP update every pose by the same left
perturbation ``(phi, rho)``: ``R <- Exp(phi) R`` and ``t <- Exp(phi) t +
rho`` (``trajectory.compose_correction``), whose derivative at zero is read
off the moved point, so no SE(3) Jacobian is needed.

SO(3) matrices have one kernel, ``a I + b K + c phi phi^T`` over (N, 3)
rotation vectors with ``K = hat(phi)`` (``_so3_matrices``): as ``K^2 = phi
phi^T - t^2 I`` at ``t = |phi|``, the exponential, the left Jacobian and its
inverse are each three coefficients of the angle.  :func:`so3_exp_batch`
reads it for rotations, :func:`so3_exp_left_jacobian` for each IMU sample's
exponential and left Jacobian from shared terms, and
:func:`so3_left_jacobian_inv` for the IMU's rotation rows.  Applied to
vectors, the inverse left Jacobian is ``v - phi x v / 2 + c phi x (phi x
v)`` (:func:`so3_left_jacobian_inv_apply`), which the logarithm reads; it
stores vectors component first, ``(3, ...)``, so that a product broadcasts
over any trailing axes, as :func:`cross` does.

Geodesic interpolation is written once, in :func:`se3_geodesic_batch`: each
bracket (a lower pose and a twist) gets one basis of seven terms, and each
query weights them with three coefficients of its own angle, so queries that
share a bracket share its basis and form no 3x3 product or exponential of
their own.  :func:`se3_interp_batch` is the same kernel with every pose pair
its own bracket.  From the identity at ``alpha = 1``,
:func:`se3_geodesic_batch` is the SE(3) exponential, the only one here.

A pose is a rotation matrix (3, 3) and a translation (3,), stored as
separate stacks.  Poses are composed without re-orthonormalization: the
rounding of 10,000 compositions leaves a rotation within 1e-12 of
orthonormal.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import AmbiguousLogarithmError

# Taylor-series branch thresholds.  Below SMALL_ANGLE the closed forms are
# 0/0; below SERIES_ANGLE the closed forms lose digits to cancellation.
SMALL_ANGLE = 1e-8
SERIES_ANGLE = 0.02

_MAX_LOG_ANGLE = np.pi - 1e-6


def _series_below(threshold, series):
    """Decorate the closed form of a coefficient of the rotation angle so
    that angles below ``threshold`` take ``series(theta)`` instead.

    The coefficient takes an array of angles and evaluates the closed form
    only at the angles it is valid for, and not at all when every angle is
    below the threshold; when none is, it is the closed form alone, with no
    selection.
    """

    def decorate(closed):
        @functools.wraps(closed)
        def coeff(theta):
            small = theta < threshold
            if not small.any():
                return closed(theta)
            if small.all():
                return series(theta)
            return np.where(small, series(theta), closed(np.where(small, 1.0, theta)))

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


def _so3_matrices(phi, *terms):
    """The SO(3) matrix kernel: ``a I + b K + c phi phi^T`` (N, 3, 3) of (N,
    3) rotation vectors, ``K = hat(phi)``, one stack per ``(a, b, c)`` of
    ``terms``, each an (N,) array or a scalar."""
    k = hat_batch(phi)
    outer = phi[:, :, None] * phi[:, None]
    out = []
    for a, b, c in terms:
        m = np.reshape(c, (-1, 1, 1)) * outer
        m += np.reshape(b, (-1, 1, 1)) * k
        np.einsum("nii->ni", m)[...] += np.reshape(a, (-1, 1))
        out.append(m)
    return out


def _angles(phi):
    """Angles and squared angles (N,) of (N, 3) rotation vectors."""
    theta_sq = np.einsum("ni,ni->n", phi, phi)
    return np.sqrt(theta_sq), theta_sq


def cross(a, b):
    """Cross products of vectors stored component first, ``(3, ...)``, with
    the trailing axes broadcast."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[j], b[k], out=out[i])
        out[i] -= a[k] * b[j]
    return out


def so3_left_jacobian_inv_apply(phi, v):
    """``Jl^-1(phi) v = v - phi x v / 2 + jl_inv(|phi|) phi x (phi x v)`` of
    rotation vectors and vectors stored component first, ``(3, ...)``, with
    the trailing axes broadcast."""
    phi_v = cross(phi, v)
    return v - 0.5 * phi_v + _jl_inv_coeff(np.linalg.norm(phi, axis=0)) * cross(phi, phi_v)


def so3_left_jacobian_inv(phi):
    """``Jl^-1(phi) = I - K / 2 + jl_inv(t) K^2`` as matrices (N, 3, 3) of
    (N, 3) rotation vectors, ``K = hat(phi)``, ``t = |phi|``: the kernel at
    ``(1 - jl_inv t^2, -1/2, jl_inv)``."""
    theta, theta_sq = _angles(phi)
    coeff = _jl_inv_coeff(theta)
    return _so3_matrices(phi, (1.0 - coeff * theta_sq, -0.5, coeff))[0]


def so3_exp_left_jacobian(phi):
    """``Exp(phi)`` and ``Jl(phi)`` as matrices (N, 3, 3) of (N, 3) rotation
    vectors, from one kernel call: ``Exp`` at ``(cos t, sin t / t, (1 - cos
    t) / t^2)`` and ``Jl`` at ``(sin t / t, (1 - cos t) / t^2, (t - sin t) /
    t^3)``, ``t = |phi|``.  They share ``K``, the outer products and two
    coefficient series, as ``cos t = 1 - t^2 (1 - cos t) / t^2`` and ``sin t
    / t = 1 - t^2 (t - sin t) / t^3``."""
    theta, theta_sq = _angles(phi)
    cos_coeff, one_minus_sinc = _cos_coeff(theta), _one_minus_sinc_coeff(theta)
    sinc = 1.0 - one_minus_sinc * theta_sq
    return _so3_matrices(phi, (1.0 - cos_coeff * theta_sq, sinc, cos_coeff),
                         (sinc, cos_coeff, one_minus_sinc))


def so3_exp_batch(r):
    """``Exp(r)`` (N, 3, 3) of (N, 3) rotation vectors: the kernel at ``(cos
    t, sin t / t, (1 - cos t) / t^2)``, ``t = |r|``."""
    theta, theta_sq = _angles(r)
    cos_coeff = _cos_coeff(theta)
    return _so3_matrices(r, (1.0 - cos_coeff * theta_sq, _sinc(theta), cos_coeff))[0]


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


def se3_relative_log_batch(rot_a, t_a, rot_b, t_b):
    """Twists (rotational (N, 3), translational (N, 3)) of ``Ta^-1 Tb``."""
    rot_rel = rot_a.transpose(0, 2, 1) @ rot_b
    t_rel = np.einsum("nji,nj->ni", rot_a, t_b - t_a)
    phi = so3_log_batch(rot_rel)
    return phi, so3_left_jacobian_inv_apply(phi.T, t_rel.T).T


def se3_geodesic_batch(rot_a, t_a, phi, rho, at, alpha):
    """Poses ``T_a exp(alpha (phi, rho))`` on the geodesics of M brackets,
    read from each bracket's basis: rotations (N, 3, 3) and translations
    (N, 3).

    Bracket m has lower pose ``(rot_a[m], t_a[m])`` and twist
    ``(phi[m], rho[m])``; query n reads bracket ``at[n]`` at ``alpha[n]``.
    With ``K = hat(phi)`` and ``theta = |phi|``, the pose at alpha is

        R = R_a + s1 R_a K + s2 R_a K^2
        t = t_a + alpha R_a rho + s2 R_a K rho + s3 R_a K^2 rho

    with ``s1 = alpha sinc(alpha theta)``, ``s2 = alpha^2 (1 - cos(alpha
    theta)) / (alpha theta)^2`` and ``s3 = alpha^3 (alpha theta - sin(alpha
    theta)) / (alpha theta)^3``, the Rodrigues and left-Jacobian
    coefficients at the query's own angle, each with its own series switch.
    The seven basis terms are formed once per bracket, stored bracket along
    the last axis, so a query costs three coefficients and a weighted sum of
    gathered columns.  Row i of ``R_a K`` is ``r_i x phi`` for row ``r_i`` of
    ``R_a``, so the basis takes cross products, not 3x3 products.
    """
    theta = np.linalg.norm(phi, axis=1)
    # rows[term, l, i, m]: entry (i, l) of R_a, R_a K and R_a K^2 of bracket m.
    phi_cols = phi.T[:, None]
    rows = np.empty((3, 3, 3, len(phi)))
    rows[0] = rot_a.transpose(2, 1, 0)
    rows[1] = cross(rows[0], phi_cols)
    rows[2] = cross(rows[1], phi_cols)
    rot_cols = rows.transpose(0, 2, 1, 3).reshape(3, 9, len(phi))
    t_cols = np.concatenate([t_a.T[None], (rows * rho.T[:, None]).sum(axis=1)])
    angle = alpha * theta[at]
    alpha_sq = alpha * alpha
    s1 = alpha * _sinc(angle)
    s2 = alpha_sq * _cos_coeff(angle)
    s3 = alpha_sq * alpha * _one_minus_sinc_coeff(angle)
    # Each query's terms are weighted and summed in place, in order.
    r = rot_cols.take(at, axis=2)
    t = t_cols.take(at, axis=2)
    r[1] *= s1
    r[2] *= s2
    t[1] *= alpha
    t[2] *= s2
    t[3] *= s3
    for terms in (r, t):
        for term in terms[1:]:
            terms[0] += term
    return np.ascontiguousarray(r[0].T).reshape(len(at), 3, 3), np.ascontiguousarray(t[0].T)


def se3_interp_batch(rot_a, t_a, rot_b, t_b, alpha):
    """Vectorized ``Ta * exp(alpha * log(Ta^-1 Tb))`` for pose arrays.

    alpha is (N,) in [0, 1]; bracketing pairs are given as rotation stacks
    (N, 3, 3) and translation stacks (N, 3).  Each pair is its own bracket
    of :func:`se3_geodesic_batch`.
    """
    phi, rho = se3_relative_log_batch(rot_a, t_a, rot_b, t_b)
    return se3_geodesic_batch(rot_a, t_a, phi, rho, np.arange(len(alpha)), alpha)
