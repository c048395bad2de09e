"""Continuous-time trajectory: densely sampled poses with on-manifold linear
interpolation, plus the cubic B-spline correction layer.

The trajectory is a discrete pose sequence at a nominal rate (100 Hz by
default), stored as rotation and translation stacks.  Its one query,
:meth:`Trajectory.sample_batch`, takes a stack of times; between samples it
follows the SE(3) geodesic between the bracketing pair.  The correction
layer holds per-knot translation and rotation-vector control points;
corrections always start from zero at the beginning of an optimizer
iteration, so the spline evaluates small local updates that
:func:`compose_correction` composes onto the stored poses by left
multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lie
from .errors import InvalidArgumentError, MissingSupportError, OutOfRangeError

# Uniform cubic B-spline basis for a descending power row [u^3 u^2 u 1];
# weights apply to knots (k-1, k, k+1, k+2).  Rows sum to (0, 0, 0, 1) so the
# four weights always sum to one.
SPLINE_MATRIX = (
    np.array(
        [
            [-1.0, 3.0, -3.0, 1.0],
            [3.0, -6.0, 3.0, 0.0],
            [-3.0, 0.0, 3.0, 0.0],
            [1.0, 4.0, 1.0, 0.0],
        ]
    )
    / 6.0
)


def spline_weights(u):
    """Basis weights on knots (k-1, k, k+1, k+2) for offsets ``u`` in [0, 1]."""
    u = np.asarray(u, dtype=float)
    powers = np.stack([u**3, u**2, u, np.ones_like(u)], axis=-1)
    return powers @ SPLINE_MATRIX


def compose_correction(rot_c, t_c, rotations, translations):
    """Poses corrected by the transforms ``(rot_c, t_c)``, all stacked:
    ``T' = dT T``."""
    t = np.einsum("nij,nj->ni", rot_c, translations) + t_c
    return rot_c @ rotations, t


def brackets(times, taus, tol):
    """Bracketing sample index ``idx`` and ratio ``alpha`` per query time.

    A query within ``tol`` of a sample snaps to it (``alpha`` exactly 0 or
    1), so it returns the stored pose; one more than ``tol`` outside
    ``[times[0], times[-1]]`` raises :class:`OutOfRangeError`.
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    if np.any(taus < times[0] - tol) or np.any(taus > times[-1] + tol):
        raise OutOfRangeError("query time outside the trajectory span")
    idx = np.clip(np.searchsorted(times, taus, side="right") - 1, 0, len(times) - 2)
    alpha = np.clip((taus - times[idx]) / (times[idx + 1] - times[idx]), 0.0, 1.0)
    alpha[np.abs(taus - times[idx]) <= tol] = 0.0
    alpha[np.abs(times[idx + 1] - taus) <= tol] = 1.0
    return idx, alpha


def interpolate(rotations, translations, idx, alpha, twists=None):
    """Poses at the brackets ``(idx, alpha)`` of sample arrays.

    Snapped queries copy the stored sample; the rest follow the SE(3)
    geodesic.  It takes the twists ``lie.se3_relative_log_batch`` of the
    interior queries' brackets as ``twists``, computed when not given.
    """
    interior = (alpha > 0.0) & (alpha < 1.0)
    if interior.all():
        return _between(rotations, translations, idx, alpha, twists)
    gather = np.where(alpha == 1.0, idx + 1, idx)
    rot, t = rotations[gather], translations[gather]
    if interior.any():
        rot[interior], t[interior] = _between(
            rotations, translations, idx[interior], alpha[interior], twists
        )
    return rot, t


def _between(rotations, translations, lo, alpha, twists):
    # Interpolation between samples lo and lo + 1 at 0 < alpha < 1.
    hi = lo + 1
    return lie.se3_interp_batch(
        rotations[lo], translations[lo], rotations[hi], translations[hi], alpha, twists
    )


@dataclass
class Trajectory:
    """Timestamped pose sequence; treated as an immutable value."""

    times: np.ndarray
    rotations: np.ndarray
    translations: np.ndarray
    nominal_rate: float = 100.0

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.rotations = np.asarray(self.rotations, dtype=float)
        self.translations = np.asarray(self.translations, dtype=float)
        n = self.times.shape[0]
        if n < 2:
            raise InvalidArgumentError("trajectory needs at least two samples")
        if self.rotations.shape != (n, 3, 3) or self.translations.shape != (n, 3):
            raise InvalidArgumentError("trajectory array shapes are inconsistent")
        dt = np.diff(self.times)
        if np.any(dt <= 0):
            raise InvalidArgumentError("timestamps must be strictly increasing")
        nominal = 1.0 / self.nominal_rate
        if np.any(np.abs(dt - nominal) > 0.01 * nominal):
            raise InvalidArgumentError(
                "sample spacing deviates more than 1% from the nominal rate"
            )

    def __len__(self):
        return self.times.shape[0]

    @property
    def start(self):
        return float(self.times[0])

    @property
    def end(self):
        return float(self.times[-1])

    def sample_batch(self, taus):
        """Rotations (N,3,3) and translations (N,3) at ``taus``, on the SE(3)
        geodesic between the bracketing samples."""
        idx, alpha = brackets(self.times, taus, 1e-9 / self.nominal_rate)
        return interpolate(self.rotations, self.translations, idx, alpha)


@dataclass
class ControlGrid:
    """Uniformly spaced control points for the B-spline correction.

    ``c_t`` are translational and ``c_r`` rotational (rotation-vector) control
    points.  Boundary access is index-clamped, which replicates the boundary
    knots; with zero-valued knots this padding is invisible.
    """

    times: np.ndarray
    c_t: np.ndarray
    c_r: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.c_t = np.asarray(self.c_t, dtype=float)
        self.c_r = np.asarray(self.c_r, dtype=float)
        k = self.times.shape[0]
        if k < 2:
            raise InvalidArgumentError("control grid needs at least two knots")
        if self.c_t.shape != (k, 3) or self.c_r.shape != (k, 3):
            raise InvalidArgumentError("control point array shapes are inconsistent")
        dt = np.diff(self.times)
        if np.any(np.abs(dt - dt[0]) > 1e-9 * dt[0]):
            raise InvalidArgumentError("knot spacing must be uniform")

    @staticmethod
    def zeros(start, stop, step) -> "ControlGrid":
        """Zero-valued grid covering [start, stop] at the given knot spacing."""
        n = int(round((stop - start) / step)) + 1
        if n < 2:
            raise InvalidArgumentError("grid span shorter than one knot step")
        times = start + step * np.arange(n)
        return ControlGrid(times, np.zeros((n, 3)), np.zeros((n, 3)))

    @staticmethod
    def for_window(start, stop, knots) -> "ControlGrid":
        """Zero grid with the given knot count, extending one knot step past
        each window end.

        Knots clamped at the grid boundary leave the spline too stiff right at
        the ends of the data span; one step of margin restores full cubic
        freedom over [start, stop] while keeping every knot observable.
        """
        if knots < 4:
            raise InvalidArgumentError("window grid needs at least four knots")
        step = (stop - start) / (knots - 3)
        times = (start - step) + step * np.arange(knots)
        return ControlGrid(times, np.zeros((knots, 3)), np.zeros((knots, 3)))

    @property
    def step(self):
        return float(self.times[1] - self.times[0])

    def __len__(self):
        return self.times.shape[0]

    def covers(self, taus):
        taus = np.asarray(taus, dtype=float)
        tol = 1e-9 * self.step
        return (taus >= self.times[0] - tol) & (taus <= self.times[-1] + tol)

    def knot_indices_and_weights(self, taus):
        """Clamped knot indices (N, 4) and basis weights (N, 4) per query."""
        taus = np.atleast_1d(np.asarray(taus, dtype=float))
        inside = self.covers(taus)
        if not np.all(inside):
            raise MissingSupportError(
                "timestamps outside spline support", taus[~inside]
            )
        k = np.clip(
            np.floor((taus - self.times[0]) / self.step).astype(int), 0, len(self) - 2
        )
        u = np.clip((taus - self.times[k]) / self.step, 0.0, 1.0)
        weights = spline_weights(u)
        idx = np.clip(k[:, None] + np.arange(-1, 3)[None, :], 0, len(self) - 1)
        return idx, weights

    def weight_matrix(self, taus):
        """Dense (N, K) matrix W with correction = W @ control_points."""
        idx, weights = self.knot_indices_and_weights(taus)
        out = np.zeros((idx.shape[0], len(self)))
        np.add.at(out, (np.arange(idx.shape[0])[:, None], idx), weights)
        return out
