"""Continuous-time trajectory: densely sampled poses with on-manifold linear
interpolation, plus the knot grid of the cubic B-spline correction.

The trajectory is a discrete pose sequence at a nominal rate (100 Hz by
default), stored as rotation and translation stacks.  Its one query,
:meth:`Trajectory.sample_batch`, takes a stack of times; between samples it
follows the SE(3) geodesic between the bracketing pair.  :func:`interpolate`
serves it and the window optimizer alike: each bracket that holds a query
gets one twist and one geodesic basis (``lie.se3_geodesic_batch``), however
many queries fall in it, and each query reads the basis through three
coefficients of its own angle.  :class:`ControlGrid` holds the knot
times and gives each time its spline weights on the knots; the optimizer
estimates small per-knot corrections from zero at every iteration and
:func:`compose_correction` composes them onto the stored poses by left
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
    ``[times[0], times[-1]]`` raises :class:`OutOfRangeError`, and a
    non-finite one :class:`InvalidArgumentError`.
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    if not np.isfinite(taus).all():
        raise InvalidArgumentError("query times must be finite")
    if np.any(taus < times[0] - tol) or np.any(taus > times[-1] + tol):
        raise OutOfRangeError("query time outside the trajectory span")
    idx = np.clip(np.searchsorted(times, taus, side="right") - 1, 0, len(times) - 2)
    alpha = np.clip((taus - times[idx]) / (times[idx + 1] - times[idx]), 0.0, 1.0)
    alpha[np.abs(taus - times[idx]) <= tol] = 0.0
    alpha[np.abs(times[idx + 1] - taus) <= tol] = 1.0
    return idx, alpha


def interpolate(rotations, translations, idx, alpha):
    """Poses at the brackets ``(idx, alpha)`` of sample arrays, and the chart
    they were read in.

    Snapped queries copy the stored sample; the rest follow the SE(3)
    geodesic.  The distinct brackets of the interior queries are found with
    a presence mask over the sample indices.  Each takes one
    ``lie.se3_relative_log_batch`` twist and one geodesic basis
    (:func:`lie.se3_geodesic_batch`), which all of its queries read, each
    with three coefficients at its own angle.  The chart is
    ``(lo, at, phi, rho)``: the lower samples of those brackets, each
    interior query's bracket among them, and the brackets' twists.
    """
    interior = (alpha > 0.0) & (alpha < 1.0)
    inner_idx, inner_alpha = idx[interior], alpha[interior]
    present = np.zeros(len(rotations) - 1, dtype=bool)
    present[inner_idx] = True
    lo = np.flatnonzero(present)
    at = np.cumsum(present)[inner_idx] - 1
    rot_lo, t_lo = rotations[lo], translations[lo]
    phi, rho = lie.se3_relative_log_batch(rot_lo, t_lo, rotations[lo + 1], translations[lo + 1])
    chart = lo, at, phi, rho
    inner = lie.se3_geodesic_batch(rot_lo, t_lo, phi, rho, at, inner_alpha)
    if interior.all():
        return (*inner, chart)
    gather = np.where(alpha == 1.0, idx + 1, idx)
    rot, t = rotations[gather], translations[gather]
    rot[interior], t[interior] = inner
    return rot, t, chart


@dataclass
class Trajectory:
    """Timestamped pose sequence; treated as an immutable value.

    Times, rotations and translations must be finite, the times strictly
    increasing at the finite, positive ``nominal_rate`` within 1%.
    """

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
        if not all(np.isfinite(a).all() for a in (self.times, self.rotations, self.translations)):
            raise InvalidArgumentError("trajectory times and poses must be finite")
        if not 0.0 < self.nominal_rate < np.inf:
            raise InvalidArgumentError("nominal rate must be finite and positive")
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
        geodesic between the bracketing samples; queries in one bracket share
        its twist and basis (see :func:`interpolate`).  Non-finite times
        raise :class:`InvalidArgumentError`."""
        idx, alpha = brackets(self.times, taus, 1e-9 / self.nominal_rate)
        return interpolate(self.rotations, self.translations, idx, alpha)[:2]


@dataclass
class ControlGrid:
    """Uniformly spaced knot times of the B-spline correction: finite and
    strictly increasing.

    Boundary access is index-clamped, which replicates the boundary knots.
    """

    times: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.times.shape[0] < 2:
            raise InvalidArgumentError("control grid needs at least two knots")
        if not np.isfinite(self.times).all():
            raise InvalidArgumentError("knot times must be finite")
        dt = np.diff(self.times)
        if not (dt > 0.0).all():
            raise InvalidArgumentError("knot times must be strictly increasing")
        if np.any(np.abs(dt - dt[0]) > 1e-9 * dt[0]):
            raise InvalidArgumentError("knot spacing must be uniform")

    @staticmethod
    def for_window(start, stop, knots) -> "ControlGrid":
        """Grid with the given knot count, extending one knot step past each
        window end.

        Knots clamped at the grid boundary leave the spline too stiff right at
        the ends of the data span; one step of margin restores full cubic
        freedom over [start, stop] while keeping every knot observable.
        """
        if knots < 4:
            raise InvalidArgumentError("window grid needs at least four knots")
        if not (np.isfinite(start) and np.isfinite(stop) and stop > start):
            raise InvalidArgumentError(
                "window grid needs a finite start and a finite stop after its start"
            )
        step = (stop - start) / (knots - 3)
        return ControlGrid((start - step) + step * np.arange(knots))

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
