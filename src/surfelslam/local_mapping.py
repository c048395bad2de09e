"""Local-window trajectory optimization.

Four residual families constrain the window: surfel-to-surfel point-to-plane
errors, surfel-to-map-prior point-to-plane errors, and IMU acceleration and
body-rate errors.  They are evaluated as arrays over the whole window; the
scalar per-constraint evaluators that pin them are test oracles in
``simulation.oracles``.  A damped Gauss-Newton solver estimates a spline
correction at the knots, and the IMU biases when the window has IMU samples.
Its Jacobian is analytic: each residual row reads a few pose points, and a
knot increment moves a pose point by the point's spline weight on that knot.

The constraint and IMU records are plain values that check nothing.  A
window checks its inputs once, where ``_WindowSystem`` stacks them into
arrays: every field and time finite (of the IMU samples, those the window
reads), the state's biases finite 3-vectors, the normals of unit length, and
the two times of each pair distinct.  A constraint of any other type is
refused.

A cubic B-spline value reads four consecutive knots, so every residual row
depends on a short run of knots, its band.  The parameter vector is
knot-major: knot k's correction ``(du_r, du_t)`` sits at ``6k..6k+5``, then
the biases.  Each iteration builds the normal equations ``H = J^T J`` and
``g = J^T r`` from these bands, one small block per first knot, straight into
that layout, so H is a band of 6x6 knot blocks plus a bias border.  It never
forms the dense Jacobian; only the tests build it, from the same bands, to pin
them against finite differences.

The trajectory stays densely sampled (Park et al., ICRA 2018): the optimizer
estimates spline *corrections*, composes each accepted one onto the samples
by left multiplication, ``T' = dT T``, and restarts the correction from zero
at every iteration.  A query between two samples is a pose point of its own:
interpolated once from the initial samples, then corrected by the spline at
its own time, exactly as a sample is.  So the window is linearized at the
folded pose points only, where a knot increment moves each point by its
spline weight alone, and no derivative passes through an interpolation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import lie
from .errors import (
    DegenerateGeometryError,
    InvalidArgumentError,
    MissingSupportError,
    NoProgressError,
)
from .trajectory import (
    ControlGrid,
    Trajectory,
    brackets,
    compose_correction,
    interpolate,
)

log = logging.getLogger(__name__)

GRAVITY = np.array([0.0, 0.0, -9.80665])

# Standard deviation of each residual family: m, m, m/s^2 and rad/s.
SIGMA_SURFEL, SIGMA_PRIOR, SIGMA_ACCEL, SIGMA_GYRO = 0.02, 0.02, 0.05, 0.005
CAUCHY_SCALE = 3.0  # floor of the annealed Cauchy scale, whitened, i.e. 3 sigma
# Damping of the first solve; retries of a rejected step, each damped ten times more.
DAMPING_INIT, DAMPING_RETRIES = 1e-6, 5


@dataclass(frozen=True)
class SurfelPairConstraint:
    """Two observations of the same surface, tied along their averaged unit
    normal ``n_ab``, at two distinct times."""

    u_a: np.ndarray
    u_b: np.ndarray
    tau_a: float
    tau_b: float
    n_ab: np.ndarray


@dataclass(frozen=True)
class MapPriorConstraint:
    """A sensor-frame observation tied to a world-frame map point along the
    map's unit normal ``n_mc``."""

    u_m: np.ndarray
    u_c: np.ndarray
    tau_c: float
    n_mc: np.ndarray


@dataclass(frozen=True)
class ImuSample:
    tau: float
    accel: np.ndarray
    gyro: np.ndarray


@dataclass
class OptState:
    """Optimization state: knot grid and IMU biases."""

    grid: ControlGrid
    accel_bias: np.ndarray = field(default_factory=lambda: np.zeros(3))
    gyro_bias: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.accel_bias = np.asarray(self.accel_bias, dtype=float)
        self.gyro_bias = np.asarray(self.gyro_bias, dtype=float)


@dataclass
class OptimizerConfig:
    """Window optimizer settings; the residual whitening (``SIGMA_*``), the
    Cauchy floor and the damping are module constants.

    ``chi2_tol`` is the stopping tolerance, in the units of the window cost:
    a sum of squared whitened residuals, so one unit is one χ² unit.  A
    window stops once the decrease its Gauss-Newton model predicts for the
    next step, or the decrease an accepted step achieved, is below it (see
    :func:`optimize_window`).
    """

    window: float = 5.0
    max_iterations: int = 50
    chi2_tol: float = 1e-3


@dataclass
class IterationRecord:
    iteration: int
    cost: float
    rms_surfel: float
    rms_prior: float
    rms_accel: float
    rms_gyro: float
    step_norm: float


@dataclass
class OptimizationReport:
    """Per-iteration records and why the window stopped.

    ``stop_decrease`` is the decrease, in χ² units, that ended the window:
    the model's prediction for a ``"predicted_decrease"`` stop (the chord
    model's after an accepted step, the freshly built model's otherwise; see
    :func:`optimize_window`), the accepted step's actual decrease for a
    ``"cost_decrease"`` stop, NaN for any other reason.
    """

    records: list
    converged: bool
    reason: str
    stop_decrease: float

    @property
    def final_cost(self):
        return self.records[-1].cost


def _knot_band(idx, weights):
    """First knot (N,) and weights (N, 4) on four consecutive knots from it,
    of clamped knot indices and weights (N, 4).  A clamped boundary knot
    repeats the index of the knot next to it, so its weight folds onto that
    knot and the band's last weight may be zero."""
    first = idx[:, 0]
    band = np.zeros(idx.shape)
    rows = np.arange(idx.shape[0])
    for j in range(idx.shape[1]):
        band[rows, idx[:, j] - first] += weights[:, j]
    return first, band


class _Iterate(NamedTuple):
    """An evaluated iterate: its corrected pose points, the query poses it
    reads and its residuals."""

    x: np.ndarray
    state: OptState
    points: tuple
    rot: np.ndarray
    t: np.ndarray
    residuals: np.ndarray


def _row_spread(first, band):
    """First knot (m,) and spread (m, 1, W, S) of rows that read S pose
    points each, of the points' first knots (m, S) and bands (m, S, 4): each
    point's weights shifted by its first knot's offset from the row's."""
    row_first = first.min(axis=1)
    at = (first - row_first[:, None])[:, :, None] + np.arange(band.shape[2])
    spread = np.zeros(first.shape + (int(at.max()) + 1,))
    np.put_along_axis(spread, at, band, axis=2)
    # Drop the trailing knots that no row reads.
    width = np.flatnonzero(spread.any(axis=(0, 1)))[-1] + 1
    return row_first, spread.transpose(0, 2, 1)[:, None, :width]


def _vectors(values):
    """A list of 3-vectors stacked into an (n, 3) array; any other shape
    raises ``InvalidArgumentError``."""
    if not values:
        return np.zeros((0, 3))
    try:
        stacked = np.array(values, dtype=float)
    except ValueError:
        stacked = None
    if stacked is None or stacked.shape != (len(values), 3):
        raise InvalidArgumentError("constraint and IMU vectors must have three entries")
    return stacked


class _WindowSystem:
    """Vectorized residuals over one window and their normal equations.

    Every residual reads poses at query times, laid out as
    ``[pair a | pair b | prior | IMU stencil -h | 0 | +h]``.  Each query
    reads one pose point (``query_points``): a query that snaps to a sample
    reads that sample, and a query between two samples is a pose point of
    its own, after the samples, interpolated once from the initial samples
    at set-up.  The corrections move the pose points, never their times, so
    every point keeps the spline band of its own time, its first knot and
    its four spline weights on the knots from it (``point_bands``), for the
    window.

    The window is linearized at the folded pose points only, at zero
    correction (:meth:`fold`); a non-zero correction is refused.  The
    residual layer differentiates each whitened, robust-weighted row with
    respect to a world-frame left perturbation ``(phi, rho)`` of every query
    pose it reads (``R <- exp(phi) R``, ``t <- exp(phi) t + rho``), by cross
    products.  At zero correction the increment ``(du_r, du_t)`` of a knot
    moves a pose point by ``(phi, rho) = (du_r, du_t)`` times the point's
    spline weight on it, so the pose layer is the point bands alone.

    Clamped boundary knots fold onto the knot they repeat.  A row's band is
    the sum over the points it reads of the point's gradient, spread by the
    point's weights at its first-knot offset from the row's first knot, so
    its columns are the parameters of consecutive knots.
    :meth:`normal_equations` sorts the rows by first knot and adds one
    ``L.T @ L`` and one ``L.T @ [r | border]`` per first knot, where the
    border is the constant bias columns, present when the window has IMU
    samples.  The spreads and this order depend on the point bands only and
    are built once per window (:meth:`_rows`).  The sorted bands stay in the
    plan's buffers until the next build, so :meth:`chord_gradient` takes the
    gradient of the last build's Jacobian with new residuals without
    linearizing again.
    :meth:`jacobian` scatters the same row bands into a dense Jacobian, which
    only the tests read.

    :meth:`evaluate` returns an iterate that carries the query poses it
    read, and the linearization reuses them.  An accepted candidate, folded
    into the pose points (:meth:`fold`), is the next iterate as it stands,
    so no iterate is evaluated twice.
    """

    def __init__(self, pair_constraints, prior_constraints, imu, traj, state):
        self.grid = state.grid
        self.n_knots = len(state.grid)
        self.traj_times = traj.times
        self.rate = traj.nominal_rate
        self.h = 1.0 / self.rate

        self.pair_u_a = _vectors([c.u_a for c in pair_constraints])
        self.pair_u_b = _vectors([c.u_b for c in pair_constraints])
        self.pair_n = _vectors([c.n_ab for c in pair_constraints])
        self.pair_taus = np.array(
            [[c.tau_a, c.tau_b] for c in pair_constraints], dtype=float
        ).reshape(-1, 2)

        self.prior_u_m = _vectors([c.u_m for c in prior_constraints])
        self.prior_u_c = _vectors([c.u_c for c in prior_constraints])
        self.prior_n = _vectors([c.n_mc for c in prior_constraints])
        self.prior_taus = np.array([c.tau_c for c in prior_constraints], dtype=float)

        taus = np.array([s.tau for s in imu], dtype=float)
        keep = (taus - self.h >= traj.start) & (taus + self.h <= traj.end)
        usable = [s for s, k in zip(imu, keep) if k]
        self.imu_taus = taus[keep]
        self.imu_accel = _vectors([s.accel for s in usable])
        self.imu_gyro = _vectors([s.gyro for s in usable])
        # The one check of the window's inputs, over every array converted
        # above and the state's biases: the records themselves check nothing.
        biases = (state.accel_bias, state.gyro_bias)
        if any(b.shape != (3,) for b in biases):
            raise InvalidArgumentError("IMU biases must have three entries")
        converted = (self.pair_u_a, self.pair_u_b, self.pair_n, self.pair_taus,
                     self.prior_u_m, self.prior_u_c, self.prior_n, self.prior_taus, taus,
                     self.imu_accel, self.imu_gyro, *biases)
        if not all(np.isfinite(a).all() for a in converted):
            raise InvalidArgumentError(
                "constraint fields, times, IMU samples and biases must be finite"
            )
        for normal in (self.pair_n, self.prior_n):
            if (np.abs(np.linalg.norm(normal, axis=1) - 1.0) > 1e-9).any():
                raise InvalidArgumentError("constraint normals must be unit vectors")
        if (self.pair_taus[:, 0] == self.pair_taus[:, 1]).any():
            raise InvalidArgumentError("pair constraint needs two distinct times")

        self.n_pair = len(self.pair_taus)
        self.n_prior = len(self.prior_taus)
        self.n_imu = len(self.imu_taus)
        self.sl_pair = slice(0, self.n_pair)
        self.sl_prior = slice(self.n_pair, self.n_pair + self.n_prior)
        base = self.n_pair + self.n_prior
        self.sl_accel = slice(base, base + 3 * self.n_imu)
        self.sl_gyro = slice(base + 3 * self.n_imu, base + 6 * self.n_imu)
        self.n_residuals = base + 6 * self.n_imu

        p, m = self.n_pair, self.n_imu
        first = 2 * p + self.n_prior
        self.q_a = slice(0, p)
        self.q_b = slice(p, 2 * p)
        self.q_prior = slice(2 * p, first)
        self.q_stencil = [slice(first + i * m, first + (i + 1) * m) for i in range(3)]
        query_taus = np.concatenate([
            self.pair_taus[:, 0], self.pair_taus[:, 1], self.prior_taus,
            self.imu_taus - self.h, self.imu_taus, self.imu_taus + self.h,
        ])
        idx, alpha = brackets(traj.times, query_taus, 1e-9 * self.h)
        # The pose points: the samples, then one per query between samples.
        interior = (alpha > 0.0) & (alpha < 1.0)
        self.query_points = np.where(alpha == 1.0, idx + 1, idx)
        self.query_points[interior] = len(traj) + np.arange(np.count_nonzero(interior))
        rot, t = interpolate(traj.rotations, traj.translations, idx[interior], alpha[interior])
        self.base_rot = np.concatenate([traj.rotations, rot])
        self.base_t = np.concatenate([traj.translations, t])
        self.point_times = np.concatenate([traj.times, query_taus[interior]])
        # Per residual family, its rows (n, a) and the queries they read.
        self.families = []
        if p:
            self.families.append((np.arange(p)[:, None], [self.q_a, self.q_b]))
        if self.n_prior:
            rows = np.arange(self.sl_prior.start, self.sl_prior.stop)[:, None]
            self.families.append((rows, [self.q_prior]))
        if m:
            for sl, reads in ((self.sl_accel, self.q_stencil), (self.sl_gyro, self.q_stencil[1:])):
                self.families.append((sl.start + np.arange(3 * m).reshape(m, 3), reads))
        # The bias columns, one per bias component, when there are IMU rows.
        comp = np.arange(3 * m)
        self.border = np.zeros((self.n_residuals, 6 if m else 0))
        self.border[self.sl_accel.start + comp, comp % 3] = -1.0 / SIGMA_ACCEL
        self.border[self.sl_gyro.start + comp, 3 + comp % 3] = -1.0 / SIGMA_GYRO

        # Each pose point's first knot and spline weights on four knots from it.
        self.point_bands = _knot_band(*self.grid.knot_indices_and_weights(self.point_times))
        self.structure = self._rows()

        self.robust_weights = np.ones(self.n_pair + self.n_prior)
        self.cauchy_eff = np.inf

    # -- parameter vector layout ------------------------------------------
    #
    # Knot k's correction (du_r, du_t) sits at 6k..6k+5, as in the row bands,
    # and the IMU biases b_a, b_g follow when the window has IMU samples.

    def n_params(self):
        return 6 * self.n_knots + self.border.shape[1]

    def split_params(self, x, state):
        """Knot corrections (K, 6), ``(du_r, du_t)`` per knot, and the biases."""
        k = self.n_knots
        knots = x[: 6 * k].reshape(k, 6)
        if self.n_imu:
            b = x[6 * k :]
            return knots, state.accel_bias + b[:3], state.gyro_bias + b[3:]
        return knots, state.accel_bias, state.gyro_bias

    def _corrected_points(self, knots):
        # At zero correction, as at each window's first evaluation, the pose
        # points are the stored ones, which the correction would give exactly.
        if not knots.any():
            return self.base_rot, self.base_t
        first, band = self.point_bands
        # A band's trailing weights may fall past the last knot, where they
        # are zero; they read zero rows.
        knots = np.concatenate([knots, np.zeros((3, 6))])
        corr = np.einsum("nj,njc->nc", band, knots[first[:, None] + np.arange(4)])
        return compose_correction(
            lie.so3_exp_batch(corr[:, :3]), corr[:, 3:], self.base_rot, self.base_t
        )

    def fold(self, it):
        """Compose the correction of iterate ``it`` into the pose points.
        The returned iterate is ``x = 0`` of a state with ``it``'s biases,
        which reads ``it``'s poses, so its residuals are ``it``'s."""
        _, b_a, b_g = self.split_params(it.x, it.state)
        self.base_rot, self.base_t = it.points
        return it._replace(x=np.zeros_like(it.x), state=OptState(it.state.grid, b_a, b_g))

    def evaluate(self, x, state):
        """The iterate at ``x``: the query poses it reads and its whitened
        residuals (no robust weighting)."""
        knots, b_a, b_g = self.split_params(x, state)
        points = self._corrected_points(knots)
        rot, t = (p[self.query_points] for p in points)
        residuals = self._residuals_at(rot, t, b_a, b_g)
        return _Iterate(x, state, points, rot, t, residuals)

    def _residuals_at(self, rot, t, b_a, b_g):
        out = np.empty(self.n_residuals)
        if self.n_pair:
            qa, qb = self.q_a, self.q_b
            world_a = np.einsum("nij,nj->ni", rot[qa], self.pair_u_a) + t[qa]
            world_b = np.einsum("nij,nj->ni", rot[qb], self.pair_u_b) + t[qb]
            out[self.sl_pair] = (
                np.sum(self.pair_n * (world_a - world_b), axis=1) / SIGMA_SURFEL
            )
        if self.n_prior:
            q = self.q_prior
            world = np.einsum("nij,nj->ni", rot[q], self.prior_u_c) + t[q]
            out[self.sl_prior] = (
                np.sum(self.prior_n * (self.prior_u_m - world), axis=1) / SIGMA_PRIOR
            )
        if self.n_imu:
            q_minus, q_mid, q_plus = self.q_stencil
            rot_mid, rot_plus = rot[q_mid], rot[q_plus]
            accel_world = (t[q_plus] - 2.0 * t[q_mid] + t[q_minus]) / (self.h * self.h)
            body = np.einsum("nji,nj->ni", rot_mid, accel_world - GRAVITY)
            # The sensor adds its biases to what it measures.
            accel_res = self.imu_accel - body - b_a
            rel = rot_mid.transpose(0, 2, 1) @ rot_plus
            omega = lie.so3_log_batch(rel) / self.h
            gyro_res = self.imu_gyro - omega - b_g
            out[self.sl_accel] = accel_res.reshape(-1) / SIGMA_ACCEL
            out[self.sl_gyro] = gyro_res.reshape(-1) / SIGMA_GYRO
        return out

    # -- robust kernel ----------------------------------------------------
    #
    # The Cauchy scale is annealed: it starts at the spread of the current
    # residuals and tightens monotonically to the 3-sigma floor CAUCHY_SCALE
    # as the fit improves.  A fixed small scale would let the solver park badly
    # initialized stretches of the window behind the kernel.  Because the
    # Cauchy cost is increasing in the scale, a non-increasing scale keeps
    # the recorded cost non-increasing across accepted iterations.

    def update_robust_weights(self, residuals):
        r = residuals[: self.n_pair + self.n_prior]
        if r.size:
            spread = 3.0 * np.median(np.abs(r)) / 0.6745
        else:
            spread = 0.0
        scale = max(CAUCHY_SCALE, spread)
        self.cauchy_eff = min(self.cauchy_eff, scale)
        self.robust_weights = 1.0 / np.sqrt(1.0 + (r / self.cauchy_eff) ** 2)

    def weighted(self, residuals):
        out = residuals.copy()
        out[: self.n_pair + self.n_prior] *= self.robust_weights
        return out

    def cost(self, residuals):
        c = self.cauchy_eff
        robust = residuals[: self.n_pair + self.n_prior]
        quad = residuals[self.n_pair + self.n_prior :]
        return float(
            np.sum(c * c * np.log1p((robust / c) ** 2)) + np.sum(quad * quad)
        )

    def family_rms(self, residuals):
        """Unwhitened RMS per family (surfel, prior, accel, gyro)."""

        def rms(sl, sigma):
            r = residuals[sl]
            return float(np.sqrt(np.mean(r * r)) * sigma) if r.size else 0.0

        return (
            rms(self.sl_pair, SIGMA_SURFEL),
            rms(self.sl_prior, SIGMA_PRIOR),
            rms(self.sl_accel, SIGMA_ACCEL),
            rms(self.sl_gyro, SIGMA_GYRO),
        )

    # -- linearization ------------------------------------------------------

    def _residual_layer(self, rot, t):
        """Derivatives of the whitened, robust-weighted rows with respect to a
        left perturbation of each query pose they read: per entry of
        ``families``, one gradient (n, a, 6) per query slice it reads."""
        families = []

        def plane(q, u, normal, coef):
            # n . (R u + t) moves by (w x n) . phi + n . rho at w = R u + t.
            world = np.einsum("nij,nj->ni", rot[q], u) + t[q]
            grad = np.concatenate([np.cross(world, normal), normal], axis=1)
            return (coef[:, None] * grad)[:, None]

        if self.n_pair:
            coef = self.robust_weights[self.sl_pair] / SIGMA_SURFEL
            families.append([
                plane(self.q_a, self.pair_u_a, self.pair_n, coef),
                plane(self.q_b, self.pair_u_b, self.pair_n, -coef),
            ])
        if self.n_prior:
            coef = self.robust_weights[self.sl_prior] / SIGMA_PRIOR
            families.append([plane(self.q_prior, self.prior_u_c, self.prior_n, -coef)])
        if self.n_imu:
            m = self.n_imu
            q_minus, q_mid, q_plus = self.q_stencil
            rot_mid_t = rot[q_mid].transpose(0, 2, 1)
            # Acceleration: a = (t+ - 2 t0 + t-) / h^2 in the body frame of R0.
            accel_world = (t[q_plus] - 2.0 * t[q_mid] + t[q_minus]) / (self.h * self.h)
            # Row i of R0^T hat(v) is (column i of R0) x v.
            grads = []
            for q, c in zip(self.q_stencil, (1.0, -2.0, 1.0)):
                c /= self.h * self.h * SIGMA_ACCEL
                v = c * t[q]
                if q is q_mid:
                    v -= (accel_world - GRAVITY) / SIGMA_ACCEL
                grad = np.empty((m, 3, 6))
                grad[:, :, :3] = np.cross(rot_mid_t, v[:, None])
                grad[:, :, 3:] = -c * rot_mid_t
                grads.append(grad)
            families.append(grads)
            # Body rate: log(R0^T R+) / h moves by Jl^-1 R0^T (phi+ - phi0) / h;
            # column j of Jl^-1 R0^T is Jl^-1 applied to row j of R0.
            rel = rot_mid_t @ rot[q_plus]
            rate = lie.so3_left_jacobian_inv_apply(
                lie.so3_log_batch(rel).T[:, :, None], rot[q_mid].transpose(2, 0, 1)
            ).transpose(1, 0, 2) / (self.h * SIGMA_GYRO)
            grads = []
            for sign in (1.0, -1.0):
                grad = np.zeros((m, 3, 6))
                grad[:, :, :3] = sign * rate
                grads.append(grad)
            families.append(grads)
        return families

    def _rows(self):
        """Row structure of ``families``, built once per window: per family
        its rows, first knots and spread (``_row_spread``); six times the
        knots the bands reach; and per band width 6W the plan of
        :meth:`normal_equations`: the families, where their rows go in stable
        first-knot order, a buffer for their bands in that order, the rows in
        it and the first-knot spans."""
        first, band = self.point_bands
        fams = []
        for rows, reads in self.families:
            points = np.stack([self.query_points[q] for q in reads], axis=1)
            row_first, spread = _row_spread(first[points], band[points])
            fams.append((rows.reshape(-1), np.repeat(row_first, rows.shape[1]), spread))
        # Knots the bands reach; past the last knot only zero weights reach.
        size = 6 * max([self.n_knots] + [int(f.max()) + s.shape[2] for _, f, s in fams])
        plan = []
        for width in sorted({s.shape[2] for _, _, s in fams}):
            same = [i for i, f in enumerate(fams) if f[2].shape[2] == width]
            rows, first = (np.concatenate([fams[i][j] for i in same]) for j in (0, 1))
            order = np.argsort(first, kind="stable")
            first = first[order]
            bounds = np.flatnonzero(np.diff(first)) + 1
            lo = np.r_[0, bounds]
            spans = list(zip(lo, np.r_[bounds, first.size], 6 * first[lo]))
            at = np.split(np.argsort(order), np.cumsum([fams[i][0].size for i in same])[:-1])
            buffer = np.empty((order.size, 6 * width))  # refilled, not reallocated, per call
            plan.append((6 * width, same, at, buffer, rows[order], spans))
        return fams, size, plan

    def _linearize(self, it):
        """Row bands ``[(n, 6W)]`` of the robust-weighted residuals at iterate
        ``it``, which must have zero correction, one per residual family,
        with the knots in the knot-major layout.  The robust weights are held
        fixed."""
        if np.any(it.x[: 6 * self.n_knots]):
            raise InvalidArgumentError("linearized at zero correction only; fold it first")
        return [
            (spread @ np.stack(grads, axis=2)).reshape(rows.size, -1)
            for grads, (rows, _, spread) in zip(
                self._residual_layer(it.rot, it.t), self.structure[0]
            )
        ]

    def normal_equations(self, it, weighted):
        """``H = J.T @ J`` and ``g = J.T @ weighted`` of the robust-weighted
        residuals ``weighted`` at iterate ``it`` of zero correction, built
        from the row bands grouped by first knot, without forming J."""
        _, size, plan = self.structure
        bands = self._linearize(it)
        rhs = np.column_stack([weighted, self.border])
        h_kk = np.zeros((size, size))
        h_kr = np.zeros((size, rhs.shape[1]))
        # Rows of one band width are sorted together by first knot; each
        # first knot adds one block.
        for width, same, at, band, rows, spans in plan:
            for i, a in zip(same, at):
                band[a] = bands[i]
            r = rhs[rows]
            for lo, hi, k in spans:
                block = band[lo:hi]
                h_kk[k : k + width, k : k + width] += block.T @ block
                h_kr[k : k + width] += block.T @ r[lo:hi]

        n = 6 * self.n_knots
        h_rr = rhs.T @ rhs
        hess = np.block([[h_kk[:n, :n], h_kr[:n, 1:]], [h_kr[:n, 1:].T, h_rr[1:, 1:]]])
        return hess, np.concatenate([h_kr[:n, 0], h_rr[1:, 0]])

    def chord_gradient(self, weighted):
        """``J.T @ weighted`` with the Jacobian ``J`` of the last
        :meth:`normal_equations` build, read from the row bands that build
        left in its buffers: one ``block.T @ r`` per first knot, and the bias
        columns' products."""
        _, size, plan = self.structure
        grad = np.zeros(size)
        for width, _, _, band, rows, spans in plan:
            r = weighted[rows]
            for lo, hi, k in spans:
                grad[k : k + width] += band[lo:hi].T @ r[lo:hi]
        return np.concatenate([grad[: 6 * self.n_knots], self.border.T @ weighted])

    def jacobian(self, x, state):
        """Dense Jacobian of the robust-weighted residuals, the row bands of
        :meth:`normal_equations` scattered into their columns and the bias
        columns, at an ``x`` of zero correction.  Only tests read it."""
        fams, size, _ = self.structure
        bands = self._linearize(self.evaluate(x, state))
        knots = np.zeros((self.n_residuals, size))
        for (rows, first, _), band in zip(fams, bands):
            knots[rows[:, None], 6 * first[:, None] + np.arange(band.shape[1])] = band
        return np.hstack([knots[:, : 6 * self.n_knots], self.border])


def optimize_window(constraints, imu, traj, init, cfg=None):
    """Damped Gauss-Newton over the knot corrections, and the IMU biases
    when the window has IMU samples.

    ``constraints`` mixes :class:`SurfelPairConstraint` and
    :class:`MapPriorConstraint` instances; any other object raises
    :class:`InvalidArgumentError`.  Returns the final state, the
    corrected trajectory, and a per-iteration report.

    The cost is the sum of squared whitened residuals, Cauchy-robust on the
    surfel and prior rows, so its unit is one χ² unit.  Each iteration solves
    the damped normal equations for a step ``delta`` and takes its model
    decrease ``-2 delta.g - delta.H delta`` in the same units.  The window
    stops, converged, with reason

    - ``"predicted_decrease"`` when that model decrease is below
      ``cfg.chi2_tol``; the step is then not evaluated;
    - ``"predicted_decrease"`` as well when, after an accepted step, the
      chord model predicts less than ``cfg.chi2_tol``: the last build's H at
      the current damping, with the gradient ``J_k^T w_{k+1}`` of the last
      build's Jacobian and the accepted step's weighted residuals
      (:meth:`_WindowSystem.chord_gradient`).  The window then stops without
      building the normal equations again; otherwise they are built and
      tested as above;
    - ``"cost_decrease"`` when an accepted step lowered the cost by less
      than ``cfg.chi2_tol``;
    - ``"zero_cost"`` when the cost is below 1e-16.

    A rejected step is solved again with ten times the damping, up to
    ``DAMPING_RETRIES`` times; the damping falls by three after an
    accepted step.  When every retry fails to lower the cost while the model
    still predicts at least ``cfg.chi2_tol``, :class:`NoProgressError` is
    raised.  After ``cfg.max_iterations`` accepted steps the window stops
    unconverged (``"max_iterations"``).
    """
    if cfg is None:
        cfg = OptimizerConfig()
    if traj.end - traj.start > cfg.window + 1e-9:
        raise InvalidArgumentError("trajectory longer than the configured window")
    if not init.grid.covers(traj.times).all():
        raise MissingSupportError("grid does not span the window", traj.times)

    pairs = [c for c in constraints if isinstance(c, SurfelPairConstraint)]
    priors = [c for c in constraints if isinstance(c, MapPriorConstraint)]
    if len(pairs) + len(priors) != len(constraints):
        raise InvalidArgumentError(
            "constraints must be SurfelPairConstraint or MapPriorConstraint records"
        )
    system = _WindowSystem(pairs, priors, imu, traj, init)
    if system.n_residuals < 6 * system.n_knots:
        raise InvalidArgumentError(
            f"{system.n_residuals} residuals cannot observe {6 * system.n_knots} knot states"
        )

    state = OptState(init.grid, init.accel_bias.copy(), init.gyro_bias.copy())
    it = system.evaluate(np.zeros(system.n_params()), state)
    system.update_robust_weights(it.residuals)
    cost = system.cost(it.residuals)
    records = [IterationRecord(0, cost, *system.family_rms(it.residuals), 0.0)]

    lam = DAMPING_INIT
    reason, stop_decrease = "max_iterations", np.nan
    hess = None
    for iteration in range(1, cfg.max_iterations + 1):
        if cost < 1e-16:
            reason = "zero_cost"
            break
        weighted = system.weighted(it.residuals)
        if hess is not None:
            # The chord test: the last build's H and Jacobian with the new
            # residuals, at the current damping.
            chord_grad = system.chord_gradient(weighted)
            try:
                _, chord = _model_step(hess, chord_grad, lam * np.diag(diag))
            except np.linalg.LinAlgError:
                chord = np.inf
            if chord < cfg.chi2_tol:
                reason, stop_decrease = "predicted_decrease", chord
                break
        hess, grad = system.normal_equations(it, weighted)
        if iteration == 1:
            eigvals = np.linalg.eigvalsh(hess)
            null_dim = int(np.sum(eigvals < max(eigvals[-1], 1e-30) * 1e-12))
            if null_dim > 0:
                raise DegenerateGeometryError(
                    f"normal equations rank deficient (null space dimension {null_dim})",
                    null_dim,
                )
        diag = np.diag(hess).copy()
        diag[diag <= 0.0] = 1.0

        for _ in range(DAMPING_RETRIES + 1):
            try:
                delta, decrease = _model_step(hess, grad, lam * np.diag(diag))
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            if decrease < cfg.chi2_tol:
                break
            candidate = system.evaluate(it.x + delta, it.state)
            if system.cost(candidate.residuals) < cost:
                break
            lam *= 10.0
        else:
            raise NoProgressError(
                "cost failed to decrease after damping retries",
                best_state=it.state,
                best_trajectory=_trajectory_from(system),
                report=OptimizationReport(records, False, "no_progress", np.nan),
            )
        if decrease < cfg.chi2_tol:
            reason, stop_decrease = "predicted_decrease", decrease
            break

        lam = max(lam / 3.0, 1e-12)
        # Fold the accepted correction into the trajectory and restart it
        # from zero; the next iteration linearizes at the candidate's poses.
        it = system.fold(candidate)
        system.update_robust_weights(it.residuals)
        new_cost = system.cost(it.residuals)
        decrease, cost = cost - new_cost, new_cost
        records.append(IterationRecord(
            iteration, cost, *system.family_rms(it.residuals), float(np.linalg.norm(delta))
        ))
        if decrease < cfg.chi2_tol:
            reason, stop_decrease = "cost_decrease", decrease
            break

    report = OptimizationReport(records, reason != "max_iterations", reason, float(stop_decrease))
    return it.state, _trajectory_from(system), report


def _model_step(hess, grad, damping):
    """The step ``delta`` of the normal equations ``hess``, ``grad`` damped
    by the matrix ``damping``, and the decrease of the cost that the
    Gauss-Newton model predicts for it, ``-2 delta.g - delta.H delta``, in
    χ² units."""
    delta = np.linalg.solve(hess + damping, -grad)
    return delta, -2.0 * (delta @ grad) - delta @ (hess @ delta)


def _trajectory_from(system):
    n = len(system.traj_times)
    return Trajectory(
        system.traj_times.copy(), system.base_rot[:n].copy(), system.base_t[:n].copy(),
        system.rate,
    )
