"""Local-window trajectory optimization.

Four residual families constrain the window: surfel-to-surfel point-to-plane
errors, surfel-to-map-prior point-to-plane errors, and IMU acceleration and
body-rate errors.  They are evaluated as arrays over the whole window; the
scalar per-constraint evaluators that pin them are test oracles in
``simulation.oracles``.  A damped Gauss-Newton solver estimates the spline
control points together with the IMU biases and an optional time lag.  Its
Jacobian is analytic in the control points (chain rule through the SE(3)
geodesic interpolation, in the manner of Sommer et al., CVPR 2020) and in the
biases; the time-lag column is a forward difference of step
``OptimizerConfig.fd_step``.

A cubic B-spline value reads four consecutive knots, so every residual row
depends on a short run of knots, its band.  Each iteration builds the normal
equations ``H = J^T J`` and ``g = J^T r`` from these bands, one small block per
first knot, and never forms the dense Jacobian; only the tests build it, from
the same bands, to pin them against finite differences.

The trajectory stays densely sampled (Park et al., ICRA 2018): the optimizer
estimates spline *corrections*, composes each accepted one onto the samples
by left multiplication, ``T' = dT T``, and restarts the control points from
zero at every iteration.  Queries between samples follow the SE(3) geodesic.
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


def _unit(v, what):
    v = np.asarray(v, dtype=float)
    if abs(np.linalg.norm(v) - 1.0) > 1e-9:
        raise InvalidArgumentError(f"{what} must be a unit vector")
    return v


@dataclass(frozen=True)
class SurfelPairConstraint:
    """Two observations of the same surface, tied along their averaged normal."""

    u_a: np.ndarray
    u_b: np.ndarray
    tau_a: float
    tau_b: float
    n_ab: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u_a", np.asarray(self.u_a, dtype=float))
        object.__setattr__(self, "u_b", np.asarray(self.u_b, dtype=float))
        object.__setattr__(self, "n_ab", _unit(self.n_ab, "n_ab"))
        if self.tau_a == self.tau_b:
            raise InvalidArgumentError("pair constraint needs two distinct times")


@dataclass(frozen=True)
class MapPriorConstraint:
    """A sensor-frame observation tied to a world-frame map point."""

    u_m: np.ndarray
    u_c: np.ndarray
    tau_c: float
    n_mc: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u_m", np.asarray(self.u_m, dtype=float))
        object.__setattr__(self, "u_c", np.asarray(self.u_c, dtype=float))
        object.__setattr__(self, "n_mc", _unit(self.n_mc, "n_mc"))


@dataclass(frozen=True)
class ImuSample:
    tau: float
    accel: np.ndarray
    gyro: np.ndarray

    def __post_init__(self):
        accel = np.asarray(self.accel, dtype=float)
        gyro = np.asarray(self.gyro, dtype=float)
        if not (np.all(np.isfinite(accel)) and np.all(np.isfinite(gyro))):
            raise InvalidArgumentError("IMU sample must be finite")
        object.__setattr__(self, "accel", accel)
        object.__setattr__(self, "gyro", gyro)


@dataclass
class OptState:
    """Optimization state: control grid, IMU biases, time lag."""

    grid: ControlGrid
    accel_bias: np.ndarray = field(default_factory=lambda: np.zeros(3))
    gyro_bias: np.ndarray = field(default_factory=lambda: np.zeros(3))
    time_lag: float = 0.0

    def __post_init__(self):
        self.accel_bias = np.asarray(self.accel_bias, dtype=float)
        self.gyro_bias = np.asarray(self.gyro_bias, dtype=float)


@dataclass
class OptimizerConfig:
    window: float = 5.0
    max_iterations: int = 50
    step_tol: float = 1e-8
    cost_tol: float = 1e-10
    damping_init: float = 1e-6
    damping_retries: int = 5
    # Forward-difference step of the time-lag column, the one Jacobian
    # column that is not analytic.
    fd_step: float = 1e-6
    estimate_biases: bool = True
    estimate_time_lag: bool = False
    max_time_lag: float = 0.05
    max_bias: float = 1.0
    sigma_surfel: float = 0.02
    sigma_prior: float = 0.02
    sigma_accel: float = 0.05
    sigma_gyro: float = 0.005
    cauchy_scale: float = 3.0  # in whitened units, i.e. 3 sigma


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
    records: list
    converged: bool
    reason: str

    @property
    def final_cost(self):
        return self.records[-1].cost


def _spline_maps(jl, s):
    """(N, 6, 6) maps from a spline increment ``(du_t, du_r)`` to the left
    perturbation ``(phi, rho)`` of the pose it moves:
    ``phi = Jl du_r``, ``rho = du_t + [s]x phi``."""
    out = np.zeros((jl.shape[0], 6, 6))
    out[:, :3, 3:] = jl
    out[:, 3:, :3] = np.eye(3)
    out[:, 3:, 3:] = lie.hat_batch(s) @ jl
    return out


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
    """An evaluated iterate: the query poses it reads and its residuals.

    ``where`` brackets the queries among the samples (see
    ``_WindowSystem._where``); ``samples`` are the corrected samples;
    ``chart`` is the brackets' twists the poses were interpolated with (see
    ``_WindowSystem._interpolate``).
    """

    x: np.ndarray
    state: OptState
    where: tuple
    samples: tuple
    rot: np.ndarray
    t: np.ndarray
    chart: object
    residuals: np.ndarray


def _row_band(reads, first, maps, weights, blended):
    """First knot (m,) and band (m, a, W, 6) of the rows that read the query
    poses of ``reads``, ``[(queries (m,), grad (m, a, 6)), ...]``.

    A query's band is a sum over slots of a 6x6 map read through knot
    weights from the query's first knot (see ``_WindowSystem._pose_layer``).
    The row's band is the sum over its reads and their slots of the row's
    gradient times the slot's map, spread over the knots by the slot's
    weights shifted to the query's offset from the row's first knot.
    """
    q_firsts = [first[q] for q, _ in reads]
    row_first = np.minimum.reduce(q_firsts)
    width = weights.shape[2] + max(int((f - row_first).max()) for f in q_firsts)
    coefs, spread = [], []
    for (q, grad), q_first in zip(reads, q_firsts):
        q_maps, q_weights = maps[q], weights[q]
        if not blended[q].any():
            # Every query of the read takes one sample's map: one slot.
            q_maps, q_weights = q_maps[:, :1], q_weights[:, :1]
        coefs.append(grad[:, None] @ q_maps)
        at = (q_first - row_first)[:, None, None] + np.arange(q_weights.shape[2])
        spread.append(np.zeros(q_weights.shape[:2] + (width,)))
        np.put_along_axis(spread[-1], at, q_weights, axis=2)
    spread = np.concatenate(spread, axis=1).transpose(0, 2, 1)
    # Drop the trailing knots that no row reads.
    width = np.flatnonzero(spread.any(axis=(0, 2)))[-1] + 1
    coef = np.concatenate(coefs, axis=1).transpose(0, 2, 1, 3)
    return row_first, spread[:, None, :width] @ coef


class _WindowSystem:
    """Vectorized residuals over one window and their normal equations.

    Every residual reads poses at query times, laid out as
    ``[pair a | pair b | prior | IMU stencil -h | 0 | +h]``.  Pair and prior
    queries are located once; only the IMU stencil moves with the time lag.

    The linearization has two layers.  The residual layer differentiates
    each whitened, robust-weighted row with respect to a world-frame left
    perturbation ``(phi, rho)`` of every query pose it reads
    (``R <- exp(phi) R``, ``t <- exp(phi) t + rho``).  The pose layer gives
    each query's band map, from the increments ``(du_t, du_r)`` of the
    knots it reads to its perturbation.  A band map starts at the query's
    first knot and is kept factored, as slots: a 6x6 map read through spline
    weights on consecutive knots.  Every sample has a band map, its 6x6 map
    read through its four knot weights.  A query that snaps to a sample takes
    its sample's map unchanged, in one slot; a query between two samples
    takes both, each times its 6x6 blend of the interpolation.  The slots of
    a query read the weights of its interval, on the knots from the lower
    sample's first one.

    Clamped boundary knots fold onto the knot they repeat.  A row's band is
    the sum over its queries' slots of its gradient times the slot's map,
    spread by the slot's weights at the query's knot offset from the row's
    first knot.  :meth:`normal_equations` sorts the rows by first knot and
    adds one ``L.T @ L`` and one ``L.T @ [r | border]`` per first knot,
    where the border is the bias columns and the time-lag column, the one
    finite difference (``cfg.fd_step``).  :meth:`jacobian`
    scatters the same row bands into a dense Jacobian, which only the tests
    read.

    :meth:`evaluate` returns an iterate that carries the poses it read and
    the chart it read them in, and the linearization reuses both.  An
    accepted candidate, folded into the samples (:meth:`fold`), is the next
    iterate as it stands, so no iterate is evaluated twice.
    """

    def __init__(self, pair_constraints, prior_constraints, imu, traj, state, cfg):
        self.cfg = cfg
        self.grid = state.grid
        self.n_knots = len(state.grid)
        self.traj_times = traj.times
        self.base_rot = traj.rotations.copy()
        self.base_t = traj.translations.copy()
        self.rate = traj.nominal_rate
        self.h = 1.0 / self.rate

        self.pair_u_a = np.array([c.u_a for c in pair_constraints]).reshape(-1, 3)
        self.pair_u_b = np.array([c.u_b for c in pair_constraints]).reshape(-1, 3)
        self.pair_n = np.array([c.n_ab for c in pair_constraints]).reshape(-1, 3)
        self.pair_taus = np.array(
            [[c.tau_a, c.tau_b] for c in pair_constraints]
        ).reshape(-1, 2)

        self.prior_u_m = np.array([c.u_m for c in prior_constraints]).reshape(-1, 3)
        self.prior_u_c = np.array([c.u_c for c in prior_constraints]).reshape(-1, 3)
        self.prior_n = np.array([c.n_mc for c in prior_constraints]).reshape(-1, 3)
        self.prior_taus = np.array([c.tau_c for c in prior_constraints])

        lag_slack = cfg.max_time_lag if cfg.estimate_time_lag else abs(state.time_lag)
        usable = [
            s
            for s in imu
            if s.tau + state.time_lag - self.h - lag_slack >= traj.start
            and s.tau + state.time_lag + self.h + lag_slack <= traj.end
        ]
        self.imu_taus = np.array([s.tau for s in usable])
        self.imu_accel = np.array([s.accel for s in usable]).reshape(-1, 3)
        self.imu_gyro = np.array([s.gyro for s in usable]).reshape(-1, 3)

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

        self.w_samples = self.grid.weight_matrix(self.traj_times)
        # Knot weights of the two samples of every interval between samples,
        # on the knots from the lower sample's first one.
        first, band = _knot_band(*self.grid.knot_indices_and_weights(self.traj_times))
        shift = first[1:] - first[:-1]
        lower = np.zeros((len(shift), 4 + int(shift.max())))
        upper = np.zeros_like(lower)
        lower[:, :4] = band[:-1]
        upper[np.arange(len(shift))[:, None], shift[:, None] + np.arange(4)] = band[1:]
        self.interval_bands = first[:-1], lower, upper
        # Position of each parameter (c_t, then c_r) in the knot-major
        # layout of the bands, where knot k holds (du_t, du_r) at 6k.
        k3 = np.arange(3 * self.n_knots)
        self.knot_major = np.concatenate([6 * (k3 // 3) + k3 % 3, 6 * (k3 // 3) + 3 + k3 % 3])
        self.fixed_where = self._locate(
            np.concatenate([self.pair_taus[:, 0], self.pair_taus[:, 1], self.prior_taus])
        )
        self._where_at = None  # (time lag, where) of the last _where call

        self.robust_weights = np.ones(self.n_pair + self.n_prior)
        self.cauchy_eff = np.inf

    # -- parameter vector layout: [c_t (3K), c_r (3K), b_a?, b_g?, d?] --

    def n_params(self):
        n = 6 * self.n_knots
        if self.cfg.estimate_biases:
            n += 6
        if self.cfg.estimate_time_lag:
            n += 1
        return n

    def split_params(self, x, state):
        k = self.n_knots
        c_t = x[: 3 * k].reshape(k, 3)
        c_r = x[3 * k : 6 * k].reshape(k, 3)
        i = 6 * k
        if self.cfg.estimate_biases:
            b_a = state.accel_bias + x[i : i + 3]
            b_g = state.gyro_bias + x[i + 3 : i + 6]
            i += 6
        else:
            b_a, b_g = state.accel_bias, state.gyro_bias
        if self.cfg.estimate_time_lag:
            d = np.clip(
                state.time_lag + x[i], -self.cfg.max_time_lag, self.cfg.max_time_lag
            )
        else:
            d = state.time_lag
        return c_t, c_r, b_a, b_g, d

    def _corrected_samples(self, c_t, c_r):
        rot_c = lie.so3_exp_batch(self.w_samples @ c_r)
        return compose_correction(rot_c, self.w_samples @ c_t, self.base_rot, self.base_t)

    def fold(self, it):
        """Compose the correction of iterate ``it`` into the samples.  The
        returned iterate is ``x = 0`` of a state with ``it``'s biases and
        lag, which reads ``it``'s poses, so its residuals are ``it``'s."""
        _, _, b_a, b_g, d = self.split_params(it.x, it.state)
        self.base_rot, self.base_t = it.samples
        return it._replace(x=np.zeros_like(it.x), state=OptState(it.state.grid, b_a, b_g, d))

    # -- query poses --------------------------------------------------------

    def _locate(self, taus):
        """Sample brackets ``(idx, alpha)`` of query times ``taus``."""
        return brackets(self.traj_times, taus, 1e-9 * self.h)

    def _where(self, d):
        """Sample brackets of every query at time lag ``d``.  Only the IMU
        stencil moves with the lag, so the last result is reused while the
        lag is unchanged."""
        if self._where_at is None or self._where_at[0] != d:
            taus = self.imu_taus + d
            idx, w = self._locate(np.concatenate([taus - self.h, taus, taus + self.h]))
            where = (
                np.concatenate([self.fixed_where[0], idx]),
                np.concatenate([self.fixed_where[1], w]),
            )
            for a in where:
                a.flags.writeable = False  # shared by every iterate at this lag
            self._where_at = d, where
        return self._where_at[1]

    def _interpolate(self, rot_s, t_s, idx, w):
        """Poses at the sample brackets ``(idx, w)`` and the chart they were
        read in: the distinct brackets of the interior queries, each query's
        bracket among them, and the brackets' twists ``(lo, at, phi, rho)``."""
        lo, at = np.unique(idx[(w > 0.0) & (w < 1.0)], return_inverse=True)
        phi, rho = lie.se3_relative_log_batch(rot_s[lo], t_s[lo], rot_s[lo + 1], t_s[lo + 1])
        rot, t = interpolate(rot_s, t_s, idx, w, twists=(phi[at], rho[at]))
        return rot, t, (lo, at, phi, rho)

    def evaluate(self, x, state):
        """The iterate at ``x``: the query poses it reads and its whitened
        residuals (no robust weighting)."""
        c_t, c_r, b_a, b_g, d = self.split_params(x, state)
        where = self._where(d)
        samples = self._corrected_samples(c_t, c_r)
        rot, t, chart = self._interpolate(*samples, *where)
        residuals = self._residuals_at(rot, t, b_a, b_g)
        return _Iterate(x, state, where, samples, rot, t, chart, residuals)

    def residuals(self, x, state):
        """Whitened residual vector (no robust weighting)."""
        return self.evaluate(x, state).residuals

    def _residuals_at(self, rot, t, b_a, b_g):
        cfg = self.cfg
        out = np.empty(self.n_residuals)
        if self.n_pair:
            qa, qb = self.q_a, self.q_b
            world_a = np.einsum("nij,nj->ni", rot[qa], self.pair_u_a) + t[qa]
            world_b = np.einsum("nij,nj->ni", rot[qb], self.pair_u_b) + t[qb]
            out[self.sl_pair] = (
                np.sum(self.pair_n * (world_a - world_b), axis=1) / cfg.sigma_surfel
            )
        if self.n_prior:
            q = self.q_prior
            world = np.einsum("nij,nj->ni", rot[q], self.prior_u_c) + t[q]
            out[self.sl_prior] = (
                np.sum(self.prior_n * (self.prior_u_m - world), axis=1) / cfg.sigma_prior
            )
        if self.n_imu:
            q_minus, q_mid, q_plus = self.q_stencil
            rot_mid, rot_plus = rot[q_mid], rot[q_plus]
            accel_world = (t[q_plus] - 2.0 * t[q_mid] + t[q_minus]) / (self.h * self.h)
            body = np.einsum("nji,nj->ni", rot_mid, accel_world - GRAVITY)
            accel_res = self.imu_accel - body + b_a
            rel = rot_mid.transpose(0, 2, 1) @ rot_plus
            omega = lie.so3_log_batch(rel) / self.h
            gyro_res = self.imu_gyro - omega + b_g
            out[self.sl_accel] = accel_res.reshape(-1) / cfg.sigma_accel
            out[self.sl_gyro] = gyro_res.reshape(-1) / cfg.sigma_gyro
        return out

    # -- robust kernel ----------------------------------------------------
    #
    # The Cauchy scale is annealed: it starts at the spread of the current
    # residuals and tightens monotonically to the configured 3-sigma floor as
    # the fit improves.  A fixed small scale would let the solver park badly
    # initialized stretches of the window behind the kernel.  Because the
    # Cauchy cost is increasing in the scale, a non-increasing scale keeps
    # the recorded cost non-increasing across accepted iterations.

    def update_robust_weights(self, residuals):
        r = residuals[: self.n_pair + self.n_prior]
        if r.size:
            spread = 3.0 * np.median(np.abs(r)) / 0.6745
        else:
            spread = 0.0
        scale = max(self.cfg.cauchy_scale, spread)
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
            rms(self.sl_pair, self.cfg.sigma_surfel),
            rms(self.sl_prior, self.cfg.sigma_prior),
            rms(self.sl_accel, self.cfg.sigma_accel),
            rms(self.sl_gyro, self.cfg.sigma_gyro),
        )

    # -- linearization ------------------------------------------------------

    def _pose_layer(self, it):
        """Band maps of the queries of iterate ``it``: first knot (Q,), slot
        maps (Q, S, 6, 6), slot weights (Q, S, W) on W knots from the first,
        and whether the query reads its second slot (Q,)."""
        idx, w = it.where
        # A sample n moves by phi = Jl(W c_r)_n W dc_r and
        # rho = W dc_t + [s_n]x phi, with s the correction's translation.
        c_t, c_r, *_ = self.split_params(it.x, it.state)
        rot_s, t_s = it.samples
        jl = lie.so3_left_jacobian_batch(self.w_samples @ c_r)
        sample_maps = _spline_maps(jl, self.w_samples @ c_t)

        # A query that snaps to a sample reads the sample's map in its first
        # slot; an interior one blends the maps of both samples, the lower in
        # the first slot and the upper in the second.  Both read the
        # weights of their interval, on the knots from the lower sample's
        # first one.
        first, lower, upper = self.interval_bands
        snapped_up = w == 1.0
        maps = np.zeros((idx.size, 2, 6, 6))
        maps[:, 0] = sample_maps[idx + snapped_up]
        weights = np.stack(
            [np.where(snapped_up[:, None], upper[idx], lower[idx]), upper[idx]], axis=1
        )
        blended = (w > 0.0) & (w < 1.0)
        ii = np.flatnonzero(blended)
        if ii.size:
            # The derivative reads the chart the interpolation read.
            blend_lo, blend_hi = self._blend(rot_s, t_s, w[ii], it.chart)
            maps[ii, 0] = blend_lo @ sample_maps[idx[ii]]
            maps[ii, 1] = blend_hi @ sample_maps[idx[ii] + 1]
        return first[idx], maps, weights, blended

    def _blend(self, rot_s, t_s, alpha, chart):
        """Maps from the perturbations of the two samples bracketing each
        interior query to the perturbation of the pose interpolated between
        them at ``alpha``, given the chart :meth:`_interpolate` read."""
        # T = T_lo exp(alpha xi), xi = log(T_lo^-1 T_hi):
        # delta = (I - M) delta_lo + M delta_hi with
        # M = alpha Ad(T_lo) Jl(alpha xi) Jl^-1(xi) Ad(T_lo)^-1
        #   = alpha Jl(alpha xi_w) Jl^-1(xi_w) at xi_w = Ad(T_lo) xi.
        brackets, at, phi, rho = chart
        rot_lo = rot_s[brackets]
        phi_w = np.einsum("nij,nj->ni", rot_lo, phi)
        rho_w = np.einsum("nij,nj->ni", rot_lo, rho) + np.cross(t_s[brackets], phi_w)
        xi_w = np.concatenate([phi_w, rho_w], axis=1)
        m = (
            alpha[:, None, None]
            * lie.se3_left_jacobian_batch(alpha[:, None] * xi_w[at])
            @ lie.se3_left_jacobian_inv_batch(xi_w)[at]
        )
        return np.eye(6) - m, m

    def _residual_layer(self, rot, t):
        """Derivatives of the whitened, robust-weighted rows with respect to a
        left perturbation of each query pose they read, one entry per family:
        ``(rows (m, a), [(queries (m,), grad (m, a, 6)), ...])``."""
        cfg = self.cfg
        families = []

        def plane(q, u, normal, coef):
            # n . (R u + t) moves by (w x n) . phi + n . rho at w = R u + t.
            world = np.einsum("nij,nj->ni", rot[q], u) + t[q]
            grad = np.concatenate([np.cross(world, normal), normal], axis=1)
            return q, (coef[:, None] * grad)[:, None]

        if self.n_pair:
            rows = np.arange(self.sl_pair.start, self.sl_pair.stop)[:, None]
            coef = self.robust_weights[self.sl_pair] / cfg.sigma_surfel
            families.append((rows, [
                plane(self.q_a, self.pair_u_a, self.pair_n, coef),
                plane(self.q_b, self.pair_u_b, self.pair_n, -coef),
            ]))
        if self.n_prior:
            rows = np.arange(self.sl_prior.start, self.sl_prior.stop)[:, None]
            coef = self.robust_weights[self.sl_prior] / cfg.sigma_prior
            families.append((rows, [plane(self.q_prior, self.prior_u_c, self.prior_n, -coef)]))
        if self.n_imu:
            m = self.n_imu
            q_minus, q_mid, q_plus = self.q_stencil
            rot_mid_t = rot[q_mid].transpose(0, 2, 1)
            # Acceleration: a = (t+ - 2 t0 + t-) / h^2 in the body frame of R0.
            rows = self.sl_accel.start + np.arange(3 * m).reshape(m, 3)
            accel_world = (t[q_plus] - 2.0 * t[q_mid] + t[q_minus]) / (self.h * self.h)
            reads = []
            for q, c in zip(self.q_stencil, (1.0, -2.0, 1.0)):
                c /= self.h * self.h * cfg.sigma_accel
                grad = np.zeros((m, 3, 6))
                grad[:, :, :3] = c * rot_mid_t @ lie.hat_batch(t[q])
                grad[:, :, 3:] = -c * rot_mid_t
                if q is q_mid:
                    grad[:, :, :3] -= (
                        rot_mid_t @ lie.hat_batch(accel_world - GRAVITY) / cfg.sigma_accel
                    )
                reads.append((q, grad))
            families.append((rows, reads))
            # Body rate: log(R0^T R+) / h moves by Jl^-1 R0^T (phi+ - phi0) / h.
            rows = self.sl_gyro.start + np.arange(3 * m).reshape(m, 3)
            rel = rot_mid_t @ rot[q_plus]
            rate = (
                lie.so3_left_jacobian_inv_batch(lie.so3_log_batch(rel))
                @ rot_mid_t
                / (self.h * cfg.sigma_gyro)
            )
            reads = []
            for q, sign in ((q_mid, 1.0), (q_plus, -1.0)):
                grad = np.zeros((m, 3, 6))
                grad[:, :, :3] = sign * rate
                reads.append((q, grad))
            families.append((rows, reads))
        return families

    def _linearize(self, it, base_weighted):
        """Row bands and border of the robust-weighted residuals at iterate
        ``it``.

        Returns ``[(rows (n,), first knot (n,), band (n, 6W))]``, one entry
        per residual family, with the knots in the knot-major layout, and the
        border (n_residuals, 0..7): the bias columns, then the time-lag
        column, a forward difference of step ``cfg.fd_step`` from
        ``base_weighted``, the weighted residuals at ``it``.  The robust
        weights are held fixed.
        """
        cfg = self.cfg
        q_bands = self._pose_layer(it)
        bands = []
        for rows, reads in self._residual_layer(it.rot, it.t):
            first, band = _row_band(reads, *q_bands)
            m, a = rows.shape
            bands.append((rows.reshape(-1), np.repeat(first, a), band.reshape(m * a, -1)))

        columns = []
        if cfg.estimate_biases:
            bias = np.zeros((self.n_residuals, 6))
            comp = np.arange(3 * self.n_imu)
            bias[self.sl_accel.start + comp, comp % 3] = 1.0 / cfg.sigma_accel
            bias[self.sl_gyro.start + comp, 3 + comp % 3] = 1.0 / cfg.sigma_gyro
            columns.append(bias)
        if cfg.estimate_time_lag:
            step = np.zeros(self.n_params())
            step[-1] = cfg.fd_step
            plus = self.weighted(self.residuals(it.x + step, it.state))
            columns.append((plus - base_weighted)[:, None] / cfg.fd_step)
        border = np.hstack(columns) if columns else np.zeros((self.n_residuals, 0))
        return bands, border

    def _knot_span(self, bands):
        # Knots the bands reach; past the last knot only zero weights reach.
        return max([self.n_knots] + [int(f.max()) + b.shape[1] // 6 for _, f, b in bands])

    def normal_equations(self, it, weighted):
        """``H = J.T @ J`` and ``g = J.T @ weighted`` of the robust-weighted
        residuals ``weighted`` at iterate ``it``, built from the row bands
        grouped by first knot, without forming J."""
        bands, border = self._linearize(it, weighted)
        rhs = np.column_stack([weighted, border])
        size = 6 * self._knot_span(bands)
        h_kk = np.zeros((size, size))
        h_kr = np.zeros((size, rhs.shape[1]))
        # Rows of one band width are sorted together by first knot; each
        # first knot adds one block.
        for width in sorted({band.shape[1] for _, _, band in bands}):
            same = [b for b in bands if b[2].shape[1] == width]
            rows, first, band = (np.concatenate(part) for part in zip(*same))
            order = np.argsort(first, kind="stable")
            first, band, r = first[order], band[order], rhs[rows[order]]
            bounds = np.flatnonzero(np.diff(first)) + 1
            for lo, hi in zip(np.r_[0, bounds], np.r_[bounds, first.size]):
                block = band[lo:hi]
                k = 6 * first[lo]
                h_kk[k : k + width, k : k + width] += block.T @ block
                h_kr[k : k + width] += block.T @ r[lo:hi]

        km = self.knot_major
        n = km.size
        h_rr = rhs.T @ rhs
        hess = np.empty((self.n_params(), self.n_params()))
        hess[:n, :n] = h_kk[np.ix_(km, km)]
        hess[:n, n:] = h_kr[km, 1:]
        hess[n:, :n] = hess[:n, n:].T
        hess[n:, n:] = h_rr[1:, 1:]
        return hess, np.concatenate([h_kr[km, 0], h_rr[1:, 0]])

    def jacobian(self, x, state, base_weighted):
        """Dense Jacobian of the robust-weighted residuals, the row bands of
        :meth:`normal_equations` scattered into their columns.  Analytic in
        the control points and biases; see :meth:`_linearize` for the
        time-lag column.  Only tests read it."""
        bands, border = self._linearize(self.evaluate(x, state), base_weighted)
        knots = np.zeros((self.n_residuals, 6 * self._knot_span(bands)))
        for rows, first, band in bands:
            knots[rows[:, None], 6 * first[:, None] + np.arange(band.shape[1])] = band
        return np.hstack([knots[:, self.knot_major], border])


def optimize_window(constraints, imu, traj, init, cfg=None):
    """Damped Gauss-Newton over control points, IMU biases, and time lag.

    ``constraints`` mixes :class:`SurfelPairConstraint` and
    :class:`MapPriorConstraint` instances.  Returns the final state, the
    corrected trajectory, and a per-iteration report.
    """
    if cfg is None:
        cfg = OptimizerConfig()
    if traj.end - traj.start > cfg.window + 1e-9:
        raise InvalidArgumentError("trajectory longer than the configured window")
    if not init.grid.covers(traj.times).all():
        raise MissingSupportError("grid does not span the window", traj.times)

    pairs = [c for c in constraints if isinstance(c, SurfelPairConstraint)]
    priors = [c for c in constraints if isinstance(c, MapPriorConstraint)]
    system = _WindowSystem(pairs, priors, imu, traj, init, cfg)
    if system.n_residuals < 6 * system.n_knots:
        raise InvalidArgumentError(
            f"{system.n_residuals} residuals cannot observe {6 * system.n_knots} knot states"
        )

    state = OptState(
        init.grid,
        init.accel_bias.copy(),
        init.gyro_bias.copy(),
        init.time_lag,
    )
    it = system.evaluate(np.zeros(system.n_params()), state)
    system.update_robust_weights(it.residuals)
    cost = system.cost(it.residuals)
    records = [IterationRecord(0, cost, *system.family_rms(it.residuals), 0.0)]

    lam = cfg.damping_init
    converged = False
    reason = "max_iterations"
    for iteration in range(1, cfg.max_iterations + 1):
        if cost < 1e-16:
            converged = True
            reason = "zero_cost"
            break
        weighted = system.weighted(it.residuals)
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

        accepted = False
        predicted = np.inf
        for _ in range(cfg.damping_retries + 1):
            try:
                delta = np.linalg.solve(hess + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            candidate = system.evaluate(it.x + delta, it.state)
            candidate_cost = system.cost(candidate.residuals)
            if candidate_cost < cost:
                accepted = True
                break
            predicted = -(delta @ grad) - 0.5 * delta @ (hess @ delta)
            lam *= 10.0
        if not accepted:
            # The most damped step's own model predicts no usable decrease:
            # numerically stationary.  Anything else is a genuine failure.
            if predicted < cfg.cost_tol * max(cost, 1e-30):
                converged = True
                reason = "stationary"
                break
            raise NoProgressError(
                "cost failed to decrease after damping retries",
                best_state=_state_from(system, it.state),
                best_trajectory=_trajectory_from(system),
                report=OptimizationReport(records, False, "no_progress"),
            )

        lam = max(lam / 3.0, 1e-12)
        step_norm = float(np.linalg.norm(delta))
        prev_cost = cost
        # Fold the accepted correction into the trajectory and restart the
        # grid from zero; the next iteration linearizes at the candidate's
        # poses.
        it = system.fold(candidate)
        system.update_robust_weights(it.residuals)
        cost = system.cost(it.residuals)
        records.append(
            IterationRecord(iteration, cost, *system.family_rms(it.residuals), step_norm)
        )
        if step_norm < cfg.step_tol:
            converged = True
            reason = "step_norm"
            break
        if prev_cost - cost < cfg.cost_tol * max(prev_cost, 1e-30):
            converged = True
            reason = "cost_decrease"
            break

    final_state = _state_from(system, it.state)
    final_traj = _trajectory_from(system)
    report = OptimizationReport(records, converged, reason)
    return final_state, final_traj, report


def _state_from(system, state):
    # Every accepted correction is folded into the samples: the grid is zero.
    k = system.n_knots
    grid = ControlGrid(system.grid.times.copy(), np.zeros((k, 3)), np.zeros((k, 3)))
    return OptState(grid, state.accel_bias, state.gyro_bias, state.time_lag)


def _trajectory_from(system):
    return Trajectory(
        system.traj_times.copy(), system.base_rot.copy(), system.base_t.copy(), system.rate
    )
