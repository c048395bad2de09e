"""Local-window trajectory optimization.

Two residual families constrain the window: surfel-to-map-prior
point-to-plane errors and preintegrated IMU factors.  The IMU samples are
folded once per window into groups, one per run of samples in half a knot
interval (Forster et al., T-RO 2017; Le Gentil et al., RA-L 2020): each
group gives a relative rotation and two moments of its accelerations,
whitened by the group's covariance, with a first-order bias Jacobian
(:func:`_preintegrate`).  The families are
evaluated as arrays over the whole window; the scalar evaluators that pin
them, per constraint and per IMU group, are test oracles in
``simulation.oracles``.  Every window has both families: a window without
a map prior, or without an IMU sample inside it, is refused.  A damped
Gauss-Newton solver estimates a spline correction at the knots and the IMU
biases.  Its Jacobian is analytic: each residual row reads a few pose
points, and a knot increment moves a pose point by the point's spline
weight on that knot.

The solver is one driver, :func:`solve`, for any problem that evaluates,
linearizes and folds its own iterates: the damped step, the damping schedule,
the chord test, the χ² stop rules, the rank check and the annealed Cauchy
kernel (:class:`_Cauchy`) over the problem's leading rows.  The window
(:class:`_WindowSystem`) is one such problem; the sparse-surfel ICP of
``fusion`` runs each of its association rounds as another.

The constraint and IMU records are plain values that check nothing.  A
window checks its inputs once, where ``_WindowSystem`` stacks them into
arrays: every field and time finite (of the IMU samples, those the window
reads), the state's biases finite 3-vectors and the normals of unit length.
A constraint of any other type is refused.

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
from .surfel_map import stable_order
from .trajectory import (
    ControlGrid,
    Trajectory,
    brackets,
    compose_correction,
    interpolate,
)

log = logging.getLogger(__name__)

GRAVITY = np.array([0.0, 0.0, -9.80665])

# Standard deviation of each residual family: m, m/s^2 and rad/s.
SIGMA_PRIOR, SIGMA_ACCEL, SIGMA_GYRO = 0.02, 0.05, 0.005
CAUCHY_SCALE = 3.0  # floor of the annealed Cauchy scale, whitened, i.e. 3 sigma
# Damping of the first solve; retries of a rejected step, each damped ten times more.
DAMPING_INIT, DAMPING_RETRIES = 1e-6, 5
# An eigenvalue of H below this fraction of the largest is a null direction.
RANK_TOL = 1e-12
# The driver's stopping tolerance, in χ² units (see solve), and its cap on
# accepted steps.
CHI2_TOL = 1e-3
MAX_ITERATIONS = 50
# An IMU group's moment coefficients on its four queries: the constant part,
# then the part per (n - 1) / 2 of a group of n samples.
_MOMENT_COEF = np.array([
    [[1.0, -1.0, -1.0, 1.0], [0.0, 1.0, -1.0, 0.0]],
    [[0.0, 0.0, 0.0, 0.0], [-1.0, 1.0, -1.0, 1.0]],
])


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
    """Window optimizer settings: the window's length.  The residual
    whitening (``SIGMA_*``), the Cauchy floor, the damping and the stop
    rules (``CHI2_TOL``, ``MAX_ITERATIONS``) are module constants."""

    window: float = 5.0


@dataclass
class IterationRecord:
    """One accepted iterate's cost and the RMS of each residual family.

    ``rms_prior`` is in meters.  ``rms_accel`` (m/s^2)
    and ``rms_gyro`` (rad/s) are the RMS of the whitened IMU moment and
    rotation rows times ``SIGMA_ACCEL`` and ``SIGMA_GYRO``: the size of the
    errors in units of one sample's noise, which for a group of one sample
    is that sample's acceleration error.  An ICP record holds the RMS of its
    point-to-plane distances (m) in ``rms_prior`` and zero in the others.
    """

    iteration: int
    cost: float
    rms_prior: float
    rms_accel: float
    rms_gyro: float
    step_norm: float


@dataclass
class OptimizationReport:
    """Per-iteration records and why a window (:func:`solve`) or an ICP
    (``fusion.icp_point_to_plane``) stopped.

    ``stop_decrease`` is the decrease, in χ² units, that ended the window:
    the model's prediction for a ``"predicted_decrease"`` stop (the chord
    model's after an accepted step, the freshly built model's otherwise; see
    :func:`solve`), the accepted step's actual decrease for a
    ``"cost_decrease"`` stop, NaN for any other reason.  ``final_cost`` is
    the last record's cost, NaN for a report without records (an ICP that
    stopped before its first round).
    """

    records: list
    converged: bool
    reason: str
    stop_decrease: float

    @property
    def final_cost(self):
        return self.records[-1].cost if self.records else np.nan


def _knot_band(idx, weights):
    """First knot (N,) and weights (N, 4) on four consecutive knots from it,
    of clamped knot indices and weights (N, 4).  A clamped boundary knot
    repeats the index of the knot next to it, so its weight folds onto that
    knot and the band's last weight may be zero.  One ``bincount`` adds the
    weights into their cells in knot order."""
    first = idx[:, 0]
    n, m = idx.shape
    cells = (idx - first[:, None]) + m * np.arange(n)[:, None]
    return first, np.bincount(cells.ravel(), weights.ravel(), minlength=n * m).reshape(n, m)


def _plane_columns(world, normal, coef):
    """Columns (6, n) of the rows of plane distances ``n . w`` at world
    points ``w`` (n, 3) that a pose moves, by a left perturbation ``(phi,
    rho)`` of that pose: ``R <- Exp(phi) R`` and ``t <- Exp(phi) t + rho``
    move ``n . w`` by ``(w x n) . phi + n . rho``.  Each row is scaled by its
    ``coef`` (n,)."""
    columns = np.empty((6, len(world)))
    columns[:3] = lie.cross(world.T, normal.T)
    columns[3:] = normal.T
    columns *= coef
    return columns


class _Iterate(NamedTuple):
    """An evaluated iterate: its corrected pose points, the query poses it
    reads, the world points of the map priors' observations there (which the
    linearization reads), the IMU groups' rotation logs there and its
    residuals."""

    x: np.ndarray
    state: OptState
    points: tuple
    rot: np.ndarray
    t: np.ndarray
    world: np.ndarray
    imu_log: np.ndarray
    residuals: np.ndarray


def _row_spreads(*reads):
    """Of each ``(first, band)`` of ``reads``, the first knots (m, S) and
    bands (m, S, 4) of the points that m rows read, S points a row: the rows'
    first knots (m,) and spread (m, W, S), each point's weights shifted by
    its first knot's offset from its row's.  Every spread has the common
    width W, the most knots that any row reads with a non-zero weight; the
    trailing knots that no row reads are dropped."""
    offsets = []
    for first, band in reads:
        row_first = first.min(axis=1)
        at = (first - row_first[:, None])[:, :, None] + np.arange(band.shape[2])
        offsets.append((row_first, at))
    width = max(int(at[band != 0.0].max()) + 1 for (_, at), (_, band) in zip(offsets, reads))
    spreads = []
    for (row_first, at), (first, band) in zip(offsets, reads):
        m, n_points = first.shape
        spread = np.zeros((m, width, n_points))
        cells = (np.arange(m)[:, None, None] * width + at) * n_points + np.arange(n_points)[:, None]
        inside = at < width
        np.put(spread, cells[inside], band[inside])
        spreads.append((row_first, spread))
    return width, spreads


class _ImuGroups(NamedTuple):
    """IMU samples folded per group at set-up biases ``(b_a, b_g)``.

    Group g holds ``count[g]`` samples ``i = 0..n-1``, each one step ``h``
    after the one before, the first at ``first[g]`` and the last at
    ``last[g]``.  ``delta_rot`` is the gyro's rotation from the first
    sample's frame to one step past the last, ``prod_i exp((w_i - b_g) h)``.
    ``moments`` are the zeroth and centred first moment, weights ``1`` and
    ``i - (n - 1) / 2``, of the bias-free accelerations ``a_i - b_a``, each
    turned into the first sample's frame by the gyro's rotation up to it
    (m/s^2).

    The moments fold the accelerations as preintegration folds them into a
    velocity and a position change.  The group's residual has nine rows:
    the rotation ``log(R_n^T R_0 delta_rot) / h`` (rad/s), then the two
    moments, measured minus predicted (m/s^2), where moment w predicts
    ``R_0^T sum_i w_i ((t_{i+1} - 2 t_i + t_{i-1}) / h^2 - g)`` from the
    poses ``R``, ``t`` at the sample times, ``t_{-1}`` and ``t_n`` one step
    before the first and after the last.  ``bias_jac`` (G, 9, 6) is its
    first-order Jacobian with respect to ``(b_a, b_g)`` (Forster et al.,
    T-RO 2017, Sec. VI), and ``cov`` (G, 9, 9) its covariance under
    per-sample noise of standard deviation ``SIGMA_ACCEL`` and
    ``SIGMA_GYRO``.  A group of one sample has a centred moment of zero and
    no variance there.  :func:`_preintegrate` forms all of them over every
    sample at once, and the window builds what it needs of them once:
    whitening, bias border and the constants of its rows' bands.
    """

    first: np.ndarray
    last: np.ndarray
    count: np.ndarray
    delta_rot: np.ndarray
    moments: np.ndarray
    bias_jac: np.ndarray
    cov: np.ndarray


def _preintegrate(taus, accel, gyro, segment, h, accel_bias, gyro_bias):
    """Samples sorted by time ``taus`` (m,), with readings (m, 3) and the
    index of the segment of the knot grid that holds each, folded into
    groups (:class:`_ImuGroups`).  A group is a maximal run of samples in one
    segment, each ``h`` after the one before, within ``1e-9 h``.

    The samples are padded to ``(N, G)``, sample i of group g at ``[i, g]``
    and ``N`` the largest group: a pad sample turns by nothing and weighs
    nothing.  So every operation but the rotation chain, one 3x3 product per
    step, runs once over all the samples.  The exponentials and left
    Jacobians are matrix rows ``(N, G, 3, 3)``, as ``lie`` forms them; the
    vectors are component first, ``(3, N, G)``.

    To first order the rows are linear in each sample's accelerometer and
    gyro errors, so the bias Jacobian sums the derivatives by every sample's
    errors (a bias is the same error at every sample) and the covariance
    weighs them by the noise variances.  An accelerometer error at sample i
    moves the moments by ``w_i dR_{0,i}``; those terms of the covariance are
    ``SIGMA_ACCEL^2 sum_i w_i w'_i I``, as ``dR_{0,i}`` is a rotation.  A
    gyro error at sample k turns the rotation by ``G_k = dR_{0,k}
    Jl(theta_k) h`` (``= dR_{0,k+1} Jr(theta_k) h``), seen from one step
    past the last sample as ``dR^T G_k``, and every later sample's
    acceleration with it: the moments move by ``s_k x G_k``, column by
    column, of the weighted accelerations ``s_k`` after sample k.  These
    nine rows by three of every sample, one stacked error matrix per group,
    give both the gyro columns of the bias Jacobian (their sum) and the
    covariance's gyro part (their products); the rotation rows are stacked
    as ``G_k``, and ``dR^T / h`` turns the sums and products once per group.
    """
    step = np.abs(np.diff(taus) - h) <= 1e-9 * h
    heads = np.concatenate([[0], np.flatnonzero(~step | (np.diff(segment) != 0)) + 1])
    count = np.diff(np.append(heads, taus.size))
    group = np.repeat(np.arange(count.size), count)
    pos = np.arange(taus.size) - heads[group]
    n_groups, width = count.size, int(count.max())
    # Per padded sample: the gyro's turn, the bias-free acceleration and
    # the two moment weights, scattered once; the turns are read as rows,
    # the rest turned component first.
    samples = np.empty((taus.size, 8))
    np.multiply(gyro - gyro_bias, h, out=samples[:, :3])
    np.subtract(accel, accel_bias, out=samples[:, 3:6])
    samples[:, 6] = 1.0
    samples[:, 7] = pos - 0.5 * (count[group] - 1)
    padded = np.zeros((width * n_groups, 8))
    padded[pos * n_groups + group] = samples
    steps, jl = (m.reshape(width, n_groups, 3, 3)
                 for m in lie.so3_exp_left_jacobian(padded[:, :3]))
    padded = np.ascontiguousarray(padded.T).reshape(8, width, n_groups)
    specific, weights = padded[3:6], padded[6:]

    rot = np.empty((width + 1, n_groups, 3, 3))  # rot[i] = dR_{0,i}
    rot[0] = np.eye(3)
    for i in range(width):
        np.matmul(rot[i], steps[i], out=rot[i + 1])
    delta_rot = rot[width]
    before = np.ascontiguousarray(rot[:-1].transpose(2, 3, 0, 1))  # (3, 3, N, G)
    weighted = weights[:, None] * np.einsum("ijng,jng->ing", before, specific)
    moments = weighted.sum(axis=2)  # (2, 3, G)
    after = moments[:, :, None] - np.cumsum(weighted, axis=2)

    # The error matrix, (G, row block, row, column, k): G_k, zero at a pad,
    # then s_k x G_k of each moment.  The rotation rows are dR^T G_k / h,
    # one product per group, below.
    jl *= (h * weights[0])[..., None, None]
    turn = np.ascontiguousarray((rot[:-1] @ jl).transpose(2, 3, 0, 1))
    errors = np.empty((n_groups, 3, 3, 3, width))
    errors[:, 0] = turn.transpose(3, 0, 1, 2)
    errors[:, 1:] = lie.cross(
        after.transpose(1, 0, 2, 3)[:, :, None], turn[:, None]
    ).transpose(4, 1, 0, 2, 3)
    flat = errors.reshape(n_groups, 9, -1)
    cov = SIGMA_GYRO**2 * (flat @ flat.transpose(0, 2, 1))
    bias_jac = np.zeros((n_groups, 9, 6))
    bias_jac[:, 3:, :3] = -np.einsum("wng,ijng->gwij", weights, before).reshape(-1, 6, 3)
    bias_jac[:, :, 3:] = (errors.reshape(-1, width) @ np.ones(width)).reshape(-1, 9, 3)
    # A bias moves the gyro by minus its error: the rotation rows turn by
    # -dR^T / h.
    turn_back = delta_rot.transpose(0, 2, 1) / -h
    bias_jac[:, :3, 3:] = turn_back @ bias_jac[:, :3, 3:]
    cov[:, :3] = turn_back @ cov[:, :3]
    cov[:, :, :3] = cov[:, :, :3] @ turn_back.transpose(0, 2, 1)
    # sum_i w_i w'_i on the diagonal of the moments: n, then n (n^2 - 1) / 12.
    diagonal = np.einsum("gii->gi", cov)
    diagonal[:, 3:6] += (SIGMA_ACCEL**2 * count)[:, None]
    diagonal[:, 6:] += (SIGMA_ACCEL**2 * count * (count**2 - 1) / 12.0)[:, None]
    return _ImuGroups(taus[heads], taus[heads + count - 1], count, delta_rot,
                      moments.transpose(2, 0, 1), bias_jac, cov)


def _vectors(values):
    """A non-empty list of 3-vectors stacked into an (n, 3) array; any other
    shape raises ``InvalidArgumentError``."""
    try:
        stacked = np.array(values, dtype=float)
    except ValueError:
        stacked = None
    if stacked is None or stacked.shape != (len(values), 3):
        raise InvalidArgumentError("constraint and IMU vectors must have three entries")
    return stacked


class _WindowSystem:
    """Vectorized residuals over one window and their normal equations.

    A window has at least one map prior and one IMU sample whose stencil
    lies inside it; any other window is refused, so the parameters are
    always the K knots' corrections and the two biases.  Every residual
    reads poses at query times, laid out as ``[prior | IMU first - h | first
    | last | last + h]``, the prior queries at ``sl_prior`` and the IMU
    queries one per group at each of its four times (``q_imu``).
    Each query reads one pose point (``query_points``): a query that snaps
    to a sample reads that sample, and a query between two samples is a
    pose point of its own, after the samples, interpolated once from the
    initial samples at set-up.  The corrections move the pose points, never
    their times, so every point keeps the spline band of its own time for
    the window: its four spline weights and the four knots they read from
    its first knot, stored as columns (``point_weights``, ``point_reads``),
    so that a correction is four gathers of the knots' columns.  The
    per-point arithmetic of an iteration runs on (N,) component columns where
    it can; a composition of poses stays a stacked product of C-contiguous
    rows (see ``lie``).

    The IMU samples the window reads (the stencil of each, one trajectory
    step ``h`` either side, inside the window) are sorted by time once and
    folded into groups (:func:`_preintegrate`): maximal runs in half a knot
    interval, each sample ``h`` after the one before.  A group's prediction
    of its moments, a weighted sum of central differences, telescopes onto
    its four queries, and its rotation reads two of them.  Its nine rows,
    rotation then moments, are whitened by the inverse Cholesky factor of
    its covariance, one constant matrix per group (``imu_whiten``); a group
    of one sample drops its centred moment, which is zero.  Of the kept rows
    the moment rows come first (``sl_accel``), then the rotation rows
    (``sl_gyro``); their whitened bias Jacobians are the bias border
    (``imu_border``).  Groups in whole knot intervals would fix only K - 3
    rotation increments of the K - 1 that a spline of K knots has, and leave
    two modes per axis to the priors; groups in halves fix them all.

    The window is linearized at the folded pose points only, at zero
    correction (:meth:`fold`); a non-zero correction is refused.  The
    residual layer differentiates each whitened, robust-weighted prior row
    with respect to a world-frame left perturbation ``(phi, rho)`` of the
    query pose it reads (``R <- exp(phi) R``, ``t <- exp(phi) t + rho``), by
    cross products.  The nine rows of an IMU group read the
    same four queries, so its band is formed per group, not per row, from
    constants of the window, and whitened by one product per group
    (:meth:`_imu_band`).  At zero correction the increment ``(du_r, du_t)``
    of a knot moves a pose point by ``(phi, rho) = (du_r, du_t)`` times the
    point's spline weight on it, so the pose layer is the point bands alone.

    Clamped boundary knots fold onto the knot they repeat.  A row's band is
    the sum over the points it reads of the point's gradient, spread by the
    point's weights at its first-knot offset from the row's first knot, so
    its columns are the parameters of consecutive knots, as many as the
    widest band reads.  :meth:`normal_equations` sorts the rows by first
    knot and adds one ``L.T @ [L | r | border]`` per first knot, where the
    border is the constant bias columns; the border's own block of H is its
    constant product.  The spreads (``prior_spread``, as columns (W, n), and
    the IMU groups') and this order (``plan``) depend on the point bands
    only and are built once per window (:meth:`_rows`), as are the IMU
    bands' constants.  The sorted bands stay in the plan's buffers until the
    next build, so :meth:`chord_gradient` takes the gradient of the last
    build's Jacobian with new residuals without linearizing again.
    :meth:`jacobian` scatters the same row bands into a dense Jacobian,
    which only the tests read.

    :meth:`evaluate` returns an iterate that carries the query poses it
    read, gathered by ``take``, and the world points of the map priors'
    observations at those poses, and the linearization reuses both.  An
    accepted candidate, folded into the pose points (:meth:`fold`), is the
    next iterate as it stands, so no iterate is evaluated twice.  The window
    is a problem of :func:`solve`: its Cauchy kernel (``robust``) covers the
    prior rows, and :meth:`record` gives each iterate's RMS per family.
    """

    def __init__(self, prior_constraints, imu, traj, state):
        self.grid = state.grid
        self.n_knots = len(state.grid)
        self.traj_times = traj.times
        self.rate = traj.nominal_rate
        self.h = 1.0 / self.rate

        taus = np.array([s.tau for s in imu], dtype=float)
        keep = (taus - self.h >= traj.start) & (taus + self.h <= traj.end)
        if not prior_constraints or not keep.any():
            raise InvalidArgumentError(
                "a window needs map priors and IMU samples whose stencils lie inside it"
            )
        self.prior_u_m = _vectors([c.u_m for c in prior_constraints])
        self.prior_u_c = _vectors([c.u_c for c in prior_constraints])
        self.prior_n = _vectors([c.n_mc for c in prior_constraints])
        self.prior_taus = np.array([c.tau_c for c in prior_constraints], dtype=float)

        # One stable sort by time, so the groups do not depend on the order
        # of the list.
        order = np.flatnonzero(keep)[np.argsort(taus[keep], kind="stable")]
        usable = [imu[i] for i in order.tolist()]
        imu_taus = taus[order]
        imu_accel = _vectors([s.accel for s in usable])
        imu_gyro = _vectors([s.gyro for s in usable])
        # The one check of the window's inputs, over every array converted
        # above and the state's biases: the records themselves check nothing.
        biases = (state.accel_bias, state.gyro_bias)
        if any(b.shape != (3,) for b in biases):
            raise InvalidArgumentError("IMU biases must have three entries")
        converted = (self.prior_u_m, self.prior_u_c, self.prior_n, self.prior_taus, taus,
                     imu_accel, imu_gyro, *biases)
        if not all(np.isfinite(a).all() for a in converted):
            raise InvalidArgumentError(
                "constraint fields, times, IMU samples and biases must be finite"
            )
        if (np.abs(np.linalg.norm(self.prior_n, axis=1) - 1.0) > 1e-9).any():
            raise InvalidArgumentError("constraint normals must be unit vectors")

        self.n_prior = base = len(self.prior_taus)
        self.sl_prior = slice(0, base)
        # Per IMU group nine rows, rotation then the two moments (see
        # _ImuGroups), whitened by the group's covariance.  A group of one
        # sample drops its centred moment, zero and of no variance, so an
        # identity stands in for that block.  Of the kept rows, the moment
        # rows come first, then the rotation rows.  The segments are half
        # knot intervals (see the class docstring).
        segment = np.floor((imu_taus - self.grid.times[0]) / (0.5 * self.grid.step))
        self.imu = _preintegrate(imu_taus, imu_accel, imu_gyro, segment, self.h, *biases)
        count = self.imu.count
        n_groups = count.size
        comp = np.arange(9)
        kept = (comp < 6) | (count[:, None] > 1)
        self.imu_rows = np.concatenate([
            np.flatnonzero(kept & (comp >= 3)), np.flatnonzero(kept & (comp < 3))
        ])
        cov = self.imu.cov.copy()
        cov[count == 1, 6:, 6:] = np.eye(3)
        self.imu_whiten = np.linalg.inv(np.linalg.cholesky(cov))
        self.imu_bias_ref = np.concatenate(biases)
        # The whitened bias Jacobian of each kept row: the bias border.
        self.imu_border = (self.imu_whiten @ self.imu.bias_jac).reshape(-1, 6)[self.imu_rows]
        # Each moment's prediction sum_i w_i (t_{i+1} - 2 t_i + t_{i-1})
        # telescopes onto the group's four queries: moment 0 reads
        # [1, -1, -1, 1], moment 1 [-m, m + 1, -m - 1, m] at m = (n - 1) / 2.
        self.imu_coef = _MOMENT_COEF[0] + (0.5 * (count - 1.0))[:, None, None] * _MOMENT_COEF[1]
        # Per group: one step before its first sample, its first and its
        # last sample, one step after its last.
        ends = (self.imu.first, self.imu.last)
        imu_queries = [ends[0] - self.h, ends[0], ends[1], ends[1] + self.h]
        n_accel = self.imu_rows.size - 3 * n_groups
        self.sl_accel = slice(base, base + n_accel)
        self.sl_gyro = slice(base + n_accel, base + self.imu_rows.size)
        self.n_residuals = base + self.imu_rows.size

        self.q_imu = [slice(base + i * n_groups, base + (i + 1) * n_groups) for i in range(4)]
        query_taus = np.concatenate([self.prior_taus, *imu_queries])
        idx, alpha = brackets(traj.times, query_taus, 1e-9 * self.h)
        # The pose points: the samples, then one per query between samples.
        interior = (alpha > 0.0) & (alpha < 1.0)
        self.query_points = np.where(alpha == 1.0, idx + 1, idx)
        self.query_points[interior] = len(traj) + np.arange(np.count_nonzero(interior))
        rot, t = interpolate(traj.rotations, traj.translations, idx[interior], alpha[interior])
        self.base_rot = np.concatenate([traj.rotations, rot])
        self.base_t = np.concatenate([traj.translations, t])
        self.point_times = np.concatenate([traj.times, query_taus[interior]])

        # Each pose point's spline weights on four knots from its first knot,
        # and the knots they read, as columns (4, P).
        first, band = _knot_band(*self.grid.knot_indices_and_weights(self.point_times))
        self.point_weights = np.ascontiguousarray(band.T)
        self.point_reads = first + np.arange(4)[:, None]
        self.prior_spread, imu_spread, self.row_first, self.plan = self._rows()
        self.imu_layer = self._imu_layer_terms(imu_spread)

        self.robust = _Cauchy(self.n_prior)

    # -- parameter vector layout ------------------------------------------
    #
    # Knot k's correction (du_r, du_t) sits at 6k..6k+5, as in the row bands,
    # and the IMU biases b_a, b_g follow.

    def n_params(self):
        return 6 * self.n_knots + 6

    def split_params(self, x, state):
        """Knot corrections (K, 6), ``(du_r, du_t)`` per knot, and the biases."""
        k = self.n_knots
        b = x[6 * k :]
        return x[: 6 * k].reshape(k, 6), state.accel_bias + b[:3], state.gyro_bias + b[3:]

    def _corrected_points(self, knots):
        # At zero correction, as at each window's first evaluation, the pose
        # points are the stored ones, which the correction would give exactly.
        if not knots.any():
            return self.base_rot, self.base_t
        # Each point's correction (6, P), its four weights times the columns
        # of the knots they read, summed in knot order.  A band's trailing
        # weights may fall past the last knot, where they are zero; they read
        # zero columns.
        columns = np.zeros((6, self.n_knots + 3))
        columns[:, : self.n_knots] = knots.T
        weights, reads = self.point_weights, self.point_reads
        corr = weights[0] * columns.take(reads[0], axis=1)
        for j in range(1, 4):
            corr += weights[j] * columns.take(reads[j], axis=1)
        # The exponential takes contiguous rows, as its angles' rounding
        # depends on their layout.
        return compose_correction(
            lie.so3_exp_batch(np.ascontiguousarray(corr[:3].T)), corr[3:].T,
            self.base_rot, self.base_t,
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
        rot, t = (p.take(self.query_points, axis=0) for p in points)
        imu_log = self._imu_log(rot)
        residuals = np.empty(self.n_residuals)
        q = self.sl_prior
        world = np.einsum("nij,nj->ni", rot[q], self.prior_u_c) + t[q]
        residuals[q] = np.sum(self.prior_n * (self.prior_u_m - world), axis=1) / SIGMA_PRIOR
        raw = self._imu_raw(rot, t, b_a, b_g, imu_log)
        whitened = np.einsum("gij,gj->gi", self.imu_whiten, raw)
        residuals[self.sl_accel.start :] = whitened.reshape(-1)[self.imu_rows]
        return _Iterate(x, state, points, rot, t, world, imu_log, residuals)

    def _imu_log(self, rot):
        """Per IMU group, ``log(R_n^T R_0 dR)`` (G, 3) of the query rotations
        ``R_0`` at its first sample and ``R_n`` one step past its last, and
        the gyro's rotation ``dR``."""
        _, q_first, _, q_after = self.q_imu
        return lie.so3_log_batch(
            rot[q_after].transpose(0, 2, 1) @ rot[q_first] @ self.imu.delta_rot
        )

    def _imu_raw(self, rot, t, b_a, b_g, log):
        """The IMU groups' unwhitened residuals (G, 9) at query poses
        ``rot``, ``t`` and biases ``b_a``, ``b_g``: measured minus predicted,
        rotation rows in rad/s, then the moment rows in m/s^2, with the
        bias steps from the set-up biases applied to first order.  Moment w
        predicts ``R_0^T span_w``, ``span_w = sum_i w_i ((t_{i+1} - 2 t_i +
        t_{i-1}) / h^2 - g)`` from the group's four query translations.
        ``log`` is :meth:`_imu_log` at ``rot``."""
        points = t[self.q_imu[0].start :].reshape(4, -1, 3).transpose(1, 0, 2)
        span = (self.imu_coef @ points) / (self.h * self.h)
        span[:, 0] -= self.imu.count[:, None] * GRAVITY
        moments = (self.imu.moments - span @ rot[self.q_imu[1]]).reshape(-1, 6)
        step = np.concatenate([b_a, b_g]) - self.imu_bias_ref
        return (np.concatenate([log / self.h, moments], axis=1)
                + self.imu.bias_jac @ step)

    def record(self, iteration, cost, residuals, step_norm):
        """The :class:`IterationRecord` of an iterate of cost ``cost`` and
        whitened ``residuals``: the RMS per family (prior, accel, gyro), each
        whitened row times its family's sigma."""

        def rms(sl, sigma):
            r = residuals[sl]
            return float(np.sqrt(np.mean(r * r)) * sigma)

        return IterationRecord(
            iteration, cost, rms(self.sl_prior, SIGMA_PRIOR), rms(self.sl_accel, SIGMA_ACCEL),
            rms(self.sl_gyro, SIGMA_GYRO), step_norm,
        )

    # -- linearization ------------------------------------------------------

    def _prior_layer(self, world):
        """Derivatives of the whitened, robust-weighted prior rows with
        respect to a left perturbation of the query pose each reads, as
        columns (6, n), of the world points ``world`` (n, 3) of their
        observations."""
        coef = self.robust.weights[self.sl_prior] / SIGMA_PRIOR
        return _plane_columns(world, self.prior_n, -coef)

    def _imu_layer_terms(self, spread):
        """What the IMU bands take from the window alone, of each group's
        spread (G, W, 4) of its four queries (see :meth:`_imu_band`): the
        coefficients and offsets of ``V`` in the translations, the rotation
        rows' knot weights over ``h``, the whitening's moment columns, and
        two buffers: the whitening with its moment columns turned, and the
        bands, their translation columns ``-A_kw I`` set."""
        count = self.imu.count
        coef = self.imu_coef / (self.h * self.h)
        n_groups, width = spread.shape[:2]
        # V = lever @ points + offset, per group, moment and knot.
        lever = (spread - spread[:, :, 1:2])[:, None] * coef[:, :, None]
        offset = np.zeros((n_groups, 2, width, 3))
        offset[:, 0] = (spread[:, :, 1] * count[:, None])[..., None] * GRAVITY
        turn = (spread[:, :, 1] - spread[:, :, 3])[:, None, :, None] / self.h
        moment_columns = self.imu_whiten[:, :, 3:].reshape(n_groups, 18, 3)
        whiten = self.imu_whiten.copy()
        # (G, row block, row, knot, column): the rotation rows, then the
        # rows of each moment.
        band = np.zeros((n_groups, 3, 3, width, 6))
        shift = -(spread @ coef.transpose(0, 2, 1)).transpose(0, 2, 1)  # -A, (G, 2, W)
        for i in range(3):
            band[:, 1:, i, :, 3 + i] = shift
        return (lever.reshape(n_groups, 2 * width, 4), offset.reshape(n_groups, -1, 3), turn,
                moment_columns, whiten, band)

    def _imu_band(self, rot, t, log):
        """Row bands (n, 6W) of the kept IMU rows at query poses ``rot``,
        ``t`` with rotation logs ``log`` (:meth:`_imu_log`), formed per
        group: its nine rows read the same four queries, so the spread of the
        queries' weights is taken before the whitening.

        At knot k of the group's band, with ``S_kj`` the spread of query j
        and ``c_wj`` its moment coefficients, moment w's rows are ``R_0^T
        [hat(V_kw), -A_kw I]`` with ``A_kw = sum_j S_kj c_wj / h^2`` and
        ``V_kw = sum_j S_kj c_wj t_j / h^2 - S_k1 span_w``, and the rotation
        rows are ``(S_k1 - S_k3) Jl^-1(phi) R_n^T / h``.  ``V`` is linear in
        the four translations, with the window's coefficients, and ``-A`` is
        the window's (:meth:`_imu_layer_terms`).  The whitening's moment
        columns take each ``R_0^T``, so one product per group by the turned
        whitening gives the group's nine whitened rows."""
        lever, offset, turn, moment_columns, whiten, band = self.imu_layer
        n_groups, _, _, width, _ = band.shape
        points = t[self.q_imu[0].start :].reshape(4, -1, 3).transpose(1, 0, 2)
        # hat(V) written entry by entry; its zero diagonal stays as set up.
        v = (lever @ points + offset).reshape(n_groups, 2, width, 3)
        hat = band[:, 1:, :, :, :3]
        for i, j, k in lie._CYCLIC:
            np.negative(v[..., k], out=hat[:, :, i, :, j])
            hat[:, :, j, :, i] = v[..., k]
        right = lie.so3_left_jacobian_inv(log) @ rot[self.q_imu[3]].transpose(0, 2, 1)
        np.multiply(turn, right[:, :, None], out=band[:, 0, :, :, :3])
        turned = moment_columns @ rot[self.q_imu[1]].transpose(0, 2, 1)
        whiten[:, :, 3:] = turned.reshape(n_groups, 9, 6)
        whitened = whiten @ band.reshape(n_groups, 9, -1)
        return whitened.reshape(9 * n_groups, -1)[self.imu_rows]

    def _rows(self):
        """Row structure, built once per window: the spread
        (``_row_spreads``) of the prior rows and that of the IMU groups, one
        per group in group order, both at the widest band W; the first
        knot of each residual row, the priors' then the IMU's; and the plan
        of :meth:`normal_equations`: six times the knots the bands reach,
        where the prior rows and the IMU rows go in stable first-knot order,
        a buffer for their bands in that order, the residual row at each
        place of it, with the residuals and the constant bias border after
        the bands, and the first-knot spans.  The rows are the residual rows
        in order, so the residual row at each place of that order is the
        order itself."""
        first, band = self.point_reads[0], self.point_weights.T
        points = (self.query_points[self.sl_prior, None],
                  self.query_points[self.q_imu[0].start :].reshape(4, -1).T)
        width, ((prior_first, prior_spread), (group_first, imu_spread)) = _row_spreads(
            *((first[p], band[p]) for p in points)
        )
        row_first = np.concatenate([prior_first, group_first[self.imu_rows // 9]])
        # Knots the bands reach; past the last knot only zero weights reach.
        size = 6 * max(self.n_knots, int(row_first.max()) + width)
        order = stable_order(row_first)
        first = row_first[order]
        bounds = np.flatnonzero(np.diff(first)) + 1
        lo = np.r_[0, bounds]
        spans = list(zip(lo, np.r_[bounds, first.size], 6 * first[lo]))
        place = np.empty_like(order)
        place[order] = np.arange(order.size)
        at = (place[self.sl_prior], place[self.n_prior :])
        # The bands, then the residuals, both refilled per call, then the
        # constant bias border.
        buffer = np.zeros((order.size, 6 * width + 7))
        buffer[at[1], 6 * width + 1 :] = self.imu_border
        # The priors' spread as columns (W, n), one weight per knot and row.
        prior_spread = np.ascontiguousarray(prior_spread[:, :, 0].T)
        return prior_spread, imu_spread, row_first, (size, 6 * width, at, buffer, order, spans)

    def _linearize(self, it):
        """Row bands (n, 6W) of the robust-weighted prior rows and IMU rows
        at iterate ``it``, which must have zero correction, with the knots in
        the knot-major layout.  The robust weights are held fixed."""
        if np.any(it.x[: 6 * self.n_knots]):
            raise InvalidArgumentError("linearized at zero correction only; fold it first")
        # Each knot's weight times each derivative column, (W, 6, n).
        prior = self.prior_spread[:, None] * self._prior_layer(it.world)
        return (prior.transpose(2, 0, 1).reshape(self.n_prior, -1),
                self._imu_band(it.rot, it.t, it.imu_log))

    def normal_equations(self, it, weighted):
        """``H = J.T @ J`` and ``g = J.T @ weighted`` of the robust-weighted
        residuals ``weighted`` at iterate ``it`` of zero correction, built
        from the row bands grouped by first knot, without forming J.  Each
        block is added straight into H, cropped to the window's knots.  The
        bias border is constant, so its block of H is the border's own
        product and its gradient reads the IMU rows alone.  One product per
        first knot, of its rows' bands with their bands, residuals and
        border, gives both its block of H and its right-hand sides."""
        size, width, at, buffer, order, spans = self.plan
        for a, rows_band in zip(at, self._linearize(it)):
            buffer[a, :width] = rows_band
        buffer[:, width] = weighted[order]
        n = 6 * self.n_knots
        hess = np.zeros((n + 6, n + 6))
        h_kr = np.zeros((size, buffer.shape[1] - width))
        # The rows are sorted by first knot; each first knot adds one block.
        for lo, hi, k in spans:
            block = buffer[lo:hi]
            product = block[:, :width].T @ block
            m = min(width, n - k)
            hess[k : k + m, k : k + m] += product[:m, :m]
            h_kr[k : k + width] += product[:, width:]
        hess[:n, n:] = h_kr[:n, 1:]
        hess[n:, :n] = h_kr[:n, 1:].T
        hess[n:, n:] = self.imu_border.T @ self.imu_border
        border = self.imu_border.T @ weighted[self.sl_accel.start :]
        return hess, np.concatenate([h_kr[:n, 0], border])

    def chord_gradient(self, weighted):
        """``J.T @ weighted`` with the Jacobian ``J`` of the last
        :meth:`normal_equations` build, read from the row bands that build
        left in its buffers: one ``block.T @ r`` per first knot, and the bias
        border's product with the IMU rows."""
        size, width, _, buffer, order, spans = self.plan
        grad = np.zeros(size)
        r = weighted[order]
        for lo, hi, k in spans:
            grad[k : k + width] += buffer[lo:hi, :width].T @ r[lo:hi]
        border = self.imu_border.T @ weighted[self.sl_accel.start :]
        return np.concatenate([grad[: 6 * self.n_knots], border])

    def jacobian(self, x, state):
        """Dense Jacobian of the robust-weighted residuals, the row bands of
        :meth:`normal_equations` scattered into their columns and the bias
        border, at an ``x`` of zero correction.  Only tests read it."""
        band = np.concatenate(self._linearize(self.evaluate(x, state)))
        size, *_ = self.plan
        knots = np.zeros((self.n_residuals, size))
        columns = 6 * self.row_first[:, None] + np.arange(band.shape[1])
        np.put_along_axis(knots, columns, band, axis=1)
        border = np.zeros((self.n_residuals, 6))
        border[self.sl_accel.start :] = self.imu_border
        return np.hstack([knots[:, : 6 * self.n_knots], border])


def optimize_window(priors, imu, traj, init, cfg=None):
    """Damped Gauss-Newton (:func:`solve`) over the knot corrections and
    the IMU biases.

    ``priors`` are :class:`MapPriorConstraint` instances and ``imu``
    :class:`ImuSample` instances; an element of ``priors`` of any other type
    raises :class:`InvalidArgumentError`, as does a window without a prior,
    one without an IMU sample whose stencil (one trajectory step either
    side) lies inside ``traj``, and one with fewer residuals than
    parameters.  Returns the final state, the corrected
    trajectory, and a per-iteration report.

    The cost is the sum of squared whitened residuals, Cauchy-robust on the
    prior rows, so its unit is one χ² unit.  The window stops by
    the rules of :func:`solve`; when the cost cannot be lowered
    (``"no_progress"``), :class:`NoProgressError` carries the last
    accepted state, trajectory and report.  A rank-deficient window raises
    :class:`DegenerateGeometryError` before any step.
    """
    if cfg is None:
        cfg = OptimizerConfig()
    if traj.end - traj.start > cfg.window + 1e-9:
        raise InvalidArgumentError("trajectory longer than the configured window")
    if not init.grid.covers(traj.times).all():
        raise MissingSupportError("grid does not span the window", traj.times)

    if not all(isinstance(c, MapPriorConstraint) for c in priors):
        raise InvalidArgumentError("constraints must be MapPriorConstraint records")
    system = _WindowSystem(priors, imu, traj, init)
    if system.n_residuals < system.n_params():
        raise InvalidArgumentError(
            f"{system.n_residuals} residuals cannot observe {6 * system.n_knots} knot "
            "states and 6 IMU biases"
        )

    state = OptState(init.grid, init.accel_bias.copy(), init.gyro_bias.copy())
    it = system.evaluate(np.zeros(system.n_params()), state)
    it, report = solve(system, it)
    if report.reason == "no_progress":
        raise NoProgressError("cost failed to decrease after damping retries", best_state=it.state,
                              best_trajectory=_trajectory_from(system), report=report)
    return it.state, _trajectory_from(system), report


# -- the damped Gauss-Newton driver --------------------------------------------


class _Cauchy:
    """The annealed Cauchy kernel over a problem's leading ``n_robust``
    rows; the rows after them are quadratic.

    Each :meth:`update` takes the scale to the spread of the current
    residuals, floored at the 3-sigma ``CAUCHY_SCALE`` and never above the
    scale before it (``scale``, infinite for a new problem), so it tightens
    monotonically as the fit improves.  A fixed small scale would let the
    solver park badly initialized rows behind the kernel.  Because the Cauchy cost
    is increasing in the scale, a non-increasing scale keeps the recorded
    cost non-increasing across accepted iterations.  The weights are those
    of the residuals of the last :meth:`update`, held fixed until the next.
    """

    def __init__(self, n_robust, scale=np.inf):
        self.n_robust, self.scale, self.weights = n_robust, scale, np.ones(n_robust)

    def update(self, residuals):
        r = residuals[: self.n_robust]
        spread = 3.0 * np.median(np.abs(r)) / 0.6745 if r.size else 0.0
        self.scale = min(self.scale, max(CAUCHY_SCALE, spread))
        self.weights = 1.0 / np.sqrt(1.0 + (r / self.scale) ** 2)

    def weighted(self, residuals):
        out = residuals.copy()
        out[: self.n_robust] *= self.weights
        return out

    def cost(self, residuals):
        c = self.scale
        robust, quad = residuals[: self.n_robust], residuals[self.n_robust :]
        return float(np.sum(c * c * np.log1p((robust / c) ** 2)) + np.sum(quad * quad))


def solve(problem, it):
    """Damped Gauss-Newton on ``problem`` from its iterate ``it`` of zero
    correction: the final iterate and an :class:`OptimizationReport`.

    A problem has an annealed Cauchy kernel over its leading rows
    (``robust``, a :class:`_Cauchy`) and five methods: ``evaluate(x,
    state)``, an iterate with ``x``, ``state`` and whitened ``residuals``;
    ``normal_equations(it, weighted)``, ``H = J.T @ J`` and ``g = J.T @
    weighted`` of the robust-weighted rows, linearized at ``it``;
    ``chord_gradient(weighted)``, ``J.T @ weighted`` with the last build's
    ``J``; ``fold(it)``, the same poses as an iterate of zero correction;
    and ``record(iteration, cost, residuals, step_norm)``, an
    :class:`IterationRecord`.

    The cost is the kernel's, in χ² units: a sum of squared whitened
    residuals, so one unit is one χ² unit.  Each iteration solves the
    damped normal equations for a step ``delta`` and takes its model
    decrease ``-2 delta.g - delta.H delta`` in the same units.  The driver
    stops, converged, with reason

    - ``"predicted_decrease"`` when that model decrease is below
      ``CHI2_TOL``; the step is then not evaluated;
    - ``"predicted_decrease"`` as well when, after an accepted step, the
      chord model predicts less than ``CHI2_TOL``: the last build's H at
      the current damping, with the gradient ``J_k^T w_{k+1}`` of the last
      build's Jacobian and the accepted step's weighted residuals.  It then
      stops without building the normal equations again; otherwise they
      are built and tested as above;
    - ``"cost_decrease"`` when an accepted step lowered the cost by less
      than ``CHI2_TOL``;
    - ``"zero_cost"`` when the cost is below 1e-16.

    A rejected step is solved again with ten times the damping, up to
    ``DAMPING_RETRIES`` times; the damping falls by three after an
    accepted step.  When every retry fails to lower the cost while the model
    still predicts at least ``CHI2_TOL``, it stops unconverged with
    ``"no_progress"`` at the last accepted iterate; after ``MAX_ITERATIONS``
    accepted steps, with ``"max_iterations"``.

    The first build's H is checked for rank before any step or stop, so a
    problem that starts at zero cost is checked too: an eigenvalue
    below ``RANK_TOL`` (1e-12) times the largest is a null direction, and
    :class:`DegenerateGeometryError` reports their number.  A Cholesky
    factorization of ``H`` less ``(RANK_TOL + n^2 eps) ||H||_inf`` on its
    diagonal proves that there are none (``||H||_inf`` bounds the largest
    eigenvalue, ``n^2 eps`` the factorization's rounding), and only when it
    fails does ``eigvalsh`` count them (:func:`_null_dimension`).
    """
    problem.robust.update(it.residuals)
    cost = problem.robust.cost(it.residuals)
    records = [problem.record(0, cost, it.residuals, 0.0)]

    lam = DAMPING_INIT
    reason, stop_decrease = "max_iterations", np.nan
    # The first build and its rank check come before any stop.
    hess, grad = problem.normal_equations(it, problem.robust.weighted(it.residuals))
    null_dim = _null_dimension(hess)
    if null_dim > 0:
        raise DegenerateGeometryError(
            f"normal equations rank deficient (null space dimension {null_dim})", null_dim
        )
    for iteration in range(1, MAX_ITERATIONS + 1):
        if cost < 1e-16:
            reason = "zero_cost"
            break
        if iteration > 1:
            weighted = problem.robust.weighted(it.residuals)
            # The chord test: the last build's H and Jacobian with the new
            # residuals, at the current damping.
            chord_grad = problem.chord_gradient(weighted)
            try:
                _, chord = _model_step(hess, chord_grad, lam * diag)
            except np.linalg.LinAlgError:
                chord = np.inf
            if chord < CHI2_TOL:
                reason, stop_decrease = "predicted_decrease", chord
                break
            hess, grad = problem.normal_equations(it, weighted)
        diag = np.diag(hess).copy()
        diag[diag <= 0.0] = 1.0

        for _ in range(DAMPING_RETRIES + 1):
            try:
                delta, decrease = _model_step(hess, grad, lam * diag)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            if decrease < CHI2_TOL:
                break
            candidate = problem.evaluate(it.x + delta, it.state)
            if problem.robust.cost(candidate.residuals) < cost:
                break
            lam *= 10.0
        else:
            reason = "no_progress"
            break
        if decrease < CHI2_TOL:
            reason, stop_decrease = "predicted_decrease", decrease
            break

        lam = max(lam / 3.0, 1e-12)
        # Fold the accepted correction in and restart it from zero; the
        # next iteration linearizes at the candidate's poses.
        it = problem.fold(candidate)
        problem.robust.update(it.residuals)
        new_cost = problem.robust.cost(it.residuals)
        decrease, cost = cost - new_cost, new_cost
        records.append(problem.record(iteration, cost, it.residuals, float(np.linalg.norm(delta))))
        if decrease < CHI2_TOL:
            reason, stop_decrease = "cost_decrease", decrease
            break

    converged = reason not in ("max_iterations", "no_progress")
    return it, OptimizationReport(records, converged, reason, float(stop_decrease))


def _model_step(hess, grad, damping):
    """The step ``delta`` of the normal equations ``hess``, ``grad`` damped
    by the vector ``damping``, added to the diagonal of one copy of
    ``hess`` (Marquardt: ``lam`` times the diagonal of H), and the decrease
    of the cost that the Gauss-Newton model predicts for it,
    ``-2 delta.g - delta.H delta``, in χ² units."""
    damped = hess.copy()
    damped.flat[:: len(damped) + 1] += damping
    delta = np.linalg.solve(damped, -grad)
    return delta, -2.0 * (delta @ grad) - delta @ (hess @ delta)


def _null_dimension(hess):
    """Number of eigenvalues of the symmetric ``hess`` below ``RANK_TOL``
    times the largest, taken as at least 1e-30.

    A Cholesky factorization of ``hess - tau I`` proves that there are none,
    so ``eigvalsh`` runs only when it fails.  The shift ``tau`` is
    ``(RANK_TOL + n^2 eps) max(||H||_inf, 1e-30)``: ``||H||_inf`` bounds the
    largest eigenvalue from above, and a factorization that completes in
    floating point is exact for a perturbation of norm below about
    ``n^2 eps ||H||`` (Higham, *Accuracy and Stability of Numerical
    Algorithms*, Thm 10.7 and §10.3).  A factor with a non-finite pivot,
    as a non-finite H gives, proves nothing either.
    """
    n = len(hess)
    # One n x n buffer: |H| for the norm, then the shifted copy.
    shifted = np.abs(hess)
    scale = max(shifted.sum(axis=1).max(), 1e-30)
    shifted[...] = hess
    shifted.flat[:: n + 1] -= (RANK_TOL + n * n * np.finfo(float).eps) * scale
    try:
        full_rank = np.isfinite(np.linalg.cholesky(shifted).diagonal()).all()
    except np.linalg.LinAlgError:
        full_rank = False
    if full_rank:
        return 0
    eigvals = np.linalg.eigvalsh(hess)
    return int(np.sum(eigvals < max(eigvals[-1], 1e-30) * RANK_TOL))


def _trajectory_from(system):
    n = len(system.traj_times)
    return Trajectory(
        system.traj_times.copy(), system.base_rot[:n].copy(), system.base_t[:n].copy(),
        system.rate,
    )
