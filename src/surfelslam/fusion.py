"""Probabilistic surfel fusion: beam noise model, resolution-preserving
two-stage matching, normal-inverse-Wishart centroid/extent updates, and the
temporal active/inactive map step.  The beam noise model, the ICP's limits
and the loop-closure thresholds are fixed model values, module constants.

Each stage works on stacks: the beam noise of every return, the gates of
every candidate pair, and the Wishart and normal updates of every
destination are whole-array operations over ``DenseSurfels`` batches.  The
single-surfel functions (``beam_noise_for_return``, ``match_surfel``,
``fuse_surfel``) are the batch functions on a batch of one; a single dense
surfel, a row view of a batch or any object with every field, enters
through ``DenseSurfels.of``, which checks it.  Sparse surfels
enter only as ``SparseSurfels`` batches.  A fusion step reads
the global dense map's one batch and builds the next one, which replaces
it: it folds its measurements into their destinations in rounds, each
round fusing the next pending measurement of every destination, and checks
the fused rows once, with the eigenvalues of the update's PSD clamps.
``match_surfel`` reads the stored batch as it is.  The sparse ICP reads
the arrays of ``SparseSurfels`` batches, keys its destinations once per call
and pairs its surfels through one join with them per association round; each
round's point-to-plane fit runs the window optimizer's damped Gauss-Newton
driver (``local_mapping.solve``), so the window and the ICP share one step,
one damping schedule, one set of stop rules and one robust kernel.  Both
linearize a plane distance into the same rows (``local_mapping._plane_rows``);
the ICP turns its pose about the centre of each round's pairs, not about the
world origin (see ``_PlaneProblem``), so its steps and its rank check do not
depend on where the overlap lies.

Every 3×3 decomposition here is a closed-form kernel of ``surfel_map``:
``eigh3`` through ``psd_eigh`` for the scatters, whose smallest eigenvectors
are the normals, the values-only ``eigvalsh3`` for the extents' and
centroid covariances' clamps (``psd_eigvalsh``) and the ICP's
normal-eigenvalue ratio, and ``cholesky3`` for the Wishart update's
Cholesky factors and their inverses.

The Wishart update treats each incoming surfel as a batch of ``n`` points
summarized by their mean, accrued scatter, and world-frame measurement noise;
matrix square roots are lower Cholesky factors throughout.
"""

from __future__ import annotations

import logging
from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np

from . import lie
from .errors import DegenerateGeometryError, InvalidArgumentError
from .local_mapping import (CHI2_TOL, RANK_TOL, SIGMA_PRIOR, IterationRecord,
                            OptimizationReport, _Cauchy, _plane_rows, solve)
from .surfel_map import (
    DenseSurfelMap,
    DenseSurfels,
    GlobalMaps,
    KeyedPoints,
    SparseSurfels,
    _DIAGONAL,
    _concat,
    _entries,
    _put,
    _rayleigh,
    _require_sparse,
    _row_dot,
    check_dense,
    cholesky3,
    eigvalsh3,
    psd_eigh,
    psd_eigvalsh,
    radius_join,
    stable_order,
)
from .trajectory import compose_correction

log = logging.getLogger(__name__)

MEASUREMENT_DIM = 3


# Beam noise: range noise across the beam (m), depth noise along it of
# SIGMA_D_BASE plus SIGMA_D_PER_METER of range, and the beam divergence (rad)
# whose footprint adds depth noise at oblique incidence, up to GRAZING_CUTOFF.
SIGMA_R = 0.003
SIGMA_D_BASE = 0.008
SIGMA_D_PER_METER = 0.0005
BEAM_DIVERGENCE = 0.003
GRAZING_CUTOFF = np.pi / 2 - 1e-3


def incidence_variance(angle, range_m):
    """Extra depth variance from the beam footprint at oblique incidence, for
    one angle and range or elementwise over arrays; angles at or past the
    grazing cutoff are clamped to it."""
    angle = np.asarray(angle, dtype=float)
    if np.any(angle < 0.0):
        raise InvalidArgumentError("incidence angle must be non-negative")
    return (range_m * np.tan(np.minimum(angle, GRAZING_CUTOFF)) * BEAM_DIVERGENCE) ** 2


def beam_noise_batch(sensor_origin, points, surface_normals):
    """World-frame measurement noise of each return in ``points`` seen from
    ``sensor_origin``, on surfaces of the given normals."""
    beam = np.asarray(points, dtype=float).reshape(-1, 3) - np.asarray(sensor_origin, dtype=float)
    range_m = np.sqrt(_row_dot(beam, beam))
    # A return at the sensor has no beam direction: isotropic range noise.
    at_sensor = range_m < 1e-9
    beam[at_sensor] = 0.0
    range_m[at_sensor] = 1.0
    unit = beam / range_m[:, None]
    sigma_d = SIGMA_D_BASE + SIGMA_D_PER_METER * range_m
    normals = np.asarray(surface_normals, dtype=float).reshape(-1, 3)
    cos_i = np.abs(_row_dot(normals, unit))
    angle = np.arccos(np.clip(cos_i, 0.0, 1.0))
    sigma_i_sq = incidence_variance(angle, range_m)
    # Range noise across the beam, depth plus incidence noise along it:
    # sigma_r^2 I + (sigma_d^2 + sigma_i^2 - sigma_r^2) b b^T for the unit
    # beam b, symmetric as computed.
    along = sigma_d**2 + sigma_i_sq - SIGMA_R**2
    outer = unit[:, :, None] * unit[:, None, :]
    return SIGMA_R**2 * np.eye(3) + along[:, None, None] * outer


def beam_noise_for_return(sensor_origin, point, surface_normal):
    """World-frame measurement noise for one return given the scan geometry."""
    return beam_noise_batch(sensor_origin, [point], [surface_normal])[0]


# -- matching ---------------------------------------------------------------


@dataclass
class MatchParams:
    resolution_threshold: float = 0.02  # theta_r, meters
    depth_threshold: float = 3.0  # theta_d, Mahalanobis


def _gate_arrays(surfels: DenseSurfels):
    """Centroids, normals and normal variances ``n^T C n`` of the centroid
    covariances."""
    normal = surfels.normal
    variance = _rayleigh(_entries(surfels.centroid_cov)[0], np.ascontiguousarray(normal.T))
    return surfels.centroid, normal, variance


# The match join's relative pad on the farthest centroid the gates pass: it
# covers 2 - |n|^2 up to 1 + 2 UNIT_TOLERANCE, for normals unit within
# UNIT_TOLERANCE, and the rounding of the gates.
MATCH_REACH = 1.0 + 1e-6


def match_pairs(sources, targets, params: MatchParams | None = None):
    """Every (source, target) pair of dense surfels passing both matching
    gates: index arrays into ``sources`` and ``targets`` (batches, or lists
    of single surfels that ``DenseSurfels.of`` checks) and the source
    centroid's signed distance along the target normal, in no particular
    order.

    A pair passes when the source centroid lies within ``theta_r`` of the
    target's normal line and within ``theta_d`` standard deviations of its
    plane, the variance being the sum of both centroid covariances along
    their normals.  One radius join gathers the candidates, with a radius
    that bounds the farthest centroid that could pass both gates, so the
    result equals exhaustive evaluation.  The gates read each covariance
    only through ``n^T C n``, so a passing pair's variance is at most
    ``V = max(src n^T C n) + max(dst n^T C n)``, and its offset
    ``delta = along n + off`` has ``|delta|^2 = in_plane^2 + along^2 (2 -
    |n|^2) < theta_r^2 + theta_d^2 V (2 - |n|^2)``.  Normals are unit within
    ``UNIT_TOLERANCE``, so ``MATCH_REACH`` times ``sqrt(theta_r^2 +
    theta_d^2 V)`` bounds ``|delta|`` with room for the gates' rounding.
    A covariance wide in the plane of its disc does not widen the join.
    """
    if params is None:
        params = MatchParams()
    src_c, _, src_var = _gate_arrays(DenseSurfels.of(sources))
    dst_c, dst_n, dst_var = _gate_arrays(DenseSurfels.of(targets))
    radius = MATCH_REACH * np.sqrt(
        params.resolution_threshold**2
        + params.depth_threshold**2 * (src_var.max(initial=0.0) + dst_var.max(initial=0.0))
    )
    i, j, _ = radius_join(src_c, dst_c, radius)
    delta = src_c[i] - dst_c[j]
    normal = dst_n[j]
    along = _row_dot(normal, delta)
    off_normal = delta - along[:, None] * normal
    in_plane = np.sqrt(_row_dot(off_normal, off_normal))
    sigma = np.sqrt(src_var[i] + dst_var[j])
    passed = (in_plane < params.resolution_threshold) & (
        np.abs(along) / sigma < params.depth_threshold
    )
    return i[passed], j[passed], along[passed]


def match_surfel(src, dense_map: DenseSurfelMap, params: MatchParams | None = None):
    """Keys of the map surfels that ``src``, one dense surfel (a row view,
    or any object with every field), matches (see ``match_pairs``),
    sorted."""
    _, found, _ = match_pairs([src], dense_map.batch, params)
    return sorted(found.tolist())


# -- Wishart fusion -----------------------------------------------------------


@dataclass(frozen=True)
class SurfelMeasurement:
    """Batch summary of the points backing one incoming surfel, or, with a
    leading axis on every field, of a stack of them."""

    mean: np.ndarray
    scatter: np.ndarray
    count: float
    noise: np.ndarray
    timestamp: float

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "scatter", np.asarray(self.scatter, dtype=float))
        object.__setattr__(self, "noise", np.asarray(self.noise, dtype=float))
        if np.any(np.asarray(self.count) < 1):
            raise InvalidArgumentError("measurement needs at least one point")


def _chol_or_regularize(at, *what):
    """Lower Cholesky factors of a (3, 3, m) entries stack and their
    inverses (``cholesky3``), by one kernel call.  The stack is
    ``len(what)`` equal blocks along the batch axis, block k of the matrices
    named ``what[k]``.  A matrix whose factorization fails is factored again
    with 1e-12 I added.  Then, block by block, each such matrix is logged,
    and one that still fails raises ``InvalidArgumentError`` naming its
    block: the warnings and the error of one call per block."""
    factor, inverse, failed = cholesky3(at)
    if failed.any():
        rows = np.flatnonzero(failed)
        again = at.take(rows, axis=2)
        again[_DIAGONAL] += 1e-12
        still = np.zeros_like(failed)
        factor[:, :, rows], inverse[:, :, rows], still[rows] = cholesky3(again)
        for name, tried, left in zip(what, failed.reshape(len(what), -1),
                                     still.reshape(len(what), -1)):
            for _ in range(np.count_nonzero(tried)):
                log.warning("%s singular during fusion; regularizing", name)
            if left.any():
                raise InvalidArgumentError(
                    f"{name} is not positive definite, even with 1e-12 I added")
    return factor, inverse


def extract_normal_batch(eigh, previous):
    """Smallest-eigenvalue eigenvector of each scatter, given the scatters'
    ``eigh3`` ``(eigenvalues, normals)``, sign-continuous with its previous
    normal; the previous normal is kept where the two smallest eigenvalues
    are indistinguishable."""
    eigenvalues, normals = eigh
    scale = np.maximum(np.abs(eigenvalues[:, 2]), 1e-30)
    ambiguous = eigenvalues[:, 1] - eigenvalues[:, 0] < 1e-9 * scale
    if log.isEnabledFor(logging.DEBUG):
        for _ in range(np.count_nonzero(ambiguous)):
            log.debug("ambiguous surfel normal; keeping previous")
    flip = _row_dot(normals, previous) < 0.0
    return np.where(ambiguous[:, None], previous, np.where(flip[:, None], -normals, normals))


def fuse_batch(dst: DenseSurfels, meas: SurfelMeasurement):
    """Normal-inverse-Wishart update of centroid, covariance, and extent of
    each destination row by the measurement in the same row of a stacked
    ``meas`` (Park et al., Elastic LiDAR Fusion, ICRA 2018).

    The update runs on component-first (3, 3, m) entries and calls no
    LAPACK routine.  One ``cholesky3`` call on Y and S side by side gives
    their inverse factors M_Y and M_S, so S^-1 = M_S^T M_S enters only through
    M_S: the centroid moves by C M_S^T (M_S delta) and the covariance by
    (M_S C)^T (M_S C).  The left factors L_X M_S and L_X M_Y, with L_X the
    factor of the clamped extent, are products of lower-triangular
    factors; L_X M_S enters only through the one vector L_X (M_S delta),
    whose outer product is the innovation term.
    ``oracles.fuse_batch_lapack`` is the same update through LAPACK's
    stacked inverses.

    Returns the fused batch, not checked, and the eigenvalues of its
    centroid covariances and scatters as ``check_dense`` takes them: the
    PSD clamps give them, ``psd_eigh`` of the scatters, whose eigenvectors
    give the normals too, and one ``psd_eigvalsh`` of the extents and the
    centroid covariances together, which works row by row and so equals
    one call per stack.
    """
    if np.any(dst.dof <= MEASUREMENT_DIM + 1):
        raise InvalidArgumentError("surfel extent state not yet well defined")
    count = np.asarray(meas.count, dtype=float)
    cov, scatter, noise, meas_scatter = (
        _entries(m)[0] for m in (dst.centroid_cov, dst.scatter, meas.noise, meas.scatter))
    extent = scatter / (dst.dof - MEASUREMENT_DIM - 1)
    y = extent + noise
    n = len(count)
    _, inverses = _chol_or_regularize(np.concatenate([y, cov + y / count], axis=-1),
                                      "innovation scale Y", "innovation covariance S")
    # Contiguous copies: einsum sums a strided operand in another order.
    inv_sqrt_y, inv_sqrt_s = (np.ascontiguousarray(m)
                              for m in (inverses[..., :n], inverses[..., n:]))
    delta = (meas.mean - dst.centroid).T
    whitened = np.einsum("ikm,km->im", inv_sqrt_s, delta)
    step = np.einsum("ikm,lkm,lm->im", cov, inv_sqrt_s, whitened)
    root_gain = np.einsum("ikm,kjm->ijm", inv_sqrt_s, cov)
    cov -= np.einsum("kim,kjm->ijm", root_gain, root_gain)

    clamped, eigenvalues = psd_eigvalsh(np.moveaxis(np.concatenate([extent, cov], axis=-1), -1, 0))
    x = _entries(clamped[:n])[0]
    x[_DIAGONAL] += 1e-18
    sqrt_x, _ = _chol_or_regularize(x, "extent X")
    v = np.einsum("ikm,km->im", sqrt_x, whitened)
    left_y = np.einsum("ikm,kjm->ijm", sqrt_x, inv_sqrt_y)
    fused_scatter = (scatter + v[:, None] * v[None]
                     + np.einsum("ikm,klm,jlm->ijm", left_y, meas_scatter, left_y))
    scatter, scatter_eigh = psd_eigh(np.moveaxis(fused_scatter, -1, 0))
    mean = dst.centroid + step.T
    centroid_cov, cov_eigenvalues = clamped[n:], eigenvalues[n:]

    fused = replace(
        dst,
        centroid=mean,
        normal=extract_normal_batch(scatter_eigh, dst.normal),
        centroid_cov=centroid_cov,
        scatter=scatter,
        dof=dst.dof + count,
        obs_count=dst.obs_count + 1,
        timestamp=np.maximum(dst.timestamp, meas.timestamp),
    )
    return fused, {"centroid_cov": cov_eigenvalues, "scatter": scatter_eigh[0]}


def fuse_surfel(dst, meas: SurfelMeasurement):
    """``fuse_batch`` for one dense surfel (a row view, or any object with
    every field), checked as it enters and as it leaves: the fused surfel's
    row view."""
    one = SurfelMeasurement(
        meas.mean[None], meas.scatter[None], [meas.count], meas.noise[None], [meas.timestamp]
    )
    return check_dense(*fuse_batch(DenseSurfels.of([dst]), one))[0]


# -- point-to-plane ICP on sparse surfels -------------------------------------

# The ICP's cap on association rounds, the radius within which it pairs
# centroids and the plane distance within which a pair is an inlier, in meters.
ICP_MAX_ITERATIONS = 20
MAX_PAIR_DISTANCE = 0.5
INLIER_DISTANCE = 0.05
# Minimum |n_s . n_d| for an ICP pair; sparse normals carry no sign.
NORMAL_COMPATIBILITY = 0.9
# The stop reasons of a converged ICP (see icp_point_to_plane).
ICP_CONVERGED = ("same_pairs", "cost_decrease")

# Minimum smallest/largest eigenvalue ratio of the ICP's planarity-weighted
# normal matrix sum(w n n^T) for a loop-closure trigger.  Below it the overlap
# barely constrains a translation direction (floor, ceiling and one wall
# constrain nothing along the wall).  The ICP freezes such a direction (see
# ICP_WEAK_RATIO), so its shift there is not arbitrary but about zero; the
# gate still raises no trigger, as the overlap cannot measure a misalignment
# along it.
MIN_NORMAL_EIGEN_RATIO = 1e-3
# The ICP's weak directions: eigenvalues of its scaled 6x6 normal matrix
# (see _PlaneProblem) from RANK_TOL up to this ratio of the largest.  The ICP
# steps only in the directions above it.
ICP_WEAK_RATIO = 1e-2


@dataclass
class IcpResult:
    """An ICP's transform, mapping source centroids onto the destination
    map, and why it stopped (``report``, see :func:`icp_point_to_plane`).
    A converged ICP also gives the inlier fraction of its final pairs, the
    inlier pairs as source and destination centroids, each (m, 3), and the
    smallest/largest eigenvalue ratio of ``sum(w n n^T)`` over the final
    pairs; an unconverged one gives 0, no pairs and 0.  Either gives
    ``frozen_dim``, the most weak directions that any one normal-equation
    build of the call froze (see :class:`_PlaneProblem`)."""

    rotation: np.ndarray
    translation: np.ndarray
    report: OptimizationReport
    inlier_fraction: float = 0.0
    pairs: tuple = field(default_factory=lambda: (np.zeros((0, 3)), np.zeros((0, 3))))
    normal_eigen_ratio: float = 0.0
    frozen_dim: int = 0

    @property
    def converged(self):
        return self.report.converged


def _associate(rotation, translation, src_pts, src_normals, dst: KeyedPoints, dst_normals):
    """ICP pairs at one pose: each moved source centroid with its nearest
    destination centroid closer than ``MAX_PAIR_DISTANCE`` (the radius
    ``dst`` is keyed at) whose normal is compatible,
    ``|R n_s . n_d| > NORMAL_COMPATIBILITY``; of equally near ones, the
    lowest index.

    One join with the keyed destinations gathers the candidates.  Each distance is the square
    root of the join's squared distance, which rounds as ``np.linalg.norm``
    of the difference does, and one ``lexsort`` on (source, distance,
    destination) picks each source's nearest compatible destination.
    Returns the paired moved source centroids and the source and
    destination index arrays, by source.
    """
    moved = src_pts @ rotation.T + translation
    i, j, d_sq = dst.join(moved)
    turned = src_normals @ rotation.T
    compatible = np.abs(_row_dot(turned[i], dst_normals[j])) > NORMAL_COMPATIBILITY
    i, j, d = i[compatible], j[compatible], np.sqrt(d_sq[compatible])
    order = np.lexsort((j, d, i))
    i, j, d = i[order], j[order], d[order]
    paired = (np.diff(i, prepend=-1) != 0) & (d < dst.radius)
    return moved[i[paired]], i[paired], j[paired]


# An ICP iterate: the step y of the pose state (rotation, translation) about
# the round's centre (see _PlaneProblem), the pose it moves the state to, the
# source centroids moved by that pose and their residuals.
_PlaneIterate = namedtuple("_PlaneIterate", "x state pose moved residuals")


class _PlaneProblem:
    """One ICP round's point-to-plane problem for :func:`solve`, its pairs
    fixed: the source centroids ``src``, moved by the pose, against the
    destination planes through ``dst`` along ``normal``, each distance
    whitened by ``sigma`` and all Cauchy-robust, from the annealed
    ``scale``.

    The pose steps about a centre fixed for the round, ``c``, the mean of
    the paired sources as the round's pose moves them (``moved``): the
    parameter ``y = (L phi, rho)`` moves it as ``R <- Exp(phi) R`` and ``t
    <- Exp(phi) (t - c) + c + rho``, a turn about ``c`` measured as an arc
    at the sources' RMS spread ``L`` about it, and the move of ``c``.
    Radians and meters then compare, and no result depends on where the
    world origin lies (Gelfand et al., 3DIM 2003; Solà et al., A micro Lie
    theory, arXiv 1812.01537).  ``y`` is folded into the pose after each
    accepted step; its rows are the window's point-to-plane rows
    (``local_mapping._plane_rows``) at the lever arms ``(p - c) / L``.

    Each build of the normal equations freezes the directions that the
    pairs barely observe (Zhang, Kaess & Singh, ICRA 2016).  An eigenvector
    ``v`` of ``H`` whose eigenvalue lies in ``[RANK_TOL, ICP_WEAK_RATIO)``
    times the largest is weak: the rows are projected so that they see no
    step along it, and ``H`` takes the largest eigenvalue there, so the
    driver steps in the observed directions only and keeps ``v . y`` at
    zero.  Eigenvalues below ``RANK_TOL`` are left to the driver's rank
    check, so an exactly planar overlap still ends ``"rank_deficient"``.
    ``frozen_dim`` is the most directions that one build froze."""

    def __init__(self, src, dst, normal, sigma, scale, moved):
        self.src, self.dst, self.normal, self.sigma = src, dst, normal, sigma
        self.robust = _Cauchy(len(src), scale)
        self.frozen_dim = 0
        self.centre = moved.mean(axis=0)
        arm = moved - self.centre
        self.spread = max(np.sqrt(np.mean(_row_dot(arm, arm))), 1e-12)

    def evaluate(self, y, state):
        rotation, translation = state
        # At zero, as at each round's start, the step leaves the pose as is.
        if y.any():
            (rotation,), (translation,) = compose_correction(
                lie.so3_exp_batch(y[None, :3] / self.spread), y[None, 3:], rotation[None],
                (translation - self.centre)[None]
            )
            translation = translation + self.centre
        moved = self.src @ rotation.T + translation
        residuals = _row_dot(self.normal, moved - self.dst) / self.sigma
        return _PlaneIterate(y, state, (rotation, translation), moved, residuals)

    def fold(self, it):
        return it._replace(x=np.zeros(6), state=it.pose)

    def normal_equations(self, it, weighted):
        jac = _plane_rows((it.moved - self.centre) / self.spread, self.normal,
                          self.robust.weights / self.sigma)
        hess = jac.T @ jac
        eigenvalues, vectors = np.linalg.eigh(hess)
        largest = eigenvalues[-1]
        weak = (eigenvalues >= RANK_TOL * largest) & (eigenvalues < ICP_WEAK_RATIO * largest)
        if weak.any():
            # The rows J (I - V V^T) see no step along the weak directions V,
            # and H takes the largest eigenvalue there.
            frozen = vectors[:, weak]
            jac = jac - (jac @ frozen) @ frozen.T
            hess = jac.T @ jac + largest * (frozen @ frozen.T)
            self.frozen_dim = max(self.frozen_dim, frozen.shape[1])
        self.jac = jac
        return hess, self.chord_gradient(weighted)

    def chord_gradient(self, weighted):
        return self.jac.T @ weighted

    def record(self, iteration, cost, residuals, step_norm):
        rms = float(np.sqrt(np.mean((residuals * self.sigma) ** 2)))
        return IterationRecord(iteration, cost, rms, 0.0, 0.0, step_norm)


def icp_point_to_plane(src_surfels, dst_surfels):
    """Robust point-to-plane alignment of sparse surfel centroids, in at
    most ``ICP_MAX_ITERATIONS`` association rounds.

    Each round pairs the sources at the current pose (:func:`_associate`),
    then runs the window's damped Gauss-Newton driver
    (``local_mapping.solve``) on the point-to-plane distances of those pairs,
    each whitened by ``SIGMA_PRIOR / sqrt(w)`` of its destination's
    planarity ``w`` (at least 0.05) and all Cauchy-robust; the kernel's
    annealed scale carries over from round to round.  The report's reason
    is one of

    - ``"same_pairs"``, converged: a round paired exactly as the one
      before;
    - ``"cost_decrease"``, converged: the last round lowered the cost by
      less than ``CHI2_TOL``, its ``stop_decrease``;
    - ``"cycle"``: a round paired exactly as a round before the one before
      it, so the pairings repeat;
    - ``"max_rounds"``: ``ICP_MAX_ITERATIONS`` rounds ran out;
    - ``"too_few_pairs"``: a round formed fewer than six pairs;
    - ``"rank_deficient"``: the driver's rank check found a null direction,
      as an exactly planar overlap gives.

    Its records are every round's, each round's starting from its
    iteration 0; a call that stops before its first round has none.  Each
    round's fit steps only along the directions that its pairs observe,
    freezing the weak ones (see :class:`_PlaneProblem`).
    Each source surfel pairs with its nearest destination centroid closer
    than ``MAX_PAIR_DISTANCE`` whose normal is compatible with the rotated
    source normal (``|R n_s . n_d| > NORMAL_COMPATIBILITY``), so voxels on
    different planes never pair; of equally near ones it takes the lowest
    destination index.  The
    destination centroids are keyed once at ``MAX_PAIR_DISTANCE``
    (``KeyedPoints``), and each association is one join of the moved source
    centroids with them, not a full distance matrix.

    A round associates before it solves, so the last association is at the
    final pose.  Its pairs give a converged ICP's results (see
    :class:`IcpResult`): a pair is an inlier when the moved source centroid
    lies within ``INLIER_DISTANCE`` of the destination surfel's plane, and
    the inlier fraction is taken over all the pairs, since overlap itself
    is required separately (at least six pairs, and the caller's minimum
    surfel counts); the eigenvalue ratio of ``sum(w n n^T)`` is near 0 when
    the pairs leave a translation direction free.  Either set must be a
    ``SparseSurfels`` batch; anything else raises ``InvalidArgumentError``.
    """
    src, dst = _require_sparse(src_surfels), _require_sparse(dst_surfels)
    keyed = KeyedPoints(dst.centroid, MAX_PAIR_DISTANCE)
    weights = np.maximum(dst.planarity, 0.05)
    pose, records, decrease = (np.eye(3), np.zeros(3)), [], np.inf
    scale, frozen, last, seen = np.inf, 0, None, set()
    for rounds in range(ICP_MAX_ITERATIONS + 1):
        moved, src_idx, dst_idx = _associate(*pose, src.centroid, src.normal, keyed, dst.normal)
        pairing = np.stack([src_idx, dst_idx]).tobytes()
        reason = ("too_few_pairs" if src_idx.size < 6 else "same_pairs" if pairing == last
                  else "cycle" if pairing in seen
                  else "cost_decrease" if decrease < CHI2_TOL
                  else "max_rounds" if rounds == ICP_MAX_ITERATIONS else None)
        if reason:
            break
        last = pairing
        seen.add(pairing)
        problem = _PlaneProblem(src.centroid[src_idx], dst.centroid[dst_idx], dst.normal[dst_idx],
                                SIGMA_PRIOR / np.sqrt(weights[dst_idx]), scale, moved)
        try:
            it, report = solve(problem, problem.evaluate(np.zeros(6), pose))
        except DegenerateGeometryError:
            reason = "rank_deficient"
            break
        finally:
            frozen = max(frozen, problem.frozen_dim)
        pose, scale = it.state, problem.robust.scale
        records += report.records
        decrease = report.records[0].cost - report.final_cost
    report = OptimizationReport(records, reason in ICP_CONVERGED, reason,
                                decrease if reason == "cost_decrease" else np.nan)
    if not report.converged:
        return IcpResult(*pose, report, frozen_dim=frozen)
    n, q = dst.normal[dst_idx], dst.centroid[dst_idx]
    eigenvalues = eigvalsh3((n * weights[dst_idx][:, None]).T @ n)
    inliers = np.abs(_row_dot(n, moved - q)) < INLIER_DISTANCE
    pairs = src.centroid[src_idx[inliers]], q[inliers]
    return IcpResult(*pose, report, float(np.mean(inliers)), pairs,
                     float(eigenvalues[0] / eigenvalues[-1]), frozen)


# -- temporal fusion ----------------------------------------------------------


@dataclass
class LocalMaps:
    """One window's output: local sparse/dense maps, the sensor origin the
    beam noise is taken from, and the window's time, which splits the
    global map into active and inactive surfels.

    ``sparse`` must be a ``SparseSurfels`` batch.  ``dense`` is a
    ``DenseSurfels`` batch; a list of single surfels is stacked and checked
    into one.  The sensor origin must be a finite 3-vector and the
    timestamp finite.
    """

    sparse: SparseSurfels
    dense: DenseSurfels
    sensor_origin: np.ndarray
    timestamp: float

    def __post_init__(self):
        self.sensor_origin = np.asarray(self.sensor_origin, dtype=float)
        if self.sensor_origin.shape != (3,) or not np.isfinite(self.sensor_origin).all():
            raise InvalidArgumentError("sensor origin must be a finite 3-vector")
        self.sparse = _require_sparse(self.sparse)
        self.dense = DenseSurfels.of(self.dense)
        if not np.isfinite(self.timestamp):
            raise InvalidArgumentError("local map timestamp must be finite")


# Loop-closure trigger thresholds: the ICP's inlier fraction (theta_in) and
# misalignment (theta_dist, meters), and the fewest sparse surfels on either
# side for the ICP to run.
INLIER_THRESHOLD = 0.35
DISTANCE_THRESHOLD = 0.05
ICP_MIN_SURFELS = 10
# A surfel observed fewer times than this is culled once its last
# observation is older than CULL_AGE seconds.
STABLE_OBS = 3
CULL_AGE = 60.0
# Inactive surfels are re-activated only while fewer than this many gaps
# remain (theta_n).
GAP_THRESHOLD = 20


@dataclass
class TemporalFusionConfig:
    active_window: float = 30.0
    match: MatchParams = field(default_factory=MatchParams)


@dataclass
class FusionStepMetrics:
    step: int
    n_active: int
    n_inactive: int
    n_new: int
    n_fused: int
    n_culled: int
    icp_inlier: float
    icp_dist: float  # m; NaN when the ICP did not run, did not converge or kept no inlier
    triggered: bool


@dataclass
class TemporalFusionResult:
    """A step's counts, and its ICP (None when the ICP did not run), which
    raised a loop-closure trigger when ``metrics.triggered``."""

    metrics: FusionStepMetrics
    icp: IcpResult | None


def _rounds(slot):
    """The positions of ``slot`` in rounds: round ``r`` holds the ``r``-th
    position of every value, so folding the rounds in order visits each
    value's positions in input order and no round holds a value twice."""
    order = stable_order(slot)
    starts = np.flatnonzero(np.diff(slot[order], prepend=-1) != 0)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order)) - np.repeat(starts, np.diff(starts, append=len(order)))
    return [np.flatnonzero(rank == r) for r in range(rank.max(initial=-1) + 1)]


def _fold(state: DenseSurfels, slot, sources: DenseSurfels, noise):
    """Fuse each local surfel ``sources[m]``, with beam noise ``noise[m]``,
    into row ``slot[m]`` of ``state``, in place; every row must have a
    measurement.  Returns the eigenvalues of the fused covariance stacks, as
    ``check_dense`` takes them.

    A row's measurements are fused in input order, so the rows are folded
    in rounds: round ``r`` fuses the ``r``-th measurement of every row that
    has one, all at once.
    """
    eigenvalues = {f: np.empty((len(state), 3)) for f in ("centroid_cov", "scatter")}
    for pending in _rounds(slot):
        rows, src = slot[pending], sources[pending]
        dst = state[rows]
        meas = SurfelMeasurement(src.centroid, src.scatter, src.dof, noise[pending],
                                 src.timestamp)
        fused, fused_eigenvalues = fuse_batch(dst, meas)
        _put(state, rows, fused)
        for f, w in fused_eigenvalues.items():
            eigenvalues[f][rows] = w
    return eigenvalues


def temporal_fusion_step(local: LocalMaps, global_maps: GlobalMaps,
                         cfg: TemporalFusionConfig | None = None,
                         step=0) -> TemporalFusionResult:
    """Fuse a local map into the active global map and watch the inactive map.

    New surfels fuse only into the active partition (by timestamp age) as it
    stood before the step, so a local map never fuses into itself; unmatched
    ones are inserted as they are, in input order, and count as active.
    Matching sees that snapshot too: every local surfel's gates and best
    match are evaluated against the active surfels before any of them is
    updated; a local surfel's best match is the one nearest it along the
    map normal, and of equally near ones the earliest stored row.  The
    matched surfels are then fused in input order, each into its
    destination's current state; this is folded in rounds (see ``_fold``),
    and the fused rows are checked once.  The inactive sparse
    set is taken before the local sparse surfels are pooled into the global
    sparse map, since pooling stamps every revisited voxel with the current
    time.  A robust sparse-surfel ICP of the local sparse map against that
    inactive set, when both hold at least ``ICP_MIN_SURFELS``, raises a
    deformation trigger when it converged, its inlier fraction exceeds
    ``INLIER_THRESHOLD`` (see ``icp_point_to_plane`` for the inlier
    definition), its misalignment exceeds ``DISTANCE_THRESHOLD`` and its pairs
    constrain every translation direction (normal eigenvalue ratio at least
    ``MIN_NORMAL_EIGEN_RATIO``); otherwise inactive surfels that overlap the
    active map may be merged back.  The misalignment (``icp_dist``) is
    measured at the overlap: the shift ``|R c + t - c|`` the ICP's pose
    applies to the mean ``c`` of its inlier source centroids.  The result
    holds the ICP's :class:`IcpResult` (None when it did not run), and
    ``metrics.triggered`` tells whether it raised a trigger.  Surfels
    observed fewer than ``STABLE_OBS`` times whose last observation is older
    than ``CULL_AGE`` are deleted.

    The step reads the dense map's batch as its snapshot and stores the next
    batch once, at the end: the stored rows, in their order, with the fused
    rows and the re-activated timestamps written in, then the new surfels
    in input order, less the culled rows.
    """
    if cfg is None:
        cfg = TemporalFusionConfig()
    now = local.timestamp
    before = global_maps.dense.batch
    inactive = now - before.timestamp > cfg.active_window
    active = np.flatnonzero(~inactive)

    # Each local surfel's best match in the active set from before the step:
    # the smallest |n . delta|, then the earliest row.
    src_idx, dst_idx, along = match_pairs(local.dense, before[active], cfg.match)
    order = np.lexsort((dst_idx, np.abs(along), src_idx))
    src_idx, dst_idx = src_idx[order], dst_idx[order]
    first = np.diff(src_idx, prepend=-1) != 0
    matched = src_idx[first]
    unmatched = np.ones(len(local.dense), dtype=bool)
    unmatched[matched] = False
    new = local.dense[unmatched]
    # The next map: the stored rows, then the new surfels, in a new batch.
    state = _concat(before, new)
    if matched.size:
        fused_rows, slot = np.unique(active[dst_idx[first]], return_inverse=True)
        fused = state[fused_rows]
        sources = local.dense[matched]
        noise = beam_noise_batch(local.sensor_origin, sources.centroid, sources.normal)
        _put(state, fused_rows, check_dense(fused, _fold(fused, slot, sources, noise)))
    inactive = np.concatenate([inactive, np.zeros(len(new), dtype=bool)])

    sparse = global_maps.sparse.all()
    inactive_sparse = sparse[now - sparse.timestamp > cfg.active_window]
    global_maps.sparse.fuse(local.sparse)

    icp = None
    if (
        len(local.sparse) >= ICP_MIN_SURFELS
        and len(inactive_sparse) >= ICP_MIN_SURFELS
    ):
        icp = icp_point_to_plane(local.sparse, inactive_sparse)
        if not icp.converged:
            log.info("inactive-map ICP did not converge; trigger suppressed")
        elif icp.normal_eigen_ratio < MIN_NORMAL_EIGEN_RATIO:
            log.info(
                "inactive-map overlap is degenerate (normal eigenvalue ratio %.2e); "
                "trigger suppressed",
                icp.normal_eigen_ratio,
            )
    converged = icp is not None and icp.converged
    misalignment = np.nan
    if converged and len(icp.pairs[0]):
        # How far the ICP moves the overlap: the shift |R c + t - c| of the
        # mean c of its inlier sources.  |t| is the shift of the world origin,
        # which a small turn moves by the overlap's distance from it.
        c = icp.pairs[0].mean(axis=0)
        misalignment = float(np.linalg.norm(icp.rotation @ c + icp.translation - c))
    triggered = (
        converged
        and icp.normal_eigen_ratio >= MIN_NORMAL_EIGEN_RATIO
        and icp.inlier_fraction > INLIER_THRESHOLD
        and misalignment > DISTANCE_THRESHOLD
    )
    if not triggered and inactive.any():
        # Map coherency: re-activate inactive surfels that already overlap
        # the active map, unless too many gaps remain.  An inactive surfel
        # overlaps when an active one lies within theta_r, and is a gap when
        # the nearest active ones lie between theta_r and 3 theta_r.
        theta_r = cfg.match.resolution_threshold
        asleep = np.flatnonzero(inactive)
        near, _, d_sq = radius_join(
            state.centroid[asleep], state.centroid[~inactive], 3.0 * theta_r
        )
        overlapping = np.unique(near[d_sq <= theta_r * theta_r])
        gaps = len(np.unique(near)) - len(overlapping)
        if len(overlapping) and gaps < GAP_THRESHOLD:
            woken = asleep[overlapping]
            state.timestamp[woken] = now
            inactive[woken] = False

    culled = (state.obs_count < STABLE_OBS) & (now - state.timestamp > CULL_AGE)
    global_maps.dense.batch = state[~culled] if culled.any() else state

    metrics = FusionStepMetrics(
        step=step,
        n_active=int(np.count_nonzero(~inactive & ~culled)),
        n_inactive=int(np.count_nonzero(inactive & ~culled)),
        n_new=len(new),
        n_fused=len(matched),
        n_culled=int(np.count_nonzero(culled)),
        icp_inlier=0.0 if icp is None else icp.inlier_fraction,
        icp_dist=misalignment,
        triggered=triggered,
    )
    return TemporalFusionResult(metrics, icp)
