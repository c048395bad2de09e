import numpy as np
import pytest

from surfelslam import lie
from surfelslam.errors import InvalidArgumentError, MissingSupportError
from surfelslam.simulation.oracles import (apply_correction, brackets_by_repeated_gathers,
                                          correction_batch, interp_pose)
from surfelslam.trajectory import ControlGrid, Trajectory, brackets, interpolate, spline_weights

from conftest import knot_grid


def make_trajectory(rng, n=101, rate=100.0, rot_scale=0.2, t_scale=0.5):
    times = np.arange(n) / rate
    rotvecs = np.cumsum(rng.normal(scale=rot_scale / n, size=(n, 3)), axis=0)
    translations = np.cumsum(rng.normal(scale=t_scale / n, size=(n, 3)), axis=0)
    return Trajectory(times, lie.so3_exp_batch(rotvecs), translations, rate)


def chain_trajectory(rng, angles, t_scale=0.05):
    """Trajectory at 100 Hz whose consecutive samples differ by rotations of
    the given angles about random axes, and by random translations."""
    axes = rng.normal(size=(len(angles), 3))
    steps = lie.so3_exp_batch(axes * (np.asarray(angles) / np.linalg.norm(axes, axis=1))[:, None])
    rotations = [lie.so3_exp_batch(rng.normal(size=(1, 3)))[0]]
    for step in steps:
        rotations.append(rotations[-1] @ step)
    translations = np.cumsum(rng.normal(scale=t_scale, size=(len(angles) + 1, 3)), axis=0)
    return Trajectory(np.arange(len(angles) + 1) / 100.0, np.stack(rotations), translations)


def homogeneous(rot, t):
    out = np.eye(4)
    out[:3, :3] = rot
    out[:3, 3] = t
    return out


def test_sample_at_knot_returns_stored_pose(rng):
    traj = make_trajectory(rng)
    rot, t = traj.sample_batch([traj.times[17]])
    assert np.allclose(rot[0], traj.rotations[17])
    assert np.allclose(t[0], traj.translations[17])


# Sampling blends neighbouring poses along the SE(3) geodesic ("se3").
@pytest.mark.parametrize((), [pytest.param(id="se3")])
def test_exact_sample_queries_copy_stored_pose(rng):
    traj = make_trajectory(rng)
    picks = np.array([0, 17, 18, len(traj) - 1])
    rot, t = traj.sample_batch(traj.times[picks] + 1e-13)
    assert np.array_equal(rot, traj.rotations[picks])
    assert np.array_equal(t, traj.translations[picks])


def test_two_sample_translation():
    traj = Trajectory(
        np.array([0.0, 1.0]),
        np.stack([np.eye(3), np.eye(3)]),
        np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        nominal_rate=1.0,
    )
    _, t = traj.sample_batch([0.25])
    assert np.allclose(t[0], [0.25, 0.0, 0.0], atol=1e-12)


def test_sample_lies_on_geodesic(rng):
    traj = make_trajectory(rng)
    k = rng.integers(0, len(traj) - 1, size=50)
    alpha = rng.uniform(0.05, 0.95, size=50)
    rot, t = traj.sample_batch(traj.times[k] + alpha * (traj.times[k + 1] - traj.times[k]))
    rot_k, t_k = traj.rotations[k], traj.translations[k]
    rel_full = lie.se3_relative_log_batch(
        rot_k, t_k, traj.rotations[k + 1], traj.translations[k + 1]
    )
    rel_part = lie.se3_relative_log_batch(rot_k, t_k, rot, t)
    for full, part in zip(rel_full, rel_part):
        assert np.max(np.linalg.norm(part - alpha[:, None] * full, axis=1)) < 1e-9


def _shared_bracket_queries(rng, traj):
    """Unsorted query times with many queries in a few brackets, each time
    repeated, some snapped to either end of a bracket (within the snapping
    tolerance) and the last sample time."""
    k = rng.choice(len(traj) - 1, size=6, replace=False)
    lo, hi = traj.times[k], traj.times[k + 1]
    inside = (lo + rng.uniform(0.0, 1.0, size=(40, 6)) * (hi - lo)).ravel()
    snapped = np.r_[lo + 1e-13, hi - 1e-13, lo, hi]
    taus = np.r_[inside, inside[::3], snapped, traj.end]
    return taus[rng.permutation(len(taus))]


def test_sample_batch_shares_bracket_twists_exactly(rng):
    # Queries that share a bracket share its twist, so each row equals the
    # one-query call bit for bit and the power-series oracle to 1e-12.
    traj = make_trajectory(rng)
    taus = _shared_bracket_queries(rng, traj)
    rot, t = traj.sample_batch(taus)
    lo = np.clip(np.searchsorted(traj.times, taus, side="right") - 1, 0, len(traj) - 2)
    for tau, k, r, tr in zip(taus, lo, rot, t):
        rot_1, t_1 = traj.sample_batch([tau])
        assert np.array_equal(r, rot_1[0]) and np.array_equal(tr, t_1[0])
        alpha = np.clip((tau - traj.times[k]) / (traj.times[k + 1] - traj.times[k]), 0.0, 1.0)
        want = interp_pose(homogeneous(traj.rotations[k], traj.translations[k]),
                           homogeneous(traj.rotations[k + 1], traj.translations[k + 1]), alpha)
        assert np.max(np.abs(homogeneous(r, tr) - want)) < 1e-12


def searched_brackets(times, taus, tol):
    """``brackets`` by a search of every query."""
    idx = np.clip(np.searchsorted(times, taus, side="right") - 1, 0, len(times) - 2)
    alpha = np.clip((taus - times[idx]) / (times[idx + 1] - times[idx]), 0.0, 1.0)
    alpha[np.abs(taus - times[idx]) <= tol] = 0.0
    alpha[np.abs(times[idx + 1] - taus) <= tol] = 1.0
    return idx, alpha


@pytest.mark.parametrize("spacing", ["uniform", "jittered", "drifting"])
def test_brackets_match_a_search_of_every_query(rng, spacing):
    # The index read off the mean spacing is checked, and searched again
    # where the check fails; idx and alpha are bit for bit those of a search
    # of every query.  The jittered spacing moves each sample by up to 0.4%
    # of a step; the drifting one is 0.99% long for half the span and 0.99%
    # short for the other, so the arithmetic index is off by up to five
    # samples mid-span.  The queries lie anywhere, on every sample, at both
    # ends and within the tolerance outside them.
    n, step = 1001, 0.01
    times = 2.0 + step * np.arange(n)
    if spacing == "jittered":
        times[1:-1] += rng.uniform(-0.004, 0.004, n - 2) * step
    elif spacing == "drifting":
        steps = step * np.where(np.arange(n - 1) < n // 2, 1.0099, 0.9901)
        times = 2.0 + np.r_[0.0, np.cumsum(steps)]
    tol = 1e-9 * step
    outside = np.r_[times[0] - tol, times[0] - tol / 2, times[-1] + tol / 2, times[-1] + tol]
    taus = np.r_[rng.uniform(times[0], times[-1], 20_000), times, outside]
    taus = taus[rng.permutation(taus.size)]
    idx, alpha = brackets(times, taus, tol)
    want_idx, want_alpha = searched_brackets(times, taus, tol)
    assert np.array_equal(idx, want_idx) and np.array_equal(alpha, want_alpha)
    if spacing == "drifting":
        read = np.floor((taus - times[0]) * (n - 1) / (times[-1] - times[0]))
        assert np.max(np.abs(np.clip(read, 0, n - 2) - idx)) >= 4


def test_brackets_equal_the_form_that_gathers_each_time_afresh(rng):
    # Gathering times[idx] and times[idx + 1] once, and again only after the
    # searched fix-up, moves no bit of idx or alpha.  Jittered samples; the
    # queries lie on samples, within the tolerance of one on either side and
    # just outside it, at the last sample and at the end of the span, and
    # in brackets the rate-based guess misses.
    n, step = 401, 0.01
    times = 3.0 + step * np.arange(n)
    times[1:-1] += rng.uniform(-0.3, 0.3, n - 2) * step
    tol = 1e-9 * step
    near = np.concatenate([times + d for d in (-tol, -tol / 2, tol / 2, tol, 2 * tol)])
    taus = np.r_[rng.uniform(times[0], times[-1], 5000), times, near, times[-1], times[-1] + tol]
    taus = np.clip(taus, times[0], times[-1] + tol)
    idx, alpha = brackets(times, taus, tol)
    want_idx, want_alpha = brackets_by_repeated_gathers(times, taus, tol)
    assert np.array_equal(idx, want_idx) and np.array_equal(alpha, want_alpha)
    guess = np.clip(np.floor((taus - times[0]) * (n - 1) / (times[-1] - times[0])), 0, n - 2)
    assert np.count_nonzero(guess != idx) > 1000
    assert np.count_nonzero(alpha == 0.0) > n and np.count_nonzero(alpha == 1.0) > n
    last = taus >= times[-1]
    assert np.all(idx[last] == n - 2) and np.all(alpha[last] == 1.0)


def test_sample_batch_matches_series_across_coefficient_switches(rng):
    # Query angles alpha * theta on both sides of SERIES_ANGLE (theta = 0.03)
    # and of SMALL_ANGLE (theta = 3e-8) inside one bracket each, many queries
    # in a bracket of about 1 rad, and a bracket with a single query.
    traj = chain_trajectory(rng, [0.03, 3e-8, 1.0, 0.4])
    fractions = [1e-3, 0.2, 1 / 3 - 1e-3, 1 / 3 + 1e-3, 0.5, 2 / 3 - 1e-3, 2 / 3 + 1e-3, 0.999]
    k = np.r_[np.repeat([0, 1, 2], len(fractions)), 3]
    taus = traj.times[k] + np.r_[np.tile(fractions, 3), 0.37] * 0.01
    idx, alpha = brackets(traj.times, taus, 1e-11)
    assert np.array_equal(idx, k)
    phi, _ = lie.se3_relative_log_batch(
        traj.rotations[:-1], traj.translations[:-1], traj.rotations[1:], traj.translations[1:]
    )
    angle = alpha * np.linalg.norm(phi, axis=1)[k]
    for bracket, switch in ((0, lie.SERIES_ANGLE), (1, lie.SMALL_ANGLE)):
        assert angle[k == bracket].min() < switch < angle[k == bracket].max()
    rot, t = traj.sample_batch(taus)
    for i in range(len(taus)):
        want = interp_pose(homogeneous(traj.rotations[k[i]], traj.translations[k[i]]),
                           homogeneous(traj.rotations[k[i] + 1], traj.translations[k[i] + 1]),
                           alpha[i])
        assert np.max(np.abs(homogeneous(rot[i], t[i]) - want)) < 1e-12


def test_interpolated_rotations_stay_orthonormal(rng):
    traj = chain_trajectory(rng, rng.uniform(0.0, 1.5, size=100))
    rot, _ = traj.sample_batch(rng.uniform(traj.start, traj.end, size=10_000))
    assert np.max(np.abs(rot.transpose(0, 2, 1) @ rot - np.eye(3))) < 1e-12


def test_se3_interp_batch_is_interpolate_row_for_row(rng):
    # Both read one geodesic kernel: a pair as its own bracket gives the
    # same bits as the bracket shared with other queries.
    traj = chain_trajectory(rng, rng.uniform(0.0, 1.5, size=20))
    k = rng.integers(0, len(traj) - 1, size=500)
    alpha = rng.uniform(1e-6, 1.0 - 1e-6, size=500)
    rot, t = interpolate(traj.rotations, traj.translations, k, alpha)
    rot_p, t_p = lie.se3_interp_batch(traj.rotations[k], traj.translations[k],
                                      traj.rotations[k + 1], traj.translations[k + 1], alpha)
    assert np.array_equal(rot, rot_p) and np.array_equal(t, t_p)


def test_sample_batch_takes_one_twist_per_bracket(rng, monkeypatch):
    # A regression guard: the relative log runs over the distinct brackets
    # of the interior queries, not once per query.
    traj = make_trajectory(rng)
    taus = _shared_bracket_queries(rng, traj)
    rows = []
    relative_log = lie.se3_relative_log_batch

    def counted(rot_a, *rest):
        rows.append(len(rot_a))
        return relative_log(rot_a, *rest)

    monkeypatch.setattr(lie, "se3_relative_log_batch", counted)
    traj.sample_batch(taus)
    assert len(rows) == 1 and rows[0] <= 6 < len(taus)


def test_sample_out_of_range(rng):
    traj = make_trajectory(rng)
    with pytest.raises(MissingSupportError) as err:
        traj.sample_batch([traj.end + 0.5])
    assert err.value.timestamps == [traj.end + 0.5]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sample_rejects_non_finite_times(rng, bad):
    traj = make_trajectory(rng)
    with pytest.raises(InvalidArgumentError):
        traj.sample_batch([traj.start + 0.005, bad])


def test_rejects_non_increasing_times():
    times = np.array([0.0, 0.01, 0.01])
    eye = np.stack([np.eye(3)] * 3)
    with pytest.raises(InvalidArgumentError):
        Trajectory(times, eye, np.zeros((3, 3)))


def test_rejects_irregular_spacing():
    times = np.array([0.0, 0.01, 0.025])
    eye = np.stack([np.eye(3)] * 3)
    with pytest.raises(InvalidArgumentError):
        Trajectory(times, eye, np.zeros((3, 3)))


@pytest.mark.parametrize("field, value", [
    ("times", np.nan), ("translations", np.inf), ("rotations", np.nan),
    ("nominal_rate", np.nan), ("nominal_rate", np.inf), ("nominal_rate", 0.0),
    ("nominal_rate", -100.0), ("times", np.arange(5)[:, None] / 100.0),
])
def test_rejects_non_finite_samples_and_rates(field, value):
    # A NaN time, an inf translation, a NaN rotation entry and a NaN rate
    # used to be accepted; a query at 0.025 s then returned a pose or NaN.
    # Times shaped (5, 1) were accepted and failed with a TypeError in
    # ``start``.  An array value replaces the whole field.
    args = {"times": np.arange(5) / 100.0, "rotations": np.stack([np.eye(3)] * 5),
            "translations": np.zeros((5, 3)), "nominal_rate": 100.0}
    if field == "nominal_rate" or np.ndim(value):
        args[field] = value
    else:
        args[field].flat[3] = value
    with pytest.raises(InvalidArgumentError):
        Trajectory(**args)


@pytest.mark.parametrize("scale, sign, accepted", [
    (2.0, 1.0, False), (1.0 + 1e-8, 1.0, False), (1.0, -1.0, False), (1.0 + 1e-13, 1.0, True),
])
def test_rejects_rotations_that_are_not_rotations(rng, scale, sign, accepted):
    # A stack holding 2 I, or the reflection diag(1, 1, -1), used to be
    # accepted, and sample_batch then returned the reflection at its sample.
    # Rounding far below the 1e-9 bound is accepted.
    traj = make_trajectory(rng, n=5)
    rotations = traj.rotations.copy()
    rotations[3] = scale * rotations[3] @ np.diag([1.0, 1.0, sign])
    if accepted:
        Trajectory(traj.times, rotations, traj.translations)
        return
    with pytest.raises(InvalidArgumentError, match="orthonormal"):
        Trajectory(traj.times, rotations, traj.translations)


@pytest.mark.parametrize("times, message", [
    ([0.0, 0.0, 0.0, 0.0], "strictly increasing"),
    ([0.3, 0.2, 0.1, 0.0], "strictly increasing"),
    ([0.0, np.nan, 0.2, 0.3], "finite"),
    ([0.0, 0.1, 0.2, np.inf], "finite"),
    ([[0.0], [0.1], [0.2], [0.3]], "one-dimensional"),
])
def test_control_grid_rejects_knots_that_do_not_increase(times, message):
    # Equal knots used to be accepted and divided by a zero step at the
    # first weight query; descending knots were called non-uniform.  Knot
    # times shaped (4, 1) were accepted and failed with a TypeError in
    # ``step``.
    with pytest.raises(InvalidArgumentError, match=message):
        ControlGrid(times)


@pytest.mark.parametrize("stop", [1.0, 0.5, np.nan])
def test_window_grid_needs_stop_after_start(stop):
    with pytest.raises(InvalidArgumentError, match="stop after its start"):
        ControlGrid.for_window(1.0, stop, 8)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("start, stop", [(0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0)])
def test_window_grid_checks_its_ends_before_computing(start, stop):
    # An infinite end used to compute NaN knot times, warning "invalid
    # value", before the knot check raised.
    with pytest.raises(InvalidArgumentError, match="finite start and a finite stop"):
        ControlGrid.for_window(start, stop, 8)


@pytest.mark.parametrize("knots", [8.5, 8.0])
def test_window_grid_needs_an_integer_knot_count(knots):
    # 8.5 knots used to build 9, the last at 1.27, where one step past the
    # stop is 1.18.
    with pytest.raises(InvalidArgumentError, match="integer"):
        ControlGrid.for_window(0.0, 1.0, knots)
    assert len(ControlGrid.for_window(0.0, 1.0, np.int64(8))) == 8


def test_partition_of_unity(rng):
    u = rng.uniform(0.0, 1.0, size=1000)
    w = spline_weights(u)
    assert np.max(np.abs(w.sum(axis=1) - 1.0)) < 1e-15


def test_spline_weights_at_zero():
    w = spline_weights(0.0)
    assert np.allclose(w, [1.0 / 6.0, 4.0 / 6.0, 1.0 / 6.0, 0.0], atol=1e-15)


def zero_controls(grid):
    """Translational and rotational control points, all zero, of ``grid``."""
    return np.zeros((len(grid), 3)), np.zeros((len(grid), 3))


def test_zero_grid_identity_correction(rng):
    grid = knot_grid(0.0, 1.0, 0.1)
    rot, t = correction_batch(grid, *zero_controls(grid), rng.uniform(0.0, 1.0, size=20))
    assert np.allclose(rot, np.eye(3))
    assert np.allclose(t, 0.0)


def test_constant_translation_controls(rng):
    grid = knot_grid(0.0, 1.0, 0.1)
    c_t, c_r = zero_controls(grid)
    c_t[:] = np.array([0.1, 0.0, 0.0])
    rot, t = correction_batch(grid, c_t, c_r, rng.uniform(0.0, 1.0, size=20))
    assert np.allclose(t, [0.1, 0.0, 0.0], atol=1e-14)
    assert np.allclose(rot, np.eye(3))


def test_single_knot_weight():
    # One nonzero knot k evaluated at the segment start: weight must be 4/6.
    grid = knot_grid(0.0, 1.0, 0.1)
    c_t, c_r = zero_controls(grid)
    k = 5
    c_t[k] = np.array([1.0, 0.0, 0.0])
    _, t = correction_batch(grid, c_t, c_r, grid.times[[k]])
    assert np.allclose(t[0], [4.0 / 6.0, 0.0, 0.0], atol=1e-14)


def test_correction_outside_support():
    grid = knot_grid(0.0, 1.0, 0.1)
    with pytest.raises(MissingSupportError):
        correction_batch(grid, *zero_controls(grid), [1.5])


def test_correction_is_c2_continuous(rng):
    # One-sided 4-point stencils are exact for the cubic segments, so any
    # residual disagreement measures the derivative jump at the boundary.
    grid = knot_grid(0.0, 2.0, 0.2)
    c_t = rng.normal(scale=0.1, size=(len(grid), 3))
    c_r = rng.normal(scale=0.05, size=(len(grid), 3))
    h = 1e-3
    for boundary in grid.times[2:-2]:
        for which in ("t", "r"):

            def value(tau):
                idx, w = grid.knot_indices_and_weights(np.array([tau]))
                c = c_t if which == "t" else c_r
                return (w[0][:, None] * c[idx[0]]).sum(axis=0)

            def one_sided(sign):
                f = [value(boundary + sign * k * h) for k in range(4)]
                d1 = sign * (11 * f[0] - 18 * f[1] + 9 * f[2] - 2 * f[3]) / (6 * h)
                d2 = (2 * f[0] - 5 * f[1] + 4 * f[2] - f[3]) / h**2
                return d1, d2

            d1_left, d2_left = one_sided(-1.0)
            d1_right, d2_right = one_sided(1.0)
            for left, right in ((d1_left, d1_right), (d2_left, d2_right)):
                scale = max(np.max(np.abs(left)), np.max(np.abs(right)), 1e-9)
                assert np.max(np.abs(left - right)) / scale < 1e-6


def test_apply_correction_zero_grid(rng):
    traj = make_trajectory(rng)
    grid = knot_grid(-0.1, traj.end + 0.1, 0.1)
    out = apply_correction(traj, grid, *zero_controls(grid))
    assert np.allclose(out.rotations, traj.rotations)
    assert np.allclose(out.translations, traj.translations)


def test_apply_correction_constant_translation(rng):
    n = 101
    times = np.arange(n) / 100.0
    eye = np.stack([np.eye(3)] * n)
    traj = Trajectory(times, eye, np.zeros((n, 3)))
    grid = knot_grid(-0.1, 1.1, 0.1)
    c_t, c_r = zero_controls(grid)
    c_t[:] = np.array([0.05, 0.0, 0.0])
    out = apply_correction(traj, grid, c_t, c_r)
    assert np.allclose(out.translations, np.array([0.05, 0.0, 0.0]), atol=1e-14)


def test_apply_correction_matches_pointwise_composition(rng):
    traj = make_trajectory(rng)
    grid = knot_grid(-0.1, traj.end + 0.1, 0.1)
    c_t = rng.normal(scale=0.05, size=(len(grid), 3))
    c_r = rng.normal(scale=0.02, size=(len(grid), 3))
    out = apply_correction(traj, grid, c_t, c_r)
    picks = rng.integers(0, len(traj), size=25)
    rot_c, t_c = correction_batch(grid, c_t, c_r, traj.times[picks])
    for k, rot, t in zip(picks, rot_c, t_c):
        expected = homogeneous(rot, t) @ homogeneous(traj.rotations[k], traj.translations[k])
        assert np.linalg.norm(homogeneous(out.rotations[k], out.translations[k]) - expected) < 1e-9


def test_apply_correction_missing_support(rng):
    traj = make_trajectory(rng)
    grid = knot_grid(0.2, 0.6, 0.1)
    with pytest.raises(MissingSupportError) as err:
        apply_correction(traj, grid, *zero_controls(grid))
    assert len(err.value.timestamps) > 0

