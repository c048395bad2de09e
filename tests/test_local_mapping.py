import dataclasses
import tracemalloc

import numpy as np
import pytest

from surfelslam import lie, local_mapping as lm
from surfelslam.errors import (
    DegenerateGeometryError,
    InvalidArgumentError,
    NoProgressError,
    OutOfRangeError,
)
from surfelslam.simulation import SimConfig, gen_surfel_scene, gen_trajectory_and_imu, oracles
from surfelslam.trajectory import ControlGrid, Trajectory, compose_correction

from conftest import count_decompositions, knot_grid


def identity_trajectory(window=1.0, rate=100.0):
    n = int(window * rate) + 1
    times = np.arange(n) / rate
    return Trajectory(times, np.stack([np.eye(3)] * n), np.zeros((n, 3)), rate)


def small_sim(seed=0, n_features=120, window=2.0):
    cfg = SimConfig(seed=seed, window=window, n_features=n_features, n_planes=12)
    truth, imu, init = gen_trajectory_and_imu(cfg)
    scene = gen_surfel_scene(cfg, truth)
    return cfg, truth, imu, init, scene


# -- residual definitions ---------------------------------------------------


def test_map_prior_residual_zero_when_consistent():
    traj = identity_trajectory()
    c = lm.MapPriorConstraint(
        u_m=[0.3, -0.2, 1.0], u_c=[0.3, -0.2, 1.0], tau_c=0.4, n_mc=[1.0, 0.0, 0.0]
    )
    assert abs(oracles.residual_map_prior(c, traj)) < 1e-12


def test_map_prior_residual_sign():
    # Trajectory translated by delta along the normal -> residual -delta.
    delta = 0.05
    n = 101
    times = np.arange(n) / 100.0
    traj = Trajectory(
        times, np.stack([np.eye(3)] * n), np.tile([delta, 0.0, 0.0], (n, 1))
    )
    c = lm.MapPriorConstraint(
        u_m=[0.3, -0.2, 1.0], u_c=[0.3, -0.2, 1.0], tau_c=0.4, n_mc=[1.0, 0.0, 0.0]
    )
    assert abs(oracles.residual_map_prior(c, traj) + delta) < 1e-12


def test_map_prior_residual_matches_direct_formula(rng):
    cfg, truth, imu, init, scene = small_sim(seed=3, n_features=20)
    for c in scene.map_prior_constraints()[:10]:
        rot, t = truth.sample_batch(np.array([c.tau_c]))
        expected = float(c.n_mc @ (c.u_m - (rot[0] @ c.u_c + t[0])))
        assert abs(oracles.residual_map_prior(c, truth) - expected) < 1e-12


def test_imu_residual_gravity_at_rest():
    traj = identity_trajectory()
    sample = lm.ImuSample(0.5, [0.0, 0.0, 9.80665], [0.0, 0.0, 0.0])
    res = oracles.residual_imu(sample, traj)
    assert np.max(np.abs(res)) < 1e-9


def test_imu_residual_reports_gyro_bias():
    # The sensor adds its bias to the measurement: at rest, a gyro that
    # reads the bias leaves a residual of the bias, and no residual once the
    # same bias is estimated.
    traj = identity_trajectory()
    bias = np.array([0.01, 0.0, 0.0])
    sample = lm.ImuSample(0.5, [0.0, 0.0, 9.80665], bias)
    assert np.allclose(oracles.residual_imu(sample, traj)[3:], bias, atol=1e-12)
    res = oracles.residual_imu(sample, traj, gyro_bias=bias)
    assert np.max(np.abs(res)) < 1e-9


def test_imu_residual_stencil_out_of_support():
    traj = identity_trajectory()
    sample = lm.ImuSample(0.0, [0.0, 0.0, 9.80665], [0.0, 0.0, 0.0])
    with pytest.raises(OutOfRangeError):
        oracles.residual_imu(sample, traj)


def test_imu_residuals_self_consistent_on_simulated_truth():
    cfg = SimConfig(seed=1, window=2.0, accel_noise_std=0.0, gyro_noise_std=0.0,
                    accel_bias=np.zeros(3), gyro_bias=np.zeros(3), n_features=5)
    truth, imu, init = gen_trajectory_and_imu(cfg)
    worst = 0.0
    for sample in imu[:: len(imu) // 40]:
        res = oracles.residual_imu(sample, truth)
        worst = max(worst, float(np.max(np.abs(res))))
    assert worst < 1e-3


# -- optimizer --------------------------------------------------------------


def run_window(truth, imu, init, scene, cfg_kwargs=None, knots=8):
    cfg = lm.OptimizerConfig(**(cfg_kwargs or {}))
    grid = ControlGrid.for_window(init.start, init.end, knots)
    state = lm.OptState(grid)
    constraints = scene.map_prior_constraints()
    return lm.optimize_window(constraints, imu, init, state, cfg)


def trajectory_errors(est, truth):
    t_err = np.linalg.norm(est.translations - truth.translations, axis=1)
    rel = np.einsum("nji,njk->nik", truth.rotations, est.rotations)
    r_err = np.linalg.norm(lie.so3_log_batch(rel), axis=1)
    return float(np.sqrt(np.mean(t_err**2))), float(np.sqrt(np.mean(r_err**2)))


def test_ground_truth_is_fixed_point():
    cfg = SimConfig(seed=2, window=2.0, n_features=150, accel_noise_std=0.0,
                    gyro_noise_std=0.0, feature_noise_std=0.0,
                    accel_bias=np.zeros(3), gyro_bias=np.zeros(3))
    truth, imu, _ = gen_trajectory_and_imu(cfg)
    scene = gen_surfel_scene(cfg, truth)
    state, est, report = run_window(truth, imu, truth, scene)
    assert report.converged
    assert len(report.records) <= 3
    assert report.final_cost < 1e-16
    assert np.max(np.abs(state.accel_bias)) < 1e-9
    assert np.max(np.abs(state.gyro_bias)) < 1e-9
    t_rms, r_rms = trajectory_errors(est, truth)
    assert t_rms < 1e-9 and r_rms < 1e-9


def test_optimizer_recovers_drifted_trajectory():
    cfg = SimConfig(seed=5, window=2.0, n_features=300)
    truth, imu, init = gen_trajectory_and_imu(cfg)
    scene = gen_surfel_scene(cfg, truth)
    t0, r0 = trajectory_errors(init, truth)
    state, est, report = run_window(truth, imu, init, scene)
    t1, r1 = trajectory_errors(est, truth)
    assert report.converged
    assert t1 < 0.2 * t0
    assert t1 < 0.01
    assert r1 < 0.003


def test_estimated_biases_take_the_simulated_sign():
    # The simulated IMU adds accel_bias and gyro_bias to its measurements;
    # the window estimates them with the same sign.
    cfg = SimConfig(seed=5, window=2.0, n_features=300)
    truth, imu, init = gen_trajectory_and_imu(cfg)
    scene = gen_surfel_scene(cfg, truth)
    state, _, report = run_window(truth, imu, init, scene)
    assert report.converged
    assert np.all(np.sign(state.accel_bias) == np.sign(cfg.accel_bias))
    assert np.all(np.sign(state.gyro_bias) == np.sign(cfg.gyro_bias))


def test_window_without_imu_estimates_no_biases():
    # Map priors alone pin every knot; with no IMU samples the biases are
    # unobservable, so the window has no bias parameters and converges.
    cfg = SimConfig(seed=5, window=2.0, n_features=300)
    truth, _, init = gen_trajectory_and_imu(cfg)
    scene = gen_surfel_scene(cfg, truth)
    system = lm._WindowSystem(
        scene.map_prior_constraints(), [], init,
        lm.OptState(ControlGrid.for_window(init.start, init.end, 8)),
    )
    assert system.n_params() == 6 * system.n_knots
    t0, _ = trajectory_errors(init, truth)
    state, est, report = run_window(truth, [], init, scene)
    t1, r1 = trajectory_errors(est, truth)
    assert report.converged
    assert t1 < 0.2 * t0
    assert t1 < 0.01
    assert r1 < 0.003
    assert not np.any(state.accel_bias) and not np.any(state.gyro_bias)


def test_observability_guard():
    cfg, truth, imu, init, scene = small_sim(seed=7, n_features=120, window=2.0)
    constraints = scene.map_prior_constraints()[:3]
    grid = knot_grid(init.start, init.end, 0.5)
    with pytest.raises(InvalidArgumentError):
        lm.optimize_window(constraints, [], init, lm.OptState(grid), lm.OptimizerConfig())


def test_observability_guard_counts_the_biases():
    # A window with IMU samples has 6K + 6 parameters.  Two single-sample
    # groups (six rows each) and priors, 6K + 3 rows in all, leave the
    # biases short of rows: refused before any build, not left to the rank
    # check.
    cfg, truth, imu, init, scene = small_sim(seed=12, n_features=40, window=1.0)
    grid = knot_grid(init.start, init.end, 0.25)
    samples = [imu[20], imu[60]]
    n_knots = len(grid)
    priors = scene.map_prior_constraints()[: 6 * n_knots - 12 + 3]
    system = lm._WindowSystem(priors, samples, init, lm.OptState(grid))
    assert list(system.imu.count) == [1, 1]
    assert 6 * n_knots < system.n_residuals < system.n_params() == 6 * n_knots + 6
    with pytest.raises(InvalidArgumentError, match="6 IMU biases"):
        lm.optimize_window(priors, samples, init, lm.OptState(grid), lm.OptimizerConfig())


@pytest.mark.parametrize(
    "option",
    [
        {"model": "direct"},
        {"update_method": "so3r3"},
        {"interpolation": "linear"},
        {"jacobian": "centre"},
        {"estimate_time_lag": True},
        {"max_time_lag": 0.05},
        {"fd_step": 1e-6},
        {"estimate_biases": False},
        {"max_bias": 1.0},
        {"max_iterations": 1},
        {"chi2_tol": 1e-9},
    ],
    ids=lambda option: next(iter(option)),
)
def test_unknown_string_option_is_rejected(option):
    # The window optimizer has one model, update, interpolation and Jacobian,
    # estimates no time lag and estimates the biases exactly when the window
    # has IMU samples; a config that names any other choice is refused, not
    # silently ignored.
    cfg, truth, imu, init, scene = small_sim(seed=11, n_features=60, window=1.0)
    with pytest.raises(TypeError, match=next(iter(option))):
        run_window(truth, imu, init, scene, option)


@pytest.mark.parametrize("bad", ["tau_c", "u_c", "imu_tau"])
def test_non_finite_input_is_rejected(bad):
    # A NaN time used to read the pose of sample n - 2 (prior) or be dropped
    # (IMU); a NaN observation passed into the residuals.
    cfg, truth, imu, init, scene = small_sim(seed=2, n_features=40)
    constraints = scene.map_prior_constraints()
    c = constraints[3]
    if bad == "tau_c":
        constraints[3] = dataclasses.replace(c, tau_c=np.nan)
    elif bad == "u_c":
        constraints[3] = dataclasses.replace(c, u_c=c.u_c + np.array([0.0, np.nan, 0.0]))
    else:
        imu = list(imu)
        imu[5] = dataclasses.replace(imu[5], tau=np.nan)
    grid = ControlGrid.for_window(init.start, init.end, 8)
    with pytest.raises(InvalidArgumentError):
        lm.optimize_window(constraints, imu, init, lm.OptState(grid), lm.OptimizerConfig())


@pytest.mark.parametrize("bad", ["n_mc", "accel", "gyro"])
def test_window_checks_what_its_records_do_not(bad):
    # The records check nothing; the window checks unit normals and finite
    # IMU readings once, as it stacks them.
    cfg, truth, imu, init, scene = small_sim(seed=2, n_features=40)
    priors = scene.map_prior_constraints()
    imu = list(imu)
    if bad == "n_mc":
        priors[3] = dataclasses.replace(priors[3], n_mc=1.001 * priors[3].n_mc)
    else:
        reading = getattr(imu[5], bad).copy()
        reading[1] = np.nan
        imu[5] = dataclasses.replace(imu[5], **{bad: reading})
    grid = ControlGrid.for_window(init.start, init.end, 8)
    with pytest.raises(InvalidArgumentError):
        lm.optimize_window(priors, imu, init, lm.OptState(grid), lm.OptimizerConfig())


@pytest.mark.parametrize("bad", ["u_c4", "n_mc2", "accel2", "every_u_c6"])
def test_window_rejects_mis_shaped_vectors(bad):
    # One 4-entry u_c, one 2-entry n_mc or one 2-entry accel raised numpy's
    # ValueError as the window stacked them; six entries in every u_c
    # reshaped into twice the rows and failed later, in a broadcast.
    cfg, truth, imu, init, scene = small_sim(seed=2, n_features=40)
    priors = scene.map_prior_constraints()
    imu = list(imu)
    if bad == "u_c4":
        priors[3] = dataclasses.replace(priors[3], u_c=np.r_[priors[3].u_c, 0.0])
    elif bad == "n_mc2":
        priors[3] = dataclasses.replace(priors[3], n_mc=np.array([0.6, 0.8]))
    elif bad == "accel2":
        imu[5] = dataclasses.replace(imu[5], accel=imu[5].accel[:2])
    else:
        priors = [dataclasses.replace(c, u_c=np.r_[c.u_c, c.u_c]) for c in priors]
    grid = ControlGrid.for_window(init.start, init.end, 8)
    with pytest.raises(InvalidArgumentError, match="three entries"):
        lm.optimize_window(priors, imu, init, lm.OptState(grid), lm.OptimizerConfig())


@pytest.mark.parametrize("stray", ["object", "tuples"])
def test_window_rejects_constraints_of_another_type(stray):
    # Constraints of any other type used to be dropped unread: a stray
    # object among the priors was ignored, and tuples in place of the
    # priors ran an IMU-only window.
    cfg, truth, imu, init, scene = small_sim(seed=2, n_features=40)
    priors = scene.map_prior_constraints()
    if stray == "object":
        constraints = priors + [object()]
    else:
        constraints = [dataclasses.astuple(c) for c in priors]
    grid = ControlGrid.for_window(init.start, init.end, 8)
    with pytest.raises(InvalidArgumentError, match="MapPriorConstraint"):
        lm.optimize_window(constraints, imu, init, lm.OptState(grid), lm.OptimizerConfig())


@pytest.mark.parametrize("bias, value", [
    ("accel_bias", np.zeros(2)),
    ("accel_bias", np.array([0.0, np.nan, 0.0])),
    ("gyro_bias", np.zeros(4)),
    ("gyro_bias", np.array([np.inf, 0.0, 0.0])),
], ids=["accel_bias2", "accel_bias_nan", "gyro_bias4", "gyro_bias_inf"])
def test_window_checks_the_state_biases(bias, value):
    # A 2-entry bias used to raise numpy's broadcast ValueError in the
    # residuals, and a NaN bias to end in NoProgressError.
    cfg, truth, imu, init, scene = small_sim(seed=2, n_features=40)
    state = lm.OptState(ControlGrid.for_window(init.start, init.end, 8), **{bias: value})
    with pytest.raises(InvalidArgumentError, match="bias"):
        lm.optimize_window(scene.map_prior_constraints(), imu, init, state, lm.OptimizerConfig())


def test_window_reads_no_imu_sample_it_drops():
    # A sample whose stencil leaves the window is dropped unread, so a NaN
    # reading there is no error.
    cfg, truth, imu, init, scene = small_sim(seed=2, n_features=40)
    grid = ControlGrid.for_window(init.start, init.end, 8)
    args = (scene.map_prior_constraints(), init, lm.OptState(grid), lm.OptimizerConfig())
    dropped = lm.ImuSample(init.end, np.full(3, np.nan), np.full(3, np.nan))
    kept = lm.optimize_window(args[0], imu, *args[1:])
    with_dropped = lm.optimize_window(args[0], list(imu) + [dropped], *args[1:])
    assert np.array_equal(with_dropped[1].translations, kept[1].translations)


def test_window_does_not_depend_on_the_order_of_the_imu_list():
    # The samples are grouped after one stable sort by time, so a shuffled
    # list gives the same trajectory and biases bit for bit.
    cfg, truth, imu, init, scene = small_sim(seed=2, n_features=40)
    grid = ControlGrid.for_window(init.start, init.end, 8)
    args = (init, lm.OptState(grid), lm.OptimizerConfig())
    shuffled = [imu[i] for i in np.random.default_rng(4).permutation(len(imu))]
    state, est, _ = lm.optimize_window(scene.map_prior_constraints(), imu, *args)
    state_s, est_s, _ = lm.optimize_window(scene.map_prior_constraints(), shuffled, *args)
    assert np.array_equal(est.rotations, est_s.rotations)
    assert np.array_equal(est.translations, est_s.translations)
    assert np.array_equal(state.accel_bias, state_s.accel_bias)
    assert np.array_equal(state.gyro_bias, state_s.gyro_bias)


def eigenvalue_null_count(hess):
    """The oracle: eigenvalues below 1e-12 of the largest, taken as at
    least 1e-30, counted by ``eigvalsh``."""
    eigvals = np.linalg.eigvalsh(hess)
    return int(np.sum(eigvals < max(eigvals[-1], 1e-30) * 1e-12))


def test_degenerate_geometry_reports_null_space(monkeypatch):
    # All constraints share one normal: translations orthogonal to it are free.
    cfg = SimConfig(seed=8, window=2.0, n_features=200, feature_noise_std=0.0)
    truth, imu, init = gen_trajectory_and_imu(cfg)
    scene = gen_surfel_scene(cfg, truth)
    normal = np.array([0.0, 0.0, 1.0])
    constraints = [
        lm.MapPriorConstraint(c.u_m, c.u_c, c.tau_c, normal)
        for c in scene.map_prior_constraints()
    ]
    grid = knot_grid(init.start, init.end, 0.5)
    # The window's first H, built as optimize_window builds it, and the
    # number of its eigenvalues below 1e-12 of the largest.
    state = lm.OptState(grid)
    system = lm._WindowSystem(constraints, [], init, state)
    it = system.evaluate(np.zeros(system.n_params()), state)
    system.robust.update(it.residuals)
    hess, _ = system.normal_equations(it, system.robust.weighted(it.residuals))
    null_dim = eigenvalue_null_count(hess)
    assert null_dim >= 1
    calls = count_decompositions(monkeypatch)
    with pytest.raises(DegenerateGeometryError) as err:
        lm.optimize_window(constraints, [], init, lm.OptState(grid), lm.OptimizerConfig())
    assert err.value.null_dimension == null_dim
    # The failed factorization hands the count to eigvalsh.
    assert [name for name, _ in calls] == ["eigvalsh"]


def symmetric_with_spectrum(eigvals, seed=0):
    """``Q diag(eigvals) Q^T`` for a random orthogonal ``Q``, exactly
    symmetric."""
    n = len(eigvals)
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))
    hess = (q * eigvals) @ q.T
    return 0.5 * (hess + hess.T)


@pytest.mark.parametrize(
    "ratio, null_dim",
    [(0.0, 167), (5e-13, 5), (2e-12, 0), (1e-9, 0), (1.0, 0), (None, 168)],
    ids=["ratio-0", "ratio-5e-13", "ratio-2e-12", "ratio-1e-9", "ratio-1", "zero"],
)
def test_rank_check_counts_as_eigvalsh(monkeypatch, ratio, null_dim):
    # Eigenvalues spread geometrically from 1 down to lambda_min / lambda_max
    # = ratio (all but the first zero at ratio 0), and the zero matrix.
    n = 168
    if ratio is None:
        hess = np.zeros((n, n))
    else:
        hess = symmetric_with_spectrum(ratio ** np.linspace(0.0, 1.0, n))
    expected = eigenvalue_null_count(hess)
    assert expected == null_dim
    calls = count_decompositions(monkeypatch)
    assert lm._null_dimension(hess) == expected
    # A full-rank H is proved so by its factorization alone; near the
    # threshold the factorization fails and eigvalsh counts.
    assert len(calls) == (0 if ratio in (1e-9, 1.0) else 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rank_check_leaves_a_non_finite_h_to_eigvalsh(monkeypatch, bad):
    # A factorization of a non-finite H proves nothing: eigvalsh decides,
    # returning a count or raising, as it did before the proof.
    hess = np.eye(168)
    hess[3, 4] = hess[4, 3] = bad

    def outcome(count):
        try:
            return count(hess)
        except np.linalg.LinAlgError:
            return "LinAlgError"

    expected = outcome(eigenvalue_null_count)
    calls = count_decompositions(monkeypatch)
    assert outcome(lm._null_dimension) == expected
    assert [name for name, _ in calls] == ["eigvalsh"]


def test_well_posed_window_runs_no_eigvalsh(monkeypatch):
    cfg, truth, imu, init, scene = small_sim(seed=5, n_features=300)
    calls = count_decompositions(monkeypatch)
    _, _, report = run_window(truth, imu, init, scene)
    assert report.converged
    assert calls == []


def test_damping_vector_step_matches_dense_damping():
    # The damping added in place to a copy of H gives the step and model
    # decrease, bit for bit, of the dense damped matrix.
    rng = np.random.default_rng(4)
    a = rng.normal(size=(168, 168))
    hess = a @ a.T + 1e-3 * np.eye(168)
    grad = rng.normal(size=168)
    diag = np.diag(hess).copy()
    before = hess.copy()
    for lam in (1e-6, 1e-2, 10.0):
        delta, decrease = lm._model_step(hess, grad, lam * diag)
        dense = np.linalg.solve(hess + lam * np.diag(diag), -grad)
        assert np.array_equal(delta, dense)
        assert decrease == -2.0 * (dense @ grad) - dense @ (hess @ dense)
    assert np.array_equal(hess, before)


def test_normal_equations_and_step_allocate_no_dense_temporaries():
    # One build and one damped step of a 26-knot window with IMU biases peak
    # below 2.5 blocks of n^2 floats under tracemalloc: H itself, the
    # damped copy, and the row bands.  A dense damping matrix, or a padded
    # H copied into its layout, adds a block each and fails.
    cfg, truth, imu, init, scene = small_sim(seed=5)
    state = lm.OptState(ControlGrid.for_window(init.start, init.end, 26))
    system = lm._WindowSystem(scene.map_prior_constraints(), imu, init, state)
    it = system.evaluate(np.zeros(system.n_params()), state)
    system.robust.update(it.residuals)
    weighted = system.robust.weighted(it.residuals)
    n = system.n_params()
    assert n == 6 * 26 + 6
    tracemalloc.start()
    try:
        hess, grad = system.normal_equations(it, weighted)
        lm._model_step(hess, grad, 1e-6 * np.diag(hess))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * n * n * 8


def test_cost_non_increasing():
    cfg, truth, imu, init, scene = small_sim(seed=10, n_features=200)
    state, est, report = run_window(truth, imu, init, scene)
    costs = [r.cost for r in report.records]
    assert all(b <= a for a, b in zip(costs, costs[1:]))


# -- stopping rule ------------------------------------------------------------


def test_chi2_stop_agrees_with_a_tight_tolerance(monkeypatch):
    # A window stopped at the default CHI2_TOL lies within 1e-4 m and 1e-4
    # (rotation matrix entries) of the same window run to the rounding
    # floor, and its cost lies above the tight run's by less than CHI2_TOL.
    cfg, truth, imu, init, scene = small_sim(seed=5, n_features=300)
    chi2_tol = lm.CHI2_TOL
    _, est, report = run_window(truth, imu, init, scene)
    monkeypatch.setattr(lm, "CHI2_TOL", 1e-9)
    _, tight, tight_report = run_window(truth, imu, init, scene)
    assert report.converged and tight_report.converged
    assert len(tight_report.records) > len(report.records)
    assert np.max(np.linalg.norm(est.translations - tight.translations, axis=1)) < 1e-4
    assert np.max(np.abs(est.rotations - tight.rotations)) < 1e-4
    assert 0.0 <= report.final_cost - tight_report.final_cost < chi2_tol


def test_predicted_decrease_stop_evaluates_no_candidate(monkeypatch):
    # evaluate runs for the initial iterate and once per accepted step: the
    # step whose model decrease ends the window is never evaluated.
    calls = []
    evaluate = lm._WindowSystem.evaluate

    def counted(self, x, state):
        calls.append(1)
        return evaluate(self, x, state)

    monkeypatch.setattr(lm._WindowSystem, "evaluate", counted)
    cfg, truth, imu, init, scene = small_sim(seed=5, n_features=300)
    _, _, report = run_window(truth, imu, init, scene)
    assert report.converged and report.reason == "predicted_decrease"
    assert 0.0 <= report.stop_decrease < lm.CHI2_TOL
    assert len(calls) == len(report.records)


def count_builds(monkeypatch):
    """A list that gains one entry per ``normal_equations`` build."""
    calls = []
    build = lm._WindowSystem.normal_equations

    def counted(self, it, weighted):
        calls.append(1)
        return build(self, it, weighted)

    monkeypatch.setattr(lm._WindowSystem, "normal_equations", counted)
    return calls


def test_chord_stop_builds_once_per_accepted_step(monkeypatch):
    # The last build's Jacobian and H, with the accepted step's residuals,
    # predict the next decrease; below CHI2_TOL the window stops without
    # linearizing again.
    builds = count_builds(monkeypatch)
    cfg, truth, imu, init, scene = small_sim(seed=5, n_features=300)
    _, _, report = run_window(truth, imu, init, scene)
    assert report.converged and report.reason == "predicted_decrease"
    assert 0.0 <= report.stop_decrease < lm.CHI2_TOL
    assert len(builds) == len(report.records) - 1


def test_chord_stop_holds_far_from_the_optimum(monkeypatch):
    # An initial rotation error of up to 0.2 rad, a bump over the window:
    # the window takes more steps, and the chord stops it no earlier than
    # within CHI2_TOL of the cost that a tight tolerance reaches.
    cfg, truth, imu, init, scene = small_sim(seed=5, n_features=300)
    s = (init.times - init.start) / (init.end - init.start)
    axis = np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])
    error = lie.so3_exp_batch(0.2 * np.sin(np.pi * s)[:, None] * axis)
    far = Trajectory(init.times, error @ init.rotations, init.translations, init.nominal_rate)
    chi2_tol = lm.CHI2_TOL
    _, _, report = run_window(truth, imu, far, scene)
    monkeypatch.setattr(lm, "CHI2_TOL", 1e-9)
    _, _, tight = run_window(truth, imu, far, scene)
    assert report.converged and report.reason == "predicted_decrease"
    assert tight.converged and len(report.records) > 3
    assert 0.0 <= report.final_cost - tight.final_cost < chi2_tol


def test_a_large_chord_decrease_builds_again(monkeypatch):
    # A chord gradient scaled by 1e3 predicts 1e6 times the decrease, so the
    # chord test passes the window on and the full build stops it; the
    # chord changes the trajectory in no way.
    cfg, truth, imu, init, scene = small_sim(seed=5, n_features=300)
    _, est, report = run_window(truth, imu, init, scene)
    chord = lm._WindowSystem.chord_gradient
    monkeypatch.setattr(
        lm._WindowSystem, "chord_gradient", lambda self, weighted: 1e3 * chord(self, weighted)
    )
    builds = count_builds(monkeypatch)
    _, full, full_report = run_window(truth, imu, init, scene)
    assert full_report.converged and full_report.reason == "predicted_decrease"
    assert len(builds) == len(full_report.records) == len(report.records)
    assert 0.0 <= full_report.stop_decrease < lm.CHI2_TOL
    assert full_report.stop_decrease != report.stop_decrease
    assert np.array_equal(full.rotations, est.rotations)
    assert np.array_equal(full.translations, est.translations)


def test_cost_decrease_stop_reports_the_accepted_decrease(monkeypatch):
    # A cost scaled by 1e-6 leaves the model's predicted decrease as it is,
    # so the first step is evaluated and accepted; its actual decrease is
    # then below CHI2_TOL, ends the window and is reported.
    cost = lm._Cauchy.cost
    monkeypatch.setattr(
        lm._Cauchy, "cost", lambda self, residuals: 1e-6 * cost(self, residuals)
    )
    cfg, truth, imu, init, scene = small_sim(seed=5, n_features=300)
    _, _, report = run_window(truth, imu, init, scene)
    assert report.converged and report.reason == "cost_decrease"
    assert len(report.records) == 2
    assert report.stop_decrease == report.records[0].cost - report.records[1].cost
    assert 0.0 < report.stop_decrease < lm.CHI2_TOL


def test_cost_that_never_decreases_raises_no_progress(monkeypatch):
    monkeypatch.setattr(lm._Cauchy, "cost", lambda self, residuals: 1.0)
    cfg, truth, imu, init, scene = small_sim(seed=5, n_features=300)
    with pytest.raises(NoProgressError) as err:
        run_window(truth, imu, init, scene)
    report = err.value.report
    assert not report.converged and report.reason == "no_progress"
    assert len(report.records) == 1


def test_max_iterations_ends_a_capped_run(monkeypatch):
    cfg, truth, imu, init, scene = small_sim(seed=5, n_features=300)
    monkeypatch.setattr(lm, "MAX_ITERATIONS", 1)
    _, _, report = run_window(truth, imu, init, scene)
    assert not report.converged and report.reason == "max_iterations"
    assert len(report.records) == 2
    assert np.isnan(report.stop_decrease)


def assert_jacobian_matches_central_fd(system, x, state, eps=1e-6):
    analytic = system.jacobian(x, state)
    dense = np.zeros_like(analytic)
    for p in range(system.n_params()):
        step = np.zeros(system.n_params())
        step[p] = eps
        plus = system.robust.weighted(system.evaluate(x + step, state).residuals)
        minus = system.robust.weighted(system.evaluate(x - step, state).residuals)
        dense[:, p] = (plus - minus) / (2.0 * eps)
    scale = np.max(np.abs(dense)) + 1e-12
    assert np.max(np.abs(analytic - dense)) / scale < 1e-5


def test_analytic_jacobian_at_zero_correction_priors_only():
    # The analytic Jacobian at x = 0 (zero correction, zero biases), with map
    # priors and IMU and unit robust weights, must match dense central
    # differencing; the test below covers a random folded correction.
    priors, imu, init = window_inputs()
    state = lm.OptState(knot_grid(init.start, init.end, 0.25))
    system = lm._WindowSystem(priors, imu, init, state)
    x = np.zeros(system.n_params())
    assert_jacobian_matches_central_fd(system, x, state)


# The window optimizer's one path composes SE(3) corrections ("se3") onto
# pose points placed on the SE(3) geodesic ("se3"); its tests carry that id.
SE3_PATH = pytest.mark.parametrize((), [pytest.param(id="se3-se3")])


@SE3_PATH
def test_analytic_jacobian_matches_dense_central_fd():
    # A random correction folded into the samples, with map priors, IMU
    # groups whose ends lie between trajectory samples, biases
    # and non-trivial robust weights; the columns of the biases are the
    # groups' constant bias border.
    system, x, state = folded_iterate()
    assert system.n_prior > 0 and system.n_imu > 0
    assert np.min(system.robust.weights) < 1.0
    assert_jacobian_matches_central_fd(system, x, state)


def held_pose(rot, t, tau, rate):
    """A two-sample trajectory that holds one pose from ``tau`` on, so an
    oracle reads that pose at ``tau``."""
    return Trajectory([tau, tau + 1.0 / rate], np.stack([rot, rot]), np.stack([t, t]), rate)


def group_members(system, imu):
    """The samples of each of ``system``'s IMU groups."""
    groups = system.imu
    return [
        [s for s in imu if first - 1e-12 <= s.tau <= last + 1e-12]
        for first, last in zip(groups.first, groups.last)
    ]


def test_batch_residuals_match_single_evaluators():
    # Every seventh sample: each is a group of its own.
    assert_batch_residuals_match_single_evaluators(slice(5, -5, 7), {1})


def test_batch_residuals_match_single_evaluators_on_full_groups():
    # Every sample: groups of 12 or 13, one per half knot interval.
    assert_batch_residuals_match_single_evaluators(slice(None), {12, 13})


def assert_batch_residuals_match_single_evaluators(taken, sizes):
    # At a random correction and bias step, each batch residual equals its
    # oracle at the pose the oracle spline corrects: a prior, read between
    # samples, at the initial pose at its time composed with the correction
    # at its time; an IMU group, whose queries read samples, on the
    # corrected samples, with the groups of ``sizes``.  The window folds the
    # gyro once, at the set-up biases, and moves its rows by a constant bias
    # Jacobian, where the oracle integrates at the stepped biases: with no
    # bias step the IMU rows agree to rounding, and the step's move misses
    # the oracle's by less than 1e-3 of it (the Jacobian takes the rotation
    # residual's Jr^-1 as the identity).
    cfg, truth, imu, init, scene = small_sim(seed=12, n_features=40, window=1.0)
    grid = knot_grid(init.start, init.end, 0.25)
    state = lm.OptState(grid, accel_bias=np.array([0.01, 0.0, -0.02]),
                        gyro_bias=np.array([0.001, 0.002, 0.0]))
    priors = scene.map_prior_constraints()
    usable_imu = imu[taken]
    system = lm._WindowSystem(priors, usable_imu, init, state)
    assert set(system.imu.count) == sizes
    x = np.random.default_rng(7).normal(scale=1e-3, size=system.n_params())
    it = system.evaluate(x, state)
    res = it.residuals
    k = system.n_knots
    knots = x[: 6 * k].reshape(k, 6)
    corrected = oracles.apply_correction(init, grid, knots[:, 3:], knots[:, :3])
    bias_step = x[6 * k :]
    taus = np.array([c.tau_c for c in priors[:8]])
    rot, t = compose_correction(
        *oracles.correction_batch(grid, knots[:, 3:], knots[:, :3], taus), *init.sample_batch(taus)
    )
    for i, c in enumerate(priors[:8]):
        single = oracles.residual_map_prior(c, held_pose(rot[i], t[i], c.tau_c, init.nominal_rate))
        assert abs(res[system.sl_prior][i] * lm.SIGMA_PRIOR - single) < 1e-10
    members = group_members(system, usable_imu)
    assert sum(len(m) for m in members) == system.n_imu

    def difference(step):
        b_a, b_g = state.accel_bias + step[:3], state.gyro_bias + step[3:]
        raw = system._imu_raw(it.rot, it.t, b_a, b_g)
        single = np.array([oracles.residual_imu_group(m, corrected, b_a, b_g) for m in members])
        return np.abs(raw - single).max()

    assert difference(np.zeros(6)) < 1e-10
    move = np.abs(system.imu.bias_jac @ bias_step).max()
    assert difference(bias_step) < 1e-3 * move
    # The evaluated IMU rows are the kept rows of the whitened groups.
    raw = system._imu_raw(it.rot, it.t, *system.split_params(x, state)[1:])
    whitened = np.einsum("gij,gj->gi", system.imu_whiten, raw).reshape(-1)[system.imu_rows]
    assert np.array_equal(res[system.sl_accel.start :], whitened)


def test_a_group_of_one_sample_is_the_stencil_acceleration_row():
    # Its zeroth moment is the stencil's acceleration row, to the rounding
    # of the central difference, at any bias; its centred moment is zero,
    # has no variance and is not a row of the window.
    cfg, truth, imu, init, scene = small_sim(seed=12, n_features=40, window=1.0)
    grid = knot_grid(init.start, init.end, 0.25)
    state = lm.OptState(grid, accel_bias=np.array([0.01, 0.0, -0.02]),
                        gyro_bias=np.array([0.001, 0.002, 0.0]))
    sparse = imu[5:-5:7]
    system = lm._WindowSystem(scene.map_prior_constraints(), sparse, init, state)
    it = system.evaluate(np.zeros(system.n_params()), state)
    b_a, b_g = np.array([0.03, -0.01, 0.0]), np.array([0.0, 0.004, -0.002])
    raw = system._imu_raw(it.rot, it.t, b_a, b_g)
    for row, s in zip(raw, sparse):
        stencil = oracles.residual_imu(s, init, b_a, b_g)
        assert np.max(np.abs(row[3:6] - stencil[:3])) < 1e-10
        assert not row[6:].any()
    assert not system.imu.cov[:, 6:].any() and not system.imu.cov[:, :, 6:].any()
    assert system.sl_accel.stop - system.sl_accel.start == 3 * len(sparse)
    assert system.sl_gyro.stop - system.sl_gyro.start == 3 * len(sparse)


def test_group_moments_are_weighted_sums_of_stencil_residuals():
    # With a noise-free gyro the gyro's rotation from a group's first sample
    # to sample i is the truth's, so on the truth's rotations with perturbed
    # translations each moment is the weighted sum of the stencil's
    # acceleration residuals, each turned into the group's first frame.
    cfg = SimConfig(seed=4, window=1.0, gyro_noise_std=0.0, n_features=5)
    truth, imu, _ = gen_trajectory_and_imu(cfg)
    moved = truth.translations + np.random.default_rng(3).normal(scale=1e-3, size=(len(truth), 3))
    traj = Trajectory(truth.times, truth.rotations, moved, truth.nominal_rate)
    state = lm.OptState(knot_grid(traj.start, traj.end, 0.25), gyro_bias=cfg.gyro_bias)
    system = lm._WindowSystem([], imu, traj, state)
    it = system.evaluate(np.zeros(system.n_params()), state)
    raw = system._imu_raw(it.rot, it.t, state.accel_bias, state.gyro_bias)
    members = group_members(system, imu)
    assert len(members) == 8 and all(len(m) > 1 for m in members)
    for row, group in zip(raw, members):
        n = len(group)
        first = int(round(group[0].tau * traj.nominal_rate))
        want = np.zeros((2, 3))
        for i, s in enumerate(group):
            turned = traj.rotations[first].T @ traj.rotations[first + i]
            accel = turned @ oracles.residual_imu(s, traj, gyro_bias=cfg.gyro_bias)[:3]
            want += np.outer([1.0, i - 0.5 * (n - 1)], accel)
        assert np.max(np.abs(row[3:] - want.reshape(-1))) <= 1e-9 * np.max(np.abs(want))


def test_group_covariance_and_bias_jacobian_match_re_preintegration():
    # The covariance is the first-order propagation of the per-sample noise
    # through the group oracle, by central differences of each reading; the
    # bias Jacobian is the central difference of the preintegration run
    # again at each perturbed bias: of the rotation in its tangent space,
    # and of the moments.
    cfg, truth, imu, init, scene = small_sim(seed=12, n_features=40, window=1.0)
    state = lm.OptState(knot_grid(init.start, init.end, 0.25),
                        accel_bias=np.array([0.01, 0.0, -0.02]),
                        gyro_bias=np.array([0.001, 0.002, 0.0]))
    system = lm._WindowSystem([], imu, init, state)
    group = group_members(system, imu)[2]
    eps = 1e-6

    def readings(i, field, step):
        moved = list(group)
        moved[i] = dataclasses.replace(group[i], **{field: getattr(group[i], field) + step})
        return oracles.residual_imu_group(moved, init, state.accel_bias, state.gyro_bias)

    noise = []
    for i in range(len(group)):
        for field, sigma in (("accel", lm.SIGMA_ACCEL), ("gyro", lm.SIGMA_GYRO)):
            for step in eps * np.eye(3):
                change = readings(i, field, step) - readings(i, field, -step)
                noise.append(sigma * change / (2 * eps))
    noise = np.array(noise).T
    cov = system.imu.cov[2]
    assert np.max(np.abs(cov - noise @ noise.T)) < 1e-6 * np.max(np.abs(cov))

    usable = np.array([s.tau for s in imu])
    usable = (usable - system.h >= init.start) & (usable + system.h <= init.end)
    args = (np.array([s.tau for s in imu])[usable],
            np.array([s.accel for s in imu])[usable], np.array([s.gyro for s in imu])[usable])
    segment = np.floor((args[0] - state.grid.times[0]) / (0.5 * state.grid.step))

    def fold(step):
        return lm._preintegrate(*args, segment, system.h, state.accel_bias + step[:3],
                                state.gyro_bias + step[3:])

    base = fold(np.zeros(6))
    for j, step in enumerate(1e-5 * np.eye(6)):
        plus, minus = fold(step), fold(-step)
        turn = lie.so3_log_batch(minus.delta_rot.transpose(0, 2, 1) @ plus.delta_rot)
        want = np.concatenate([turn / system.h, (plus.moments - minus.moments).reshape(-1, 6)],
                              axis=1) / 2e-5
        got = base.bias_jac[:, :, j]
        assert np.max(np.abs(got - want)) < 1e-6 * np.max(np.abs(got))


def mixed_group_samples(imu, init, grid):
    """Three stretches of ``imu``: every sample (full groups), every second
    sample (groups of one, each 2h from the next) and every sample but the
    fifth of each half knot interval (two partial groups per half)."""
    taus = np.array([s.tau for s in imu])
    third = init.start + (init.end - init.start) * np.array([1.0, 2.0]) / 3.0
    half = np.floor((taus - grid.times[0]) / (0.5 * grid.step))
    index = np.arange(len(imu))
    at_half = index - np.searchsorted(half, half)  # position in its half interval
    keep = np.where(taus < third[0], True, np.where(taus < third[1], index % 2 == 0, at_half != 4))
    return [s for s, k in zip(imu, keep) if k]


def test_groups_of_mixed_sizes_match_the_oracles():
    # One window whose groups have sizes 1, partial and full: each group's
    # raw rows equal the group oracle's, its covariance the first-order
    # propagation of the per-sample noise through the oracle, and its bias
    # Jacobian the central difference of the preintegration run again, to
    # the bounds of the single-size tests.
    cfg, truth, imu, init, scene = small_sim(seed=12, n_features=40, window=1.0)
    grid = knot_grid(init.start, init.end, 0.25)
    state = lm.OptState(grid, accel_bias=np.array([0.01, 0.0, -0.02]),
                        gyro_bias=np.array([0.001, 0.002, 0.0]))
    samples = mixed_group_samples(imu, init, grid)
    system = lm._WindowSystem(scene.map_prior_constraints(), samples, init, state)
    groups = system.imu
    assert len(set(groups.count)) >= 3 and 1 in groups.count and groups.count.max() > 10
    members = group_members(system, samples)
    assert [len(m) for m in members] == list(groups.count)

    x = np.random.default_rng(7).normal(scale=1e-3, size=system.n_params())
    x[6 * system.n_knots :] = 0.0
    it = system.evaluate(x, state)
    knots = x[: 6 * system.n_knots].reshape(-1, 6)
    corrected = oracles.apply_correction(init, grid, knots[:, 3:], knots[:, :3])
    raw = system._imu_raw(it.rot, it.t, state.accel_bias, state.gyro_bias)
    for row, group in zip(raw, members):
        single = oracles.residual_imu_group(group, corrected, state.accel_bias, state.gyro_bias)
        assert np.abs(row - single).max() < 1e-10

    eps = 1e-6
    for g, group in enumerate(members):

        def readings(i, field, step):
            moved = list(group)
            moved[i] = dataclasses.replace(group[i], **{field: getattr(group[i], field) + step})
            return oracles.residual_imu_group(moved, init, state.accel_bias, state.gyro_bias)

        noise = np.array([
            sigma * (readings(i, field, step) - readings(i, field, -step)) / (2 * eps)
            for i in range(len(group))
            for field, sigma in (("accel", lm.SIGMA_ACCEL), ("gyro", lm.SIGMA_GYRO))
            for step in eps * np.eye(3)
        ]).T
        cov = groups.cov[g]
        assert np.max(np.abs(cov - noise @ noise.T)) < 1e-6 * np.max(np.abs(cov))

    read = [s for s in samples if init.start + system.h <= s.tau <= init.end - system.h]
    args = (np.array([s.tau for s in read]), np.array([s.accel for s in read]),
            np.array([s.gyro for s in read]))
    segment = np.floor((args[0] - grid.times[0]) / (0.5 * grid.step))

    def fold(step):
        return lm._preintegrate(*args, segment, system.h, state.accel_bias + step[:3],
                                state.gyro_bias + step[3:])

    base = fold(np.zeros(6))
    assert np.array_equal(base.count, groups.count)
    for j, step in enumerate(1e-5 * np.eye(6)):
        plus, minus = fold(step), fold(-step)
        turn = lie.so3_log_batch(minus.delta_rot.transpose(0, 2, 1) @ plus.delta_rot)
        want = np.concatenate([turn / system.h, (plus.moments - minus.moments).reshape(-1, 6)],
                              axis=1) / 2e-5
        got = base.bias_jac[:, :, j]
        assert np.max(np.abs(got - want)) < 1e-6 * np.max(np.abs(got))


def test_parameter_entry_moves_samples_by_its_knot_weight():
    # The parameters are knot-major: x[6k + j] turns every pose point, the
    # samples and the points of the queries between them, by knot k's spline
    # weight at the point's time about axis j for j < 3, and shifts it along
    # axis j - 3 by that weight for j >= 3.
    priors, imu, init = window_inputs()
    grid = knot_grid(init.start, init.end, 0.25)
    state = lm.OptState(grid)
    system = lm._WindowSystem(priors, imu, init, state)
    times = system.point_times
    assert np.array_equal(times[: len(init)], init.times) and len(times) > len(init)
    rot0, t0 = init.sample_batch(times)
    idx, weights = grid.knot_indices_and_weights(times)
    for k in (0, 2, system.n_knots - 1):
        weight = np.where(idx == k, weights, 0.0).sum(axis=1)
        assert np.any(weight[: len(init)] > 0.0) and np.any(weight[len(init) :] > 0.0)
        for j in range(6):
            x = np.zeros(system.n_params())
            x[6 * k + j] = 1.0
            rot, t = system.evaluate(x, state).points
            move = weight[:, None] * np.eye(3)[j % 3]
            if j < 3:
                turn = lie.so3_exp_batch(move)
                want_rot = turn @ rot0
                want_t = np.einsum("nij,nj->ni", turn, t0)
            else:
                want_rot, want_t = rot0, t0 + move
            assert np.allclose(rot, want_rot, rtol=0.0, atol=1e-12)
            assert np.allclose(t, want_t, rtol=0.0, atol=1e-12)


def test_each_query_reads_its_own_pose_point():
    # A prior within the snap tolerance of a sample reads that sample's pose
    # bit for bit; a prior between samples reads the initial pose at its own
    # time, corrected by the oracle spline at that time, after one folded
    # correction and after a second one on top.
    priors, _, init = window_inputs()
    grid = knot_grid(init.start, init.end, 0.25)
    h = 1.0 / init.nominal_rate
    snapped = [17, 50, 83]
    taus = np.r_[init.times[snapped] + [0.0, 1e-13, -1e-13], init.times[[20, 64]] + 0.37 * h]
    priors = [dataclasses.replace(c, tau_c=tau) for c, tau in zip(priors, taus)] + priors[5:]
    state = lm.OptState(grid)
    system = lm._WindowSystem(priors, [], init, state)
    q = np.arange(system.q_prior.start, system.q_prior.start + 5)
    assert np.array_equal(system.query_points[q[:3]], snapped)
    assert np.all(system.query_points[q[3:]] >= len(init))
    rng = np.random.default_rng(2)
    rot0, t0 = init.sample_batch(taus[3:])
    for _ in range(2):
        x = rng.normal(scale=1e-2, size=system.n_params())
        it = system.evaluate(x, state)
        knots = x.reshape(-1, 6)
        rot0, t0 = compose_correction(
            *oracles.correction_batch(grid, knots[:, 3:], knots[:, :3], taus[3:]), rot0, t0
        )
        assert np.array_equal(it.rot[q[:3]], it.points[0][snapped])
        assert np.array_equal(it.t[q[:3]], it.points[1][snapped])
        assert np.allclose(it.rot[q[3:]], rot0, rtol=0.0, atol=1e-12)
        assert np.allclose(it.t[q[3:]], t0, rtol=0.0, atol=1e-12)
        state = system.fold(it).state
    est = lm._trajectory_from(system)
    assert np.array_equal(est.rotations[snapped], it.rot[q[:3]])
    assert np.array_equal(est.translations[snapped], it.t[q[:3]])


def window_inputs():
    """Priors, IMU samples and initial trajectory of a 1 s window.  The IMU
    samples are shifted 3.7 ms off the 10 ms sample grid, so their stencils
    read poses between samples."""
    cfg, truth, imu, init, scene = small_sim(seed=11, n_features=60, window=1.0)
    imu = [lm.ImuSample(s.tau + 0.0037, s.accel, s.gyro) for s in imu]
    return scene.map_prior_constraints(), imu, init


def random_iterate():
    """A window system at a random non-zero x with priors, IMU, biases and
    robust weights below one, on a grid whose end samples read clamped
    knots."""
    priors, imu, init = window_inputs()
    grid = knot_grid(init.start, init.end, 0.25)
    state = lm.OptState(grid, accel_bias=np.array([0.01, 0.0, -0.02]),
                        gyro_bias=np.array([0.001, 0.002, 0.0]))
    system = lm._WindowSystem(priors, imu, init, state)
    x = np.random.default_rng(5).normal(scale=1e-3, size=system.n_params())
    system.robust.update(system.evaluate(x, state).residuals)
    return system, x, state


def folded_iterate():
    """``random_iterate`` with its random x folded into the samples, where
    the window is linearized: the system, x = 0 and the folded state."""
    system, x, state = random_iterate()
    folded = system.fold(system.evaluate(x, state))
    return system, folded.x, folded.state


def assert_normal_equations_match_dense(system, x, state):
    it = system.evaluate(x, state)
    weighted = system.robust.weighted(it.residuals)
    hess, grad = system.normal_equations(it, weighted)
    jac = system.jacobian(x, state)
    dense_hess, dense_grad = jac.T @ jac, jac.T @ weighted
    assert np.max(np.abs(hess - dense_hess)) <= 1e-12 * np.max(np.abs(dense_hess))
    assert np.max(np.abs(grad - dense_grad)) <= 1e-12 * np.max(np.abs(dense_grad))
    # The chord gradient reads the bands that build left: J.T times any
    # residuals.
    other = np.random.default_rng(9).normal(size=weighted.size)
    for r in (weighted, other):
        chord, dense = system.chord_gradient(r), jac.T @ r
        assert np.max(np.abs(chord - dense)) <= 1e-12 * np.max(np.abs(dense))


@SE3_PATH
def test_normal_equations_match_dense_jacobian():
    system, x, state = folded_iterate()
    assert system.n_prior > 0 and system.n_imu > 0
    assert np.min(system.robust.weights) < 1.0
    # The IMU samples are full groups off the sample grid: every end query
    # of a group lies between two samples and reads a pose point of its own.
    assert np.all(system.imu.count > 1)
    assert np.all(system.query_points[system.q_imu[0].start :] >= len(system.traj_times))
    # The first and last samples read the clamped boundary knots.
    first, last = system.grid.knot_indices_and_weights(system.traj_times[[0, -1]])[0]
    assert first[0] == first[1] and last[2] == last[3]
    assert_normal_equations_match_dense(system, x, state)


def test_linearization_refuses_a_non_zero_correction():
    # The window is linearized at the folded samples only; a correction
    # that was not folded would take bands that ignore it.
    system, x, state = random_iterate()
    weighted = system.robust.weighted(system.evaluate(x, state).residuals)
    for p in (0, 6 * system.n_knots - 1):
        one = np.zeros(system.n_params())
        one[p] = 1e-6
        with pytest.raises(InvalidArgumentError):
            system.normal_equations(system.evaluate(one, state), weighted)
        with pytest.raises(InvalidArgumentError):
            system.jacobian(one, state)
    # Bias steps are not a correction.
    x[: 6 * system.n_knots] = 0.0
    assert_normal_equations_match_dense(system, x, state)


@SE3_PATH
def test_folded_iterate_reproduces_candidate_residuals():
    # optimize_window reuses the candidate's poses and residuals after
    # folding an accepted correction into the samples; evaluating x = 0
    # afresh must read the same poses.
    system, x, state = random_iterate()
    candidate = system.evaluate(x, state)
    folded = system.fold(candidate)
    k = system.n_knots
    assert np.array_equal(folded.state.accel_bias, state.accel_bias + x[6 * k : 6 * k + 3])
    assert np.array_equal(folded.state.gyro_bias, state.gyro_bias + x[6 * k + 3 :])
    fresh = system.evaluate(np.zeros(system.n_params()), folded.state)
    assert np.array_equal(fresh.residuals, candidate.residuals)
    assert np.array_equal(fresh.residuals, folded.residuals)
    assert np.array_equal(fresh.rot, folded.rot) and np.array_equal(fresh.t, folded.t)
