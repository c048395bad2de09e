import dataclasses

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
from surfelslam.simulation.generators import pair_constraints_from_scene
from surfelslam.trajectory import ControlGrid, Trajectory, interpolate

from conftest import knot_grid


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


def test_pair_residual_same_world_point():
    traj = identity_trajectory()
    c = lm.SurfelPairConstraint(
        u_a=[1.0, 2.0, 3.0], u_b=[1.0, 2.0, 3.0], tau_a=0.1, tau_b=0.7,
        n_ab=[0.0, 0.0, 1.0],
    )
    assert abs(oracles.residual_surfel_pair(c, traj)) < 1e-12


def test_pair_residual_offset_along_normal():
    traj = identity_trajectory()
    c = lm.SurfelPairConstraint(
        u_a=[1.0, 2.0, 3.001], u_b=[1.0, 2.0, 3.0], tau_a=0.1, tau_b=0.7,
        n_ab=[0.0, 0.0, 1.0],
    )
    assert abs(oracles.residual_surfel_pair(c, traj) - 0.001) < 1e-12


def test_pair_residual_orthogonal_offset():
    traj = identity_trajectory()
    c = lm.SurfelPairConstraint(
        u_a=[1.5, 2.0, 3.0], u_b=[1.0, 2.0, 3.0], tau_a=0.1, tau_b=0.7,
        n_ab=[0.0, 0.0, 1.0],
    )
    assert abs(oracles.residual_surfel_pair(c, traj)) < 1e-12


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
        [], scene.map_prior_constraints(), [], init,
        lm.OptState(ControlGrid.for_window(init.start, init.end, 8)), lm.OptimizerConfig(),
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


@pytest.mark.parametrize("bad", ["n_mc", "n_ab", "tau_b", "accel", "gyro"])
def test_window_checks_what_its_records_do_not(bad):
    # The records check nothing; the window checks unit normals, distinct
    # pair times and finite IMU readings once, as it stacks them.
    cfg, truth, imu, init, scene = small_sim(seed=2, n_features=40)
    priors = scene.map_prior_constraints()
    pairs = pair_constraints_from_scene(cfg, truth, 10)
    imu = list(imu)
    if bad == "n_mc":
        priors[3] = dataclasses.replace(priors[3], n_mc=1.001 * priors[3].n_mc)
    elif bad == "n_ab":
        pairs[3] = dataclasses.replace(pairs[3], n_ab=0.999 * pairs[3].n_ab)
    elif bad == "tau_b":
        pairs[3] = dataclasses.replace(pairs[3], tau_b=pairs[3].tau_a)
    else:
        reading = getattr(imu[5], bad).copy()
        reading[1] = np.nan
        imu[5] = dataclasses.replace(imu[5], **{bad: reading})
    grid = ControlGrid.for_window(init.start, init.end, 8)
    with pytest.raises(InvalidArgumentError):
        lm.optimize_window(priors + pairs, imu, init, lm.OptState(grid), lm.OptimizerConfig())


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


def test_degenerate_geometry_reports_null_space():
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
    with pytest.raises(DegenerateGeometryError) as err:
        lm.optimize_window(constraints, [], init, lm.OptState(grid), lm.OptimizerConfig())
    assert err.value.null_dimension >= 1


def test_cost_non_increasing():
    cfg, truth, imu, init, scene = small_sim(seed=10, n_features=200)
    state, est, report = run_window(truth, imu, init, scene)
    costs = [r.cost for r in report.records]
    assert all(b <= a for a, b in zip(costs, costs[1:]))


# -- stopping rule ------------------------------------------------------------


def test_chi2_stop_agrees_with_a_tight_tolerance():
    # A window stopped at the default chi2_tol lies within 1e-4 m and 1e-4
    # (rotation matrix entries) of the same window run to the rounding
    # floor, and its cost lies above the tight run's by less than chi2_tol.
    cfg, truth, imu, init, scene = small_sim(seed=5, n_features=300)
    chi2_tol = lm.OptimizerConfig().chi2_tol
    _, est, report = run_window(truth, imu, init, scene)
    _, tight, tight_report = run_window(truth, imu, init, scene, {"chi2_tol": 1e-9})
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
    assert 0.0 <= report.stop_decrease < lm.OptimizerConfig().chi2_tol
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
    # predict the next decrease; below chi2_tol the window stops without
    # linearizing again.
    builds = count_builds(monkeypatch)
    cfg, truth, imu, init, scene = small_sim(seed=5, n_features=300)
    _, _, report = run_window(truth, imu, init, scene)
    assert report.converged and report.reason == "predicted_decrease"
    assert 0.0 <= report.stop_decrease < lm.OptimizerConfig().chi2_tol
    assert len(builds) == len(report.records) - 1


def test_chord_stop_holds_far_from_the_optimum():
    # An initial rotation error of up to 0.2 rad, a bump over the window:
    # the window takes more steps, and the chord stops it no earlier than
    # within chi2_tol of the cost that a tight tolerance reaches.
    cfg, truth, imu, init, scene = small_sim(seed=5, n_features=300)
    s = (init.times - init.start) / (init.end - init.start)
    axis = np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])
    error = lie.so3_exp_batch(0.2 * np.sin(np.pi * s)[:, None] * axis)
    far = Trajectory(init.times, error @ init.rotations, init.translations, init.nominal_rate)
    _, _, report = run_window(truth, imu, far, scene)
    _, _, tight = run_window(truth, imu, far, scene, {"chi2_tol": 1e-9})
    assert report.converged and report.reason == "predicted_decrease"
    assert tight.converged and len(report.records) > 3
    assert 0.0 <= report.final_cost - tight.final_cost < lm.OptimizerConfig().chi2_tol


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
    assert 0.0 <= full_report.stop_decrease < lm.OptimizerConfig().chi2_tol
    assert full_report.stop_decrease != report.stop_decrease
    assert np.array_equal(full.rotations, est.rotations)
    assert np.array_equal(full.translations, est.translations)


def test_cost_decrease_stop_reports_the_accepted_decrease(monkeypatch):
    # A cost scaled by 1e-6 leaves the model's predicted decrease as it is,
    # so the first step is evaluated and accepted; its actual decrease is
    # then below chi2_tol, ends the window and is reported.
    cost = lm._WindowSystem.cost
    monkeypatch.setattr(
        lm._WindowSystem, "cost", lambda self, residuals: 1e-6 * cost(self, residuals)
    )
    cfg, truth, imu, init, scene = small_sim(seed=5, n_features=300)
    _, _, report = run_window(truth, imu, init, scene)
    assert report.converged and report.reason == "cost_decrease"
    assert len(report.records) == 2
    assert report.stop_decrease == report.records[0].cost - report.records[1].cost
    assert 0.0 < report.stop_decrease < lm.OptimizerConfig().chi2_tol


def test_cost_that_never_decreases_raises_no_progress(monkeypatch):
    monkeypatch.setattr(lm._WindowSystem, "cost", lambda self, residuals: 1.0)
    cfg, truth, imu, init, scene = small_sim(seed=5, n_features=300)
    with pytest.raises(NoProgressError) as err:
        run_window(truth, imu, init, scene)
    report = err.value.report
    assert not report.converged and report.reason == "no_progress"
    assert len(report.records) == 1


def test_max_iterations_ends_a_capped_run():
    cfg, truth, imu, init, scene = small_sim(seed=5, n_features=300)
    _, _, report = run_window(truth, imu, init, scene, {"max_iterations": 1})
    assert not report.converged and report.reason == "max_iterations"
    assert len(report.records) == 2
    assert np.isnan(report.stop_decrease)


def assert_jacobian_matches_central_fd(system, x, state, eps=1e-6):
    analytic = system.jacobian(x, state)
    dense = np.zeros_like(analytic)
    for p in range(system.n_params()):
        step = np.zeros(system.n_params())
        step[p] = eps
        plus = system.weighted(system.evaluate(x + step, state).residuals)
        minus = system.weighted(system.evaluate(x - step, state).residuals)
        dense[:, p] = (plus - minus) / (2.0 * eps)
    scale = np.max(np.abs(dense)) + 1e-12
    assert np.max(np.abs(analytic - dense)) / scale < 1e-5


def test_analytic_jacobian_at_zero_correction_priors_only():
    # The analytic Jacobian at x = 0 (zero correction, zero biases), with map
    # priors and IMU but no surfel pairs and unit robust weights, must match
    # dense central differencing; the test below covers random non-zero x
    # with pairs.
    pairs, priors, imu, init = window_inputs(pairs=[])
    state = lm.OptState(knot_grid(init.start, init.end, 0.25))
    system = lm._WindowSystem(pairs, priors, imu, init, state, lm.OptimizerConfig())
    x = np.zeros(system.n_params())
    assert_jacobian_matches_central_fd(system, x, state)


# The window optimizer's one path composes SE(3) corrections ("se3") onto
# samples blended along the SE(3) geodesic ("se3"); its tests carry that id.
SE3_PATH = pytest.mark.parametrize((), [pytest.param(id="se3-se3")])


@SE3_PATH
def test_analytic_jacobian_matches_dense_central_fd():
    # A random correction folded into the samples, with surfel pairs, map
    # priors, IMU samples between trajectory samples, biases and non-trivial
    # robust weights.
    system, x, state = folded_iterate()
    assert system.n_pair > 0 and system.n_prior > 0 and system.n_imu > 0
    assert np.min(system.robust_weights) < 1.0
    assert_jacobian_matches_central_fd(system, x, state)


def test_batch_residuals_match_single_evaluators():
    # At a random correction and bias step, each batch residual equals its
    # oracle on the trajectory corrected by the oracle spline.
    cfg, truth, imu, init, scene = small_sim(seed=12, n_features=40, window=1.0)
    opt_cfg = lm.OptimizerConfig()
    grid = knot_grid(init.start, init.end, 0.25)
    state = lm.OptState(grid, accel_bias=np.array([0.01, 0.0, -0.02]),
                        gyro_bias=np.array([0.001, 0.002, 0.0]))
    priors = scene.map_prior_constraints()
    usable_imu = imu[5:-5:7]
    system = lm._WindowSystem([], priors, usable_imu, init, state, opt_cfg)
    x = np.random.default_rng(7).normal(scale=1e-3, size=system.n_params())
    res = system.evaluate(x, state).residuals
    k = system.n_knots
    knots = x[: 6 * k].reshape(k, 6)
    corrected = oracles.apply_correction(init, grid, knots[:, 3:], knots[:, :3])
    accel_bias = state.accel_bias + x[6 * k : 6 * k + 3]
    gyro_bias = state.gyro_bias + x[6 * k + 3 :]
    for i, c in enumerate(priors[:8]):
        single = oracles.residual_map_prior(c, corrected)
        assert abs(res[system.sl_prior][i] * opt_cfg.sigma_prior - single) < 1e-10
    accel = res[system.sl_accel].reshape(-1, 3) * opt_cfg.sigma_accel
    gyro = res[system.sl_gyro].reshape(-1, 3) * opt_cfg.sigma_gyro
    for i, s in enumerate(usable_imu[:6]):
        single = oracles.residual_imu(s, corrected, accel_bias, gyro_bias)
        assert np.max(np.abs(accel[i] - single[:3])) < 1e-9
        assert np.max(np.abs(gyro[i] - single[3:])) < 1e-9


def test_parameter_entry_moves_samples_by_its_knot_weight():
    # The parameters are knot-major: x[6k + j] turns every sample by knot k's
    # spline weight about axis j for j < 3, and shifts it along axis j - 3
    # by that weight for j >= 3.
    pairs, priors, imu, init = window_inputs()
    grid = knot_grid(init.start, init.end, 0.25)
    state = lm.OptState(grid)
    system = lm._WindowSystem(pairs, priors, imu, init, state, lm.OptimizerConfig())
    idx, weights = grid.knot_indices_and_weights(init.times)
    for k in (0, 2, system.n_knots - 1):
        weight = np.where(idx == k, weights, 0.0).sum(axis=1)
        assert np.any(weight > 0.0)
        for j in range(6):
            x = np.zeros(system.n_params())
            x[6 * k + j] = 1.0
            rot, t = system.evaluate(x, state).samples
            move = weight[:, None] * np.eye(3)[j % 3]
            if j < 3:
                turn = lie.so3_exp_batch(move)
                want_rot = turn @ init.rotations
                want_t = np.einsum("nij,nj->ni", turn, init.translations)
            else:
                want_rot, want_t = init.rotations, init.translations + move
            assert np.allclose(rot, want_rot, rtol=0.0, atol=1e-12)
            assert np.allclose(t, want_t, rtol=0.0, atol=1e-12)


def window_inputs(pairs=None, with_imu=True):
    """Pairs, priors, IMU samples and initial trajectory of a 1 s window.
    The IMU samples are shifted 3.7 ms off the 10 ms sample grid, so their
    stencils read poses between samples."""
    cfg, truth, imu, init, scene = small_sim(seed=11, n_features=60, window=1.0)
    if pairs is None:
        pairs = pair_constraints_from_scene(cfg, truth, 40)
    if not with_imu:
        return pairs, [], [], init
    imu = [lm.ImuSample(s.tau + 0.0037, s.accel, s.gyro) for s in imu]
    return pairs, scene.map_prior_constraints(), imu, init


def random_iterate(pairs=None, with_imu=True, knot_step=0.25):
    """A window system at a random non-zero x with pairs, priors, IMU,
    biases and robust weights below one, on a grid whose end samples read
    clamped knots."""
    pairs, priors, imu, init = window_inputs(pairs, with_imu)
    grid = knot_grid(init.start, init.end, knot_step)
    state = lm.OptState(grid, accel_bias=np.array([0.01, 0.0, -0.02]),
                        gyro_bias=np.array([0.001, 0.002, 0.0]))
    system = lm._WindowSystem(pairs, priors, imu, init, state, lm.OptimizerConfig())
    x = np.random.default_rng(5).normal(scale=1e-3, size=system.n_params())
    system.update_robust_weights(system.evaluate(x, state).residuals)
    return system, x, state


def folded_iterate(**kwargs):
    """``random_iterate`` with its random x folded into the samples, where
    the window is linearized: the system, x = 0 and the folded state."""
    system, x, state = random_iterate(**kwargs)
    folded = system.fold(system.evaluate(x, state))
    return system, folded.x, folded.state


def assert_normal_equations_match_dense(system, x, state):
    it = system.evaluate(x, state)
    weighted = system.weighted(it.residuals)
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
    assert system.n_pair > 0 and system.n_prior > 0 and system.n_imu > 0
    assert np.min(system.robust_weights) < 1.0
    # Every IMU stencil read lies between two samples.
    w = system.where[1][system.q_stencil[0].start :]
    assert np.all((w > 0.0) & (w < 1.0))
    # The first and last samples read the clamped boundary knots.
    first, last = system.grid.knot_indices_and_weights(system.traj_times[[0, -1]])[0]
    assert first[0] == first[1] and last[2] == last[3]
    assert_normal_equations_match_dense(system, x, state)


@SE3_PATH
def test_normal_equations_match_dense_jacobian_far_pairs():
    # Pairs only, each tying two times at least four knots apart, so one
    # row reads knots far from its first one.
    rng = np.random.default_rng(3)
    pairs = []
    for tau_a in np.linspace(0.02, 0.3, 40):
        normal = rng.normal(size=3)
        pairs.append(lm.SurfelPairConstraint(
            u_a=rng.normal(size=3), u_b=rng.normal(size=3), tau_a=tau_a,
            tau_b=tau_a + 0.65, n_ab=normal / np.linalg.norm(normal),
        ))
    system, x, state = folded_iterate(pairs=pairs, with_imu=False, knot_step=0.1)
    assert system.n_prior == 0 and system.n_imu == 0
    assert np.all(np.diff(system.pair_taus, axis=1) >= 4 * system.grid.step)
    assert_normal_equations_match_dense(system, x, state)


def test_blend_pulls_gradients_through_the_geodesic():
    # Queries between samples 2.0-2.6 rad apart: g M against central
    # differences of the oracle interpolation in a left perturbation
    # (phi, rho) of the upper sample, R <- exp(phi) R, t <- exp(phi) t + rho.
    rng = np.random.default_rng(4)
    rot = lie.so3_exp_batch(rng.normal(scale=0.8, size=(4, 3)))
    t = rng.normal(size=(4, 3))
    idx, alpha = np.array([0, 0, 1, 2, 2]), np.array([0.3, 0.8, 0.5, 0.1, 0.95])
    q_rot, q_t, chart = interpolate(rot, t, idx, alpha)
    g = rng.normal(size=(5, 1, 6))
    got = lm._blend(rot, t, alpha, chart)(g, slice(0, 5))[:, 0]

    def perturbed(n, delta):
        step = lie.so3_exp_batch(delta[None, :3])[0]
        upper = np.eye(4)
        upper[:3, :3], upper[:3, 3] = step @ rot[idx[n] + 1], step @ t[idx[n] + 1] + delta[3:]
        lower = np.eye(4)
        lower[:3, :3], lower[:3, 3] = rot[idx[n]], t[idx[n]]
        pose = oracles.interp_pose(lower, upper, alpha[n])
        phi = lie.so3_log_batch((pose[:3, :3] @ q_rot[n].T)[None])[0]
        return np.r_[phi, pose[:3, 3] - lie.so3_exp_batch(phi[None])[0] @ q_t[n]]

    eps = 1e-6
    for n in range(5):
        m = np.column_stack([
            (perturbed(n, eps * e) - perturbed(n, -eps * e)) / (2.0 * eps) for e in np.eye(6)
        ])
        assert np.allclose(got[n], g[n, 0] @ m, rtol=0.0, atol=1e-8)


def test_linearization_refuses_a_non_zero_correction():
    # The window is linearized at the folded samples only; a correction
    # that was not folded would take bands that ignore it.
    system, x, state = random_iterate()
    weighted = system.weighted(system.evaluate(x, state).residuals)
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
