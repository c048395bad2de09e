import numpy as np
import pytest

from surfelslam import lie, local_mapping as lm
from surfelslam.errors import DegenerateGeometryError, InvalidArgumentError, OutOfRangeError
from surfelslam.simulation import SimConfig, gen_surfel_scene, gen_trajectory_and_imu, oracles
from surfelslam.simulation.generators import pair_constraints_from_scene
from surfelslam.trajectory import ControlGrid, Trajectory


def identity_trajectory(window=1.0, rate=100.0):
    n = int(window * rate) + 1
    times = np.arange(n) / rate
    return Trajectory(times, np.stack([np.eye(3)] * n), np.zeros((n, 3)), rate)


def zero_grid(traj, step=0.1):
    return ControlGrid.zeros(traj.start - step, traj.end + step, step)


def small_sim(seed=0, n_features=120, window=2.0):
    cfg = SimConfig(seed=seed, window=window, n_features=n_features, n_planes=12)
    truth, imu, init = gen_trajectory_and_imu(cfg)
    scene = gen_surfel_scene(cfg, truth)
    return cfg, truth, imu, init, scene


# -- residual definitions ---------------------------------------------------


def test_pair_residual_same_world_point():
    traj = identity_trajectory()
    grid = zero_grid(traj)
    c = lm.SurfelPairConstraint(
        u_a=[1.0, 2.0, 3.0], u_b=[1.0, 2.0, 3.0], tau_a=0.1, tau_b=0.7,
        n_ab=[0.0, 0.0, 1.0],
    )
    assert abs(oracles.residual_surfel_pair(c, traj, grid)) < 1e-12


def test_pair_residual_offset_along_normal():
    traj = identity_trajectory()
    grid = zero_grid(traj)
    c = lm.SurfelPairConstraint(
        u_a=[1.0, 2.0, 3.001], u_b=[1.0, 2.0, 3.0], tau_a=0.1, tau_b=0.7,
        n_ab=[0.0, 0.0, 1.0],
    )
    assert abs(oracles.residual_surfel_pair(c, traj, grid) - 0.001) < 1e-12


def test_pair_residual_orthogonal_offset():
    traj = identity_trajectory()
    grid = zero_grid(traj)
    c = lm.SurfelPairConstraint(
        u_a=[1.5, 2.0, 3.0], u_b=[1.0, 2.0, 3.0], tau_a=0.1, tau_b=0.7,
        n_ab=[0.0, 0.0, 1.0],
    )
    assert abs(oracles.residual_surfel_pair(c, traj, grid)) < 1e-12


def test_map_prior_residual_zero_when_consistent():
    traj = identity_trajectory()
    grid = zero_grid(traj)
    c = lm.MapPriorConstraint(
        u_m=[0.3, -0.2, 1.0], u_c=[0.3, -0.2, 1.0], tau_c=0.4, n_mc=[1.0, 0.0, 0.0]
    )
    assert abs(oracles.residual_map_prior(c, traj, grid)) < 1e-12


def test_map_prior_residual_sign():
    # Trajectory translated by delta along the normal -> residual -delta.
    delta = 0.05
    n = 101
    times = np.arange(n) / 100.0
    traj = Trajectory(
        times, np.stack([np.eye(3)] * n), np.tile([delta, 0.0, 0.0], (n, 1))
    )
    grid = zero_grid(traj)
    c = lm.MapPriorConstraint(
        u_m=[0.3, -0.2, 1.0], u_c=[0.3, -0.2, 1.0], tau_c=0.4, n_mc=[1.0, 0.0, 0.0]
    )
    assert abs(oracles.residual_map_prior(c, traj, grid) + delta) < 1e-12


def test_map_prior_residual_matches_direct_formula(rng):
    cfg, truth, imu, init, scene = small_sim(seed=3, n_features=20)
    grid = zero_grid(truth)
    for c in scene.map_prior_constraints()[:10]:
        rot, t = truth.sample_batch(np.array([c.tau_c]))
        expected = float(c.n_mc @ (c.u_m - (rot[0] @ c.u_c + t[0])))
        assert abs(oracles.residual_map_prior(c, truth, grid) - expected) < 1e-12


def test_imu_residual_gravity_at_rest():
    traj = identity_trajectory()
    grid = zero_grid(traj)
    state = lm.OptState(grid)
    sample = lm.ImuSample(0.5, [0.0, 0.0, 9.80665], [0.0, 0.0, 0.0])
    res = oracles.residual_imu(sample, traj, grid, state)
    assert np.max(np.abs(res)) < 1e-9


def test_imu_residual_reports_gyro_bias():
    traj = identity_trajectory()
    grid = zero_grid(traj)
    state = lm.OptState(grid, gyro_bias=np.array([0.01, 0.0, 0.0]))
    sample = lm.ImuSample(0.5, [0.0, 0.0, 9.80665], [0.0, 0.0, 0.0])
    res = oracles.residual_imu(sample, traj, grid, state)
    assert np.allclose(res[3:], [0.01, 0.0, 0.0], atol=1e-12)
    assert np.max(np.abs(res[:3])) < 1e-9


def test_imu_residual_stencil_out_of_support():
    traj = identity_trajectory()
    grid = zero_grid(traj)
    state = lm.OptState(grid)
    sample = lm.ImuSample(0.0, [0.0, 0.0, 9.80665], [0.0, 0.0, 0.0])
    with pytest.raises(OutOfRangeError):
        oracles.residual_imu(sample, traj, grid, state)


def test_imu_residuals_self_consistent_on_simulated_truth():
    cfg = SimConfig(seed=1, window=2.0, accel_noise_std=0.0, gyro_noise_std=0.0,
                    accel_bias=np.zeros(3), gyro_bias=np.zeros(3), n_features=5)
    truth, imu, init = gen_trajectory_and_imu(cfg)
    grid = zero_grid(truth)
    state = lm.OptState(grid)
    worst = 0.0
    for sample in imu[:: len(imu) // 40]:
        res = oracles.residual_imu(sample, truth, grid, state)
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
    assert np.max(np.abs(state.grid.c_t)) < 1e-9
    assert np.max(np.abs(state.grid.c_r)) < 1e-9
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


def test_observability_guard():
    cfg, truth, imu, init, scene = small_sim(seed=7, n_features=120, window=2.0)
    constraints = scene.map_prior_constraints()[:3]
    grid = ControlGrid.zeros(init.start, init.end, 0.5)
    with pytest.raises(InvalidArgumentError):
        lm.optimize_window(constraints, [], init, lm.OptState(grid), lm.OptimizerConfig())


@pytest.mark.parametrize(
    "option",
    [
        {"model": "direct"},
        {"update_method": "so3r3"},
        {"interpolation": "linear"},
        {"jacobian": "centre"},
    ],
    ids=lambda option: next(iter(option)),
)
def test_unknown_string_option_is_rejected(option):
    # The window optimizer has one model, update, interpolation and Jacobian;
    # a config that names any of them is refused, not silently ignored.
    cfg, truth, imu, init, scene = small_sim(seed=11, n_features=60, window=1.0)
    with pytest.raises(TypeError, match=next(iter(option))):
        run_window(truth, imu, init, scene, option)


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
    grid = ControlGrid.zeros(init.start, init.end, 0.5)
    opt_cfg = lm.OptimizerConfig(estimate_biases=False)
    with pytest.raises(DegenerateGeometryError) as err:
        lm.optimize_window(constraints, [], init, lm.OptState(grid), opt_cfg)
    assert err.value.null_dimension >= 1


def test_cost_non_increasing():
    cfg, truth, imu, init, scene = small_sim(seed=10, n_features=200)
    state, est, report = run_window(truth, imu, init, scene)
    costs = [r.cost for r in report.records]
    assert all(b <= a for a, b in zip(costs, costs[1:]))


def assert_jacobian_matches_central_fd(system, x, state, eps=1e-6):
    base = system.weighted(system.residuals(x, state))
    analytic = system.jacobian(x, state, base)
    dense = np.zeros_like(analytic)
    for p in range(system.n_params()):
        step = np.zeros(system.n_params())
        step[p] = eps
        plus = system.weighted(system.residuals(x + step, state))
        minus = system.weighted(system.residuals(x - step, state))
        dense[:, p] = (plus - minus) / (2.0 * eps)
    scale = np.max(np.abs(dense)) + 1e-12
    assert np.max(np.abs(analytic - dense)) / scale < 1e-5


def test_analytic_jacobian_at_zero_correction_priors_only():
    # The analytic Jacobian at x = 0 (zero correction, zero biases), with map
    # priors and IMU but no surfel pairs and unit robust weights, must match
    # dense central differencing; the test below covers random non-zero x
    # with pairs.  The lag sits off the sample grid, where the residuals are
    # smooth in every parameter.
    cfg, truth, imu, init, scene = small_sim(seed=11, n_features=60, window=1.0)
    opt_cfg = lm.OptimizerConfig(estimate_biases=True, estimate_time_lag=True)
    grid = ControlGrid.zeros(init.start, init.end, 0.25)
    state = lm.OptState(grid, time_lag=0.0037)
    pairs = []
    priors = scene.map_prior_constraints()
    system = lm._WindowSystem(pairs, priors, imu, init, state, opt_cfg)
    x = np.zeros(system.n_params())
    assert_jacobian_matches_central_fd(system, x, state)


# The window optimizer's one path composes SE(3) corrections ("se3") onto
# samples blended along the SE(3) geodesic ("se3"); its tests carry that id.
SE3_PATH = pytest.mark.parametrize((), [pytest.param(id="se3-se3")])


@SE3_PATH
def test_analytic_jacobian_matches_dense_central_fd():
    # A random non-zero x, with surfel pairs, map priors, IMU, biases,
    # non-trivial robust weights and a time lag between samples.
    system, x, state = random_iterate()
    assert system.n_pair > 0 and system.n_prior > 0 and system.n_imu > 0
    assert np.min(system.robust_weights) < 1.0
    assert_jacobian_matches_central_fd(system, x, state)


def test_batch_residuals_match_single_evaluators(rng):
    cfg, truth, imu, init, scene = small_sim(seed=12, n_features=40, window=1.0)
    opt_cfg = lm.OptimizerConfig()
    grid = ControlGrid.zeros(init.start, init.end, 0.25)
    state = lm.OptState(grid, accel_bias=np.array([0.01, 0.0, -0.02]),
                        gyro_bias=np.array([0.001, 0.002, 0.0]))
    priors = scene.map_prior_constraints()
    usable_imu = imu[5:-5:7]
    system = lm._WindowSystem([], priors, usable_imu, init, state, opt_cfg)
    res = system.residuals(np.zeros(system.n_params()), state)
    for i, c in enumerate(priors[:8]):
        single = oracles.residual_map_prior(c, init, grid)
        assert abs(res[system.sl_prior][i] * opt_cfg.sigma_prior - single) < 1e-10
    accel = res[system.sl_accel].reshape(-1, 3) * opt_cfg.sigma_accel
    gyro = res[system.sl_gyro].reshape(-1, 3) * opt_cfg.sigma_gyro
    for i, s in enumerate(usable_imu[:6]):
        single = oracles.residual_imu(s, init, grid, state)
        assert np.max(np.abs(accel[i] - single[:3])) < 1e-9
        assert np.max(np.abs(gyro[i] - single[3:])) < 1e-9


def test_time_lag_estimation():
    cfg = SimConfig(seed=13, window=2.0, n_features=250, time_lag=0.02,
                    accel_noise_std=0.01, gyro_noise_std=0.001)
    truth, imu, init = gen_trajectory_and_imu(cfg)
    scene = gen_surfel_scene(cfg, truth)
    opt_cfg = {"estimate_time_lag": True}
    state, est, report = run_window(truth, imu, init, scene, opt_cfg)
    assert abs(state.time_lag - 0.02) < 0.005


def random_iterate(pairs=None, with_imu=True, knot_step=0.25):
    """A window system at a random non-zero x with pairs, priors, IMU,
    biases, robust weights below one and a 3.7 ms time lag, on a
    ``ControlGrid.zeros`` grid whose end samples read clamped knots."""
    cfg, truth, imu, init, scene = small_sim(seed=11, n_features=60, window=1.0)
    if pairs is None:
        pairs = pair_constraints_from_scene(cfg, truth, 40)
    priors = scene.map_prior_constraints() if with_imu else []
    opt_cfg = lm.OptimizerConfig(estimate_biases=True, estimate_time_lag=True)
    grid = ControlGrid.zeros(init.start, init.end, knot_step)
    state = lm.OptState(grid, accel_bias=np.array([0.01, 0.0, -0.02]),
                        gyro_bias=np.array([0.001, 0.002, 0.0]), time_lag=0.0037)
    system = lm._WindowSystem(pairs, priors, imu if with_imu else [], init, state, opt_cfg)
    x = np.random.default_rng(5).normal(scale=1e-3, size=system.n_params())
    x[-1] = 0.0  # keep the lag at 3.7 ms, off the 10 ms sample grid
    system.update_robust_weights(system.residuals(x, state))
    return system, x, state


def assert_normal_equations_match_dense(system, x, state):
    it = system.evaluate(x, state)
    weighted = system.weighted(it.residuals)
    hess, grad = system.normal_equations(it, weighted)
    jac = system.jacobian(x, state, weighted)
    dense_hess, dense_grad = jac.T @ jac, jac.T @ weighted
    assert np.max(np.abs(hess - dense_hess)) <= 1e-12 * np.max(np.abs(dense_hess))
    assert np.max(np.abs(grad - dense_grad)) <= 1e-12 * np.max(np.abs(dense_grad))


@SE3_PATH
def test_normal_equations_match_dense_jacobian():
    system, x, state = random_iterate()
    assert system.n_pair > 0 and system.n_prior > 0 and system.n_imu > 0
    assert np.min(system.robust_weights) < 1.0
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
    system, x, state = random_iterate(pairs=pairs, with_imu=False, knot_step=0.1)
    assert system.n_prior == 0 and system.n_imu == 0
    assert np.all(np.diff(system.pair_taus, axis=1) >= 4 * system.grid.step)
    assert_normal_equations_match_dense(system, x, state)


@SE3_PATH
def test_folded_iterate_reproduces_candidate_residuals():
    # optimize_window reuses the candidate's poses and residuals after
    # folding an accepted correction into the samples; evaluating x = 0
    # afresh must read the same poses.
    system, x, state = random_iterate()
    x[-1] = 1e-4
    candidate = system.evaluate(x, state)
    folded = system.fold(candidate)
    assert folded.state.time_lag == pytest.approx(0.0038)
    fresh = system.evaluate(np.zeros(system.n_params()), folded.state)
    assert np.array_equal(fresh.residuals, candidate.residuals)
    assert np.array_equal(fresh.residuals, folded.residuals)
    assert np.array_equal(fresh.rot, folded.rot) and np.array_equal(fresh.t, folded.t)


@SE3_PATH
def test_where_reuses_brackets_only_at_the_same_lag():
    system, _, state = random_iterate()

    def fresh(d):
        taus = system.imu_taus + d
        idx, w = system._locate(np.concatenate([taus - system.h, taus, taus + system.h]))
        return (np.concatenate([system.fixed_where[0], idx]),
                np.concatenate([system.fixed_where[1], w]))

    cached = system._where(state.time_lag)
    assert system._where(state.time_lag) is cached
    for d in (0.0041, -0.002, state.time_lag):
        got, want = system._where(d), fresh(d)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert not np.array_equal(system._where(0.0041)[1], cached[1])
