"""Deterministic scenario generators: trajectories, IMU streams and surfel
feature scenes.

Every generator is a pure function of (config, seed).  Randomness comes from
``numpy.random.Generator(PCG64)`` seeded through ``SeedSequence(seed)``; the
sequence is split into one child stream per subsystem (trajectory motion,
scene layout, IMU noise, feature noise), so adding draws to one subsystem
never perturbs another.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import lie
from ..errors import InvalidArgumentError
from ..local_mapping import GRAVITY, ImuSample, MapPriorConstraint
from ..trajectory import Trajectory

_STREAM_NAMES = (
    "trajectory",
    "scene",
    "imu_noise",
    "feature_noise",
)

# The sinusoid motion's centre (m) and its high-frequency shake: fast enough
# that a coarse spline cannot represent it, which is what separates the
# optimization models.  Frequency in Hz, amplitudes in m and rad.
MOTION_CENTER = np.array([1.2, 0.6, 0.9])
SHAKE_FREQ, SHAKE_TRANSLATION, SHAKE_ROTATION = 5.0, 0.003, 0.02
# Half the side of the cube that holds the scene's plane anchors (m).
SCENE_EXTENT = 5.0


def subsystem_streams(seed):
    """Named child RNG streams; see the module docstring for the contract."""
    children = np.random.SeedSequence(seed).spawn(len(_STREAM_NAMES))
    return {
        name: np.random.Generator(np.random.PCG64(c))
        for name, c in zip(_STREAM_NAMES, children)
    }


@dataclass
class SimConfig:
    """Knobs for the synthetic local-mapping studies.  The sinusoid motion's
    centre and shake and the scene's extent, which no caller sets, are
    module constants (``MOTION_CENTER``, ``SHAKE_*``, ``SCENE_EXTENT``)."""

    seed: int = 0
    window: float = 5.0
    imu_rate: float = 100.0
    n_features: int = 1000
    accel_bias: np.ndarray = field(default_factory=lambda: np.array([0.02, -0.015, 0.01]))
    gyro_bias: np.ndarray = field(default_factory=lambda: np.array([0.002, -0.0015, 0.001]))
    accel_noise_std: float = 0.05
    gyro_noise_std: float = 0.005
    feature_noise_std: float = 0.005
    motion_profile: str = "sinusoid"
    n_planes: int = 24
    scripted_motion: object = None

    def __post_init__(self):
        if self.imu_rate <= 0 or self.window <= 0:
            raise InvalidArgumentError("rates and window must be positive")
        self.accel_bias = np.asarray(self.accel_bias, dtype=float)
        self.gyro_bias = np.asarray(self.gyro_bias, dtype=float)


def _sinusoid_motion(rng):
    # Base speeds track the handheld-scan envelope (0.9 m/s, 0.7 rad/s).
    freq_t = np.array([0.30, 0.23, 0.17])
    freq_r = np.array([0.25, 0.20, 0.15])
    amp_t = (0.9 / np.sqrt(3.0)) / (2.0 * np.pi * freq_t)
    amp_r = (0.7 / np.sqrt(3.0)) / (2.0 * np.pi * freq_r)
    phase_t = rng.uniform(0.0, 2.0 * np.pi, 3)
    phase_r = rng.uniform(0.0, 2.0 * np.pi, 3)
    shake_dir_t = rng.normal(size=3)
    shake_dir_t /= np.linalg.norm(shake_dir_t)
    shake_dir_r = rng.normal(size=3)
    shake_dir_r /= np.linalg.norm(shake_dir_r)
    shake_phase = rng.uniform(0.0, 2.0 * np.pi, 2)
    two_pi = 2.0 * np.pi

    def translation(taus):
        base = amp_t * np.sin(two_pi * freq_t * taus[:, None] + phase_t)
        shake = SHAKE_TRANSLATION * np.sin(two_pi * SHAKE_FREQ * taus[:, None] + shake_phase[0])
        return MOTION_CENTER + base + shake * shake_dir_t

    def rotvec(taus):
        base = amp_r * np.sin(two_pi * freq_r * taus[:, None] + phase_r)
        shake = SHAKE_ROTATION * np.sin(two_pi * SHAKE_FREQ * taus[:, None] + shake_phase[1])
        return base + shake * shake_dir_r

    return translation, rotvec


def _motion_functions(cfg: SimConfig, rng):
    if cfg.motion_profile == "sinusoid":
        return _sinusoid_motion(rng)
    if cfg.motion_profile == "scripted":
        if cfg.scripted_motion is None:
            raise InvalidArgumentError("scripted profile needs cfg.scripted_motion")
        return cfg.scripted_motion
    raise InvalidArgumentError(f"unknown motion profile {cfg.motion_profile!r}")


def gen_trajectory_and_imu(cfg: SimConfig):
    """Ground-truth trajectory, IMU stream, and dead-reckoned initialization.

    The IMU stream is synthesized with the same finite-difference operators
    the optimizer evaluates (forward-difference body rates, central-difference
    accelerations), so residuals vanish on noise-free data.  The initial
    trajectory integrates the biased, noisy stream anchored at the first two
    ground-truth samples.
    """
    streams = subsystem_streams(cfg.seed)
    translation_fn, rotvec_fn = _motion_functions(cfg, streams["trajectory"])
    h = 1.0 / cfg.imu_rate
    n = int(round(cfg.window * cfg.imu_rate)) + 1
    times = np.arange(n) * h
    translations = translation_fn(times)
    rotations = lie.so3_exp_batch(rotvec_fn(times))
    truth = Trajectory(times, rotations, translations, cfg.imu_rate)

    rel = np.einsum("nji,njk->nik", rotations[:-1], rotations[1:])
    body_rates = lie.so3_log_batch(rel) / h
    accel_world = (translations[2:] - 2.0 * translations[1:-1] + translations[:-2]) / h**2
    body_accels = np.einsum(
        "nji,nj->ni", rotations[1:-1], accel_world - GRAVITY
    )

    noise = streams["imu_noise"]
    measured_gyro = (
        body_rates
        + cfg.gyro_bias
        + noise.normal(scale=cfg.gyro_noise_std, size=body_rates.shape)
    )
    measured_accel = (
        body_accels
        + cfg.accel_bias
        + noise.normal(scale=cfg.accel_noise_std, size=body_accels.shape)
    )

    imu = [
        ImuSample(times[k], measured_accel[k - 1], measured_gyro[k])
        for k in range(1, n - 1)
    ]

    # Dead reckoning: exact inverses of the synthesis operators.
    init_r = np.empty_like(rotations)
    init_t = np.empty_like(translations)
    init_r[0], init_r[1] = rotations[0], rotations[1]
    init_t[0], init_t[1] = translations[0], translations[1]
    gyro_steps = lie.so3_exp_batch(measured_gyro * h)
    for k in range(1, n - 1):
        init_r[k + 1] = init_r[k] @ gyro_steps[k]
        init_t[k + 1] = (
            2.0 * init_t[k]
            - init_t[k - 1]
            + h * h * (init_r[k] @ measured_accel[k - 1] + GRAVITY)
        )
    init = Trajectory(times.copy(), init_r, init_t, cfg.imu_rate)
    return truth, imu, init


@dataclass
class SurfelScene:
    """World-frame plane features with trajectory-consistent observations."""

    points_world: np.ndarray
    normals: np.ndarray
    times: np.ndarray
    points_sensor: np.ndarray
    plane_ids: np.ndarray

    def map_prior_constraints(self):
        return [
            MapPriorConstraint(self.points_world[i], self.points_sensor[i], self.times[i], self.normals[i])
            for i in range(len(self.times))
        ]


def gen_surfel_scene(cfg: SimConfig, truth: Trajectory) -> SurfelScene:
    """Random plane features observed from the ground-truth trajectory."""
    if cfg.n_features < 1:
        raise InvalidArgumentError("scene needs at least one feature")
    rng = subsystem_streams(cfg.seed)["scene"]
    normals = rng.normal(size=(cfg.n_planes, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    anchors = rng.uniform(-SCENE_EXTENT, SCENE_EXTENT, size=(cfg.n_planes, 3))

    plane_ids = rng.integers(0, cfg.n_planes, size=cfg.n_features)
    offsets = rng.uniform(-SCENE_EXTENT / 2, SCENE_EXTENT / 2, size=(cfg.n_features, 3))
    plane_n = normals[plane_ids]
    points = anchors[plane_ids] + offsets
    points -= (np.sum(points * plane_n, axis=1) - np.sum(anchors[plane_ids] * plane_n, axis=1))[
        :, None
    ] * plane_n

    times = rng.uniform(truth.start, truth.end, size=cfg.n_features)
    rot, trans = truth.sample_batch(times)
    sensor = np.einsum("nji,nj->ni", rot, points - trans)
    sensor += subsystem_streams(cfg.seed)["feature_noise"].normal(
        scale=cfg.feature_noise_std, size=sensor.shape
    )
    return SurfelScene(points, plane_n, times, sensor, plane_ids)

