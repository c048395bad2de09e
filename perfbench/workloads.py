"""Benchmark inputs: a static plane world, a scripted sensor path, and per
window the truth, IMU stream, dead-reckoned initialization, map priors and
the scan.

Everything here is a pure function of ``(workload name, seed)``.  The world
and the sensor path are owned by this module; the package only receives the
generated inputs.  Each window is simulated by
``surfelslam.simulation.gen_trajectory_and_imu`` with a scripted motion that
is the global path shifted to the window's start time, so every window sees
the same world and consecutive windows join up.  Plane sizes and sample
counts are fixed per workload and the seed only moves, tilts and perturbs
them, so the amount of work per run does not depend on the seed.  A run
holds several independent episodes (world plus path), so its accuracy
figures average over more windows than one episode has.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass

import numpy as np

from surfelslam.local_mapping import MapPriorConstraint
from surfelslam.simulation import SimConfig, gen_trajectory_and_imu
from surfelslam.trajectory import Trajectory

IMU_RATE = 100.0
PRIOR_NOISE = 0.005  # m, sensor-frame noise on map-prior observations
SCAN_NOISE = 0.003  # m, sensor-frame noise on scan returns


@dataclass(frozen=True)
class Planes:
    """Rectangular plane patches: ``normal . x = offset`` inside the patch
    spanned by ``center + a * axis_u + b * axis_v``, ``|a| <= half_u``,
    ``|b| <= half_v``."""

    normals: np.ndarray
    offsets: np.ndarray
    centers: np.ndarray
    axes_u: np.ndarray
    axes_v: np.ndarray
    half_u: np.ndarray
    half_v: np.ndarray

    def __len__(self):
        return len(self.offsets)

    def distance(self, points):
        """Distance from each point to the nearest (unbounded) plane."""
        d = np.abs(points @ self.normals.T - self.offsets)
        return d.min(axis=1)

    def sample(self, rng, count):
        """Points drawn uniformly by area over all patches, with plane ids."""
        area = self.half_u * self.half_v
        ids = rng.choice(len(self), size=count, p=area / area.sum())
        a = rng.uniform(-1.0, 1.0, count) * self.half_u[ids]
        b = rng.uniform(-1.0, 1.0, count) * self.half_v[ids]
        points = (
            self.centers[ids] + a[:, None] * self.axes_u[ids] + b[:, None] * self.axes_v[ids]
        )
        return points, ids


def _patches(normals, centers, half_u, half_v):
    normals = np.asarray(normals, dtype=float)
    normals = normals / np.linalg.norm(normals, axis=1, keepdims=True)
    centers = np.asarray(centers, dtype=float)
    seed_axis = np.where(
        np.abs(normals[:, :1]) < 0.9, [[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]]
    )
    axes_u = np.cross(normals, seed_axis)
    axes_u /= np.linalg.norm(axes_u, axis=1, keepdims=True)
    axes_v = np.cross(normals, axes_u)
    return Planes(
        normals,
        np.sum(normals * centers, axis=1),
        centers,
        axes_u,
        axes_v,
        np.asarray(half_u, dtype=float),
        np.asarray(half_v, dtype=float),
    )


def _tilt(rng, normals, max_deg):
    """Normals rotated by a random small angle (fixed per seed)."""
    normals = np.asarray(normals, dtype=float)
    normals = normals / np.linalg.norm(normals, axis=1, keepdims=True)
    out = normals + rng.normal(size=normals.shape) * np.deg2rad(max_deg)
    return out / np.linalg.norm(out, axis=1, keepdims=True)


@dataclass(frozen=True)
class Spec:
    """Fixed shape of one workload; the seed only perturbs within it."""

    name: str
    episodes: int  # independent worlds and paths per run
    n_windows: int
    window: float  # s of simulated time per window
    n_priors: int
    n_scan: int
    scan_reach: float  # m; scan returns only within this range of the sensor
    knots: int
    surfel_radius: float  # m, dense extraction radius
    voxel_resolutions: tuple  # m, sparse voxel sizes
    active_window: float  # s, fusion's active/inactive split


SPECS = {
    # Optimizer-bound: many priors and full-rate IMU per window, a sparse
    # scan at a coarse surfel radius, so extraction and fusion are cheap.
    "odometry": Spec(
        name="odometry", episodes=4, n_windows=6, window=5.0, n_priors=1000,
        n_scan=1200, scan_reach=3.0, knots=26, surfel_radius=0.3,
        voxel_resolutions=(0.5,), active_window=30.0,
    ),
    # Map-bound: a small scene re-observed from one spot with dense scans;
    # every local surfel is matched against the active map.
    "revisit": Spec(
        name="revisit", episodes=6, n_windows=3, window=2.0, n_priors=300,
        n_scan=8000, scan_reach=4.0, knots=8, surfel_radius=0.05,
        voxel_resolutions=(0.25,), active_window=30.0,
    ),
    # Loop around a room with a short scan reach; the sensor returns to its
    # start after more than ``active_window`` so the inactive map, the ICP
    # check and re-activation all run.
    "loop": Spec(
        name="loop", episodes=4, n_windows=6, window=3.0, n_priors=600,
        n_scan=6000, scan_reach=2.5, knots=8, surfel_radius=0.1,
        voxel_resolutions=(0.5,), active_window=9.0,
    ),
}


def _odometry_world(rng):
    # 24 planes facing the start point from 2 to 3.75 m away, their normals
    # spread evenly over the sphere and jittered per seed.
    n = 24
    k = np.arange(n) + 0.5
    polar = np.arccos(1.0 - 2.0 * k / n)
    azimuth = np.pi * (1.0 + 5.0**0.5) * k
    normals = _tilt(
        rng,
        np.stack([np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth),
                  np.cos(polar)], axis=1),
        5.0,
    )
    center = np.array([1.2, 0.6, 0.9])
    distance = 2.0 + 0.25 * (np.arange(n) % 8) + rng.uniform(-0.1, 0.1, n)
    planes = _patches(-normals, center + distance[:, None] * normals,
                      np.full(n, 1.5), np.full(n, 1.5))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=6)
    freq_t = np.array([0.30, 0.23, 0.17])
    freq_r = np.array([0.25, 0.20, 0.15])
    amp_t = (0.9 / np.sqrt(3.0)) / (2.0 * np.pi * freq_t)
    amp_r = (0.7 / np.sqrt(3.0)) / (2.0 * np.pi * freq_r)

    def translation(t):
        return center + amp_t * np.sin(2.0 * np.pi * freq_t * t[:, None] + phase[:3])

    def rotvec(t):
        return amp_r * np.sin(2.0 * np.pi * freq_r * t[:, None] + phase[3:])

    return planes, translation, rotvec


def _revisit_world(rng):
    # A 2 m corner: floor, two walls and three tilted panels, seen from a
    # sensor that sways around one spot.
    normals = _tilt(
        rng,
        [[0, 0, 1], [1, 0, 0], [0, 1, 0], [1, 1, 1], [-1, 1, 0.5], [1, -1, 0.5]],
        5.0,
    )
    centers = np.array(
        [[1.0, 1.0, 0.0], [0.0, 1.0, 0.75], [1.0, 0.0, 0.75],
         [1.3, 1.3, 0.4], [1.6, 0.6, 0.5], [0.6, 1.6, 0.5]]
    ) + rng.uniform(-0.05, 0.05, size=(6, 3))
    planes = _patches(normals, centers, [1.0, 1.0, 1.0, 0.3, 0.3, 0.3],
                      [1.0, 0.75, 0.75, 0.3, 0.3, 0.3])
    phase = rng.uniform(0.0, 2.0 * np.pi, size=6)
    center = np.array([1.0, 1.0, 1.2])

    def translation(t):
        return center + 0.1 * np.sin(2.0 * np.pi * 0.3 * t[:, None] + phase[:3])

    def rotvec(t):
        return 0.15 * np.sin(2.0 * np.pi * 0.2 * t[:, None] + phase[3:])

    return planes, translation, rotvec


LOOP_PERIOD = 15.0  # s per lap; a run covers more than one lap


def _loop_world(rng):
    # An 8 m x 6 m x 3 m room with four tilted interior panels; the sensor
    # circles its center at 2 m radius, facing along the path.
    room_n = [[0, 0, 1], [0, 0, -1], [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]]
    room_c = [[0, 0, 0], [0, 0, 3], [-4, 0, 1.5], [4, 0, 1.5], [0, -3, 1.5], [0, 3, 1.5]]
    room_u = [4.0, 4.0, 3.0, 3.0, 4.0, 4.0]
    room_v = [3.0, 3.0, 1.5, 1.5, 1.5, 1.5]
    panel_n = _tilt(rng, [[1, 1, 0], [-1, 1, 0], [1, -1, 0.3], [-1, -1, 0.3]], 10.0)
    panel_c = np.array([[2.9, 2.0, 1.0], [-2.9, 2.0, 1.0], [2.9, -2.0, 1.0], [-2.9, -2.0, 1.0]])
    panel_c += rng.uniform(-0.1, 0.1, size=panel_c.shape)
    planes = _patches(
        np.vstack([room_n, panel_n]),
        np.vstack([room_c, panel_c]),
        room_u + [0.5] * 4,
        room_v + [0.5] * 4,
    )
    phase = rng.uniform(0.0, 2.0 * np.pi)
    wobble = rng.uniform(0.0, 2.0 * np.pi, size=2)
    omega = 2.0 * np.pi / LOOP_PERIOD

    def translation(t):
        a = omega * t + phase
        z = 1.2 + 0.05 * np.sin(2.0 * np.pi * 0.4 * t + wobble[0])
        return np.stack([2.0 * np.cos(a), 2.0 * np.sin(a), z], axis=1)

    def rotvec(t):
        yaw = omega * t + phase + 0.5 * np.pi
        tilt = 0.05 * np.sin(2.0 * np.pi * 0.3 * t + wobble[1])
        return np.stack([tilt, 0.5 * tilt, yaw], axis=1)

    return planes, translation, rotvec


_WORLDS = {"odometry": _odometry_world, "revisit": _revisit_world, "loop": _loop_world}


@dataclass
class WindowInput:
    """One window of sensor data; times are local to the window (0 at its
    start), ``t0`` is its start in run time."""

    index: int
    t0: float
    truth: Trajectory
    init: Trajectory
    imu: list
    priors: list
    scan_points: np.ndarray  # sensor frame
    scan_times: np.ndarray


@dataclass
class Episode:
    """One world and one sensor path, cut into windows."""

    planes: Planes
    windows: list


@dataclass
class WorkloadInputs:
    spec: Spec
    seed: int
    episodes: list


def _observe(rng, planes, truth, count, reach, noise):
    """``count`` plane points seen from the truth path within ``reach``:
    world points, sensor-frame observations, times and plane ids."""
    world, sensor, times, ids = [], [], [], []
    have = 0
    while have < count:
        batch = 2 * (count - have) + 64
        pts, pid = planes.sample(rng, batch)
        tau = rng.uniform(truth.start, truth.end, batch)
        rot, trans = truth.sample_batch(tau)
        local = np.einsum("nji,nj->ni", rot, pts - trans)
        keep = np.flatnonzero(np.linalg.norm(local, axis=1) <= reach)[: count - have]
        world.append(pts[keep])
        sensor.append(local[keep] + rng.normal(scale=noise, size=(keep.size, 3)))
        times.append(tau[keep])
        ids.append(pid[keep])
        have += keep.size
    return (np.concatenate(world), np.concatenate(sensor), np.concatenate(times),
            np.concatenate(ids))


def _shifted(fn, t0):
    return lambda taus: fn(np.asarray(taus, dtype=float) + t0)


def _episode(spec, seq):
    world_seq, *window_seqs = seq.spawn(1 + spec.n_windows)
    planes, translation, rotvec = _WORLDS[spec.name](np.random.default_rng(world_seq))
    windows = []
    for w, window_seq in enumerate(window_seqs):
        t0 = w * spec.window
        sim_seq, obs_seq = window_seq.spawn(2)
        cfg = SimConfig(
            seed=int(sim_seq.generate_state(1)[0]),
            window=spec.window,
            imu_rate=IMU_RATE,
            motion_profile="scripted",
            scripted_motion=(_shifted(translation, t0), _shifted(rotvec, t0)),
        )
        truth, imu, init = gen_trajectory_and_imu(cfg)
        rng = np.random.default_rng(obs_seq)
        pw, ps, pt, pid = _observe(rng, planes, truth, spec.n_priors, np.inf, PRIOR_NOISE)
        priors = [
            MapPriorConstraint(pw[i], ps[i], pt[i], planes.normals[pid[i]])
            for i in range(spec.n_priors)
        ]
        _, scan, scan_t, _ = _observe(
            rng, planes, truth, spec.n_scan, spec.scan_reach, SCAN_NOISE
        )
        windows.append(WindowInput(w, t0, truth, init, imu, priors, scan, scan_t))
    return Episode(planes, windows)


def generate(name, seed):
    """All inputs of workload ``name`` for ``seed``."""
    spec = SPECS[name]
    root = np.random.SeedSequence([seed, zlib.crc32(name.encode())])
    return WorkloadInputs(spec, seed, [_episode(spec, seq) for seq in root.spawn(spec.episodes)])


def fingerprint(inputs: WorkloadInputs):
    """SHA-256 over every array the package receives, in a fixed order."""
    h = hashlib.sha256()

    def put(a):
        a = np.ascontiguousarray(np.asarray(a, dtype=float))
        h.update(str(a.shape).encode())
        h.update(a.tobytes())

    for w in (w for ep in inputs.episodes for w in ep.windows):
        for traj in (w.truth, w.init):
            put(traj.times)
            put(traj.rotations)
            put(traj.translations)
        put([[s.tau, *s.accel, *s.gyro] for s in w.imu])
        put([[*c.u_m, *c.u_c, c.tau_c, *c.n_mc] for c in w.priors])
        put(w.scan_points)
        put(w.scan_times)
    return h.hexdigest()
