import numpy as np
import pytest

from surfelslam import lie


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_rotation(rng, max_angle=np.pi - 0.1):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return lie.so3_exp_batch((axis * rng.uniform(0.0, max_angle))[None])[0]


def random_poses(rng, n, max_angle=np.pi - 0.1, t_scale=1.0):
    """Rotation (n, 3, 3) and translation (n, 3) stacks."""
    rot = np.stack([random_rotation(rng, max_angle) for _ in range(n)])
    return rot, rng.normal(scale=t_scale, size=(n, 3))


def random_spd(rng, dim=3, scale=1.0):
    a = rng.normal(size=(dim, dim))
    return scale * (a @ a.T + 0.1 * np.eye(dim))
