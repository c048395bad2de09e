from types import SimpleNamespace

import numpy as np
import pytest

from surfelslam import lie, surfel_map
from surfelslam.trajectory import ControlGrid


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


def spd_stack(rng, n, cond, largest):
    """``n`` random symmetric positive definite 3×3 matrices, each with
    eigenvalues ``largest``, ``largest / cond`` and one log-uniform between
    them, in a random basis."""
    basis = np.linalg.qr(rng.normal(size=(n, 3, 3)))[0]
    smallest = largest / cond
    middle = np.exp(rng.uniform(np.log(smallest), np.log(largest), n))
    w = np.stack([np.full(n, smallest), middle, np.full(n, largest)], axis=1)
    return np.einsum("nij,nj,nkj->nik", basis, w, basis)


def dense_surfel(centroid, normal, centroid_cov, scatter, dof, obs_count, timestamp,
                 radius=surfel_map.DEFAULT_SURFEL_RADIUS):
    """One dense surfel as a batch's row view holds it: a namespace of every
    field."""
    return SimpleNamespace(centroid=centroid, normal=normal, centroid_cov=centroid_cov,
                           scatter=scatter, dof=dof, obs_count=obs_count,
                           timestamp=timestamp, radius=radius)


def replaced(surfel, **changes):
    """A copy of the single surfel ``surfel`` with ``changes`` to its
    fields."""
    return SimpleNamespace(**{**vars(surfel), **changes})


def knot_grid(start, stop, step):
    """Knots covering [start, stop] at the given spacing."""
    return ControlGrid(start + step * np.arange(int(round((stop - start) / step)) + 1))


def count_decompositions(monkeypatch, *modules):
    """Record the number of matrices of every call of the closed-form
    kernels ``eigh3`` and ``eigvalsh3`` (as ``surfel_map`` and ``modules``
    call them), and of LAPACK's ``eigh`` and ``eigvalsh``: the kernels'
    fallback rows and the clamps' rebuilds."""
    calls = []

    def count(owner, name):
        original = getattr(owner, name)

        def counted(m, *args, **kwargs):
            calls.append((name, len(np.reshape(m, (-1, 3, 3)))))
            return original(m, *args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for name in ("eigh", "eigvalsh"):
        count(np.linalg, name)
    for module in (surfel_map,) + modules:
        for name in ("eigh3", "eigvalsh3"):
            if hasattr(module, name):
                count(module, name)
    return calls
