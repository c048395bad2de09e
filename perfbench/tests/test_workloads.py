"""The benchmark's inputs are a pure function of (workload, seed).

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.SPECS))
def test_same_seed_gives_identical_inputs(name):
    assert workloads.fingerprint(workloads.generate(name, 3)) == workloads.fingerprint(
        workloads.generate(name, 3)
    )


@pytest.mark.parametrize("name", sorted(workloads.SPECS))
def test_other_seed_gives_other_inputs(name):
    assert workloads.fingerprint(workloads.generate(name, 3)) != workloads.fingerprint(
        workloads.generate(name, 4)
    )


def test_workloads_differ_for_one_seed():
    prints = {workloads.fingerprint(workloads.generate(name, 3)) for name in workloads.SPECS}
    assert len(prints) == len(workloads.SPECS)


@pytest.mark.parametrize("name", sorted(workloads.SPECS))
def test_sizes_do_not_depend_on_seed(name):
    spec = workloads.SPECS[name]
    for seed in (0, 1):
        inputs = workloads.generate(name, seed)
        assert len(inputs.episodes) == spec.episodes
        for episode in inputs.episodes:
            assert len(episode.windows) == spec.n_windows
            for win in episode.windows:
                assert len(win.priors) == spec.n_priors
                assert win.scan_points.shape == (spec.n_scan, 3)
                assert win.scan_times.shape == (spec.n_scan,)


def test_scan_points_lie_on_the_planes_within_reach():
    inputs = workloads.generate("loop", 0)
    episode = inputs.episodes[0]
    win = episode.windows[0]
    rot, trans = win.truth.sample_batch(win.scan_times)
    world = np.einsum("nij,nj->ni", rot, win.scan_points) + trans
    slack = 10 * workloads.SCAN_NOISE
    assert episode.planes.distance(world).max() < slack
    assert np.linalg.norm(win.scan_points, axis=1).max() <= inputs.spec.scan_reach + slack


def test_episodes_of_one_run_differ():
    inputs = workloads.generate("revisit", 0)
    first = [ep.windows[0].scan_points for ep in inputs.episodes]
    assert all(not np.array_equal(first[0], other) for other in first[1:])
