import numpy as np
import pytest

from surfelslam.simulation.generators import subsystem_streams

# The named streams in the order of their child sequences, out of the five
# that the seed sequence once spawned.  The benchmark's windows draw their
# trajectories, IMU noise and features from these streams.
STREAMS = ("trajectory", "scene", "imu_noise", "feature_noise")


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 12345])
def test_each_named_stream_draws_its_child_of_the_seed(seed):
    # SeedSequence.spawn derives child k from k alone, so a stream keeps its
    # draws while its position holds; a name inserted before it or a
    # reordering moves them, and with them every simulated input.
    streams = subsystem_streams(seed)
    children = np.random.SeedSequence(seed).spawn(5)
    for k, name in enumerate(STREAMS):
        want = np.random.Generator(np.random.PCG64(children[k])).random(16)
        assert np.array_equal(streams[name].random(16), want), name
