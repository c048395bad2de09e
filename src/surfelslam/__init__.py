"""Map-centric continuous-time LiDAR SLAM on synthetic data.

The package is organized around the pipeline stages: ``lie`` and
``trajectory`` provide the pose algebra and the spline-corrected
continuous-time trajectory, ``local_mapping`` solves the windowed
trajectory optimization, ``surfel_map`` and ``fusion`` maintain the
probabilistic surfel maps and raise loop-closure triggers, and
``simulation`` generates the deterministic synthetic scenarios.
"""

__version__ = "0.1.0"
