"""Deterministic generators and brute-force oracles for the synthetic studies."""

from .generators import SimConfig, gen_surfel_scene, gen_trajectory_and_imu

__all__ = [
    "SimConfig",
    "gen_trajectory_and_imu",
    "gen_surfel_scene",
]
