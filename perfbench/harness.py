"""The window loop: optimize, deskew, extract, fuse, one window at a time,
through the package's public functions only.

Each call into a layer is wrapped in ``tracer.span(name)``; the span name is
``<module>.<function>`` so a layer's time is the sum over its spans.  With
the null tracer the wrapping costs one ``nullcontext`` per call.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass

import numpy as np

from surfelslam.errors import DegenerateGeometryError, NoProgressError
from surfelslam.fusion import GlobalMaps, LocalMaps, TemporalFusionConfig, temporal_fusion_step
from surfelslam.local_mapping import OptimizerConfig, OptState, optimize_window
from surfelslam.surfel_map import DenseExtractionConfig, extract_dense, voxelize_sparse
from surfelslam.trajectory import ControlGrid, Trajectory

# Typed optimizer failures the pipeline survives by keeping the
# dead-reckoned trajectory; any other exception aborts the run.
WINDOW_FAILURES = (DegenerateGeometryError, NoProgressError)


class NullTracer:
    _null = contextlib.nullcontext()

    def span(self, name, window=None):
        return self._null


@dataclass
class WindowResult:
    index: int
    cpu_s: float  # process CPU time of the window
    failed: str | None  # exception class name of a typed optimizer failure
    estimate: Trajectory  # window-local times
    report: object  # OptimizationReport, None when failed
    n_points: int
    local: LocalMaps
    map_size_before: int
    map_size_after: int
    fusion: object  # TemporalFusionResult


def run_pass(spec, episode, tracer=None, before_window=None):
    """Run every window of ``episode`` into a fresh global map.

    Returns the per-window results and the final global maps.  Only the
    calls between the two clock reads of a window are timed;
    ``before_window``, when given, is called untimed before each window.
    """
    tracer = tracer or NullTracer()
    opt_cfg = OptimizerConfig(window=spec.window)
    dense_cfg = DenseExtractionConfig(radius=spec.surfel_radius)
    fusion_cfg = TemporalFusionConfig(active_window=spec.active_window)
    global_maps = GlobalMaps()
    results = []
    for win in episode.windows:
        if before_window is not None:
            before_window()
        failed = None
        report = None
        size_before = len(global_maps.dense)
        start = time.process_time()
        with tracer.span("window", win.index):
            grid = ControlGrid.for_window(win.init.start, win.init.end, spec.knots)
            try:
                with tracer.span("local_mapping.optimize_window", win.index):
                    _, estimate, report = optimize_window(
                        win.priors, win.imu, win.init, OptState(grid), opt_cfg
                    )
            except WINDOW_FAILURES as exc:
                failed = type(exc).__name__
                estimate = win.init
            shifted = Trajectory(
                estimate.times + win.t0,
                estimate.rotations,
                estimate.translations,
                estimate.nominal_rate,
            )
            times = win.scan_times + win.t0
            with tracer.span("trajectory.sample_batch", win.index):
                rot, trans = shifted.sample_batch(times)
            world = np.einsum("nij,nj->ni", rot, win.scan_points) + trans
            with tracer.span("surfel_map.extract_dense", win.index):
                dense = extract_dense(world, times, cfg=dense_cfg)
            with tracer.span("surfel_map.voxelize_sparse", win.index):
                sparse = voxelize_sparse(world, times, spec.voxel_resolutions)
            local = LocalMaps(
                sparse, dense, sensor_origin=trans.mean(axis=0),
                timestamp=win.t0 + spec.window,
            )
            with tracer.span("fusion.temporal_fusion_step", win.index):
                fused = temporal_fusion_step(local, global_maps, fusion_cfg, step=win.index)
        cpu = time.process_time() - start
        results.append(
            WindowResult(
                win.index, cpu, failed, estimate, report, len(times), local,
                size_before, len(global_maps.dense), fused,
            )
        )
    return results, global_maps
