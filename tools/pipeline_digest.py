"""Digests of the pipeline's outputs, window by window and episode by
episode, for showing that two commits compute the same thing.

    python3 tools/pipeline_digest.py --seeds 1 2 --episodes 2
    python3 tools/pipeline_digest.py --workloads loop --seeds 7 --episodes 1

Run from the root of a source checkout: the package is imported from its
``src`` directory and the benchmark's ``run_pass`` and ``generate`` from
``perfbench``, neither of them changed.  For each workload, seed and the
first ``--episodes`` episodes, one line per window hashes the estimated
trajectory, every iteration record, the stop reason, every
``FusionStepMetrics`` field and the trigger's arrays, and one line per
episode hashes every field of the final dense and sparse maps.  Two
checkouts give identical output exactly when their outputs are bit-identical,
so compare them with ``diff``.  BLAS runs one thread, as in the benchmark,
so the rounding does not depend on the machine's core count.
"""

import os
import sys

# One BLAS thread, pinned before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import harness  # noqa: E402
import workloads  # noqa: E402
from surfelslam.surfel_map import DenseSurfel, SparseSurfel  # noqa: E402


class Digest:
    """SHA-256 over a sequence of labelled values: arrays by dtype, shape and
    bytes, anything else by ``repr``."""

    def __init__(self):
        self._h = hashlib.sha256()

    def put(self, label, value):
        self._h.update(label.encode())
        if isinstance(value, np.ndarray):
            value = np.ascontiguousarray(value)
            self._h.update(f"{value.dtype}{value.shape}".encode())
            self._h.update(value.tobytes())
        else:
            self._h.update(repr(value).encode())

    def fields(self, label, records, record_type):
        """Every field of ``records``, stacked field by field."""
        for f in dataclasses.fields(record_type):
            self.put(f"{label}.{f.name}", np.array([getattr(r, f.name) for r in records]))

    def hex(self):
        return self._h.hexdigest()[:24]


def window_digest(result):
    d = Digest()
    d.put("failed", result.failed)
    for name in ("times", "rotations", "translations"):
        d.put(f"estimate.{name}", getattr(result.estimate, name))
    if result.report is not None:
        d.put("records", [dataclasses.astuple(r) for r in result.report.records])
        d.put("stop", (result.report.converged, result.report.reason,
                       result.report.stop_decrease))
    d.put("map_size", (result.map_size_before, result.map_size_after))
    d.put("metrics", dataclasses.astuple(result.fusion.metrics))
    trigger = result.fusion.trigger
    if trigger is not None:
        d.put("trigger.rotation", trigger.rotation)
        d.put("trigger.translation", trigger.translation)
        for k, pairs in enumerate(trigger.inlier_pairs):
            d.put(f"trigger.pairs{k}", pairs)
    return d.hex()


def maps_digest(global_maps):
    d = Digest()
    d.fields("dense", list(global_maps.dense.surfels.values()), DenseSurfel)
    d.fields("sparse", list(global_maps.sparse.all()), SparseSurfel)
    return d.hex()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=list(workloads.SPECS))
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--episodes", type=int, required=True,
                        help="digest the first this many episodes of each seed")
    args = parser.parse_args(argv)
    for name in args.workloads:
        for seed in args.seeds:
            inputs = workloads.generate(name, seed)
            for e, episode in enumerate(inputs.episodes[: args.episodes]):
                results, global_maps = harness.run_pass(inputs.spec, episode)
                for r in results:
                    print(f"{name} seed {seed} episode {e} window {r.index} {window_digest(r)}")
                print(f"{name} seed {seed} episode {e} maps "
                      f"{len(global_maps.dense)} {len(global_maps.sparse)} "
                      f"{maps_digest(global_maps)}")


if __name__ == "__main__":
    main()
