"""Digests of the pipeline's outputs, window by window and episode by
episode, for showing that two commits compute the same thing, and the size
of the differences where they do not.

    python3 tools/pipeline_digest.py --seeds 1 2 --episodes 2
    python3 tools/pipeline_digest.py --workloads loop --seeds 7 --episodes 1
    python3 tools/pipeline_digest.py --seeds 1 --episodes 1 --dump parent.npz
    python3 tools/pipeline_digest.py --seeds 1 --episodes 1 --against parent.npz

Run from the root of a source checkout: the package is imported from its
``src`` directory and the benchmark's ``run_pass``, ``generate`` and
``metrics`` from ``perfbench``, none of them changed.  For each workload,
seed and the first ``--episodes`` episodes, one line per window hashes the
estimated trajectory, every iteration record, the stop reason, every
``FusionStepMetrics`` field and the trigger's arrays, and one line per
episode hashes every field of the final dense and sparse maps.  Two
checkouts give identical output exactly when their outputs are bit-identical,
so compare them with ``diff``.

``--dump PATH`` also writes, to one ``.npz``, each window's estimated
trajectory, record count, stop reason, fusion counts and trigger
(``FUSION``) and digest, and each episode's accuracy metrics
(``metrics.accuracy``) and map digest.  ``--against PATH`` compares this run
with such a dump and prints, per workload, the largest translation
difference (m), the largest rotation-matrix entry difference, the largest
relative difference of an accuracy metric with that metric's name and its
signed relative change, the number of windows whose stop reason or record
count differs, and how many windows differ in fusion counts or trigger and
how many window digests and map digests differ, of those the dump holds.
A change that moves the maps only by rounding changes their digests but no
fusion count or trigger.  Run the dump in one checkout and the
comparison in the other, with the same workloads, seeds and episodes.

BLAS runs one thread, as in the benchmark, so the rounding does not depend
on the machine's core count.
"""

import os
import sys

if __name__ == "__main__":
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
import metrics  # noqa: E402
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


ACCURACY = ("ate_m", "ate_rot_deg", "rpe_m", "map_rms_m", "map_growth")
# The fields of a window's ``FusionStepMetrics`` that count or decide.
FUSION = ("n_new", "n_fused", "n_culled", "n_active", "n_inactive", "triggered")
# The names a dump may lack: a dump without them compares none.
OPTIONAL = (".digest", ".maps", ".fusion")


def episode_arrays(key, episode, results, global_maps):
    """What a dump keeps of one episode's pass, by name under ``key``: per
    window its trajectory, record count (0 for a failed window), stop reason
    (the failure's class name for a failed window), fusion counts and
    trigger in ``FUSION`` order and digest, and the episode's accuracy
    metrics in ``ACCURACY`` order and maps digest."""
    out = {}
    for r in results:
        w = f"{key}.w{r.index}"
        out[f"{w}.rotations"] = r.estimate.rotations
        out[f"{w}.translations"] = r.estimate.translations
        out[f"{w}.records"] = np.array(0 if r.report is None else len(r.report.records))
        out[f"{w}.reason"] = np.array(r.failed if r.report is None else r.report.reason)
        out[f"{w}.fusion"] = np.array([getattr(r.fusion.metrics, f) for f in FUSION], dtype=np.int64)
        out[f"{w}.digest"] = np.array(window_digest(r))
    accuracy = metrics.accuracy([metrics.summarize(episode, results, global_maps)])
    out[f"{key}.accuracy"] = np.array([accuracy[m] for m in ACCURACY])
    out[f"{key}.maps"] = np.array(maps_digest(global_maps))
    return out


def compare(reference, current):
    """Per workload, the sizes of the differences between two sets of
    ``episode_arrays``, as printable lines.  A name missing from
    ``reference`` raises ``SystemExit``, unless it is a digest or fusion
    counts (``OPTIONAL``): a dump that holds none compares 0 of them."""
    missing = sorted(k for k in set(current) - set(reference) if not k.endswith(OPTIONAL))
    if missing:
        raise SystemExit(f"error: the dump has no {missing[0]} ({len(missing)} missing)")
    lines = []
    for name in dict.fromkeys(k.split(".")[0] for k in current):
        keys = [k for k in current if k.startswith(f"{name}.")]

        def largest(suffix):
            return max(float(np.abs(current[k] - reference[k]).max())
                       for k in keys if k.endswith(suffix))

        # Signed relative changes of the accuracy metrics, one row per episode.
        change = np.array([(current[k] - reference[k]) / np.abs(reference[k])
                           for k in keys if k.endswith(".accuracy")])
        worst = np.unravel_index(np.argmax(np.abs(change)), change.shape)

        def differing(suffix):
            held = [k for k in keys if k.endswith(suffix) and k in reference]
            return f"{sum(bool(np.any(reference[k] != current[k])) for k in held)} of {len(held)}"

        windows = [k[: -len(".reason")] for k in keys if k.endswith(".reason")]
        changed = sum(
            any(reference[f"{w}.{f}"] != current[f"{w}.{f}"] for f in ("reason", "records"))
            for w in windows
        )
        lines.append(
            f"{name}: {len(windows)} windows, largest translation difference "
            f"{largest('.translations'):.3g} m, rotation entry {largest('.rotations'):.3g}, "
            f"accuracy metric {abs(change[worst]):.3g} relative "
            f"({ACCURACY[worst[1]]} {change[worst]:+.3g}); "
            f"{changed} windows differ in stop reason or record count; "
            f"{differing('.fusion')} windows differ in fusion counts or trigger; "
            f"{differing('.digest')} window digests and {differing('.maps')} map digests differ"
        )
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=list(workloads.SPECS))
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--episodes", type=int, required=True,
                        help="digest the first this many episodes of each seed")
    parser.add_argument("--dump", type=Path, help="write the arrays to this .npz")
    parser.add_argument("--against", type=Path, help="compare with a dump at this path")
    args = parser.parse_args(argv)
    arrays = {}
    for name in args.workloads:
        for seed in args.seeds:
            inputs = workloads.generate(name, seed)
            for e, episode in enumerate(inputs.episodes[: args.episodes]):
                results, global_maps = harness.run_pass(inputs.spec, episode)
                key = f"{name}.s{seed}.e{e}"
                kept = episode_arrays(key, episode, results, global_maps)
                for r in results:
                    print(f"{name} seed {seed} episode {e} window {r.index} "
                          f"{kept[f'{key}.w{r.index}.digest']}")
                print(f"{name} seed {seed} episode {e} maps "
                      f"{len(global_maps.dense)} {len(global_maps.sparse)} {kept[f'{key}.maps']}")
                arrays.update(kept)
    if args.dump:
        np.savez(args.dump, **arrays)
    if args.against:
        with np.load(args.against) as reference:
            for line in compare(reference, arrays):
                print(line)


if __name__ == "__main__":
    main()
