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
seed and the first ``--episodes`` episodes, one line per window prints two
digests: the trajectory digest hashes the estimated trajectory, every
iteration record and the stop reason, and the fusion digest the map sizes,
every ``FusionStepMetrics`` field and the trigger's arrays.  One line per
episode hashes every field of the final dense and sparse maps.  Two
checkouts give identical output exactly when their outputs are bit-identical,
so compare them with ``diff``; a change to the map path alone leaves every
trajectory digest as it was.

``--dump PATH`` also writes, to one ``.npz``, each window's estimated
trajectory, record count, stop reason, fusion counts and trigger
(``FUSION``), translation and rotation RMS errors against the window's truth
(m and rad), trajectory and fusion digests, ICP stop reason and ICP frozen
directions, and each episode's accuracy metrics (``metrics.accuracy``), map
digest and the centroids and scatters of its final dense map.
``--against PATH`` compares this run with such a dump and prints, per
workload, the largest translation difference (m), the largest
rotation-matrix entry difference, the largest relative difference of an
accuracy metric with that metric's name and its signed relative change, the
number of windows whose stop reason or record count differs, how many
windows differ in fusion counts or trigger, how many ICP calls the run made,
how many did not converge, how many froze a weak direction and how many
raised a trigger (and the dump's counts, of what it holds), how many
windows' ICP stop reasons differ and how many windows' ICP froze a different
number of directions, so that ICP changes compare call by call and not
only in totals, how many trajectory, fusion and map digests differ, of
those the dump holds, the largest dense centroid difference (m) and
scatter entry difference over the episodes whose dense maps have the
dump's size, and how many windows have a larger
translation error than in the dump, with the largest relative increase and
its window.
A change that moves the maps only by rounding changes their digests but no
trajectory digest, fusion count or trigger, and its centroid and scatter
differences are at rounding level.  Run the dump in one checkout and the
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
from surfelslam import lie  # noqa: E402
from surfelslam.fusion import ICP_CONVERGED  # noqa: E402


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

    def fields(self, label, batch):
        """Every field of a surfel ``batch``, in the order of its class's
        fields, which is that of the surfel records the digests were first
        taken over.  An empty field is hashed as an empty float array, the
        stack of no records."""
        for f in dataclasses.fields(batch):
            value = getattr(batch, f.name)
            self.put(f"{label}.{f.name}", value if len(value) else np.array([]))

    def hex(self):
        return self._h.hexdigest()[:24]


def trajectory_digest(result):
    """A window's estimate, iteration records and stop, or its failure."""
    d = Digest()
    d.put("failed", result.failed)
    for name in ("times", "rotations", "translations"):
        d.put(f"estimate.{name}", getattr(result.estimate, name))
    if result.report is not None:
        d.put("records", [dataclasses.astuple(r) for r in result.report.records])
        d.put("stop", (result.report.converged, result.report.reason,
                       result.report.stop_decrease))
    return d.hex()


def fusion_digest(result):
    """A window's map sizes, fusion metrics and trigger arrays."""
    d = Digest()
    d.put("map_size", (result.map_size_before, result.map_size_after))
    d.put("metrics", dataclasses.astuple(result.fusion.metrics))
    fusion = result.fusion
    trigger = fusion.icp if fusion.metrics.triggered else None
    if trigger is not None:
        d.put("trigger.rotation", trigger.rotation)
        d.put("trigger.translation", trigger.translation)
        for k, pairs in enumerate(trigger.pairs):
            d.put(f"trigger.pairs{k}", pairs)
    return d.hex()


def maps_digest(global_maps):
    d = Digest()
    d.fields("dense", global_maps.dense.batch)
    d.fields("sparse", global_maps.sparse.all())
    return d.hex()


ACCURACY = ("ate_m", "ate_rot_deg", "rpe_m", "map_rms_m", "map_growth")
# The fields of a window's ``FusionStepMetrics`` that count or decide.
FUSION = ("n_new", "n_fused", "n_culled", "n_active", "n_inactive", "triggered")
# The names a dump may lack: a dump without them compares none.
OPTIONAL = (".trajectory_digest", ".fusion_digest", ".maps", ".centroids", ".scatters",
            ".fusion", ".errors", ".icp", ".frozen")


def window_errors(estimate, truth):
    """Translation (m) and rotation (rad) RMS errors of a window's estimate
    against its truth, over the samples."""
    t_sq = np.sum((estimate.translations - truth.translations) ** 2, axis=1)
    rel = np.einsum("nji,njk->nik", truth.rotations, estimate.rotations)
    r_sq = np.sum(lie.so3_log_batch(rel) ** 2, axis=1)
    return np.sqrt([t_sq.mean(), r_sq.mean()])


def episode_arrays(key, episode, results, global_maps):
    """What a dump keeps of one episode's pass, by name under ``key``: per
    window its trajectory, record count (0 for a failed window), stop reason
    (the failure's class name for a failed window), fusion counts and
    trigger in ``FUSION`` order, errors (``window_errors``), trajectory and
    fusion digests, the ICP's stop reason (empty when the ICP did not run)
    and the most directions it froze (``IcpResult.frozen_dim``, 0 when it
    did not run), and the episode's accuracy metrics in ``ACCURACY`` order,
    maps digest and final dense centroids and scatters."""
    out = {}
    for win, r in zip(episode.windows, results):
        w = f"{key}.w{r.index}"
        out[f"{w}.rotations"] = r.estimate.rotations
        out[f"{w}.translations"] = r.estimate.translations
        out[f"{w}.records"] = np.array(0 if r.report is None else len(r.report.records))
        out[f"{w}.reason"] = np.array(r.failed if r.report is None else r.report.reason)
        out[f"{w}.fusion"] = np.array([getattr(r.fusion.metrics, f) for f in FUSION], dtype=np.int64)
        out[f"{w}.errors"] = window_errors(r.estimate, win.truth)
        icp = r.fusion.icp
        out[f"{w}.icp"] = np.array("" if icp is None else icp.report.reason)
        out[f"{w}.frozen"] = np.array(0 if icp is None else icp.frozen_dim)
        out[f"{w}.trajectory_digest"] = np.array(trajectory_digest(r))
        out[f"{w}.fusion_digest"] = np.array(fusion_digest(r))
    accuracy = metrics.accuracy([metrics.summarize(episode, results, global_maps)])
    out[f"{key}.accuracy"] = np.array([accuracy[m] for m in ACCURACY])
    out[f"{key}.maps"] = np.array(maps_digest(global_maps))
    out[f"{key}.centroids"] = global_maps.dense.batch.centroid
    out[f"{key}.scatters"] = global_maps.dense.batch.scatter
    return out


def compare(reference, current):
    """Per workload, the sizes of the differences between two sets of
    ``episode_arrays``, as printable lines.  A name missing from
    ``reference`` raises ``SystemExit``, unless it is a digest, a dense
    map's centroids or scatters, fusion counts, window errors, an ICP stop
    reason or its frozen directions (``OPTIONAL``): a dump that holds none
    compares 0 of them."""
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

        def icp_counts(arrays):
            """The ICP calls, those not converged, those that froze a
            direction, and the triggers, of the ICP stop reasons, frozen
            directions and fusion counts that ``arrays`` holds."""
            held = {s: [arrays[k] for k in keys if k.endswith(s) and k in arrays]
                    for s in (".icp", ".frozen", ".fusion")}
            ran = [str(r) for r in held[".icp"] if str(r)]
            failed = sum(r not in ICP_CONVERGED for r in ran)
            counts = [f"{len(ran)} ICP calls, {failed} not converged"] if held[".icp"] else []
            if held[".frozen"]:
                counts.append(f"{sum(int(f) > 0 for f in held['.frozen'])} froze a direction")
            if held[".fusion"]:
                counts.append(f"{sum(int(f[-1]) for f in held['.fusion'])} triggers")
            return counts

        icp = ", ".join(icp_counts(current))
        if icp_counts(reference):
            icp += f" (the dump: {', '.join(icp_counts(reference))})"
        windows = [k[: -len(".reason")] for k in keys if k.endswith(".reason")]
        # Relative change of each window's translation error, of the windows
        # whose error the dump holds.
        growth = {w: current[f"{w}.errors"][0] / reference[f"{w}.errors"][0] - 1.0
                  for w in windows if f"{w}.errors" in reference}
        larger = [w for w in growth if growth[w] > 0.0]
        errors = (f"{len(larger)} of {len(growth)} windows have a larger translation error "
                  "than the dump")
        if larger:
            worst_window = max(larger, key=growth.get)
            errors += f", the largest by {growth[worst_window]:+.3g} relative ({worst_window})"
        # The dense maps of the episodes whose map has the dump's size.
        sized = [k[: -len(".centroids")] for k in keys
                 if k.endswith(".centroids") and k in reference]
        equal = [e for e in sized
                 if current[f"{e}.centroids"].shape == reference[f"{e}.centroids"].shape]
        dense = f"dense maps of the dump's size in {len(equal)} of {len(sized)} episodes"
        if equal:
            moved = {f: max(float(np.abs(current[f"{e}.{f}"] - reference[f"{e}.{f}"]).max(initial=0.0))
                            for e in equal)
                     for f in ("centroids", "scatters")}
            dense += (f", largest centroid difference {moved['centroids']:.3g} m, "
                      f"scatter entry {moved['scatters']:.3g}")
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
            f"{differing('.fusion')} windows differ in fusion counts or trigger; {icp}; "
            f"{differing('.icp')} windows differ in ICP stop reason; "
            f"{differing('.frozen')} windows differ in ICP frozen directions; "
            f"{differing('.trajectory_digest')} trajectory digests, "
            f"{differing('.fusion_digest')} fusion digests and "
            f"{differing('.maps')} map digests differ; {dense}; {errors}"
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
                    w = f"{key}.w{r.index}"
                    print(f"{name} seed {seed} episode {e} window {r.index} "
                          f"trajectory {kept[f'{w}.trajectory_digest']} "
                          f"fusion {kept[f'{w}.fusion_digest']}")
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
