"""One benchmark run: set-up, measured passes, checks and the metrics.

``run.py`` pins the BLAS threads and puts the checkout's ``src`` on the
import path before this module is imported.
"""

import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import checks
import metrics
import reference
import workloads
from harness import run_pass
from tracing import LOG_EVENTS, LogCounter, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3


def git_commit():
    """HEAD of the checkout's git repository, read from ``.git`` directly;
    "unknown" outside a repository (``source_sha256`` still identifies the
    code)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.is_file():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def environment(args):
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        info = deps.get("blas", {})
        blas = f"{info.get('name', '?')} {info.get('version', '?')}"
    except (TypeError, AttributeError):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def generate_timed(name, seed):
    """Inputs, their generation's CPU time, their fingerprint, and a
    reference sample taken just before."""
    sample = reference.sample()
    start = time.process_time()
    inputs = workloads.generate(name, seed)
    return inputs, time.process_time() - start, workloads.fingerprint(inputs), sample


def run_checks(spec, episode, results, global_maps, rng):
    last = results[-1]
    win = episode.windows[last.index]
    rot, trans = last.estimate.sample_batch(win.scan_times)
    world = np.einsum("nij,nj->ni", rot, win.scan_points) + trans
    return (
        checks.check_windows(episode, results)
        + checks.check_bookkeeping(results)
        + checks.check_dense_map(global_maps.dense)
        + checks.check_oracles(
            global_maps.dense, last.local.dense, world, win.scan_times + win.t0,
            spec.voxel_resolutions[0], rng,
        )
    )


class Measurement:
    """Passes of one run.  The first pass of each episode is checked and
    summarized as soon as it ends (outside any timed region), and its maps
    are dropped, so memory does not grow with the number of passes.  When
    ``keep_first`` is set, episode 0's results and maps are kept for the
    per-layer micro-benchmarks."""

    def __init__(self, inputs, seed, keep_first):
        self.inputs = inputs
        self.rng = np.random.default_rng([seed, 7])
        self.keep_first = keep_first
        self.passes = []
        self.summaries = {}
        self.failures = []
        self.first = None

    def run(self, seconds, traced):
        """Whole passes, cycling through the episodes, until ``seconds`` of
        passes have been measured; an untraced run also runs every episode
        at least once.  When ``traced``, each episode runs twice in a row,
        untraced then traced, so the tracing overhead compares equal work
        measured close together, and the run ends after a whole pair."""
        spec = self.inputs.spec
        k = len(self.inputs.episodes)
        min_passes = 2 if traced else k
        measured = 0.0
        while (len(self.passes) < min_passes or measured < seconds
               or (traced and len(self.passes) % 2)):
            i = len(self.passes)
            index = (i // 2 if traced else i) % k
            episode = self.inputs.episodes[index]
            tracer = Tracer() if traced and i % 2 == 1 else None
            icp, logs, samples = [], LogCounter(), []

            def sample_reference():
                samples.append(reference.sample())

            start = time.perf_counter()
            if tracer is None:
                results, global_maps = run_pass(spec, episode, None, sample_reference)
            else:
                with logs.attached(), tracer.icp_spans(icp):
                    results, global_maps = run_pass(spec, episode, tracer, sample_reference)
            wall = time.perf_counter() - start
            measured += wall
            self.passes.append({
                "episode": index,
                "wall": wall,
                "windows": [r.cpu_s for r in results],
                "reference": samples,  # one per window, taken just before it
                "scaled": [reference.scaled(r.cpu_s, x) for r, x in zip(results, samples)],
                "tracer": tracer,
                "icp": icp,
                "logs": logs.counts,
                "map_size": len(global_maps.dense),
                "failed": sum(r.failed is not None for r in results),
            })
            if index not in self.summaries:
                self.failures += run_checks(spec, episode, results, global_maps, self.rng)
                self.summaries[index] = metrics.summarize(episode, results, global_maps)
                if index == 0 and self.keep_first:
                    self.first = (results, global_maps)
            # Free this pass's maps before the next pass builds its own.
            del results, global_maps
        sizes = {(p["episode"], p["map_size"]) for p in self.passes}
        if len(sizes) != len({p["episode"] for p in self.passes}):
            self.failures.append("passes over the same episode built maps of different sizes")


def end_to_end(spec, m, setup_s):
    # Every window of every pass, in CPU seconds so that time spent waiting
    # for a core that other tenants of a shared host hold is left out, and
    # scaled by the host's speed at the time (see reference.py).
    windows = [t for p in m.passes for t in p["scaled"]]
    acc = metrics.accuracy(list(m.summaries.values()))
    return {
        "realtime_factor": (len(windows) * spec.window / sum(windows), "s/s"),
        "window_s_p50": (statistics.median(windows), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (metrics.peak_rss_mb(), "MB"),
        "ate_m": (acc["ate_m"], "m"),
        "ate_rot_deg": (acc["ate_rot_deg"], "deg"),
        "rpe_m": (acc["rpe_m"], "m"),
        "map_rms_m": (acc["map_rms_m"], "m"),
        "map_growth": (acc["map_growth"], "ratio"),
    }


STAGES = ("local_mapping.optimize_window", "surfel_map.extract_dense",
          "surfel_map.voxelize_sparse", "fusion.temporal_fusion_step",
          "fusion.icp_point_to_plane")


def per_layer(spec, m, gen_times, seed):
    traced = [p for p in m.passes if p["tracer"] is not None]
    n_traced = len(traced)
    self_s = {}
    window_s = 0.0
    durations = {name: [] for name in STAGES}
    for p in traced:
        for name, t in p["tracer"].self_times().items():
            self_s[name] = self_s.get(name, 0.0) + t
        window_s += sum(p["tracer"].durations("window"))
        for name in STAGES:
            durations[name].extend(p["tracer"].durations(name))
    measured_s = sum(sum(p["windows"]) for p in traced)

    def share(layer):
        return sum(t for n, t in self_s.items() if n.startswith(layer + ".")) / window_s

    def median_s(name):
        return statistics.median(durations[name]) if durations[name] else 0.0

    # Counts from the first pass of every episode; every pass repeats them.
    summaries = list(m.summaries.values())

    def total(key):
        return sum(s[key] for s in summaries)

    def traced_total(key):
        return sum(m.summaries[p["episode"]][key] for p in traced)

    n_episodes = len(summaries)
    final_costs = [c for s in summaries for c in s["final_costs"]]
    icp = [r for p in traced for r in p["icp"]]
    rng = np.random.default_rng([seed, 11])
    first_results, first_maps = m.first

    out = {
        "simulation.gen_s": (statistics.median(gen_times), "s"),
        **{k: (v, "us") for k, v in metrics.lie_micro(first_results, rng).items()},
        "trajectory.sample_batch_us_1e4": (
            metrics.sample_batch_micro(first_results[-1].estimate, rng), "us"),
        "trajectory.share": (share("trajectory"), "fraction"),
        "local_mapping.optimize_s": (median_s("local_mapping.optimize_window"), "s"),
        "local_mapping.share": (share("local_mapping"), "fraction"),
        "local_mapping.iterations": (total("iterations") / max(total("reports"), 1), "count"),
        "local_mapping.s_per_iteration": (
            sum(durations["local_mapping.optimize_window"])
            / max(traced_total("iterations"), 1), "s"),
        "local_mapping.converged_frac": (total("converged") / total("windows"), "fraction"),
        "local_mapping.final_cost": (
            statistics.median(final_costs) if final_costs else 0.0, "1"),
        "local_mapping.failed_frac": (total("failed") / total("windows"), "fraction"),
        "surfel_map.extract_dense_s": (median_s("surfel_map.extract_dense"), "s"),
        "surfel_map.extract_dense_us_per_point": (
            1e6 * sum(durations["surfel_map.extract_dense"]) / traced_total("points"), "us"),
        "surfel_map.dense_yield": (
            1000.0 * total("local_surfels") / total("points"), "per_1k_points"),
        "surfel_map.voxelize_sparse_s": (median_s("surfel_map.voxelize_sparse"), "s"),
        "surfel_map.share": (share("surfel_map"), "fraction"),
        "fusion.step_s": (median_s("fusion.temporal_fusion_step"), "s"),
        "fusion.share": (share("fusion"), "fraction"),
        "fusion.us_per_local_surfel": (
            1e6 * sum(durations["fusion.temporal_fusion_step"])
            / traced_total("local_surfels"), "us"),
        "fusion.fused_frac": (
            total("fused") / max(total("fused") + total("new"), 1), "fraction"),
        "fusion.first_window_fused": (total("first_window_fused") / n_episodes, "count"),
        "fusion.culled": (total("culled") / n_episodes, "count"),
        "fusion.inactive_surfels": (max(s["inactive"] for s in summaries), "count"),
        "fusion.icp_runs": (len(icp) / n_traced, "count"),
        "fusion.icp_s": (sum(durations["fusion.icp_point_to_plane"]) / n_traced, "s"),
        "fusion.icp_inlier_frac": (
            statistics.fmean(r.inlier_fraction for r in icp) if icp else 0.0, "fraction"),
        "fusion.icp_shift_m": (
            statistics.fmean(float(np.linalg.norm(r.translation)) for r in icp)
            if icp else 0.0, "m"),
        "fusion.false_triggers": (total("triggers") / n_episodes, "count"),
    }
    for event in LOG_EVENTS:
        out[event] = (sum(p["logs"].get(event, 0) for p in traced) / n_traced, "count")
    query_us, candidates = metrics.query_micro(
        first_maps.dense, 2.0 * spec.surfel_radius, rng)
    match_us, fuse_us = metrics.fusion_micro(first_maps.dense, first_results[-1].local, rng)
    out["surfel_map.query_radius_us"] = (query_us, "us")
    out["surfel_map.query_candidates"] = (candidates, "count")
    out["fusion.match_surfel_us"] = (match_us, "us")
    out["fusion.fuse_surfel_us"] = (fuse_us, "us")
    out["harness.remainder_share"] = (self_s.get("window", 0.0) / window_s, "fraction")
    out["harness.span_coverage"] = (window_s / measured_s, "fraction")
    pairs = zip(m.passes[::2], m.passes[1::2])
    out["harness.tracing_overhead"] = (
        statistics.median(sum(t["scaled"]) / sum(u["scaled"]) for u, t in pairs) - 1.0,
        "fraction")
    return out


def main(args, import_s):
    """Run one benchmark as ``args`` says; ``import_s`` is the CPU time
    the process spent before this module was ready."""
    if args.workload not in workloads.SPECS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.SPECS)}")
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")

    inputs, first_gen_s, first_print, first_sample = generate_timed(args.workload, args.seed)
    m = Measurement(inputs, args.seed, keep_first=bool(args.trace))
    m.run(args.seconds, traced=bool(args.trace))
    # Set-up runs SETUP_REPEATS times: once before the passes and again
    # after them, a whole measurement later, so one burst of host load cannot
    # slow every repeat and move the median.
    repeats = [generate_timed(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)]
    gen_times = [first_gen_s] + [r[1] for r in repeats]
    gen_samples = [first_sample] + [r[3] for r in repeats]
    # Each part of set-up is scaled by the reference sample taken just
    # before it; the imports, which come before any sample, by the first.
    setup_s = reference.scaled(import_s, first_sample) + statistics.median(
        reference.scaled(t, s) for t, s in zip(gen_times, gen_samples))
    failures = []
    if any(r[2] != first_print for r in repeats):
        failures.append("input generation is not deterministic")
    failures += m.failures
    if args.trace:
        values = per_layer(inputs.spec, m, gen_times, args.seed)
    else:
        values = end_to_end(inputs.spec, m, setup_s)
    attempted = sum(len(p["windows"]) for p in m.passes)
    failed = sum(p["failed"] for p in m.passes)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()},
    }
    record = {
        **environment(args),
        "passes": len(m.passes),
        "traced_passes": sum(p["tracer"] is not None for p in m.passes),
        "episodes": len(inputs.episodes),
        "windows_per_pass": inputs.spec.n_windows,
        "pass_wall_s": [p["wall"] for p in m.passes],
        "pass_window_cpu_s": [sum(p["windows"]) for p in m.passes],
        "window_reference_s": [p["reference"] for p in m.passes],
        "gen_reference_s": gen_samples,
        "import_s": import_s,
        "gen_s": gen_times,
        "check_failures": failures,
        "result": result,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w", encoding="utf-8") as f:
            for i, p in enumerate(q for q in m.passes if q["tracer"] is not None):
                p["tracer"].write_jsonl(f, pass_index=i)
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({k: v for k, v in record.items() if k != "result"}))
    print(json.dumps(result))
