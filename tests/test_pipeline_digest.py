import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "pipeline_digest.py"


@pytest.fixture(scope="module")
def digest():
    spec = importlib.util.spec_from_file_location("pipeline_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tiny_args(digest, monkeypatch):
    """The arguments that digest one episode of two short windows of the
    map-bound workload, registered as the workload ``tiny``."""
    tiny = dataclasses.replace(
        digest.workloads.SPECS["revisit"], episodes=1, n_windows=2, n_priors=100, n_scan=1500
    )
    monkeypatch.setitem(digest.workloads.SPECS, "tiny", tiny)
    return ["--workloads", "tiny", "--seeds", "1", "--episodes", "1"]


def test_a_dump_compared_with_itself_reports_no_difference(digest, tmp_path, monkeypatch, capsys):
    args = tiny_args(digest, monkeypatch)
    dump = tmp_path / "tiny.npz"
    digest.main(args + ["--dump", str(dump)])
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3 and all(line.startswith("tiny seed 1 episode 0") for line in printed)
    assert digest.main(args + ["--against", str(dump)]) == 0
    *again, summary = capsys.readouterr().out.splitlines()
    assert again == printed
    assert summary == (
        "tiny: 2 windows, largest translation difference 0 m, rotation entry 0, "
        "accuracy metric 0 relative (ate_m +0); 0 windows differ in stop reason or record count; "
        "0 of 2 windows differ in fusion counts or trigger; "
        "0 ICP calls, 0 not converged, 0 froze a direction, 0 triggers "
        "(the dump: 0 ICP calls, 0 not converged, 0 froze a direction, 0 triggers); "
        "0 of 2 windows differ in ICP stop reason; "
        "0 of 2 windows differ in ICP frozen directions; "
        "0 of 2 trajectory digests, 0 of 2 fusion digests and 0 of 1 map digests differ; "
        "dense maps of the dump's size in 1 of 1 episodes, largest centroid difference 0 m, "
        "scatter entry 0; "
        "0 of 2 windows have a larger translation error than the dump"
    )
    # The dump holds the printed digests, each window's fusion counts, its
    # translation and rotation errors against the truth and its ICP's stop
    # reason and frozen directions, empty and 0 as nothing is inactive for an
    # ICP to run against, and the final dense map's centroids and scatters.
    with np.load(dump) as kept:
        for w in ("w0", "w1"):
            errors = kept[f"tiny.s1.e0.{w}.errors"]
            assert errors.shape == (2,) and np.all((errors > 0.0) & (errors < 0.01))
            assert kept[f"tiny.s1.e0.{w}.icp"] == "" and kept[f"tiny.s1.e0.{w}.frozen"] == 0
        assert printed[0].endswith(f" trajectory {kept['tiny.s1.e0.w0.trajectory_digest']} "
                                   f"fusion {kept['tiny.s1.e0.w0.fusion_digest']}")
        assert printed[2].endswith(f" {kept['tiny.s1.e0.maps']}")
        n_dense = int(printed[2].split()[-3])
        assert kept["tiny.s1.e0.centroids"].shape == (n_dense, 3)
        assert kept["tiny.s1.e0.scatters"].shape == (n_dense, 3, 3)
        n_new, n_fused, n_culled, n_active, n_inactive, triggered = kept["tiny.s1.e0.w0.fusion"]
        assert n_new > 0 and n_fused == n_culled == n_inactive == triggered == 0
        assert n_active == n_new


def test_compare_sizes_each_difference(digest):
    # Arrays of two windows and an episode, one window moved by 1e-6 m and
    # stopped for another reason, its translation error 25% larger, the map
    # error 1% smaller and the map growth 0.5% larger, the other window's
    # fusion counts and fusion digest changed and its translation error 10%
    # smaller, the moved window's trajectory digest, the maps digest and the
    # dense map moved by 2e-15 m in a centroid and 2^-52 in a scatter entry,
    # with no other difference.  The largest change is named with its sign,
    # as is the largest error increase.  The ICP ran in the moved window
    # only: in the dump it converged and triggered, in this run it did
    # neither, so that window's fusion counts, fusion digest and ICP stop
    # reason differ as well; there it froze a direction in the dump and
    # none in this run.
    reference = {
        "w.s1.e0.w0.rotations": np.eye(3)[None], "w.s1.e0.w0.translations": np.zeros((1, 3)),
        "w.s1.e0.w0.records": np.array(3), "w.s1.e0.w0.reason": np.array("predicted_decrease"),
        "w.s1.e0.w0.fusion": np.array([5, 0, 0, 5, 0, 0]),
        "w.s1.e0.w0.trajectory_digest": np.array("t0"), "w.s1.e0.w0.fusion_digest": np.array("f0"),
        "w.s1.e0.w1.rotations": np.eye(3)[None], "w.s1.e0.w1.translations": np.ones((1, 3)),
        "w.s1.e0.w1.records": np.array(3), "w.s1.e0.w1.reason": np.array("predicted_decrease"),
        "w.s1.e0.w1.fusion": np.array([1, 4, 0, 6, 0, 1]),
        "w.s1.e0.w1.trajectory_digest": np.array("t1"), "w.s1.e0.w1.fusion_digest": np.array("f1"),
        "w.s1.e0.accuracy": np.ones(5), "w.s1.e0.maps": np.array("m0"),
        "w.s1.e0.centroids": np.zeros((2, 3)), "w.s1.e0.scatters": np.ones((2, 3, 3)),
        "w.s1.e0.w0.errors": np.array([2e-3, 1e-3]), "w.s1.e0.w1.errors": np.array([4e-3, 1e-3]),
        "w.s1.e0.w0.icp": np.array(""), "w.s1.e0.w1.icp": np.array("same_pairs"),
        "w.s1.e0.w0.frozen": np.array(0), "w.s1.e0.w1.frozen": np.array(1),
    }
    current = dict(reference)
    current["w.s1.e0.w1.translations"] = np.ones((1, 3)) + [0.0, 1e-6, 0.0]
    current["w.s1.e0.w1.reason"] = np.array("cost_decrease")
    current["w.s1.e0.accuracy"] = np.array([1.0, 1.0, 1.0, 0.99, 1.005])
    current["w.s1.e0.w0.fusion"] = np.array([4, 1, 0, 5, 0, 0])
    current["w.s1.e0.w0.fusion_digest"] = np.array("g0")
    current["w.s1.e0.w1.trajectory_digest"] = np.array("u1")
    current["w.s1.e0.w1.fusion_digest"] = np.array("g1")
    current["w.s1.e0.maps"] = np.array("m1")
    current["w.s1.e0.centroids"] = np.array([[0.0, 2e-15, 0.0], [0.0, 0.0, -1e-15]])
    current["w.s1.e0.scatters"] = np.ones((2, 3, 3))
    current["w.s1.e0.scatters"][1, 2, 0] += 2.0**-52
    current["w.s1.e0.w0.errors"] = np.array([1.8e-3, 1e-3])
    current["w.s1.e0.w1.errors"] = np.array([5e-3, 1e-3])
    current["w.s1.e0.w1.icp"] = np.array("max_rounds")
    current["w.s1.e0.w1.fusion"] = np.array([1, 4, 0, 6, 0, 0])
    current["w.s1.e0.w1.frozen"] = np.array(0)
    assert digest.compare(reference, current) == [
        "w: 2 windows, largest translation difference 1e-06 m, rotation entry 0, "
        "accuracy metric 0.01 relative (map_rms_m -0.01); "
        "1 windows differ in stop reason or record count; "
        "2 of 2 windows differ in fusion counts or trigger; "
        "1 ICP calls, 1 not converged, 0 froze a direction, 0 triggers "
        "(the dump: 1 ICP calls, 0 not converged, 1 froze a direction, 1 triggers); "
        "1 of 2 windows differ in ICP stop reason; "
        "1 of 2 windows differ in ICP frozen directions; "
        "1 of 2 trajectory digests, 2 of 2 fusion digests and 1 of 1 map digests differ; "
        "dense maps of the dump's size in 1 of 1 episodes, largest centroid difference 2e-15 m, "
        "scatter entry 2.22e-16; "
        "1 of 2 windows have a larger translation error than the dump, "
        "the largest by +0.25 relative (w.s1.e0.w1)"
    ]
    # A dense map of another size is not compared entry by entry.
    grown = {**current, "w.s1.e0.centroids": np.zeros((3, 3)),
             "w.s1.e0.scatters": np.ones((3, 3, 3))}
    assert ("1 of 1 map digests differ; dense maps of the dump's size in 0 of 1 episodes; "
            ) in digest.compare(reference, grown)[0]
    # An ICP that converges and triggers as in the dump, for another reason,
    # leaves the counts equal; only the stop reasons show it.
    converged = {**current, "w.s1.e0.w1.icp": np.array("cost_decrease"),
                 "w.s1.e0.w1.fusion": reference["w.s1.e0.w1.fusion"],
                 "w.s1.e0.w1.frozen": reference["w.s1.e0.w1.frozen"]}
    assert ("1 ICP calls, 0 not converged, 1 froze a direction, 1 triggers "
            "(the dump: 1 ICP calls, 0 not converged, 1 froze a direction, 1 triggers); "
            "1 of 2 windows differ in ICP stop reason; "
            "0 of 2 windows differ in ICP frozen directions; "
            ) in digest.compare(reference, converged)[0]
    # A call that freezes two directions where the dump's froze one leaves
    # the totals equal; only the call-by-call count shows it.
    refrozen = {**converged, "w.s1.e0.w1.frozen": np.array(2)}
    assert ("1 froze a direction, 1 triggers (the dump: 1 ICP calls, 0 not converged, "
            "1 froze a direction, 1 triggers); 1 of 2 windows differ in ICP stop reason; "
            "1 of 2 windows differ in ICP frozen directions; "
            ) in digest.compare(reference, refrozen)[0]
    # A dump that holds no digests, dense maps, fusion counts, window
    # errors, ICP stop reasons or frozen directions compares none and counts
    # only this run's ICP calls.
    older = {k: v for k, v in reference.items() if not k.endswith(digest.OPTIONAL)}
    assert digest.compare(older, current)[0].endswith(
        "0 of 0 windows differ in fusion counts or trigger; "
        "1 ICP calls, 1 not converged, 0 froze a direction, 0 triggers; "
        "0 of 0 windows differ in ICP stop reason; "
        "0 of 0 windows differ in ICP frozen directions; "
        "0 of 0 trajectory digests, 0 of 0 fusion digests and 0 of 0 map digests differ; "
        "dense maps of the dump's size in 0 of 0 episodes; "
        "0 of 0 windows have a larger translation error than the dump"
    )
    del reference["w.s1.e0.w1.reason"]
    with pytest.raises(SystemExit, match="w.s1.e0.w1.reason"):
        digest.compare(reference, current)


def test_the_comparison_exits_1_when_a_digest_differs(digest, tmp_path, monkeypatch, capsys):
    # The status is 0 against the run's own dump.  A dump with any one
    # trajectory, fusion or map digest changed gives 1; one whose accuracy
    # metrics alone differ gives 0, as only the digests decide.
    args = tiny_args(digest, monkeypatch)
    dump = tmp_path / "tiny.npz"
    assert digest.main(args + ["--dump", str(dump)]) == 0
    with np.load(dump) as kept:
        arrays = dict(kept)
    assert digest.main(args + ["--against", str(dump)]) == 0
    for name in ("tiny.s1.e0.w1.trajectory_digest", "tiny.s1.e0.w0.fusion_digest",
                 "tiny.s1.e0.maps"):
        altered = tmp_path / "altered.npz"
        np.savez(altered, **{**arrays, name: np.array("0" * 24)})
        assert digest.main(args + ["--against", str(altered)]) == 1, name
    moved = tmp_path / "moved.npz"
    np.savez(moved, **{**arrays, "tiny.s1.e0.accuracy": 2.0 * arrays["tiny.s1.e0.accuracy"]})
    assert digest.main(args + ["--against", str(moved)]) == 0
    capsys.readouterr()
