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


def test_a_dump_compared_with_itself_reports_no_difference(digest, tmp_path, monkeypatch, capsys):
    # One episode of two short windows of the map-bound workload.
    tiny = dataclasses.replace(
        digest.workloads.SPECS["revisit"], episodes=1, n_windows=2, n_priors=100, n_scan=1500
    )
    monkeypatch.setitem(digest.workloads.SPECS, "tiny", tiny)
    args = ["--workloads", "tiny", "--seeds", "1", "--episodes", "1"]
    dump = tmp_path / "tiny.npz"
    digest.main(args + ["--dump", str(dump)])
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3 and all(line.startswith("tiny seed 1 episode 0") for line in printed)
    digest.main(args + ["--against", str(dump)])
    *again, summary = capsys.readouterr().out.splitlines()
    assert again == printed
    assert summary == (
        "tiny: 2 windows, largest translation difference 0 m, rotation entry 0, "
        "accuracy metric 0 relative (ate_m +0); 0 windows differ in stop reason or record count; "
        "0 of 2 windows differ in fusion counts or trigger; "
        "0 of 2 window digests and 0 of 1 map digests differ"
    )
    # The dump holds the printed digests and each window's fusion counts.
    with np.load(dump) as kept:
        assert printed[0].endswith(f" {kept['tiny.s1.e0.w0.digest']}")
        assert printed[2].endswith(f" {kept['tiny.s1.e0.maps']}")
        n_new, n_fused, n_culled, n_active, n_inactive, triggered = kept["tiny.s1.e0.w0.fusion"]
        assert n_new > 0 and n_fused == n_culled == n_inactive == triggered == 0
        assert n_active == n_new


def test_compare_sizes_each_difference(digest):
    # Arrays of two windows and an episode, one window moved by 1e-6 m and
    # stopped for another reason, the map error 1% smaller and the map growth
    # 0.5% larger, the other window's fusion counts, its digest and the maps
    # digest changed with no other difference.  The largest change is named
    # with its sign.
    reference = {
        "w.s1.e0.w0.rotations": np.eye(3)[None], "w.s1.e0.w0.translations": np.zeros((1, 3)),
        "w.s1.e0.w0.records": np.array(3), "w.s1.e0.w0.reason": np.array("predicted_decrease"),
        "w.s1.e0.w0.fusion": np.array([5, 0, 0, 5, 0, 0]), "w.s1.e0.w0.digest": np.array("a0"),
        "w.s1.e0.w1.rotations": np.eye(3)[None], "w.s1.e0.w1.translations": np.ones((1, 3)),
        "w.s1.e0.w1.records": np.array(3), "w.s1.e0.w1.reason": np.array("predicted_decrease"),
        "w.s1.e0.w1.fusion": np.array([1, 4, 0, 6, 0, 0]), "w.s1.e0.w1.digest": np.array("a1"),
        "w.s1.e0.accuracy": np.ones(5), "w.s1.e0.maps": np.array("m0"),
    }
    current = dict(reference)
    current["w.s1.e0.w1.translations"] = np.ones((1, 3)) + [0.0, 1e-6, 0.0]
    current["w.s1.e0.w1.reason"] = np.array("cost_decrease")
    current["w.s1.e0.accuracy"] = np.array([1.0, 1.0, 1.0, 0.99, 1.005])
    current["w.s1.e0.w0.fusion"] = np.array([4, 1, 0, 5, 0, 0])
    current["w.s1.e0.w0.digest"] = np.array("b0")
    current["w.s1.e0.maps"] = np.array("m1")
    assert digest.compare(reference, current) == [
        "w: 2 windows, largest translation difference 1e-06 m, rotation entry 0, "
        "accuracy metric 0.01 relative (map_rms_m -0.01); "
        "1 windows differ in stop reason or record count; "
        "1 of 2 windows differ in fusion counts or trigger; "
        "1 of 2 window digests and 1 of 1 map digests differ"
    ]
    # A dump that holds no digests or fusion counts compares none.
    older = {k: v for k, v in reference.items()
             if not k.endswith((".digest", ".maps", ".fusion"))}
    assert digest.compare(older, current)[0].endswith(
        "0 of 0 windows differ in fusion counts or trigger; "
        "0 of 0 window digests and 0 of 0 map digests differ"
    )
    del reference["w.s1.e0.w1.reason"]
    with pytest.raises(SystemExit, match="w.s1.e0.w1.reason"):
        digest.compare(reference, current)
