"""Tests of the benchmark's own code: span arithmetic, wrapper lifetime,
payload stability under tracing, and the correctness checks.

    python -m pytest perfbench/tests -q
"""

import json
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import harness
import spans
from workloads import WORKLOADS, Pass

SMALL_ARGVS = (
    ("experiment", "random", "--n", "60", "--k", "4", "--h", "4", "--samples", "200",
     "--seed", "3", "--workers", "1"),
    ("experiment", "scan", "--n", "14", "--k", "4", "--h", "3", "--workers", "1"),
    ("experiment", "minima-stats", "--n", "300", "--k", "4", "--samples", "20", "--seed", "3",
     "--cap", "64", "--workers", "1"),
    ("experiment", "type-census", "--n", "9", "--k", "4", "--h", "2"),
    ("theory", "verify", "--set", "0,2,18,25"),
    ("theory", "verify", "--set", "1,4,9,30,41"),
    ("types", "to-sum", "--set", "2,3,4,6", "--h", "2"),
    ("types", "to-sum", "--set", "5,7,12", "--h", "3"),
)


def _originals():
    return [vars(owner)[attr] for owner, attr, _, _ in spans.WRAP_POINTS]


def test_self_times_on_a_synthetic_tree():
    # root [0, 100] has children [10, 30] and [40, 90]; [50, 60] is a
    # grandchild under the second child.
    start = np.array([0, 10, 40, 50])
    end = np.array([100, 30, 90, 60])
    parent = np.array([-1, 0, 0, 2])
    assert spans.self_times(start, end, parent).tolist() == [30, 20, 40, 10]
    assert spans.self_times(start, end, parent).sum() == 100


def test_tail_value_leaves_ten_samples_beyond():
    assert spans.tail_value(range(1, 21)) == 10
    assert spans.tail_value(range(10)) == 0


def test_layer_metrics_count_spans_per_pass():
    tracer = spans.Tracer()
    with tracer.installed():
        for _ in range(2):
            for argv in SMALL_ARGVS[:2]:
                assert harness.invoke(argv).rc == 0
    metrics = spans.layer_metrics(tracer, passes=2, pass_wall_s=1.0)
    assert metrics["cli.calls"] == 2
    assert metrics["sumset.fold.calls"] == 200 + 1001  # samples + C(14, 4)
    assert metrics["experiments.draws"] == 200 * 4
    # (h-1)(k-1) shift-ORs per fold, h = 4 and 3, k = 4
    assert metrics["sumset.fold.shift_or_ops"] == 200 * 9 + 1001 * 6


def test_wrappers_are_restored_after_a_traced_run():
    before = _originals()
    tracer = spans.Tracer()
    with tracer.installed():
        assert _originals() != before
        for argv in SMALL_ARGVS:
            assert harness.invoke(argv).rc == 0
    assert _originals() == before
    assert len(tracer.start) > len(SMALL_ARGVS)
    with pytest.raises(RuntimeError), tracer.installed():
        raise RuntimeError("interrupted traced run")
    assert _originals() == before


def test_tracing_leaves_every_payload_unchanged():
    plain = [harness.invoke(argv) for argv in SMALL_ARGVS]
    tracer = spans.Tracer()
    with tracer.installed():
        traced = [harness.invoke(argv) for argv in SMALL_ARGVS]
    for argv, a, b in zip(SMALL_ARGVS, plain, traced):
        assert a.rc == b.rc == 0, argv
        assert a.payload == b.payload, argv
    names = set(tracer.names[i] for i in tracer.name)
    assert {"cli", "experiments", "sumset.fold", "lattice.find_minima", "lattice.sweep",
            "lattice.shells.k4", "lattice.shells.k5", "theory.verify", "types.h_type",
            "core.compositions", "types.product_to_sum", "types.loglinear.floor"} <= names


def test_scale_counts_time_at_the_reference_host_speed():
    nominal = harness.REF_NOMINAL_S
    # The kernel ran at half speed throughout, so the work counts half.
    assert harness.scale(2.0, [2 * nominal, 2 * nominal]) == pytest.approx(1.0)
    # Half the time at full speed, half at a third: the mean speed is 2/3.
    assert harness.scale(3.0, [nominal, 3 * nominal]) == pytest.approx(2.0)


def test_host_sampler_samples_only_while_timing_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    sampler = harness.HostSampler()
    for _ in range(3):
        with sampler.timing():
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < harness.SAMPLE_EVERY_S / 2:
                pass
        # Idle time outside timing() must not fire the timer.
        time.sleep(harness.SAMPLE_EVERY_S)
    # 1.5 intervals of timed work in three short blocks: the delay carried over.
    assert len(sampler.samples) == 1
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_check_rejects_a_corrupted_census_payload():
    census = WORKLOADS["census"]
    p = census.make_pass(7, 0, None)
    good = {"histogram": {"counts": {"285": 90_000, "282": 10_000}, "total": 100_000},
            "bh_count": 90_000, "non_bh_count": 10_000, "max_size": 286}
    ok = harness.Invocation(0, json.dumps(good).encode(), "")
    assert census.check(p, [ok.payload]) == []

    bad = dict(good, histogram={"counts": {"285": 89_999, "282": 10_000}, "total": 100_000})
    tally = harness.Tally()
    harness.check_pass(census, p, [harness.Invocation(0, json.dumps(bad).encode(), "")], None, tally)
    assert (tally.attempted, tally.failed) == (1, 1)

    tally = harness.Tally()
    harness.check_pass(census, p, [ok], "0" * 64, tally)
    assert tally.failed == 1 and "digest" in tally.problems[0]

    tally = harness.Tally()
    harness.check_pass(census, p, [harness.Invocation(0, b"{not json", "")], None, tally)
    assert tally.failed == 1


def test_check_rejects_a_transport_with_the_wrong_type():
    types_workload = WORKLOADS["types"]
    census = {"type_count": 211, "representatives": [[1, 2, 3, 4]] * 211}
    P, h = (2, 3, 4, 6), 2
    p = Pass(0, (), 0, {"transports": [(P, h)]})
    good = harness.invoke(("types", "to-sum", "--set", "2,3,4,6", "--h", "2"))
    assert types_workload.check(p, [json.dumps(census).encode(), good.payload]) == []
    wrong = json.dumps({"set": list(P), "h": h, "result": [0, 1, 2, 3]}).encode()
    assert types_workload.check(p, [json.dumps(census).encode(), wrong])


def test_passes_are_a_function_of_the_seed(tmp_path):
    theorem = WORKLOADS["theorem"]
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = theorem.make_pass(11, 3, tmp_path / "a")
    again = theorem.make_pass(11, 3, tmp_path / "b")
    other = theorem.make_pass(12, 3, tmp_path / "b")
    assert first.extra["sets"] == again.extra["sets"] != other.extra["sets"]
    assert WORKLOADS["census"].make_pass(11, 2, None) == WORKLOADS["census"].make_pass(11, 2, None)


def test_golden_digests_match_the_acceptance_payloads():
    golden = json.loads(harness.GOLDEN.read_text())
    assert golden["seed"] == 20250809
    assert golden["digests"]["census"][0] == (
        "ee22578a76808f7ec6ed1177bb7cc5e67264879dd6c4c75b1b58b733753a22fc")
    assert golden["digests"]["scan"] == [
        "35c9c52721821c49715d6688478afe28bd99b62b77488515fa963acf89fa5438"]
    for name, workload in WORKLOADS.items():
        assert len(golden["digests"][name]) == workload.distinct_passes, name


def test_refuses_to_run_without_the_library_sources(tmp_path):
    shutil.copytree(harness.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
