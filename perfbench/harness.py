"""Runs one workload in this process through sumsetlab.cli.main and prints
its metrics.

Untraced mode (--trace 0) cycles through the workload's passes for
--seconds of pass time and reports the end-to-end metrics, with every
time scaled to a reference host speed (see scale() and HostSampler).
Traced mode (--trace 1) repeats pass 0, alternating an untraced and a
traced run of it, and reports the per-layer metrics from the traced
spans. Every pass is checked: exit codes, seed-independent invariants,
digests that repeat within the run and, for the default seed, the
recorded golden digests.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import mpmath
import numpy as np

from sumsetlab import cli
from spans import Tracer, layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS, Pass, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
SETUP_PROBES = 5
# The shared host's speed drifts by tens of percent within seconds, so
# every time is scaled by that of a small fixed kernel: timed just around
# each set-up probe, and from a timer while the passes run.
REF_NOMINAL_S = 0.006
SAMPLE_EVERY_S = 0.2
SETUP_REF_SAMPLES = 10

E2E_UNITS = {"items_per_s": "items/s", "setup_s": "s", "peak_rss_mb": "MiB"}
LAYER_UNITS = {
    "sumset.fold.calls": "count",
    "sumset.fold.self_s": "s",
    "sumset.fold.us_per_call": "us",
    "sumset.fold.shift_or_ops": "count",
    "sumset.fold.bits_computed": "bits",
    "sumset.fold_sizes.self_s": "s",
    "experiments.self_s": "s",
    "experiments.draws": "count",
    "experiments.ns_per_draw": "ns",
    "lattice.find_minima.calls": "count",
    "lattice.find_minima.ms.p50": "ms",
    "lattice.find_minima.ms.tail": "ms",
    "lattice.sweeps": "count",
    "lattice.sweep_useful_ratio": "ratio",
    "lattice.caps_swept": "norm",
    "lattice.shells.self_s.k4": "s",
    "lattice.shells.self_s.k5": "s",
    "lattice.shells.vectors": "count",
    "lattice.echelon.self_s": "s",
    "lattice.truncated_reports": "count",
    "theory.verify.calls": "count",
    "theory.verify.self_s": "s",
    "types.h_type.calls": "count",
    "types.h_type.self_s": "s",
    "types.compositions": "count",
    "core.compositions.self_s": "s",
    "types.loglinear.floor.calls": "count",
    "types.loglinear.floor.self_s": "s",
    "types.loglinear.sign_lb.self_s": "s",
    "types.product_type.self_s": "s",
    "types.product_to_sum.self_s": "s",
    "cli.calls": "count",
    "cli.self_s": "s",
    "cli.payload_bytes": "bytes",
    "trace.overhead": "fraction",
    "trace.self_coverage": "fraction",
}


@dataclass
class Invocation:
    rc: int
    payload: bytes
    stderr: str


def invoke(argv) -> Invocation:
    """One in-process CLI call with its standard output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            # A crash is one failed invocation; the run goes on and reports it.
            traceback.print_exc()
            rc = 1
    return Invocation(rc, out.getvalue().encode(), err.getvalue())


def run_pass(p: Pass, tracer: Tracer | None = None) -> tuple[float, list[Invocation]]:
    """Time the pass's invocations; checking happens outside the timing."""
    results = []
    t0 = perf_counter()
    for argv in p.argvs:
        if tracer is not None:
            tracer.run_id += 1
        results.append(invoke(argv))
    return perf_counter() - t0, results


def digest(results: list[Invocation]) -> str:
    """SHA-256 over the pass's payloads in order; for a single-invocation
    pass this is the payload's own digest."""
    h = hashlib.sha256()
    for r in results:
        h.update(r.payload)
    return h.hexdigest()


@dataclass
class Tally:
    """Invocation counts and every problem found, for the result line."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def check_pass(workload: Workload, p: Pass, results: list[Invocation], expected: str | None,
               tally: Tally) -> str:
    """Record failures of one pass in `tally`; returns the pass digest.

    `expected` is the digest this pass must reproduce, when one is known."""
    tally.attempted += len(results)
    crashed = [r for r in results if r.rc != 0]
    problems = [f"exit {r.rc}: {r.stderr.strip()[-300:]}" for r in crashed]
    got = digest(results)
    if not crashed:
        try:
            problems += workload.check(p, [r.payload for r in results])
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems.append(f"payload unreadable: {exc!r}")
        if expected is not None and got != expected:
            problems.append(f"pass {p.index} digest {got} != expected {expected}")
    tally.failed += len(crashed) or min(len(problems), len(results))
    tally.problems += [f"{workload.name} pass {p.index}: {msg}" for msg in problems]
    return got


def load_golden(workload: str, seed: int) -> list[str] | None:
    """The recorded pass digests, which exist only for the default seed."""
    if seed != DEFAULT_SEED:
        return None
    return json.loads(GOLDEN.read_text())["digests"][workload]


def reference_kernel() -> None:
    """A fixed piece of pure-Python work that calls no sumsetlab code:
    small-int arithmetic, big-int shifts and ORs, dict updates and Fraction
    sums, the operations the library's layers are made of. How long it
    takes tracks the speed the shared host gives this process."""
    s = 0
    for i in range(30_000):
        s += i * i % 7
    mask, acc = (1 << 6000) - 1, (1 << 3000) - 12345
    for _ in range(1_600):
        acc = ((acc | (acc << 3)) & mask) ^ 12345
    counts: dict[int, int] = {}
    for i in range(5_000):
        k = (i * 2654435761) & 1023
        counts[k] = counts.get(k, 0) + i
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i)


def time_reference(samples: int) -> list[float]:
    """Seconds taken by each of `samples` back-to-back reference kernels."""
    times = []
    for _ in range(samples):
        t0 = perf_counter()
        reference_kernel()
        times.append(perf_counter() - t0)
    return times


def scale(elapsed: float, samples: list[float]) -> float:
    """`elapsed` at the reference host speed, at which the reference
    kernel takes REF_NOMINAL_S. `samples` are kernel times taken evenly
    over the timed work, or just around it, so the mean of their inverses
    is the host's mean speed over it."""
    return elapsed * REF_NOMINAL_S * statistics.mean(1 / t for t in samples)


class HostSampler:
    """Times the reference kernel every SAMPLE_EVERY_S of timed work, from
    a SIGALRM interval timer that runs only inside `timing()`. The timer's
    remaining delay carries over from one timed block to the next, so short
    blocks are sampled at the same rate as long ones."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._due = SAMPLE_EVERY_S

    def _sample(self, signum, frame) -> None:
        self.samples += time_reference(1)

    @contextlib.contextmanager
    def timing(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self._due, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            self._due = signal.setitimer(signal.ITIMER_REAL, 0)[0] or SAMPLE_EVERY_S
            signal.signal(signal.SIGALRM, previous)


def measure_setup(workload: str, seed: int, workdir: Path) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter to inputs ready (sumsetlab,
    numpy and mpmath imported, the workload's inputs generated), once per
    probe process; returns the wall times and the scaled times."""
    times, scaled = [], []
    before = time_reference(SETUP_REF_SAMPLES)
    for j in range(SETUP_PROBES):
        cmd = [sys.executable, str(HERE / "probe_setup.py"), workload, str(seed),
               str(workdir / f"probe-{j}")]
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait()
        if rc != 0 or line.strip() != b"ready":
            raise RuntimeError(f"setup probe {j} exited with {rc}")
        after = time_reference(SETUP_REF_SAMPLES)
        times.append(elapsed)
        scaled.append(scale(elapsed, before + after))
        before = after
    return times, scaled


def measure(workload: Workload, passes: list[Pass], golden, seconds: float, tally: Tally):
    """Untraced passes, cycling through the inputs, until about `seconds`
    of pass time, with the host's speed sampled while they run; returns
    the items done, the digests seen, the pass times (kernel samples
    taken out) and the kernel samples."""
    seen: dict[int, str] = {}
    times: list[float] = []
    sampler = HostSampler()
    items = 0
    while not times or sum(times) + statistics.mean(times) / 2 < seconds:
        p = passes[len(times) % len(passes)]
        taken = len(sampler.samples)
        with sampler.timing():
            elapsed, results = run_pass(p)
        times.append(elapsed - sum(sampler.samples[taken:]))
        expected = seen.get(p.index) or (golden[p.index] if golden else None)
        seen[p.index] = check_pass(workload, p, results, expected, tally)
        items += p.items
    # Passes shorter than SAMPLE_EVERY_S in all can end before the timer fires.
    return items, seen, times, sampler.samples or time_reference(1)


def measure_traced(workload: Workload, p: Pass, golden, seconds: float, tally: Tally):
    """Alternate untraced and traced runs of one pass for about `seconds`;
    returns the layer metrics and the tracer holding the spans."""
    tracer = Tracer()
    plain: list[float] = []
    traced: list[float] = []
    payload_bytes = 0
    while not plain or sum(plain) + sum(traced) + (plain[-1] + traced[-1]) / 2 < seconds:
        elapsed, results = run_pass(p)
        expected = golden[p.index] if golden else None
        untraced_digest = check_pass(workload, p, results, expected, tally)
        with tracer.installed():
            elapsed_traced, traced_results = run_pass(p, tracer)
        # Tracing must not change a single payload byte.
        check_pass(workload, p, traced_results, untraced_digest, tally)
        plain.append(elapsed)
        traced.append(elapsed_traced)
        payload_bytes = sum(len(r.payload) for r in results)
    metrics = layer_metrics(tracer, len(traced), sum(traced))
    metrics["cli.payload_bytes"] = float(payload_bytes)
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(plain) - 1
    return metrics, tracer, len(traced)


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            sha = proc.stdout.strip() if proc.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        # --workers 1 is passed explicitly, so this variable cannot matter.
        "SUMSETLAB_WORKERS_ignored": os.environ.get("SUMSETLAB_WORKERS"),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        passes = workload.make_passes(args.seed, workdir)
        golden = load_golden(workload.name, args.seed)
        tally = Tally()
        info = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "golden_checked": golden is not None, **environment()}
        if args.trace:
            metrics, tracer, n = measure_traced(workload, passes[0], golden, args.seconds, tally)
            spans_path = OUT / f"spans-{workload.name}.npz"
            tracer.save(spans_path)
            info.update(traced_passes=n, spans=str(spans_path.relative_to(ROOT)),
                        span_count=len(tracer.start))
            units = LAYER_UNITS
        else:
            setup, setup_scaled = measure_setup(workload.name, args.seed, workdir)
            items, seen, times, samples = measure(workload, passes, golden, args.seconds, tally)
            metrics = {
                "items_per_s": items / scale(sum(times), samples),
                "setup_s": statistics.median(setup_scaled),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            info.update(pass_s=times, host_samples_s=samples, wall_items_per_s=items / sum(times),
                        setup_probes_s=setup, setup_scaled_s=setup_scaled,
                        setup_wall_s=statistics.median(setup), digests=seen)
            units = E2E_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = tally.failed == 0 and not tally.problems
    info["error_rate"] = tally.failed / tally.attempted
    for msg in tally.problems:
        print(f"FAIL {msg}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name:32s} {metrics[name]:.6g} {unit}")
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1
