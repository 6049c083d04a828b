"""Seeded sampling experiments and exhaustive scans over k-subsets of [n].

Reproducibility scheme: work is split into a fixed number of shards
(SHARD_COUNT, independent of the worker count), and shard s draws from
its own counter-based Philox stream keyed by (seed, s). Every shard
returns one Counter and `_run_sharded` adds them up in shard order, so
the outcome is bit-identical for any worker count, including 1. The
minima statistics count (i, h_i) pairs; means and deviations are taken
from exact integer sums over those counts and only converted to floats
in the final summary.

A shard draws its subsets in blocks of at most _DRAW_BLOCK samples, one
`rng.integers(lows, n, size=(rows, k))` call per block with
lows = (0, 1, ..., k-1), and runs each row through a partial
Fisher-Yates shuffle on a virtual array. numpy fills such an array in
row-major order, each element one bounded draw on [j, n) from the
generator's Philox stream, the same draw a scalar `rng.integers(j, n)`
call takes. So a block consumes the stream exactly as k scalar calls per
sample would, every subset is the one a per-sample sampler gives, and the
generator is left in the same state; the tests hold the batched sampler
to that scalar one. The draw buffer holds _DRAW_BLOCK * k integers
whatever the sample count.

The minima statistics size their samples many sets at a time, with one
`_minima_values_block` call per block, and a shard holds too few samples
to fill a block (about 5 of a 300-sample run). So a job there is a run of
contiguous shards (`_shard_runs`): shards join a run while its samples
stay within _DRAW_BLOCK, and a shard larger than that is a run of its
own. The cut depends only on the sample count, never on the workers. A
job draws its shards' samples in shard order, each shard from its own
stream, and sizes them in blocks of at most _DRAW_BLOCK, so a job holds
at most one block of subsets and the counts do not depend on where the
blocks fall.

The exhaustive scan is sharded by the first element of each subset and
walks each shard in lexicographic order, so consecutive subsets share
their (k-1)-prefix P. With M_i the mask of iP - i*min(P), the mask of
h(P u {x}) - h*min(P) for any x > max(P) is
OR_{j=0..h} (M_{h-j} << j*(x - min(P))), since h(P u {x}) is the union of
(h-j)P + j*x with 0P = {0}. `fold_size` keeps the masks of the last P it
saw, so P is folded once and every last element costs h shift-ORs and one
bit count.

The type census runs over the subsets in lexicographic order, in blocks
of at most _CENSUS_BLOCK matrix entries. With W the k x C matrix whose
columns are the C compositions of h, one matmul gives every sum
c . A of a block's subsets A, one row per subset. A stable argsort of
each row puts equal sums next to each other with the earliest composition
first; comparing neighbours marks where each group of equal sums starts,
a running maximum carries that start along the group, and a scatter gives
every composition the index of the first composition in its class. That
row is a bijective image of `h_type(A, h).class_ids`, and its bytes are
the key the census groups by. The sums are at most h*n, so the block
works in int64 when h*n < 2^63 and in Python ints (object arrays) on the
same steps otherwise.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import CapExceeded, IntegerSet, binomial, composition_count, enumerate_compositions
from .lattice import _check_minima_args, _minima_values_block
from .lattice import find_minima  # noqa: F401  unused; perfbench/spans.py wraps experiments.find_minima
from .sumset import fold_size
from .theory import popular_sizes
from .types import h_type  # noqa: F401  unused; perfbench/spans.py wraps experiments.h_type

SHARD_COUNT = 64

DEFAULT_SUBSET_BUDGET = 5_000_000

# Samples drawn per Generator.integers call in `_sample_subsets`.
_DRAW_BLOCK = 1024

# Matrix entries (subsets times compositions) per block of `type_census`.
_CENSUS_BLOCK = 2**14


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one sampling experiment over k-subsets of {1..n}.

    samples = 0 means exhaustive: every subset is evaluated once (subject
    to the subset budget) and the seed is irrelevant.
    """

    n: int
    k: int
    h: int
    samples: int
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if not self.n >= self.k >= 2:
            raise ValueError("need n >= k >= 2")
        if self.h < 1:
            raise ValueError("h must be positive")
        if self.samples < 0:
            raise ValueError("samples must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.workers < 1:
            raise ValueError("workers must be positive")

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "h": self.h,
            "samples": self.samples,
            "seed": self.seed,
            "workers": self.workers,
        }


@dataclass(frozen=True)
class Histogram:
    """Occurrence counts keyed by |hA| value."""

    counts: dict[int, int]
    total: int

    def to_dict(self) -> dict:
        return {
            "counts": {str(size): self.counts[size] for size in sorted(self.counts)},
            "total": self.total,
        }

    def to_csv_rows(self) -> list[tuple[int, int, str]]:
        return [
            (size, self.counts[size], format(self.counts[size] / self.total, ".10f"))
            for size in sorted(self.counts)
        ]


def _shard_sizes(total: int, shards: int) -> list[int]:
    base, extra = divmod(total, shards)
    return [base + (1 if i < extra else 0) for i in range(shards)]


def _shard_rng(seed: int, shard: int) -> np.random.Generator:
    ss = np.random.SeedSequence(seed, spawn_key=(shard,))
    return np.random.Generator(np.random.Philox(ss))


def _check_sampler_n(n: int) -> None:
    """The sampler draws int64 values on [j, n), so n - 1 must fit in one."""
    if n > 2**63:
        raise ValueError(f"sampled runs need n <= 2^63 = {2**63}")


def _sample_subsets(rng: np.random.Generator, n: int, k: int, count: int):
    """Yield `count` uniform k-subsets of {1..n}, each a sorted tuple, by a
    partial Fisher-Yates shuffle on a virtual array (exactly uniform).

    One `rng.integers` call draws the swap targets of up to _DRAW_BLOCK
    samples, one row of k per sample; the module docstring says why that
    is the stream of k scalar draws per sample.
    """
    lows = np.arange(k)
    for start in range(0, count, _DRAW_BLOCK):
        rows = min(_DRAW_BLOCK, count - start)
        for row in rng.integers(lows, n, size=(rows, k)).tolist():
            swap: dict[int, int] = {}
            out = []
            for j, r in enumerate(row):
                vj = swap.get(j, j)
                vr = swap.get(r, r)
                swap[j], swap[r] = vr, vj
                out.append(vr + 1)
            out.sort()
            yield tuple(out)


def _random_shard(args) -> Counter:
    n, k, h, seed, shard, count = args
    return Counter(
        fold_size(subset, h) for subset in _sample_subsets(_shard_rng(seed, shard), n, k, count)
    )


def _run_sharded(jobs, worker, workers: int) -> Counter:
    """Run `worker` on every job and add up the Counters it returns, in job
    order. Each job carries its own shard, so the sum does not depend on
    `workers`, the number of processes the jobs are spread over."""
    if workers < 1:
        raise ValueError("workers must be positive")
    total: Counter = Counter()
    if workers == 1:
        for part in map(worker, jobs):
            total.update(part)
        return total
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for part in pool.map(worker, jobs):
            total.update(part)
    return total


def random_subset_experiment(config: ExperimentConfig) -> tuple[Histogram, dict]:
    """Sample |hA| over uniform random k-subsets of [n].

    Returns the histogram plus a summary with the B_h fraction (samples
    attaining the maximum C(h+k-1, k-1)) and, among the rest, the fraction
    landing on the popular sizes M - C(j+k-1, k-1), 0 <= j <= h-2.
    """
    if config.samples == 0:
        hist = exhaustive_scan(config.n, config.k, config.h, workers=config.workers)
    else:
        _check_sampler_n(config.n)
        jobs = [
            (config.n, config.k, config.h, config.seed, shard, count)
            for shard, count in enumerate(_shard_sizes(config.samples, SHARD_COUNT))
        ]
        hist = Histogram(dict(_run_sharded(jobs, _random_shard, config.workers)), config.samples)

    M = composition_count(config.h, config.k)
    popular = popular_sizes(config.h, config.k)
    bh_count = hist.counts.get(M, 0)
    non_bh = hist.total - bh_count
    popular_hits = sum(hist.counts.get(size, 0) for size in popular)
    summary = {
        "config": config.to_dict(),
        "max_size": M,
        "bh_count": bh_count,
        "bh_fraction": bh_count / hist.total,
        "non_bh_count": non_bh,
        "popular_sizes": popular,
        "popular_fraction": popular_hits / non_bh if non_bh else None,
    }
    return hist, summary


def _scan_shard(args) -> Counter:
    n, k, h, first = args
    counts: Counter = Counter()
    for rest in itertools.combinations(range(first + 1, n + 1), k - 1):
        counts[fold_size((first,) + rest, h)] += 1
    return counts


def _subset_count(n: int, k: int) -> int:
    """C(n, k), checked against DEFAULT_SUBSET_BUDGET."""
    total = binomial(n, k)
    if total > DEFAULT_SUBSET_BUDGET:
        raise CapExceeded(
            f"C({n},{k}) = {total} subsets exceed the budget of {DEFAULT_SUBSET_BUDGET}"
        )
    if total == 0:
        raise ValueError("no subsets to scan")
    return total


def exhaustive_scan(n: int, k: int, h: int, workers: int = 1) -> Histogram:
    """Exact frequency of every |hA| over all C(n, k) subsets of {1..n}.

    Each shard fixes the first element and sizes its subsets with one
    `fold_size` call each, in lexicographic order, so consecutive calls
    share their (k-1)-prefix and `fold_size` folds each prefix once. The
    result is identical for every worker count.
    """
    if k < 1:
        raise ValueError("k must be positive")
    total = _subset_count(n, k)
    jobs = [(n, k, h, first) for first in range(1, n - k + 2)]
    return Histogram(dict(_run_sharded(jobs, _scan_shard, workers)), total)


def _minima_job(args) -> Counter:
    """Counter of (i, h_i) over the samples of a run of contiguous shards,
    i from 0, for every sample whose i-th minimum 2h_i lies within the cap.

    shards holds (shard, count) pairs in shard order. Their samples are
    drawn in that order and sized in blocks of at most _DRAW_BLOCK by one
    `_minima_values_block` call each."""
    n, k, seed, shards, cap, minima_count = args
    subsets = itertools.chain.from_iterable(
        _sample_subsets(_shard_rng(seed, shard), n, k, count) for shard, count in shards
    )
    counts: Counter = Counter()
    while block := list(itertools.islice(subsets, _DRAW_BLOCK)):
        for minima in _minima_values_block(block, minima_count, cap):
            counts.update(enumerate(m // 2 for m in minima))
    return counts


def _minima_shard(args) -> Counter:
    """_minima_job on one shard: (n, k, seed, shard, count, cap, minima_count)."""
    n, k, seed, shard, count, cap, minima_count = args
    return _minima_job((n, k, seed, ((shard, count),), cap, minima_count))


def _shard_runs(sizes: list[int]) -> list[tuple[tuple[int, int], ...]]:
    """The shards, as (shard, count) pairs, cut into runs of contiguous
    shards: a run takes the next shard while its samples stay within
    _DRAW_BLOCK, and a shard larger than that is a run of its own. The
    cut depends on the shard sizes alone."""
    runs: list[list[tuple[int, int]]] = []
    total = 0
    for shard, count in enumerate(sizes):
        if not runs or total + count > _DRAW_BLOCK:
            runs.append([])
            total = 0
        runs[-1].append((shard, count))
        total += count
    return [tuple(run) for run in runs]


def minima_statistics(
    n: int,
    k: int,
    samples: int,
    seed: int,
    cap: int,
    count: int = 1,
    workers: int = 1,
) -> dict:
    """Distribution of the first lattice minima over random k-subsets.

    For each sampled subset the first `count` successive minima are
    computed exactly (up to the even norm cap). Only their values are
    used: at k <= 4 they are the norms of the L1-reduced kernel basis, with
    no lattice sweep, and at k >= 5 one sweep certifies them (see
    lattice._minima_values). Jobs are runs of contiguous shards, cut by
    `samples` alone, and each job sizes its samples in blocks of at most
    _DRAW_BLOCK through lattice._minima_values_block, which takes the
    k <= 4 sets of a block in int64 under its guards and every other set
    one at a time (see the module docstring). A sample whose i-th minimum
    exceeds the cap counts toward that minimum's truncation rate and is
    excluded from its mean. The summary carries the full histogram of
    h1 = lambda_1 / 2, and mean/stddev per minimum. The lattice needs
    k >= 3, and the subsets n >= k.
    """
    if not n >= k >= 3:
        raise ValueError("need n >= k >= 3")
    _check_sampler_n(n)
    if samples < 1:
        raise ValueError("samples must be positive")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    _check_minima_args(k, count, cap)
    runs = _shard_runs(_shard_sizes(samples, SHARD_COUNT))
    jobs = [(n, k, seed, run, cap, count) for run in runs]
    counts = _run_sharded(jobs, _minima_job, workers)

    minima_stats = []
    for i in range(count):
        hs = [(h, c) for (j, h), c in counts.items() if j == i]
        found = sum(c for _, c in hs)
        truncated = samples - found
        if found:
            sums = sum(h * c for h, c in hs)
            sqsums = sum(h * h * c for h, c in hs)
            mean = sums / found
            var = sqsums / found - mean * mean
            stddev = var**0.5 if var > 0 else 0.0
        else:
            mean = stddev = None
        minima_stats.append(
            {
                "index": i + 1,
                "found": found,
                "truncated": truncated,
                "truncation_rate": truncated / samples,
                "mean_h": mean,
                "stddev_h": stddev,
            }
        )
    return {
        "config": {"n": n, "k": k, "samples": samples, "seed": seed, "cap": cap, "count": count},
        "minima": minima_stats,
        "h1_histogram": {str(h): c for (i, h), c in sorted(counts.items()) if i == 0},
    }


def type_census(n: int, k: int, h: int) -> tuple[int, list[IntegerSet]]:
    """Distinct h-types over all k-subsets of {1..n}, with the
    lexicographically least representative of each type, in order of
    first appearance. The count is a lower bound for the number of types
    over all of Z, not an answer to how many exist.

    Subsets are visited in the order of itertools.combinations, in blocks
    of at most _CENSUS_BLOCK composition sums. A subset's key gives each
    composition the index of the first composition with the same sum,
    which is a bijective image of its `h_type(..., h).class_ids`; the
    module docstring says how a block computes it.
    """
    if k < 1:
        raise ValueError("k must be positive")
    _subset_count(n, k)
    if h < 1:
        raise ValueError("h must be positive")
    comps = enumerate_compositions(h, k)
    dtype = np.int64 if h * n < 2**63 else object
    weights = np.array(comps, dtype=dtype).T
    rows = max(1, _CENSUS_BLOCK // len(comps))
    cols = np.arange(1, len(comps))
    key_dtype = np.min_scalar_type(len(comps) - 1)
    combos = itertools.combinations(range(1, n + 1), k)
    seen: dict[bytes, tuple[int, ...]] = {}
    while block := list(itertools.islice(combos, rows)):
        sums = np.array(block, dtype=dtype) @ weights
        order = np.argsort(sums, axis=1, kind="stable")
        ordered = np.take_along_axis(sums, order, axis=1)
        starts = np.zeros(order.shape, dtype=np.intp)
        starts[:, 1:] = np.where(ordered[:, 1:] != ordered[:, :-1], cols, 0)
        np.maximum.accumulate(starts, axis=1, out=starts)
        keys = np.empty(order.shape, dtype=key_dtype)
        np.put_along_axis(keys, order, np.take_along_axis(order, starts, axis=1), axis=1)
        for subset, key in zip(block, keys):
            seen.setdefault(bytes(key), subset)
    return len(seen), [IntegerSet(rep) for rep in seen.values()]
