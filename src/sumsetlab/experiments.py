"""Seeded sampling experiments and exhaustive scans over k-subsets of [n].

The |hA| census, the exhaustive scan and the minima statistics run each
job (draw, draw_args, measure) through `_job`. It takes the lists of at
most _DRAW_BLOCK subsets that draw(*draw_args) yields one at a time and
counts the values the measure gives each; `_run_sharded` adds the jobs'
Counters. A value depends on its subset alone, not on the block or job it
lands in, so the outcome is bit-identical for any worker count. The census
and the scan measure with one `fold_size` call per subset. The minima
statistics count (i, h_i) pairs and take means and deviations from exact
integer sums, converted to floats only at the end.

Sampled runs split the samples over SHARD_COUNT shards, a number fixed
whatever the worker count. Shard s samples from its own counter-based
Philox stream, the one Philox(SeedSequence(seed, spawn_key=(s,))) starts.
A run derives all SHARD_COUNT keys of those streams in one step,
`_shard_keys`, with SeedSequence's own mixing: the seed's words once, then
every shard's spawn-key word at once. Each worker gets one job of
contiguous shards, whose source, `_draw_subsets`, re-keys a single
Philox bit generator to each shard in turn at the state a fresh one would
have. So every stream is the one numpy would build for the shard, without
building a SeedSequence or a Philox per shard.

A shard draws the swap targets of up to _DRAW_BLOCK samples with one
`rng.integers(lows, n, size=(rows, k))` call, lows = (0, 1, ..., k-1).
numpy fills that array in row-major order, each element one bounded draw
on [j, n) from the Philox stream, the draw a scalar `rng.integers(j, n)`
call takes. So a block consumes the stream as k scalar calls per sample
would. Each row holds the swap targets of a partial Fisher-Yates shuffle
on a virtual array. The rows are joined across shards into blocks of
_DRAW_BLOCK and unshuffled a column at a time, for all rows at once
(`_unshuffle`); the tests hold the result to the scalar sampler.

The exhaustive scan has one job per first element f. Its source yields
the first C(n - f, k - 1) k-subsets of {f..n} in lexicographic order,
exactly the k-subsets of [n] with least element f, so consecutive subsets
share their (k-1)-prefix P. With M_i the mask of iP - i*min(P), the mask of
h(P u {x}) - h*min(P) for any x > max(P) is
OR_{j=0..h} (M_{h-j} << j*(x - min(P))), since h(P u {x}) is the union of
(h-j)P + j*x with 0P = {0}. `fold_size` keeps the masks of the last P it
saw, so P is folded once and every last element costs h shift-ORs and one
bit count.

The type census visits only the k-subsets of [n] that contain 1, the
first C(n - 1, k - 1) in lexicographic order. An h-type is invariant
under translation, since c . (A + t) = c . A + t*h for every composition
c of h, and a subset A with least element a > 1 has the translate
A - (a - 1) in [n], of the same type and earlier in that order. So every
type first appears on a subset containing 1, and the types, their
representatives and their order are those of a walk over all C(n, k)
subsets. The census still checks C(n, k) against DEFAULT_SUBSET_BUDGET.
It walks its subsets in blocks of at most _CENSUS_BLOCK matrix entries.
With W the k x C matrix whose columns are the C compositions of h, one
matmul gives every sum c . A of a block's subsets A, one row per subset.
A stable argsort of each row puts equal sums next to each other with the
earliest composition first; comparing neighbours marks where each group
of equal sums starts, a running maximum carries that start along the
group, and a scatter gives every composition the index of the first
composition in its class. That row is a bijective image of
`h_type(A, h).class_ids`, and its bytes are the key the census groups by.
The sums are at most h*n, so the block works in int64 when h*n < 2^63
and in Python ints (object arrays) on the same steps otherwise.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .core import CapExceeded, IntegerSet, binomial, composition_count, enumerate_compositions
from .lattice import _check_minima_args, _minima_values_block
from .lattice import find_minima  # noqa: F401  unused; perfbench/spans.py wraps experiments.find_minima
from .sumset import fold_size
from .theory import popular_sizes
from .types import h_type  # noqa: F401  unused; perfbench/spans.py wraps experiments.h_type

SHARD_COUNT = 64

DEFAULT_SUBSET_BUDGET = 5_000_000

# Subsets per source block; also the most samples one shard draws with one
# `integers` call, and the rows `_draw_subsets` unshuffles at once.
_DRAW_BLOCK = 1024

# SeedSequence's pool size and hash and mix constants, as
# numpy/random/bit_generator.pyx defines them.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF

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
        return asdict(self)


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
        """(size, count, proportion) rows; the proportion is count/total
        rounded exactly to 10 decimals, to the nearest, ties to even."""
        return [
            (size, count, "%d.%010d" % divmod(round(Fraction(count * 10**10, self.total)), 10**10))
            for size, count in sorted(self.counts.items())
        ]


def _shard_sizes(total: int, shards: int) -> list[int]:
    base, extra = divmod(total, shards)
    return [base + (1 if i < extra else 0) for i in range(shards)]


def _check_sampler_n(n: int) -> None:
    """The sampler draws int64 values on [j, n), so n - 1 must fit in one."""
    if n > 2**63:
        raise ValueError(f"sampled runs need n <= 2^63 = {2**63}")


def _hash_consts(init: int, mult: int):
    """SeedSequence's running hash constant, as (before, after) each multiply."""
    while True:
        after = init * mult & _MASK32
        yield init, after
        init = after


def _hashmix(value, consts):
    """SeedSequence's hashmix of a 32-bit word, or of a uint32 array of them."""
    before, after = next(consts)
    value = (value ^ before) * after & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix of pool word x with a hashed word y."""
    result = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return result ^ result >> 16


def _shard_keys(seed: int) -> list[tuple[int, int]]:
    """The Philox key of every shard s, as two ints: the words of
    SeedSequence(seed, spawn_key=(s,)).generate_state(2, np.uint64).

    SeedSequence pads the seed's 32-bit words to its pool size, appends the
    spawn key s and mixes the words in order, so everything before s is
    mixed once, in Python ints, and s, the last word, as one uint32 array
    over the shards."""
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL_SIZE - len(words))
    consts = _hash_consts(_INIT_A, _MULT_A)
    pool = [_hashmix(word, consts) for word in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    for word in words[_POOL_SIZE:] + [np.arange(SHARD_COUNT, dtype=np.uint32)]:
        pool = [_mix(x, _hashmix(word, consts)) for x in pool]
    consts = _hash_consts(_INIT_B, _MULT_B)
    lo0, hi0, lo1, hi1 = (_hashmix(x, consts).astype(np.uint64) for x in pool)
    return list(zip((lo0 | hi0 << 32).tolist(), (lo1 | hi1 << 32).tolist()))


def _unshuffle(draws: np.ndarray) -> list[tuple[int, ...]]:
    """The samples of a block of swap targets, one sorted tuple per row.

    Row (r_0, ..., r_{k-1}), r_j on [j, n), is a partial Fisher-Yates
    shuffle of the virtual array 0, 1, ..., n-1: step j swaps positions j
    and r_j, and the sample is every value it brings to position j, plus 1.
    Steps after j never touch position j, so before step j a position p
    holds what the latest earlier step i with r_i = p left there, the value
    position i held before step i, or p itself if no earlier step hit it.
    Each step takes both of its values that way, for all rows at once."""
    rows, k = draws.shape
    steps = np.arange(k)
    row = np.arange(rows)[:, None]
    left = np.zeros_like(draws)  # left[:, i]: what step i leaves at position r_i
    out = np.empty_like(draws)
    for j in range(k):
        positions = np.stack((np.full(rows, j), draws[:, j]), axis=1)
        hits = draws[:, None, :j] == positions[:, :, None]
        latest = np.where(hits, steps[:j], -1).max(axis=2, initial=-1)
        held = np.where(latest < 0, positions, left[row, latest])
        left[:, j], out[:, j] = held[:, 0], held[:, 1]
    out.sort(axis=1)
    out = out.view(np.uint64)  # values lie on [0, n), n <= 2^63, so + 1 fits
    out += 1
    return list(map(tuple, out.tolist()))


def _draw_subsets(n: int, k: int, shards):
    """Yield the uniform k-subsets of {1..n}, each a sorted tuple, that a
    run of contiguous shards ((key, count), ...) samples, in shard order.

    One Philox bit generator is re-keyed to each shard's key, at the state
    Philox(SeedSequence(seed, spawn_key=(s,))) starts from. Each shard
    draws the swap targets of up to _DRAW_BLOCK samples with one
    `integers` call; the draws are joined across shards into blocks of
    _DRAW_BLOCK rows (the last may be shorter), each unshuffled and yielded.
    """
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": None},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,  # empty: the next draw computes a fresh block
        "has_uint32": 0,
        "uinteger": 0,
    }
    lows = np.arange(k)
    pending, rows = [], 0
    for key, count in shards:
        state["state"]["key"] = key
        bitgen.state = state
        for start in range(0, count, _DRAW_BLOCK):
            pending.append(rng.integers(lows, n, size=(min(_DRAW_BLOCK, count - start), k)))
            rows += len(pending[-1])
            if rows >= _DRAW_BLOCK:
                block = np.concatenate(pending)
                yield _unshuffle(block[:_DRAW_BLOCK])
                pending, rows = [block[_DRAW_BLOCK:]], rows - _DRAW_BLOCK
    if rows:
        yield _unshuffle(np.concatenate(pending))


def _job(args) -> Counter:
    """Counter of the values `measure` returns over the blocks of subsets
    that draw(*draw_args) yields, for the job (draw, draw_args, measure)."""
    draw, draw_args, measure = args
    counts: Counter = Counter()
    for block in draw(*draw_args):
        counts.update(measure(block))
    return counts


def _run_sharded(jobs, workers: int) -> Counter:
    """Run `_job` on every job and add up the Counters it returns, in job
    order. Each job carries its own source, so the sum does not depend on
    `workers`, the most processes the jobs are spread over."""
    if workers < 1:
        raise ValueError("workers must be positive")
    processes = min(workers, len(jobs))
    total: Counter = Counter()
    if processes <= 1:
        for part in map(_job, jobs):
            total.update(part)
        return total
    with ProcessPoolExecutor(max_workers=processes) as pool:
        for part in pool.map(_job, jobs):
            total.update(part)
    return total


def _run_sampled(n: int, k: int, samples: int, seed: int, measure, workers: int) -> Counter:
    """The Counter of `measure` over all `samples` samples, in
    min(workers, SHARD_COUNT) jobs, each with a source that walks a run
    of contiguous shards, (key, count) per shard."""
    shards = tuple(zip(_shard_keys(seed), _shard_sizes(samples, SHARD_COUNT)))
    runs = min(workers, SHARD_COUNT)
    starts = [SHARD_COUNT * r // runs for r in range(runs)]
    ends = starts[1:] + [SHARD_COUNT]
    jobs = [(_draw_subsets, (n, k, shards[a:b]), measure) for a, b in zip(starts, ends)]
    return _run_sharded(jobs, workers)


def _fold_sizes(h: int, block) -> list[int]:
    return [fold_size(subset, h) for subset in block]


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
        measure = partial(_fold_sizes, config.h)
        counts = _run_sampled(
            config.n, config.k, config.samples, config.seed, measure, config.workers
        )
        hist = Histogram(dict(counts), config.samples)

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


def _scan_subsets(n: int, k: int, first: int):
    """The k-subsets of {1..n} with least element `first`, lexicographically, in blocks."""
    subsets = itertools.combinations(range(first, n + 1), k)
    subsets = itertools.islice(subsets, binomial(n - first, k - 1))
    while block := list(itertools.islice(subsets, _DRAW_BLOCK)):
        yield block


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

    One job per first element sizes its subsets in lexicographic order
    with one `fold_size` call each, as the census does, so `fold_size`
    folds each shared (k-1)-prefix once. The result is identical for every
    worker count.
    """
    if k < 1:
        raise ValueError("k must be positive")
    total = _subset_count(n, k)
    measure = partial(_fold_sizes, h)
    jobs = [(_scan_subsets, (n, k, first), measure) for first in range(1, n - k + 2)]
    return Histogram(dict(_run_sharded(jobs, workers)), total)


def _minima_pairs(count: int, cap: int, block) -> list[tuple[int, int]]:
    """(i, h_i), i from 0, for every sample of the block whose i-th minimum
    2h_i lies within the cap."""
    return [
        (i, m // 2)
        for minima in _minima_values_block(block, count, cap)
        for i, m in enumerate(minima)
    ]


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
    computed exactly (up to the even norm cap), one block of the job (see
    the module docstring) at a time, by
    lattice._minima_values_block. Only their values are used, so k <= 4
    takes no lattice sweep. A sample whose i-th minimum exceeds the cap
    counts toward that minimum's truncation rate and is excluded from its
    mean. The summary carries the full histogram of h1 = lambda_1 / 2, and
    mean/stddev per minimum. The lattice needs k >= 3, and the subsets
    n >= k.
    """
    if not n >= k >= 3:
        raise ValueError("need n >= k >= 3")
    _check_sampler_n(n)
    if samples < 1:
        raise ValueError("samples must be positive")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    _check_minima_args(k, count, cap)
    counts = _run_sampled(n, k, samples, seed, partial(_minima_pairs, count, cap), workers)

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

    Only the C(n - 1, k - 1) subsets that contain 1 are visited, in the
    order of itertools.combinations, in blocks of at most _CENSUS_BLOCK
    composition sums: any other subset A has the translate A - (min(A) - 1),
    which contains 1, has the same type and comes earlier. The budget is
    still checked against all C(n, k) subsets. A subset's key gives each
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
    combos = ((1, *rest) for rest in itertools.combinations(range(2, n + 1), k - 1))
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
