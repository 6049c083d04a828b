import itertools
import tracemalloc
from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumsetlab import core, experiments, sumset, types
from sumsetlab.core import CapExceeded, IntegerSet, binomial
from sumsetlab.lattice import find_minima
from sumsetlab.experiments import (
    ExperimentConfig,
    exhaustive_scan,
    minima_statistics,
    random_subset_experiment,
    type_census,
)
from sumsetlab.sumset import fold_size
from sumsetlab.types import _partition_by, h_type


def brute_scan(n, k, h):
    counts = Counter()
    for combo in itertools.combinations(range(1, n + 1), k):
        sums = {sum(t) for t in itertools.product(combo, repeat=h)}
        counts[len(sums)] += 1
    return counts


def scan_shard_oracle(args) -> Counter:
    """Slow oracle: the per-subset scan shard, one unshared fold per subset."""
    n, k, h, first = args
    counts: Counter = Counter()
    for rest in itertools.combinations(range(first + 1, n + 1), k - 1):
        counts[sumset._fold((first,) + rest, h)[0][-1]] += 1
    return counts


def shard_rng(seed, shard) -> np.random.Generator:
    """Oracle: the shard's own stream, a Philox generator seeded by
    SeedSequence(seed, spawn_key=(shard,))."""
    ss = np.random.SeedSequence(seed, spawn_key=(shard,))
    return np.random.Generator(np.random.Philox(ss))


def fisher_yates_oracle(targets):
    """Slow oracle: the scalar unshuffle of one row of swap targets, a
    partial Fisher-Yates shuffle on a virtual array (exactly uniform, O(k)
    memory)."""
    swap: dict[int, int] = {}
    out = []
    for j, r in enumerate(targets):
        vj = swap.get(j, j)
        vr = swap.get(r, r)
        swap[j], swap[r] = vr, vj
        out.append(vr + 1)
    out.sort()
    return tuple(out)


def sample_subset_oracle(rng, n, k):
    """Slow oracle: the scalar sampler, k `rng.integers` calls per sample,
    uniform k-subset of {1..n}."""
    return fisher_yates_oracle([int(rng.integers(j, n)) for j in range(k)])


def shard_subsets_oracle(seed, shard, n, k, count):
    """Slow oracle: the shard's `count` samples from its own stream."""
    rng = shard_rng(seed, shard)
    return [sample_subset_oracle(rng, n, k) for _ in range(count)]


def random_shard_oracle(args) -> Counter:
    """Slow oracle: the census shard with the scalar sampler and one
    unshared fold per sample."""
    n, k, h, seed, shard, count = args
    return Counter(sumset._fold(subset, h)[0][-1] for subset in shard_subsets_oracle(seed, shard, n, k, count))


def joined(blocks) -> list:
    """The subsets of a source's blocks, in order."""
    return list(itertools.chain.from_iterable(blocks))


def shard_run(seed, counts):
    """A run of contiguous shards from shard 0, as `_draw_subsets` takes it."""
    return tuple(zip(experiments._shard_keys(seed), counts))


REAL_GENERATOR = np.random.Generator


class RecordingGenerator:
    """A Generator that records the size of every `integers` call and the
    bit generator's state just before it."""

    def __init__(self, bitgen, calls):
        self._rng = REAL_GENERATOR(bitgen)
        self._calls = calls

    def integers(self, *args, **kwargs):
        self._calls.append((kwargs["size"], plain_state(self._rng.bit_generator.state)))
        return self._rng.integers(*args, **kwargs)


def plain_state(state):
    """A bit generator state with its arrays as lists, so states compare with ==."""
    if isinstance(state, dict):
        return {key: plain_state(value) for key, value in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


def recorded_draws(mp) -> list:
    """Patch np.random.Generator, which `_draw_subsets` builds, with a
    RecordingGenerator, and return its list of (size, state) calls."""
    calls: list = []
    mp.setattr(np.random, "Generator", lambda bitgen: RecordingGenerator(bitgen, calls))
    return calls


@st.composite
def sampler_shapes(draw):
    k = draw(st.integers(1, 8))
    return draw(st.integers(k, 2**62)), k


@settings(max_examples=40, deadline=None)
@given(
    sampler_shapes(),
    st.sampled_from([0, 1, 1023, 1024, 1025, 3000]),
    st.integers(0, 2**64),
    st.integers(0, experiments.SHARD_COUNT - 1),
)
@example(shape=(1, 1), count=1025, seed=0, shard=0)  # n = k: every draw is forced
@example(shape=(8, 8), count=1024, seed=1, shard=63)
@example(shape=(2**32 - 1, 4), count=1025, seed=2, shard=5)
@example(shape=(2**32, 4), count=1023, seed=3, shard=5)
@example(shape=(2**32 + 1, 6), count=1025, seed=4, shard=5)
@example(shape=(2**62, 8), count=3000, seed=5, shard=0)
def test_batched_sampler_matches_scalar_oracle(shape, count, seed, shard):
    n, k = shape
    scalar = shard_rng(seed, shard)
    with pytest.MonkeyPatch.context() as mp:
        made = []
        mp.setattr(np.random, "Generator", lambda bitgen: made.append(REAL_GENERATOR(bitgen)) or made[-1])
        key = experiments._shard_keys(seed)[shard]
        subsets = joined(experiments._draw_subsets(n, k, ((key, count),)))
    assert subsets == [sample_subset_oracle(scalar, n, k) for _ in range(count)]
    # Both generators are left at the same point of the stream.
    [batched] = made
    assert batched.integers(0, n) == scalar.integers(0, n)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64, 2**128, 2**200 + 7])
def test_shard_keys_match_seed_sequence(seed):
    # seeds of 1, 1, 2, 3, 5 and 7 32-bit words: below, at and past the pool of 4
    keys = experiments._shard_keys(seed)
    assert len(keys) == experiments.SHARD_COUNT
    for shard, key in enumerate(keys):
        ss = np.random.SeedSequence(seed, spawn_key=(shard,))
        assert key == tuple(ss.generate_state(2, np.uint64).tolist())
        assert all(type(word) is int for word in key)


@pytest.mark.parametrize("seed", [0, 7, 2**64, 2**200 + 7])
def test_rekeyed_state_is_a_fresh_philox(seed):
    # each shard's first draw starts from the state a new Philox of its
    # SeedSequence has: counter 0, empty buffer, no cached uint32
    counts = [3, 0, 1, 1024, 5] + [0] * 58 + [2]
    with pytest.MonkeyPatch.context() as mp:
        calls = recorded_draws(mp)
        list(experiments._draw_subsets(50, 4, shard_run(seed, counts)))
    drawn = [shard for shard, count in enumerate(counts) if count]
    assert len(calls) == len(drawn)
    for shard, (_, state) in zip(drawn, calls):
        fresh = np.random.Philox(np.random.SeedSequence(seed, spawn_key=(shard,)))
        assert state == plain_state(fresh.state)


@st.composite
def target_blocks(draw):
    # targets r_j on [j, n) with n close to k, so they repeat earlier
    # targets (r_j = r_i) and stay put (r_j = j) often
    k = draw(st.integers(1, 7))
    n = draw(st.integers(k, k + 3))
    rows = draw(st.integers(1, 12))
    return n, [[draw(st.integers(j, n - 1)) for j in range(k)] for _ in range(rows)]


@settings(max_examples=200, deadline=None)
@given(target_blocks())
def test_unshuffle_matches_scalar_fisher_yates(block):
    n, rows = block
    out = experiments._unshuffle(np.array(rows, dtype=np.int64))
    assert out == [fisher_yates_oracle(row) for row in rows]
    assert all(len(set(s)) == len(s) and 1 <= min(s) <= max(s) <= n for s in out)


def test_unshuffle_follows_repeated_targets():
    rows = [
        [3, 3, 3, 3, 4],  # every step swaps with position 3
        [0, 1, 2, 3, 4],  # r_j = j: the identity
        [4, 4, 2, 4, 4],  # r_j = r_i, and r_2 = 2 between them
        [1, 1, 4, 4, 4],  # r_1 = 1 after r_0 = 1
        [2, 4, 2, 4, 4],
    ]
    out = experiments._unshuffle(np.array(rows, dtype=np.int64))
    assert out == [fisher_yates_oracle(row) for row in rows]
    assert out[:4] == [(1, 2, 3, 4, 5)] * 4


@pytest.mark.parametrize("n, k", [(1, 1), (9, 1), (2**63, 1), (6, 6), (8, 8)])
def test_sampler_at_k_one_and_k_equal_to_n(n, k):
    counts = [700, 0, 1025]
    subsets = joined(experiments._draw_subsets(n, k, shard_run(4, counts)))
    expected = [s for shard, count in enumerate(counts) for s in shard_subsets_oracle(4, shard, n, k, count)]
    assert subsets == expected
    if n == k:
        assert set(subsets) == {tuple(range(1, n + 1))}


def test_largest_draw_at_n_two_to_the_63_does_not_overflow():
    # a faked draw of 2^63 - 1 in every column: step 0 brings 2^63 - 1 to
    # the front, and each later step the value the one before left there
    class MaxGenerator:
        def __init__(self, bitgen):
            pass

        def integers(self, lows, n, size):
            return np.full(size, n - 1, dtype=np.int64)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "Generator", MaxGenerator)
        subsets = joined(experiments._draw_subsets(2**63, 4, shard_run(1, [2, 1])))
    assert subsets == [(1, 2, 3, 2**63)] * 3
    assert all(type(x) is int for x in subsets[0])


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "n, k, h, samples, seed",
    [(200, 4, 5, 3000, 11), (60, 6, 3, 2000, 4), (1000, 4, 10, 1500, 20250809), (2**40, 3, 2, 300, 7)],
)
def test_random_experiment_matches_scalar_sampler_oracle(n, k, h, samples, seed, workers):
    config = ExperimentConfig(n=n, k=k, h=h, samples=samples, seed=seed, workers=workers)
    hist, _ = random_subset_experiment(config)
    jobs = [
        (n, k, h, seed, shard, count)
        for shard, count in enumerate(experiments._shard_sizes(samples, experiments.SHARD_COUNT))
    ]
    assert Counter(hist.counts) == sum(map(random_shard_oracle, jobs), Counter())
    assert hist.total == samples


def test_census_sizes_each_sample_with_one_fold_size_call(monkeypatch):
    # perfbench wraps experiments.fold_size; the census must call it by that name.
    calls = []

    def counting_fold_size(elements, h):
        calls.append(elements)
        return fold_size(elements, h)

    monkeypatch.setattr(experiments, "fold_size", counting_fold_size)
    hist, _ = random_subset_experiment(ExperimentConfig(n=1000, k=4, h=10, samples=2500, seed=3))
    assert len(calls) == hist.total == 2500


@pytest.mark.parametrize("count", [0, 1, 1023, 1024, 1025, 3000])
def test_each_shard_draws_once_per_block(monkeypatch, count):
    sizes = recorded_draws(monkeypatch)
    blocks = -(-count // 1024)
    key = experiments._shard_keys(3)[5]
    shards = ((key, count),)
    experiments._job((experiments._draw_subsets, (1000, 4, shards), partial(experiments._fold_sizes, 10)))
    assert len(sizes) == blocks and sum(rows for (rows, _), _ in sizes) == count
    sizes.clear()
    experiments._job((experiments._draw_subsets, (40, 4, shards), partial(experiments._minima_pairs, 1, 8)))
    assert len(sizes) == blocks and all(size[1] == 4 for size, _ in sizes)


def _size_or_cap(elements, h, cap, size=fold_size):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sumset, "DEFAULT_SIZE_CAP", cap)
        try:
            return size(elements, h)
        except CapExceeded:
            return None


def _unshared_size(elements, h):
    return sumset._fold(elements, h)[0][-1]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-40, 40), min_size=1, max_size=4, unique=True),
    st.integers(1, 6),
    st.integers(1, 30),
    st.integers(1, 12),
    st.integers(1, 3),
    st.integers(1, 400),
)
@example(values=[5], h=3, gap=1, count=10, step=1, cap=10**8)  # k = 2: one-element prefix
@example(values=[0, 7, 9], h=1, gap=1, count=5, step=1, cap=10**8)
@example(values=[0, 7, 9], h=1, gap=1, count=5, step=1, cap=2)  # h = 1 never checks the cap
@example(values=[0, 1], h=4, gap=1, count=6, step=1, cap=13)
def test_shared_prefix_fold_size_matches_unshared_fold(values, h, gap, count, step, cap):
    prefix = tuple(sorted(values))
    tuples = [prefix + (x,) for x in range(prefix[-1] + gap, prefix[-1] + gap + count * step, step)]
    expected = [_size_or_cap(t, h, cap, _unshared_size) for t in tuples]
    folded, masked = [], []
    fold, prefix_masks = sumset._fold, sumset._prefix_masks

    def counting_fold(*args):
        folded.append(args[0])
        return fold(*args)

    def counting_prefix_masks(*args):
        masked.append(args[0])
        return prefix_masks(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sumset, "_fold", counting_fold)
        mp.setattr(sumset, "_prefix_masks", counting_prefix_masks)
        mp.setattr(sumset, "_last_prefix", ((), 0, []))
        assert [_size_or_cap(t, h, cap) for t in tuples] == expected
        # The prefix is folded once; _fold only sizes h = 1 and the
        # tuples whose size exceeds the cap (to raise).
        assert masked == ([] if h == 1 else [prefix])
        assert folded == [t for t, e in zip(tuples, expected) if h == 1 or e is None]
        # A lowered limit sends every tuple (-1), or the widest one, through
        # _fold, which then makes the mask/set choice itself.
        span = h * (tuples[-1][-1] - prefix[0])
        for limit in (-1, span - 1):
            mp.setattr(sumset, "_PREFIX_MEMO_SPAN_LIMIT", limit)
            mp.setattr(sumset, "_last_prefix", ((), 0, []))
            folded.clear()
            assert [_size_or_cap(t, h, cap) for t in tuples] == expected
            if h > 1 and limit == -1:
                assert folded == tuples


def test_census_windows_take_the_prefix_identity(monkeypatch):
    folded = []
    fold = sumset._fold

    def counting_fold(*args):
        folded.append(args[0])
        return fold(*args)

    monkeypatch.setattr(sumset, "_fold", counting_fold)
    limit = sumset._PREFIX_MEMO_SPAN_LIMIT
    assert limit == 1 << 14
    # The widest census window, k = 4, h = 10, d = 999, and the widest span
    # the limit admits, h*d = 2**14, are sized without _fold ...
    for elements, h in (((1, 17, 520, 1000), 10), ((3, 4, 900, 4099), 4)):
        assert h * (elements[-1] - elements[0]) <= limit
        monkeypatch.setattr(sumset, "_last_prefix", ((), 0, []))
        size = fold_size(elements, h)
        assert folded == []
        assert size == fold(elements, h)[0][-1]
    # ... and the first span past it, h*d = 2**14 + 1, goes through _fold.
    elements, h = (0, 5, 17, 3277), 5
    assert h * elements[-1] == limit + 1
    assert fold_size(elements, h) == fold(elements, h)[0][-1]
    assert folded == [elements]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(1, 5), st.integers(1, 20)), min_size=1, max_size=30
    ),
    st.integers(5, 400),
)
def test_fold_size_memo_follows_prefix_and_h(calls, cap):
    # Interleaved prefixes and horizons: a stale prefix or h must never be used.
    prefixes = [(0,), (0, 3), (1, 2), (-4, 0, 5)]
    for i, h, gap in calls:
        elements = prefixes[i] + (prefixes[i][-1] + gap,)
        assert _size_or_cap(elements, h, cap) == _size_or_cap(elements, h, cap, _unshared_size)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_exhaustive_scan_matches_brute_force_and_per_subset_oracle(monkeypatch, k, workers):
    n, h = 10, 3
    jobs = []
    run_sharded = experiments._run_sharded
    monkeypatch.setattr(experiments, "_run_sharded", lambda js, w: jobs.extend(js) or run_sharded(js, w))
    hist = exhaustive_scan(n, k, h, workers=workers)
    expected = brute_scan(n, k, h)
    assert hist.total == binomial(n, k) == sum(expected.values())
    assert Counter(hist.counts) == expected
    # the scan runs one job per first element, each equal to the oracle shard
    firsts = range(1, n - k + 2)
    assert len(jobs) == len(firsts)
    for first, job in zip(firsts, jobs):
        assert experiments._job(job) == scan_shard_oracle((n, k, h, first))


def test_scan_source_yields_the_subsets_with_each_least_element():
    for n in range(1, 13):
        for k in range(1, min(n, 5) + 1):
            for first in range(1, n + 1):
                rests = itertools.combinations(range(first + 1, n + 1), k - 1)
                assert joined(experiments._scan_subsets(n, k, first)) == [(first,) + rest for rest in rests]


def assert_block_source(blocks, expected):
    """Lists of _DRAW_BLOCK subsets, the last possibly shorter and none
    empty, that join to `expected`."""
    assert all(type(block) is list for block in blocks)
    assert all(len(block) == experiments._DRAW_BLOCK for block in blocks[:-1])
    assert all(0 < len(block) <= experiments._DRAW_BLOCK for block in blocks[-1:])
    assert joined(blocks) == expected


def test_sources_yield_full_blocks_but_the_last():
    n, k, first = 30, 4, 1
    blocks = list(experiments._scan_subsets(n, k, first))
    assert [len(block) for block in blocks] == [1024, 1024, 1024, 582]
    rests = itertools.combinations(range(first + 1, n + 1), k - 1)
    assert_block_source(blocks, [(first,) + rest for rest in rests])
    # the first block edge falls inside shard 2, the second inside shard 3,
    # and the second block runs across the edge between them
    counts = [0, 2, 1500, 700, 0]
    blocks = list(experiments._draw_subsets(500, 4, shard_run(9, counts)))
    assert [len(block) for block in blocks] == [1024, 1024, 154]
    expected = [s for shard, count in enumerate(counts) for s in shard_subsets_oracle(9, shard, 500, 4, count)]
    assert_block_source(blocks, expected)
    assert list(experiments._draw_subsets(500, 4, shard_run(9, [0, 0]))) == []


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n=3, k=4, h=2, samples=10)
    with pytest.raises(ValueError):
        ExperimentConfig(n=10, k=4, h=0, samples=10)
    with pytest.raises(ValueError):
        ExperimentConfig(n=10, k=4, h=2, samples=-1)
    with pytest.raises(ValueError):
        ExperimentConfig(n=10, k=4, h=2, samples=1, workers=0)


def test_negative_seed_is_rejected_up_front():
    # numpy would only reject it inside a shard, with its own message
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        ExperimentConfig(n=10, k=3, h=2, samples=5, seed=-1)
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        minima_statistics(50, 4, 10, seed=-3, cap=64)
    assert minima_statistics(50, 4, 10, seed=0, cap=64)["config"]["seed"] == 0


def test_sampled_runs_need_n_at_most_two_to_the_63():
    # the sampler draws int64 values on [j, n): n = 2^63 still runs, and a
    # larger n is rejected before numpy's own bounds error
    big = ExperimentConfig(n=2**63, k=4, h=3, samples=10)
    assert random_subset_experiment(big)[0].total == 10
    assert minima_statistics(2**63, 4, 10, seed=1, cap=16)["minima"][0]["truncated"] == 10
    for n in (2**63 + 1, 2**64):
        with pytest.raises(ValueError, match=r"n <= 2\^63"):
            random_subset_experiment(ExperimentConfig(n=n, k=4, h=3, samples=10))
        with pytest.raises(ValueError, match=r"n <= 2\^63"):
            minima_statistics(n, 4, 10, seed=1, cap=64)
    # exhaustive runs draw nothing; their subset budget is what stops them
    with pytest.raises(CapExceeded):
        random_subset_experiment(ExperimentConfig(n=2**64, k=2, h=2, samples=0))


def test_exhaustive_scan_matches_brute_force():
    hist = exhaustive_scan(12, 3, 2)
    assert hist.total == binomial(12, 3)
    assert Counter(hist.counts) == brute_scan(12, 3, 2)


def test_exhaustive_scan_worker_invariance():
    h1 = exhaustive_scan(14, 3, 3, workers=1)
    h2 = exhaustive_scan(14, 3, 3, workers=3)
    assert h1.counts == h2.counts
    assert h1.total == h2.total


def test_exhaustive_budget(monkeypatch):
    monkeypatch.setattr(experiments, "DEFAULT_SUBSET_BUDGET", 1000)
    with pytest.raises(CapExceeded):
        exhaustive_scan(1000, 4, 6)


def test_exhaustive_scan_rejects_nonpositive_workers():
    for workers in (0, -3):
        with pytest.raises(ValueError):
            exhaustive_scan(10, 3, 2, workers=workers)


def test_random_experiment_deterministic_across_workers():
    base = dict(n=200, k=4, h=6, samples=4000, seed=99)
    hist1, sum1 = random_subset_experiment(ExperimentConfig(**base, workers=1))
    hist2, sum2 = random_subset_experiment(ExperimentConfig(**base, workers=3))
    assert hist1.counts == hist2.counts
    assert sum1["bh_fraction"] == sum2["bh_fraction"]
    assert hist1.total == 4000


def test_random_experiment_seed_changes_output():
    a, _ = random_subset_experiment(ExperimentConfig(n=500, k=4, h=6, samples=500, seed=1))
    b, _ = random_subset_experiment(ExperimentConfig(n=500, k=4, h=6, samples=500, seed=2))
    assert a.counts != b.counts


def test_random_experiment_size_bounds():
    config = ExperimentConfig(n=100, k=4, h=5, samples=1500, seed=5)
    hist, summary = random_subset_experiment(config)
    m = 5 * 4 - 5 + 1
    M = binomial(5 + 3, 3)
    assert all(m <= size <= M for size in hist.counts)
    assert summary["max_size"] == M
    assert sum(hist.counts.values()) == hist.total == 1500


def test_random_experiment_exhaustive_mode():
    config = ExperimentConfig(n=10, k=3, h=2, samples=0)
    hist, summary = random_subset_experiment(config)
    assert hist.total == binomial(10, 3)
    assert Counter(hist.counts) == brute_scan(10, 3, 2)
    assert summary["bh_count"] == hist.counts[binomial(2 + 2, 2)]


def test_histogram_csv_rows():
    hist, _ = random_subset_experiment(ExperimentConfig(n=50, k=3, h=2, samples=100, seed=3))
    rows = hist.to_csv_rows()
    assert sum(r[1] for r in rows) == 100
    assert [r[0] for r in rows] == sorted(r[0] for r in rows)


def test_minima_statistics_basic():
    summary = minima_statistics(50, 4, 120, seed=17, cap=64)
    stats = summary["minima"][0]
    assert stats["found"] + stats["truncated"] == 120
    hist = {int(k): v for k, v in summary["h1_histogram"].items()}
    assert sum(hist.values()) == stats["found"]
    assert all(h1 >= 2 for h1 in hist)  # first minimum is always >= 4


def test_minima_statistics_tiny_universe():
    summary = minima_statistics(10, 4, 40, seed=2, cap=64)
    hist = {int(k): v for k, v in summary["h1_histogram"].items()}
    assert hist and all(h1 >= 2 for h1 in hist)


def test_minima_statistics_k5_cube_root_scaling():
    # the mean first minimum over 5-subsets tracks n**(1/3); finite-size
    # runs sit a little above the asymptotic 5/8 coefficient
    summary = minima_statistics(3000, 5, 300, seed=20250809, cap=128)
    mean = summary["minima"][0]["mean_h"]
    cube = 3000 ** (1 / 3)
    assert 0.5 * cube <= mean <= 0.9 * cube


def test_minima_statistics_worker_invariance():
    a = minima_statistics(100, 4, 150, seed=8, cap=64, workers=1)
    b = minima_statistics(100, 4, 150, seed=8, cap=64, workers=3)
    assert a == b


def test_minima_statistics_two_minima():
    summary = minima_statistics(40, 4, 60, seed=9, cap=128, count=2)
    first, second = summary["minima"]
    assert first["mean_h"] <= second["mean_h"] or second["found"] == 0


def minima_shard_oracle(args):
    """Slow oracle: the per-minimum shard with four parallel lists."""
    n, k, seed, shard, count, cap, minima_count = args
    rng = shard_rng(seed, shard)
    hist: Counter = Counter()
    found = [0] * minima_count
    sums = [0] * minima_count
    sqsums = [0] * minima_count
    truncated = [0] * minima_count
    for _ in range(count):
        A = IntegerSet(sample_subset_oracle(rng, n, k))
        report = find_minima(A, minima_count, max_cap=cap)
        for i in range(minima_count):
            if i < len(report.minima):
                hi = report.minima[i] // 2
                found[i] += 1
                sums[i] += hi
                sqsums[i] += hi * hi
                if i == 0:
                    hist[hi] += 1
            else:
                truncated[i] += 1
    return hist, found, sums, sqsums, truncated


def minima_statistics_oracle(n, k, samples, seed, cap, count):
    """Slow oracle: `minima_statistics` merging the four lists field by field."""
    jobs = [
        (n, k, seed, shard, per, cap, count)
        for shard, per in enumerate(experiments._shard_sizes(samples, experiments.SHARD_COUNT))
    ]
    hist: Counter = Counter()
    found = [0] * count
    sums = [0] * count
    sqsums = [0] * count
    truncated = [0] * count
    for part_hist, part_found, part_sums, part_sq, part_trunc in map(minima_shard_oracle, jobs):
        hist.update(part_hist)
        for i in range(count):
            found[i] += part_found[i]
            sums[i] += part_sums[i]
            sqsums[i] += part_sq[i]
            truncated[i] += part_trunc[i]

    minima_stats = []
    for i in range(count):
        if found[i]:
            mean = sums[i] / found[i]
            var = sqsums[i] / found[i] - mean * mean
            stddev = var**0.5 if var > 0 else 0.0
        else:
            mean = stddev = None
        minima_stats.append(
            {
                "index": i + 1,
                "found": found[i],
                "truncated": truncated[i],
                "truncation_rate": truncated[i] / samples,
                "mean_h": mean,
                "stddev_h": stddev,
            }
        )
    return {
        "config": {"n": n, "k": k, "samples": samples, "seed": seed, "cap": cap, "count": count},
        "minima": minima_stats,
        "h1_histogram": {str(key): hist[key] for key in sorted(hist)},
    }


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "n, k, samples, seed, cap",
    [(40, 4, 90, 9, 16), (300, 5, 80, 3, 12), (60, 6, 70, 5, 8)],
)
def test_minima_statistics_matches_four_list_oracle(n, k, samples, seed, cap, workers):
    truncated = 0
    for count in range(1, k - 1):
        summary = minima_statistics(n, k, samples, seed, cap, count=count, workers=workers)
        assert summary == minima_statistics_oracle(n, k, samples, seed, cap, count)
        truncated += summary["minima"][-1]["truncated"]
    assert truncated  # the cap cuts some samples off


@pytest.mark.parametrize("count", [1, 2])
def test_minima_statistics_matches_oracle_at_benchmark_shape(count):
    # 10^4-element universe and cap 1024, where lambda_2 often lies above
    # the cap; the oracle takes every minimum from find_minima's sweep
    args = (10_000, 4, 300, 20250809, 1024)
    assert minima_statistics(*args, count=count) == minima_statistics_oracle(*args, count)


@pytest.mark.parametrize("workers", [1, 2])
def test_run_sharded_merges_like_a_counter_sum(workers):
    # 3000 samples in runs of 8 contiguous shards, several jobs
    shards = shard_run(11, experiments._shard_sizes(3000, experiments.SHARD_COUNT))
    measure = partial(experiments._minima_pairs, 2, 64)
    jobs = [(experiments._draw_subsets, (500, 4, shards[i : i + 8]), measure) for i in range(0, len(shards), 8)]
    assert len(jobs) > workers
    merged = experiments._run_sharded(jobs, workers)
    summed = sum(map(experiments._job, jobs), Counter())
    assert list(merged.items()) == list(summed.items())


@pytest.mark.parametrize("samples", [0, 1, 63, 64, 300, 1024, 2000, 65_537, 100_000])
def test_shard_runs_cover_every_shard_in_order(monkeypatch, samples):
    calls = []
    monkeypatch.setattr(experiments, "_run_sharded", lambda *call: calls.append(call) or Counter())
    shards = shard_run(5, experiments._shard_sizes(samples, experiments.SHARD_COUNT))
    measure = partial(experiments._fold_sizes, 3)
    for workers in (1, 2, 3, 7, 64, 65, 1000):
        calls.clear()
        experiments._run_sampled(1000, 4, samples, 5, measure, workers)
        [(jobs, passed)] = calls
        assert passed == workers
        # one nonempty run of contiguous shards per worker, up to one per shard
        assert len(jobs) == min(workers, experiments.SHARD_COUNT)
        runs = []
        for draw, (n, k, run), job_measure in jobs:
            assert draw is experiments._draw_subsets and (n, k) == (1000, 4)
            assert run and job_measure is measure
            runs.append(run)
        assert tuple(itertools.chain.from_iterable(runs)) == shards


@pytest.mark.parametrize("samples", [1, 37, 65])
def test_sampled_experiments_do_not_depend_on_workers(samples):
    # fewer samples than shards, or barely more; at 1 sample, some runs draw nothing
    def census(workers):
        config = ExperimentConfig(n=300, k=4, h=5, samples=samples, seed=6, workers=workers)
        hist, summary = random_subset_experiment(config)
        return hist, {key: value for key, value in summary.items() if key != "config"}

    def minstat(workers):
        return minima_statistics(200, 4, samples, 6, 64, count=2, workers=workers)

    for experiment in (census, minstat):
        serial = experiment(1)
        assert all(experiment(workers) == serial for workers in (2, 3))


def test_pool_has_no_more_processes_than_jobs(monkeypatch):
    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialPool)
    serial = exhaustive_scan(14, 4, 3)
    assert exhaustive_scan(14, 4, 3, workers=500) == serial  # 11 jobs, one per first element
    assert pools == [11]
    pools.clear()
    scan_job = (experiments._scan_subsets, (14, 4, 1), partial(experiments._fold_sizes, 3))
    assert experiments._run_sharded([scan_job], 500)
    assert pools == []  # one job runs in this process
    config = ExperimentConfig(n=300, k=4, h=5, samples=37, seed=6, workers=500)
    random_subset_experiment(config)
    assert pools == [experiments.SHARD_COUNT]


@pytest.mark.parametrize("count", [1, 2])
def test_minima_statistics_worker_invariance_at_benchmark_shape(count):
    args = (10_000, 4, 300, 20250809, 1024)
    serial = minima_statistics(*args, count=count, workers=1)
    for workers in (2, 3):
        assert minima_statistics(*args, count=count, workers=workers) == serial


def test_minima_statistics_matches_oracle_past_int64():
    # n = 2^63: elements no int64 holds, every set sized per set
    summary = minima_statistics(2**63, 4, 20, seed=3, cap=64)
    assert summary == minima_statistics_oracle(2**63, 4, 20, 3, 64, 1)


def test_minima_statistics_validation():
    for n, k in ((3, 4), (50, 2), (2, 2)):
        with pytest.raises(ValueError, match="need n >= k >= 3"):
            minima_statistics(n, k, 10, seed=1, cap=64)
    with pytest.raises(ValueError):
        minima_statistics(50, 4, 10, seed=1, cap=63)
    with pytest.raises(ValueError):
        minima_statistics(50, 4, 10, seed=1, cap=64, count=3)
    with pytest.raises(ValueError):
        minima_statistics(50, 4, 0, seed=1, cap=64)
    with pytest.raises(ValueError):
        minima_statistics(50, 4, 10, seed=1, cap=64, workers=0)


def test_type_census_small():
    count, reps = type_census(4, 3, 2)
    assert count == 2
    assert [r.elements for r in reps] == [(1, 2, 3), (1, 2, 4)]


def test_type_census_trivial_cases():
    count, reps = type_census(4, 4, 3)
    assert count == 1
    for n in (3, 5, 7):
        count, _ = type_census(n, 3, 1)
        assert count == 1  # h = 1 tables are always discrete


def test_type_census_monotone_in_n():
    counts = [type_census(n, 3, 2)[0] for n in range(3, 9)]
    assert counts == sorted(counts)


def test_type_census_budget(monkeypatch):
    monkeypatch.setattr(experiments, "DEFAULT_SUBSET_BUDGET", 100)
    with pytest.raises(CapExceeded):
        type_census(100, 4, 2)


def type_census_oracle(n, k, h):
    """Slow oracle: the per-subset census, one h_type call per subset."""
    experiments._subset_count(n, k)
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    for combo in itertools.combinations(range(1, n + 1), k):
        part = h_type(IntegerSet(combo), h)
        if part.class_ids not in seen:
            seen[part.class_ids] = combo
    return len(seen), [IntegerSet(rep) for rep in seen.values()]


def type_census_prefix_oracle(n, k, h):
    """The census from shared prefix sums, one `_partition_by` relabelling
    per subset: the loop `type_census` ran before it was batched."""
    experiments._subset_count(n, k)
    comps = core.enumerate_compositions(h, k)
    heads = [c[:-1] for c in comps]
    lasts = [c[-1] for c in comps]
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    for prefix in itertools.combinations(range(1, n), k - 1):
        pre = [sum(c * p for c, p in zip(head, prefix)) for head in heads]
        for x in range(prefix[-1] + 1 if prefix else 1, n + 1):
            key = _partition_by([s + c * x for s, c in zip(pre, lasts)])
            if key not in seen:
                seen[key] = prefix + (x,)
    return len(seen), [IntegerSet(rep) for rep in seen.values()]


def assert_same_census(census, oracle):
    assert census[0] == oracle[0]
    assert [r.elements for r in census[1]] == [r.elements for r in oracle[1]]


@st.composite
def census_shapes(draw):
    k = draw(st.integers(1, 6))
    return draw(st.integers(k, 12)), k, draw(st.integers(1, 4))


@settings(max_examples=60, deadline=None)
@given(census_shapes())
@example((7, 1, 3))  # k = 1: empty prefix
@example((9, 2, 4))
@example((5, 5, 2))  # k = n: one subset
@example((14, 5, 3))
@example((20, 3, 5))
def test_type_census_matches_per_subset_oracle(shape):
    census = type_census(*shape)
    assert_same_census(census, type_census_oracle(*shape))
    assert_same_census(census, type_census_prefix_oracle(*shape))


@pytest.mark.parametrize("block", [1, 37])
@pytest.mark.parametrize("shape", [(12, 4, 2), (12, 4, 3), (14, 5, 2), (16, 3, 4), (18, 3, 3)])
def test_type_census_blocks_split_prefixes(monkeypatch, block, shape):
    # At 37 entries a block holds 1 to 3 of these subsets, so block ends
    # split (k-1)-prefixes, and the last type to appear lies past the
    # first block.
    monkeypatch.setattr(experiments, "_CENSUS_BLOCK", block)
    n, k, h = shape
    census = type_census(*shape)
    assert_same_census(census, type_census_prefix_oracle(*shape))
    rows = max(1, block // binomial(h + k - 1, k - 1))
    first_block = list(itertools.islice(itertools.combinations(range(1, n + 1), k), rows))
    assert census[1][-1].elements not in first_block


@pytest.mark.parametrize("h, dtype", [(2**62 - 1, np.int64), (2**62, object)])
def test_type_census_sums_in_int64_only_below_two_to_the_63(monkeypatch, h, dtype):
    # The largest sum is h * n: 2^63 - 2 fits in int64, 2^63 does not.
    dtypes = []
    argsort = np.argsort

    def spy(a, *args, **kwargs):
        dtypes.append(a.dtype)
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", spy)
    census = type_census(2, 1, h)
    assert dtypes == [np.dtype(dtype)]
    assert_same_census(census, type_census_prefix_oracle(2, 1, h))


def test_type_census_is_exact_past_int64():
    assert type_census(5, 1, 10**23) == (1, [IntegerSet([1])])


def test_type_census_working_set_is_one_block():
    # Every subset's sums at once would take about 7.5 MiB per array.
    type_census(30, 4, 4)
    tracemalloc.start()
    try:
        type_census(30, 4, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_type_census_enumerates_compositions_once(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (experiments, types):
        monkeypatch.setattr(module, "h_type", counted("h_type", h_type))
        monkeypatch.setattr(module, "enumerate_compositions",
                            counted("compositions", core.enumerate_compositions))
    type_census(12, 4, 3)
    assert calls == Counter({"compositions": 1})


def test_type_census_composition_cap(monkeypatch):
    monkeypatch.setattr(core, "DEFAULT_COMPOSITION_CAP", 34)  # C(4+3, 3) = 35 at h = k = 4
    with pytest.raises(CapExceeded, match="35 compositions"):
        type_census(10, 4, 4)
    monkeypatch.setattr(core, "DEFAULT_COMPOSITION_CAP", 35)
    assert type_census(10, 4, 4)[0] == type_census_oracle(10, 4, 4)[0]


@pytest.mark.parametrize("k, h, message", [
    (3, 0, "h must be positive"),
    (3, -1, "h must be positive"),
    (0, 2, "k must be positive"),
    (-1, 2, "k must be positive"),
])
def test_type_census_rejects_nonpositive_k_and_h(k, h, message):
    with pytest.raises(ValueError, match=message):
        type_census(6, k, h)
