import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumsetlab import sumset
from sumsetlab.core import CapExceeded, IntegerSet, binomial
from sumsetlab.sumset import fold_size, fold_sizes, h_fold_sumset, sumset_profile

GOLDEN_SET = IntegerSet([0, 2, 18, 25])
GOLDEN_SIZES = (4, 10, 20, 34, 52, 74, 100, 130, 162, 193, 222, 249)
GOLDEN_DEFICITS = (0, 0, 0, 1, 4, 10, 20, 35, 58, 93, 142, 206)
GOLDEN_DIFFS = (0, 0, 1, 3, 6, 10, 15, 23, 35, 49, 64)


def brute_sumset(A, h):
    """Oracle: all sums of ordered h-tuples, k**h of them."""
    return {sum(t) for t in itertools.product(A.elements, repeat=h)}


def iterated_sumsets(A, h):
    """Oracle: [1A, ..., hA] from jA = (j-1)A + A, on the elements
    themselves; k*|(j-1)A| sums per step instead of k**j."""
    out = [set(A.elements)]
    for _ in range(h - 1):
        out.append({s + a for s in out[-1] for a in A.elements})
    return out


def test_h1_is_identity():
    assert h_fold_sumset(GOLDEN_SET, 1) == GOLDEN_SET


def test_golden_two_fold():
    assert h_fold_sumset(GOLDEN_SET, 2).k == 10


def test_ap_reaches_diameter_bound():
    assert h_fold_sumset(IntegerSet([0, 1, 2]), 3).elements == tuple(range(7))


def test_singleton_set():
    assert h_fold_sumset(IntegerSet([5]), 3).elements == (15,)
    assert fold_sizes((5,), 4) == [1, 1, 1, 1]


def test_matches_tuple_oracle():
    rng = random.Random(99)
    for _ in range(60):
        k = rng.randint(2, 5)
        A = IntegerSet(rng.sample(range(0, 61), k))
        for h in range(1, 7):
            expected = brute_sumset(A, h)
            got = h_fold_sumset(A, h)
            assert set(got.elements) == expected
            assert fold_size(A.elements, h) == len(expected)


def test_negative_elements_and_sparse_path():
    A = IntegerSet([-7, 0, 5])
    assert set(h_fold_sumset(A, 2).elements) == brute_sumset(A, 2)
    # span above the bitmask limit exercises the set-based fallback
    B = IntegerSet([0, 1, 1 << 30])
    assert set(h_fold_sumset(B, 2).elements) == brute_sumset(B, 2)
    assert fold_sizes(B.elements, 2) == [3, 6]


def test_size_cap_enforced(monkeypatch):
    monkeypatch.setattr(sumset, "DEFAULT_SIZE_CAP", 100)
    with pytest.raises(CapExceeded):
        h_fold_sumset(IntegerSet(range(61)), 2)
    monkeypatch.setattr(sumset, "DEFAULT_SIZE_CAP", 2)
    with pytest.raises(CapExceeded):
        # sparse path checks the cap per fold step as well
        h_fold_sumset(IntegerSet([0, 1, 1 << 30]), 2)


def test_profile_golden_table():
    p = sumset_profile(GOLDEN_SET, 12)
    assert p.sizes == GOLDEN_SIZES
    assert p.deficits == GOLDEN_DEFICITS
    assert p.deficit_first_differences == GOLDEN_DIFFS
    assert p.bh_threshold == 3
    assert p.linear_intercept is None  # horizon 12 is inside the quadratic regime


def test_profile_ap_linear_regime():
    p = sumset_profile(IntegerSet([0, 1, 2, 3]), 5)
    assert p.sizes == (4, 7, 10, 13, 16)
    assert p.bh_threshold == 1
    assert p.linear_intercept == 1
    assert all(d2 >= d1 for d1, d2 in zip(p.deficits, p.deficits[1:]))


def test_profile_rejects_bad_input():
    with pytest.raises(ValueError):
        sumset_profile(IntegerSet([3]), 4)
    with pytest.raises(ValueError):
        sumset_profile(GOLDEN_SET, 0)


def test_profile_invariants_random():
    rng = random.Random(123)
    for _ in range(30):
        k = rng.randint(2, 5)
        A = IntegerSet(rng.sample(range(0, 80), k))
        H = rng.randint(2, 9)
        p = sumset_profile(A, H)
        for h in range(1, H + 1):
            size = p.sizes[h - 1]
            assert size <= h * A.diam + 1
            assert size <= binomial(h + k - 1, k - 1)
            assert p.deficits[h - 1] >= 0
        assert all(s2 > s1 for s1, s2 in zip(p.sizes, p.sizes[1:]))
        assert all(d2 >= d1 for d1, d2 in zip(p.deficits, p.deficits[1:]))
        # zero deficits form a prefix ending at bh_threshold
        zeros = [h for h in range(1, H + 1) if p.deficits[h - 1] == 0]
        assert zeros == list(range(1, p.bh_threshold + 1))


def test_profile_serialization_field_names():
    d = sumset_profile(GOLDEN_SET, 4).to_dict()
    for field in ("sizes", "deficits", "deficit_first_differences", "bh_threshold", "linear_intercept"):
        assert field in d


def test_profile_intercept_uses_normalized_slope():
    # differences with gcd 2: the linear regime has slope diam/2, not diam
    assert sumset_profile(IntegerSet([0, 2, 4]), 20).linear_intercept == 1  # |hA| = 2h + 1
    assert sumset_profile(IntegerSet([0, 2, 6]), 20).linear_intercept == 0  # |hA| = 3h
    assert sumset_profile(IntegerSet([0, 1, 3]), 20).linear_intercept == 0


def test_every_caller_rejects_nonpositive_h():
    for h in (0, -1):
        with pytest.raises(ValueError):
            fold_size((0, 1, 3), h)
        with pytest.raises(ValueError):
            fold_sizes((0, 1, 3), h)
        with pytest.raises(ValueError):
            h_fold_sumset(IntegerSet([0, 1, 3]), h)


def _fold_outcome(A, h):
    """_fold's sizes and final offset set, and hA from h_fold_sumset, or
    None when they hit the cap."""
    try:
        sizes, final = sumset._fold(A.elements, h)
        hA = set(h_fold_sumset(A, h).elements)
    except CapExceeded:
        return None
    if not isinstance(final, set):
        final = {i for i in range(final.bit_length()) if final >> i & 1}
    return sizes, final, hA


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-40, 40), min_size=1, max_size=5, unique=True),
    st.integers(1, 5),
    st.integers(1, 80),
)
# a 20001-bit window, which h_fold_sumset decodes in one pass
@example([0, 1, 5, 97, 1000], 20, 100_000)
def test_fold_bitmask_and_set_paths_match_oracle(values, h, cap):
    A = IntegerSet(values)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sumset, "DEFAULT_SIZE_CAP", cap)
        bitmask = _fold_outcome(A, h)
        assert isinstance(sumset._fold(A.elements, 1)[1], int)
        mp.setattr(sumset, "_BITMASK_SPAN_LIMIT", -1)
        assert isinstance(sumset._fold(A.elements, 1)[1], set)
        sets = _fold_outcome(A, h)
    assert bitmask == sets

    sums = iterated_sumsets(A, h)
    expected = [len(jA) for jA in sums]
    if max(expected[1:], default=0) > cap:
        assert bitmask is None  # both paths raise CapExceeded
    else:
        hA = sums[-1]
        assert bitmask == (expected, {s - h * A.elements[0] for s in hA}, hA)
