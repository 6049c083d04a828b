import random

import pytest

from sumsetlab.core import IntegerSet, binomial, enumerate_compositions
from sumsetlab.lattice import find_minima, lattice_shells
from sumsetlab.sumset import fold_size, fold_sizes
from sumsetlab.theory import (
    MinimaTruncatedError,
    construct_cute_set,
    construct_lemma_set,
    extreme_and_realizable,
    popular_sizes,
    predicted_size,
    verify_main_theorem,
)


def test_predicted_size_golden():
    assert predicted_size(3, 4, 4) == 20
    assert predicted_size(5, 4, 4) == 52
    assert predicted_size(6, 4, 4) == 74 == 2 * (6**2 + 1)


def test_predicted_size_below_first_minimum():
    # for h < h1 the correction binomial vanishes by convention
    for k in range(4, 9):
        for h1 in range(2, 7):
            for h in range(1, h1):
                assert predicted_size(h, k, h1) == binomial(h + k - 1, k - 1)


def test_predicted_deficit_difference_identity():
    # the predicted deficit gains C(h-h1+k-2, k-2) at each step
    for k in range(4, 9):
        for h1 in range(2, 7):
            prev = 0
            for h in range(1, 31):
                deficit = binomial(h + k - 1, k - 1) - predicted_size(h, k, h1)
                assert deficit - prev == binomial(h - h1 + k - 2, k - 2)
                prev = deficit


def test_predicted_size_counts_compositions_not_dominating():
    # |hA| counts the compositions c of h with c_i < u_i for some i, where
    # u is any composition of h1 (the positive part of the first minimizer
    # has this form); none dominate u while h < h1
    rng = random.Random(21)
    for k in range(4, 7):
        for h1 in range(2, 6):
            for u in rng.sample(enumerate_compositions(h1, k), 3):
                for h in range(1, 11):
                    count = sum(
                        any(ci < ui for ci, ui in zip(c, u))
                        for c in enumerate_compositions(h, k)
                    )
                    assert predicted_size(h, k, h1) == count, (h, k, h1, u)


def test_predicted_size_validation():
    with pytest.raises(ValueError):
        predicted_size(0, 4, 4)
    with pytest.raises(ValueError):
        predicted_size(3, 3, 4)
    with pytest.raises(ValueError):
        predicted_size(3, 4, 1)


def test_verify_golden_sets():
    rep = verify_main_theorem(IntegerSet([0, 2, 18, 25]))
    assert (rep.h1, rep.h2) == (4, 9)
    assert rep.all_match
    assert [h for h, *_ in rep.per_h] == list(range(1, 9))

    rep = verify_main_theorem(IntegerSet([1, 5, 96, 100]))
    assert (rep.h1, rep.h2) == (2, 95)
    assert rep.all_match
    assert len(rep.per_h) == 94


def test_verify_random_small():
    rng = random.Random(31337)
    for _ in range(25):
        A = IntegerSet(rng.sample(range(1, 120), 4))
        assert verify_main_theorem(A).all_match


def test_verify_truncation_error():
    # a truncated report swept max_cap itself, so the message names it
    with pytest.raises(MinimaTruncatedError, match=r"exceeds cap 64$"):
        verify_main_theorem(IntegerSet([1, 5, 96, 100]), max_cap=64)


def test_verify_rejects_small_k():
    with pytest.raises(ValueError):
        verify_main_theorem(IntegerSet([1, 2, 3]))


def test_lemma_set_formulas():
    assert construct_lemma_set(2, 3).elements == (0, 1, 3, 4)
    assert construct_lemma_set(3, 5).elements == (0, 1, 9, 11)
    assert construct_lemma_set(2, 3, 5).elements == (0, 1, 3, 4, 24)


def test_lemma_set_validation():
    with pytest.raises(ValueError):
        construct_lemma_set(1, 3)
    with pytest.raises(ValueError):
        construct_lemma_set(3, 2)
    with pytest.raises(ValueError):
        construct_lemma_set(2, 3, 3)


def test_lemma_set_minima_and_minimizer():
    for a in range(2, 5):
        for b in range(a, 5):
            for k in (4, 5):
                A = construct_lemma_set(a, b, k)
                rep = find_minima(A, 2, max_cap=64)
                assert rep.minima == (2 * a, 2 * b), (a, b, k)
                expected = tuple([1 - a, a - 1, 1, -1] + [0] * (k - 4))
                flipped = tuple(-x for x in expected)
                if a < b:
                    assert rep.minimizers[0] in (expected, flipped)
                else:
                    # the first shell carries several minimizers when a = b;
                    # the canonical vector must still be among them
                    shell = lattice_shells(A, 2 * a)[2 * a]
                    assert expected in shell or flipped in shell


def test_cute_set_formulas():
    assert construct_cute_set(5).elements == (0, 1, 16, 19)
    assert construct_cute_set(2).elements == (0, 1, 7, 10)
    with pytest.raises(ValueError):
        construct_cute_set(1)


def test_cute_set_sizes_follow_quadratic():
    for b in range(2, 6):
        A = construct_cute_set(b)
        sizes = fold_sizes(A.elements, b)
        assert sizes == [2 * (h * h + 1) for h in range(1, b + 1)]


def test_extremes_golden():
    m, M, realizable = extreme_and_realizable(10, 4)
    assert (m, M) == (31, 286)
    sizes = [s for s, _ in realizable]
    assert sizes[0] == 286
    assert set(sizes) >= {282, 276, 266, 251, 230, 202, 166, 121, 285}
    assert sizes == sorted(sizes, reverse=True)

    m, M, _ = extreme_and_realizable(2, 3)
    assert (m, M) == (5, 6)


def test_extremes_witnesses_brute_checked():
    for h, k in [(5, 4), (4, 5), (1, 4)]:
        _, M, realizable = extreme_and_realizable(h, k)
        for size, witness in realizable:
            assert fold_size(witness.elements, h) == size, (h, k, size, witness)


def test_extremes_realizable_sizes_are_popular_sizes():
    for k in range(4, 7):
        for h in range(1, 9):
            _, M, realizable = extreme_and_realizable(h, k)
            assert realizable[0][0] == M
            assert [size for size, _ in realizable[1:]] == popular_sizes(h, k), (h, k)


def test_extremes_small_k_witnesses():
    for h in (2, 5):
        for k in (2, 3):
            m, M, realizable = extreme_and_realizable(h, k)
            assert m == h * k - h + 1
            (size, witness), = realizable
            assert size == M
            assert fold_size(witness.elements, h) == M


def test_maximum_witness_is_bh():
    _, M, realizable = extreme_and_realizable(10, 4)
    size, witness = realizable[0]
    assert fold_size(witness.elements, 10) == 286 == M


def test_popular_sizes():
    assert popular_sizes(10, 4) == [285, 282, 276, 266, 251, 230, 202, 166, 121]
    assert popular_sizes(6, 4) == [83, 80, 74, 64, 49]
    assert popular_sizes(1, 4) == []
