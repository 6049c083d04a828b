import copy
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest

from sumsetlab import core
from sumsetlab.core import (
    CapExceeded,
    IntegerSet,
    RationalSet,
    binomial,
    composition_count,
    enumerate_compositions,
    normalize,
)
from sumsetlab.sumset import fold_size


def test_binomial_small_values():
    assert binomial(5, 3) == 10
    assert binomial(13, 3) == 286
    assert binomial(0, 0) == 1


def test_binomial_vanishing_convention():
    assert binomial(2, 3) == 0
    assert binomial(-1, 2) == 0
    assert binomial(-5, 0) == 0


def test_binomial_rejects_negative_r():
    with pytest.raises(ValueError):
        binomial(5, -1)


def test_compositions_unit_vectors():
    comps = enumerate_compositions(1, 3)
    assert comps == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_compositions_lex_order_and_counts():
    for t, k in [(2, 2), (10, 4), (0, 3), (5, 1), (4, 5)]:
        comps = enumerate_compositions(t, k)
        assert len(comps) == composition_count(t, k)
        assert comps == sorted(comps)
        assert len(set(comps)) == len(comps)
        for c in comps:
            assert len(c) == k
            assert sum(c) == t
            assert all(x >= 0 for x in c)
    assert composition_count(2, 2) == 3
    assert composition_count(10, 4) == 286


def recursive_compositions(t: int, k: int) -> list[tuple[int, ...]]:
    """enumerate_compositions as it was before it stopped recursing once
    per coordinate; its enumeration copied verbatim."""
    out: list[tuple[int, ...]] = []
    vec = [0] * k

    def fill(i: int, rem: int) -> None:
        if i == k - 1:
            vec[i] = rem
            out.append(tuple(vec))
            return
        for c in range(rem + 1):
            vec[i] = c
            fill(i + 1, rem - c)

    fill(0, t)
    return out


def test_compositions_match_recursive_oracle():
    for t in range(0, 9):
        for k in range(1, 9):
            assert enumerate_compositions(t, k) == recursive_compositions(t, k), (t, k)
    for t, k in [(20, 3), (12, 4), (1, 300), (3, 40), (0, 500)]:
        assert enumerate_compositions(t, k) == recursive_compositions(t, k), (t, k)


def test_compositions_of_many_coordinates():
    # one coordinate per stack frame overflowed the recursion limit here
    comps = enumerate_compositions(1, 2000)
    assert len(comps) == 2000
    assert comps[0] == (0,) * 1999 + (1,) and comps[-1] == (1,) + (0,) * 1999
    assert comps == sorted(comps)
    assert enumerate_compositions(0, 5000) == [(0,) * 5000]


def test_compositions_cap(monkeypatch):
    monkeypatch.setattr(core, "DEFAULT_COMPOSITION_CAP", 1000)
    with pytest.raises(CapExceeded):
        enumerate_compositions(100, 6)


def test_integer_set_sorts_and_dedupes():
    A = IntegerSet([25, 0, 18, 2, 18])
    assert A.elements == (0, 2, 18, 25)
    assert A.k == 4
    assert A.diam == 25
    assert 18 in A
    assert A == IntegerSet.from_text("0,2,18,25")


@pytest.mark.parametrize("cls", [IntegerSet, RationalSet])
def test_integer_set_immutable_and_nonempty(cls):
    A = cls([1, 2])
    with pytest.raises(AttributeError, match=f"{cls.__name__} is immutable"):
        A.elements = (3,)
    with pytest.raises(ValueError, match=f"{cls.__name__} needs at least one element"):
        cls([])
    assert A == cls([2, 1, 2]) and hash(A) == hash(cls([2, 1]))
    assert len(A) == A.k == 2 and list(A) == [1, 2] and A[-1] == 2
    assert cls.from_text("2,1") == A


@pytest.mark.parametrize("A", [IntegerSet([2, -7, 5]), RationalSet(["1/2", -3, 4])])
def test_sets_survive_pickle_and_copy(A):
    restored = [
        pickle.loads(pickle.dumps(A, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ] + [copy.copy(A), copy.deepcopy(A), copy.deepcopy([A, A])[1]]
    for B in restored:
        assert type(B) is type(A) and B == A and B.elements == A.elements
        with pytest.raises(AttributeError, match="immutable"):
            B.elements = (0,)


def test_set_classes_never_compare_equal():
    assert IntegerSet([1, 2]) != RationalSet([1, 2])
    assert RationalSet([1, 2]) != IntegerSet([1, 2])
    assert RationalSet.from_text("1/2,-3").k == 2


def test_integer_set_rejects_non_integral_values():
    for values in ([0.5, 1.7, 3], [0, Fraction(1, 2)], [np.float64(2.25), 4]):
        with pytest.raises(ValueError):
            IntegerSet(values)
    # integral values of any numeric type are accepted as before
    A = IntegerSet([3.0, Fraction(6, 2), np.int64(5), True])
    assert A.elements == (1, 3, 5)
    assert all(type(x) is int for x in A.elements)


@pytest.mark.parametrize("cls", [IntegerSet, RationalSet])
@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan"), np.float64("inf")])
def test_sets_reject_non_finite_values(cls, bad):
    with pytest.raises(ValueError, match=f"^{cls.__name__} needs "):
        cls([1, bad])


def test_rational_set_rejects_bad_strings_and_takes_finite_floats():
    with pytest.raises(ValueError, match="^RationalSet needs finite rational values"):
        RationalSet(["1/2", "x"])
    assert RationalSet([0.5, 2]).elements == (Fraction(1, 2), Fraction(2))


def test_rational_set_parses_fractions():
    X = RationalSet.from_text("0,1/2,2")
    assert [str(x) for x in X.elements] == ["0", "1/2", "2"]
    assert X.k == 3


def test_normalize_golden():
    assert normalize(IntegerSet([2, 4, 6])).elements == (0, 1, 2)
    assert normalize(IntegerSet([0, 2, 18, 25])).elements == (0, 2, 18, 25)
    assert normalize(IntegerSet([10, 20, 40])).elements == (0, 1, 3)


def test_normalize_idempotent_and_k1_error():
    A = IntegerSet([7, 21, 35])
    assert normalize(normalize(A)) == normalize(A)
    with pytest.raises(ValueError):
        normalize(IntegerSet([5]))


def test_normalize_preserves_sumset_sizes():
    rng = random.Random(4711)
    for _ in range(40):
        k = rng.randint(2, 5)
        A = IntegerSet(rng.sample(range(-100, 101), k))
        B = normalize(A)
        for h in range(1, 7):
            assert fold_size(A.elements, h) == fold_size(B.elements, h)
