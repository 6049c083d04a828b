import random
from fractions import Fraction

import pytest

from sumsetlab import types
from sumsetlab.cli import main
from sumsetlab.core import CapExceeded, IntegerSet, RationalSet, binomial
from sumsetlab.sumset import fold_size
from sumsetlab.types import (
    LogLinear,
    PrecisionExhaustedError,
    _factorize,
    embed_real_to_integers,
    h_type,
    product_to_sum,
    product_type,
    separation,
    sum_to_product,
)


def test_h_type_small_ap():
    part = h_type(IntegerSet([0, 1, 2]), 2)
    # sums over lex compositions: 4, 3, 2, 2, 1, 0 -> ids by first appearance
    assert part.class_count == 5
    assert part.class_ids == (0, 1, 2, 2, 3, 4)


def test_h_type_bh_sets_are_discrete():
    # a B_h set has all classes singletons
    A = IntegerSet([0, 1, 10, 100])
    part = h_type(A, 2)
    assert part.class_count == binomial(2 + 3, 3) == len(part.class_ids)


def test_h_type_golden_table_value():
    assert h_type(IntegerSet([0, 2, 18, 25]), 4).class_count == 34


def test_h_type_class_count_equals_sumset_size():
    rng = random.Random(11)
    for _ in range(30):
        k = rng.randint(2, 5)
        A = IntegerSet(rng.sample(range(0, 60), k))
        for h in (1, 2, 3):
            assert h_type(A, h).class_count == fold_size(A.elements, h)


def test_h_type_affine_invariance():
    rng = random.Random(22)
    for _ in range(20):
        A = IntegerSet(rng.sample(range(-40, 40), 4))
        shift = rng.randint(-50, 50)
        scale = rng.randint(1, 9)
        B = IntegerSet(scale * a + shift for a in A.elements)
        for h in (2, 3):
            assert h_type(A, h) == h_type(B, h)


def test_h_type_serialization_is_canonical():
    a = h_type(IntegerSet([0, 1, 2]), 2).to_dict()
    b = h_type(IntegerSet([5, 7, 9]), 2).to_dict()
    assert a == b


def test_separation_golden():
    assert separation(RationalSet([0, 1, 3]), 1) == 1
    assert separation(RationalSet([0, Fraction(1, 2), 2]), 2) == Fraction(1, 2)


def test_separation_monotone_in_h():
    X = RationalSet([0, 1, 3])
    seps = [separation(X, h) for h in (1, 2, 3, 4)]
    assert all(s1 >= s2 for s1, s2 in zip(seps, seps[1:]))


def test_separation_undefined_for_singleton():
    with pytest.raises(ValueError):
        separation(RationalSet([Fraction(3, 7)]), 2)


def test_embed_golden_half_integers():
    X = RationalSet([0, Fraction(1, 2), 1])
    A, trace = embed_real_to_integers(X, 2)
    assert h_type(A, 2) == h_type(IntegerSet([0, 1, 2]), 2)
    assert trace.epsilons[0] == 0 and trace.epsilons[-1] == 0


def test_embed_integer_input_is_type_fixed_point():
    A0 = IntegerSet([0, 3, 7, 9])
    for h in (1, 2, 3):
        A, _ = embed_real_to_integers(A0, h)
        assert h_type(A, h) == h_type(A0, h)


def test_embed_three_sevenths():
    X = RationalSet([0, Fraction(1, 3), Fraction(5, 7), 1])
    A, trace = embed_real_to_integers(X, 3)
    assert h_type(A, 3) == h_type(X, 3)


def test_embed_trace_invariants():
    rng = random.Random(33)
    for _ in range(40):
        k = rng.randint(2, 5)
        h = rng.randint(1, 4)
        vals = set()
        while len(vals) < k:
            vals.add(Fraction(rng.randint(-60, 60), rng.randint(1, 30)))
        X = RationalSet(vals)
        A, trace = embed_real_to_integers(X, h)
        assert h_type(A, h) == h_type(X, h)
        assert trace.epsilons[0] == 0 and trace.epsilons[-1] == 0
        bound = Fraction(1, 2 * h)
        assert all(abs(e) < bound for e in trace.epsilons)
        assert A.elements[0] >= 0
        # q0 is large enough for the separation of the normalized set
        lo, hi = X.elements[0], X.elements[-1]
        norm = RationalSet([Fraction(x - lo) / (hi - lo) for x in X.elements])
        assert separation(norm, h) * trace.q0 >= 2
        # the dilation reproduces the members exactly
        for x, a, e in zip(norm.elements, A.elements, trace.epsilons):
            assert trace.Q * x == a + e


def test_embed_two_elements():
    A, trace = embed_real_to_integers(RationalSet([Fraction(1, 3), Fraction(2, 3)]), 3)
    assert A.k == 2
    assert h_type(A, 3).class_count == 4


def _smallest_passing_dilation_budget(monkeypatch, run, expected):
    """Lower DILATION_STEP_BUDGET from 1 until `run` stops raising
    CapExceeded; the first budget that passes must reproduce `expected`."""
    for budget in range(1, 1000):
        monkeypatch.setattr(types, "DILATION_STEP_BUDGET", budget)
        try:
            result = run()
        except CapExceeded:
            continue
        assert result == expected
        return budget
    raise AssertionError("no budget below 1000 steps passed")


def test_dilation_step_budget(monkeypatch, capsys):
    X = RationalSet([0, Fraction(1, 97), Fraction(3, 89), 1])
    P = IntegerSet([3, 5, 7])
    embedded, transported = embed_real_to_integers(X, 3), product_to_sum(P, 2)
    # the scans collide at steps 10 and 9, counting from step 0
    assert _smallest_passing_dilation_budget(
        monkeypatch, lambda: embed_real_to_integers(X, 3), embedded) == 11
    assert _smallest_passing_dilation_budget(
        monkeypatch, lambda: product_to_sum(P, 2), transported) == 10
    monkeypatch.setattr(types, "DILATION_STEP_BUDGET", 1)
    assert main(["types", "embed", "--set", "0,1/3,5/7,1", "--h", "3"]) == 1
    assert main(["types", "to-sum", "--set", "2,3,4,6", "--h", "2"]) == 1
    assert capsys.readouterr().err.count("dilation steps") == 2


def test_sum_to_product_golden():
    assert sum_to_product(IntegerSet([0, 1, 2])).elements == (1, 2, 4)
    assert sum_to_product(IntegerSet([1, 3])).elements == (2, 8)


def test_sum_to_product_type_identity():
    S = IntegerSet([1, 2, 3])
    P = sum_to_product(S)
    for h in (1, 2, 3):
        assert product_type(P, h) == h_type(S, h)


def test_sum_to_product_budget():
    with pytest.raises(CapExceeded):
        sum_to_product(IntegerSet([1, 2_000_000]))
    with pytest.raises(ValueError):
        sum_to_product(IntegerSet([-1, 2]))


def test_product_type_golden():
    assert product_type(IntegerSet([1, 2, 4]), 2).class_count == 5
    assert product_type(IntegerSet([2, 3, 5, 7]), 2).class_count == binomial(5, 3) == 10
    assert product_type(IntegerSet([2, 4, 8, 16]), 2) == h_type(IntegerSet([1, 2, 3, 4]), 2)


def test_product_type_needs_positive():
    with pytest.raises(ValueError):
        product_type(IntegerSet([0, 2]), 2)


def test_factorize():
    assert _factorize(360) == {2: 3, 3: 2, 5: 1}
    assert _factorize(97) == {97: 1}


def test_factorize_budget(monkeypatch):
    mersenne = 2**61 - 1  # prime: trial division would run to 2**30.5
    with pytest.raises(CapExceeded):
        _factorize(mersenne)
    with pytest.raises(CapExceeded):
        product_to_sum(IntegerSet([2, mersenne]), 1)
    # within budget: every prime factor found, the cofactor certified prime
    assert _factorize(1999993 * 1999993) == {1999993: 2}
    assert _factorize(2**40 * 3**5 * 1_000_003) == {2: 40, 3: 5, 1_000_003: 1}

    # budget 3 allows the trial divisors 2, 3 and 5
    monkeypatch.setattr(types, "FACTOR_TRIAL_BUDGET", 3)
    assert _factorize(2**5 * 3 * 25) == {2: 5, 3: 1, 5: 2}
    assert _factorize(2 * 3 * 5 * 7) == {2: 1, 3: 1, 5: 1, 7: 1}
    assert _factorize(29) == {29: 1}
    for needs_seven in (49, 7 * 11, 11 * 13):
        with pytest.raises(CapExceeded):
            _factorize(needs_seven)


def test_to_sum_budget_is_a_computation_error(capsys):
    assert main(["types", "to-sum", "--set", f"2,{2**61 - 1}", "--h", "1"]) == 1
    assert "trial divisors" in capsys.readouterr().err


def test_log_linear_floor_and_rational_path():
    x = LogLinear.log2_of(8)
    assert x.is_rational and x.rat == 3
    y = LogLinear.log2_of(10)  # 1 + log2(5)
    assert y.floor() == 3
    assert LogLinear.log2_of(3).scaled(100).floor() == 158  # 100*log2(3) = 158.49...


def test_precision_exhausted_error(monkeypatch, capsys):
    x = LogLinear.log2_of(27)  # 3*log2(3) = 4.75...
    near_zero = x.minus(LogLinear.log2_of(24))  # log2(9/8) = 0.17...
    assert x.floor() == 4 and near_zero.sign_lower_bound() > 0
    # at 2 bits the interval around each log2(3) is 1/2 wide
    monkeypatch.setattr(types, "PRECISION_SCHEDULE", (2,))
    for query in (x.floor, near_zero.sign_lower_bound):
        with pytest.raises(PrecisionExhaustedError) as exc:
            query()
        assert exc.value.attempted == (2,)
        assert isinstance(exc.value, CapExceeded)
        assert "(attempted precisions: [2])" in str(exc.value)
    assert main(["types", "to-sum", "--set", "2,3,4,6", "--h", "2"]) == 1
    assert "attempted precisions" in capsys.readouterr().err


def test_product_to_sum_geometric():
    # geometric progressions carry the type of arithmetic progressions
    A = product_to_sum(IntegerSet([2, 8, 32]), 2)
    assert h_type(A, 2) == h_type(IntegerSet([1, 3, 5]), 2)
    B = product_to_sum(IntegerSet([1, 2, 4, 8]), 3)
    assert h_type(B, 3) == h_type(IntegerSet([0, 1, 2, 3]), 3)


def test_product_to_sum_b2():
    # products of {2,3,4} pairs are 4,6,8,9,12,16: all distinct
    A = product_to_sum(IntegerSet([2, 3, 4]), 2)
    assert h_type(A, 2).class_count == 6


def test_product_to_sum_with_coincidences():
    # sets with true multiplicative relations must keep them additively
    for elems, h in [((2, 3, 4, 6), 2), ((2, 4, 8), 2), ((4, 6, 9), 2),
                     ((3, 9, 27), 2), ((2, 3, 4, 6, 9), 3), ((2, 3, 12, 18), 2)]:
        P = IntegerSet(elems)
        A = product_to_sum(P, h)
        assert h_type(A, h) == product_type(P, h), (elems, h)


def test_product_to_sum_random():
    rng = random.Random(44)
    for _ in range(25):
        k = rng.randint(2, 5)
        h = rng.randint(1, 3)
        P = IntegerSet(rng.sample(range(1, 41), k))
        A = product_to_sum(P, h)
        assert h_type(A, h) == product_type(P, h)


def test_round_trip_sum_product_sum():
    rng = random.Random(55)
    for _ in range(15):
        k = rng.randint(2, 4)
        h = rng.randint(1, 3)
        S = IntegerSet(rng.sample(range(0, 25), k))
        P = sum_to_product(S)
        A = product_to_sum(P, h)
        assert h_type(A, h) == h_type(S, h)


def test_equal_types_equal_sizes():
    # the class count is a function of the partition alone
    X = RationalSet([0, Fraction(1, 4), 1])
    A, _ = embed_real_to_integers(X, 2)
    tx, ta = h_type(X, 2), h_type(A, 2)
    assert tx == ta
    assert tx.class_count == ta.class_count
