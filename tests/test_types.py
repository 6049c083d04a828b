import functools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sumsetlab
from sumsetlab import types
from sumsetlab.cli import main
from sumsetlab.core import CapExceeded, IntegerSet, RationalSet, binomial, enumerate_compositions
from sumsetlab.sumset import fold_size
from sumsetlab.types import (
    LogLinear,
    PrecisionExhaustedError,
    _collision_dilation,
    _fraction_floor_residues,
    _log2_bounds,
    _q0,
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


def test_h_type_of_many_elements():
    # enumerate_compositions once recursed per coordinate, so k ~ 1000
    # overflowed the recursion limit
    assert h_type(IntegerSet(range(1, 1500)), 1).class_count == 1499


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


# Oracle: the box-collision scan as it was when it took one exact floor
# per value per step. Copied verbatim except for the name and the budget,
# which it reads from the types module at call time.


def oracle_collision_dilation(values, floor_scaled, q0: int, h: int) -> int:
    """A dilation Q, a positive multiple of q0, with every Q*v within
    1/(2h) of an integer. The fractional parts of q*q0*v, q = 0, 1, ...,
    are binned into boxes of side 1/(2h) (floor_scaled(v, m) is floor(m*v));
    when step q revisits the box of step p, Q = (q - p)*q0. Raises
    CapExceeded after DILATION_STEP_BUDGET steps without a collision."""
    twoh = 2 * h
    seen: dict[tuple[int, ...], int] = {}
    for q in range(types.DILATION_STEP_BUDGET):
        scale = q * q0 * twoh
        box = tuple(floor_scaled(v, scale) % twoh for v in values)
        if box in seen:
            return (q - seen[box]) * q0
        seen[box] = q
    raise CapExceeded(f"no box collision within {types.DILATION_STEP_BUDGET} dilation steps")


def _floor_fraction(x: Fraction, m: int) -> int:
    return m * x.numerator // x.denominator


# Oracle: embed_real_to_integers as it was when it rounded each Q*x
# through _nearest_int, before both transports rounded by the floor of
# 2*Q*x. Copied verbatim except for the names.


def _oracle_nearest_int(v: Fraction) -> int:
    # floor(v + 1/2); callers guarantee v is never exactly half-integral
    return (2 * v.numerator + v.denominator) // (2 * v.denominator)


def oracle_embed_real_to_integers(X, h: int):
    if h < 1:
        raise ValueError("h must be positive")
    k = len(X.elements)
    if k < 2:
        raise ValueError("embedding needs at least two elements")
    lo, hi = X.elements[0], X.elements[-1]
    xs = [Fraction(x - lo, 1) / (hi - lo) for x in X.elements]

    sep = separation(RationalSet(xs), h)
    q0 = math.ceil(Fraction(2) / sep)
    Q = oracle_collision_dilation(xs[1:-1], _floor_fraction, q0, h)

    members = []
    epsilons = []
    for x in xs:
        v = Q * x
        a = _oracle_nearest_int(v)
        members.append(a)
        epsilons.append(v - a)
    A = IntegerSet(members)
    if A.k != k:
        raise AssertionError("embedding collapsed two elements; q0 bound violated")
    return A, types.EmbeddingTrace(q0, Q, tuple(epsilons), A)


def test_embed_matches_nearest_int_oracle():
    # 400 seeded sets: k = 2..5, h = 1..3, denominators up to 60, some
    # integer sets and some of two elements
    rng = random.Random(1049)
    for i in range(400):
        k = 2 if i % 10 == 0 else rng.randint(3, 5)
        den = 1 if i % 7 == 0 else rng.randint(2, 60)
        vals = set()
        while len(vals) < k:
            vals.add(Fraction(rng.randint(-200, 200), den if i % 3 else rng.randint(1, den)))
        X, h = RationalSet(vals), rng.randint(1, 3)
        A, trace = embed_real_to_integers(X, h)
        B, oracle = oracle_embed_real_to_integers(X, h)
        assert A == B and trace == oracle, (X, h)
        assert trace.to_dict() == oracle.to_dict()


def _payload(capsys, argv):
    assert main(argv) == 0, argv
    return json.loads(capsys.readouterr().out)


def test_transport_payloads_match_the_oracle_scan(capsys):
    # 300 seeded types to-sum and 200 types embed runs, k = 2..6, h = 1..4,
    # elements up to 10^12, print the payloads built from the oracle scan
    rng = random.Random(32)
    for _ in range(300):
        top, k, h = 10 ** rng.randint(2, 12), rng.randint(2, 6), rng.randint(1, 4)
        P = sorted(rng.sample(range(1, top + 1), k))
        logs = [LogLinear.log2_of(p) for p in P]
        Q = oracle_collision_dilation(logs, LogLinear.floor, _q0(types._products(P, h)), h)
        result = [(x.floor(2 * Q) + 1) // 2 for x in logs]
        argv = ["types", "to-sum", "--set", ",".join(map(str, P)), "--h", str(h)]
        assert _payload(capsys, argv) == {"set": P, "h": h, "result": result}, argv
    for _ in range(200):
        top, k, h = 10 ** rng.randint(2, 12), rng.randint(2, 6), rng.randint(1, 4)
        vals = set()
        while len(vals) < k:
            vals.add(Fraction(rng.randint(-top, top), rng.randint(1, 1000)))
        X = RationalSet(vals)
        A, trace = oracle_embed_real_to_integers(X, h)
        text = [str(x) for x in X.elements]
        argv = ["types", "embed", "--set=" + ",".join(text), "--h", str(h)]
        assert _payload(capsys, argv) == {"set": text, "h": h, "result": list(A.elements),
                                         "trace": trace.to_dict()}, argv


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


# The streamed scan against the oracle scan. A scan value is described
# as ("log", a, b), the LogLinear log2(a/b), or ("frac", n, d), the
# Fraction n/d; each side builds its own values, so no kept interval is
# shared between them.


def _scan_value(spec):
    kind, a, b = spec
    return LogLinear.log2_of(Fraction(a, b)) if kind == "log" else Fraction(a, b)


def _scan_outcome(run):
    """The scan's Q, or the type and message of what it raised."""
    try:
        return run()
    except CapExceeded as exc:
        return type(exc), str(exc)


def _compare_scans(specs, q0, h):
    """The streamed scan's outcome, asserted equal to the oracle's. All
    values of one scan have one kind."""
    if specs and specs[0][0] == "log":
        residues, floor_scaled = LogLinear.floor_residues, LogLinear.floor
    else:
        residues, floor_scaled = _fraction_floor_residues, _floor_fraction
    fast = _scan_outcome(lambda: _collision_dilation(
        [_scan_value(v) for v in specs], residues, q0, h))
    oracle = _scan_outcome(lambda: oracle_collision_dilation(
        [_scan_value(v) for v in specs], floor_scaled, q0, h))
    assert fast == oracle, (specs, q0, h)
    return fast


_DEFAULT_SCHEDULE = types.PRECISION_SCHEDULE
_SCAN_SCHEDULES = (_DEFAULT_SCHEDULE, (2, 64))
_SCAN_BUDGETS = (1, 2, 3, 7, 40, types.DILATION_STEP_BUDGET)

_log_specs = st.tuples(
    st.just("log"),
    st.one_of(st.integers(1, 10**12), st.integers(0, 80).map(lambda j: 2**j)),
    st.one_of(st.just(1), st.integers(1, 10**12)),
)
_frac_specs = st.tuples(st.just("frac"), st.integers(-(10**12), 10**12), st.integers(1, 10**12))


def _check_streamed_scan(monkeypatch, cases):
    """_compare_scans on each (specs, q0, h, schedule, budget)."""
    outcomes = []
    for specs, q0, h, schedule, budget in cases:
        with monkeypatch.context() as patched:
            patched.setattr(types, "PRECISION_SCHEDULE", schedule)
            patched.setattr(types, "DILATION_STEP_BUDGET", budget)
            outcomes.append(_compare_scans(specs, q0, h))
    return outcomes


def _streamed_scan_cases():
    """600 seeded scans of 1 to 5 logs of ratios up to 10**12, at both
    schedules and the default budget, then 100 at a budget of 3 steps."""
    rng = random.Random(1051)
    for i in range(700):
        specs = [("log", rng.randint(1, 10**12), rng.choice([1, rng.randint(1, 10**12)]))
                 for _ in range(rng.randint(1, 5))]
        budget = 3 if i >= 600 else types.DILATION_STEP_BUDGET
        yield specs, rng.randint(1, 10**6), rng.randint(1, 4), _SCAN_SCHEDULES[i % 2], budget


def test_streamed_scan_matches_the_oracle_scan(monkeypatch):
    outcomes = _check_streamed_scan(monkeypatch, _streamed_scan_cases())
    # the default budget never runs out on these, a budget of 3 often does
    assert all(isinstance(q, int) for q in outcomes[:600])
    assert sum(not isinstance(q, int) for q in outcomes[600:]) > 50


@settings(max_examples=300, deadline=None)
@given(
    specs=st.one_of(st.lists(_log_specs, max_size=5), st.lists(_frac_specs, max_size=5)),
    q0=st.integers(1, 10**9),
    h=st.integers(1, 4),
    schedule=st.sampled_from(_SCAN_SCHEDULES),
    budget=st.sampled_from(_SCAN_BUDGETS),
)
@example(specs=[], q0=17, h=3, schedule=_DEFAULT_SCHEDULE, budget=1)
@example(specs=[("log", 3, 1), ("log", 5, 7)], q0=1, h=2, schedule=(2, 64), budget=40)
@example(specs=[("log", 8, 1), ("log", 1, 2)], q0=5, h=1, schedule=(2, 64), budget=2)
@example(specs=[("frac", 1, 3), ("frac", -5, 7)], q0=2, h=3, schedule=_DEFAULT_SCHEDULE, budget=3)
def test_streamed_scan_matches_the_oracle_scan_on_any_values(specs, q0, h, schedule, budget):
    with pytest.MonkeyPatch.context() as patched:
        _check_streamed_scan(patched, [(specs, q0, h, schedule, budget)])


def test_scan_of_no_values_gives_q0(monkeypatch):
    # a two-element embedding scans no interior values: steps 0 and 1
    # both have the empty box
    for residues in (LogLinear.floor_residues, _fraction_floor_residues):
        assert _collision_dilation([], residues, 17, 3) == 17
    assert oracle_collision_dilation([], _floor_fraction, 17, 3) == 17
    _, trace = embed_real_to_integers(RationalSet([Fraction(-1, 3), Fraction(5, 2)]), 4)
    assert trace.Q == trace.q0
    monkeypatch.setattr(types, "DILATION_STEP_BUDGET", 1)
    for run in (lambda: _collision_dilation([], _fraction_floor_residues, 17, 3),
                lambda: oracle_collision_dilation([], _floor_fraction, 17, 3)):
        with pytest.raises(CapExceeded, match="no box collision within 1 dilation steps"):
            run()


@pytest.mark.parametrize("schedule", _SCAN_SCHEDULES)
def test_transport_floors_only_on_a_straddle(monkeypatch, schedule):
    # The scan calls LogLinear.floor only where the running ends of a log
    # have different floors. The oracle scan counts those straddles from
    # the kept interval; product_to_sum adds the floors of _q0 and one
    # rounding floor per element. Transports like the benchmark's, of
    # elements up to 40, never straddle at 64 bits; runs of consecutive
    # integers near 10**12 have q0 near 10**12 and often do. At a first
    # precision of 2 bits almost every floor straddles, and the 64 bits
    # after it do not settle the consecutive runs.
    monkeypatch.setattr(types, "PRECISION_SCHEDULE", schedule)
    floor = LogLinear.floor
    calls = []

    def spy(self, m=1):
        calls.append(m)
        return floor(self, m)

    rng = random.Random(1061)
    scanned = straddles = 0
    for i in range(130 if schedule == _DEFAULT_SCHEDULE else 100):
        k, h = rng.randint(2, 5), rng.randint(1, 3)
        if i < 100:
            P = IntegerSet(rng.sample(range(1, 41), k))
        else:
            P = IntegerSet(range(rng.randint(10**9, 10**12), 0, -1)[:k])
        products = types._products(P.elements, h)
        q0 = _q0(products)
        seen = []

        def counting_floor(v, m):
            lo, hi, s = v._interval(schedule[0])
            seen.append(m * lo >> s != m * hi >> s)
            return floor(v, m)

        logs = [LogLinear.log2_of(p) for p in P.elements]
        Q = oracle_collision_dilation(logs, counting_floor, q0, h)
        with monkeypatch.context() as patched:
            patched.setattr(LogLinear, "floor", spy)
            calls.clear()
            _q0(products)
            q0_floors = len(calls)
            calls.clear()
            A = product_to_sum(P, h)
        assert len(calls) == q0_floors + sum(seen) + P.k, (P, h)
        assert sorted(calls[q0_floors + sum(seen):]) == [2 * Q] * P.k, (P, h)
        assert A.elements == tuple((floor(l, 2 * Q) + 1) // 2 for l in logs), (P, h)
        scanned += len(seen)
        straddles += sum(seen)
    if schedule == (2, 64):
        assert straddles > scanned // 2
    else:
        assert 0 < 10 * straddles < scanned


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


def test_to_sum_of_a_large_prime_transports(capsys):
    # 2**61 - 1 is prime; nothing is factored, so it transports at once
    mersenne = 2**61 - 1
    P = IntegerSet([2, mersenne])
    assert main(["types", "to-sum", "--set", f"2,{mersenne}", "--h", "1"]) == 0
    assert capsys.readouterr().out.count("result") == 1
    for h in (1, 2, 3):
        assert h_type(product_to_sum(P, h), h) == product_type(P, h)


def test_log_linear_floor_and_rational_path():
    x = LogLinear.log2_of(8)
    assert x.is_rational and x.rat == 3
    y = LogLinear.log2_of(10)  # 1 + log2(5)
    assert y.floor() == 3
    assert LogLinear.log2_of(3).floor(100) == 158  # 100*log2(3) = 158.49...


@pytest.mark.parametrize("n", [1, 2, 2**40, 3, 99, 2**61 - 1, 2**200 + 1, 3 * 2**100, 12 * 10**12])
def test_log2_of_an_integer_matches_the_fraction_route(monkeypatch, n):
    via_fraction = LogLinear.log2_of(Fraction(n))
    built = []

    def spy(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(types, "Fraction", spy)
    x = LogLinear.log2_of(n)
    assert built == []
    assert (x.rat, x.num, x.den) == (via_fraction.rat, via_fraction.num, via_fraction.den)
    assert x.den == 1 and x.num % 2 == 1 and x.num << x.rat == n
    # a bool and a Fraction still go through Fraction
    y, z = LogLinear.log2_of(Fraction(3, 20)), LogLinear.log2_of(True)
    assert (y.rat, y.num, y.den, z.rat, z.num, z.den) == (-2, 3, 5, 0, 1, 1)
    assert built == [(Fraction(3, 20),), (True,)]


@pytest.mark.parametrize("r", [0, -1, -(2**70), Fraction(0), Fraction(-3, 4), False])
def test_log2_of_a_nonpositive_number_raises(r):
    with pytest.raises(ValueError, match="^log2 of a nonpositive number$"):
        LogLinear.log2_of(r)


def test_precision_exhausted_error(monkeypatch, capsys):
    x = LogLinear.log2_of(27)  # 3*log2(3) = 4.75...
    near_zero = LogLinear.log2_of(Fraction(27, 24))  # log2(9/8) = 0.17...
    assert x.floor() == 4 and near_zero.sign_lower_bound() > 0
    # at 2 bits the interval around log2(27) and log2(9) is 1/2 wide
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


# ---------------------------------------------------------------------------
# Oracle: the transport as it was before LogLinear kept one logarithm. It
# factors every element and product into odd primes and keeps one
# coefficient per prime. Copied verbatim except for the names, the
# module-level state it reads (its own log cache and trial budget), and
# the scan's floors, which come from bounds cached across cases (see
# oracle_floor_scaled_log2).

ORACLE_FACTOR_TRIAL_BUDGET = 1_000_000


def oracle_factorize(n: int) -> dict[int, int]:
    """Trial-division factorization; intended for desk-scale inputs. Raises
    CapExceeded when it would need more than FACTOR_TRIAL_BUDGET divisors."""
    out: dict[int, int] = {}
    d = 2
    last = 2 * ORACLE_FACTOR_TRIAL_BUDGET - 1
    while d * d <= n:
        if d > last:
            raise CapExceeded(
                f"factoring needs more than {ORACLE_FACTOR_TRIAL_BUDGET} trial divisors (cofactor {n})"
            )
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


_ORACLE_LOG2_CACHE: dict[tuple[int, int], tuple[Fraction, Fraction]] = {}


def oracle_log2_bounds(p: int, bits: int) -> tuple[Fraction, Fraction]:
    """Dyadic interval certainly containing log2(p), width 2**(1-bits)."""
    key = (p, bits)
    if key not in _ORACLE_LOG2_CACHE:
        with mpmath.workprec(bits + 16):
            x = mpmath.log(p) / mpmath.log(2)
        sign, man, exp, _ = x._mpf_
        mid = Fraction((-1) ** sign * int(man)) * Fraction(2) ** exp
        margin = Fraction(1, 1 << bits)
        _ORACLE_LOG2_CACHE[key] = (mid - margin, mid + margin)
    return _ORACLE_LOG2_CACHE[key]


class PrimeLogLinear:
    """An exact number of the form rat + sum_p coeff[p] * log2(p), over odd
    primes p. The representation is unique, so the number is zero (or
    rational) precisely when the coefficient dict is empty (and rat is 0).
    """

    __slots__ = ("rat", "coeffs")

    def __init__(self, rat: Fraction = Fraction(0), coeffs: dict[int, Fraction] | None = None):
        self.rat = Fraction(rat)
        self.coeffs = {p: c for p, c in (coeffs or {}).items() if c}

    @classmethod
    def log2_of(cls, n: int) -> "PrimeLogLinear":
        if n < 1:
            raise ValueError("log2 of a nonpositive integer")
        factors = oracle_factorize(n) if n > 1 else {}
        rat = Fraction(factors.pop(2, 0))
        return cls(rat, {p: Fraction(e) for p, e in factors.items()})

    def scaled(self, m: int) -> "PrimeLogLinear":
        return PrimeLogLinear(self.rat * m, {p: c * m for p, c in self.coeffs.items()})

    def plus_rational(self, r: Fraction) -> "PrimeLogLinear":
        return PrimeLogLinear(self.rat + r, self.coeffs)

    def minus(self, other: "PrimeLogLinear") -> "PrimeLogLinear":
        co = dict(self.coeffs)
        for p, c in other.coeffs.items():
            co[p] = co.get(p, Fraction(0)) - c
        return PrimeLogLinear(self.rat - other.rat, co)

    @property
    def is_rational(self) -> bool:
        return not self.coeffs

    def bounds(self, bits: int) -> tuple[Fraction, Fraction]:
        lo = hi = self.rat
        for p, c in self.coeffs.items():
            blo, bhi = oracle_log2_bounds(p, bits)
            if c >= 0:
                lo += c * blo
                hi += c * bhi
            else:
                lo += c * bhi
                hi += c * blo
        return lo, hi

    def floor(self) -> int:
        """Exact floor. Rational values short-circuit; irrational values
        are never integers, so interval refinement settles at some
        precision, and PrecisionExhaustedError is raised when no entry of
        PRECISION_SCHEDULE does."""
        if self.is_rational:
            return self.rat.__floor__()
        for bits in types.PRECISION_SCHEDULE:
            lo, hi = self.bounds(bits)
            flo = lo.__floor__()
            if flo == hi.__floor__():
                return flo
        raise PrecisionExhaustedError("floor of a log-linear value", types.PRECISION_SCHEDULE)

    def sign_lower_bound(self) -> Fraction:
        """A positive rational lower bound for a value known to be > 0,
        from the first precision in PRECISION_SCHEDULE that yields one."""
        if self.is_rational:
            if self.rat <= 0:
                raise ValueError("value is not positive")
            return self.rat
        for bits in types.PRECISION_SCHEDULE:
            lo, _ = self.bounds(bits)
            if lo > 0:
                return lo
        raise PrecisionExhaustedError("lower bound of a log-linear value", types.PRECISION_SCHEDULE)


# The box-collision scan floors m * log2(p) for every element p and
# m = 0, 2h*q0, 4h*q0, ... Scaling by m >= 0 scales both bounds of a value
# by exactly m, so the bounds of log2(p) are taken from
# PrimeLogLinear.bounds once per element and precision, cached across
# cases as integer fractions, and floor(m * lo) is (m * num) // den.
_ORACLE_BOUNDS_CACHE: dict[tuple[int, int], tuple[int, int, int, int]] = {}


def oracle_floor_scaled_log2(p: int, m: int) -> int:
    """PrimeLogLinear.log2_of(p).scaled(m).floor() for m >= 0."""
    for bits in types.PRECISION_SCHEDULE:
        bounds = _ORACLE_BOUNDS_CACHE.get((p, bits))
        if bounds is None:
            lo, hi = PrimeLogLinear.log2_of(p).bounds(bits)
            bounds = _ORACLE_BOUNDS_CACHE[p, bits] = (
                lo.numerator, lo.denominator, hi.numerator, hi.denominator)
        lo_num, lo_den, hi_num, hi_den = bounds
        flo = m * lo_num // lo_den
        if flo == m * hi_num // hi_den:
            return flo
    raise PrecisionExhaustedError("floor of a log-linear value", types.PRECISION_SCHEDULE)


def oracle_product_to_sum(P: IntegerSet, h: int) -> IntegerSet:
    """A set of nonnegative integers whose additive h-type equals the
    multiplicative h-type of P (elements positive, k >= 2).

    Runs the box-collision scan on {log2 p : p in P} with the LogLinear
    representation, then verifies the claimed type identity exactly via
    big-integer products before returning.
    """
    if h < 1:
        raise ValueError("h must be positive")
    k = P.k
    if k < 2:
        raise ValueError("transport needs at least two elements")
    if P.elements[0] < 1:
        raise ValueError("elements must be positive integers")

    target = product_type(P, h)
    logs = [PrimeLogLinear.log2_of(p) for p in P.elements]

    # q0 is the least q with floor(q * sep) >= 2, sep = log2 r* the least
    # gap of the h-fold log sums: the distinct h-fold products, sorted, give
    # the distinct log sums in order, so r* is the least ratio of two
    # consecutive ones. q0 = ceil(2 / sep) lies between ceil(2 / hi) and
    # ceil(2 / lo) for any bounds lo <= sep <= hi, and is bisected there.
    comps = enumerate_compositions(h, k)
    prods = sorted({math.prod(p**c for p, c in zip(P.elements, comp) if c) for comp in comps})
    if len(prods) < 2:
        # only possible for P = {1}; excluded by k >= 2 with distinct elements
        raise ValueError("all h-fold products coincide")
    m1, m2 = min(zip(prods, prods[1:]), key=lambda pair: Fraction(pair[1], pair[0]))
    sep = PrimeLogLinear.log2_of(m2).minus(PrimeLogLinear.log2_of(m1))
    lo = math.ceil(2 / sep.bounds(types.PRECISION_SCHEDULE[0])[1])
    hi = math.ceil(2 / sep.sign_lower_bound())
    while lo < hi:
        mid = (lo + hi) // 2
        if sep.scaled(mid).floor() >= 2:
            hi = mid
        else:
            lo = mid + 1
    q0 = hi
    Q = oracle_collision_dilation(P.elements, oracle_floor_scaled_log2, q0, h)

    half = Fraction(1, 2)
    members = [l.scaled(Q).plus_rational(half).floor() for l in logs]
    A = IntegerSet(members)
    if A.k != k or h_type(A, h) != target:
        raise AssertionError("log-linear transport produced a wrong type; this is a bug")
    return A


def _transport_cases():
    """3009 seeded (P, h): elements of [1, 40] and of [1, 2000], powers of
    two (every log rational), 2^i 3^j (two primes shared by all), and
    multiples of 6 (shared factors with odd cofactors); then, at h = 1, runs
    of 2 to 4 consecutive elements from 10^10 to 10^12, whose least log
    gap is so small that ceil(2 / lower bound) from a 64-bit interval lies
    thousands to hundreds of thousands of steps above the least q0."""
    rng = random.Random(1009)
    pools = [
        range(1, 41),
        range(1, 2001),
        [1 << i for i in range(40)],
        [2**i * 3**j for i in range(10) for j in range(8)],
        range(6, 601, 6),
    ]
    for i in range(3000):
        pool = pools[i % len(pools)]
        yield IntegerSet(rng.sample(pool, rng.randint(2, 5))), rng.randint(1, 3)
    yield IntegerSet(range(171048208845, 171048208849)), 1
    for _ in range(8):
        n = rng.randint(10**10, 10**12)
        yield IntegerSet(range(n, n + rng.randint(2, 4))), 1


def test_product_to_sum_matches_prime_factor_oracle():
    for P, h in _transport_cases():
        assert product_to_sum(P, h).elements == oracle_product_to_sum(P, h).elements, (P, h)


def test_oracle_floor_scaled_is_the_floor_of_the_scaled_value():
    rng = random.Random(31)
    for p in [1, 2, 3, 1024, 6 * 2**20] + [rng.randint(1, 5000) for _ in range(400)]:
        for m in (0, 1, rng.randint(2, 100), rng.randint(10**6, 10**12)):
            assert oracle_floor_scaled_log2(p, m) == PrimeLogLinear.log2_of(p).scaled(m).floor()


def test_log_linear_floor_matches_bit_length():
    # floor(m * log2 n) is the bit length of n**m, minus 1
    rng = random.Random(1013)
    cases = [(rng.randint(1, 10**rng.randint(1, 40)), rng.randint(1, 40)) for _ in range(400)]
    cases += [(3**5000 + d, m) for d in (-2, -1, 0, 1, 2) for m in (1, 2, 3)]
    cases += [(2**61 - 1, 61), (2**100, 3), (7 * 5**2000, 2)]
    for n, m in cases:
        assert LogLinear.log2_of(n).floor(m) == (n**m).bit_length() - 1, (n, m)


def _log2_to_400_bits(r) -> Fraction:
    with mpmath.workprec(400):
        x = mpmath.log(mpmath.mpf(r.numerator) / r.denominator) / mpmath.log(2)
    sign, man, exp, _ = x._mpf_
    return Fraction((-1) ** sign * int(man)) * Fraction(2) ** exp


def test_log2_bounds_contain_the_logarithm_of_huge_integers():
    # log2 n ~ n.bit_length() needs guard bits beyond the 16 that serve
    # small n; 3**200000 escapes a 64-bit interval without them
    for n in (3**1000, 3**200000, 7 * 5**300001):
        true = _log2_to_400_bits(n)
        for bits in (64, 128):
            lo, hi, s = _log2_bounds(n, bits)
            assert hi - lo == 1 << (s - bits + 1), (n, bits)
            lo, hi = Fraction(lo, 1 << s), Fraction(hi, 1 << s)
            assert lo + Fraction(1, 1 << 300) < true < hi - Fraction(1, 1 << 300), (n, bits)


def _bounds(value: LogLinear, bits: int, m: int = 1) -> tuple[Fraction, Fraction]:
    """The interval of value at `bits`, scaled by m, as Fractions, lower
    end first."""
    lo, hi, s = value._interval(bits)
    lo, hi = sorted((m * lo, m * hi))
    return Fraction(lo, 1 << s), Fraction(hi, 1 << s)


def test_log_linear_of_ratios_and_negative_scalings():
    assert LogLinear.log2_of(Fraction(96, 3)).is_rational  # 32 = 2**5
    assert LogLinear.log2_of(Fraction(96, 3)).rat == 5
    x = LogLinear.log2_of(Fraction(45, 12))  # log2(15/4) = -2 + log2(15)
    assert not x.is_rational and (x.rat, x.num, x.den) == (-2, 15, 1)
    y = LogLinear.log2_of(Fraction(6, 20))  # log2(3/10) = -1 + log2(3/5)
    assert (y.rat, y.num, y.den) == (-1, 3, 5)
    assert y.floor(0) == 0
    assert y.floor() == -2  # log2(0.3) = -1.73...
    with pytest.raises(ValueError):
        LogLinear.log2_of(0)
    # log2(5/3): the two logs' intervals subtract, so the widths add
    lo, hi = _bounds(LogLinear.log2_of(Fraction(5, 3)), 64)
    assert hi - lo == 4 * Fraction(1, 1 << 64)
    assert lo < _log2_to_400_bits(Fraction(5, 3)) < hi
    z = LogLinear.log2_of(Fraction(1, 3))  # num = 1: still irrational
    assert not z.is_rational and z.floor() == -2
    # -log2(3) is log2(1/3) = LogLinear(-rat, den, num), the -1 multiple
    lo, hi = _bounds(LogLinear(0, 1, 3), 64)
    assert lo < -_log2_to_400_bits(3) < hi
    assert (lo, hi) == _bounds(LogLinear.log2_of(3), 64, -1)
    assert LogLinear.log2_of(3).floor(-1) == -2
    assert LogLinear.log2_of(Fraction(5, 3)).floor(-7) == -6  # -5.16...
    w = LogLinear.log2_of(Fraction(1, 9))  # its negation is log2(9) = 3.17...
    assert LogLinear(-w.rat, w.den, w.num).sign_lower_bound() > 3


# ---------------------------------------------------------------------------
# Oracle: LogLinear's bounds, floor and sign decisions as they were before
# they moved to integer fixed-point intervals, in Fraction arithmetic, on
# values rat + coeff*log2(num/den). Copied verbatim except for the names,
# the fields and the rational test LogLinear had while it held a
# coefficient, the module-level state they read (their own log cache, and
# the schedule through the module), and the source of each log's interval:
# the oracle checks the interval arithmetic, so it takes its logs from
# types._log2_bounds, whose own oracle is test_log2_bounds_match_mpmath.

_FRACTION_LOG2_CACHE: dict[tuple[int, int], tuple[Fraction, Fraction]] = {}


def fraction_log2_bounds(n: int, bits: int) -> tuple[Fraction, Fraction]:
    """Dyadic interval certainly containing log2(n), n >= 1, width
    2**(1-bits)."""
    key = (n, bits)
    if key not in _FRACTION_LOG2_CACHE:
        lo, hi, s = _log2_bounds(n, bits)
        _FRACTION_LOG2_CACHE[key] = (Fraction(lo, 1 << s), Fraction(hi, 1 << s))
    return _FRACTION_LOG2_CACHE[key]


class FractionLogLinear:
    """rat + coeff * log2(num/den) with the Fraction interval arithmetic."""

    __slots__ = ("rat", "coeff", "num", "den")

    def __init__(self, rat, coeff: int, num: int, den: int):
        self.rat = rat
        self.coeff = coeff
        self.num = num
        self.den = den

    @property
    def is_rational(self) -> bool:
        return self.coeff == 0 or self.num == self.den == 1

    def bounds(self, bits: int) -> tuple[Fraction, Fraction]:
        lo = hi = Fraction(0)
        if self.num > 1:
            lo, hi = fraction_log2_bounds(self.num, bits)
        if self.den > 1:
            dlo, dhi = fraction_log2_bounds(self.den, bits)
            lo, hi = lo - dhi, hi - dlo
        if self.coeff < 0:
            lo, hi = hi, lo
        return self.rat + self.coeff * lo, self.rat + self.coeff * hi

    def floor(self) -> int:
        """Exact floor. Rational values short-circuit; irrational values
        are never integers, so interval refinement settles at some
        precision, and PrecisionExhaustedError is raised when no entry of
        PRECISION_SCHEDULE does."""
        if self.is_rational:
            return math.floor(self.rat)
        for bits in types.PRECISION_SCHEDULE:
            lo, hi = self.bounds(bits)
            flo = lo.__floor__()
            if flo == hi.__floor__():
                return flo
        raise PrecisionExhaustedError("floor of a log-linear value", types.PRECISION_SCHEDULE)

    def sign_lower_bound(self) -> Fraction:
        """A positive rational lower bound for a value known to be > 0,
        from the first precision in PRECISION_SCHEDULE that yields one."""
        if self.is_rational:
            if self.rat <= 0:
                raise ValueError("value is not positive")
            return self.rat
        for bits in types.PRECISION_SCHEDULE:
            lo, _ = self.bounds(bits)
            if lo > 0:
                return lo
        raise PrecisionExhaustedError("lower bound of a log-linear value", types.PRECISION_SCHEDULE)


def _log_linear_cases():
    """20,000 seeded cases (off, c, rat, num, den), each the value off + c*x
    of x = LogLinear(rat, num, den): num and den the odd parts of integers
    up to 10**6 (both 1 for some: rational values), multiples c in +-10**6
    (often negative, some small, some 0), and integer offsets up to
    10**6."""
    rng = random.Random(1019)
    for i in range(20_000):
        if i % 50 == 0:
            x = LogLinear.log2_of(Fraction(1 << rng.randint(0, 20), 1 << rng.randint(0, 20)))
        else:
            x = LogLinear.log2_of(Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6)))
        c = rng.choice((-1, 1)) * rng.randint(0, 10 ** rng.randint(0, 6))
        yield rng.randint(-10**6, 10**6), c, x.rat, x.num, x.den


def _oracle(case, m: int = 1) -> FractionLogLinear:
    """The oracle's m * (off + c*x) for a case."""
    off, c, rat, num, den = case
    return FractionLogLinear(m * (off + c * rat), m * c, num, den)


def _outcome(query):
    try:
        result = query()
    except (PrecisionExhaustedError, ValueError) as exc:
        return type(exc)
    return type(result), result


def _sign(x, minus_x):
    """The sign lower bound of x or, when the floor of x is negative, of
    minus_x (for a rational zero, ValueError)."""
    floor = _outcome(x.floor)
    if isinstance(floor, tuple) and floor[1] < 0:
        x = minus_x
    return _outcome(x.sign_lower_bound)


def _floor_and_sign(case):
    """The floor of the case's value off + c*x, and the sign of x, from
    LogLinear and from the oracle."""
    off, c, rat, num, den = case
    x = LogLinear(rat, num, den)
    fast = _outcome(lambda: x.floor(c) + off), _sign(x, LogLinear(-rat, den, num))
    oracle = _outcome(_oracle(case).floor), _sign(
        FractionLogLinear(rat, 1, num, den), FractionLogLinear(-rat, -1, num, den)
    )
    return fast, oracle


def test_integer_intervals_match_fraction_oracle(monkeypatch):
    cases = list(_log_linear_cases())
    for case in cases:
        off, c, rat, num, den = case
        lo, hi = _bounds(LogLinear(rat, num, den), 64, c)
        assert (lo + off, hi + off) == _oracle(case).bounds(64), case
        fast, oracle = _floor_and_sign(case)
        assert fast == oracle, case
    _check_floors_at_two_bits(monkeypatch, cases[:2000])


def _check_floors_at_two_bits(monkeypatch, cases):
    # at 2 bits each log's interval is 1/2 wide, so any value off + c*x
    # with |c| >= 2 spans an integer and its floor stays undecided
    monkeypatch.setattr(types, "PRECISION_SCHEDULE", (2,))
    wide = signs_exhausted = 0
    for case in cases:
        fast, oracle = _floor_and_sign(case)
        assert fast == oracle, case
        _, c, _, num, den = case
        if num != den and abs(c) >= 2:
            wide += 1
            assert fast[0] is PrecisionExhaustedError, case
        signs_exhausted += fast[1] is PrecisionExhaustedError
    assert wide > 1000 and signs_exhausted > 100


def test_floor_of_a_multiple_matches_fraction_oracle(monkeypatch):
    # floor(m * (off + c*x)) is x.floor(m*c) + m*off, against the oracle's
    # floor of the value with off and c multiplied by m, for negative,
    # zero and huge m. m ~ 10**300 needs the 2048-bit logs, and m ~ 2**5000
    # outruns the schedule; logs that wide take milliseconds each, so
    # fewer values get those scales
    rng = random.Random(1039)
    cases = list(_log_linear_cases())[::41]
    assert sum(c == 0 or num == den for _, c, _, num, den in cases) >= 5
    exhausted = 0
    for i, case in enumerate(cases):
        off, c, rat, num, den = case
        x = LogLinear(rat, num, den)
        scales = [0, 1, -1, 2, -2, -(10**6), 10**30, rng.randint(-10**12, 10**12)]
        if i % 20 == 0:
            scales += [-(10**300), 2**5000]
        for m in scales:
            outcome = _outcome(lambda: x.floor(m * c) + m * off)
            assert outcome == _outcome(_oracle(case, m).floor), (case, m)
            exhausted += outcome is PrecisionExhaustedError
    assert exhausted >= 15
    monkeypatch.setattr(types, "PRECISION_SCHEDULE", (2,))
    for case in cases[:200]:
        off, c, rat, num, den = case
        x = LogLinear(rat, num, den)
        outcome = _outcome(lambda: x.floor(-3 * c) - 3 * off)
        assert outcome == _outcome(_oracle(case, -3).floor), case


def test_warm_floor_matches_a_fresh_value(monkeypatch):
    # floor(m) scales an interval the first call kept; every multiple of
    # one warm value must floor like a fresh value and the oracle. 2**5000
    # escalates through the whole schedule, milliseconds a value, so
    # fewer values get it
    scales = [0, 1, -1, 2, -2, 10**6, -(10**6), 10**30]
    for i, case in enumerate(_log_linear_cases()):
        off, c, rat, num, den = case
        warm = LogLinear(rat, num, den)
        for m in scales + [2**5000] * (i % 199 == 1):
            outcome = _outcome(lambda: warm.floor(m * c) + m * off)
            assert outcome == _outcome(lambda: LogLinear(rat, num, den).floor(m * c) + m * off)
            assert outcome == _outcome(_oracle(case, m).floor), (case, m)
    _check_kept_interval_follows_the_schedule(monkeypatch)


def _check_kept_interval_follows_the_schedule(monkeypatch):
    # the kept interval follows the schedule read at call time: at a
    # first precision of 2, log2(27) = 4.75... stays undecided; 64 bits
    # alone decide it but not 10**30 times it; from 128 bits both settle
    x, big = LogLinear.log2_of(27), 10**30
    exact = {m: FractionLogLinear(0, 3 * m, 3, 1).floor() for m in (1, big)}

    def settle(m):
        """The floor of m*x, or the precisions a failed floor attempted."""
        try:
            return x.floor(m)
        except PrecisionExhaustedError as exc:
            return exc.attempted

    assert (settle(1), settle(big)) == (exact[1], exact[big])
    for schedule, settled in (((2,), ()), ((64,), (1,)), ((128, 256), (1, big))):
        monkeypatch.setattr(types, "PRECISION_SCHEDULE", schedule)
        for m in (1, big):
            assert settle(m) == (exact[m] if m in settled else schedule), (schedule, m)


def test_rounding_by_the_floor_of_twice_the_value():
    # the transports round x to floor(x + 1/2) as (floor(2x) + 1) // 2;
    # floor(x - 1/2) is (floor(2x) - 1) // 2 in the same way
    for case in _log_linear_cases():
        off, c, rat, num, den = case
        twice = LogLinear(rat, num, den).floor(2 * c) + 2 * off
        for sign in (1, -1):
            oracle = FractionLogLinear(off + c * rat + Fraction(sign, 2), c, num, den).floor()
            assert (twice + sign) // 2 == oracle, (case, sign)


def test_log2_cache_stays_bounded():
    # every fresh set brings fresh product ratios, each a new (n, bits) key
    _log2_bounds.cache_clear()
    rng = random.Random(1021)
    for _ in range(2000):
        P = IntegerSet(rng.sample(range(1, 10**6), 3))
        assert h_type(product_to_sum(P, 2), 2) == product_type(P, 2)
    info = _log2_bounds.cache_info()
    assert info.maxsize == types._LOG2_CACHE_SIZE >= 1024
    assert info.misses > info.maxsize
    assert info.currsize == info.maxsize


# ---------------------------------------------------------------------------
# Oracle: q0 as product_to_sum computed it before it was exact, from a
# 64-bit lower bound per gap, with each log's interval from mpmath.
# Copied verbatim except for the names, the return, the log cache size,
# and the split of q0 out of the transport.


@functools.lru_cache(maxsize=1 << 16)
def mpmath_log2_bounds(n: int, bits: int) -> tuple[int, int, int]:
    """Integers (lo, hi, s) with lo/2**s < log2(n) < hi/2**s, n >= 1: the
    dyadic interval mid +- 2**-bits around an mpmath midpoint mid, width
    2**(1-bits). The rounding error is relative, and log2(n) is below
    n.bit_length(), so the working precision carries
    n.bit_length().bit_length() guard bits to keep the absolute error
    below the margin for arbitrarily large n."""
    with mpmath.workprec(bits + 16 + n.bit_length().bit_length()):
        x = mpmath.log(n) / mpmath.log(2)
    sign, man, exp, _ = x._mpf_
    s = max(bits, -exp)
    mid = (-1) ** sign * int(man) << (exp + s)
    margin = 1 << (s - bits)
    return mid - margin, mid + margin, s


def interval_q0(products) -> int:
    """ceil(2/sep_lb), sep_lb the least of the per-gap lower bounds; run
    with types._log2_bounds set to mpmath_log2_bounds."""
    # q0 >= 2 / sep_h(logs): the distinct h-fold products, sorted, give the
    # distinct log sums in order, so consecutive gaps cover the minimum.
    prods = sorted(set(products))
    if len(prods) < 2:
        # only possible for P = {1}; excluded by k >= 2 with distinct elements
        raise ValueError("all h-fold products coincide")
    sep_lb = None
    for m1, m2 in zip(prods, prods[1:]):
        gap = LogLinear.log2_of(Fraction(m2, m1)).sign_lower_bound()
        sep_lb = gap if sep_lb is None else min(sep_lb, gap)
    return math.ceil(Fraction(2) / sep_lb)


def _q0_cases():
    """3000 seeded (P, h): k = 2..6, h = 1..4, elements up to 10**12 (of
    varied magnitude, some below 40), after P = {1, 2} and {1, 4}, whose
    log2 r* is rational."""
    yield from ((IntegerSet(P), h) for P in ((1, 2), (1, 4)) for h in (1, 2, 3, 4))
    rng = random.Random(1031)
    count = 8
    while count < 3000:
        top = 40 if count % 4 == 0 else 10 ** rng.randint(1, 12)
        k = rng.randint(2, min(6, top))
        yield IntegerSet(rng.sample(range(1, top + 1), k)), rng.randint(1, 4)
        count += 1


def test_exact_q0_matches_interval_oracle(monkeypatch):
    cases = list(_q0_cases())
    products = [types._products(P.elements, h) for P, h in cases]
    with monkeypatch.context() as patched:
        patched.setattr(types, "_log2_bounds", mpmath_log2_bounds)
        oracle_q0 = [interval_q0(prods) for prods in products]
        patched.setattr(types, "_q0", interval_q0)
        oracle_out = [product_to_sum(P, h).elements for P, h in cases]
    checked = 0
    for (P, h), prods, q_old, old in zip(cases, products, oracle_q0, oracle_out):
        q0 = _q0(prods)
        assert q0 == q_old, (P, h)
        assert product_to_sum(P, h).elements == old, (P, h)
        distinct = sorted(set(prods))
        r = min(Fraction(m2, m1) for m1, m2 in zip(distinct, distinct[1:]))
        a, b = r.numerator, r.denominator
        if a.bit_length() * q0 <= 20_000:
            # the least q with r**q >= 4, in exact integers
            assert a**q0 >= 4 * b**q0 and a ** (q0 - 1) < 4 * b ** (q0 - 1), (P, h)
            checked += 1
    assert checked > 1000
    assert [_q0(types._products((1, 2), h)) for h in (1, 2, 3, 4)] == [2, 2, 2, 2]
    assert [_q0(types._products((1, 4), h)) for h in (1, 2, 3, 4)] == [1, 1, 1, 1]


def test_exact_q0_of_adjacent_large_elements():
    # log2 r* ~ 1.4e-18 is under 7 times the width of its 64-bit interval,
    # so the first guess is about 10**17 above q0, and the step-down must
    # not walk there one unit at a time
    for n in (10**12, 10**18, 2**61 - 1):
        q0 = _q0([n, n + 1])
        gap = LogLinear.log2_of(Fraction(n + 1, n))
        assert gap.floor(q0) >= 2 > gap.floor(q0 - 1), n
        assert h_type(product_to_sum(IntegerSet([n, n + 1]), 1), 1).class_count == 2


def test_log2_bounds_match_mpmath():
    # _log2_bounds against mpmath at 300 more bits: strictly inside the
    # interval, with hi - lo = 2**(s - bits + 1)
    rng = random.Random(1033)
    ns = [rng.randrange(1, 10 ** rng.randint(1, 40), 2) for _ in range(24)]
    ns += [2**e + d for e in (1, 2, 3, 10, 63, 64, 65, 200, 1000, 5000) for d in (-1, 1)]
    ns += [3**200000, 7 * 5**300001]
    for bits in (2,) + types.PRECISION_SCHEDULE:
        for n in ns:
            lo, hi, s = _log2_bounds(n, bits)
            assert hi - lo == 1 << (s - bits + 1), (n, bits)
            prec = bits + 300
            with mpmath.workprec(prec + 16 + n.bit_length().bit_length()):
                x = mpmath.log(n) / mpmath.log(2)
            sign, man, exp, _ = x._mpf_
            true = Fraction((-1) ** sign * int(man)) * Fraction(2) ** exp
            err = Fraction(1, 1 << prec)
            assert Fraction(lo, 1 << s) < true - err and true + err < Fraction(hi, 1 << s), (n, bits)


def test_cli_runs_without_mpmath():
    code = "\n".join([
        "import sys",
        "sys.modules['mpmath'] = None",
        "from sumsetlab.cli import main",
        "for argv in (['types', 'to-sum', '--set', '2,3,4,6', '--h', '2'],",
        "             ['types', 'embed', '--set', '0,1/3,5/7,1', '--h', '3'],",
        "             ['experiment', 'type-census', '--n', '8', '--k', '4', '--h', '2']):",
        "    assert main(argv) == 0, argv",
    ])
    package_root = Path(sumsetlab.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(package_root), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    assert b'"type_count"' in proc.stdout
