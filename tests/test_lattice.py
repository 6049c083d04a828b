import itertools
import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumsetlab import lattice
from sumsetlab.core import IntegerSet
from sumsetlab.lattice import (
    LatticeBasis,
    coefficient_lattice_basis,
    find_minima,
    lattice_shells,
    successive_minima,
)
from sumsetlab.theory import construct_lemma_set


# ---------------------------------------------------------------------------
# Oracles: the generic Hermite kernel and the Fraction eliminator the
# library used before it computed both in integers. Copied verbatim except
# for the names.


def kernel_columns_oracle(mat: list[list[int]]) -> list[tuple[int, ...]]:
    """Integer kernel basis of a small integer matrix via unimodular column
    reduction (Hermite-style). Returns the columns of the transform that
    map to zero; because the transform is unimodular these form a lattice
    basis of the kernel, not merely a spanning set."""
    m, k = len(mat), len(mat[0])
    cols = [[mat[i][j] for i in range(m)] for j in range(k)]
    ucols = [[int(i == j) for i in range(k)] for j in range(k)]
    rank = 0
    for i in range(m):
        while True:
            piv = None
            for j in range(rank, k):
                if cols[j][i] and (piv is None or abs(cols[j][i]) < abs(cols[piv][i])):
                    piv = j
            if piv is None:
                break
            cols[rank], cols[piv] = cols[piv], cols[rank]
            ucols[rank], ucols[piv] = ucols[piv], ucols[rank]
            cleared = True
            for j in range(rank + 1, k):
                if cols[j][i]:
                    q = cols[j][i] // cols[rank][i]
                    cols[j] = [x - q * y for x, y in zip(cols[j], cols[rank])]
                    ucols[j] = [x - q * y for x, y in zip(ucols[j], ucols[rank])]
                    if cols[j][i]:
                        cleared = False
            if cleared:
                rank += 1
                break
    return [tuple(u) for u in ucols[rank:]]


class RationalEchelonOracle:
    """Incrementally reduced rows over Q, the one exact eliminator: it tests
    independence while minima are collected, and lattice membership."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: list[tuple[int, list[Fraction]]] = []

    def reduce(self, vec) -> list[Fraction]:
        """vec minus the multiples of the stored rows that clear their
        pivots. Each row is zero at the pivots of the rows before it, so the
        result is zero at every pivot, and all zero exactly when vec lies in
        the rows' span."""
        w = [Fraction(x) for x in vec]
        for piv, row in self.rows:
            if w[piv]:
                f = w[piv] / row[piv]
                w = [x - f * y for x, y in zip(w, row)]
        return w

    def try_add(self, vec: tuple[int, ...]) -> bool:
        w = self.reduce(vec)
        piv = next((i for i, x in enumerate(w) if x), None)
        if piv is None:
            return False
        self.rows.append((piv, w))
        return True


def fraction_contains(basis: LatticeBasis, vector: tuple[int, ...]) -> bool:
    """LatticeBasis.contains as it was on the Fraction eliminator."""
    k = basis.set.k
    if len(vector) != k:
        return False
    n = len(basis.rows)
    echelon = RationalEchelonOracle()
    for i, row in enumerate(basis.rows):
        echelon.try_add((*row, *(int(i == j) for j in range(n))))
    rest = echelon.reduce((*vector, *[0] * n))
    return not any(rest[:k]) and all(x.denominator == 1 for x in rest[k:])


def _l1_heads(n, radius):
    """Every integer n-tuple with L1 norm <= radius, in lexicographic order."""
    if n == 0:
        yield ()
        return
    for x in range(-radius, radius + 1):
        for rest in _l1_heads(n - 1, radius - abs(x)):
            yield (x,) + rest


def naive_ball(A, cap):
    """Oracle: every nonzero lattice vector with L1 norm <= cap, found by
    scanning all integer vectors whose first k-1 coordinates have L1 norm
    <= cap and whose last coordinate balances the sum."""
    a = A.elements
    k = len(a)
    out = []
    for head in _l1_heads(k - 1, cap):
        last = -sum(head)
        vec = head + (last,)
        if vec == (0,) * k:
            continue
        if sum(map(abs, vec)) > cap:
            continue
        if sum(x * y for x, y in zip(vec, a)) != 0:
            continue
        out.append(vec)
    return out


def scan_shells(a: tuple[int, ...], cap: int) -> dict[int, list[tuple[int, ...]]]:
    """Slow oracle for lattice_shells: the recursive enumeration that scans
    the last free coordinate and keeps the values whose division by det is
    exact."""
    k = len(a)
    am1, ak = a[-2], a[-1]
    det = ak - am1
    shells: dict[int, list[tuple[int, ...]]] = {}
    prefix = [0] * (k - 2)

    def assign(i: int, budget: int, leading: bool, s: int, d: int) -> None:
        if i == k - 2:
            cm1, r = divmod(d - ak * s, det)
            if r:
                return
            ck = -s - cm1
            tail = abs(cm1) + abs(ck)
            if tail <= budget:
                norm = (cap - budget) + tail
                if norm:
                    shells.setdefault(norm, []).append(tuple(prefix) + (cm1, ck))
            return
        lo = 0 if leading else -budget
        ai = a[i]
        for c in range(lo, budget + 1):
            prefix[i] = c
            assign(i + 1, budget - abs(c), leading and c == 0, s + c, d + ai * c)
        prefix[i] = 0

    assign(0, cap, True, 0, 0)
    return shells


def recursive_shells(A: IntegerSet, cap: int) -> dict[int, list[tuple[int, ...]]]:
    """Order oracle for lattice_shells: the enumerator that makes one
    recursive call per value of every scanned coordinate, c_{k-3} included,
    and steps c_{k-2} over its congruence in the innermost call."""
    a = A.elements
    k = A.k
    ak = a[-1]
    det = ak - a[-2]
    slope = a[-3] - ak
    u = slope % det
    g = gcd(u, det)
    m = det // g
    inv = pow(u // g, -1, m)
    shells: dict[int, list[tuple[int, ...]]] = {}
    prefix = [0] * (k - 3)

    def assign(i: int, budget: int, leading: bool, s: int, d: int) -> None:
        lo = 0 if leading else -budget
        if i < k - 3:
            ai = a[i]
            for c in range(lo, budget + 1):
                prefix[i] = c
                assign(i + 1, budget - abs(c), leading and c == 0, s + c, d + ai * c)
            prefix[i] = 0
            return
        r = d - ak * s
        if r % g:
            return
        head = tuple(prefix)
        used = cap - budget
        for c in range(lo + (inv * (-r // g) - lo) % m, budget + 1, m):
            cm1 = (r + slope * c) // det
            ck = -s - c - cm1
            tail = abs(c) + abs(cm1) + abs(ck)
            if tail <= budget:
                norm = used + tail
                if norm:
                    shells.setdefault(norm, []).append(head + (c, cm1, ck))

    assign(0, cap, True, 0, 0)
    return shells


def doubling_find_minima(A: IntegerSet, count: int, max_cap: int) -> lattice.MinimaReport:
    """Slow oracle for find_minima: sweep 16, 32, 64, ... (clipped to
    max_cap) until the requested minima appear or max_cap is reached. Its
    caps are not find_minima's, so the two agree only because a completed
    sweep at any cap >= lambda_count certifies the same report."""
    cap = min(16, max_cap)
    while True:
        report = successive_minima(A, count, cap)
        if not report.truncated or cap >= max_cap:
            return report
        cap = min(cap * 2, max_cap)


def swept_caps(A: IntegerSet, count: int, max_cap: int) -> list[int]:
    """The caps find_minima sweeps, from lambda_count as the doubling
    oracle finds it (above max_cap when the oracle is truncated): at k <= 4
    the one cap min(lambda_count, max_cap); at k >= 5 the caps 4, 8, 16,
    ..., clipped to max_cap, up to the first at or above
    min(lambda_count, max_cap)."""
    oracle = doubling_find_minima(A, count, max_cap)
    last = max_cap if oracle.truncated else oracle.minima[-1]
    if A.k <= 4:
        return [last]
    caps = [4]
    while caps[-1] < last:
        caps.append(min(2 * caps[-1], max_cap))
    return caps


def assert_matches_full_sweep(rep: lattice.MinimaReport, A: IntegerSet, count: int, max_cap: int) -> None:
    """rep has the minima, minimizers and truncation of one full sweep at
    max_cap."""
    full = successive_minima(A, count, max_cap)
    assert (rep.minima, rep.minimizers, rep.truncated) == (full.minima, full.minimizers, full.truncated), A


def assert_matches_doubling_oracle(A: IntegerSet, count: int, max_cap: int) -> None:
    """find_minima has the oracle's minima, minimizers and truncation, and
    reports the last cap it swept, which is max_cap when truncated."""
    rep = find_minima(A, count, max_cap)
    oracle = doubling_find_minima(A, count, max_cap)
    assert (rep.minima, rep.minimizers, rep.truncated) == (oracle.minima, oracle.minimizers, oracle.truncated)
    assert rep.cap == swept_caps(A, count, max_cap)[-1]
    if rep.truncated:
        assert rep.cap == max_cap
    else:
        assert rep.minima[-1] <= rep.cap


def sorted_shells(shells):
    return {norm: sorted(vecs) for norm, vecs in shells.items()}


def canonical_naive_shells(A, cap):
    expected = {}
    for vec in naive_ball(A, cap):
        canon = vec if next(x for x in vec if x) > 0 else tuple(-x for x in vec)
        expected.setdefault(sum(map(abs, canon)), set()).add(canon)
    return sorted_shells(expected)


def test_basis_rank_and_orthogonality():
    for elems in [(0, 2, 18, 25), (1, 5, 96, 100), (3, 7, 20, 21, 50), (0, 1, 2, 3, 4, 5)]:
        A = IntegerSet(elems)
        basis = coefficient_lattice_basis(A)
        assert len(basis.rows) == A.k - 2
        for row in basis.rows:
            assert sum(row) == 0
            assert sum(x * y for x, y in zip(row, A.elements)) == 0


def test_basis_membership_golden():
    basis = coefficient_lattice_basis(IntegerSet([1, 5, 96, 100]))
    assert basis.contains((1, -1, -1, 1))
    assert basis.contains((0, -4, 95, -91))
    assert not basis.contains((1, -1, 0, 0))
    basis2 = coefficient_lattice_basis(IntegerSet([0, 1, 3, 4]))
    assert basis2.contains((1, -1, -1, 1))


def test_contains_rejects_a_rational_combination():
    # (2*r1, r2) spans the same rational space as the basis but only an
    # index-2 sublattice, so r1 (coefficient 1/2) is in the span, not in it
    A = IntegerSet([1, 5, 96, 100])
    r1, r2 = coefficient_lattice_basis(A).rows
    sub = LatticeBasis((tuple(2 * x for x in r1), r2), A)
    assert not sub.contains(r1)
    assert sub.contains(tuple(2 * x + y for x, y in zip(r1, r2)))
    assert not sub.contains(tuple(x + y for x, y in zip(r1, r2)))


def test_basis_generates_every_short_vector():
    # lattice basis, not merely a spanning set: every enumerated member
    # must be an integer combination of the rows
    rng = random.Random(321)
    for _ in range(10):
        k = rng.choice([4, 5])
        A = IntegerSet(rng.sample(range(1, 40), k))
        basis = coefficient_lattice_basis(A)
        for vec in naive_ball(A, 8):
            assert basis.contains(vec)


def test_basis_rejects_small_k():
    with pytest.raises(ValueError):
        coefficient_lattice_basis(IntegerSet([1, 2]))


def test_minima_golden_values():
    rep = successive_minima(IntegerSet([0, 2, 18, 25]), 2, 64)
    assert rep.minima == (8, 18)
    assert not rep.truncated

    rep = successive_minima(IntegerSet([1, 5, 96, 100]), 2, 200)
    assert rep.minima == (4, 190)
    assert rep.minimizers[0] in ((1, -1, -1, 1), (-1, 1, 1, -1))
    assert rep.minimizers[1] in ((0, -4, 95, -91), (0, 4, -95, 91))
    # find_minima sweeps once, at lambda_2 itself, and reports that radius
    rep = find_minima(IntegerSet([1, 5, 96, 100]), 2)
    assert (rep.minima, rep.cap, rep.truncated) == ((4, 190), 190, False)


def test_minima_lemma_set_derived():
    # frozen from the naive oracle: {0,1,3,4} has minima (4, 6) with the
    # norm-4 shell exactly {+-(1,-1,-1,1)}
    rep = successive_minima(IntegerSet([0, 1, 3, 4]), 2, 64)
    assert rep.minima == (4, 6)
    assert rep.minimizers[0] in ((1, -1, -1, 1), (-1, 1, 1, -1))


def test_shells_match_naive_oracle():
    rng = random.Random(2024)
    cases = [IntegerSet(rng.sample(range(1, 201), 4)) for _ in range(10)]
    cases += [IntegerSet(rng.sample(range(1, 201), 5)) for _ in range(4)]
    for A in cases:
        cap = 10 if A.k == 5 else 14
        expected = {}
        for vec in naive_ball(A, cap):
            canon = vec if next(x for x in vec if x) > 0 else tuple(-x for x in vec)
            expected.setdefault(sum(map(abs, canon)), set()).add(canon)
        shells = lattice_shells(A, cap)
        got = {n: set(v) for n, v in shells.items()}
        assert got == expected


def test_minima_against_naive_independence():
    rng = random.Random(5150)
    for _ in range(15):
        A = IntegerSet(rng.sample(range(1, 200), 4))
        rep = find_minima(A, 2, max_cap=2048)
        assert not rep.truncated
        lam1, lam2 = rep.minima
        ball = naive_ball(A, lam2)
        # no nonzero vector below the first minimum
        assert all(sum(map(abs, v)) >= lam1 for v in ball)
        # every vector below the second minimum is proportional to the first
        # minimizer (2x2 minors of the pair all vanish)
        y1 = rep.minimizers[0]
        for v in ball:
            if sum(map(abs, v)) < lam2:
                assert all(v[i] * y1[j] == v[j] * y1[i] for i in range(4) for j in range(4))


def greedy_ball_minima(A: IntegerSet, count: int, cap: int):
    """Oracle that shares no code with lattice_shells: the canonical
    vectors of naive_ball(A, cap), sorted by (norm, vector), each kept
    when the rational rank test finds it independent of those kept before.
    The first `count` kept are the minimizers MinimaReport promises: the
    lexicographically least at each norm."""
    canonical = {v if next(x for x in v if x) > 0 else tuple(-x for x in v) for v in naive_ball(A, cap)}
    echelon = RationalEchelonOracle()
    minima, minimizers = [], []
    for vec in sorted(canonical, key=lambda v: (sum(map(abs, v)), v)):
        if len(minima) < count and echelon.try_add(vec):
            minima.append(sum(map(abs, vec)))
            minimizers.append(vec)
    return tuple(minima), tuple(minimizers)


@pytest.mark.parametrize("k, span", [(5, 60), (6, 30)])
def test_k5_k6_minimizers_match_greedy_naive_ball(k, span):
    rng = random.Random(2024 + k)
    for _ in range(25):
        A = IntegerSet(rng.sample(range(span), k))
        for count in range(1, k - 1):
            rep = find_minima(A, count, max_cap=4096)
            assert not rep.truncated
            assert (rep.minima, rep.minimizers) == greedy_ball_minima(A, count, rep.minima[-1])


def test_minima_invariants():
    rng = random.Random(777)
    for _ in range(20):
        k = rng.choice([4, 5])
        A = IntegerSet(rng.sample(range(1, 150), k))
        rep = find_minima(A, k - 2, max_cap=1024)
        assert list(rep.minima) == sorted(rep.minima)
        if rep.minima:
            assert rep.minima[0] >= 4
        for norm, vec in zip(rep.minima, rep.minimizers):
            assert sum(map(abs, vec)) == norm
            assert norm % 2 == 0
            assert sum(vec) == 0
            assert sum(x * y for x, y in zip(vec, A.elements)) == 0
            assert next(x for x in vec if x) > 0  # canonical sign


def test_minima_rank_one_lattice():
    # k = 3: the lattice is spanned by one primitive vector; for {0,1,3}
    # that is (2,-3,1) with norm 6 (oracle: the naive ball scan)
    A = IntegerSet([0, 1, 3])
    rep = successive_minima(A, 1, 16)
    assert rep.minima == (6,)
    assert rep.minimizers[0] == (2, -3, 1)
    assert {v for v in naive_ball(A, 6)} == {(2, -3, 1), (-2, 3, -1)}


def test_contains_rejects_wrong_length():
    basis = coefficient_lattice_basis(IntegerSet([0, 1, 3, 4]))
    assert not basis.contains((1, -1, 0))


def test_minima_deterministic():
    A = IntegerSet([4, 9, 31, 44, 60])
    r1 = find_minima(A, 3, max_cap=512)
    r2 = find_minima(A, 3, max_cap=512)
    assert r1 == r2


def test_truncation_reported():
    rep = successive_minima(IntegerSet([1, 5, 96, 100]), 2, 8)
    assert rep.truncated
    assert rep.minima == (4,)


def test_parameter_validation():
    A = IntegerSet([0, 2, 18, 25])
    with pytest.raises(ValueError):
        successive_minima(A, 2, 9)  # odd cap
    with pytest.raises(ValueError):
        successive_minima(A, 3, 64)  # count > k-2
    with pytest.raises(ValueError):
        successive_minima(IntegerSet([1, 2]), 1, 64)  # k < 3


def test_report_serialization():
    rep = successive_minima(IntegerSet([0, 2, 18, 25]), 2, 64)
    d = rep.to_dict()
    assert d["minima"] == [8, 18]
    assert d["cap"] == 64
    assert d["truncated"] is False
    assert isinstance(d["minimizers"][0], list)


def assert_shells_sorted(shells):
    # the lattice_shells contract successive_minima relies on: every shell
    # lists its vectors in strictly increasing lexicographic order
    for vecs in shells.values():
        assert all(u < v for u, v in zip(vecs, vecs[1:]))


def test_shells_match_scanning_oracle():
    # congruence stepping against the scanning enumerator on seeded sets
    # of either sign, k = 3..6, det = a_k - a_{k-1} up to 10^4
    rng = random.Random(20250809)
    caps = {3: 80, 4: 80, 5: 24, 6: 12}
    for i in range(1200):
        k = 3 + i % 4
        span = rng.choice([12, 300, 20_000])
        elems = sorted(rng.sample(range(-span, span + 1), k - 1))
        elems.append(elems[-1] + rng.randint(1, rng.choice([20, 10_000])))
        A = IntegerSet(elems)
        cap = rng.randint(caps[k] // 2, caps[k])
        shells = lattice_shells(A, cap)
        assert sorted_shells(shells) == sorted_shells(scan_shells(A.elements, cap))
        # key order and list order too: c_{k-3} is looped inline and must
        # emit as one call per value does
        assert list(shells.items()) == list(recursive_shells(A, cap).items())
        assert_shells_sorted(shells)


CONGRUENCE_EDGE_CASES = [
    ((0, 2, 18, 19), 60),  # det = 1, so m = 1: every c_{k-2} solves
    ((-7, 3, 40, 41, 42), 14),  # det = 1 at k = 5
    ((0, 3, 5, 7), 60),  # a_{k-2} = a_k (mod det): u = 0, g = det, m = 1
    ((1, 10, 100, 190), 60),  # u = 0 with det = 90
    ((-30, -20, -10, 10, 20, 30), 10),  # u = 0 at k = 6
    ((0, 1, 3), 80),  # k = 3: no scanned coordinate
    ((-50, 7, 100), 400),  # k = 3, both signs, det = 93, g = 3, m = 31
    ((5, 6, 7), 40),  # k = 3, det = 1
]


@pytest.mark.parametrize("elems, cap", CONGRUENCE_EDGE_CASES)
def test_shells_congruence_edge_cases(elems, cap):
    A = IntegerSet(elems)
    shells = lattice_shells(A, cap)
    assert sorted_shells(shells) == sorted_shells(scan_shells(A.elements, cap))
    assert list(shells.items()) == list(recursive_shells(A, cap).items())
    assert_shells_sorted(shells)
    assert shells  # each case has vectors within its cap


# (count, k, elements, max_cap): the sets and caps find_minima sweeps. The
# first three are the workload shapes: theorem k = 4 and k = 5, minstat k = 4.
SWEPT_SHAPES = [
    pytest.param(2, 4, range(1, 201), 4096, id="theorem-k4"),
    pytest.param(1, 4, range(1, 10_001), 1024, id="minstat-k4"),
    pytest.param(2, 5, range(1, 101), 4096, id="theorem-k5"),
    pytest.param(2, 4, range(-10_000, 10_001), 4096, id="k4-signed"),
    pytest.param(2, 5, range(-100, 101), 4096, id="k5-signed"),
    pytest.param(1, 3, range(-300, 301), 4096, id="k3-signed"),
    pytest.param(3, 6, range(-40, 41), 40, id="k6-signed"),
    pytest.param(1, 6, range(-10_000, 10_001), 20, id="k6-wide"),
]


@pytest.mark.parametrize("count, k, elements, max_cap", SWEPT_SHAPES)
def test_shells_match_order_oracle_at_swept_caps(count, k, elements, max_cap):
    # the box bounds against the oracle that steps every c of the class,
    # at the last cap find_minima sweeps: same keys, same lists, same order
    rng = random.Random(f"{count}:{k}:{elements}")
    emitted = 0
    for _ in range(200):
        A = IntegerSet(rng.sample(elements, k))
        cap = find_minima(A, count, max_cap).cap
        items = list(lattice_shells(A, cap).items())
        assert items == list(recursive_shells(A, cap).items()), (A, cap)
        assert_shells_sorted(dict(items))
        emitted += sum(len(vecs) for _, vecs in items)
    assert emitted > 100  # not a corpus of empty sweeps


@settings(max_examples=500, deadline=None)
@given(st.integers(-60, 60), st.integers(-60, 60), st.integers(-60, 60), st.integers(0, 200))
def test_three_term_norm_identity(y1, y2, y3, rest):
    # |y1| + |y2| + |y3| = max(|S|, |S - 2 y_i|) for S = y1 + y2 + y3; so
    # when |S| <= rest the norm is at most rest exactly when every y_i lies
    # in the box lattice_shells steps through
    S = y1 + y2 + y3
    assert abs(y1) + abs(y2) + abs(y3) == max(abs(S), *(abs(S - 2 * y) for y in (y1, y2, y3)))
    if abs(S) <= rest:
        box = range(-((rest - S) // 2), (S + rest) // 2 + 1)
        assert (abs(y1) + abs(y2) + abs(y3) <= rest) == all(y in box for y in (y1, y2, y3))


@st.composite
def small_lattice_cases(draw):
    k = draw(st.integers(3, 5))
    elems = draw(st.lists(st.integers(-60, 60), min_size=k, max_size=k, unique=True))
    cap = draw(st.integers(0, 12 if k < 5 else 6))
    return IntegerSet(elems), cap


@settings(max_examples=80, deadline=None)
@given(small_lattice_cases())
def test_shells_property_against_naive_ball(case):
    A, cap = case
    assert sorted_shells(lattice_shells(A, cap)) == canonical_naive_shells(A, cap)


# Caps the doubling oracle may reach, by k: a sweep of the L1 ball costs
# about cap^(k-3) steps, so k = 6 stops at 32 and k = 7 at 16.
_MAX_CAPS = {3: [4, 8, 16, 64, 256], 4: [4, 8, 16, 64, 256], 5: [4, 8, 16, 64, 128],
             6: [4, 8, 16, 32], 7: [4, 8, 16]}


@st.composite
def minima_cases(draw):
    k = draw(st.integers(3, 7))
    span = draw(st.sampled_from([8, 60, 10_000, 10**6]))
    elems = draw(st.lists(st.integers(-span, span), min_size=k, max_size=k, unique=True))
    count = draw(st.integers(1, k - 2))
    return IntegerSet(elems), count, draw(st.sampled_from(_MAX_CAPS[k]))


@settings(max_examples=300, deadline=None)
@given(minima_cases())
def test_find_minima_matches_doubling_oracle(case):
    assert_matches_doubling_oracle(*case)


@settings(max_examples=150, deadline=None)
@given(minima_cases())
def test_find_minima_matches_one_full_sweep_property(case):
    # every max_cap in _MAX_CAPS keeps one full sweep inside the budget:
    # the densest lattice, of an arithmetic progression, emits 94,189
    # vectors at k = 5 and cap 128
    assert_matches_full_sweep(find_minima(*case), *case)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-60, 60), min_size=4, max_size=4, unique=True))
def test_gauss_minima_are_the_swept_minima(elems):
    # at rank 2 the Gauss norms are exactly the two minima; an overestimate
    # would still sweep the right minimizers, so check the norms themselves
    # against a certified sweep
    A = IntegerSet(elems)
    rep = doubling_find_minima(A, 2, 4096)
    assert not rep.truncated
    assert tuple(lattice._gauss_norms(A)) == rep.minima


NAMED_K4_SETS = [
    IntegerSet([0, 1, 3, 4]),  # minima (4, 6)
    construct_lemma_set(2, 2),  # equal minima (4, 4)
    construct_lemma_set(5, 5),  # equal minima (10, 10)
    construct_lemma_set(3, 7),
    IntegerSet([1, 5, 96, 100]),  # minima (4, 190): truncated below 190
    IntegerSet([-10**6, -3, 17, 999_983]),
]
NAMED_K4_CAPS = [4, 8, 16, 64, 100, 256]


@pytest.mark.parametrize("A", NAMED_K4_SETS)
@pytest.mark.parametrize("max_cap", NAMED_K4_CAPS)
def test_k4_find_minima_matches_doubling_oracle_on_named_sets(A, max_cap):
    for count in (1, 2):
        assert_matches_doubling_oracle(A, count, max_cap)


NAMED_SETS_OF_EVERY_K = [
    IntegerSet([0, 1, 3]),  # rank 1: (2, -3, 1)
    IntegerSet([-50, 7, 100]),  # rank 1, norm 250 above most caps
    construct_lemma_set(2, 3, 5),
    construct_lemma_set(4, 4, 6),  # equal minima
    IntegerSet([4, 9, 31, 44, 60]),
    IntegerSet([0, 1, 2, 3, 4, 5]),
    IntegerSet([-10**6, -7, 3, 12, 999_983, 10**6 + 1]),
    IntegerSet([1, 2, 4, 8, 16, 32, 64]),
]


@pytest.mark.parametrize("A", NAMED_SETS_OF_EVERY_K)
@pytest.mark.parametrize("max_cap", [4, 8, 16, 30, 64])
def test_find_minima_matches_doubling_oracle_on_named_sets_of_every_k(A, max_cap):
    for count in range(1, A.k - 1):
        assert_matches_doubling_oracle(A, count, max_cap)


SWEEP_CASES = [
    ((0, 1, 3), 1, 1024),
    ((-50, 7, 100), 1, 64),  # the one vector has norm 250 > max_cap
    ((4, 9, 31, 44, 60), 3, 512),
    ((4, 9, 31, 44, 60), 2, 16),
    ((0, 1, 2, 3, 4, 5), 2, 64),
    ((0, 1, 2, 3, 4, 5), 4, 8),
    ((1, 5, 96, 100), 2, 1024),  # k = 4 sweeps at lambda_2 = 190 itself
    ((1, 5, 96, 100), 2, 64),  # lambda_2 = 190 > max_cap: truncated
    ((-53, -43, -41, 12, 46, 58), 4, 148),  # lambda_4 = 12: caps 4, 8, 16
]


def counted_sweeps(monkeypatch) -> list[int]:
    """Patch lattice.successive_minima to record the cap of every sweep."""
    caps = []
    sweep = lattice.successive_minima

    def counted(A, count, cap):
        caps.append(cap)
        return sweep(A, count, cap)

    monkeypatch.setattr(lattice, "successive_minima", counted)
    return caps


@pytest.mark.parametrize("elems, count, max_cap", SWEEP_CASES)
def test_find_minima_cap_sequence(monkeypatch, elems, count, max_cap):
    # k <= 4 sweeps once, at min(lambda_count, max_cap); k >= 5 sweeps at
    # 4, 8, 16, ... until a sweep is not truncated or reaches max_cap
    A = IntegerSet(elems)
    expected = swept_caps(A, count, max_cap)
    caps = counted_sweeps(monkeypatch)
    rep = find_minima(A, count, max_cap)
    assert caps == expected
    assert rep.cap == caps[-1]
    assert_matches_doubling_oracle(A, count, max_cap)


@settings(max_examples=300, deadline=None)
@given(minima_cases())
def test_minima_values_match_find_minima(case):
    assert lattice._minima_values(*case) == find_minima(*case).minima


@pytest.mark.parametrize("A", NAMED_K4_SETS + NAMED_SETS_OF_EVERY_K[:2])
@pytest.mark.parametrize("max_cap", NAMED_K4_CAPS)
def test_minima_values_match_find_minima_on_named_sets(A, max_cap):
    for count in range(1, A.k - 1):
        assert lattice._minima_values(A, count, max_cap) == find_minima(A, count, max_cap).minima


@pytest.mark.parametrize("elems, count, max_cap", SWEEP_CASES)
def test_minima_values_sweep_only_at_k_above_4(monkeypatch, elems, count, max_cap):
    # rank <= 2 reads the minima off the Gauss norms; rank >= 3 sweeps at
    # the caps find_minima sweeps
    A = IntegerSet(elems)
    expected = find_minima(A, count, max_cap).minima
    expected_caps = swept_caps(A, count, max_cap) if A.k >= 5 else []
    caps = counted_sweeps(monkeypatch)
    assert lattice._minima_values(A, count, max_cap) == expected
    assert caps == expected_caps


def test_gauss_minima_equal_minima_and_either_row_order(monkeypatch):
    kernel = lattice._difference_kernel
    for order in (1, -1):
        monkeypatch.setattr(lattice, "_difference_kernel", lambda a: kernel(a)[::order])
        for a, b in [(2, 2), (3, 3), (2, 9), (6, 11)]:
            assert lattice._gauss_norms(construct_lemma_set(a, b)) == [2 * a, 2 * b]


def test_find_minima_on_the_set_a_single_sweep_could_not_finish():
    # the minima lie far below max_cap, where one sweep passes the vector
    # budget; doubling stops at cap 16
    rep = find_minima(IntegerSet([-53, -43, -41, 12, 46, 58]), 4, 148)
    assert rep.minima == (4, 8, 12, 12)
    assert rep.cap == 16
    assert not rep.truncated


# (k, n, count, max_cap): the sets are k-subsets of 1..n; each max_cap
# keeps one full sweep well inside the vector budget
FULL_SWEEP_SHAPES = [(5, 1000, 3, 48), (6, 120, 4, 16), (4, 200, 2, 64)]


@pytest.mark.parametrize("k, n, count, max_cap", FULL_SWEEP_SHAPES)
def test_find_minima_matches_one_full_sweep(k, n, count, max_cap):
    rng = random.Random(f"{k}:{n}:{count}")
    truncated = 0
    for _ in range(150):
        A = IntegerSet(rng.sample(range(1, n + 1), k))
        rep = find_minima(A, count, max_cap)
        assert_matches_full_sweep(rep, A, count, max_cap)
        truncated += rep.truncated
    assert 0 < truncated < 150  # both outcomes occur


def first_sweep_find_minima(A: IntegerSet, count: int, max_cap: int) -> lattice.MinimaReport:
    """Mutant of find_minima: returns its first sweep even when that sweep
    is truncated."""
    cap = min(lattice._gauss_norms(A)[count - 1] if A.k <= 4 else 4, max_cap)
    return successive_minima(A, count, cap)


def test_full_sweep_oracle_catches_a_doubling_that_stops_early():
    A = IntegerSet([4, 9, 31, 44, 60])
    assert_matches_full_sweep(find_minima(A, 3, 128), A, 3, 128)
    with pytest.raises(AssertionError):
        assert_matches_full_sweep(first_sweep_find_minima(A, 3, 128), A, 3, 128)


@pytest.mark.parametrize(
    "elems, count, max_cap, message",
    [
        ((0, 2, 18, 25), 0, 64, r"count must be in \[1, 2\]"),
        ((0, 2, 18, 25), 3, 64, r"count must be in \[1, 2\]"),
        ((0, 2, 18, 25), 1, 2, "cap must be an even integer >= 4"),
        # lambda_1 = 8, so a sweep at min(lambda_1, max_cap) alone would pass
        ((0, 2, 18, 25), 1, 9, "cap must be an even integer >= 4"),
        # the doubling loop used to accept this one: lambda_2 = 18, so it
        # stopped at cap 32 and never swept the odd max_cap
        ((0, 2, 18, 25), 2, 1025, "cap must be an even integer >= 4"),
        ((0, 1, 3, 4), 1, -4, "cap must be an even integer >= 4"),
        ((1, 2), 1, 64, "successive minima need k >= 3"),
    ],
)
def test_find_minima_rejects_bad_arguments_before_reducing(monkeypatch, elems, count, max_cap, message):
    def no_reduction(A):
        raise AssertionError("reduction ran before the arguments were checked")

    monkeypatch.setattr(lattice, "_gauss_norms", no_reduction)
    with pytest.raises(ValueError, match=message):
        find_minima(IntegerSet(elems), count, max_cap)
    with pytest.raises(ValueError, match=message):
        lattice._minima_values(IntegerSet(elems), count, max_cap)
    # the message successive_minima gives for the same count and cap
    with pytest.raises(ValueError, match=message):
        successive_minima(IntegerSet(elems), count, max_cap)


def _random_set(rng, k, span):
    return IntegerSet(rng.sample(range(-span, span + 1), k))


def test_difference_kernel_matches_hermite_oracle():
    # identical rows, not merely the same lattice: `lattice basis` prints them
    rng = random.Random(60_221)
    for i in range(5000):
        k = 3 + i % 6
        A = _random_set(rng, k, rng.choice([10, 10**4, 10**9, 10**12]))
        rows = kernel_columns_oracle([[1] * k, list(A.elements)])
        assert coefficient_lattice_basis(A).rows == tuple(rows), A


def _planted_sequence(rng, dim):
    """Integer vectors of length dim, some with zero entries. About 40% are
    dependent on earlier ones: an integer combination, sometimes divided by
    its content and rescaled, so a rational combination."""
    vecs = []
    for _ in range(rng.randint(1, 2 * dim)):
        if vecs and rng.random() < 0.4:
            v = [0] * dim
            for u in rng.sample(vecs, min(len(vecs), rng.randint(1, 3))):
                c = rng.randint(-6, 6)
                v = [x + c * y for x, y in zip(v, u)]
            if rng.random() < 0.3:
                g = gcd(*v) or 1
                v = [x // g * rng.choice([1, -2, 3]) for x in v]
        else:
            span = rng.choice([3, 50, 10**9])
            v = [rng.randint(-span, span) if rng.random() < 0.7 else 0 for _ in range(dim)]
        vecs.append(tuple(v))
    return vecs


def test_integer_echelon_matches_fraction_oracle():
    rng = random.Random(1968)
    for _ in range(600):
        dim = rng.randint(3, 10)
        new, old = lattice._IntegerEchelon(), RationalEchelonOracle()
        for vec in _planted_sequence(rng, dim):
            scale, w = new.reduce(vec)
            assert scale > 0 and not any(w[p] for p, _ in new.rows)
            assert new.try_add(vec) == old.try_add(vec), vec
            # same pivots; stored rows primitive with a positive pivot
            assert [p for p, _ in new.rows] == [p for p, _ in old.rows]
            assert all(gcd(*row) == 1 and row[p] > 0 for p, row in new.rows)


def test_contains_matches_fraction_oracle():
    # integral and half-integral combinations of the basis rows, plus a
    # small perturbation, against the Fraction membership test
    rng = random.Random(4242)
    for i in range(90):
        k = 3 + i % 6
        basis = coefficient_lattice_basis(_random_set(rng, k, rng.choice([20, 10**6])))
        for _ in range(5):
            coeffs = [Fraction(rng.randint(-7, 7), rng.choice([1, 1, 2])) for _ in basis.rows]
            vec = [sum(c * r[j] for c, r in zip(coeffs, basis.rows)) for j in range(k)]
            off = [x + (j == 0) - (j == 1) for j, x in enumerate(vec)]
            for cand in (vec, off, [int(x) for x in vec]):
                cand = tuple(cand)
                assert basis.contains(cand) == fraction_contains(basis, cand), (basis, cand)
            # the rows are independent, so vec is a member exactly when its
            # coefficients are integral
            assert basis.contains(tuple(vec)) == all(c.denominator == 1 for c in coeffs)


def test_contains_converts_integral_coordinates_and_rejects_the_rest():
    basis = coefficient_lattice_basis(IntegerSet([1, 5, 96, 100]))
    # integral values convert as IntegerSet converts elements
    assert basis.contains((1.0, -1, -1, 1))
    assert basis.contains((Fraction(2, 2), -1, -1, True))
    # a non-integral coordinate is not in Z^k, so not in the lattice
    assert not basis.contains((0.5, -1, -1, 1))
    assert not basis.contains((Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 2), Fraction(1, 2)))
    assert not basis.contains((float("inf"), -1, -1, 1))
    assert not basis.contains((float("nan"), -1, -1, 1))


# ---------------------------------------------------------------------------
# The block path: _minima_values_block against per-set _minima_values.


def per_set_minima_values(sets, count, max_cap):
    return [lattice._minima_values(IntegerSet(s), count, max_cap) for s in sets]


@st.composite
def minima_blocks(draw):
    # k >= 5 sweeps each set by cap doubling, twice (the block falls back
    # to the oracle), so its blocks and spans stay small
    k = draw(st.integers(3, 6))
    spans = [8, 60, 10_000, 10**6, 2**31, 2**40] if k <= 4 else [8, 60]
    span = draw(st.sampled_from(spans))
    elems = st.lists(st.integers(-span, span), min_size=k, max_size=k, unique=True)
    size = 40 if k <= 4 else 6
    sets = draw(st.lists(elems.map(lambda e: tuple(sorted(e))), min_size=1, max_size=size))
    count = draw(st.integers(1, k - 2))
    return sets, count, 2 * draw(st.integers(2, 2048))


@settings(max_examples=300, deadline=None)
@given(minima_blocks())
# a k = 6 set with minima (4, 8, 12, 12), whose one sweep at max_cap 148
# passes the vector budget
@example(([(0, 1, 2, 3, 4, 5)] * 4 + [(-53, -43, -41, 12, 46, 58)], 4, 148))
def test_minima_values_block_matches_per_set(case):
    assert lattice._minima_values_block(*case) == per_set_minima_values(*case)


def recorded_fallbacks(monkeypatch) -> list[tuple[int, ...]]:
    """Patch lattice._minima_values to record the set of every call."""
    seen = []
    per_set = lattice._minima_values

    def recorded(A, count, max_cap):
        seen.append(A.elements)
        return per_set(A, count, max_cap)

    monkeypatch.setattr(lattice, "_minima_values", recorded)
    return seen


M31 = 2**31 - 1


@pytest.mark.parametrize(
    "sets, fallback",
    [
        # a_k - a_1 = 2^31 - 1 joins the block; its kernel rows are short
        ([(0, 548_563_997, 1_337_671_203, M31)], []),
        ([(5, 548_563_997, 1_337_671_203, M31 + 5)], []),
        # a_k - a_1 = 2^31 goes through _minima_values
        ([(0, 548_563_997, 1_337_671_203, M31 + 1)], [0]),
        ([(-1, 548_563_997, 1_337_671_203, M31)], [0]),
        # a prime spread of 2^31 - 1 at k = 3: the one kernel row has norm
        # 2(2^31 - 1), above the row guard
        ([(0, 1_000_000, M31), (0, 1, 2, 3)], [0]),
        # the int64 range ends at 2^63 - 1 and starts at -2^63; elements
        # outside it go through _minima_values, whatever the spread
        ([(2**63 - 8, 2**63 - 7, 2**63 - 5, 2**63 - 1)], []),
        ([(2**63 - 7, 2**63 - 6, 2**63 - 4, 2**63)], [0]),
        ([(-(2**63) + 1, -(2**63) + 6, -(2**63) + 97, -(2**63) + 101)], []),
        ([(-(2**70), -(2**70) + 5, -(2**70) + 96, -(2**70) + 100)], [0]),
        ([(0, 2**62, 2**63 - 1, 2**63)], [0]),
        # a mixed block keeps its order, k = 3 and k = 4 apart
        ([(0, 2, 18, 25), (0, 3, 7), (1, 2**40, 2**41, 2**42), (1, 5, 96, 100)], [2]),
    ],
)
@pytest.mark.parametrize("count", [1, 2])
def test_minima_values_block_guards(monkeypatch, sets, fallback, count):
    count = min(count, min(len(s) for s in sets) - 2)
    expected = per_set_minima_values(sets, count, 4096)
    seen = recorded_fallbacks(monkeypatch)
    assert lattice._minima_values_block(sets, count, 4096) == expected
    assert seen == [sets[i] for i in fallback]


def test_minima_values_block_samples_past_int64(monkeypatch):
    # the sampler's largest n: elements up to 2^63, which no int64 holds;
    # every spread is far past 2^31, so every set takes the fallback
    from sumsetlab.experiments import _draw_subsets, _shard_keys

    [sets] = _draw_subsets(2**63, 4, ((_shard_keys(3)[0], 30),))
    assert max(max(s) for s in sets) >= 2**62
    expected = per_set_minima_values(sets, 2, 64)
    seen = recorded_fallbacks(monkeypatch)
    assert lattice._minima_values_block(sets, 2, 64) == expected
    assert seen == sets


def test_minima_values_block_sends_k_above_4_through_the_sweep(monkeypatch):
    sets = [(0, 1, 5, 11, 19), (2, 3, 10, 40, 41, 70)]
    expected = per_set_minima_values(sets, 2, 64)
    seen = recorded_fallbacks(monkeypatch)
    assert lattice._minima_values_block(sets, 2, 64) == expected
    assert seen == sets


def test_kernel_block_freezes_a_set_whose_transform_leaves_the_guard(monkeypatch):
    # d = (1, 2, 100): the first step writes -100 into a transform, so at
    # a guard of 64 that set is frozen and marked, and its neighbour is not
    monkeypatch.setattr(lattice, "_INT64_GUARD", 64)
    d = np.array([[1, 2, 100], [2, 3, 5]], dtype=np.int64)
    kernel, ok = lattice._kernel_block(d)
    assert ok.tolist() == [False, True]
    rows = tuple(map(tuple, kernel[1].tolist()))
    assert rows == coefficient_lattice_basis(IntegerSet([0, 2, 3, 5])).rows


def test_minima_values_block_checks_arguments():
    with pytest.raises(ValueError, match=r"count must be in \[1, 2\]"):
        lattice._minima_values_block([(0, 2, 18, 25)], 3, 64)
    with pytest.raises(ValueError, match="cap must be an even integer >= 4"):
        lattice._minima_values_block([(0, 2, 18, 25)], 1, 63)
    with pytest.raises(ValueError, match="successive minima need k >= 3"):
        lattice._minima_values_block([(1, 2)], 1, 64)
    assert lattice._minima_values_block([], 1, 64) == []
