"""h-fold sumsets, exact size profiles, and deficit tables.

Every sumset computation goes through one kernel, `_fold`. It translates
A so min(A) = 0, giving offsets o_0 = 0 < o_1 < ... < o_{k-1}, and then
folds h - 1 times; one fold step is

    next = cur | (cur << o_1) | ... | (cur << o_{k-1})

on a bitmask of the (h*diam + 1)-bit window [0, h*diam] that holds
hA - h*min(A). A step is k-1 big-int shifts and ORs, which beats
set-based dedup by a wide margin in the dense regime this library scans.
When the window is too wide for a bitmask the same fold runs on a Python
set instead. Both paths are exact and check the size cap after every step.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import CapExceeded, IntegerSet, binomial, normalize

DEFAULT_SIZE_CAP = 100_000_000

# Above this many bits the mask no longer fits comfortably in memory and
# the sparse set path wins anyway.
_BITMASK_SPAN_LIMIT = 1 << 26


def _fold(elements: tuple[int, ...], h: int, cap: int) -> tuple[list[int], int | set[int]]:
    """Sizes [|1A|, ..., |hA|] for a sorted tuple of distinct integers,
    plus hA - h*min(A): a bitmask if its span fits the limit, else a set."""
    if h < 1:
        raise ValueError("h must be positive")
    base = elements[0]
    offsets = tuple(a - base for a in elements)
    shifts = offsets[1:]
    bitmask = h * offsets[-1] <= _BITMASK_SPAN_LIMIT
    if bitmask:
        cur = 1
        for o in shifts:
            cur |= 1 << o
    else:
        cur = set(offsets)
    sizes = [len(offsets)]
    for _ in range(h - 1):
        if bitmask:
            nxt = cur
            for o in shifts:
                nxt |= cur << o
            cur = nxt
            n = cur.bit_count()
        else:
            cur = {s + o for s in cur for o in offsets}
            n = len(cur)
        if n > cap:
            raise CapExceeded(f"sumset size {n} exceeds cap {cap}")
        sizes.append(n)
    return sizes, cur


def fold_sizes(elements: tuple[int, ...], horizon: int, cap: int = DEFAULT_SIZE_CAP) -> list[int]:
    """[|1A|, |2A|, ..., |HA|] in one incremental pass, for a sorted tuple
    of distinct integers. Fast path for loops that do not need the
    IntegerSet wrapper."""
    return _fold(elements, horizon, cap)[0]


def fold_size(elements: tuple[int, ...], h: int, cap: int = DEFAULT_SIZE_CAP) -> int:
    """|hA| for a sorted tuple of distinct integers."""
    return _fold(elements, h, cap)[0][-1]


def h_fold_sumset(A: IntegerSet, h: int, cap: int = DEFAULT_SIZE_CAP) -> IntegerSet:
    """The set hA = {b_1 + ... + b_h : b_i in A}, as a sorted IntegerSet."""
    _, final = _fold(A.elements, h, cap)
    shift = h * A.elements[0]
    if isinstance(final, set):
        return IntegerSet(s + shift for s in final)
    out = []
    while final:
        low = final & -final
        out.append(low.bit_length() - 1 + shift)
        final ^= low
    return IntegerSet(out)


@dataclass(frozen=True)
class SumsetProfile:
    """Sizes |hA| for h = 1..H together with the derived deficit table.

    deficits[h-1] is C(h+k-1, k-1) - |hA|, the count of coinciding sums;
    deficit_first_differences[h-2] is deficits[h-1] - deficits[h-2].
    bh_threshold is the largest h with zero deficit. linear_intercept is
    the constant C0 with |hA| = (diam/g)*h + C0 once the tail of the size
    sequence has stabilized to slope diam/g, where g is the gcd of the
    differences of A (so diam/g is the diameter of normalize(A)); it is
    None when the horizon is too short to exhibit (or trust) the linear
    regime, and the detection is a heuristic on the observed tail, not a
    proof of linearity.
    """

    A: IntegerSet
    horizon: int
    sizes: tuple[int, ...]
    deficits: tuple[int, ...]
    deficit_first_differences: tuple[int, ...]
    bh_threshold: int
    linear_intercept: int | None

    def to_dict(self) -> dict:
        return {
            "set": list(self.A.elements),
            "horizon": self.horizon,
            "sizes": list(self.sizes),
            "deficits": list(self.deficits),
            "deficit_first_differences": list(self.deficit_first_differences),
            "bh_threshold": self.bh_threshold,
            "linear_intercept": self.linear_intercept,
        }


def sumset_profile(A: IntegerSet, horizon: int, cap: int = DEFAULT_SIZE_CAP) -> SumsetProfile:
    """Exact size/deficit profile of A for h = 1..horizon."""
    if A.k < 2:
        raise ValueError("profile requires at least two elements")
    k = A.k
    sizes = tuple(fold_sizes(A.elements, horizon, cap))
    deficits = tuple(binomial(h + k - 1, k - 1) - sizes[h - 1] for h in range(1, horizon + 1))
    diffs = tuple(deficits[i] - deficits[i - 1] for i in range(1, horizon))

    bh = 0
    for h in range(1, horizon + 1):
        if deficits[h - 1] != 0:
            break
        bh = h

    intercept = None
    window = max(3, k)
    if horizon - 1 >= window:
        slope = normalize(A).diam
        growth = [sizes[i] - sizes[i - 1] for i in range(horizon - window, horizon)]
        if all(g == slope for g in growth):
            intercept = sizes[-1] - slope * horizon

    return SumsetProfile(A, horizon, sizes, deficits, diffs, bh, intercept)
