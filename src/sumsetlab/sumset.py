"""h-fold sumsets, exact size profiles, and deficit tables.

Every sumset computation goes through one kernel, `_fold`. It translates
A so min(A) = 0, giving offsets o_0 = 0 < o_1 < ... < o_{k-1}, and then
folds h - 1 times; one fold step is

    next = cur | (cur << o_1) | ... | (cur << o_{k-1})

on a bitmask of the (h*diam + 1)-bit window [0, h*diam] that holds
hA - h*min(A). A step is k-1 big-int shifts and ORs, which beats
set-based dedup by a wide margin in the dense regime this library scans.
When the window is too wide for a bitmask the same fold runs on a Python
set instead. Both paths are exact and check every step's size against
DEFAULT_SIZE_CAP, and the fold's length against DEFAULT_FOLD_BUDGET: the
mask path sizes its work before the first step, as the bits of the masks
its h - 1 steps shift, diam * h(h-1)/2, and the set path counts the
elements each step expands as it goes. Both constants are read at call
time.

`fold_size` sizes hA from the folds of its prefix P = A minus max(A):
given the masks of jP for j = 1..h it reads off |hA| with h shift-ORs and
one bit count (the identity is in its docstring). That is cheaper than
`_fold` even for a single call, since the prefix folds one shift fewer
per step and no step counts bits, so every window up to
_PREFIX_MEMO_SPAN_LIMIT takes it, the random census's included. The masks
of the last prefix are kept, so consecutive calls that share P, as in the
exhaustive scan's lexicographic order, skip the prefix fold as well.
Wider windows and every other caller go through `_fold`, which stays the
only place that picks between mask and set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import CapExceeded, IntegerSet, composition_count, normalize

DEFAULT_SIZE_CAP = 100_000_000

# Work of one `_fold`, summed over its h - 1 steps: on the mask path the
# bits of the mask each step shifts (diam * h(h-1)/2 in all, checked before
# the first step), on the set path the elements of the set each step
# expands (counted as the steps run).
DEFAULT_FOLD_BUDGET = 10_000_000_000

# Above this many bits the mask no longer fits comfortably in memory and
# the sparse set path wins anyway.
_BITMASK_SPAN_LIMIT = 1 << 26

# fold_size takes the prefix identity for windows with h*diam at most this
# limit, which covers the census (h*diam <= 10*999). The h kept masks of
# jP - j*min(P) have j*diam(P) + 1 bits each, and diam(P) < diam(A), so
# they hold sum_j (j*diam(P) + 1) <= (h + 1) * 2**13 bits in all.
_PREFIX_MEMO_SPAN_LIMIT = 1 << 14
_last_prefix: tuple[tuple[int, ...], int, list[int]] = ((), 0, [])


def _fold(elements: tuple[int, ...], h: int) -> tuple[list[int], int | set[int]]:
    """Sizes [|1A|, ..., |hA|] for a sorted tuple of distinct integers,
    plus hA - h*min(A): a bitmask if its span fits the limit, else a set."""
    if h < 1:
        raise ValueError("h must be positive")
    cap, budget = DEFAULT_SIZE_CAP, DEFAULT_FOLD_BUDGET
    base = elements[0]
    offsets = tuple(a - base for a in elements)
    shifts = offsets[1:]
    bitmask = h * offsets[-1] <= _BITMASK_SPAN_LIMIT
    if bitmask:
        work = offsets[-1] * (h * (h - 1) // 2)
        if work > budget:
            raise CapExceeded(f"fold of {work} mask bits exceeds budget {budget}")
        cur = 1
        for o in shifts:
            cur |= 1 << o
    else:
        cur, work = set(offsets), 0
    sizes = [len(offsets)]
    for _ in range(h - 1):
        if bitmask:
            nxt = cur
            for o in shifts:
                nxt |= cur << o
            cur = nxt
            n = cur.bit_count()
        else:
            work += len(cur)
            if work > budget:
                raise CapExceeded(f"fold of {work} set elements so far exceeds budget {budget}")
            cur = {s + o for s in cur for o in offsets}
            n = len(cur)
        if n > cap:
            raise CapExceeded(f"sumset size {n} exceeds cap {cap}")
        sizes.append(n)
    return sizes, cur


def _prefix_masks(prefix: tuple[int, ...], h: int) -> list[int]:
    """[M_1, ..., M_h], with M_j the bitmask of jP - j*min(P), for a sorted
    tuple P of distinct integers."""
    base = prefix[0]
    shifts = [a - base for a in prefix[1:]]
    cur = 1
    for o in shifts:
        cur |= 1 << o
    masks = [cur]
    for _ in range(h - 1):
        nxt = cur
        for o in shifts:
            nxt |= cur << o
        cur = nxt
        masks.append(cur)
    return masks


def fold_sizes(elements: tuple[int, ...], horizon: int) -> list[int]:
    """[|1A|, |2A|, ..., |HA|] in one incremental pass, for a sorted tuple
    of distinct integers. Fast path for loops that do not need the
    IntegerSet wrapper."""
    return _fold(elements, horizon)[0]


def fold_size(elements: tuple[int, ...], h: int) -> int:
    """|hA| for a sorted tuple of distinct integers.

    Write A = P u {x} with x = max(A). hA is the union of (h-j)P + j*x over
    j = 0..h, with 0P = {0}, so with M_j the mask of jP - j*min(P) and
    d = x - min(P) the mask of hA - h*min(A) is OR_j (M_{h-j} << j*d).
    When h*d is at most _PREFIX_MEMO_SPAN_LIMIT the size is read off that
    identity, which costs one fold of P plus h shift-ORs and one
    bit_count; the masks of the last prefix P are kept, so a call with the
    same P and h skips the fold of P. Wider windows, h = 1 and one-element
    sets go through `_fold`. |jA| never decreases in j, so a final size
    within the cap means every step was; a size above it is refolded by
    `_fold`, which raises the same CapExceeded as an unshared fold.
    """
    global _last_prefix
    prefix, d = elements[:-1], elements[-1] - elements[0]
    if h < 2 or not prefix or h * d > _PREFIX_MEMO_SPAN_LIMIT:
        return _fold(elements, h)[0][-1]
    last, last_h, masks = _last_prefix
    if prefix != last or h != last_h:
        masks = _prefix_masks(prefix, h)
        _last_prefix = (prefix, h, masks)
    m = 1
    for mask in masks:
        m = (m << d) | mask
    n = m.bit_count()
    if n > DEFAULT_SIZE_CAP:
        return _fold(elements, h)[0][-1]
    return n


def h_fold_sumset(A: IntegerSet, h: int) -> IntegerSet:
    """The set hA = {b_1 + ... + b_h : b_i in A}, as a sorted IntegerSet."""
    _, final = _fold(A.elements, h)
    shift = h * A.elements[0]
    if isinstance(final, set):
        return IntegerSet(s + shift for s in final)
    # one pass over the mask's binary digits, lowest bit first
    return IntegerSet(i + shift for i, bit in enumerate(bin(final)[:1:-1]) if bit == "1")


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


def sumset_profile(A: IntegerSet, horizon: int) -> SumsetProfile:
    """Exact size/deficit profile of A for h = 1..horizon."""
    if A.k < 2:
        raise ValueError("profile requires at least two elements")
    k = A.k
    sizes = tuple(fold_sizes(A.elements, horizon))
    deficits = tuple(composition_count(h, k) - sizes[h - 1] for h in range(1, horizon + 1))
    diffs = tuple(deficits[i] - deficits[i - 1] for i in range(1, horizon))

    # A coincidence at h gives one at h + 1 (add min A to both sides), so
    # the zero deficits are a prefix and B_h holds up to their count.
    bh = deficits.count(0)

    intercept = None
    window = max(3, k)
    if horizon - 1 >= window:
        slope = normalize(A).diam
        growth = [sizes[i] - sizes[i - 1] for i in range(horizon - window, horizon)]
        if all(g == slope for g in growth):
            intercept = sizes[-1] - slope * horizon

    return SumsetProfile(A, horizon, sizes, deficits, diffs, bh, intercept)
