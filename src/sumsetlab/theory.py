"""Closed-form sumset-size predictions from lattice minima, brute-force
verification, and explicit constructions realizing prescribed minima and
sizes.

With 2h_1, 2h_2 the first two L1 minima of the coefficient lattice of a
k-element set A (k >= 4):

    |hA| = C(h+k-1, k-1)                          for 1 <= h < h_1
    |hA| = C(h+k-1, k-1) - C(h-h_1+k-1, k-1)      for h_1 <= h < h_2

The second line subsumes the first via the vanishing-binomial convention,
so predicted_size evaluates one expression for every h < h_2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import IntegerSet, composition_count
from .lattice import MinimaReport, find_minima
from .sumset import fold_sizes


class MinimaTruncatedError(RuntimeError):
    """The second lattice minimum was not found within the cap, so the
    prediction range is unknown. Raised instead of silently verifying a
    shorter range."""


def predicted_size(h: int, k: int, h1: int) -> int:
    """Predicted |hA| for a k-set whose first lattice minimum is 2*h1.

    Only valid for h below the second minimum h2; the caller enforces
    that bound.
    """
    if h < 1:
        raise ValueError("h must be positive")
    if k < 4:
        raise ValueError("prediction requires k >= 4")
    if h1 < 2:
        raise ValueError("h1 is at least 2 for any set of distinct integers")
    return composition_count(h, k) - composition_count(h - h1, k)


@dataclass(frozen=True)
class VerificationReport:
    """Brute force vs predicted |hA| for every h below the second minimum."""

    A: IntegerSet
    h1: int
    h2: int
    per_h: tuple[tuple[int, int, int, bool], ...]  # (h, brute, predicted, match)
    all_match: bool

    def to_dict(self) -> dict:
        return {
            "set": list(self.A.elements),
            "h1": self.h1,
            "h2": self.h2,
            "per_h": [
                {"h": h, "brute_size": b, "predicted_size": p, "match": m}
                for h, b, p, m in self.per_h
            ],
            "all_match": self.all_match,
        }


def verify_main_theorem(A: IntegerSet, max_cap: int = 4096) -> VerificationReport:
    """Compute (h1, h2) from the lattice, then check the closed form
    against brute-force sumset sizes for every 1 <= h < h2."""
    if A.k < 4:
        raise ValueError("verification requires k >= 4")
    report: MinimaReport = find_minima(A, 2, max_cap=max_cap)
    if report.truncated:
        raise MinimaTruncatedError(
            f"second minimum of {list(A.elements)} exceeds cap {report.cap}"
        )
    h1 = report.minima[0] // 2
    h2 = report.minima[1] // 2
    per_h: list[tuple[int, int, int, bool]] = []
    brute = fold_sizes(A.elements, h2 - 1)
    for h in range(1, h2):
        pred = predicted_size(h, A.k, h1)
        per_h.append((h, brute[h - 1], pred, brute[h - 1] == pred))
    ok = all(m for *_, m in per_h)
    return VerificationReport(A, h1, h2, tuple(per_h), ok)


def construct_lemma_set(a: int, b: int, k: int = 4) -> IntegerSet:
    """A k-element set whose coefficient lattice has minima exactly
    (2a, 2b), for any 2 <= a <= b.

    The 4-element core is {0, 1, (a-1)(b-1)+1, (a-1)(b-1)+a}, whose first
    minimizer is <1-a, a-1, 1, -1> and second is <0, 1, -b, b-1>. For
    k > 4 the set is extended by a_{i+1} = 2b * a_i, which grows fast
    enough that no shorter vector involves the new coordinates.
    """
    if a < 2:
        raise ValueError("a must be at least 2")
    if b < a:
        raise ValueError("b must be at least a")
    if k < 4:
        raise ValueError("k must be at least 4")
    base = (a - 1) * (b - 1)
    elems = [0, 1, base + 1, base + a]
    while len(elems) < k:
        elems.append(2 * b * elems[-1])
    return IntegerSet(elems)


def construct_cute_set(b: int) -> IntegerSet:
    """The set {0, 1, 3b+1, 3b+4}, whose sumset sizes follow the single
    quadratic 2(h^2+1) for every 1 <= h <= b."""
    if b < 2:
        raise ValueError("b must be at least 2")
    return IntegerSet([0, 1, 3 * b + 1, 3 * b + 4])


def extreme_and_realizable(h: int, k: int) -> tuple[int, int, list[tuple[int, IntegerSet]]]:
    """Extreme values of |hA| over k-element integer sets, plus the family
    of realizable sizes between them that admit an explicit witness.

    Returns (m, M, realizable) where m = hk-h+1 (arithmetic progression),
    M = C(h+k-1, k-1), and realizable lists (size, witness) pairs in
    decreasing size order: M itself, then the popular sizes
    M - C(h-a+k-1, k-1) for a = h down to 2, each witnessed by
    construct_lemma_set(a, h+1, k). For k < 4 the lemma constructor does
    not apply, so only M carries a witness there.
    """
    if h < 1:
        raise ValueError("h must be positive")
    if k < 2:
        raise ValueError("k must be at least 2")
    m = h * k - h + 1
    M = composition_count(h, k)
    realizable: list[tuple[int, IntegerSet]] = []
    if k >= 4:
        realizable.append((M, construct_lemma_set(h + 1, h + 1, k)))
        for a, size in zip(range(h, 1, -1), popular_sizes(h, k)):
            realizable.append((size, construct_lemma_set(a, h + 1, k)))
    else:
        # k = 2: every pair is a B_h set. k = 3: {0, 1, h+1} encodes sums
        # in base h+1, so all sums are distinct.
        witness = IntegerSet([0, 1]) if k == 2 else IntegerSet([0, 1, h + 1])
        realizable.append((M, witness))
    return m, M, realizable


def popular_sizes(h: int, k: int) -> list[int]:
    """The sizes that dominate the distribution of |hA| below the maximum:
    M - C(j+k-1, k-1) for j = 0..h-2, in decreasing order. For k = 4 the
    subtracted terms are the tetrahedral numbers, so consecutive popular
    sizes differ by triangular numbers."""
    M = composition_count(h, k)
    return [M - composition_count(j, k) for j in range(0, h - 1)]
