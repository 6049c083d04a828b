"""The coefficient lattice of an integer set and its successive L1 minima.

For A = {a_1 < ... < a_k} the coefficient lattice is

    L = { c in Z^k : c . 1 = 0  and  c . a = 0 },

a rank k-2 sublattice of Z^k. Its members encode coincidences among
h-fold sums: c splits as u - v with u, v nonnegative compositions of
||c||_1 / 2, and u . a = v . a. Every nonzero member has even L1 norm at
least 4.

Minima are found by certified exhaustive enumeration, not by a reduction
heuristic: coordinates c_1..c_{k-3} are scanned recursively under a
remaining-norm budget, the last free coordinate c_{k-2} is stepped over
the solutions of a linear congruence, and the last two coordinates are
solved exactly from the two linear constraints, so the search tree has
depth k-2. The congruence is the condition that c_{k-1} come out
integral: it is taken modulo det = a_k - a_{k-1}, and its solutions form
at most one residue class modulo m = det / g, where g depends on A only,
so c_{k-2} advances in steps of m instead of 1. The enumeration emits one
canonical representative per {v, -v} pair (first nonzero coordinate
positive). A completed sweep up to norm `cap` proves there is no
undiscovered vector of norm <= cap, which is what makes the reported
minima exact rather than best-found.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .core import IntegerSet


def _kernel_columns(mat: list[list[int]]) -> list[tuple[int, ...]]:
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


@dataclass(frozen=True)
class LatticeBasis:
    """Exact integer basis (k-2 rows) of the coefficient lattice of `set`."""

    rows: tuple[tuple[int, ...], ...]
    set: IntegerSet

    def contains(self, vector: tuple[int, ...]) -> bool:
        """Exact membership test: solve x . rows = vector over Q and check
        the solution is integral."""
        if len(vector) != self.set.k:
            return False
        coeffs = _solve_combination(self.rows, vector)
        return coeffs is not None and all(c.denominator == 1 for c in coeffs)

    def to_dict(self) -> dict:
        return {"set": list(self.set.elements), "rows": [list(r) for r in self.rows]}


def _solve_combination(rows, target):
    """Solve sum_i x_i * rows[i] = target over the rationals; None if the
    target is outside the row span."""
    n = len(rows)
    k = len(target)
    aug = [[Fraction(rows[i][j]) for i in range(n)] + [Fraction(target[j])] for j in range(k)]
    piv_of_row = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, k) if aug[i][c]), None)
        if p is None:
            continue
        aug[r], aug[p] = aug[p], aug[r]
        for i in range(k):
            if i != r and aug[i][c]:
                f = aug[i][c] / aug[r][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        piv_of_row.append(c)
        r += 1
    for i in range(r, k):
        if aug[i][-1]:
            return None
    sol = [Fraction(0)] * n
    for i, c in enumerate(piv_of_row):
        sol[c] = aug[i][-1] / aug[i][c]
    return sol


def coefficient_lattice_basis(A: IntegerSet) -> LatticeBasis:
    """Lattice basis of {c in Z^k : c . 1 = 0, c . a = 0}; rank k-2."""
    if A.k < 3:
        raise ValueError("coefficient lattice is trivial for k < 3")
    rows = _kernel_columns([[1] * A.k, list(A.elements)])
    return LatticeBasis(tuple(rows), A)


class _RationalEchelon:
    """Incrementally reduced set of rows over Q, for exact independence
    testing while minima are collected."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: list[tuple[int, list[Fraction]]] = []

    def try_add(self, vec: tuple[int, ...]) -> bool:
        w = [Fraction(x) for x in vec]
        for piv, row in self.rows:
            if w[piv]:
                f = w[piv] / row[piv]
                w = [x - f * y for x, y in zip(w, row)]
        piv = next((i for i, x in enumerate(w) if x), None)
        if piv is None:
            return False
        self.rows.append((piv, w))
        return True


def lattice_shells(A: IntegerSet, cap: int) -> dict[int, list[tuple[int, ...]]]:
    """All canonical nonzero lattice vectors of L1 norm <= cap, keyed by
    norm. Canonical means the first nonzero coordinate is positive; the
    mirror image -v is implied.

    One enumerator serves every k >= 3. Coordinates c_1..c_{k-3} are
    scanned; the last free coordinate c = c_{k-2} is not. With s and d the
    sum and the a-weighted sum of c_1..c_{k-3}, the two constraints give
    c_{k-1} = (d - a_k s + (a_{k-2} - a_k) c) / det with det = a_k - a_{k-1},
    and c_k = -s - c - c_{k-1}. So c_{k-1} is integral exactly when
    (a_{k-2} - a_k) c = a_k s - d (mod det). With g the gcd of
    a_{k-2} - a_k and det, that congruence has no solution unless g divides
    d - a_k s, and otherwise fixes c modulo m = det / g; c then steps over
    that residue class in steps of m.
    """
    if A.k < 3:
        raise ValueError("coefficient lattice is trivial for k < 3")
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    a = A.elements
    k = A.k
    ak = a[-1]
    det = ak - a[-2]
    slope = a[-3] - ak
    # u * c = -(d - a_k s) (mod det), solved as c = inv * (-(d - a_k s) / g)
    # (mod m); u = 0 gives g = det and m = 1.
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


@dataclass(frozen=True)
class MinimaReport:
    """Successive L1 minima 2h_1 <= 2h_2 <= ... with their minimizers.

    minima[i] is the smallest norm at which i+1 linearly independent
    lattice vectors exist; minimizers[i] achieves it. Minimizers are
    canonicalized (first nonzero coordinate positive, lexicographically
    least among equal-norm candidates), so recomputation is reproducible
    even though minimizers are mathematically non-unique. truncated is set
    when fewer than the requested number of minima exist within `cap`.
    """

    minima: tuple[int, ...]
    minimizers: tuple[tuple[int, ...], ...]
    cap: int
    truncated: bool

    def to_dict(self) -> dict:
        return {
            "minima": list(self.minima),
            "minimizers": [list(v) for v in self.minimizers],
            "cap": self.cap,
            "truncated": self.truncated,
        }


def successive_minima(A: IntegerSet, count: int, cap: int) -> MinimaReport:
    """First `count` successive L1 minima of the coefficient lattice of A,
    by complete enumeration of every norm shell 4, 6, ..., cap.

    count must be between 1 and k-2; cap must be even and at least 4.
    """
    if A.k < 3:
        raise ValueError("successive minima need k >= 3")
    if not 1 <= count <= A.k - 2:
        raise ValueError(f"count must be in [1, {A.k - 2}]")
    if cap < 4 or cap % 2:
        raise ValueError("cap must be an even integer >= 4")

    shells = lattice_shells(A, cap)
    minima: list[int] = []
    minimizers: list[tuple[int, ...]] = []
    echelon = _RationalEchelon()
    for norm in sorted(shells):
        for vec in sorted(shells[norm]):
            if echelon.try_add(vec):
                minima.append(norm)
                minimizers.append(vec)
                if len(minima) == count:
                    return MinimaReport(tuple(minima), tuple(minimizers), cap, False)
    return MinimaReport(tuple(minima), tuple(minimizers), cap, True)


# The first ball find_minima sweeps; each retry doubles it.
_START_CAP = 16


def find_minima(A: IntegerSet, count: int, max_cap: int = 4096) -> MinimaReport:
    """successive_minima with a doubling cap schedule.

    Sweeping a ball costs about cap^(k-3) * (cap/m + 1) steps, where m is
    the step of the last free coordinate's congruence (see lattice_shells),
    so starting small and doubling until the requested minima appear keeps
    the cost near the cheapest sufficient cap. The final report is still
    certified for its cap; if max_cap is reached without `count` minima
    the report comes back truncated rather than wrong.
    """
    cap = min(_START_CAP, max_cap)
    while True:
        report = successive_minima(A, count, cap)
        if not report.truncated or cap >= max_cap:
            return report
        cap = min(cap * 2, max_cap)
