"""The coefficient lattice of an integer set and its successive L1 minima.

For A = {a_1 < ... < a_k} the coefficient lattice is

    L = { c in Z^k : c . 1 = 0  and  c . a = 0 },

a rank k-2 sublattice of Z^k. Its members encode coincidences among
h-fold sums: c splits as u - v with u, v nonnegative compositions of
||c||_1 / 2, and u . a = v . a. Every nonzero member has even L1 norm at
least 4.

Everything here is integer arithmetic. The kernel basis comes from a
multi-term Euclid on the differences a_j - a_1 (a Hermite reduction of
[[1, ..., 1], a] whose first row is cleared in closed form). Independence,
while minima are collected, and lattice membership are decided by
fraction-free elimination, which keeps every row integral and makes the
same decisions elimination over Q would.

Minima are certified by exhaustive enumeration: coordinates c_1..c_{k-3}
are scanned under a remaining-norm budget, the last free coordinate
c_{k-2} is stepped over the solutions of a linear congruence, and the
last two coordinates are solved exactly from the two linear constraints.
The congruence is the condition that c_{k-1} come out integral: it is
taken modulo det = a_k - a_{k-1}, and its solutions form at most one
residue class modulo m = det / g, where g depends on A only, so c_{k-2}
advances in steps of m instead of 1. Every coordinate is bounded by the
L1 ball itself: a scanned one by what the coordinates after it must sum
to, and the last three by a box that holds exactly when their norm fits
the budget, so the class is walked only between its first and last
vector in the ball, and every step emits. The enumeration emits one
canonical representative per {v, -v} pair (first nonzero coordinate
positive). A completed sweep up to norm `cap` proves there is no
undiscovered vector of norm <= cap, which is what makes the reported
minima exact rather than best-found.

What remains is choosing the cap. At rank <= 2 (k <= 4) the kernel
basis Gauss-reduced in the L1 norm (Kaib & Schnorr, "The generalized
Gauss reduction algorithm", J. Algorithms 21, 1996) has norms exactly
lambda_1 and lambda_2, so `find_minima` sweeps once at lambda_count, and
the minima values need no sweep at all (`_minima_values`). At k >= 5
there is no such reduction, and `find_minima` sweeps at caps 4, 8, 16,
... until one sweep finds `count` independent vectors; a completed sweep
at any cap >= lambda_count certifies the same minima and minimizers.

Many sets at once (`_minima_values_block`, the minima statistics' path)
run those rank <= 2 values as int64 array steps over a block of sets:
the Euclid of `_difference_kernel` with its pivot rule and floor
division, then the Gauss step of `_gauss_norms`. Runtime guards keep
int64 exact, and a set that fails one goes through `_minima_values`;
`_minima_values_block` states them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import gcd

import numpy as np

from .core import CapExceeded, IntegerSet, _integral

# Vectors one `lattice_shells` sweep may emit (rank k - 2 balls grow as
# cap^(k-2), so a k >= 5 sweep at a large cap fills memory and runs for hours).
DEFAULT_VECTOR_BUDGET = 250_000


def _difference_kernel(a: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Integer kernel basis of [[1, ..., 1], a] by unimodular column
    reduction (Hermite-style), done on the differences.

    Clearing the all-ones row with column 1 leaves column j as
    (0, a_j - a_1) with transform e_j - e_1, so what remains is a
    multi-term Euclid on d_j = a_j - a_1, j = 2..k: swap the smallest
    nonzero d (first on ties) into the pivot place, replace every other d
    by its remainder (floor division), and repeat until only the pivot is
    nonzero. The transforms of the cleared columns are a lattice basis of
    the kernel, not merely a spanning set, because the transform is
    unimodular. Each transform sums to 0, so only its coordinates 2..k are
    kept and coordinate 1 is minus their sum."""
    a1 = a[0]
    d = [x - a1 for x in a[1:]]
    n = len(d)
    us = [[int(i == j) for i in range(n)] for j in range(n)]
    while True:
        piv = best = 0
        for j, x in enumerate(d):
            if x and (not best or abs(x) < best):
                piv, best = j, abs(x)
        d[0], d[piv] = d[piv], d[0]
        us[0], us[piv] = us[piv], us[0]
        p, u0 = d[0], us[0]
        cleared = True
        for j in range(1, n):
            x = d[j]
            if x:
                q = x // p
                d[j] = x - q * p
                us[j] = [y - q * z for y, z in zip(us[j], u0)]
                if d[j]:
                    cleared = False
        if cleared:
            return [(-sum(u), *u) for u in us[1:]]


@dataclass(frozen=True)
class LatticeBasis:
    """Exact integer basis (k-2 rows) of the coefficient lattice of `set`."""

    rows: tuple[tuple[int, ...], ...]
    set: IntegerSet

    def contains(self, vector) -> bool:
        """Exact membership test. Each row r_i is loaded into one integer
        echelon as (r_i | e_i), with e_i the i-th unit vector, and (v | 0)
        is reduced against them to (scale, w). w is (0 | -c) exactly when
        scale*v = sum c_i r_i; the rows are independent, so c is unique,
        and v is in the lattice when scale divides every c_i. Coordinates
        are converted as IntegerSet converts elements, and a vector with a
        non-integral coordinate is not in Z^k, so it is not a member."""
        k = self.set.k
        if len(vector) != k:
            return False
        try:
            v = [x if type(x) is int else _integral(x) for x in vector]
        except ValueError:
            return False
        n = len(self.rows)
        echelon = _IntegerEchelon()
        for i, row in enumerate(self.rows):
            echelon.try_add((*row, *(int(i == j) for j in range(n))))
        scale, w = echelon.reduce((*v, *[0] * n))
        return not any(w[:k]) and all(c % scale == 0 for c in w[k:])

    def to_dict(self) -> dict:
        return {"set": list(self.set.elements), "rows": [list(r) for r in self.rows]}


def coefficient_lattice_basis(A: IntegerSet) -> LatticeBasis:
    """Lattice basis of {c in Z^k : c . 1 = 0, c . a = 0}; rank k-2."""
    if A.k < 3:
        raise ValueError("coefficient lattice is trivial for k < 3")
    rows = _difference_kernel(A.elements)
    return LatticeBasis(tuple(rows), A)


class _IntegerEchelon:
    """Incrementally reduced integer rows, the one exact eliminator: it
    tests independence while minima are collected, and lattice membership.

    Elimination is fraction-free (Bareiss, "Sylvester's identity and
    multistep integer-preserving Gaussian elimination", Math. Comp. 22,
    1968): a stored row with pivot p = row[piv] clears x = w[piv] from w as
    w <- p*w - x*row, both sides divided by gcd(p, x) first. Stored rows
    are primitive with a positive pivot. Each row is a nonzero multiple of
    the row rational elimination would store, so the two make the same
    independence decisions on every sequence."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: list[tuple[int, list[int]]] = []

    def reduce(self, vec) -> tuple[int, list[int]]:
        """(scale, w) with w = scale*vec - sum c_i*row_i, scale > 0 and the
        c_i integral. Each row is zero at the pivots of the rows before it,
        so w is zero at every pivot, and all zero exactly when vec lies in
        the rows' span. scale and w are divided by their joint gcd as the
        rows are applied."""
        scale, w = 1, vec
        for piv, row in self.rows:
            x = w[piv]
            if x:
                p = row[piv]
                g = gcd(p, x)
                p //= g
                x //= g
                w = [p * y - x * z for y, z in zip(w, row)]
                scale *= p
                g = gcd(scale, *w)
                if g != 1:
                    scale //= g
                    w = [y // g for y in w]
        return scale, w

    def try_add(self, vec: tuple[int, ...]) -> bool:
        _, w = self.reduce(vec)
        for piv, x in enumerate(w):
            if x:
                g = gcd(*w) if x > 0 else -gcd(*w)
                self.rows.append((piv, [y // g for y in w]))
                return True
        return False


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
    d - a_k s, and otherwise fixes c modulo m = det / g. Along that residue
    class c steps by m > 0, c_{k-1} by q = (a_{k-2} - a_k) / g < 0 and c_k
    by w = (a_{k-1} - a_{k-2}) / g > 0.

    Two exact bounds keep the sweep on the vectors it emits:

    - Scanned coordinates. With s the sum of the coordinates before a
      scanned x and budget the norm they leave, the coordinates from x on
      sum to -s, so x can be completed only if |x| + |s + x| <= budget,
      that is -floor((budget + s) / 2) <= x <= floor((budget - s) / 2).
      The interval is right because |s| <= budget at every level: s = 0 at
      the root, and the bound keeps it for each child.
    - The last three. Three integers y_1, y_2, y_3 with sum S have
      |y_1| + |y_2| + |y_3| = max(|S|, |S - 2y_1|, |S - 2y_2|, |S - 2y_3|).
      With S = -s - x the sum of c, c_{k-1} and c_k, and rest the norm left
      for them, |S| <= rest by the invariant, so their norm is at most rest
      exactly when each lies in the box
      ceil((S - rest) / 2) <= y <= floor((S + rest) / 2). Each box bounds
      the step index along the residue class by one floor division, and the
      steps between the tightest bounds are exactly the vectors in the ball.

    Only nodes that emit nothing are skipped, and vectors come out in the
    order of a scan of every c of the class. That order is a contract that
    `successive_minima` relies on: each scanned coordinate ascends, c
    ascends along its class, and c_1..c_{k-2} fix the last two, so every
    shell lists its vectors in strictly increasing lexicographic order.
    c_{k-3}, the last scanned coordinate, is looped over in the same frame
    as that step, so each of its values costs no call.

    Before a value of c_{k-3} emits its steps, they are added to a running
    count, and the sweep raises CapExceeded once the count passes
    DEFAULT_VECTOR_BUDGET.
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
    nq, w = -slope // g, (a[-2] - a[-3]) // g  # nq = -q > 0: c_{k-1} steps by -nq
    shells: dict[int, list[tuple[int, ...]]] = {}
    prefix = [0] * (k - 3)
    last = k - 4  # index of c_{k-3}, the last scanned coordinate; -1 at k = 3
    limit = DEFAULT_VECTOR_BUDGET
    emitted = -1  # the walk passes the zero vector once and does not emit it

    def assign(i: int, budget: int, leading: bool, s: int, d: int) -> None:
        nonlocal emitted
        xs = range(0 if leading else -((budget + s) // 2), (budget - s) // 2 + 1)
        if i < last:
            ai = a[i]
            for x in xs:
                prefix[i] = x
                assign(i + 1, budget - abs(x), leading and x == 0, s + x, d + ai * x)
            prefix[i] = 0
            return
        # x = c_{k-3}. k = 3 scans nothing: the loop runs once with x = 0 of
        # weight 0, and the slice below drops it from the head.
        if i == last:
            ai, pre = a[i], tuple(prefix[:i])
        else:
            ai, xs, pre = 0, (0,), ()
        r0, wx = d - ak * s, ai - ak
        for x in xs:
            r = r0 + wx * x
            if r % g:
                continue
            rest = budget - abs(x)
            S = -s - x
            ylo, yhi = -((rest - S) // 2), (S + rest) // 2
            lo_c = 0 if leading and x == 0 else ylo
            c = lo_c + (inv * (-r // g) - lo_c) % m
            cm1 = (r + slope * c) // det
            ck = S - c - cm1
            # step t takes c to c + m t, c_{k-1} to cm1 - nq t, c_k to ck + w t
            t0 = max(0, -((yhi - cm1) // nq), -((ck - ylo) // w))
            t1 = min((yhi - c) // m, (cm1 - ylo) // nq, (yhi - ck) // w)
            if t0 > t1:
                continue
            emitted += t1 - t0 + 1
            if emitted > limit:
                raise CapExceeded(f"lattice sweep to norm {cap} passes {limit} vectors")
            head = (*pre, x)[: k - 3]
            used = cap - rest
            cm1 -= nq * t0
            ck += w * t0
            for c in range(c + m * t0, c + m * t1 + 1, m):
                norm = used + abs(c) + abs(cm1) + abs(ck)
                if norm:
                    shells.setdefault(norm, []).append(head + (c, cm1, ck))
                cm1 -= nq
                ck += w

    assign(0, cap, True, 0, 0)
    return shells


@dataclass(frozen=True)
class MinimaReport:
    """Successive L1 minima 2h_1 <= 2h_2 <= ... with their minimizers.

    minima[i] is the smallest norm at which i+1 linearly independent
    lattice vectors exist; minimizers[i] achieves it. Minimizers are
    canonicalized (first nonzero coordinate positive, lexicographically
    least among equal-norm candidates), so recomputation is reproducible
    even though minimizers are mathematically non-unique. cap is the norm
    up to which every lattice vector was enumerated, and truncated is set
    when fewer than the requested number of minima exist within it.
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


def _check_minima_args(k: int, count: int, cap: int) -> None:
    if k < 3:
        raise ValueError("successive minima need k >= 3")
    if not 1 <= count <= k - 2:
        raise ValueError(f"count must be in [1, {k - 2}]")
    if cap < 4 or cap % 2:
        raise ValueError("cap must be an even integer >= 4")


def successive_minima(A: IntegerSet, count: int, cap: int) -> MinimaReport:
    """First `count` successive L1 minima of the coefficient lattice of A,
    by complete enumeration of every norm shell 4, 6, ..., cap.

    count must be between 1 and k-2; cap must be even and at least 4.
    """
    _check_minima_args(A.k, count, cap)
    shells = lattice_shells(A, cap)
    minima: list[int] = []
    minimizers: list[tuple[int, ...]] = []
    echelon = _IntegerEchelon()
    for norm in sorted(shells):
        for vec in shells[norm]:
            if echelon.try_add(vec):
                minima.append(norm)
                minimizers.append(vec)
                if len(minima) == count:
                    return MinimaReport(tuple(minima), tuple(minimizers), cap, False)
    return MinimaReport(tuple(minima), tuple(minimizers), cap, True)


def _l1(v) -> int:
    return sum(map(abs, v))


def _gauss_norms(A: IntegerSet) -> list[int]:
    """lambda_1, ..., lambda_{k-2} at rank k - 2 <= 2, from the kernel basis.

    At rank 1 that is the one row's norm. At rank 2 it is Kaib & Schnorr's
    Gauss reduction in the L1 norm: with r the shorter row, b is replaced
    by its shortest b - mu*r, mu integral, and the two swap and repeat
    while b comes out shorter than r; each swap shortens r, so the loop
    ends, and the final norms are exactly lambda_1 and lambda_2.
    ||b - t*r|| is convex and piecewise linear in t with breakpoints
    b_i / r_i, so a real minimizer is a breakpoint and an integral one is
    its floor or that plus 1. The caller checks k <= 4 first.
    """
    rows = _difference_kernel(A.elements)
    if len(rows) == 1:
        return [_l1(rows[0])]
    r, b = sorted(rows, key=_l1)
    while True:
        mus = {y // x + e for x, y in zip(r, b) if x for e in (0, 1)}
        b = min(([y - mu * x for x, y in zip(r, b)] for mu in mus), key=_l1)
        if _l1(b) >= _l1(r):
            return [_l1(r), _l1(b)]
        r, b = b, r


def find_minima(A: IntegerSet, count: int, max_cap: int = 4096) -> MinimaReport:
    """successive_minima at the first cap that certifies it, up to max_cap.

    A sweep completed at a cap c >= lambda_count has the minima and
    canonical minimizers of every larger sweep: shells go in norm order,
    and vectors within a shell in lexicographic order, so the greedy
    choice sees the same vectors up to lambda_count. At k <= 4 the first
    cap is lambda_count itself (see _gauss_norms), so one sweep suffices.
    At k >= 5 the caps are 4, 8, 16, ..., and the loop stops at the first
    sweep that is not truncated, whose cap is below 2*lambda_count. Every
    cap is clipped to max_cap, and a sweep at max_cap ends the loop, so
    the report comes back truncated exactly when lambda_count > max_cap.
    The last sweep's report is returned as it is: its cap is the radius
    swept, which is max_cap when the report is truncated. count and
    max_cap are checked up front, as successive_minima checks count and
    cap.

    The sweep is only needed for the minimizers, and for the minima at
    k >= 5: _minima_values takes the k <= 4 minima from _gauss_norms alone.
    """
    _check_minima_args(A.k, count, max_cap)
    cap = min(_gauss_norms(A)[count - 1] if A.k <= 4 else 4, max_cap)
    while True:
        report = successive_minima(A, count, cap)
        if not report.truncated or cap == max_cap:
            return report
        cap = min(2 * cap, max_cap)


def _minima_values(A: IntegerSet, count: int, max_cap: int) -> tuple[int, ...]:
    """find_minima(A, count, max_cap).minima, without its minimizers.

    At k >= 5 that is what it returns. At rank <= 2 (k <= 4) the Gauss
    norms are lambda_1, ..., lambda_count, so no sweep runs; those above
    max_cap are dropped, as a sweep at max_cap would not reach them.
    """
    if A.k > 4:
        return find_minima(A, count, max_cap).minima
    _check_minima_args(A.k, count, max_cap)
    return tuple(m for m in _gauss_norms(A)[:count] if m <= max_cap)


# A block holds only sets whose elements lie within +-_INT64_MAX, and runs
# in int64 only while their differences, transform entries and kernel-row
# L1 norms stay below _INT64_GUARD (see _minima_values_block).
_INT64_GUARD = 2**31
_INT64_MAX = 2**63 - 1


def _kernel_block(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_difference_kernel on every row of d, the int64 differences
    a_j - a_1 (j = 2..k, each in [1, _INT64_GUARD)) of one set a row.

    Each pass is one step of the per-set loop on every row: the same pivot
    (smallest nonzero d, first on ties), the same floor division. A cleared
    row is a fixed point of the step, so the passes run until every row is
    cleared. Returns the kernel rows, shape (sets, k - 2, k), and a mask of
    the sets whose transform entries stayed below _INT64_GUARD after every
    step. A set that leaves the guard has its differences zeroed, which
    freezes it, and is not valid.
    """
    sets, n = d.shape
    at = np.arange(sets)
    u = np.zeros((sets, n, n), dtype=np.int64)
    u[:, np.arange(n), np.arange(n)] = 1
    ok = np.ones(sets, dtype=bool)
    while d[:, 1:].any():
        piv = np.where(d > 0, d, _INT64_MAX).argmin(axis=1)
        p, u0 = d[at, piv], u[at, piv]
        d[at, piv], u[at, piv] = d[:, 0], u[:, 0]
        d[:, 0], u[:, 0] = p, u0
        # |q| and every |u| are below 2^31, so q*u stays below 2^62
        q = d[:, 1:] // d[:, :1]
        d[:, 1:] -= q * d[:, :1]
        u[:, 1:] -= q[:, :, None] * u[:, :1]
        if np.abs(u).max() >= _INT64_GUARD:
            escaped = (np.abs(u) >= _INT64_GUARD).any(axis=(1, 2))
            ok &= ~escaped
            d[escaped, 1:] = 0
    rows = u[:, 1:]
    return np.concatenate([-rows.sum(axis=2, keepdims=True), rows], axis=2), ok


def _reduced_norms_block(r: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two Gauss norms of every row pair (r_i, b_i) (see _gauss_norms),
    smaller first, when every row has L1 norm below _INT64_GUARD.

    The same steps as the per-set loop: order the pair by norm, replace b
    by its shortest b - mu*r over mu = floor(b_j / r_j) and that plus 1,
    and swap and repeat while b comes out shorter than r. A coordinate with
    r_j = 0 contributes mu = 0 and 1 instead of nothing; the minimum over
    the per-set candidates is already the minimum over every integral mu,
    so the extra candidates do not change its norm, and at rank 2 the final
    norms are lambda_1 and lambda_2 whichever minimizer a tie picks. With
    ||b||_1, ||r||_1 < 2^31 every |mu| is at most 2^31, so every candidate
    norm is below 2^31 + 2^62; no step lengthens b, so the bound holds to
    the end.
    """
    nr, nb = np.abs(r).sum(axis=1), np.abs(b).sum(axis=1)
    swap = nb < nr
    r, b = np.where(swap[:, None], b, r), np.where(swap[:, None], r, b)
    nr, nb = np.minimum(nr, nb), np.maximum(nr, nb)
    live = np.arange(len(r))
    while live.size:
        rl, bl = r[live], b[live]
        nonzero = rl != 0
        mu = np.where(nonzero, bl // np.where(nonzero, rl, 1), 0)
        mu = np.concatenate([mu, mu + 1], axis=1)
        norms = np.zeros(mu.shape, dtype=np.int64)
        for j in range(rl.shape[1]):
            norms += np.abs(bl[:, j, None] - mu * rl[:, j, None])
        best = norms.argmin(axis=1)
        at = np.arange(live.size)
        length = norms[at, best]
        shortest = bl - mu[at, best][:, None] * rl
        shorter = length < nr[live]
        done, again = live[~shorter], live[shorter]
        nb[done] = length[~shorter]
        b[again], nb[again] = rl[shorter], nr[again]
        r[again], nr[again] = shortest[shorter], length[shorter]
        live = again
    return nr, nb


def _minima_values_block(sets, count: int, max_cap: int) -> list[tuple[int, ...]]:
    """[_minima_values(IntegerSet(s), count, max_cap) for s in sets], for
    sorted tuples s of distinct integers, with the sets of size k <= 4 taken
    a block at a time in int64.

    The block runs _difference_kernel and _gauss_norms as array steps over
    all its sets (_kernel_block, _reduced_norms_block). Exactness rests on
    runtime guards, not on a bound proven in advance: a set joins the block
    only if its elements fit int64 and a_k - a_1 < 2^31, so every
    difference and quotient stays below 2^31; it keeps its block values
    only if every transform entry stayed below 2^31 after every Euclid
    step, so no q*u reaches 2^62, and if its kernel rows have L1 norm below
    2^31, which bounds every reduction candidate below 2^31 + 2^62. Sets
    that fail a guard, and every set of size k >= 5, go through
    _minima_values itself.
    """
    values: list = [None] * len(sets)
    blocks: dict[int, list[int]] = {}
    for i, s in enumerate(sets):
        lo, hi = s[0], s[-1]
        if 3 <= len(s) <= 4 and -_INT64_MAX <= lo and hi <= _INT64_MAX and hi - lo < _INT64_GUARD:
            blocks.setdefault(len(s), []).append(i)
    for k, members in blocks.items():
        _check_minima_args(k, count, max_cap)
        elements = chain.from_iterable(sets[i] for i in members)
        a = np.fromiter(elements, np.int64, k * len(members)).reshape(-1, k)
        kernel, ok = _kernel_block(a[:, 1:] - a[:, :1])
        norms = np.abs(kernel).sum(axis=2)
        ok &= (norms < _INT64_GUARD).all(axis=1)
        kernel, norms = kernel[ok], norms[ok]
        if k == 4:
            norms = np.stack(_reduced_norms_block(kernel[:, 0], kernel[:, 1]), axis=1)
        kept = (i for i, good in zip(members, ok.tolist()) if good)
        for i, row in zip(kept, norms[:, :count].tolist()):
            values[i] = tuple(m for m in row if m <= max_cap)
    return [
        _minima_values(IntegerSet(s), count, max_cap) if v is None else v
        for s, v in zip(sets, values)
    ]
