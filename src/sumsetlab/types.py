"""Addition-table types, separation, and type-preserving transport between
rational, integer, and multiplicative settings.

The h-type of a k-element set is the partition of the composition vectors
(c_1, ..., c_k), c_i >= 0, sum c_i = h, by equal dot product with the
element vector. Its class count is |hA|. Partitions are canonicalized by
walking compositions in lexicographic order and numbering classes in
order of first appearance, so two partitions are equal exactly when the
serialized class id lists are equal.

Three transports are implemented, all exact:

  * embed_real_to_integers: a rational set is affinely placed in [0, 1];
    simultaneous dilations q*q0 are scanned until the fractional parts of
    the interior elements revisit a box of side 1/(2h), which yields a
    dilation Q with every Q*x_i within 1/(2h) of an integer. Rounding
    then preserves the h-type in both directions: equal sums stay equal
    because the total rounding error is below 1, distinct sums stay
    distinct because Q >= q0 >= 2/sep_h(X). All arithmetic is exact:
    Fraction arithmetic, and the scan floors m*x as m*num // den.

  * sum_to_product: s -> 2**s turns equal sums into equal products
    verbatim.

  * product_to_sum: the same box-collision scan applied to the base-2
    logarithms of the elements, handled symbolically. Every number the
    transport floors is an integer multiple m*log2(r) of the log of one
    positive rational r: a scaled element log in the scan and the
    rounding, or q*log2(r) for the least ratio r of two distinct h-fold
    products when q0 is found. Writing r = 2**e * a/b with a, b odd and
    coprime, log2(r) = e + log2(a/b) (class LogLinear holds e, a and b),
    and log2(a/b) is rational only when a = b = 1: log2(a/b) = u/v with
    v > 0 gives a**v = 2**u * b**v, where a**v and b**v are odd, so u = 0
    and then a = b, which coprimality makes 1. So the multiple is
    rational, and then the integer m*e, exactly when m = 0 or a = b,
    decided without factoring anything. Floors and strict signs of
    irrational values are decided by interval evaluation at escalating
    precision; an irrational value is never an integer or zero, so some
    precision settles each one, and past the last entry of
    PRECISION_SCHEDULE it raises PrecisionExhaustedError. The intervals
    are dyadic fixed point, computed in integers: log2 n = e + ln m / ln 2
    for n = 2**e * m, m in [1, 2), with ln m and ln 2 summed as a
    truncated atanh series under an explicit error bound, held as
    integers lo/2**s < log2 n < hi/2**s. Each log keeps its interval at
    the first precision of the schedule. The floor of m*log2(r) scales
    that interval by m, which keeps it over 2**s, and takes two right
    shifts by s; only a floor whose scaled interval straddles an integer
    goes on to the next precision. Both transports round x to
    floor(x + 1/2) as (floor(2x) + 1) // 2, the floor they scan with at
    2x. q0 is exact, the least q with r**q >= 4, so the output depends on
    (P, h) alone and not on how tight an interval is. The output set is
    verified against the product type by exact big-integer products
    before being returned.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .core import CapExceeded, IntegerSet, RationalSet, enumerate_compositions

PRECISION_SCHEDULE = (64, 128, 256, 512, 1024, 2048, 4096)

DEFAULT_POWER_BIT_BUDGET = 1_000_000

# Dilation steps the box-collision scan may take. The pigeonhole bound
# (2h)**(k-2) + 1 outgrows any time budget once k is large (12**12 + 1 for
# k = 14, h = 6), and each step adds an entry to the scan's `seen` dict.
DILATION_STEP_BUDGET = 200_000


class PrecisionExhaustedError(CapExceeded):
    """An interval sign/floor query stayed ambiguous through the whole
    precision schedule."""

    def __init__(self, message: str, attempted: tuple[int, ...]):
        super().__init__(f"{message} (attempted precisions: {list(attempted)})")
        self.attempted = attempted


@dataclass(frozen=True)
class TypePartition:
    """Canonical h-type: one class id per composition of h into k parts,
    in lexicographic composition order."""

    h: int
    k: int
    class_ids: tuple[int, ...]

    @property
    def class_count(self) -> int:
        return max(self.class_ids) + 1 if self.class_ids else 0

    def to_dict(self) -> dict:
        return {"h": self.h, "k": self.k, "class_ids": list(self.class_ids)}


def _partition_by(keys) -> tuple[int, ...]:
    """Each key replaced by the index of its first appearance."""
    ids: dict = {}
    return tuple([ids.setdefault(key, len(ids)) for key in keys])


def _sums(vals, h: int) -> list:
    """c . vals for every composition c of h into len(vals) parts, in
    composition order."""
    return [sum(map(mul, comp, vals)) for comp in enumerate_compositions(h, len(vals))]


def _products(vals, h: int) -> list[int]:
    """prod p_i**c_i for every composition c of h into len(vals) parts, in
    composition order."""
    return [math.prod(map(pow, vals, comp)) for comp in enumerate_compositions(h, len(vals))]


def h_type(A, h: int) -> TypePartition:
    """The h-type of an IntegerSet or RationalSet."""
    if h < 1:
        raise ValueError("h must be positive")
    return TypePartition(h, A.k, _partition_by(_sums(A.elements, h)))


def product_type(P: IntegerSet, h: int) -> TypePartition:
    """The multiplicative h-type: compositions partitioned by the exact
    product prod p_i**c_i. Elements must be positive."""
    if h < 1:
        raise ValueError("h must be positive")
    if P.elements[0] < 1:
        raise ValueError("product types need positive elements")
    return TypePartition(h, P.k, _partition_by(_products(P.elements, h)))


def separation(X, h: int) -> Fraction:
    """Smallest nonzero gap between distinct h-fold sums of X (exact)."""
    if h < 1:
        raise ValueError("h must be positive")
    sums = sorted(set(_sums(X.elements, h)))
    if len(sums) < 2:
        raise ValueError("all h-fold sums coincide; separation undefined")
    return Fraction(min(b - a for a, b in zip(sums, sums[1:])))


@dataclass(frozen=True)
class EmbeddingTrace:
    """Witness data for one run of the box-collision embedding.

    q0 satisfies sep_h(X_normalized) * q0 >= 2; Q is the dilation found by
    the collision; epsilons[i] = Q * x_i - a_i with |eps| < 1/(2h) and the
    endpoints exactly 0.
    """

    q0: int
    Q: int
    epsilons: tuple[Fraction, ...]
    result: IntegerSet

    def to_dict(self) -> dict:
        return {
            "q0": self.q0,
            "Q": self.Q,
            "epsilons": [str(e) for e in self.epsilons],
            "result": list(self.result.elements),
        }


def _collision_dilation(values, floor_scaled, q0: int, h: int) -> int:
    """A dilation Q, a positive multiple of q0, with every Q*v within
    1/(2h) of an integer. The fractional parts of q*q0*v, q = 0, 1, ...,
    are binned into boxes of side 1/(2h) (floor_scaled(v, m) is floor(m*v));
    when step q revisits the box of step p, Q = (q - p)*q0. Raises
    CapExceeded after DILATION_STEP_BUDGET steps without a collision."""
    twoh = 2 * h
    seen: dict[tuple[int, ...], int] = {}
    for q in range(DILATION_STEP_BUDGET):
        scale = q * q0 * twoh
        box = tuple(floor_scaled(v, scale) % twoh for v in values)
        if box in seen:
            return (q - seen[box]) * q0
        seen[box] = q
    raise CapExceeded(f"no box collision within {DILATION_STEP_BUDGET} dilation steps")


def embed_real_to_integers(X, h: int) -> tuple[IntegerSet, EmbeddingTrace]:
    """A set of nonnegative integers with exactly the h-type of X.

    X may be a RationalSet or IntegerSet with k >= 2. The collision is
    guaranteed within (2h)**(k-2) + 1 dilation steps (that many fractional
    part vectors, one fewer boxes); a scan that reaches
    DILATION_STEP_BUDGET steps first raises CapExceeded.
    """
    if h < 1:
        raise ValueError("h must be positive")
    k = len(X.elements)
    if k < 2:
        raise ValueError("embedding needs at least two elements")
    lo, hi = X.elements[0], X.elements[-1]
    xs = [Fraction(x - lo, 1) / (hi - lo) for x in X.elements]

    sep = separation(RationalSet(xs), h)
    q0 = math.ceil(Fraction(2) / sep)

    def floor(x: Fraction, m: int) -> int:
        return m * x.numerator // x.denominator

    Q = _collision_dilation(xs[1:-1], floor, q0, h)

    members = [(floor(x, 2 * Q) + 1) // 2 for x in xs]
    epsilons = tuple(Q * x - a for x, a in zip(xs, members))
    A = IntegerSet(members)
    if A.k != k:
        raise AssertionError("embedding collapsed two elements; q0 bound violated")
    return A, EmbeddingTrace(q0, Q, epsilons, A)


def sum_to_product(S: IntegerSet) -> IntegerSet:
    """{2**s : s in S}; equal h-fold sums of S become equal h-fold
    products, for every h at once. Exponents above
    DEFAULT_POWER_BIT_BUDGET raise CapExceeded."""
    if S.elements[0] < 0:
        raise ValueError("exponents must be nonnegative")
    if S.elements[-1] > DEFAULT_POWER_BIT_BUDGET:
        raise CapExceeded(
            f"2**{S.elements[-1]} exceeds the {DEFAULT_POWER_BIT_BUDGET}-bit budget"
        )
    return IntegerSet(1 << s for s in S.elements)


# ---------------------------------------------------------------------------
# Exact arithmetic on log2 r = e + log2(a/b), a and b odd and coprime


# Distinct (n, bits) intervals kept. The eight passes of the perfbench
# types workload need 259 together; a process that keeps transporting
# fresh sets evicts the least recently used.
_LOG2_CACHE_SIZE = 1024


def _ln_fixed(m: int, p: int) -> tuple[int, int]:
    """(L, N): L/2**p approximates ln(m/2**p), for 2**p <= m <= 2**(p+1),
    as 2*atanh(z), z = (m - 2**p)/(m + 2**p) <= 1/3, summed over the N
    terms z**(2i+1)/(2i+1) before a power truncates to zero. Every
    operation is in integers with p fractional bits and truncates."""
    one = 1 << p
    z = ((m - one) << p) // (m + one)
    z2 = z * z >> p
    total = n_terms = 0
    term = z
    while term:
        total += term // (2 * n_terms + 1)
        term = term * z2 >> p
        n_terms += 1
    return 2 * total, n_terms


@functools.lru_cache(maxsize=None)
def _ln2_fixed(p: int) -> tuple[int, int]:
    """_ln_fixed at m = 2: ln 2 from the series at z = 1/3."""
    return _ln_fixed(2 << p, p)


@functools.lru_cache(maxsize=_LOG2_CACHE_SIZE)
def _log2_bounds(n: int, bits: int) -> tuple[int, int, int]:
    """Integers (lo, hi, s) with lo/2**s < log2(n) < hi/2**s, n >= 1, and
    hi - lo = 2**(s - bits + 1).

    n = 2**e * m with m in [1, 2). e is exact, so only log2 m = ln m / ln 2
    is approximated, and the error does not grow with n. The fixed point
    has s = bits + g fractional bits, g = bits.bit_length() + 5; a unit is
    2**-s. Truncating m and z costs under 1.5 units of z, so under 3.375
    units of 2*atanh(z), whose derivative is at most 9/4 for z <= 1/3.
    Each of the N - 1 series terms after the first loses under 1.5 units,
    and the tail after the last nonzero term is under 0.6 units, both
    doubled by the 2. So ln m and ln 2 each come out between 0 and
    E = 3N + 4 units below their true values, where each term is at most
    1/9 of the last, so N <= s/3 + 1 and E < s + 5. Dividing the bounds
    outward puts log2 m in an interval about 2E/ln 2 + 2 units wide, under
    3*(s + 5). The returned interval is centred on it with half-width
    2**g >= 32*(bits + 1), which covers it for every bits >= 1.
    """
    s = bits + bits.bit_length() + 5
    e = n.bit_length() - 1
    m = n << (s - e) if e <= s else n >> (e - s)
    a, na = _ln_fixed(m, s)
    b, nb = _ln2_fixed(s)
    q_lo = (a << s) // (b + 3 * nb + 4)
    q_hi = -(-((a + 3 * na + 4) << s) // b)
    margin = 1 << (s - bits)
    mid = (e << s) + (q_lo + q_hi) // 2
    return mid - margin, mid + margin, s


class LogLinear:
    """log2 of a positive rational 2**rat * num/den, held exactly as
    rat + log2(num/den), with an integer rat, and num and den odd and
    coprime. log2(num/den) is irrational unless num = den = 1, so the
    value is rational, and then the integer rat, precisely when
    num == den. Its negation is log2 of the reciprocal,
    LogLinear(-rat, den, num). Floors are taken of integer multiples
    m * self.
    """

    __slots__ = ("rat", "num", "den", "_unit")

    def __init__(self, rat: int, num: int, den: int):
        self.rat = rat
        self.num = num
        self.den = den
        # (bits, lo, hi, s): _interval(bits) at bits = PRECISION_SCHEDULE[0]
        self._unit = None

    @classmethod
    def log2_of(cls, r) -> "LogLinear":
        """log2 of a positive integer or Fraction."""
        r = Fraction(r)
        if r <= 0:
            raise ValueError("log2 of a nonpositive number")
        a, b = r.numerator, r.denominator
        ta = (a & -a).bit_length() - 1
        tb = (b & -b).bit_length() - 1
        return cls(ta - tb, a >> ta, b >> tb)

    @property
    def is_rational(self) -> bool:
        return self.num == self.den

    def _interval(self, bits: int) -> tuple[int, int, int]:
        """Integers (lo, hi, s) with lo/2**s <= self <= hi/2**s, from the
        log2 intervals at `bits`, whose common denominator is 2**s. The
        interval at PRECISION_SCHEDULE[0] is kept with its precision, and
        rebuilt when the schedule's first entry differs, because the
        schedule is a budget read at call time."""
        unit = self._unit
        if unit is not None and unit[0] == bits:
            return unit[1:]
        lo = hi = s = 0
        if self.num > 1:
            lo, hi, s = _log2_bounds(self.num, bits)
        if self.den > 1:
            dlo, dhi, ds = _log2_bounds(self.den, bits)
            if ds > s:
                lo, hi, s = lo << (ds - s), hi << (ds - s), ds
            else:
                dlo, dhi = dlo << (s - ds), dhi << (s - ds)
            lo, hi = lo - dhi, hi - dlo
        base = self.rat << s
        lo, hi = base + lo, base + hi
        if bits == PRECISION_SCHEDULE[0]:
            self._unit = (bits, lo, hi, s)
        return lo, hi, s

    def floor(self, m: int = 1) -> int:
        """Exact floor of m*self for an integer m. Rational values
        short-circuit. Otherwise each precision of PRECISION_SCHEDULE in
        turn scales the interval (lo, hi, s) of self by m; the ends come in
        the opposite order when m < 0, which does not matter, as the floor
        is settled once both have the same floor. An irrational value is
        never an integer, so some precision settles it, and
        PrecisionExhaustedError is raised when none does."""
        if self.is_rational:
            return self.rat * m
        for bits in PRECISION_SCHEDULE:
            lo, hi, s = self._interval(bits)
            lo = m * lo >> s
            if lo == m * hi >> s:
                return lo
        raise PrecisionExhaustedError("floor of a log-linear value", PRECISION_SCHEDULE)

    def sign_lower_bound(self) -> Fraction:
        """A positive rational lower bound for a value known to be > 0,
        from the first precision in PRECISION_SCHEDULE that yields one."""
        if self.is_rational:
            if self.rat <= 0:
                raise ValueError("value is not positive")
            return self.rat
        for bits in PRECISION_SCHEDULE:
            lo, _, s = self._interval(bits)
            if lo > 0:
                return Fraction(lo, 1 << s)
        raise PrecisionExhaustedError("lower bound of a log-linear value", PRECISION_SCHEDULE)


def _q0(products) -> int:
    """The least q with r**q >= 4, i.e. q*log2(r) >= 2, where r is the
    least ratio of two distinct products: the least dilation that puts
    every two distinct h-fold log sums at least 2 apart. The products of
    k >= 2 distinct positive elements hold at least two values, since
    p_1**h < p_2**h."""
    prods = sorted(set(products))
    a, b = prods[1], prods[0]
    for m1, m2 in zip(prods[1:], prods[2:]):
        if m2 * b < a * m1:
            a, b = m2, m1
    gap = LogLinear.log2_of(Fraction(a, b))
    # never below the least q; step down, doubling the step while it still
    # suffices, then bisect the last step
    q0 = math.ceil(Fraction(2) / gap.sign_lower_bound())
    step = 1
    while gap.floor(q0 - step) >= 2:
        q0 -= step
        step *= 2
    while step > 1:
        step //= 2
        if gap.floor(q0 - step) >= 2:
            q0 -= step
    return q0


def product_to_sum(P: IntegerSet, h: int) -> IntegerSet:
    """A set of nonnegative integers whose additive h-type equals the
    multiplicative h-type of P (elements positive, k >= 2).

    Runs the box-collision scan on {log2 p : p in P} with the LogLinear
    representation, from q0 the least q with r**q >= 4, where r is the
    least ratio of two distinct h-fold products. Every floor the scan and
    the rounding take is exact, so the output depends on (P, h) only. The
    claimed type identity is verified exactly via big-integer products
    before returning.
    """
    if h < 1:
        raise ValueError("h must be positive")
    k = P.k
    if k < 2:
        raise ValueError("transport needs at least two elements")
    if P.elements[0] < 1:
        raise ValueError("elements must be positive integers")

    products = _products(P.elements, h)
    target = TypePartition(h, k, _partition_by(products))
    logs = [LogLinear.log2_of(p) for p in P.elements]
    Q = _collision_dilation(logs, LogLinear.floor, _q0(products), h)

    members = [(l.floor(2 * Q) + 1) // 2 for l in logs]
    A = IntegerSet(members)
    if A.k != k or h_type(A, h) != target:
        raise AssertionError("log-linear transport produced a wrong type; this is a bug")
    return A
